// ClusterFs tests: per-node mounts of one shared volume, cross-node
// coherence (a writer's generation bump invalidates the peer's cached
// pages on its next grant), fsync, and create/unlink through the DLM.

#include "src/fs/cluster_fs.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/net/dlm.h"
#include "src/net/fabric.h"
#include "src/sim/disk.h"
#include "src/sim/kernel.h"

namespace osfs {
namespace {

osim::KernelConfig ClusterConfig(int nodes) {
  osim::KernelConfig cfg;
  cfg.num_cpus = 2 * nodes;
  cfg.num_nodes = nodes;
  cfg.context_switch_cost = 0;
  cfg.timer_tick_period = 0;
  return cfg;
}

// A two-node cluster with one shared file, ready to mount.
struct Fixture {
  explicit Fixture(int nodes = 2)
      : kernel(ClusterConfig(nodes)),
        disk(&kernel),
        fabric(&kernel),
        dlm(&kernel, &fabric),
        volume(&kernel, &disk) {
    volume.AddDir("/shared");
    volume.AddFile("/shared/data", 256 * 1024);
    for (int n = 0; n < nodes; ++n) {
      mounts.push_back(
          std::make_unique<ClusterFsNode>(&volume, &dlm, n));
    }
    dlm.Start();
  }

  // The standard join: the last finishing client task stops the DLM
  // daemons so RunUntilThreadsFinish can return.
  void ClientDone() {
    --remaining;
    if (remaining == 0) {
      dlm.Shutdown();
    }
  }

  osim::Kernel kernel;
  osim::SimDisk disk;
  osnet::Fabric fabric;
  osnet::Dlm dlm;
  ClusterVolume volume;
  std::vector<std::unique_ptr<ClusterFsNode>> mounts;
  int remaining = 0;
};

TEST(ClusterVolume, MkfsAndResolve) {
  osim::Kernel kernel(ClusterConfig(2));
  osim::SimDisk disk(&kernel);
  ClusterVolume volume(&kernel, &disk);
  volume.AddDir("/a");
  volume.AddDir("/a/b");
  const int f = volume.AddFile("/a/b/f", 4096);
  EXPECT_EQ(volume.ResolvePath("/a/b/f"), f);
  EXPECT_EQ(volume.ResolvePath("/a/missing"), -1);
  EXPECT_EQ(volume.ResolvePath("/"), 0);
}

osim::Task<void> WriteSlice(Fixture* fx, int node, std::uint64_t offset,
                            std::uint64_t bytes) {
  Vfs* fs = fx->mounts[static_cast<std::size_t>(node)].get();
  const int fd = co_await fs->Open("/shared/data", false);
  co_await fs->Llseek(fd, offset);
  const std::int64_t n = co_await fs->Write(fd, bytes);
  EXPECT_EQ(n, static_cast<std::int64_t>(bytes));
  co_await fs->Close(fd);
  fx->ClientDone();
}

osim::Task<void> ReadSlice(Fixture* fx, int node, osim::Cycles delay,
                           std::uint64_t offset, std::uint64_t bytes) {
  if (delay > 0) {
    co_await fx->kernel.Sleep(delay);
  }
  Vfs* fs = fx->mounts[static_cast<std::size_t>(node)].get();
  const int fd = co_await fs->Open("/shared/data", false);
  co_await fs->Llseek(fd, offset);
  const std::int64_t n = co_await fs->Read(fd, bytes);
  EXPECT_EQ(n, static_cast<std::int64_t>(bytes));
  co_await fs->Close(fd);
  fx->ClientDone();
}

TEST(ClusterFs, ReadAndWriteThroughOneNode) {
  Fixture fx;
  fx.remaining = 2;
  fx.kernel.SpawnOn(0, "w", WriteSlice(&fx, 0, 0, 16'384));
  fx.kernel.SpawnOn(0, "r",
                    ReadSlice(&fx, 0, 50'000'000, 0, 16'384));
  fx.kernel.RunUntilThreadsFinish();
  // Same node: the EX grant stays cached, nothing ever revokes it.
  EXPECT_EQ(fx.dlm.basts_sent(), 0u);
  EXPECT_EQ(fx.mounts[0]->invalidations(), 0u);
}

TEST(ClusterFs, ForeignWriteInvalidatesCachedPages) {
  Fixture fx;
  fx.remaining = 3;
  // Node 1 reads first (fills its cache), node 0 writes the same range,
  // node 1 reads again: the second read's grant sees the bumped
  // generation and drops node 1's stale clean pages.
  fx.kernel.SpawnOn(1, "r1", ReadSlice(&fx, 1, 0, 0, 32'768));
  fx.kernel.SpawnOn(0, "w", [](Fixture* f) -> osim::Task<void> {
    co_await f->kernel.Sleep(300'000'000);
    co_await WriteSlice(f, 0, 0, 32'768);
  }(&fx));
  fx.kernel.SpawnOn(1, "r2",
                    ReadSlice(&fx, 1, 600'000'000, 0, 32'768));
  fx.kernel.RunUntilThreadsFinish();
  EXPECT_GE(fx.mounts[1]->invalidations(), 1u);
  // The writer's EX revoked node 1's PR grant; the flush is the
  // downgrade hook's job (node 0 held only dirty pages after the write).
  EXPECT_GT(fx.dlm.basts_sent(), 0u);
}

TEST(ClusterFs, DowngradeFlushesDirtyPagesBeforeTheGrantMoves) {
  Fixture fx;
  fx.remaining = 2;
  fx.kernel.SpawnOn(0, "w", WriteSlice(&fx, 0, 0, 32'768));
  fx.kernel.SpawnOn(1, "r",
                    ReadSlice(&fx, 1, 400'000'000, 0, 32'768));
  fx.kernel.RunUntilThreadsFinish();
  // Node 0's dirty pages were written back by its downgrade hook, not
  // lost: the revoke path flushed all 8 before surrendering EX.
  EXPECT_EQ(fx.mounts[0]->pages_flushed(), 8u);
  EXPECT_GE(fx.dlm.downgrades(), 1u);
}

osim::Task<void> FsyncAfterWrite(Fixture* fx) {
  Vfs* fs = fx->mounts[0].get();
  const int fd = co_await fs->Open("/shared/data", false);
  co_await fs->Write(fd, 16'384);
  co_await fs->Fsync(fd);
  co_await fs->Close(fd);
  fx->ClientDone();
}

TEST(ClusterFs, FsyncWritesBackDirtyPages) {
  Fixture fx;
  fx.remaining = 1;
  fx.kernel.SpawnOn(0, "w", FsyncAfterWrite(&fx));
  fx.kernel.RunUntilThreadsFinish();
  EXPECT_EQ(fx.mounts[0]->pages_flushed(), 4u);  // 16 KiB.
}

// Node 0 dirties the file and caches an EX grant on `resource`; node 1's
// EX request then revokes that grant, running node 0's downgrade hook on
// `resource`.
osim::Task<void> DirtyThenLock(Fixture* fx, std::string resource) {
  Vfs* fs = fx->mounts[0].get();
  const int fd = co_await fs->Open("/shared/data", false);
  co_await fs->Write(fd, 16'384);
  co_await fs->Close(fd);
  co_await fx->dlm.Acquire(resource, osnet::DlmMode::kExclusive);
  fx->dlm.Release(resource, osnet::DlmMode::kExclusive);
  fx->ClientDone();
}

osim::Task<void> LockLater(Fixture* fx, std::string resource) {
  co_await fx->kernel.Sleep(400'000'000);
  co_await fx->dlm.Acquire(resource, osnet::DlmMode::kExclusive);
  fx->dlm.Release(resource, osnet::DlmMode::kExclusive);
  fx->ClientDone();
}

TEST(ClusterFs, DowngradeHookFlushesOnlyForAnExactInodeName) {
  const auto flushed = [](const std::string& resource) {
    Fixture fx;
    fx.remaining = 2;
    fx.kernel.SpawnOn(0, "w", DirtyThenLock(&fx, resource));
    fx.kernel.SpawnOn(1, "r", LockLater(&fx, resource));
    fx.kernel.RunUntilThreadsFinish();
    EXPECT_GE(fx.dlm.downgrades(), 1u) << resource;
    return fx.mounts[0]->pages_flushed();
  };
  const int data = Fixture().volume.ResolvePath("/shared/data");
  const std::string name = "inode:" + std::to_string(data);
  EXPECT_EQ(flushed(name), 4u);
  // Not inode names: a trailing or leading extra, no digits, a sign, an
  // id the volume does not have.
  for (const std::string& bad :
       {name + "x", name + " ", "inode: " + std::to_string(data),
        "inode:+" + std::to_string(data), std::string("inode:"),
        std::string("inode:abc"), std::string("inode:-1"),
        std::string("inode:99999"), std::string("inode:99999999999")}) {
    EXPECT_EQ(flushed(bad), 0u) << bad;
  }
}

osim::Task<void> CreateWriteStatUnlink(Fixture* fx) {
  Vfs* fs = fx->mounts[0].get();
  const int fd = co_await fs->Create("/shared/new");
  co_await fs->Write(fd, 8'192);
  co_await fs->Close(fd);
  const FileAttr attr = co_await fs->Stat("/shared/new");
  EXPECT_FALSE(attr.is_dir);
  EXPECT_EQ(attr.size, 8'192u);
  co_await fs->Unlink("/shared/new");
  fx->ClientDone();
}

osim::Task<void> StatFromPeer(Fixture* fx, std::string path,
                              std::uint64_t expect_size) {
  co_await fx->kernel.Sleep(400'000'000);
  Vfs* fs = fx->mounts[1].get();
  const FileAttr attr = co_await fs->Stat(path);
  EXPECT_EQ(attr.size, expect_size);
  fx->ClientDone();
}

TEST(ClusterFs, CreateStatUnlinkRoundTrip) {
  Fixture fx;
  fx.remaining = 1;
  fx.kernel.SpawnOn(0, "c", CreateWriteStatUnlink(&fx));
  fx.kernel.RunUntilThreadsFinish();
  // Unlinked again: the peer would see ENOENT, and the directory's
  // generation moved twice (create + unlink).
  EXPECT_EQ(fx.volume.ResolvePath("/shared/new"), -1);
}

osim::Task<void> CreateOnly(Fixture* fx, std::string path,
                            std::uint64_t bytes) {
  Vfs* fs = fx->mounts[0].get();
  const int fd = co_await fs->Create(path);
  co_await fs->Write(fd, bytes);
  co_await fs->Close(fd);
  fx->ClientDone();
}

TEST(ClusterFs, CreateIsVisibleFromTheOtherNode) {
  Fixture fx;
  fx.remaining = 2;
  fx.kernel.SpawnOn(0, "c", CreateOnly(&fx, "/shared/peer", 12'288));
  fx.kernel.SpawnOn(1, "s", StatFromPeer(&fx, "/shared/peer", 12'288));
  fx.kernel.RunUntilThreadsFinish();
}

osim::Task<void> ReaddirAll(Fixture* fx, int node,
                            std::vector<std::string>* names) {
  co_await fx->kernel.Sleep(400'000'000);
  Vfs* fs = fx->mounts[static_cast<std::size_t>(node)].get();
  const int fd = co_await fs->Open("/shared", false);
  for (;;) {
    const DirentBatch batch = co_await fs->Readdir(fd);
    for (const std::string& n : batch.names) {
      names->push_back(n);
    }
    if (batch.at_end) {
      break;
    }
  }
  co_await fs->Close(fd);
  fx->ClientDone();
}

TEST(ClusterFs, ReaddirSeesPeerCreations) {
  Fixture fx;
  fx.remaining = 2;
  std::vector<std::string> names;
  fx.kernel.SpawnOn(0, "c", CreateOnly(&fx, "/shared/extra", 4'096));
  fx.kernel.SpawnOn(1, "d", ReaddirAll(&fx, 1, &names));
  fx.kernel.RunUntilThreadsFinish();
  EXPECT_EQ(names,
            (std::vector<std::string>{"data", "extra"}));
}

}  // namespace
}  // namespace osfs
