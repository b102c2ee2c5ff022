#include "src/fs/page_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace osfs {
namespace {

using osim::Kernel;
using osim::KernelConfig;
using osim::SimDisk;
using osim::Task;

KernelConfig QuietConfig() {
  KernelConfig cfg;
  cfg.num_cpus = 1;
  cfg.context_switch_cost = 0;
  cfg.timer_tick_period = 0;
  return cfg;
}

TEST(PageCache, MissThenHit) {
  Kernel k(QuietConfig());
  SimDisk disk(&k);
  PageCache cache(&k, &disk, 100);
  const PageKey key{1, 0};
  EXPECT_FALSE(cache.Contains(key));
  auto reader = [](Kernel& kk, PageCache& c, PageKey pk) -> Task<void> {
    c.StartRead(pk, 1000);
    co_await c.WaitForPage(pk);
    (void)kk;
  };
  k.Spawn("r", reader(k, cache, key));
  k.RunUntilThreadsFinish();
  EXPECT_TRUE(cache.Contains(key));
  EXPECT_EQ(cache.reads_started(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(PageCache, DuplicateStartReadSubmitsOnce) {
  Kernel k(QuietConfig());
  SimDisk disk(&k);
  PageCache cache(&k, &disk, 100);
  const PageKey key{1, 0};
  cache.StartRead(key, 1000);
  cache.StartRead(key, 1000);
  EXPECT_EQ(cache.reads_started(), 1u);
  EXPECT_TRUE(cache.IoInProgress(key));
  k.RunFor(osim::Cycles{1} << 32);
  EXPECT_FALSE(cache.IoInProgress(key));
}

TEST(PageCache, MultipleWaitersAllWake) {
  Kernel k(QuietConfig());
  SimDisk disk(&k);
  PageCache cache(&k, &disk, 100);
  const PageKey key{1, 0};
  int woken = 0;
  auto waiter = [](PageCache& c, PageKey pk, int* count) -> Task<void> {
    co_await c.WaitForPage(pk);
    ++*count;
  };
  cache.StartRead(key, 1000);
  k.Spawn("w1", waiter(cache, key, &woken));
  k.Spawn("w2", waiter(cache, key, &woken));
  k.Spawn("w3", waiter(cache, key, &woken));
  k.RunUntilThreadsFinish();
  EXPECT_EQ(woken, 3);
}

TEST(PageCache, WaitWithoutReadThrows) {
  Kernel k(QuietConfig());
  SimDisk disk(&k);
  PageCache cache(&k, &disk, 100);
  auto waiter = [](PageCache& c) -> Task<void> {
    co_await c.WaitForPage(PageKey{9, 9});
  };
  k.Spawn("w", waiter(cache));
  EXPECT_THROW(k.RunUntilThreadsFinish(), std::logic_error);
}

TEST(PageCache, DirtyPagesFlushByAge) {
  Kernel k(QuietConfig());
  SimDisk disk(&k);
  PageCache cache(&k, &disk, 100);
  cache.MarkDirty(PageKey{1, 0}, 1000);
  k.RunFor(1'000'000);
  cache.MarkDirty(PageKey{1, 1}, 1008);
  // Only the old page qualifies.
  EXPECT_EQ(cache.FlushOlderThan(500'000), 1);
  EXPECT_FALSE(cache.IsDirty(PageKey{1, 0}));
  EXPECT_TRUE(cache.IsDirty(PageKey{1, 1}));
  EXPECT_EQ(cache.FlushOlderThan(0), 1);  // Now the young one too.
}

TEST(PageCache, WriteBackClearsDirtySynchronously) {
  Kernel k(QuietConfig());
  SimDisk disk(&k);
  PageCache cache(&k, &disk, 100);
  cache.MarkDirty(PageKey{1, 0}, 1000);
  auto syncer = [](PageCache& c) -> Task<void> {
    co_await c.WriteBack(PageKey{1, 0});
  };
  k.Spawn("s", syncer(cache));
  k.RunUntilThreadsFinish();
  EXPECT_FALSE(cache.IsDirty(PageKey{1, 0}));
  EXPECT_EQ(cache.writebacks(), 1u);
  EXPECT_EQ(disk.requests_completed(), 1u);
}

TEST(PageCache, LruEvictionPrefersColdPages) {
  Kernel k(QuietConfig());
  SimDisk disk(&k);
  PageCache cache(&k, &disk, 3);
  cache.MarkValid(PageKey{1, 0}, 1000);
  cache.MarkValid(PageKey{1, 1}, 1008);
  cache.MarkValid(PageKey{1, 2}, 1016);
  EXPECT_TRUE(cache.Contains(PageKey{1, 0}));  // Touch 0: now hottest.
  cache.MarkValid(PageKey{1, 3}, 1024);        // Evicts page 1 (coldest).
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.Contains(PageKey{1, 1}));
  EXPECT_TRUE(cache.Contains(PageKey{1, 0}));
  EXPECT_TRUE(cache.Contains(PageKey{1, 3}));
}

// Writes submitted to the default FIFO disk complete in submission order,
// so the request observer sees the order in which the cache submitted.
TEST(PageCache, FlushSubmitsInInodePageOrderWhateverTheInsertionOrder) {
  Kernel k(QuietConfig());
  SimDisk disk(&k);
  std::vector<std::uint64_t> submitted;
  disk.SetRequestObserver(
      [&submitted](const osim::DiskRequestInfo& info) {
        submitted.push_back(info.lba);
      });
  PageCache cache(&k, &disk, 100);
  const std::vector<PageKey> keys = {{3, 2}, {1, 9}, {2, 0}, {1, 0},
                                     {3, 0}, {2, 7}, {1, 2}, {10, 1}};
  const auto lba = [](const PageKey& key) {
    return static_cast<std::uint64_t>(key.inode) * 100'000 + key.page * 8;
  };
  for (const PageKey& key : keys) {
    cache.MarkDirty(key, lba(key));
  }
  EXPECT_EQ(cache.FlushOlderThan(0), static_cast<int>(keys.size()));
  k.RunFor(osim::Cycles{1} << 36);
  std::vector<PageKey> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::uint64_t> want;
  for (const PageKey& key : sorted) {
    want.push_back(lba(key));
  }
  EXPECT_EQ(submitted, want);
}

// Hits interleaved with insertions reorder the LRU; evictions (here,
// writebacks of dirty pages) follow exactly that order.
TEST(PageCache, LruEvictionOrderFollowsInterleavedHits) {
  Kernel k(QuietConfig());
  SimDisk disk(&k);
  std::vector<std::uint64_t> evicted;
  disk.SetRequestObserver([&evicted](const osim::DiskRequestInfo& info) {
    evicted.push_back(info.lba / 8);
  });
  PageCache cache(&k, &disk, 4);
  const auto insert = [&cache](std::uint64_t page) {
    cache.MarkDirty(PageKey{1, page}, page * 8);
  };
  for (std::uint64_t page = 0; page < 4; ++page) {
    insert(page);  // LRU, hottest first: 3 2 1 0.
  }
  EXPECT_TRUE(cache.Contains(PageKey{1, 1}));  // 1 3 2 0
  EXPECT_TRUE(cache.Contains(PageKey{1, 0}));  // 0 1 3 2
  insert(4);                                   // Evicts 2.
  EXPECT_TRUE(cache.Contains(PageKey{1, 3}));  // 3 4 0 1
  insert(5);                                   // Evicts 1.
  insert(6);                                   // Evicts 0.
  EXPECT_TRUE(cache.Contains(PageKey{1, 4}));  // 4 6 5 3
  insert(7);                                   // Evicts 3.
  k.RunFor(osim::Cycles{1} << 36);
  EXPECT_EQ(evicted, (std::vector<std::uint64_t>{2, 1, 0, 3}));
  EXPECT_EQ(cache.evictions(), 4u);
}

TEST(PageCache, EvictingDirtyPageWritesItBack) {
  Kernel k(QuietConfig());
  SimDisk disk(&k);
  PageCache cache(&k, &disk, 1);
  cache.MarkDirty(PageKey{1, 0}, 1000);
  cache.MarkValid(PageKey{1, 1}, 1008);  // Evicts the dirty page.
  EXPECT_EQ(cache.writebacks(), 1u);
  k.RunFor(osim::Cycles{1} << 32);
  EXPECT_EQ(disk.requests_completed(), 1u);
}

TEST(PageCache, FlusherDaemonRunsPeriodically) {
  Kernel k(QuietConfig());
  SimDisk disk(&k);
  PageCache cache(&k, &disk, 100);
  cache.SpawnFlusher(/*interval=*/1'000'000, /*min_age=*/0);
  cache.MarkDirty(PageKey{1, 0}, 1000);
  k.RunFor(3'000'000);
  EXPECT_FALSE(cache.IsDirty(PageKey{1, 0}));
  EXPECT_GE(cache.writebacks(), 1u);
}

// Runs WriteBackInode to completion and returns its count.
std::uint64_t WriteBackAll(Kernel& k, PageCache& cache, int inode,
                           std::uint64_t end_page) {
  std::uint64_t written = 0;
  auto syncer = [](PageCache& c, int ino, std::uint64_t end,
                   std::uint64_t* out) -> Task<void> {
    *out = co_await c.WriteBackInode(ino, end);
  };
  k.Spawn("s", syncer(cache, inode, end_page, &written));
  k.RunUntilThreadsFinish();
  return written;
}

TEST(PageCache, WriteBackInodeWritesInPageOrderBelowTheEnd) {
  Kernel k(QuietConfig());
  SimDisk disk(&k);
  std::vector<std::uint64_t> written;
  disk.SetRequestObserver([&written](const osim::DiskRequestInfo& info) {
    written.push_back(info.lba / 8);
  });
  PageCache cache(&k, &disk, 100);
  // Out of order and across the 64-page word boundary, plus a page past
  // the end and another inode's page at an index the walk covers.
  for (const std::uint64_t page : {200, 64, 3, 300, 63}) {
    cache.MarkDirty(PageKey{1, page}, page * 8);
  }
  cache.MarkDirty(PageKey{2, 5}, 5'000 * 8);
  EXPECT_EQ(WriteBackAll(k, cache, 1, 256), 4u);
  EXPECT_EQ(written, (std::vector<std::uint64_t>{3, 63, 64, 200}));
  EXPECT_EQ(cache.writebacks(), 4u);
  EXPECT_TRUE(cache.IsDirty(PageKey{1, 300}));
  EXPECT_TRUE(cache.IsDirty(PageKey{2, 5}));
  EXPECT_FALSE(cache.IsDirty(PageKey{1, 64}));
  EXPECT_EQ(WriteBackAll(k, cache, 3, 256), 0u);  // No such inode.
}

// While one page is being written, a peer dirties a page behind the walk
// and one ahead of it: the walk picks up the one ahead only, as a
// page-by-page scan would.
TEST(PageCache, WriteBackInodeSeesPagesDirtiedDuringTheWalk) {
  Kernel k(QuietConfig());
  SimDisk disk(&k);
  PageCache cache(&k, &disk, 100);
  cache.MarkDirty(PageKey{1, 3}, 3 * 8);
  std::uint64_t written = 0;
  auto syncer = [](PageCache& c, std::uint64_t* out) -> Task<void> {
    *out = co_await c.WriteBackInode(1, 16);
  };
  auto dirtier = [](PageCache& c) -> Task<void> {
    c.MarkDirty(PageKey{1, 2}, 2 * 8);
    c.MarkDirty(PageKey{1, 10}, 10 * 8);
    co_return;
  };
  k.Spawn("s", syncer(cache, &written));
  k.Spawn("d", dirtier(cache));
  k.RunUntilThreadsFinish();
  EXPECT_EQ(written, 2u);
  EXPECT_TRUE(cache.IsDirty(PageKey{1, 2}));
  EXPECT_FALSE(cache.IsDirty(PageKey{1, 10}));
}

// Each way a page stops being dirty clears it from the walk too.
TEST(PageCache, NothingIsLeftToWriteBackOnceEveryDirtyPageIsClean) {
  Kernel k(QuietConfig());
  SimDisk disk(&k);
  PageCache cache(&k, &disk, 1);
  cache.MarkDirty(PageKey{1, 0}, 0);
  cache.MarkValid(PageKey{1, 1}, 8);  // Evicts dirty page 0.
  EXPECT_FALSE(cache.IsDirty(PageKey{1, 0}));
  EXPECT_EQ(WriteBackAll(k, cache, 1, 64), 0u);

  cache.MarkDirty(PageKey{1, 70}, 70 * 8);
  EXPECT_EQ(cache.FlushOlderThan(0), 1);
  EXPECT_FALSE(cache.IsDirty(PageKey{1, 70}));
  EXPECT_EQ(WriteBackAll(k, cache, 1, 128), 0u);

  cache.MarkDirty(PageKey{1, 70}, 70 * 8);
  auto syncer = [](PageCache& c) -> Task<void> {
    co_await c.WriteBack(PageKey{1, 70});
  };
  k.Spawn("w", syncer(cache));
  k.RunUntilThreadsFinish();
  EXPECT_FALSE(cache.IsDirty(PageKey{1, 70}));
  EXPECT_EQ(WriteBackAll(k, cache, 1, 128), 0u);
  EXPECT_EQ(cache.FlushOlderThan(0), 0);
  EXPECT_EQ(cache.writebacks(), 3u);
}

TEST(PageCache, FlushSubmitsInInodePageOrderWhenDirtiedInReverse) {
  Kernel k(QuietConfig());
  SimDisk disk(&k);
  std::vector<std::uint64_t> submitted;
  disk.SetRequestObserver(
      [&submitted](const osim::DiskRequestInfo& info) {
        submitted.push_back(info.lba);
      });
  PageCache cache(&k, &disk, 100);
  const std::vector<PageKey> keys = {{2, 130}, {2, 64}, {2, 63},
                                     {1, 65},  {1, 1},  {1, 0}};
  const auto lba = [](const PageKey& key) {
    return static_cast<std::uint64_t>(key.inode) * 100'000 + key.page * 8;
  };
  for (const PageKey& key : keys) {
    cache.MarkDirty(key, lba(key));
  }
  EXPECT_EQ(cache.FlushOlderThan(0), static_cast<int>(keys.size()));
  k.RunFor(osim::Cycles{1} << 36);
  std::vector<std::uint64_t> want;
  for (auto it = keys.rbegin(); it != keys.rend(); ++it) {
    want.push_back(lba(*it));
  }
  EXPECT_EQ(submitted, want);
}

TEST(PageCache, DropCleanKeepsDirty) {
  Kernel k(QuietConfig());
  SimDisk disk(&k);
  PageCache cache(&k, &disk, 100);
  cache.MarkValid(PageKey{1, 0}, 1000);
  cache.MarkDirty(PageKey{1, 1}, 1008);
  cache.DropClean();
  EXPECT_FALSE(cache.Contains(PageKey{1, 0}));
  EXPECT_TRUE(cache.IsDirty(PageKey{1, 1}));
}

}  // namespace
}  // namespace osfs
