#include "src/profilers/posix_profiler.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "tests/temp_dir.h"

namespace osprofilers {
namespace {

TEST(PosixProfiler, ProfilesRealSyscallLifecycle) {
  PosixProfiler prof;
  const ostest::TempDir tmp;
  const std::string path = tmp.File("osprof_posix_test");
  const int fd = prof.Open(path, O_CREAT | O_RDWR | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  char buf[512] = {};
  EXPECT_EQ(prof.Write(fd, buf, sizeof(buf)), 512);
  EXPECT_EQ(prof.Lseek(fd, 0, SEEK_SET), 0);
  EXPECT_EQ(prof.Read(fd, buf, sizeof(buf)), 512);
  EXPECT_EQ(prof.Read(fd, buf, 0), 0);  // The zero-byte read probe.
  EXPECT_EQ(prof.Fsync(fd), 0);
  EXPECT_EQ(prof.Close(fd), 0);
  EXPECT_EQ(prof.Unlink(path), 0);

  const osprof::ProfileSet& p = prof.profiles();
  EXPECT_EQ(p.Find("open")->total_operations(), 1u);
  EXPECT_EQ(p.Find("write")->total_operations(), 1u);
  EXPECT_EQ(p.Find("read")->total_operations(), 2u);
  EXPECT_EQ(p.Find("llseek")->total_operations(), 1u);
  EXPECT_EQ(p.Find("fsync")->total_operations(), 1u);
  EXPECT_EQ(p.Find("close")->total_operations(), 1u);
  EXPECT_EQ(p.Find("unlink")->total_operations(), 1u);
  EXPECT_TRUE(p.CheckConsistency());
  // Real syscalls take nonzero time.
  EXPECT_GT(p.Find("read")->total_latency(), 0u);
}

TEST(PosixProfiler, ErrorsStillGetProfiled) {
  PosixProfiler prof;
  EXPECT_LT(prof.Open("/nonexistent/definitely/missing", O_RDONLY), 0);
  EXPECT_EQ(prof.profiles().Find("open")->total_operations(), 1u);
}

TEST(PosixProfiler, StatAndMkdirWrappers) {
  PosixProfiler prof;
  const ostest::TempDir tmp;
  const std::string dir = tmp.File("osprof_posix_dir");
  EXPECT_EQ(prof.Mkdir(dir, 0755), 0);
  struct stat st;
  EXPECT_EQ(prof.Stat(dir, &st), 0);
  EXPECT_TRUE(S_ISDIR(st.st_mode));
  EXPECT_EQ(prof.profiles().Find("stat")->total_operations(), 1u);
  EXPECT_EQ(prof.profiles().Find("mkdir")->total_operations(), 1u);
}

TEST(PosixProfiler, MeasureRecordsCustomOps) {
  PosixProfiler prof;
  const int v = prof.Measure("custom", [] { return 42; });
  EXPECT_EQ(v, 42);
  EXPECT_EQ(prof.profiles().Find("custom")->total_operations(), 1u);
}

TEST(PosixProfiler, ManyZeroByteReadsProduceTightProfile) {
  // A sanity slice of the paper's Figure 3 workload on the real host: the
  // profile must be non-degenerate and consistent (no shape assertions --
  // host-dependent).
  PosixProfiler prof;
  const ostest::TempDir tmp;
  const std::string path = tmp.File("osprof_zero_read");
  const int fd = prof.Open(path, O_CREAT | O_RDWR | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  char c = 0;
  for (int i = 0; i < 10'000; ++i) {
    prof.Read(fd, &c, 0);
  }
  prof.Close(fd);
  prof.Unlink(path);
  const osprof::Profile* read = prof.profiles().Find("read");
  EXPECT_EQ(read->total_operations(), 10'000u);
  EXPECT_GE(read->histogram().FirstNonEmpty(), 0);
  EXPECT_TRUE(read->histogram().CheckConsistency());
}

}  // namespace
}  // namespace osprofilers
