// End-to-end test of the LD_PRELOAD interposition profiler: inject it
// into an unmodified system binary, then parse the dumped profile set.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "src/core/profile.h"
#include "tests/temp_dir.h"

// Under AddressSanitizer the preload library links the asan runtime, and
// injecting it into an uninstrumented system binary trips asan's
// "runtime must load first" check -- the interposition mechanism itself
// is incompatible with that build, so skip rather than fail.
#if defined(__SANITIZE_ADDRESS__)
#define OSPROF_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define OSPROF_ASAN 1
#endif
#endif

#ifdef OSPROF_ASAN
#define OSPROF_SKIP_IF_PRELOAD_INCOMPATIBLE() \
  GTEST_SKIP() << "LD_PRELOAD interposition is incompatible with asan"
#else
#define OSPROF_SKIP_IF_PRELOAD_INCOMPATIBLE() \
  do {                                        \
  } while (false)
#endif

namespace {

#ifndef OSPROF_PRELOAD_PATH
#define OSPROF_PRELOAD_PATH ""
#endif

std::string PreloadPath() { return OSPROF_PRELOAD_PATH; }

TEST(PreloadProfiler, ProfilesAnUnmodifiedBinary) {
  OSPROF_SKIP_IF_PRELOAD_INCOMPATIBLE();
  const std::string lib = PreloadPath();
  ASSERT_FALSE(lib.empty());
  ASSERT_EQ(::access(lib.c_str(), R_OK), 0) << lib;

  const ostest::TempDir tmp;
  const std::string out = tmp.File("osprof_preload_test.prof");
  const std::string cmd = "OSPROF_OUT=" + out + " LD_PRELOAD=" + lib +
                          " /bin/cat /etc/hostname > /dev/null 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0);

  std::ifstream in(out);
  ASSERT_TRUE(in.good()) << out;
  const osprof::ProfileSet set = osprof::ProfileSet::Parse(in);
  // cat reads its input and writes it out.
  ASSERT_NE(set.Find("read"), nullptr);
  EXPECT_GT(set.Find("read")->total_operations(), 0u);
  EXPECT_GT(set.Find("read")->total_latency(), 0u);
  EXPECT_TRUE(set.CheckConsistency());
}

TEST(PreloadProfiler, DumpIsParseableAfterHeavyIo) {
  OSPROF_SKIP_IF_PRELOAD_INCOMPATIBLE();
  const std::string lib = PreloadPath();
  ASSERT_FALSE(lib.empty());
  const ostest::TempDir tmp;
  const std::string out = tmp.File("osprof_preload_heavy.prof");
  const std::string data = tmp.File("osprof_preload_data");
  // dd generates a long read/write stream through the hooks.
  const std::string cmd =
      "OSPROF_OUT=" + out + " LD_PRELOAD=" + lib +
      " dd if=/dev/zero of=" + data +
      " bs=4096 count=200 > /dev/null 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  std::ifstream in(out);
  ASSERT_TRUE(in.good());
  const osprof::ProfileSet set = osprof::ProfileSet::Parse(in);
  ASSERT_NE(set.Find("write"), nullptr);
  EXPECT_GE(set.Find("write")->total_operations(), 200u);
}

}  // namespace
