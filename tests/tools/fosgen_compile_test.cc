// The full FoSgen loop, end to end: instrument a C file-system source,
// COMPILE it with the real C compiler against fsprof.h, run it, and parse
// the dumped profile with the C++ ProfileSet machinery -- proving the C
// aggregate-stats library, the instrumenter and the offline tooling all
// speak the same language.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "src/core/profile.h"
#include "src/tools/fosgen.h"
#include "tests/temp_dir.h"

namespace ostools {
namespace {

#ifndef OSPROF_SOURCE_DIR
#define OSPROF_SOURCE_DIR "."
#endif

// A miniature "file system" whose ops do measurable busy work, plus a
// main() that exercises them and dumps the profiles.
constexpr const char* kMockFs = R"(
#include <stdio.h>

static volatile unsigned long sink;

static int myfs_open(struct inode *inode, struct file *file)
{
	unsigned long i;
	for (i = 0; i < 50; i++)
		sink += i;
	return 0;
}

static int myfs_fsync(struct file *file, struct dentry *dentry, int datasync)
{
	unsigned long i;
	for (i = 0; i < 5000; i++)
		sink += i;
	return 0;
}

struct file_operations myfs_ops = {
	open: myfs_open,
	fsync: myfs_fsync,
};

int main(void)
{
	int i;
	for (i = 0; i < 1000; i++) {
		myfs_open(0, 0);
		myfs_fsync(0, 0, 0);
	}
	fsprof_dump(stdout);
	return fsprof_check();
}
)";

TEST(FosgenCompile, InstrumentedSourceCompilesRunsAndProfiles) {
  // `struct inode` etc. are opaque in the mock; give the compiler stubs
  // plus a matching operations-vector type.
  const std::string prelude =
      "struct inode; struct file; struct dentry;\n"
      "typedef int filldir_t;\n"
      "struct file_operations {\n"
      "\tint (*open)(struct inode *, struct file *);\n"
      "\tint (*fsync)(struct file *, struct dentry *, int);\n"
      "};\n";
  const FosgenResult result = FosgenInstrument(kMockFs);
  ASSERT_EQ(result.instrumented.size(), 2u);

  const ostest::TempDir tmp;
  const std::string c_path = tmp.File("osprof_fosgen_mockfs.c");
  const std::string bin_path = tmp.File("osprof_fosgen_mockfs");
  const std::string out_path = tmp.File("osprof_fosgen_mockfs.prof");
  {
    std::ofstream out(c_path);
    // fsprof.h first (the instrumenter prepends its include; we inline
    // the include path resolution by just splicing the prelude after it).
    const std::string include_line = "#include \"fsprof.h\"\n";
    ASSERT_EQ(result.source.rfind(include_line, 0), 0u);
    out << include_line << prelude
        << result.source.substr(include_line.size());
  }
  const std::string compile = "cc -std=gnu99 -O1 -I " OSPROF_SOURCE_DIR
                              "/src/tools -o " +
                              bin_path + " " + c_path + " 2>/dev/null";
  ASSERT_EQ(std::system(compile.c_str()), 0) << compile;

  const std::string run = bin_path + " > " + out_path;
  ASSERT_EQ(std::system(run.c_str()), 0);  // fsprof_check() returned 0.

  std::ifstream in(out_path);
  ASSERT_TRUE(in.good());
  const osprof::ProfileSet set = osprof::ProfileSet::Parse(in);
  ASSERT_NE(set.Find("open"), nullptr);
  ASSERT_NE(set.Find("fsync"), nullptr);
  EXPECT_EQ(set.Find("open")->total_operations(), 1'000u);
  EXPECT_EQ(set.Find("fsync")->total_operations(), 1'000u);
  EXPECT_TRUE(set.CheckConsistency());
  // fsync does 100x the work of open; its profile must sit to the right.
  EXPECT_GT(set.Find("fsync")->histogram().MeanLatency(),
            set.Find("open")->histogram().MeanLatency());
}

}  // namespace
}  // namespace ostools
