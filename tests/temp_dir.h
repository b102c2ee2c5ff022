// A private scratch directory for one test.
//
// ctest runs every gtest case as its own process, concurrently under -j, so
// fixed file names under $TMPDIR let cases clobber each other's files.
// Each TempDir is a fresh mkdtemp(3) directory under $TMPDIR (or /tmp),
// removed with everything in it when the TempDir is destroyed.  Declare
// one as a fixture member or a test-local: gtest builds a new fixture per
// test, so either way no two tests share a path.

#ifndef OSPROF_TESTS_TEMP_DIR_H_
#define OSPROF_TESTS_TEMP_DIR_H_

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace ostest {

class TempDir {
 public:
  TempDir() {
    const char* base = std::getenv("TMPDIR");
    std::string path = std::string(base != nullptr && *base != '\0' ? base
                                                                    : "/tmp") +
                       "/osprof_test_XXXXXX";
    if (::mkdtemp(path.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed under " + path);
    }
    path_ = path;
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }
  // The path of `name` inside this directory.
  std::string File(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

}  // namespace ostest

#endif  // OSPROF_TESTS_TEMP_DIR_H_
