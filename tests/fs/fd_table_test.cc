#include "src/fs/fd_table.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace osfs {
namespace {

TEST(FdTable, HandsOutTheLowestFreeFdAfterArbitraryCloses) {
  FdTable<std::string> fds("test");
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(fds.Open("f" + std::to_string(i)), i);
  }
  for (int fd : {6, 1, 4, 3}) {
    fds.Close(fd);
  }
  EXPECT_EQ(fds.open_count(), 4);
  EXPECT_EQ(fds.Open("a"), 1);
  EXPECT_EQ(fds.Open("b"), 3);
  fds.Close(0);
  EXPECT_EQ(fds.Open("c"), 0);
  EXPECT_EQ(fds.Open("d"), 4);
  EXPECT_EQ(fds.Open("e"), 6);
  EXPECT_EQ(fds.Open("g"), 8);  // No hole left: append.
  EXPECT_EQ(fds[1], "a");
  EXPECT_EQ(fds[4], "d");
  EXPECT_EQ(fds[7], "f7");
  EXPECT_EQ(fds.open_count(), 9);
}

TEST(FdTable, BadFdThrows) {
  FdTable<int> fds("test");
  EXPECT_THROW(fds[0], std::invalid_argument);  // Never opened.
  const int fd = fds.Open(5);
  EXPECT_THROW(fds[-1], std::invalid_argument);
  EXPECT_THROW(fds[fd + 1], std::invalid_argument);
  fds.Close(fd);
  EXPECT_THROW(fds[fd], std::invalid_argument);  // Closed.
  EXPECT_THROW(fds.Close(fd), std::invalid_argument);
  try {
    fds[fd];
    FAIL() << "closed fd accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "test: bad file descriptor");
  }
}

TEST(FdTable, EntriesStayPutWhileTheTableGrows) {
  FdTable<int> fds("test");
  int& first = fds[fds.Open(7)];
  for (int i = 0; i < 10'000; ++i) {
    fds.Open(i);
  }
  EXPECT_EQ(&first, &fds[0]);
  EXPECT_EQ(first, 7);
}

}  // namespace
}  // namespace osfs
