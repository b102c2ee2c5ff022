// A file-descriptor table: POSIX lowest-free-fd allocation in O(log n).
//
// Open() reuses the lowest closed fd, taken from a min-heap of freed fds,
// or appends a new one, so fd numbers are those of a scan from fd 0.
// Entries live in a deque: callers hold references across awaits while
// other tasks open and close, and appends must not move them.
//
// Single-turn-atomic like the rest of an FS's open path (no await between
// probe and claim), so it is not a race-checked cell.

#ifndef OSPROF_SRC_FS_FD_TABLE_H_
#define OSPROF_SRC_FS_FD_TABLE_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace osfs {

template <typename T>
class FdTable {
 public:
  // `owner` prefixes the bad-fd error message ("<owner>: bad file
  // descriptor").
  explicit FdTable(std::string owner) : owner_(std::move(owner)) {}

  // Stores `entry` under the lowest free fd and returns that fd.
  int Open(T entry) {
    if (free_.empty()) {
      slots_.push_back(Slot{std::move(entry), true});
      return static_cast<int>(slots_.size() - 1);
    }
    const int fd = free_.top();
    free_.pop();
    slots_[static_cast<std::size_t>(fd)] = Slot{std::move(entry), true};
    return fd;
  }

  // The open entry of `fd`; throws std::invalid_argument for an fd that
  // was never opened or is closed.
  T& operator[](int fd) { return slot(fd).entry; }

  void Close(int fd) {
    slot(fd).open = false;
    free_.push(fd);
  }

  int open_count() const {
    return static_cast<int>(slots_.size() - free_.size());
  }

 private:
  struct Slot {
    T entry;
    bool open = false;
  };

  Slot& slot(int fd) {
    if (fd < 0 || static_cast<std::size_t>(fd) >= slots_.size() ||
        !slots_[static_cast<std::size_t>(fd)].open) {
      throw std::invalid_argument(owner_ + ": bad file descriptor");
    }
    return slots_[static_cast<std::size_t>(fd)];
  }

  std::string owner_;
  std::deque<Slot> slots_;
  std::priority_queue<int, std::vector<int>, std::greater<>> free_;
};

}  // namespace osfs

#endif  // OSPROF_SRC_FS_FD_TABLE_H_
