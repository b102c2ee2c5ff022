// Heap-allocation counting for the benchmark binary.
//
// alloc_count.cc replaces the global operator new/delete with malloc-backed
// versions that count every allocation and its requested size.  The
// counters are process-wide and monotonic; a caller measures a region by
// taking a snapshot before and after it.

#ifndef OSPROF_PERFBENCH_SRC_ALLOC_COUNT_H_
#define OSPROF_PERFBENCH_SRC_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

struct AllocCounts {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};

AllocCounts AllocSnapshot();

}  // namespace perfbench

#endif  // OSPROF_PERFBENCH_SRC_ALLOC_COUNT_H_
