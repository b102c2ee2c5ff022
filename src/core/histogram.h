// The aggregate-stats library: logarithmic latency histograms.
//
// This is the heart of OSprof (paper §3, §4).  A latency is sorted at run
// time into bucket b = floor(r * log2(latency)), where r is the profile
// resolution (the paper always uses r = 1; r = 2 doubles bucket density for
// a negligible CPU cost).  Logarithmic filtering keeps only the dominant
// latency contributor of each execution path visible, so different internal
// OS activities form distinct peaks.
//
// Three update policies mirror the paper's §3.4 "Profile Locking"
// discussion:
//   * Histogram        - plain counters; single writer, or few CPUs where a
//                        small fraction of lost updates is acceptable.
//   * AtomicHistogram  - atomic counters; never loses updates but each
//                        increment locks the cache line.
//   * ShardedHistogram - one plain histogram per thread, merged on demand;
//                        the paper's recommendation for many-CPU systems.
//
// Every histogram maintains a separate checksum of the number of recorded
// measurements; CheckConsistency() compares it with the sum over buckets and
// catches both lost updates and instrumentation errors (paper §4,
// "Representing results").

#ifndef OSPROF_SRC_CORE_HISTOGRAM_H_
#define OSPROF_SRC_CORE_HISTOGRAM_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <vector>

#include "src/core/clock.h"

namespace osprof {

// With a 64-bit cycle counter, floor(log2(latency)) < 64; resolution r
// multiplies the bucket count.
inline constexpr int kMaxLog2Buckets = 64;

namespace internal {
// Exact predicate: latency^resolution >= 2^exponent, evaluated with a small
// stack big-integer (no floating point).  This is the ground truth behind
// bucket boundaries: floor(r * log2(x)) >= b  <=>  x^r >= 2^b.
bool PowAtLeast(Cycles latency, int resolution, int exponent);
}  // namespace internal

// The exact bucket boundary table for `resolution`: entry b is the smallest
// latency whose bucket is >= b (entry 0 is 0; the one-past-the-end entry
// saturates to the maximum Cycles value).  Built once per process by binary
// search over the exact PowAtLeast predicate, so boundaries never suffer
// floating-point drift.
const std::vector<Cycles>& BucketBounds(int resolution);

// Returns floor(r * log2(latency)).  Latencies of 0 and 1 cycles land in
// bucket 0.
inline int BucketIndex(Cycles latency, int resolution = 1) {
  if (latency <= 1) {
    return 0;
  }
  const int log2_floor = 63 - __builtin_clzll(latency);
  if (resolution == 1) {
    return log2_floor;
  }
  // Floating-point first guess, then exact correction against the integer
  // boundary table: log2 rounding can disagree with the true floor exactly
  // at bucket boundaries, which would put BucketLowerBound(b) in bucket
  // b - 1 or b + 1 depending on the rounding direction.
  const std::vector<Cycles>& lb = BucketBounds(resolution);
  const int max_bucket = static_cast<int>(lb.size()) - 2;
  int b = static_cast<int>(static_cast<double>(resolution) *
                           std::log2(static_cast<double>(latency)));
  if (b < 0) {
    b = 0;
  } else if (b > max_bucket) {
    b = max_bucket;
  }
  while (b > 0 && lb[static_cast<std::size_t>(b)] > latency) {
    --b;
  }
  while (b < max_bucket && lb[static_cast<std::size_t>(b) + 1] <= latency) {
    ++b;
  }
  return b;
}

// The smallest latency that maps to `bucket` (inverse of BucketIndex).
// Provably lands in `bucket`: BucketIndex(BucketLowerBound(b, r), r) == b
// whenever bucket b contains any integer latency at all (at high
// resolutions the lowest few buckets cover sub-integer ranges only).
inline Cycles BucketLowerBound(int bucket, int resolution = 1) {
  if (bucket <= 0) {
    return 0;
  }
  if (resolution == 1) {
    return bucket >= kMaxLog2Buckets ? ~Cycles{0} : Cycles{1} << bucket;
  }
  const std::vector<Cycles>& lb = BucketBounds(resolution);
  if (bucket >= static_cast<int>(lb.size())) {
    return ~Cycles{0};
  }
  return lb[static_cast<std::size_t>(bucket)];
}

// One past the largest latency that maps to `bucket` (saturates at the
// maximum representable latency for the last bucket).
inline Cycles BucketUpperBound(int bucket, int resolution = 1) {
  return BucketLowerBound(bucket + 1, resolution);
}

// The representative ("average") latency of a bucket.  The paper uses the
// arithmetic mid-point of the bucket range: for r = 1 this is
// 3/2 * 2^b (paper §3.3 computes expected preemptions with tcpu = 3/2 2^b).
inline double BucketMidLatency(int bucket, int resolution = 1) {
  const double lo = std::exp2(static_cast<double>(bucket) / resolution);
  const double hi = std::exp2(static_cast<double>(bucket + 1) / resolution);
  return (lo + hi) / 2.0;
}

// Parses one count (a bucket count or a cycle sum) of the serialized
// profile formats: a plain unsigned decimal, no sign and no trailing
// characters.  Returns nullopt for anything else, including values that
// overflow 64 bits.
std::optional<std::uint64_t> ParseCount(std::string_view text);

// A plain (single-writer) log-bucket histogram.
class Histogram {
 public:
  explicit Histogram(int resolution = 1);

  // Sorts `latency` (cycles) into its bucket.  ~a handful of instructions:
  // this is the code that runs on every profiled OS request.
  void Add(Cycles latency) {
    ++recorded_;
    total_latency_ += latency;
    ++buckets_[BucketIndex(latency, resolution_)];
  }

  // Record path for callers that already computed BucketIndex (the flat and
  // layered profiles of one span share a single bucket computation).
  void AddInBucket(int bucket, Cycles latency) {
    ++recorded_;
    total_latency_ += latency;
    ++buckets_[static_cast<std::size_t>(bucket)];
  }

  // Merges counts from another histogram of the same resolution.
  void Merge(const Histogram& other);

  int resolution() const { return resolution_; }
  int num_buckets() const { return static_cast<int>(buckets_.size()); }
  std::uint64_t bucket(int i) const { return buckets_[i]; }

  // Direct bucket access for deserialization and synthetic profiles.
  void set_bucket(int i, std::uint64_t count);

  // Overrides the checksum and exact latency sum.  Only for deserialization
  // and atomic snapshots, where the exact totals are known out of band.
  void SetTotals(std::uint64_t recorded, Cycles total_latency) {
    recorded_ = recorded;
    total_latency_ = total_latency;
  }

  // Total number of Add() calls (the checksum counter).
  std::uint64_t recorded() const { return recorded_; }
  // Sum of all bucket counts; equals recorded() iff no updates were lost.
  std::uint64_t TotalOperations() const;
  // Sum of the raw (unbucketed) latencies, in cycles.
  Cycles total_latency() const { return total_latency_; }

  bool empty() const { return TotalOperations() == 0; }

  // First/last non-empty bucket, or -1 if the histogram is empty.
  int FirstNonEmpty() const;
  int LastNonEmpty() const;

  // Arithmetic mean of the recorded latencies (exact, from total_latency).
  double MeanLatency() const;

  // Mean latency as estimated from bucket mid-points only; this is what an
  // analyst can compute from a published profile.
  double BucketedMeanLatency() const;

  // True iff the bucket sum matches the recorded-measurement checksum.
  bool CheckConsistency() const { return TotalOperations() == recorded_; }

  // Normalized bucket densities (sums to 1); empty histogram yields zeros.
  std::vector<double> Normalized() const;

  void Clear();

 private:
  int resolution_;
  std::uint64_t recorded_ = 0;
  Cycles total_latency_ = 0;
  std::vector<std::uint64_t> buckets_;
};

// A histogram with atomic bucket updates: no lost counts at the price of a
// locked increment per operation (the "naive solution" of §3.4, provided
// because it is sometimes the right tradeoff).
class AtomicHistogram {
 public:
  explicit AtomicHistogram(int resolution = 1);

  void Add(Cycles latency) {
    recorded_.fetch_add(1, std::memory_order_relaxed);
    total_latency_.fetch_add(latency, std::memory_order_relaxed);
    buckets_[BucketIndex(latency, resolution_)].fetch_add(
        1, std::memory_order_relaxed);
  }

  int resolution() const { return resolution_; }

  // Snapshots the atomic counters into a plain Histogram.
  Histogram Snapshot() const;

 private:
  int resolution_;
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<Cycles> total_latency_{0};
  std::vector<std::atomic<std::uint64_t>> buckets_;
};

// Per-thread sharded histogram: each registered thread updates a private
// histogram, so no increments are ever lost and no cache lines ping-pong
// (§3.4's recommendation for systems with many CPUs).
class ShardedHistogram {
 public:
  explicit ShardedHistogram(int resolution = 1) : resolution_(resolution) {}

  // Returns this thread's shard, creating it on first use.  The pointer
  // stays valid for the lifetime of the ShardedHistogram.
  Histogram* Local();

  // Merges all shards.  Safe to call while other threads keep adding; the
  // result is then a momentary snapshot.
  Histogram Merge() const;

  int resolution() const { return resolution_; }
  int shard_count() const;

 private:
  int resolution_;
  // Process-unique id used to key the thread-local shard cache; assigned on
  // first Local() call.
  mutable std::atomic<std::uint64_t> id_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Histogram>> shards_;
};

}  // namespace osprof

#endif  // OSPROF_SRC_CORE_HISTOGRAM_H_
