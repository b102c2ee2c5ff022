// Exact layered latency decomposition (paper §3.2, made per-request).
//
// The paper compares profiles captured at two layers only in aggregate:
// subtract the FS-level profile from the user-level one and attribute the
// difference to the lower layers.  With a kernel-owned request context
// (src/sim/request_context.h) every wrapped operation knows, at pop time,
// exactly how its latency decomposes:
//
//   self       CPU spent in the operation itself (and transparent layers)
//   fs         time inside nested file-system-layer operations
//   driver     disk waits (request queue + mechanical I/O, page locks)
//   net        network waits (RPC round trips, send-window stalls)
//   lock_wait  sleeping-lock and spinlock waits
//   run_queue  time spent runnable but not running (incl. switch cost)
//
// LayeredProfile keys that six-way split by the operation's own latency
// bucket, so each peak of the ordinary profile can be read as a stack of
// components ("peak 4 of readdir is 99% driver").  The sum of the six
// components of a bucket always equals the total cycles decomposed into it.
//
// Everything is integer arithmetic over deterministic simulated cycles:
// Merge is associative and commutative, iteration is sorted by name, and
// serialization (one `.layers` file carrying every instrumented layer of a
// scenario) is byte-stable.

#ifndef OSPROF_SRC_CORE_LAYERED_H_
#define OSPROF_SRC_CORE_LAYERED_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/clock.h"

namespace osprof {

// The components a wrapped operation's latency decomposes into.  A plain
// enum: components index fixed-size arrays throughout.
enum LayerComponent {
  kLayerSelf = 0,   // Own CPU (plus anything nobody below claimed).
  kLayerFs,         // Nested FS-layer operations' own CPU.
  kLayerDriver,     // Disk waits: queueing, mechanical I/O, page locks.
  kLayerNet,        // Network waits: RPC round trips, window stalls.
  kLayerLockWait,   // Semaphore sleeps and spinlock spins.
  kLayerRunQueue,   // Runnable-but-not-running (includes switch cost).
  kNumLayerComponents,
};

// Short stable name of a component ("self", "fs", "driver", "net",
// "lock_wait", "run_queue") -- used in serialization and JSON.
const char* LayerComponentName(LayerComponent c);

// One latency bucket's decomposition: how many operations landed in it and
// how their combined cycles split across the components.
struct LayeredBucket {
  std::uint64_t count = 0;
  Cycles cycles[kNumLayerComponents] = {};

  Cycles TotalCycles() const {
    Cycles sum = 0;
    for (int c = 0; c < kNumLayerComponents; ++c) {
      sum += cycles[c];
    }
    return sum;
  }
};

// Per-operation decomposition, keyed by the operation's own latency bucket
// (same BucketIndex as the ordinary profile, so peaks line up).
//
// Storage is structure-of-arrays over preallocated dense planes: one count
// per bucket plus one component-major cycles plane, so the record path is
// seven indexed increments with no tree walk and no allocation (the
// std::map<int, LayeredBucket> it replaced cost an ordered lookup per
// component update).  The map view survives as the materializing buckets()
// accessor for the cold serialization/rendering paths.
class LayeredProfile {
 public:
  explicit LayeredProfile(int resolution = 1);

  int resolution() const { return resolution_; }
  int num_buckets() const { return num_buckets_; }

  // Adds one operation's decomposition to `bucket`.  The hot path: runs at
  // every profiled span exit.
  void Add(int bucket, const Cycles components[kNumLayerComponents]) {
    const auto b = static_cast<std::size_t>(bucket);
    ++counts_[b];
    Cycles* plane = cycles_.data() + b;
    for (int c = 0; c < kNumLayerComponents; ++c) {
      plane[static_cast<std::size_t>(c) * stride_] += components[c];
    }
  }

  // Fast path of Add for spans whose whole duration is self-CPU (no
  // attributed waits, the common case): equivalent to Add with every
  // other component zero, touching one plane instead of six.
  void AddSelfOnly(int bucket, Cycles self) {
    const auto b = static_cast<std::size_t>(bucket);
    ++counts_[b];
    cycles_[static_cast<std::size_t>(kLayerSelf) * stride_ + b] += self;
  }

  // Deserialization path: installs a bucket's totals wholesale.  The bucket
  // stays visible to buckets()/serialization even when `data` is all zero,
  // matching the old map backing.  Throws std::out_of_range for buckets the
  // resolution cannot produce.
  void SetBucket(int bucket, const LayeredBucket& data);

  void Merge(const LayeredProfile& other);

  // Zeroes all buckets in place (no deallocation).
  void ClearCounts();

  bool empty() const;

  // The sparse ascending-bucket view, materialized by value.  Callers that
  // keep references into it must copy the map first; range-for over the
  // temporary is safe (lifetime-extended).
  std::map<int, LayeredBucket> buckets() const;

  std::uint64_t total_count() const {
    std::uint64_t sum = 0;
    for (int b = 0; b < num_buckets_; ++b) {
      sum += counts_[static_cast<std::size_t>(b)];
    }
    return sum;
  }

 private:
  // A bucket participates in buckets()/empty() iff it has counted an
  // operation or was installed explicitly via SetBucket.
  bool Occupied(std::size_t b) const {
    return counts_[b] != 0 || forced_[b] != 0;
  }

  int resolution_;
  int num_buckets_;       // Dense plane size: kMaxLog2Buckets * resolution.
  std::size_t stride_;    // Distance between component planes in cycles_.
  std::vector<std::uint64_t> counts_;  // Indexed by bucket.
  std::vector<std::uint8_t> forced_;   // SetBucket occupancy, by bucket.
  std::vector<Cycles> cycles_;         // [component * stride_ + bucket].
};

// A set of per-operation decompositions, one per instrumented operation of
// a layer.  Slot() returns node-stable pointers (std::map), so recording
// paths can cache them per OpId the way SimProfiler caches sampled slots.
class LayeredProfileSet {
 public:
  explicit LayeredProfileSet(int resolution = 1) : resolution_(resolution) {}

  int resolution() const { return resolution_; }

  // The decomposition slot for `op`, created empty on first use.  The
  // returned pointer stays valid for the set's lifetime (including across
  // ClearCounts), so callers may cache it.
  LayeredProfile* Slot(std::string_view op) {
    const auto it = profiles_.find(op);
    if (it != profiles_.end()) {
      return &it->second;
    }
    return &profiles_.emplace(std::string(op), LayeredProfile(resolution_))
                .first->second;
  }

  const LayeredProfile* Find(std::string_view op) const {
    const auto it = profiles_.find(op);
    return it == profiles_.end() ? nullptr : &it->second;
  }

  // Integer sums per (op, bucket, component): associative and commutative,
  // so trial-order merging is bit-identical regardless of --jobs.
  void Merge(const LayeredProfileSet& other);

  // Zeroes all recorded data in place; cached Slot() pointers stay valid.
  void ClearCounts() {
    for (auto& [name, profile] : profiles_) {
      profile.ClearCounts();
    }
  }

  // True when no operation has any recorded bucket (pre-created empty
  // slots do not count, mirroring ProfileSet's visibility rule).
  bool empty() const {
    for (const auto& [name, profile] : profiles_) {
      if (!profile.empty()) {
        return false;
      }
    }
    return true;
  }

  // Sorted-by-name iteration over (name, profile); includes empty slots --
  // serialization and rendering skip those themselves.
  using const_iterator = std::map<std::string, LayeredProfile,
                                  std::less<>>::const_iterator;
  const_iterator begin() const { return profiles_.begin(); }
  const_iterator end() const { return profiles_.end(); }

 private:
  int resolution_;
  std::map<std::string, LayeredProfile, std::less<>> profiles_;
};

// --- Serialization ---------------------------------------------------------
// One `.layers` file carries every instrumented layer of a scenario:
//
//   # osprof layers v1
//   layer fs resolution 1
//   op readdir
//     bucket 23 count 7 self 210 fs 90 driver 58000000 net 0 lock 0 runq 19040
//   end op
//   end layer
//
// Layers and ops appear sorted by name, buckets ascending: byte-stable.

void SerializeLayers(const std::map<std::string, LayeredProfileSet>& layers,
                     std::ostream& os);
std::string LayersToString(
    const std::map<std::string, LayeredProfileSet>& layers);

// Throws std::runtime_error on malformed input: counts that are not plain
// unsigned decimals, tokens after the component list, or a layer (or an
// op within a layer) declared twice.
std::map<std::string, LayeredProfileSet> ParseLayers(std::istream& is);
std::map<std::string, LayeredProfileSet> ParseLayersString(
    const std::string& text);

// --- Rendering -------------------------------------------------------------
// ASCII stacked view: per layer and operation, one row per bucket with the
// component split drawn as a fixed-width stacked bar plus percentages.
// Deterministic integer rounding (cumulative proportional positions).
std::string RenderLayers(
    const std::map<std::string, LayeredProfileSet>& layers);

}  // namespace osprof

#endif  // OSPROF_SRC_CORE_LAYERED_H_
