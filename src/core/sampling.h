// Profile sampling: three-dimensional (time-sliced) profiles (paper §3.1,
// Figure 9).
//
// Instead of adding every latency of a run into one histogram, a sampled
// profiler starts a fresh set of buckets every `epoch_cycles`, producing a
// time series of histograms per operation.  This exposes periodic
// interactions -- e.g. Reiserfs write_super grabbing a coarse lock every
// five seconds and right-shifting concurrent reads -- and supports
// non-monotonic workload generators such as compiles.

#ifndef OSPROF_SRC_CORE_SAMPLING_H_
#define OSPROF_SRC_CORE_SAMPLING_H_

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/histogram.h"
#include "src/core/op_table.h"

namespace osprof {

// The time series of histograms for one operation.
class SampledProfile {
 public:
  SampledProfile(std::string op_name, Cycles epoch_cycles, int resolution)
      : op_name_(std::move(op_name)),
        epoch_cycles_(epoch_cycles),
        resolution_(resolution) {}

  // Records a latency observed at absolute time `now` (cycles since the
  // sampling run began).
  void Add(Cycles now, Cycles latency);

  const std::string& op_name() const { return op_name_; }
  Cycles epoch_cycles() const { return epoch_cycles_; }

  // Number of epochs spanned so far (trailing empty epochs included only if
  // a later Add created them).
  int num_epochs() const { return static_cast<int>(epochs_.size()); }

  // Histogram of epoch `i` (empty histogram if nothing was recorded).
  const Histogram& epoch(int i) const { return epochs_[i]; }

  // Merges all epochs into a single flat histogram.
  Histogram Flatten() const;

  // Direct epoch access for deserialization; extends the series with
  // empty epochs as needed.
  Histogram* MutableEpoch(int i);

 private:
  std::string op_name_;
  Cycles epoch_cycles_;
  int resolution_;
  std::vector<Histogram> epochs_;
};

// How many epochs, summed over all operations, SampledProfileSet::Parse
// materializes before it rejects the input.  Every epoch up to the
// highest index named is a full histogram, so this caps what a few
// "sampled op epoch=N" lines can make the parser allocate (2^16 epochs:
// tens of MiB).  A run that needs more should use a longer epoch_cycles.
inline constexpr std::uint64_t kMaxParsedEpochs = std::uint64_t{1} << 16;

// A set of sampled profiles, one per operation, sharing an epoch length.
class SampledProfileSet {
 public:
  explicit SampledProfileSet(Cycles epoch_cycles, int resolution = 1)
      : epoch_cycles_(epoch_cycles), resolution_(resolution) {}

  // Get-or-create the sampled profile of `op`.  The pointer is stable for
  // the set's lifetime (deque backing), so profilers cache it per OpId and
  // keep the steady-state record path free of string lookups.
  SampledProfile* Slot(std::string_view op);

  void Add(std::string_view op, Cycles now, Cycles latency) {
    Slot(op)->Add(now, latency);
  }

  const SampledProfile* Find(std::string_view op) const;
  Cycles epoch_cycles() const { return epoch_cycles_; }
  std::vector<std::string> OperationNames() const;

  // Renders the density grid of one operation like Figure 9: rows are
  // epochs (oldest first), columns are buckets, cells are density classes
  // ('.': 0, '1': 1-10 ops, '2': 11-100, '#': >100).
  std::string RenderGrid(const std::string& op, int first_bucket,
                         int last_bucket) const;

  // Emits a gnuplot script reproducing the paper's 3-D sampled-profile
  // plots (Figure 9): x = bucket number, y = elapsed time (epoch), point
  // classes by operation count, matching the figure's legend
  // (1-10 / 11-100 / >100 operations).
  std::string RenderGnuplot3D(const std::string& op, double cpu_hz) const;

  // Text serialization (an extension of the ProfileSet format: one
  // "sampled <op> epoch=<i>" block per non-empty epoch), so sampled
  // profiles can ship to the offline tooling like flat ones.
  void Serialize(std::ostream& os) const;
  std::string ToString() const;
  static SampledProfileSet Parse(std::istream& is);
  static SampledProfileSet ParseString(const std::string& text);

 private:
  Cycles epoch_cycles_;
  int resolution_;
  OpTable table_;
  // Indexed by OpId; deque so Slot() pointers survive later interning.
  std::deque<SampledProfile> profiles_;
};

// Change-point detection over a sampled profile (§3.1: "In this case we
// are also comparing one set of profiles against another, as they progress
// in time").  An epoch is a change point when its histogram's distance
// from the previous non-empty epoch exceeds `threshold` under the Earth
// Mover's Distance -- the same rater the automated tool trusts most.
struct EpochChange {
  int epoch = 0;        // The epoch where the behaviour changed.
  double score = 0.0;   // EMD from the previous non-empty epoch.
};

std::vector<EpochChange> FindEpochChanges(const SampledProfile& profile,
                                          double threshold = 0.2);

}  // namespace osprof

#endif  // OSPROF_SRC_CORE_SAMPLING_H_
