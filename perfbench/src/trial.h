// The benchmark's traced trial: one scenario trial assembled from the same
// public calls osrunner::RunTrial makes, with a measurement at each layer
// boundary.
//
// The assembly covers the three workload families the benchmark runs
// (open-loop traffic, grep over CIFS, the DLM cluster).  It times the
// input builders and the machine construction separately, drives
// Kernel::events().Step() itself to count events and sample the queue,
// subscribes to the kernel's interference channel for scheduling counts
// and simulated waits, counts heap allocations, and reads the remaining
// counts from each layer's public getters after the run.  None of this
// consumes simulated time, so a traced trial must serialize byte-identical
// profiles to the untraced RunTrial of the same seed; the benchmark checks
// that.

#ifndef OSPROF_PERFBENCH_SRC_TRIAL_H_
#define OSPROF_PERFBENCH_SRC_TRIAL_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/core/layered.h"
#include "src/core/profile.h"
#include "src/runner/scenario.h"

namespace perfbench {

// A run's serialized output: file suffix ("<layer>.prof" or "layers") to
// the bytes `osprof_tool run --out` would write there.
using Output = std::map<std::string, std::string>;

Output SerializeOutput(
    const std::map<std::string, osprof::ProfileSet>& layers,
    const std::map<std::string, osprof::LayeredProfileSet>& layered);

enum class Variant {
  kSetupOnly,   // Build the machine and inputs, stop before the first event.
  kTraced,      // The full traced trial.
  kNoProfiler,  // Ablation: no profiler attached to the FS/CIFS/cluster layer.
  kNoRaces,     // Ablation: SimRace tracking off.
};

struct TracedTrial {
  Output output;  // Empty for kSetupOnly.
  // Exact counts: "sim.events", "sim.cycles", "sim.dispatches", ...
  std::map<std::string, std::uint64_t> counts;
  // Exact high-water marks: "sim.queue_depth_max", "sim.mem.*".
  std::map<std::string, std::uint64_t> peaks;
  // Host seconds per boundary.
  double build_inputs_s = 0.0;   // Source tree / traffic files / cluster mkfs.
  double build_machine_s = 0.0;  // Kernel, disk, FS, mounts, DLM, spawns.
  double run_s = 0.0;            // The Step() loop.
  double collect_s = 0.0;        // ProfilerSink::Collect of every sink.
  double wall_s = 0.0;           // The whole trial.
};

// Runs trial `trial` of `scenario` (kernel seed scenario.kernel.seed +
// trial, like RunTrial).  Supports TrafficSpec, GrepSpec and ClusterSpec
// workloads; throws std::invalid_argument for the others, and whatever the
// simulation throws (e.g. the deadlock std::logic_error).
TracedTrial RunTracedTrial(const osrunner::Scenario& scenario, int trial,
                           Variant variant);

}  // namespace perfbench

#endif  // OSPROF_PERFBENCH_SRC_TRIAL_H_
