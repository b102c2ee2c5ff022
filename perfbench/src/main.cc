// The simulator benchmark.
//
//   perfbench --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
//
// Runs one workload through the user path, osrunner::RunScenario (the
// call behind `osprof_tool run` and `gate`), and prints one JSON result
// to stdout; progress goes to stderr.  perfbench/README.md defines every
// metric.
//
// Each process first checks the program against committed references: at
// the scenario's registered seed, trial 0 must serialize byte-identical to
// tests/golden/<name> and the merged output to perfbench/reference/<name>.
// It then runs the seeded workload:
//
//  * --trace=0 measures the end-to-end metrics: the user path
//    (RunScenario, serialize, parse back, rate against the reference with
//    the gate's raters) back to back for --seconds, with the set-up time
//    and a host-speed probe sampled between the calls.  The times are
//    reported at a reference host speed (see ProbeSeconds).
//  * --trace=1 measures the per-layer metrics: rounds of one untraced
//    RunScenario, one traced pass over every trial (perfbench/src/trial.h)
//    and the ablation passes without the profiler and without SimRace,
//    repeated until --seconds pass.  Traced trials must serialize
//    byte-identical to the untraced ones and repeat every exact count
//    exactly.
//
// Every trial that throws or whose output disagrees with its reference
// counts as failed.

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <map>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/trial.h"
#include "src/core/analysis.h"
#include "src/core/clock.h"
#include "src/core/jsonw.h"
#include "src/core/peaks.h"
#include "src/runner/runner.h"
#include "src/runner/scenario.h"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  // Trials per RunScenario call, sized so one call takes a few host
  // seconds: timing a call rather than a trial keeps the spread low.
  int trials;
  // Whether tests/golden holds the scenario's trial-0 output.
  bool has_golden;
};

constexpr Workload kWorkloads[] = {
    {"scale_1m", 1, false},
    {"cluster_write_shared", 200, true},
    {"fig07_cifs", 8, true},
};

struct Args {
  const Workload* workload = nullptr;
  std::optional<std::uint64_t> seed;
  double seconds = 10.0;
  bool trace = false;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    try {
      if (key == "--workload") {
        for (const Workload& w : kWorkloads) {
          if (value == w.name) {
            args.workload = &w;
          }
        }
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace" && (value == "0" || value == "1")) {
        args.trace = value == "1";
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (args.workload == nullptr || args.seconds <= 0.0) {
    return std::nullopt;
  }
  return args;
}

std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return std::nullopt;
  }
  return std::string(std::istreambuf_iterator<char>(file), {});
}

// True when every file of `output` equals PREFIX.<suffix> byte for byte.
bool MatchesFiles(const Output& output, const std::string& prefix) {
  for (const auto& [suffix, bytes] : output) {
    const std::optional<std::string> expected = ReadFile(prefix + "." + suffix);
    if (!expected || *expected != bytes) {
      std::cerr << "perfbench: " << prefix << "." << suffix
                << (expected ? " differs\n" : " is missing\n");
      return false;
    }
  }
  return !output.empty();
}

Output TrialOutput(const osrunner::TrialResult& trial) {
  return SerializeOutput(trial.layers, trial.layered);
}

struct Merged {
  std::map<std::string, osprof::ProfileSet> layers;
  std::map<std::string, osprof::LayeredProfileSet> layered;
};

Merged MergedOf(const osrunner::RunResult& result) {
  Merged m;
  for (const auto& [layer, lr] : result.layers) {
    m.layers.emplace(layer, lr.merged);
    if (!lr.layered.empty()) {
      m.layered.emplace(layer, lr.layered);
    }
  }
  return m;
}

std::uint64_t OpsOf(const osrunner::RunResult& result) {
  std::uint64_t ops = 0;
  for (const auto& [layer, lr] : result.layers) {
    ops += lr.merged.TotalOperations();
  }
  return ops;
}

// The gate's four raters at their default thresholds: true when no
// operation of `measured` scores at or above a threshold against
// `reference`, and none is missing from either side (scored 1.0).  A
// changed peak count alone does not fail: at another seed a peak may
// split or merge by a few counts while the distribution stays the same.
bool RatersPass(const osprof::ProfileSet& reference,
                const osprof::ProfileSet& measured) {
  bool pass = true;
  for (const osprof::CompareMethod method :
       {osprof::CompareMethod::kEarthMovers, osprof::CompareMethod::kChiSquare,
        osprof::CompareMethod::kTotalOps,
        osprof::CompareMethod::kTotalLatency}) {
    osprof::AnalysisOptions options;
    options.method = method;
    options.score_threshold = osprof::DefaultThreshold(method);
    for (const osprof::PairReport& pair :
         osprof::CompareProfileSets(reference, measured, options).pairs) {
      if (pair.score >= options.score_threshold) {
        std::cerr << "perfbench: rater " << osprof::CompareMethodName(method)
                  << " scores " << pair.op_name << " " << pair.score << " ("
                  << pair.reason << ")\n";
        pass = false;
      }
    }
  }
  return pass;
}

// Host seconds of each step after the simulation: serialize the merged
// layers, parse them back, compare with the reference.
struct TailTimes {
  double serialize_s = 0.0;
  double parse_s = 0.0;
  double compare_s = 0.0;
  std::uint64_t prof_bytes = 0;
  bool ok = false;
};

// Serializes `merged`, parses it back, checks the round trip is exact and
// compares every layer with the reference profiles.
TailTimes SerializeParseCompare(
    const Merged& merged,
    const std::map<std::string, osprof::ProfileSet>& reference) {
  TailTimes t;
  osprof::WallTimer timer;
  const Output out = SerializeOutput(merged.layers, merged.layered);
  t.serialize_s = timer.Seconds();
  for (const auto& [suffix, bytes] : out) {
    t.prof_bytes += bytes.size();
  }

  timer.Restart();
  Merged parsed;
  for (const auto& [layer, set] : merged.layers) {
    parsed.layers.emplace(
        layer, osprof::ProfileSet::ParseString(out.at(layer + ".prof")));
  }
  if (!merged.layered.empty()) {
    parsed.layered = osprof::ParseLayersString(out.at("layers"));
  }
  t.parse_s = timer.Seconds();

  timer.Restart();
  bool ok = SerializeOutput(parsed.layers, parsed.layered) == out &&
            parsed.layers.size() == reference.size();
  for (const auto& [layer, set] : parsed.layers) {
    const auto it = reference.find(layer);
    ok = ok && it != reference.end() && RatersPass(it->second, set);
  }
  t.compare_s = timer.Seconds();
  t.ok = ok;
  return t;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// The nearest-rank percentile of `v` (0 < p <= 100).
double Percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(p / 100.0 * v.size() + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

class Report {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    osjson::Value m = osjson::Value::Object();
    m.Set("value", osjson::Value::Double(value));
    m.Set("unit", osjson::Value::Str(unit));
    metrics_.Set(name, std::move(m));
  }

  // Counts a batch of trials, `failed` of which failed.
  void Count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  // A check on the benchmark itself failed: the result is not usable.
  void Invalidate(const std::string& why) {
    std::cerr << "perfbench: " << why << "\n";
    valid_ = false;
  }

  void Print() const {
    osjson::Value doc = osjson::Value::Object();
    doc.Set("correct", osjson::Value::Bool(valid_ && failed_ == 0));
    doc.Set("attempted", osjson::Value::Uint(attempted_));
    doc.Set("failed", osjson::Value::Uint(failed_));
    doc.Set("metrics", metrics_);
    std::cout << doc.Dump();
  }

 private:
  osjson::Value metrics_ = osjson::Value::Object();
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool valid_ = true;
};

// The byte checks at the registered seed.  Returns the merged output's
// reference profiles, which the seeded runs are rated against.
std::map<std::string, osprof::ProfileSet> CheckReference(
    const Workload& w, const osrunner::Scenario& registered, Report* report) {
  const std::string reference = std::string("perfbench/reference/") + w.name;
  std::map<std::string, osprof::ProfileSet> profiles;
  bool ok = false;
  try {
    const osrunner::RunResult result =
        osrunner::RunScenario(registered, {w.trials, 1});
    const Merged merged = MergedOf(result);
    const bool golden_ok =
        !w.has_golden || MatchesFiles(TrialOutput(result.trials[0]),
                                      std::string("tests/golden/") + w.name);
    ok = golden_ok &&
         MatchesFiles(SerializeOutput(merged.layers, merged.layered),
                      reference);
    profiles = merged.layers;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: reference run threw: " << e.what() << "\n";
  }
  report->Count(static_cast<std::uint64_t>(w.trials), ok ? 0 : w.trials);
  return profiles;
}

// Per-trial outputs of the first run of a seed; later runs of the same
// seed must reproduce them byte for byte.
class TrialOutputs {
 public:
  // Returns how many trials of `result` differ from the first run's.
  std::uint64_t Mismatches(const osrunner::RunResult& result) {
    std::uint64_t bad = 0;
    for (std::size_t t = 0; t < result.trials.size(); ++t) {
      Output out = TrialOutput(result.trials[t]);
      if (t >= first_.size()) {
        first_.push_back(std::move(out));
      } else if (out != first_[t]) {
        ++bad;
      }
    }
    return bad;
  }
  const Output& first(std::size_t trial) const { return first_[trial]; }

 private:
  std::vector<Output> first_;
};

// Host-speed calibration.  On a shared host the speed of this simulator's
// allocation- and cache-heavy code swings by up to 2x over minutes while
// ALU speed stays flat (perfbench/README.md, "Host noise and
// calibration"), so raw times from runs minutes apart are not comparable.
// A fixed probe -- malloc and free churn, the benchmark's own code, which
// no change to the program can move -- is timed around every RunScenario
// call.  End-to-end times are reported at the reference host speed: raw
// seconds * HostSpeed().
constexpr double kProbeReferenceS = 0.020;  // Probe median, reference host.
constexpr int kProbesPerCall = 2;

double ProbeSeconds() {
  std::vector<void*> slots(512, nullptr);
  std::uint32_t r = 1;
  const osprof::WallTimer timer;
  for (int i = 0; i < 200'000; ++i) {
    r = r * 1103515245u + 12345u;
    void*& slot = slots[r % slots.size()];
    std::free(slot);
    slot = std::malloc(16 + (r >> 8) % 4096);
    if (slot == nullptr) {
      throw std::bad_alloc();
    }
    *static_cast<volatile char*>(slot) = 1;
  }
  const double seconds = timer.Seconds();
  for (void* slot : slots) {
    std::free(slot);
  }
  return seconds;
}

void Probe(std::vector<double>* probes) {
  for (int i = 0; i < kProbesPerCall; ++i) {
    probes->push_back(ProbeSeconds());
  }
}

// This run's host speed relative to the reference host: below 1 when the
// host is slower.
double HostSpeed(const std::vector<double>& probes) {
  return kProbeReferenceS / Median(probes);
}

void RunEndToEnd(const Workload& w, const osrunner::Scenario& seeded,
                 const std::map<std::string, osprof::ProfileSet>& reference,
                 double seconds, Report* report) {
  // The user path back to back for `seconds`.  Set-up time and the host
  // speed probe are sampled between the calls -- set-up as builds of trial
  // 0's machine, stopped before its first event -- so every median sees
  // the same host conditions.
  constexpr int kSetupSamplesPerRun = 3;
  std::vector<double> probes;
  std::vector<double> setup;
  std::vector<double> walls;
  std::vector<double> throughput;
  TrialOutputs outputs;
  const osprof::WallTimer budget;
  do {
    for (int i = 0; i < kSetupSamplesPerRun; ++i) {
      const TracedTrial t = RunTracedTrial(seeded, 0, Variant::kSetupOnly);
      setup.push_back(t.build_inputs_s + t.build_machine_s);
    }
    Probe(&probes);
    const osprof::WallTimer wall;
    osrunner::RunResult result;
    try {
      result = osrunner::RunScenario(seeded, {w.trials, 1});
    } catch (const std::exception& e) {
      std::cerr << "perfbench: RunScenario threw: " << e.what() << "\n";
      report->Count(static_cast<std::uint64_t>(w.trials),
                    static_cast<std::uint64_t>(w.trials));
      continue;
    }
    const double run_s = wall.Seconds();
    const TailTimes tail = SerializeParseCompare(MergedOf(result), reference);
    walls.push_back(wall.Seconds());
    throughput.push_back(static_cast<double>(OpsOf(result)) / run_s);
    const std::uint64_t mismatched = outputs.Mismatches(result);
    const std::uint64_t bad =
        tail.ok ? mismatched : static_cast<std::uint64_t>(w.trials);
    report->Count(static_cast<std::uint64_t>(w.trials), bad);
    std::cerr << "perfbench: " << w.name << " run " << walls.size() << ": "
              << walls.back() << " s\n";
  } while (budget.Seconds() < seconds);
  Probe(&probes);
  if (walls.empty()) {
    report->Invalidate("no run of the workload completed");
    return;
  }
  const double speed = HostSpeed(probes);
  std::cerr << "perfbench: raw medians: setup " << Median(setup) << " s, wall "
            << Median(walls) << " s, " << Median(throughput)
            << " ops/s; host speed " << speed << "\n";
  report->Add("setup_s", Median(setup) * speed, "s");
  report->Add("wall_s", Median(walls) * speed, "s");
  report->Add("ops_per_s", Median(throughput) / speed, "1/s");
  report->Add("peak_rss_mib", PeakRssMib(), "MiB");
}

// Sums of the exact counts and maxima of the exact peaks over one pass of
// traced trials, plus that pass's host seconds.
struct TracedPass {
  std::map<std::string, std::uint64_t> counts;
  std::map<std::string, std::uint64_t> peaks;
  std::vector<double> trial_inputs_s;
  std::vector<double> trial_machine_s;
  double wall_s = 0.0;
  double run_s = 0.0;
  double collect_s = 0.0;
};

// Runs every trial of `seeded` traced as `variant`.  With `expected`, each
// trial's output must match that run's trial byte for byte; mismatching or
// throwing trials are counted as failed.
TracedPass RunTracedPass(const Workload& w, const osrunner::Scenario& seeded,
                         Variant variant, const TrialOutputs* expected,
                         Report* report) {
  TracedPass pass;
  std::uint64_t failed = 0;
  for (int t = 0; t < w.trials; ++t) {
    TracedTrial trial;
    try {
      trial = RunTracedTrial(seeded, t, variant);
    } catch (const std::exception& e) {
      std::cerr << "perfbench: traced trial threw: " << e.what() << "\n";
      ++failed;
      continue;
    }
    if (expected != nullptr &&
        trial.output != expected->first(static_cast<std::size_t>(t))) {
      std::cerr << "perfbench: traced trial " << t
                << " differs from the untraced trial\n";
      ++failed;
    }
    for (const auto& [name, value] : trial.counts) {
      pass.counts[name] += value;
    }
    for (const auto& [name, value] : trial.peaks) {
      pass.peaks[name] = std::max(pass.peaks[name], value);
    }
    pass.trial_inputs_s.push_back(trial.build_inputs_s);
    pass.trial_machine_s.push_back(trial.build_machine_s);
    pass.wall_s += trial.wall_s;
    pass.run_s += trial.run_s;
    pass.collect_s += trial.collect_s;
  }
  report->Count(static_cast<std::uint64_t>(w.trials), failed);
  return pass;
}

// 1 - ablated / traced host time of two adjacent passes, valid only when
// the ablation simulated the same events to the same end time.
double HostShare(const TracedPass& traced, const TracedPass& ablated,
                 const char* what, Report* report) {
  if (ablated.counts.at("sim.events") != traced.counts.at("sim.events") ||
      ablated.counts.at("sim.cycles") != traced.counts.at("sim.cycles")) {
    report->Invalidate(std::string("ablation without ") + what +
                       " changed the simulation");
  }
  return 1.0 - ablated.wall_s / traced.wall_s;
}

// One untraced RunScenario of the seeded workload and the tail after it.
struct UntracedRun {
  std::vector<double> trial_s;
  double trials_s = 0.0;  // Sum of the trials' host seconds.
  double merge_s = 0.0;   // RunScenario's host seconds outside the trials.
  double peaks_s = 0.0;   // FindPeaks over every merged profile.
  TailTimes tail;
};

std::optional<UntracedRun> RunUntraced(
    const Workload& w, const osrunner::Scenario& seeded,
    const std::map<std::string, osprof::ProfileSet>& reference,
    TrialOutputs* outputs, Report* report) {
  const auto trials = static_cast<std::uint64_t>(w.trials);
  osrunner::RunResult result;
  try {
    result = osrunner::RunScenario(seeded, {w.trials, 1});
  } catch (const std::exception& e) {
    std::cerr << "perfbench: RunScenario threw: " << e.what() << "\n";
    report->Count(trials, trials);
    return std::nullopt;
  }
  UntracedRun run;
  const std::uint64_t mismatched = outputs->Mismatches(result);
  const Merged merged = MergedOf(result);
  run.tail = SerializeParseCompare(merged, reference);
  report->Count(trials, run.tail.ok ? mismatched : trials);
  const osprof::WallTimer peaks;
  for (const auto& [layer, set] : merged.layers) {
    for (const auto& [op, profile] : set) {
      osprof::FindPeaks(profile.histogram());
    }
  }
  run.peaks_s = peaks.Seconds();
  for (const osrunner::TrialResult& t : result.trials) {
    run.trial_s.push_back(t.wall_seconds);
    run.trials_s += t.wall_seconds;
  }
  run.merge_s = result.wall_seconds - run.trials_s;
  return run;
}

// The median of `field` (a member pointer or callable) over `items`.
template <typename T, typename F>
double MedianOf(const std::vector<T>& items, F field) {
  std::vector<double> v;
  for (const T& item : items) {
    v.push_back(std::invoke(field, item));
  }
  return Median(v);
}

void RunPerLayer(const Workload& w, const osrunner::Scenario& seeded,
                 const std::map<std::string, osprof::ProfileSet>& reference,
                 double seconds, Report* report) {
  // Rounds of an untraced run, a traced pass and the ablations repeat
  // until the budget is spent, at least twice so the exact counts can be
  // checked for repeatability.  Overhead and host shares are medians of
  // per-round ratios, so host speed drifting between rounds cancels.
  // Every traced trial must match the first untraced run's trial byte for
  // byte.
  const osprof::WallTimer budget;
  TrialOutputs outputs;
  std::vector<UntracedRun> untraced;
  std::vector<TracedPass> passes;
  std::vector<double> overhead;
  std::vector<double> profiler_share;
  std::vector<double> races_share;
  std::vector<double> probes;
  while (passes.size() < 2 || budget.Seconds() < seconds) {
    Probe(&probes);
    std::optional<UntracedRun> run =
        RunUntraced(w, seeded, reference, &outputs, report);
    if (!run) {
      report->Invalidate("an untraced run failed");
      return;
    }
    untraced.push_back(std::move(*run));
    passes.push_back(
        RunTracedPass(w, seeded, Variant::kTraced, &outputs, report));
    const TracedPass& traced = passes.back();
    if (traced.counts != passes.front().counts ||
        traced.peaks != passes.front().peaks) {
      report->Invalidate("an exact count differs between traced passes");
    }
    overhead.push_back(traced.wall_s / untraced.back().trials_s);
    profiler_share.push_back(HostShare(
        traced, RunTracedPass(w, seeded, Variant::kNoProfiler, nullptr, report),
        "the profiler", report));
    if (seeded.track_races) {
      races_share.push_back(HostShare(
          traced, RunTracedPass(w, seeded, Variant::kNoRaces, &outputs, report),
          "SimRace", report));
    }
  }
  const TracedPass& pass = passes.front();
  std::vector<double> trial_s;
  for (const UntracedRun& run : untraced) {
    trial_s.insert(trial_s.end(), run.trial_s.begin(), run.trial_s.end());
  }

  const auto& c = pass.counts;
  auto count = [&c](const char* name) {
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double ops = count("profilers.ops_recorded");
  const double events = count("sim.events");
  report->Add("sim.events", events, "count");
  report->Add("sim.events_per_op", Ratio(events, ops), "events/op");
  report->Add("sim.ns_per_event",
              Ratio(MedianOf(passes, &TracedPass::run_s) * 1e9, events), "ns");
  report->Add("sim.queue_depth_max",
              static_cast<double>(pass.peaks.at("sim.queue_depth_max")),
              "events");
  report->Add("sim.queue_depth_mean",
              Ratio(count("sim.queue_depth_sum"), events), "events");
  report->Add("sim.cycles", count("sim.cycles"), "cycles");
  report->Add("sim.heap_allocs_per_op", Ratio(count("sim.heap_allocs"), ops),
              "allocs/op");
  report->Add("sim.heap_bytes_per_op", Ratio(count("sim.heap_bytes"), ops),
              "bytes/op");
  for (const char* name :
       {"sim.context_switches", "sim.dispatches", "sim.migrations",
        "sim.preemptions", "sim.timer_ticks", "sim.parks",
        "sim.threads_spawned", "sim.threads_reaped"}) {
    report->Add(name, count(name), "count");
  }
  for (const char* name : {"sim.wait_cycles.runq", "sim.wait_cycles.lock",
                           "sim.wait_cycles.driver", "sim.wait_cycles.net"}) {
    report->Add(name, count(name), "cycles");
  }
  report->Add("sim.races.checks_per_op", Ratio(count("sim.races.checks"), ops),
              "checks/op");
  report->Add("sim.races.host_share",
              races_share.empty() ? 0.0 : Median(races_share), "ratio");
  for (const char* name :
       {"sim.mem.event_queue_bytes", "sim.mem.thread_bytes",
        "sim.mem.context_bytes", "sim.mem.run_queue_bytes"}) {
    report->Add(name, static_cast<double>(pass.peaks.at(name)), "bytes");
  }
  report->Add("sim.disk.requests", count("sim.disk.requests"), "count");
  report->Add("sim.disk.cache_hit_ratio",
              Ratio(count("sim.disk.cache_hits"), count("sim.disk.requests")),
              "ratio");
  const double page_hits = count("fs.page_cache.hits");
  report->Add("fs.page_cache.hit_ratio",
              Ratio(page_hits, page_hits + count("fs.page_cache.misses")),
              "ratio");
  report->Add("fs.page_cache.misses", count("fs.page_cache.misses"), "count");
  report->Add("fs.cluster.pages_flushed", count("fs.cluster.pages_flushed"),
              "count");
  report->Add("fs.cluster.invalidations", count("fs.cluster.invalidations"),
              "count");
  report->Add("net.dlm.acquires", count("net.dlm.acquires"), "count");
  report->Add("net.dlm.cache_hit_ratio",
              Ratio(count("net.dlm.cache_hits"), count("net.dlm.acquires")),
              "ratio");
  report->Add("net.dlm.basts", count("net.dlm.basts"), "count");
  report->Add("net.fabric.messages", count("net.fabric.messages"), "count");
  report->Add("net.fabric.bytes", count("net.fabric.bytes"), "bytes");
  report->Add("net.cifs.server_requests", count("net.cifs.server_requests"),
              "count");
  report->Add("net.cifs.delayed_ack_stalls",
              count("net.cifs.delayed_ack_stalls"), "count");
  report->Add("profilers.ops_recorded", ops, "count");
  report->Add("profilers.host_share", Median(profiler_share), "ratio");
  report->Add("profilers.collect_s", MedianOf(passes, &TracedPass::collect_s),
              "s");
  report->Add("profilers.shard_flushes", count("profilers.shard_flushes"),
              "count");
  report->Add("core.serialize_s",
              MedianOf(untraced,
                       [](const UntracedRun& r) { return r.tail.serialize_s; }),
              "s");
  report->Add("core.parse_s",
              MedianOf(untraced,
                       [](const UntracedRun& r) { return r.tail.parse_s; }),
              "s");
  report->Add("core.compare_s",
              MedianOf(untraced,
                       [](const UntracedRun& r) { return r.tail.compare_s; }),
              "s");
  report->Add("core.peaks_s", MedianOf(untraced, &UntracedRun::peaks_s), "s");
  report->Add("core.prof_bytes",
              static_cast<double>(untraced.front().tail.prof_bytes), "bytes");
  report->Add("runner.trial_s_p50", Median(trial_s), "s");
  report->Add("runner.trial_s_p90", Percentile(trial_s, 90.0), "s");
  report->Add("runner.merge_s", MedianOf(untraced, &UntracedRun::merge_s),
              "s");
  report->Add("workloads.build_inputs_s", Median(pass.trial_inputs_s), "s");
  report->Add("sim.build_machine_s", Median(pass.trial_machine_s), "s");
  report->Add("perfbench.trace_overhead", Median(overhead), "ratio");
  report->Add("perfbench.host_speed", HostSpeed(probes), "ratio");
  std::cerr << "perfbench: " << passes.size() << " traced passes\n";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::optional<Args> args = ParseArgs(argc, argv);
  if (!args) {
    std::cerr << "usage: perfbench --workload=scale_1m|cluster_write_shared|"
                 "fig07_cifs [--seed=N] [--seconds=S] [--trace=0|1]\n";
    return 2;
  }
  const Workload& w = *args->workload;
  const osrunner::Scenario* registered =
      osrunner::BuiltinScenarios().Find(w.name);
  if (registered == nullptr) {
    std::cerr << "perfbench: scenario " << w.name << " is not registered\n";
    return 2;
  }
  // --seed replaces the scenario's base seed: trial t runs kernel seed
  // seed + t.  The workload's input size -- the grep tree, the traffic
  // curve and request stream, the cluster clients' iterations -- stays as
  // registered, so every seed does comparable work.
  osrunner::Scenario seeded = *registered;
  if (args->seed) {
    seeded.kernel.seed = *args->seed;
  }

  Report report;
  const std::map<std::string, osprof::ProfileSet> reference =
      CheckReference(w, *registered, &report);
  if (reference.empty()) {
    report.Invalidate("the reference check produced no profiles");
  }
  if (args->trace) {
    RunPerLayer(w, seeded, reference, args->seconds, &report);
  } else {
    RunEndToEnd(w, seeded, reference, args->seconds, &report);
  }
  report.Print();
  return 0;
}
