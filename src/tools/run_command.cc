#include "src/tools/run_command.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <istream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/analysis.h"
#include "src/core/clock.h"
#include "src/core/compare.h"
#include "src/core/jsonw.h"
#include "src/core/layered.h"
#include "src/core/preemption.h"
#include "src/core/profile.h"
#include "src/runner/runner.h"
#include "src/runner/scenario.h"
#include "src/tools/flags.h"

namespace ostools {
namespace {

constexpr const char* kRunUsage =
    "usage: osprof_tool run <scenario> [--trials=N] [--jobs=J] "
    "[--out=PREFIX]\n"
    "                       [--baseline=PREFIX] [--json=FILE]\n"
    "       osprof_tool run --list\n"
    "  --trials=N   independently-seeded trials to run (default 1)\n"
    "  --jobs=J     worker threads; 0 = all hardware threads (default 1)\n"
    "  --out=PREFIX write each merged layer to PREFIX.<layer>.prof, plus\n"
    "               the layered decomposition to PREFIX.layers when any\n"
    "               layer recorded one\n"
    "  --baseline=PREFIX\n"
    "               gate the run against the goldens PREFIX.<layer>.prof\n"
    "               and PREFIX.layers (written by --out at the same\n"
    "               --trials): all four section 5.3 raters, the exact\n"
    "               layered decomposition, lock order, races and, for\n"
    "               noise scenarios, Equation 3; exit 3 on a regression\n"
    "  --json=FILE  with --baseline, write the verdict (osprof-gate-v1)\n"
    "  Prints each layer's merged profile with its cross-trial dispersion,\n"
    "  the layered latency decomposition, lock-order cycles and the\n"
    "  SimRace data-race report.  Noise scenarios (noise, noise_idle) also\n"
    "  print each trial's rtla/osnoise-style per-task table and the\n"
    "  Equation 3 forced-preemption check over all trials.\n";

struct RunFlags {
  std::string scenario;
  osrunner::RunOptions run;
  std::string out_prefix;
  std::string baseline_prefix;  // Empty -> no gate verdict.
  std::string json_path;
};

int ListScenarios(std::ostream& out) {
  const osrunner::ScenarioRegistry& registry = osrunner::BuiltinScenarios();
  for (const std::string& name : registry.Names()) {
    const osrunner::Scenario* s = registry.Find(name);
    char line[200];
    std::snprintf(line, sizeof(line), "  %-16s %s\n", name.c_str(),
                  s->description.c_str());
    out << line;
  }
  return 0;
}

// The §5.3 raters the gate scores with, by their verdict names.
constexpr std::pair<const char*, osprof::CompareMethod> kRaters[] = {
    {"emd", osprof::CompareMethod::kEarthMovers},
    {"chi2", osprof::CompareMethod::kChiSquare},
    {"ops", osprof::CompareMethod::kTotalOps},
    {"latency", osprof::CompareMethod::kTotalLatency},
};

// One rater's verdict on one layer.
struct RaterVerdict {
  std::string rater;
  std::string method;
  double threshold = 0.0;
  double max_score = 0.0;
  std::vector<std::string> flagged_ops;  // Interesting pairs = regressions.
  bool pass() const { return flagged_ops.empty(); }
};

RaterVerdict ScoreLayer(const char* rater, osprof::CompareMethod method,
                        const osprof::ProfileSet& golden,
                        const osprof::ProfileSet& measured) {
  osprof::AnalysisOptions options;
  options.method = method;
  options.score_threshold = osprof::DefaultThreshold(method);
  const osprof::AnalysisReport analysis =
      osprof::CompareProfileSets(golden, measured, options);
  RaterVerdict verdict;
  verdict.rater = rater;
  verdict.method = osprof::CompareMethodName(method);
  verdict.threshold = options.score_threshold;
  for (const osprof::PairReport& pair : analysis.pairs) {
    if (pair.score > verdict.max_score) {
      verdict.max_score = pair.score;
    }
    if (pair.interesting) {
      verdict.flagged_ops.push_back(pair.op_name);
    }
  }
  return verdict;
}

struct LayerVerdict {
  std::string layer;
  std::string baseline_path;
  std::uint64_t golden_ops = 0;
  std::uint64_t measured_ops = 0;
  std::vector<RaterVerdict> raters;
  bool pass() const {
    for (const RaterVerdict& r : raters) {
      if (!r.pass()) {
        return false;
      }
    }
    return true;
  }
};

// The exact-decomposition verdict: the sim is deterministic, so the merged
// layered decomposition must reproduce the committed `.layers` golden to
// the cycle.  Scored as relative differences so the JSON stays informative
// when drift does happen.
struct LayersVerdict {
  bool checked = false;          // False when no layer recorded one.
  std::string baseline_path;
  double max_rel_diff = 0.0;
  std::uint64_t mismatch_total = 0;
  std::vector<std::string> mismatches;  // Listing capped at 10 entries.
  bool pass() const { return mismatch_total == 0; }
};

double RelDiff(std::uint64_t a, std::uint64_t b) {
  if (a == b) {
    return 0.0;
  }
  const std::uint64_t hi = std::max(a, b);
  const std::uint64_t diff = a > b ? a - b : b - a;
  return static_cast<double>(diff) / static_cast<double>(hi);
}

LayersVerdict ScoreLayersDecomposition(
    const std::map<std::string, osprof::LayeredProfileSet>& golden,
    const std::map<std::string, osprof::LayeredProfileSet>& measured,
    std::string baseline_path) {
  LayersVerdict v;
  v.checked = true;
  v.baseline_path = std::move(baseline_path);
  auto note = [&v](std::string msg, double rel) {
    ++v.mismatch_total;
    v.max_rel_diff = std::max(v.max_rel_diff, rel);
    if (v.mismatches.size() < 10) {
      v.mismatches.push_back(std::move(msg));
    }
  };
  for (const auto& [layer, gset] : golden) {
    if (measured.find(layer) == measured.end()) {
      note("layer " + layer + " only in golden", 1.0);
    }
  }
  for (const auto& [layer, mset] : measured) {
    const auto git = golden.find(layer);
    if (git == golden.end()) {
      note("layer " + layer + " only in measured", 1.0);
      continue;
    }
    const osprof::LayeredProfileSet& gset = git->second;
    for (const auto& [op, gprofile] : gset) {
      if (!gprofile.empty() && mset.Find(op) == nullptr) {
        note(layer + "/" + op + " only in golden", 1.0);
      }
    }
    for (const auto& [op, mprofile] : mset) {
      if (mprofile.empty()) {
        continue;
      }
      const osprof::LayeredProfile* gprofile = gset.Find(op);
      if (gprofile == nullptr) {
        note(layer + "/" + op + " only in measured", 1.0);
        continue;
      }
      // Union of the sparse bucket keys, compared field by field.  Both
      // views are materialized by value (LayeredProfile::buckets() returns
      // a temporary map).
      std::map<int, osprof::LayeredBucket> gb = gprofile->buckets();
      for (const auto& [bucket, mdata] : mprofile.buckets()) {
        const std::string where =
            layer + "/" + op + " bucket " + std::to_string(bucket);
        const auto bit = gb.find(bucket);
        if (bit == gb.end()) {
          note(where + " only in measured", 1.0);
          continue;
        }
        const osprof::LayeredBucket gdata = bit->second;
        gb.erase(bit);
        if (gdata.count != mdata.count) {
          note(where + ": count " + std::to_string(gdata.count) + " vs " +
                   std::to_string(mdata.count),
               RelDiff(gdata.count, mdata.count));
        }
        for (int c = 0; c < osprof::kNumLayerComponents; ++c) {
          if (gdata.cycles[c] != mdata.cycles[c]) {
            note(where + ": " +
                     osprof::LayerComponentName(
                         static_cast<osprof::LayerComponent>(c)) +
                     " " + std::to_string(gdata.cycles[c]) + " vs " +
                     std::to_string(mdata.cycles[c]),
                 RelDiff(gdata.cycles[c], mdata.cycles[c]));
          }
        }
      }
      for (const auto& [bucket, gdata] : gb) {
        note(layer + "/" + op + " bucket " + std::to_string(bucket) +
                 " only in golden",
             1.0);
      }
    }
  }
  return v;
}

// The SimRace verdict (src/sim/race_tracker.h).  Ordinary scenarios must
// come back race-free; the seeded race_fixture_* family must race --
// that is the gate's true-positive check on the detector itself.
struct RacesVerdict {
  bool checked = false;   // False for untracked scenarios.
  bool expected = false;  // race_fixture_*: races are the point.
  std::vector<std::string> reports;
  bool pass() const {
    if (!checked) {
      return true;
    }
    return expected ? !reports.empty() : reports.empty();
  }
};

// The gate's verdict on one run against one baseline.
struct GateVerdict {
  std::vector<LayerVerdict> layers;
  LayersVerdict layered;
};

// Reads one baseline file with `parse` into `*golden`.  On a missing or
// unparsable file, prints why to `err` and returns false.
template <typename T, typename Parse>
bool ReadBaseline(const std::string& path, const RunFlags& flags,
                  Parse parse, T* golden, std::ostream& err) {
  std::ifstream file(path);
  if (!file) {
    err << "osprof_tool run: missing baseline " << path
        << " (generate it with: osprof_tool run " << flags.scenario
        << " --trials=" << flags.run.trials
        << " --out=" << flags.baseline_prefix << ")\n";
    return false;
  }
  try {
    *golden = parse(file);
  } catch (const std::exception& e) {
    err << "osprof_tool run: corrupt baseline " << path << ": " << e.what()
        << "\n";
    return false;
  }
  return true;
}

// Scores the merged run against PREFIX.<layer>.prof and, when the run
// recorded a layered decomposition, PREFIX.layers.  Returns nullopt when
// a baseline is missing or corrupt (ReadBaseline says which).
std::optional<GateVerdict> ScoreBaseline(
    const RunFlags& flags, const osrunner::RunResult& result,
    const std::map<std::string, osprof::LayeredProfileSet>& measured_layers,
    std::ostream& err) {
  // A golden that fails its own checksum is as corrupt as one that does
  // not parse: scoring it would compare against counts it does not hold.
  const auto parse_checked = [](std::istream& in) {
    osprof::ProfileSet set = osprof::ProfileSet::Parse(in);
    if (!set.CheckConsistency()) {
      throw std::runtime_error(
          "checksum mismatch (a recorded= disagrees with its buckets)");
    }
    return set;
  };
  GateVerdict gate;
  for (const auto& [layer, lr] : result.layers) {
    LayerVerdict verdict;
    verdict.layer = layer;
    verdict.baseline_path = flags.baseline_prefix + "." + layer + ".prof";
    osprof::ProfileSet golden;
    if (!ReadBaseline(verdict.baseline_path, flags, parse_checked, &golden,
                      err)) {
      return std::nullopt;
    }
    verdict.golden_ops = golden.TotalOperations();
    verdict.measured_ops = lr.merged.TotalOperations();
    for (const auto& [rater, method] : kRaters) {
      verdict.raters.push_back(ScoreLayer(rater, method, golden, lr.merged));
    }
    gate.layers.push_back(std::move(verdict));
  }
  gate.layered.baseline_path = flags.baseline_prefix + ".layers";
  if (!measured_layers.empty()) {
    std::map<std::string, osprof::LayeredProfileSet> golden_layers;
    const auto parse = [](std::istream& in) { return osprof::ParseLayers(in); };
    if (!ReadBaseline(gate.layered.baseline_path, flags, parse,
                      &golden_layers, err)) {
      return std::nullopt;
    }
    gate.layered = ScoreLayersDecomposition(golden_layers, measured_layers,
                                            gate.layered.baseline_path);
  }
  return gate;
}

// Prints one line per check of the verdict, in the gate's wording, and
// returns whether every check passed.  Lock cycles and race reports are
// listed once, in the run report above.
bool PrintVerdict(const GateVerdict& gate,
                  const std::vector<std::string>& lock_cycles,
                  const RacesVerdict& races,
                  const std::optional<osprof::NoisePreemptionCheck>& noise,
                  std::ostream& out) {
  bool pass = true;
  // Lock-order assertion: a deadlock-capable acquisition-order cycle in
  // any trial fails the gate even when every profile rater passes.
  if (lock_cycles.empty()) {
    out << "[lock-order] no deadlock-capable cycles\n";
  } else {
    pass = false;
    out << "[lock-order] DEADLOCK-CAPABLE lock graph: " << lock_cycles.size()
        << " cycle(s) above\n";
  }
  // SimRace assertion: ordinary scenarios must be race-free; the seeded
  // race_fixture_* family must race (true-positive check on the detector).
  pass = pass && races.pass();
  if (!races.checked) {
    out << "[races] tracking disabled; skipped\n";
  } else if (races.expected && races.pass()) {
    out << "[races] fixture raced as designed: " << races.reports.size()
        << " report(s) above\n";
  } else if (races.expected) {
    out << "[races] FIXTURE SILENT: expected data races, found none\n";
  } else if (races.pass()) {
    out << "[races] no data races\n";
  } else {
    out << "[races] DATA RACES: " << races.reports.size()
        << " report(s) above\n";
  }
  for (const LayerVerdict& layer : gate.layers) {
    out << "[" << layer.layer << "] golden " << layer.golden_ops
        << " ops vs measured " << layer.measured_ops << " ops ("
        << layer.baseline_path << ")\n";
    for (const RaterVerdict& r : layer.raters) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "  %-8s (%-13s) threshold %-7.3g max score %-9.4g %s\n",
                    r.rater.c_str(), r.method.c_str(), r.threshold,
                    r.max_score, r.pass() ? "PASS" : "REGRESSION");
      out << line;
      for (const std::string& op : r.flagged_ops) {
        out << "           flagged: " << op << "\n";
      }
      pass = pass && r.pass();
    }
  }
  // Layered-decomposition exactness: deterministic sim, so the merged
  // decomposition must match the `.layers` golden to the cycle.
  const LayersVerdict& layered = gate.layered;
  if (!layered.checked) {
    out << "[layers] no layered data recorded; skipped\n";
  } else if (layered.pass()) {
    out << "[layers] decomposition matches " << layered.baseline_path
        << " exactly\n";
  } else {
    pass = false;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "[layers] DECOMPOSITION DRIFT vs %s (%llu mismatches, "
                  "max rel diff %.4g):\n",
                  layered.baseline_path.c_str(),
                  static_cast<unsigned long long>(layered.mismatch_total),
                  layered.max_rel_diff);
    out << line;
    for (const std::string& m : layered.mismatches) {
      out << "  " << m << "\n";
    }
    if (layered.mismatch_total > layered.mismatches.size()) {
      out << "  ... ("
          << layered.mismatch_total - layered.mismatches.size()
          << " more)\n";
    }
  }
  // Equation 3 (§3.3) on noise scenarios: the measured forced-preemption
  // count must agree with the model's prediction from the sample budget.
  if (noise.has_value()) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "[noise] Eq.3 predicted %.1f forced preemptions, measured "
                  "%.0f (rel err %.4f, tolerance %.2f) %s\n",
                  noise->predicted, noise->measured, noise->rel_err,
                  noise->tolerance, noise->pass() ? "PASS" : "REGRESSION");
    out << line;
    pass = pass && noise->pass();
  }
  return pass;
}

osjson::Value VerdictJson(const RunFlags& flags, const GateVerdict& gate,
                          const std::optional<osprof::NoisePreemptionCheck>&
                              noise,
                          const std::vector<std::string>& lock_cycles,
                          const RacesVerdict& races, bool pass) {
  osjson::Value doc = osjson::Value::Object();
  doc.Set("schema", osjson::Value::Str("osprof-gate-v1"));
  doc.Set("scenario", osjson::Value::Str(flags.scenario));
  doc.Set("baseline", osjson::Value::Str(flags.baseline_prefix));
  doc.Set("trials", osjson::Value::Int(flags.run.trials));
  doc.Set("pass", osjson::Value::Bool(pass));
  osjson::Value lock_order = osjson::Value::Object();
  lock_order.Set("deadlock_capable", osjson::Value::Bool(!lock_cycles.empty()));
  osjson::Value cycle_array = osjson::Value::Array();
  for (const std::string& cycle : lock_cycles) {
    cycle_array.Append(osjson::Value::Str(cycle));
  }
  lock_order.Set("cycles", std::move(cycle_array));
  doc.Set("lock_order", std::move(lock_order));
  osjson::Value races_obj = osjson::Value::Object();
  races_obj.Set("checked", osjson::Value::Bool(races.checked));
  races_obj.Set("expected", osjson::Value::Bool(races.expected));
  races_obj.Set("found", osjson::Value::Bool(!races.reports.empty()));
  osjson::Value report_array = osjson::Value::Array();
  for (const std::string& report : races.reports) {
    report_array.Append(osjson::Value::Str(report));
  }
  races_obj.Set("reports", std::move(report_array));
  races_obj.Set("pass", osjson::Value::Bool(races.pass()));
  doc.Set("races", std::move(races_obj));
  osjson::Value layer_array = osjson::Value::Array();
  for (const LayerVerdict& layer : gate.layers) {
    osjson::Value l = osjson::Value::Object();
    l.Set("layer", osjson::Value::Str(layer.layer));
    l.Set("baseline", osjson::Value::Str(layer.baseline_path));
    l.Set("golden_ops", osjson::Value::Uint(layer.golden_ops));
    l.Set("measured_ops", osjson::Value::Uint(layer.measured_ops));
    l.Set("pass", osjson::Value::Bool(layer.pass()));
    osjson::Value rater_array = osjson::Value::Array();
    for (const RaterVerdict& r : layer.raters) {
      osjson::Value entry = osjson::Value::Object();
      entry.Set("rater", osjson::Value::Str(r.rater));
      entry.Set("method", osjson::Value::Str(r.method));
      entry.Set("threshold", osjson::Value::Double(r.threshold));
      entry.Set("max_score", osjson::Value::Double(r.max_score));
      osjson::Value flagged = osjson::Value::Array();
      for (const std::string& op : r.flagged_ops) {
        flagged.Append(osjson::Value::Str(op));
      }
      entry.Set("flagged_ops", std::move(flagged));
      entry.Set("pass", osjson::Value::Bool(r.pass()));
      rater_array.Append(std::move(entry));
    }
    l.Set("raters", std::move(rater_array));
    layer_array.Append(std::move(l));
  }
  doc.Set("layers", std::move(layer_array));
  const LayersVerdict& layered = gate.layered;
  osjson::Value ld = osjson::Value::Object();
  ld.Set("checked", osjson::Value::Bool(layered.checked));
  ld.Set("baseline", osjson::Value::Str(layered.baseline_path));
  ld.Set("pass", osjson::Value::Bool(layered.pass()));
  ld.Set("max_rel_diff", osjson::Value::Double(layered.max_rel_diff));
  ld.Set("mismatch_count", osjson::Value::Uint(layered.mismatch_total));
  osjson::Value mismatch_array = osjson::Value::Array();
  for (const std::string& m : layered.mismatches) {
    mismatch_array.Append(osjson::Value::Str(m));
  }
  ld.Set("mismatches", std::move(mismatch_array));
  doc.Set("layered", std::move(ld));
  // An unchecked (non-noise) scenario reports zeros and passes.
  const osprof::NoisePreemptionCheck eq3 = noise.value_or(
      osprof::NoisePreemptionCheck{});
  osjson::Value nv = osjson::Value::Object();
  nv.Set("checked", osjson::Value::Bool(noise.has_value()));
  nv.Set("predicted_preemptions", osjson::Value::Double(eq3.predicted));
  nv.Set("measured_preemptions", osjson::Value::Double(eq3.measured));
  nv.Set("rel_err", osjson::Value::Double(eq3.rel_err));
  nv.Set("tolerance", osjson::Value::Double(eq3.tolerance));
  nv.Set("pass", osjson::Value::Bool(eq3.pass()));
  doc.Set("noise", std::move(nv));
  return doc;
}

}  // namespace

int RunRunCommand(const std::vector<std::string>& args, std::ostream& out,
                  std::ostream& err) {
  RunFlags flags;
  for (const std::string& arg : args) {
    if (arg == "--list") {
      return ListScenarios(out);
    } else if (const auto v = FlagValue(arg, "--trials=")) {
      if (!ParseNumberFlag(*v, "run", "--trials", &flags.run.trials, err)) {
        return 1;
      }
    } else if (const auto v = FlagValue(arg, "--jobs=")) {
      if (!ParseNumberFlag(*v, "run", "--jobs", &flags.run.jobs, err)) {
        return 1;
      }
    } else if (const auto v = FlagValue(arg, "--out=")) {
      flags.out_prefix = *v;
    } else if (const auto v = FlagValue(arg, "--baseline=")) {
      flags.baseline_prefix = *v;
    } else if (const auto v = FlagValue(arg, "--json=")) {
      flags.json_path = *v;
    } else if (!arg.empty() && arg[0] == '-') {
      err << "osprof_tool run: unknown flag '" << arg << "'\n" << kRunUsage;
      return 1;
    } else if (flags.scenario.empty()) {
      flags.scenario = arg;
    } else {
      err << kRunUsage;
      return 1;
    }
  }
  if (flags.scenario.empty()) {
    err << kRunUsage;
    return 1;
  }
  const osrunner::Scenario* scenario =
      osrunner::BuiltinScenarios().Find(flags.scenario);
  if (scenario == nullptr) {
    err << "osprof_tool run: unknown scenario '" << flags.scenario
        << "'; available:\n";
    ListScenarios(err);
    return 1;
  }
  if (flags.run.trials <= 0) {
    err << "osprof_tool run: --trials must be positive\n";
    return 1;
  }
  if (flags.run.jobs < 0) {
    err << "osprof_tool run: --jobs must be 0 (all hardware threads) or "
           "positive\n";
    return 1;
  }
  if (!flags.json_path.empty() && flags.baseline_prefix.empty()) {
    err << "osprof_tool run: --json needs --baseline\n";
    return 1;
  }

  osrunner::RunResult result;
  try {
    result = osrunner::RunScenario(*scenario, flags.run);
  } catch (const std::exception& e) {
    err << "osprof_tool run: " << e.what() << "\n";
    return 2;
  }

  std::map<std::string, osprof::LayeredProfileSet> layered;
  for (const auto& [layer, lr] : result.layers) {
    if (!lr.layered.empty()) {
      layered.emplace(layer, lr.layered);
    }
  }
  // The baseline is read and scored before --out writes anything, so
  // --out may overwrite the baseline it was just gated against.
  std::optional<GateVerdict> gate;
  if (!flags.baseline_prefix.empty()) {
    gate = ScoreBaseline(flags, result, layered, err);
    if (!gate) {
      return 2;
    }
  }

  out << scenario->name << ": " << scenario->description << "\n";
  char line[200];
  std::snprintf(line, sizeof(line),
                "%d trial(s) on %d job(s) in %.3f s wall (base seed %llu)\n",
                result.options.trials, result.options.jobs,
                result.wall_seconds,
                static_cast<unsigned long long>(scenario->kernel.seed));
  out << line;
  for (const osrunner::TrialResult& t : result.trials) {
    std::snprintf(line, sizeof(line),
                  "  trial %d: seed %llu, %s simulated, %.3f s wall\n",
                  t.trial, static_cast<unsigned long long>(t.seed),
                  osprof::FormatSeconds(static_cast<double>(t.sim_cycles) /
                                        osprof::kPaperCpuHz)
                      .c_str(),
                  t.wall_seconds);
    out << line;
  }

  for (const auto& [layer, lr] : result.layers) {
    out << "\n[" << layer << "] merged over " << result.options.trials
        << " trial(s):\n";
    out << osrunner::RenderDispersion(lr, result.options.trials);
    if (!flags.out_prefix.empty()) {
      const std::string path = flags.out_prefix + "." + layer + ".prof";
      std::ofstream file(path);
      if (!file) {
        err << "osprof_tool run: cannot write " << path << "\n";
        return 2;
      }
      lr.merged.Serialize(file);
      out << "wrote " << path << "\n";
    }
  }

  if (!layered.empty()) {
    out << "\n[layers] decomposition merged over " << result.options.trials
        << " trial(s):\n";
    out << osprof::RenderLayers(layered);
    if (!flags.out_prefix.empty()) {
      const std::string path = flags.out_prefix + ".layers";
      std::ofstream file(path);
      if (!file) {
        err << "osprof_tool run: cannot write " << path << "\n";
        return 2;
      }
      osprof::SerializeLayers(layered, file);
      out << "wrote " << path << "\n";
    }
  }

  const std::optional<osprof::NoisePreemptionCheck> eq3 =
      osrunner::NoiseEquation3(*scenario, result);
  if (eq3) {
    for (const osrunner::TrialResult& t : result.trials) {
      out << "\n[noise] trial " << t.trial << " per-task interference:\n"
          << t.noise_table;
    }
    const double quantum = static_cast<double>(scenario->kernel.quantum);
    std::snprintf(line, sizeof(line),
                  "\n[noise] Eq.3 over %d trial(s): predicted %.1f forced "
                  "preemptions (bucket %d), measured %.0f, rel err %.4f "
                  "(tolerance %.2f)\n",
                  result.options.trials, eq3->predicted,
                  osprof::PreemptionBucket(quantum), eq3->measured,
                  eq3->rel_err, eq3->tolerance);
    out << line;
  }

  const std::vector<std::string> lock_cycles = result.LockCycles();
  if (lock_cycles.empty()) {
    out << "\n[lock-order] no deadlock-capable cycles\n";
  } else {
    out << "\n[lock-order] " << lock_cycles.size()
        << " deadlock-capable cycle(s):\n";
    for (const std::string& cycle : lock_cycles) {
      out << "  " << cycle << "\n";
    }
  }

  RacesVerdict races;
  races.checked = scenario->track_races;
  races.expected = flags.scenario.rfind("race_fixture_", 0) == 0;
  races.reports = result.RaceReports();
  if (!races.checked) {
    out << "\n[races] SimRace tracking is off for this scenario\n";
  } else {
    out << "\n[races] SimRace happens-before report:\n"
        << result.options.trials << " trial(s), "
        << result.TotalCounter("race_accesses_checked")
        << " shared accesses checked across "
        << result.TotalCounter("race_cells_tracked") << " cell(s)\n";
    if (races.reports.empty()) {
      out << "no data races\n";
    } else {
      out << races.reports.size() << " data race(s):\n";
      for (const std::string& report : races.reports) {
        out << "  " << report << "\n";
      }
    }
  }

  if (!gate) {
    return 0;
  }
  out << "\n[gate] against " << flags.baseline_prefix << ":\n";
  const bool pass = PrintVerdict(*gate, lock_cycles, races, eq3, out);
  if (!flags.json_path.empty()) {
    std::ofstream json(flags.json_path);
    if (!json) {
      err << "osprof_tool run: cannot write " << flags.json_path << "\n";
      return 2;
    }
    json << VerdictJson(flags, *gate, eq3, lock_cycles, races, pass).Dump();
    out << "wrote " << flags.json_path << "\n";
  }
  out << (pass ? "gate PASS" : "gate REGRESSION") << "\n";
  return pass ? 0 : 3;
}

}  // namespace ostools
