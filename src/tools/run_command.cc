#include "src/tools/run_command.h"

#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/core/clock.h"
#include "src/core/layered.h"
#include "src/core/preemption.h"
#include "src/runner/runner.h"
#include "src/runner/scenario.h"
#include "src/tools/flags.h"

namespace ostools {
namespace {

constexpr const char* kRunUsage =
    "usage: osprof_tool run <scenario> [--trials=N] [--jobs=J] "
    "[--out=PREFIX]\n"
    "       osprof_tool run --list\n"
    "  --trials=N   independently-seeded trials to run (default 1)\n"
    "  --jobs=J     worker threads; 0 = all hardware threads (default 1)\n"
    "  --out=PREFIX write each merged layer to PREFIX.<layer>.prof, plus\n"
    "               the layered decomposition to PREFIX.layers when any\n"
    "               layer recorded one\n"
    "  Prints each layer's merged profile with its cross-trial dispersion,\n"
    "  the layered latency decomposition, lock-order cycles and the\n"
    "  SimRace data-race report.  Noise scenarios (noise, noise_idle) also\n"
    "  print each trial's rtla/osnoise-style per-task table and the\n"
    "  Equation 3 forced-preemption check over all trials.\n";

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

}  // namespace

int RunRunCommand(const std::vector<std::string>& args, std::ostream& out,
                  std::ostream& err) {
  std::string scenario_name;
  osrunner::RunOptions options;
  std::string out_prefix;
  for (const std::string& arg : args) {
    if (arg == "--list") {
      return ListScenarios(out);
    } else if (const auto v = FlagValue(arg, "--trials=")) {
      if (!ParseNumberFlag(*v, "run", "--trials", &options.trials, err)) {
        return 1;
      }
    } else if (const auto v = FlagValue(arg, "--jobs=")) {
      if (!ParseNumberFlag(*v, "run", "--jobs", &options.jobs, err)) {
        return 1;
      }
    } else if (const auto v = FlagValue(arg, "--out=")) {
      out_prefix = *v;
    } else if (!arg.empty() && arg[0] == '-') {
      err << "osprof_tool run: unknown flag '" << arg << "'\n" << kRunUsage;
      return 1;
    } else if (scenario_name.empty()) {
      scenario_name = arg;
    } else {
      err << kRunUsage;
      return 1;
    }
  }
  if (scenario_name.empty()) {
    err << kRunUsage;
    return 1;
  }
  const osrunner::Scenario* scenario =
      osrunner::BuiltinScenarios().Find(scenario_name);
  if (scenario == nullptr) {
    err << "osprof_tool run: unknown scenario '" << scenario_name
        << "'; available:\n";
    ListScenarios(err);
    return 1;
  }
  if (options.trials <= 0) {
    err << "osprof_tool run: --trials must be positive\n";
    return 1;
  }

  osrunner::RunResult result;
  try {
    result = osrunner::RunScenario(*scenario, options);
  } catch (const std::exception& e) {
    err << "osprof_tool run: " << e.what() << "\n";
    return 2;
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
    if (!out_prefix.empty()) {
      const std::string path = out_prefix + "." + layer + ".prof";
      std::ofstream file(path);
      if (!file) {
        err << "osprof_tool run: cannot write " << path << "\n";
        return 2;
      }
      lr.merged.Serialize(file);
      out << "wrote " << path << "\n";
    }
  }

  std::map<std::string, osprof::LayeredProfileSet> layered;
  for (const auto& [layer, lr] : result.layers) {
    if (!lr.layered.empty()) {
      layered.emplace(layer, lr.layered);
    }
  }
  if (!layered.empty()) {
    out << "\n[layers] decomposition merged over " << result.options.trials
        << " trial(s):\n";
    out << osprof::RenderLayers(layered);
    if (!out_prefix.empty()) {
      const std::string path = out_prefix + ".layers";
      std::ofstream file(path);
      if (!file) {
        err << "osprof_tool run: cannot write " << path << "\n";
        return 2;
      }
      osprof::SerializeLayers(layered, file);
      out << "wrote " << path << "\n";
    }
  }

  if (const auto eq3 = osrunner::NoiseEquation3(*scenario, result)) {
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

  if (!scenario->track_races) {
    out << "\n[races] SimRace tracking is off for this scenario\n";
    return 0;
  }
  const std::vector<std::string> reports = result.RaceReports();
  out << "\n[races] SimRace happens-before report:\n"
      << result.options.trials << " trial(s), "
      << result.TotalCounter("race_accesses_checked")
      << " shared accesses checked across "
      << result.TotalCounter("race_cells_tracked") << " cell(s)\n";
  if (reports.empty()) {
    out << "no data races\n";
    return 0;
  }
  out << reports.size() << " data race(s):\n";
  for (const std::string& report : reports) {
    out << "  " << report << "\n";
  }
  return 0;
}

}  // namespace ostools
