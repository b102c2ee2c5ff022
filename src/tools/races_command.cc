#include "src/tools/races_command.h"

#include <exception>
#include <fstream>
#include <optional>
#include <string>

#include "src/core/jsonw.h"
#include "src/runner/runner.h"
#include "src/runner/scenario.h"
#include "src/tools/flags.h"

namespace ostools {
namespace {

constexpr const char* kRacesUsage =
    "usage: osprof_tool races <scenario> [--trials=N] [--jobs=J]\n"
    "                         [--json=FILE]\n"
    "  Runs the scenario with SimRace happens-before tracking and prints\n"
    "  every data race observed (deduplicated across trials).  Tracking\n"
    "  consumes no simulated time, so profiles match the untracked run\n"
    "  byte for byte.  Exit code 3 means races were found; the seeded\n"
    "  race_fixture_* scenarios exist to produce exactly that.\n"
    "  --trials=N   independently seeded trials (default 1)\n"
    "  --jobs=J     worker threads (does not affect the report)\n"
    "  --json=FILE  write the osprof-races-v1 document to FILE\n";

}  // namespace

int RunRacesCommand(const std::vector<std::string>& args, std::ostream& out,
                    std::ostream& err) {
  std::string scenario_name;
  std::string json_path;
  osrunner::RunOptions run;
  for (const std::string& arg : args) {
    if (arg == "--help") {
      out << kRacesUsage;
      return 0;
    }
    if (const auto v = FlagValue(arg, "--json=")) {
      json_path = *v;
    } else if (const auto v = FlagValue(arg, "--trials=")) {
      if (!ParseNumberFlag(*v, "races", "--trials", &run.trials, err)) {
        return 1;
      }
    } else if (const auto v = FlagValue(arg, "--jobs=")) {
      if (!ParseNumberFlag(*v, "races", "--jobs", &run.jobs, err)) {
        return 1;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      err << "osprof_tool races: unknown flag '" << arg << "'\n"
          << kRacesUsage;
      return 1;
    } else if (scenario_name.empty()) {
      scenario_name = arg;
    } else {
      err << kRacesUsage;
      return 1;
    }
  }
  if (scenario_name.empty() || run.trials <= 0) {
    err << kRacesUsage;
    return 1;
  }

  const osrunner::Scenario* scenario =
      osrunner::BuiltinScenarios().Find(scenario_name);
  if (scenario == nullptr) {
    err << "osprof_tool races: unknown scenario '" << scenario_name << "'\n";
    return 2;
  }
  osrunner::Scenario tracked = *scenario;
  tracked.track_races = true;

  osrunner::RunResult result;
  try {
    result = osrunner::RunScenario(tracked, run);
  } catch (const std::exception& e) {
    err << "osprof_tool races: " << e.what() << "\n";
    return 2;
  }

  const std::vector<std::string> reports = result.RaceReports();
  out << scenario->name << ": " << scenario->description << "\n";
  out << result.options.trials << " trial(s), "
      << result.TotalCounter("race_accesses_checked")
      << " shared accesses checked across "
      << result.TotalCounter("race_cells_tracked") << " cell(s)\n";
  if (reports.empty()) {
    out << "no data races\n";
  } else {
    out << reports.size() << " data race(s):\n";
    for (const std::string& report : reports) {
      out << "  " << report << "\n";
    }
  }

  if (!json_path.empty()) {
    osjson::Value doc = osjson::Value::Object();
    doc.Set("schema", osjson::Value::Str("osprof-races-v1"));
    doc.Set("scenario", osjson::Value::Str(scenario->name));
    doc.Set("trials", osjson::Value::Int(result.options.trials));
    doc.Set("races_found", osjson::Value::Bool(!reports.empty()));
    osjson::Value report_array = osjson::Value::Array();
    for (const std::string& report : reports) {
      report_array.Append(osjson::Value::Str(report));
    }
    doc.Set("reports", std::move(report_array));
    osjson::Value counters = osjson::Value::Object();
    for (const char* name : {"race_reports", "race_racy_accesses",
                             "race_accesses_checked", "race_cells_tracked"}) {
      counters.Set(name, osjson::Value::Uint(result.TotalCounter(name)));
    }
    doc.Set("counters", std::move(counters));
    std::ofstream json(json_path);
    if (!json) {
      err << "osprof_tool races: cannot write " << json_path << "\n";
      return 2;
    }
    json << doc.Dump();
    out << "wrote " << json_path << "\n";
  }
  return reports.empty() ? 0 : 3;
}

}  // namespace ostools
