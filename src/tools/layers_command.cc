#include "src/tools/layers_command.h"

#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "src/core/jsonw.h"
#include "src/core/layered.h"
#include "src/runner/runner.h"
#include "src/runner/scenario.h"
#include "src/tools/flags.h"

namespace ostools {
namespace {

constexpr const char* kLayersUsage =
    "usage: osprof_tool layers <scenario> [--trials=N] [--jobs=J]\n"
    "                          [--json=FILE] [--out=FILE]\n"
    "  --trials=N   independently-seeded trials to run (default 1)\n"
    "  --jobs=J     worker threads; 0 = all hardware threads (default 1)\n"
    "  --json=FILE  write the osprof-layers-v1 JSON decomposition to FILE\n"
    "  --out=FILE   write the serialized .layers form (gate golden format)\n";

osjson::Value LayersJson(const std::string& scenario, int trials,
                         const std::map<std::string,
                                        osprof::LayeredProfileSet>& layers) {
  osjson::Value doc = osjson::Value::Object();
  doc.Set("schema", osjson::Value::Str("osprof-layers-v1"));
  doc.Set("scenario", osjson::Value::Str(scenario));
  doc.Set("trials", osjson::Value::Int(trials));
  osjson::Value layer_array = osjson::Value::Array();
  for (const auto& [layer, set] : layers) {
    if (set.empty()) {
      continue;
    }
    osjson::Value l = osjson::Value::Object();
    l.Set("layer", osjson::Value::Str(layer));
    l.Set("resolution", osjson::Value::Int(set.resolution()));
    osjson::Value op_array = osjson::Value::Array();
    for (const auto& [op, profile] : set) {
      if (profile.empty()) {
        continue;
      }
      osjson::Value o = osjson::Value::Object();
      o.Set("op", osjson::Value::Str(op));
      osjson::Value bucket_array = osjson::Value::Array();
      for (const auto& [bucket, data] : profile.buckets()) {
        osjson::Value b = osjson::Value::Object();
        b.Set("bucket", osjson::Value::Int(bucket));
        b.Set("count", osjson::Value::Uint(data.count));
        osjson::Value cycles = osjson::Value::Object();
        for (int c = 0; c < osprof::kNumLayerComponents; ++c) {
          cycles.Set(
              osprof::LayerComponentName(
                  static_cast<osprof::LayerComponent>(c)),
              osjson::Value::Uint(data.cycles[c]));
        }
        b.Set("cycles", std::move(cycles));
        bucket_array.Append(std::move(b));
      }
      o.Set("buckets", std::move(bucket_array));
      op_array.Append(std::move(o));
    }
    l.Set("ops", std::move(op_array));
    layer_array.Append(std::move(l));
  }
  doc.Set("layers", std::move(layer_array));
  return doc;
}

}  // namespace

int RunLayersCommand(const std::vector<std::string>& args, std::ostream& out,
                     std::ostream& err) {
  std::string scenario_name;
  osrunner::RunOptions options;
  std::string json_path;
  std::string out_path;
  for (const std::string& arg : args) {
    if (const auto v = FlagValue(arg, "--trials=")) {
      if (!ParseNumberFlag(*v, "layers", "--trials", &options.trials, err)) {
        return 1;
      }
    } else if (const auto v = FlagValue(arg, "--jobs=")) {
      if (!ParseNumberFlag(*v, "layers", "--jobs", &options.jobs, err)) {
        return 1;
      }
    } else if (const auto v = FlagValue(arg, "--json=")) {
      json_path = *v;
    } else if (const auto v = FlagValue(arg, "--out=")) {
      out_path = *v;
    } else if (!arg.empty() && arg[0] == '-') {
      err << "osprof_tool layers: unknown flag '" << arg << "'\n"
          << kLayersUsage;
      return 1;
    } else if (scenario_name.empty()) {
      scenario_name = arg;
    } else {
      err << kLayersUsage;
      return 1;
    }
  }
  if (scenario_name.empty()) {
    err << kLayersUsage;
    return 1;
  }
  const osrunner::Scenario* scenario =
      osrunner::BuiltinScenarios().Find(scenario_name);
  if (scenario == nullptr) {
    err << "osprof_tool layers: unknown scenario '" << scenario_name << "'\n";
    return 1;
  }
  if (options.trials <= 0) {
    err << "osprof_tool layers: --trials must be positive\n";
    return 1;
  }

  osrunner::RunResult result;
  try {
    result = osrunner::RunScenario(*scenario, options);
  } catch (const std::exception& e) {
    err << "osprof_tool layers: " << e.what() << "\n";
    return 2;
  }

  std::map<std::string, osprof::LayeredProfileSet> layers;
  for (const auto& [layer, lr] : result.layers) {
    if (!lr.layered.empty()) {
      layers.emplace(layer, lr.layered);
    }
  }

  out << scenario->name << ": " << scenario->description << "\n";
  char line[200];
  std::snprintf(line, sizeof(line),
                "layered decomposition over %d trial(s) (base seed %llu)\n",
                result.options.trials,
                static_cast<unsigned long long>(scenario->kernel.seed));
  out << line;
  if (layers.empty()) {
    out << "no layered data: no instrumented layer recorded any "
           "operation\n";
    return 0;
  }
  out << osprof::RenderLayers(layers);

  if (!json_path.empty()) {
    std::ofstream json(json_path);
    if (!json) {
      err << "osprof_tool layers: cannot write " << json_path << "\n";
      return 2;
    }
    json << LayersJson(scenario->name, result.options.trials, layers).Dump();
    out << "wrote " << json_path << "\n";
  }
  if (!out_path.empty()) {
    std::ofstream file(out_path);
    if (!file) {
      err << "osprof_tool layers: cannot write " << out_path << "\n";
      return 2;
    }
    osprof::SerializeLayers(layers, file);
    out << "wrote " << out_path << "\n";
  }
  return 0;
}

}  // namespace ostools
