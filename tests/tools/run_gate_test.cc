// The profile-regression gate: `osprof_tool run <scenario> --baseline=P`.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/histogram.h"
#include "src/core/layered.h"
#include "src/core/profile.h"
#include "src/runner/runner.h"
#include "src/runner/scenario.h"
#include "src/tools/run_command.h"
#include "tests/temp_dir.h"

namespace ostools {
namespace {

// All tests gate fig06 (llseek contention): it is the fastest scenario
// that exercises several operations in one "fs"-layer profile set.
constexpr const char* kScenario = "fig06";
constexpr const char* kLayerSuffix = ".fs.prof";

const std::string kGoldenDir = std::string(OSPROF_SOURCE_DIR) +
                               "/tests/golden/";

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class GateCommandTest : public ::testing::Test {
 protected:
  // Copies one baseline file between the fixture's two prefixes.
  static void CopyFile(const std::string& from, const std::string& to) {
    std::ifstream in(from);
    ASSERT_TRUE(in.good()) << from;
    std::ofstream out(to);
    out << in.rdbuf();
  }

  int Run(std::vector<std::string> args) {
    out_.str("");
    err_.str("");
    return RunRunCommand(args, out_, err_);
  }

  // Writes fig06's goldens to prefix_, as `run --out` does.
  void WriteGolden() {
    ASSERT_EQ(Run({kScenario, "--out=" + prefix_}), 0) << err_.str();
  }

  const ostest::TempDir tmp_;
  const std::string prefix_ = tmp_.File("golden");
  const std::string perturbed_prefix_ = tmp_.File("perturbed");
  const std::string json_path_ = tmp_.File("verdict.json");
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(GateCommandTest, UsageErrors) {
  EXPECT_EQ(Run({}), 1);
  EXPECT_NE(err_.str().find("usage:"), std::string::npos);
  EXPECT_EQ(Run({kScenario, "--trials=0"}), 1);
  EXPECT_EQ(Run({kScenario, "--no-such-flag"}), 1);
  EXPECT_EQ(Run({kScenario, "--json=" + json_path_}), 1);
  EXPECT_NE(err_.str().find("--json needs --baseline"), std::string::npos);
}

TEST_F(GateCommandTest, ListPrintsScenarios) {
  EXPECT_EQ(Run({"--list"}), 0);
  EXPECT_NE(out_.str().find(kScenario), std::string::npos);
  EXPECT_NE(out_.str().find("fig07_cifs"), std::string::npos);
}

TEST_F(GateCommandTest, MissingBaselineExits2) {
  EXPECT_EQ(Run({kScenario, "--baseline=" + prefix_ + "_absent"}), 2);
  EXPECT_NE(err_.str().find("missing baseline"), std::string::npos);
  EXPECT_NE(err_.str().find("--out=" + prefix_ + "_absent"),
            std::string::npos);
}

// A baseline that does not parse, or parses but fails its own checksum
// (what `osprof_tool check` reports as CHECKSUM MISMATCH), is corrupt --
// and it is rejected before --out writes anything.
TEST_F(GateCommandTest, CorruptBaselineExits2) {
  std::ofstream(prefix_ + kLayerSuffix) << "this is not a profile set\n";
  EXPECT_EQ(Run({kScenario, "--baseline=" + prefix_}), 2);
  EXPECT_NE(err_.str().find("corrupt baseline " + prefix_ + kLayerSuffix),
            std::string::npos);

  std::string tampered =
      ReadFile(kGoldenDir + std::string(kScenario) + kLayerSuffix);
  const std::string close = "profile close recorded=2 ";
  const std::size_t pos = tampered.find(close);
  ASSERT_NE(pos, std::string::npos);
  tampered.replace(pos, close.size(), "profile close recorded=7 ");
  std::ofstream(perturbed_prefix_ + kLayerSuffix) << tampered;
  CopyFile(kGoldenDir + std::string(kScenario) + ".layers",
           perturbed_prefix_ + ".layers");
  EXPECT_EQ(Run({kScenario, "--baseline=" + perturbed_prefix_,
                 "--out=" + prefix_ + "_out"}),
            2);
  EXPECT_NE(err_.str().find("corrupt baseline " + perturbed_prefix_ +
                            kLayerSuffix + ": checksum mismatch"),
            std::string::npos)
      << err_.str();
  EXPECT_EQ(out_.str(), "");
  EXPECT_FALSE(std::filesystem::exists(prefix_ + "_out" + kLayerSuffix));
}

TEST_F(GateCommandTest, UpdateRoundTripThenCleanGatePasses) {
  WriteGolden();
  EXPECT_NE(out_.str().find("wrote " + prefix_ + kLayerSuffix),
            std::string::npos);

  // The written golden parses back to a non-empty set.
  std::ifstream golden_file(prefix_ + kLayerSuffix);
  ASSERT_TRUE(golden_file.good());
  const osprof::ProfileSet golden = osprof::ProfileSet::Parse(golden_file);
  EXPECT_GT(golden.size(), 0u);
  EXPECT_GT(golden.TotalOperations(), 0u);

  // Re-running the deterministic scenario scores distance 0 everywhere,
  // and the verdict closes the report.
  EXPECT_EQ(Run({kScenario, "--baseline=" + prefix_}), 0);
  const std::string pass_line = "\ngate PASS\n";
  ASSERT_GE(out_.str().size(), pass_line.size());
  EXPECT_EQ(out_.str().substr(out_.str().size() - pass_line.size()),
            pass_line);
  EXPECT_EQ(out_.str().find("REGRESSION"), std::string::npos);
}

TEST_F(GateCommandTest, JsonVerdictSchema) {
  WriteGolden();
  ASSERT_EQ(Run({kScenario, "--baseline=" + prefix_,
                 "--json=" + json_path_}),
            0);
  const std::string json = ReadFile(json_path_);
  EXPECT_NE(json.find("\"schema\": \"osprof-gate-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"scenario\": \"fig06\""), std::string::npos);
  EXPECT_NE(json.find("\"pass\": true"), std::string::npos);
  EXPECT_NE(json.find("\"layers\""), std::string::npos);
  EXPECT_NE(json.find("\"layered\""), std::string::npos);
  EXPECT_NE(json.find("\"mismatch_count\""), std::string::npos);
  EXPECT_NE(json.find("\"raters\""), std::string::npos);
  EXPECT_NE(json.find("\"max_score\""), std::string::npos);
  EXPECT_NE(json.find("\"flagged_ops\""), std::string::npos);
  for (const char* rater : {"emd", "chi2", "ops", "latency"}) {
    EXPECT_NE(json.find(std::string("\"rater\": \"") + rater + "\""),
              std::string::npos)
        << rater;
  }
}

// §5.3's calibration idea in reverse: perturb the golden by shifting every
// peak up three buckets AND tripling its mass.  The shift moves the peaks
// (EMD, Chi-square), the scaling changes the totals (total-ops,
// total-latency) -- so every rater, on its own, must flag the regression.
TEST_F(GateCommandTest, PerturbedBaselineFlaggedByEveryRater) {
  WriteGolden();
  std::ifstream golden_file(prefix_ + kLayerSuffix);
  const osprof::ProfileSet golden = osprof::ProfileSet::Parse(golden_file);

  osprof::ProfileSet perturbed(golden.resolution());
  for (const auto& [name, profile] : golden) {
    const osprof::Histogram& h = profile.histogram();
    osprof::Histogram& p = perturbed[name].histogram();
    std::uint64_t recorded = 0;
    osprof::Cycles total_latency = 0;
    for (int b = 0; b < h.num_buckets(); ++b) {
      if (h.bucket(b) == 0) {
        continue;
      }
      const int shifted = std::min(b + 3, h.num_buckets() - 1);
      const std::uint64_t count = h.bucket(b) * 3;
      p.set_bucket(shifted, p.bucket(shifted) + count);
      recorded += count;
      total_latency +=
          count * osprof::BucketLowerBound(shifted, golden.resolution());
    }
    p.SetTotals(recorded, total_latency);
  }
  std::ofstream perturbed_file(perturbed_prefix_ + kLayerSuffix);
  perturbed.Serialize(perturbed_file);
  perturbed_file.close();
  // The layered golden rides along unchanged: only the profile raters
  // should fire here.
  CopyFile(prefix_ + ".layers", perturbed_prefix_ + ".layers");

  EXPECT_EQ(Run({kScenario, "--baseline=" + perturbed_prefix_,
                 "--json=" + json_path_}),
            3);
  EXPECT_NE(out_.str().find("gate REGRESSION"), std::string::npos);
  EXPECT_NE(out_.str().find("flagged:"), std::string::npos);
  // Each rater's JSON entry, from its "rater" key to the next one, says
  // that rater failed with at least one flagged operation.
  const std::string json = ReadFile(json_path_);
  for (const char* rater : {"emd", "chi2", "ops", "latency"}) {
    const std::size_t begin =
        json.find(std::string("\"rater\": \"") + rater + "\"");
    ASSERT_NE(begin, std::string::npos) << rater;
    const std::string entry =
        json.substr(begin, json.find("\"rater\":", begin + 1) - begin);
    EXPECT_NE(entry.find("\"pass\": false"), std::string::npos)
        << "rater " << rater << " missed the perturbation\n"
        << entry;
    EXPECT_NE(entry.find("\"flagged_ops\": ["), std::string::npos) << entry;
    EXPECT_EQ(entry.find("\"flagged_ops\": []"), std::string::npos) << entry;
  }
}

// The layered decomposition is scored for exactness: tampering with one
// component's cycle count in the .layers golden fails the gate even when
// every profile rater passes.
TEST_F(GateCommandTest, LayersDecompositionDriftFailsGate) {
  WriteGolden();
  CopyFile(prefix_ + kLayerSuffix, perturbed_prefix_ + kLayerSuffix);
  std::string layers_text = ReadFile(prefix_ + ".layers");
  const std::size_t pos = layers_text.find(" self ");
  ASSERT_NE(pos, std::string::npos);
  layers_text.insert(pos + 6, "9");  // Prepend a digit: cycles change.
  std::ofstream(perturbed_prefix_ + ".layers") << layers_text;

  EXPECT_EQ(Run({kScenario, "--baseline=" + perturbed_prefix_,
                 "--json=" + json_path_}),
            3);
  EXPECT_NE(out_.str().find("DECOMPOSITION DRIFT"), std::string::npos);
  EXPECT_NE(out_.str().find("gate REGRESSION"), std::string::npos);

  // The JSON verdict carries the mismatch.
  const std::string json = ReadFile(json_path_);
  EXPECT_NE(json.find("\"layered\""), std::string::npos);
  EXPECT_NE(json.find("\"mismatches\""), std::string::npos);
}

// A scenario that records layered data cannot gate without its .layers
// golden: profiles alone no longer prove the run matches.
TEST_F(GateCommandTest, MissingLayersBaselineExits2) {
  WriteGolden();
  std::remove((prefix_ + ".layers").c_str());
  EXPECT_EQ(Run({kScenario, "--baseline=" + prefix_}), 2);
  EXPECT_NE(err_.str().find("missing baseline"), std::string::npos);
  EXPECT_NE(err_.str().find(".layers"), std::string::npos);
}

// The committed corpus under tests/golden/ must pass: this is the same
// invariant the CI gate job enforces, checked here so `ctest` catches a
// stale golden before a push does.
TEST_F(GateCommandTest, CommittedGoldenCorpusPasses) {
  for (const char* scenario : {"fig01", "fig06"}) {
    EXPECT_EQ(Run({scenario, "--baseline=" + kGoldenDir + scenario}), 0)
        << scenario << ":\n"
        << out_.str() << err_.str();
  }
}

// The [races] verdict: a seeded fixture must race -- and that is its
// passing state -- a clean scenario must not, and an untracked scenario
// (scale_smoke) skips the check while gating its profiles.
TEST_F(GateCommandTest, RacesVerdictCoversFixturesCleanRunsAndOptOut) {
  const std::string fixture = "race_fixture_counter";
  EXPECT_EQ(Run({fixture, "--baseline=" + kGoldenDir + fixture,
                 "--json=" + json_path_}),
            0)
      << out_.str() << err_.str();
  EXPECT_NE(out_.str().find("[races] fixture raced as designed:"),
            std::string::npos);
  const std::string json = ReadFile(json_path_);
  EXPECT_NE(json.find("\"races\""), std::string::npos);
  EXPECT_NE(json.find("\"expected\": true"), std::string::npos);
  EXPECT_NE(json.find("\"found\": true"), std::string::npos);
  EXPECT_NE(json.find("RaceIncrementOnce"), std::string::npos);

  EXPECT_EQ(Run({"scale_smoke", "--baseline=" + kGoldenDir + "scale_smoke"}),
            0)
      << out_.str() << err_.str();
  EXPECT_NE(out_.str().find("[races] tracking disabled; skipped"),
            std::string::npos);

  EXPECT_EQ(Run({kScenario, "--baseline=" + kGoldenDir + kScenario}), 0)
      << out_.str() << err_.str();
  EXPECT_NE(out_.str().find("[races] no data races"), std::string::npos);
}

// Every registered scenario is gated -- it has a committed
// tests/golden/<name>.<layer>.prof -- or is exempt for a stated reason.
TEST(GateCoverageTest, EveryScenarioIsGatedOrExempt) {
  const std::map<std::string, std::string> exempt = {
      {"scale_1m",
       "minutes of wall clock; perfbench byte-compares its registered-seed "
       "output with perfbench/reference/scale_1m.* on every run"},
  };
  std::set<std::string> gated;
  for (const auto& entry : std::filesystem::directory_iterator(kGoldenDir)) {
    const std::string file = entry.path().filename().string();
    if (entry.path().extension() == ".prof") {
      gated.insert(file.substr(0, file.find('.')));
    }
  }
  const std::vector<std::string> names = osrunner::BuiltinScenarios().Names();
  for (const std::string& name : names) {
    const auto it = exempt.find(name);
    if (it == exempt.end()) {
      EXPECT_EQ(gated.count(name), 1u)
          << name << " has no tests/golden/" << name
          << ".*.prof; generate it with `osprof_tool run " << name
          << " --out=tests/golden/" << name
          << "` or exempt it here with a reason";
    } else {
      EXPECT_EQ(gated.count(name), 0u)
          << name << " is exempt (" << it->second << ") but has a golden";
    }
  }
  for (const auto& [name, reason] : exempt) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << "exempt scenario " << name << " is not registered";
  }
}

// SimRace costs zero simulated time: every race-tracked scenario, run with
// tracking off, still reproduces its committed goldens byte for byte.
class UntrackedRunTest : public ::testing::TestWithParam<std::string> {};

std::vector<std::string> TrackedScenarios() {
  const osrunner::ScenarioRegistry& registry = osrunner::BuiltinScenarios();
  std::vector<std::string> tracked;
  for (const std::string& name : registry.Names()) {
    if (registry.Find(name)->track_races) {
      tracked.push_back(name);
    }
  }
  return tracked;
}

TEST_P(UntrackedRunTest, MatchesGoldenByteForByte) {
  const std::string& name = GetParam();
  osrunner::Scenario untracked = *osrunner::BuiltinScenarios().Find(name);
  untracked.track_races = false;
  const osrunner::RunResult result =
      osrunner::RunScenario(untracked, osrunner::RunOptions{});
  ASSERT_FALSE(result.layers.empty());

  std::set<std::string> written;
  std::map<std::string, osprof::LayeredProfileSet> layered;
  for (const auto& [layer, lr] : result.layers) {
    const std::string file = name + "." + layer + ".prof";
    written.insert(file);
    EXPECT_EQ(lr.merged.ToString(), ReadFile(kGoldenDir + file)) << file;
    if (!lr.layered.empty()) {
      layered.emplace(layer, lr.layered);
    }
  }
  if (!layered.empty()) {
    const std::string file = name + ".layers";
    written.insert(file);
    std::ostringstream text;
    osprof::SerializeLayers(layered, text);
    EXPECT_EQ(text.str(), ReadFile(kGoldenDir + file)) << file;
  }
  // No golden of this scenario goes unchecked.
  std::set<std::string> goldens;
  for (const auto& entry : std::filesystem::directory_iterator(kGoldenDir)) {
    const std::string file = entry.path().filename().string();
    if (file.substr(0, file.find('.')) == name) {
      goldens.insert(file);
    }
  }
  EXPECT_EQ(written, goldens);
}

INSTANTIATE_TEST_SUITE_P(
    TrackedScenarios, UntrackedRunTest,
    ::testing::ValuesIn(TrackedScenarios()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace ostools
