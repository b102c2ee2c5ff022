// The multi-trial scenario runner: registry behaviour, cross-job
// determinism, dispersion statistics, the unified ProfilerSink interface
// and the `osprof_tool run` subcommand.

#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "gtest/gtest.h"
#include "src/profilers/callgraph_profiler.h"
#include "src/profilers/posix_profiler.h"
#include "src/profilers/profiler_sink.h"
#include "src/profilers/sim_profiler.h"
#include "src/runner/runner.h"
#include "src/runner/scenario.h"
#include "src/sim/disk.h"
#include "src/sim/kernel.h"
#include "src/tools/profile_tool.h"

namespace osrunner {
namespace {

// A scenario small enough to run many trials inside a unit test.
Scenario TinyGrep() {
  Scenario s;
  s.name = "tiny_grep";
  s.kernel.num_cpus = 1;
  s.kernel.seed = 99;
  GrepSpec grep;
  grep.tree.top_dirs = 2;
  grep.tree.subdirs_per_dir = 1;
  grep.tree.depth = 1;
  grep.tree.files_per_dir = 4;
  s.workload = grep;
  return s;
}

Scenario TinyClone() {
  Scenario s;
  s.name = "tiny_clone";
  s.kernel.num_cpus = 2;
  s.kernel.seed = 17;
  CloneSpec clone;
  clone.processes = 2;
  clone.iterations = 50;
  s.workload = clone;
  return s;
}

std::string SerializedLayers(const RunResult& result) {
  std::ostringstream os;
  for (const auto& [layer, lr] : result.layers) {
    os << "### " << layer << "\n";
    lr.merged.Serialize(os);
  }
  return os.str();
}

TEST(ScenarioRegistryTest, RegisterFindAndReject) {
  ScenarioRegistry registry;
  Scenario s = TinyGrep();
  registry.Register(s);
  ASSERT_NE(registry.Find("tiny_grep"), nullptr);
  EXPECT_EQ(registry.Find("missing"), nullptr);
  EXPECT_THROW(registry.Register(s), std::invalid_argument);  // Duplicate.
  Scenario unnamed;
  unnamed.name = "";
  EXPECT_THROW(registry.Register(unnamed), std::invalid_argument);
}

TEST(ScenarioRegistryTest, BuiltinsContainThePortedFigures) {
  const ScenarioRegistry& registry = BuiltinScenarios();
  for (const char* name : {"fig01", "fig03", "fig07"}) {
    EXPECT_NE(registry.Find(name), nullptr) << name;
  }
}

TEST(RunnerTest, RejectsNonPositiveTrials) {
  RunOptions options;
  options.trials = 0;
  EXPECT_THROW(RunScenario(TinyGrep(), options), std::invalid_argument);
}

TEST(RunnerTest, TrialSeedsAreDistinctAndDerived) {
  RunOptions options;
  options.trials = 4;
  const RunResult result = RunScenario(TinyGrep(), options);
  std::set<std::uint64_t> seeds;
  for (const TrialResult& t : result.trials) {
    EXPECT_EQ(t.seed, 99u + static_cast<std::uint64_t>(t.trial));
    seeds.insert(t.seed);
  }
  EXPECT_EQ(seeds.size(), 4u);
}

// Satellite 4: the same scenario + seed run twice serializes identically.
TEST(RunnerTest, SameSeedRunsAreByteIdentical) {
  RunOptions options;
  options.trials = 3;
  const RunResult a = RunScenario(TinyGrep(), options);
  const RunResult b = RunScenario(TinyGrep(), options);
  const std::string sa = SerializedLayers(a);
  EXPECT_FALSE(sa.empty());
  EXPECT_EQ(sa, SerializedLayers(b));
}

// Acceptance criterion: the worker count must not affect the merge.
TEST(RunnerTest, JobCountDoesNotChangeMergedProfiles) {
  RunOptions serial;
  serial.trials = 4;
  serial.jobs = 1;
  RunOptions parallel = serial;
  parallel.jobs = 4;
  const RunResult a = RunScenario(TinyGrep(), serial);
  const RunResult b = RunScenario(TinyGrep(), parallel);
  EXPECT_EQ(SerializedLayers(a), SerializedLayers(b));
  EXPECT_EQ(a.TotalCounter("files_read"), b.TotalCounter("files_read"));
}

TEST(RunnerTest, MergedProfileIsTheSumOfTrialProfiles) {
  RunOptions options;
  options.trials = 3;
  const RunResult result = RunScenario(TinyGrep(), options);
  const auto& fs_layer = result.layers.at("fs");
  for (const std::string& op : fs_layer.merged.OperationNames()) {
    std::uint64_t sum = 0;
    for (const TrialResult& t : result.trials) {
      const osprof::Profile* p = t.layers.at("fs").Find(op);
      sum += p == nullptr ? 0 : p->total_operations();
    }
    EXPECT_EQ(fs_layer.merged.Find(op)->total_operations(), sum) << op;
  }
}

TEST(RunnerTest, DispersionIsOrderedAndCoversTheMergedRange) {
  RunOptions options;
  options.trials = 5;
  const RunResult result = RunScenario(TinyGrep(), options);
  const LayerResult& fs_layer = result.layers.at("fs");
  ASSERT_FALSE(fs_layer.dispersion.empty());
  for (const OpDispersion& d : fs_layer.dispersion) {
    ASSERT_GE(d.first_bucket, 0) << d.op;
    const std::size_t width =
        static_cast<std::size_t>(d.last_bucket - d.first_bucket + 1);
    ASSERT_EQ(d.min_count.size(), width);
    ASSERT_EQ(d.median_count.size(), width);
    ASSERT_EQ(d.max_count.size(), width);
    for (std::size_t i = 0; i < width; ++i) {
      EXPECT_LE(d.min_count[i], d.median_count[i]) << d.op << " @" << i;
      EXPECT_LE(d.median_count[i], d.max_count[i]) << d.op << " @" << i;
    }
    EXPECT_GE(d.modal_peak_count, 0);
    EXPECT_GE(d.stable_peak_trials, 1);
    EXPECT_LE(d.stable_peak_trials, 5);
  }
  const std::string report = RenderDispersion(fs_layer, options.trials);
  EXPECT_NE(report.find("readdir"), std::string::npos);
}

TEST(RunnerTest, CloneScenarioRecordsUserLayerAndCounters) {
  RunOptions options;
  options.trials = 2;
  const RunResult result = RunScenario(TinyClone(), options);
  ASSERT_EQ(result.layers.count("user"), 1u);
  EXPECT_NE(result.layers.at("user").merged.Find("clone"), nullptr);
  // 2 trials x 2 processes x 50 iterations.
  EXPECT_EQ(result.TotalCounter("acquisitions"), 200u);
  EXPECT_EQ(result.TotalCounter("missing_counter"), 0u);
}

TEST(RunnerTest, DriverLayerAppearsWhenRequested) {
  Scenario s = TinyGrep();
  s.profilers.driver = true;
  RunOptions options;
  options.trials = 1;
  const RunResult result = RunScenario(s, options);
  EXPECT_EQ(result.layers.count("fs"), 1u);
  EXPECT_EQ(result.layers.count("driver"), 1u);
}

// Each WorkloadSpec alternative reports exactly its own counters on top of
// the kernel and SimRace ones every trial records.  A workload that drops
// or renames a counter fails here.
TEST(RunnerTest, EachWorkloadReportsItsCounters) {
  auto tiny = [](WorkloadSpec workload) {
    Scenario s;
    s.kernel.num_cpus = 2;
    s.kernel.seed = 5;
    s.workload = std::move(workload);
    return s;
  };
  ZeroByteReadSpec probe;
  probe.requests = 20;
  RandomReadSpec rr;
  rr.iterations = 10;
  PostmarkSpec pm;
  pm.config.initial_files = 10;
  pm.config.transactions = 20;
  TrafficSpec traffic;
  traffic.config.phases = {{4, osim::Cycles{1'000'000}}};
  traffic.config.requests_per_session = 3;
  traffic.config.file_pool = 8;
  NoiseSpec noise;
  noise.tasks = 3;
  noise.samples = 20;
  RaceFixtureSpec locked;
  locked.kind = RaceFixtureSpec::Kind::kLockedControl;
  ClusterSpec cluster;
  cluster.iterations = 5;
  Scenario cluster_scenario = tiny(cluster);
  cluster_scenario.kernel.num_cpus = 4;
  cluster_scenario.kernel.num_nodes = 2;
  Scenario sharded = tiny(traffic);
  sharded.profilers.per_cpu_shards = true;

  const std::set<std::string> lock = {"acquisitions",
                                      "contended_acquisitions"};
  const std::vector<std::pair<Scenario, std::set<std::string>>> cases = {
      {TinyGrep(), {"bytes_read", "directories_visited", "files_read"}},
      {tiny(probe), {}},
      {tiny(rr), {}},
      {TinyClone(), lock},
      {tiny(pm), {"appends", "creates", "deletes", "reads"}},
      {tiny(traffic),
       {"bytes_read", "bytes_written", "peak_live_sessions", "reads",
        "reaped_threads", "requests", "run_queue_peak", "sessions",
        "sim_heap_bytes", "spawned_threads", "writes"}},
      {sharded,
       {"bytes_read", "bytes_written", "peak_live_sessions", "reads",
        "reaped_threads", "requests", "run_queue_peak", "sessions",
        "shard_flushes", "sim_heap_bytes", "spawned_threads", "writes"}},
      {tiny(noise),
       {"noise_cycles", "noise_lock_handoffs", "noise_max_single",
        "noise_migrations", "noise_preemptions", "noise_runq_cycles",
        "noise_runtime_cycles", "noise_samples", "noise_stolen_cycles",
        "noise_timer_ticks"}},
      {tiny(RaceFixtureSpec{}), {}},
      {tiny(locked), lock},
      {cluster_scenario,
       {"bytes_read", "bytes_written", "cache_invalidations", "dlm_acquires",
        "dlm_basts", "dlm_cache_hits", "dlm_downgrades",
        "dlm_queued_waits", "dlm_remote_requests", "net_bytes",
        "net_messages", "pages_flushed", "reads", "writes"}},
  };

  std::set<std::size_t> covered;
  for (const auto& [scenario, own] : cases) {
    covered.insert(scenario.workload.index());
    std::set<std::string> want = {
        "context_switches",      "forced_preemptions", "race_accesses_checked",
        "race_cells_tracked",    "race_racy_accesses", "race_reports",
        "timer_interrupts"};
    want.insert(own.begin(), own.end());
    std::set<std::string> got;
    for (const auto& [name, value] : RunTrial(scenario, 0).counters) {
      got.insert(name);
    }
    EXPECT_EQ(got, want) << "workload index " << scenario.workload.index();
  }
  EXPECT_EQ(covered.size(), std::variant_size_v<WorkloadSpec>);
}

// Satellite 2: every profiler presents the same sink surface.
TEST(ProfilerSinkTest, AllFourProfilersImplementTheInterface) {
  osim::KernelConfig kcfg;
  osim::Kernel kernel(kcfg);
  osim::SimDisk disk(&kernel);

  osprofilers::SimProfiler sim(&kernel, 2);
  osprofilers::DriverProfiler driver(&kernel, &disk, 2);
  osprofilers::PosixProfiler posix(2);
  osprofilers::CallGraphProfiler callgraph(&kernel, 2);

  const std::vector<osprofilers::ProfilerSink*> sinks = {&sim, &driver, &posix,
                                                         &callgraph};
  const std::vector<std::string> layers = {"fs", "driver", "posix",
                                           "callgraph"};
  for (std::size_t i = 0; i < sinks.size(); ++i) {
    EXPECT_EQ(sinks[i]->layer(), layers[i]);
    EXPECT_EQ(sinks[i]->resolution(), 2);
    EXPECT_TRUE(sinks[i]->Collect().empty());
    sinks[i]->Reset();  // Reset on an idle profiler is a no-op.
    EXPECT_TRUE(sinks[i]->Collect().empty());
  }

  // Collect() snapshots; Reset() clears.
  posix.Measure("noop", [] { return 0; });
  EXPECT_EQ(posix.Collect().TotalOperations(), 1u);
  posix.Reset();
  EXPECT_TRUE(posix.Collect().empty());

  sim.set_layer("user");
  EXPECT_EQ(sim.layer(), "user");
}

TEST(RunCommandTest, ListAndErrorsAndSmoke) {
  {
    std::ostringstream out, err;
    EXPECT_EQ(ostools::RunProfileTool({"run", "--list"}, out, err), 0);
    EXPECT_NE(out.str().find("fig07"), std::string::npos);
  }
  {
    std::ostringstream out, err;
    EXPECT_EQ(ostools::RunProfileTool({"run", "no_such_scenario"}, out, err),
              1);
    EXPECT_NE(err.str().find("unknown scenario"), std::string::npos);
  }
  {
    std::ostringstream out, err;
    EXPECT_EQ(
        ostools::RunProfileTool({"run", "fig07", "--trials=abc"}, out, err),
        1);
  }
  {
    // A real (small) run through the CLI path: fig01_single at 2 trials.
    std::ostringstream out, err;
    EXPECT_EQ(ostools::RunProfileTool(
                  {"run", "fig01_single", "--trials=2", "--jobs=2"}, out, err),
              0)
        << err.str();
    EXPECT_NE(out.str().find("2 trial(s) on 2 job(s)"), std::string::npos);
    EXPECT_NE(out.str().find("clone"), std::string::npos);
  }
}

// `run` is the one scenario report: after the dispersion tables it prints
// the layered decomposition, the lock-order cycles and the SimRace report
// of the same result.
class RunCommandReportTest : public ::testing::Test {
 protected:
  int Run(const std::vector<std::string>& args) {
    out_.str("");
    err_.str("");
    std::vector<std::string> argv = {"run"};
    argv.insert(argv.end(), args.begin(), args.end());
    return ostools::RunProfileTool(argv, out_, err_);
  }
  bool Printed(const std::string& text) const {
    return out_.str().find(text) != std::string::npos;
  }

  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(RunCommandReportTest, RaceFixtureReportIsAttributed) {
  ASSERT_EQ(Run({"race_fixture_counter"}), 0) << err_.str();
  EXPECT_TRUE(Printed("[lock-order] no deadlock-capable cycles"));
  EXPECT_TRUE(Printed("shared accesses checked"));
  EXPECT_TRUE(Printed("data race(s):"));
  // Attribution: the cell, the access site, and the profiled op.
  EXPECT_TRUE(Printed("fixture.cell@RaceIncrementOnce"));
  EXPECT_TRUE(Printed("op increment"));
}

TEST_F(RunCommandReportTest, ReadersFixtureRacesAcrossTrials) {
  ASSERT_EQ(Run({"race_fixture_readers", "--trials=2"}), 0) << err_.str();
  EXPECT_TRUE(Printed("2 trial(s), "));
  EXPECT_TRUE(Printed("RaceScanOnce"));
}

TEST_F(RunCommandReportTest, LockedControlFixtureIsClean) {
  ASSERT_EQ(Run({"race_control_locked"}), 0) << err_.str();
  EXPECT_TRUE(Printed("no data races"));
}

TEST_F(RunCommandReportTest, PrintsTheLayeredDecomposition) {
  ASSERT_EQ(Run({"fig07_readdir_peaks"}), 0) << err_.str();
  EXPECT_TRUE(Printed("[layers] decomposition merged over 1 trial(s):\n"
                      "layer fs (resolution 1)\n"));
  EXPECT_TRUE(Printed("  readdir\n"));
  EXPECT_TRUE(Printed("legend: "));
}

// `run noise` prints the rtla/osnoise-style table (one row per task plus
// TOTAL) and the Equation 3 line over the same run's preemption count.
TEST_F(RunCommandReportTest, NoiseScenarioPrintsTheTracerTable) {
  ASSERT_EQ(Run({"noise"}), 0) << err_.str();
  EXPECT_TRUE(Printed("[noise] trial 0 per-task interference:\n"));
  for (const char* row : {"\nnoise0 ", "\nnoise1 ", "\nnoise2 ", "\nnoise3 ",
                          "\nTOTAL "}) {
    EXPECT_TRUE(Printed(row)) << row;
  }
  EXPECT_FALSE(Printed("\nnoise4 "));
  RunOptions options;
  const RunResult result =
      RunScenario(*BuiltinScenarios().Find("noise"), options);
  const std::string measured =
      "measured " + std::to_string(result.TotalCounter("noise_preemptions")) +
      ",";
  EXPECT_TRUE(Printed("[noise] Eq.3 over 1 trial(s): predicted 1500.0 "
                      "forced preemptions (bucket 20), " +
                      measured))
      << out_.str();
}

TEST_F(RunCommandReportTest, UntrackedScenarioSaysTrackingIsOff) {
  ASSERT_EQ(Run({"scale_smoke"}), 0) << err_.str();
  EXPECT_TRUE(Printed("[races] SimRace tracking is off for this scenario"));
  EXPECT_FALSE(Printed("shared accesses checked"));
}

TEST_F(RunCommandReportTest, UsageErrorsExitOne) {
  EXPECT_EQ(Run({}), 1);  // Missing scenario.
  EXPECT_NE(err_.str().find("usage:"), std::string::npos);
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{
           {"race_fixture_counter", "--no-such-flag"},
           {"race_fixture_counter", "--trials=abc"},
           {"race_fixture_counter", "--trials=1x"},
           {"race_fixture_counter", "--jobs=1.5"},
           {"race_fixture_counter", "--jobs=-1"},
           {"race_fixture_counter", "--trials=0"},
           {"two", "scenarios"},
       }) {
    EXPECT_EQ(Run(args), 1) << args.back();
  }
}

TEST_F(RunCommandReportTest, UnknownScenarioListsTheAvailableOnes) {
  EXPECT_EQ(Run({"no_such_scenario"}), 1);
  EXPECT_NE(err_.str().find("unknown scenario 'no_such_scenario'"),
            std::string::npos);
  EXPECT_NE(err_.str().find("race_fixture_counter"), std::string::npos);
}

TEST_F(RunCommandReportTest, UnwritableOutPrefixIsARuntimeError) {
  EXPECT_EQ(Run({"race_control_locked", "--out=/no/such/dir/run"}), 2);
  EXPECT_NE(err_.str().find("cannot write"), std::string::npos);
}

}  // namespace
}  // namespace osrunner
