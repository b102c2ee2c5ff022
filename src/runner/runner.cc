#include "src/runner/runner.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <variant>

#include "src/core/clock.h"
#include "src/core/peaks.h"
#include "src/core/preemption.h"
#include "src/net/fabric.h"
#include "src/profilers/noise_profiler.h"
#include "src/profilers/profiler_sink.h"
#include "src/profilers/sim_profiler.h"
#include "src/sim/sync.h"
#include "src/workloads/cluster_clients.h"

namespace osrunner {
namespace {

// Lower median of an unsorted column (consistent with cluster.cc's outlier
// consensus).
std::uint64_t LowerMedian(std::vector<std::uint64_t> values) {
  const std::size_t mid = (values.size() - 1) / 2;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  return values[mid];
}

std::vector<OpDispersion> ComputeDispersion(
    const osprof::ProfileSet& merged, const std::vector<TrialResult>& trials,
    const std::string& layer) {
  std::vector<OpDispersion> out;
  for (const std::string& op : merged.OperationNames()) {
    const osprof::Histogram& mh = merged.Find(op)->histogram();
    OpDispersion d;
    d.op = op;
    d.first_bucket = mh.FirstNonEmpty();
    d.last_bucket = mh.LastNonEmpty();

    // Per-trial histograms for this operation (absent -> empty).
    std::vector<const osprof::Histogram*> per_trial;
    per_trial.reserve(trials.size());
    for (const TrialResult& t : trials) {
      const auto it = t.layers.find(layer);
      const osprof::Profile* p =
          it == t.layers.end() ? nullptr : it->second.Find(op);
      per_trial.push_back(p == nullptr ? nullptr : &p->histogram());
    }

    if (d.first_bucket >= 0) {
      const int width = d.last_bucket - d.first_bucket + 1;
      d.min_count.resize(static_cast<std::size_t>(width));
      d.median_count.resize(static_cast<std::size_t>(width));
      d.max_count.resize(static_cast<std::size_t>(width));
      std::vector<std::uint64_t> column(trials.size());
      for (int b = d.first_bucket; b <= d.last_bucket; ++b) {
        for (std::size_t t = 0; t < per_trial.size(); ++t) {
          column[t] = per_trial[t] == nullptr ? 0 : per_trial[t]->bucket(b);
        }
        const std::size_t i = static_cast<std::size_t>(b - d.first_bucket);
        d.min_count[i] = *std::min_element(column.begin(), column.end());
        d.max_count[i] = *std::max_element(column.begin(), column.end());
        d.median_count[i] = LowerMedian(column);
      }
    }

    // Peak stability across trials.
    std::map<int, int> peak_counts;
    for (const osprof::Histogram* h : per_trial) {
      const int n =
          h == nullptr ? 0 : static_cast<int>(osprof::FindPeaks(*h).size());
      ++peak_counts[n];
    }
    for (const auto& [n, occurrences] : peak_counts) {
      // Highest occurrence wins; ties resolve to the smaller peak count
      // (map order), keeping the report deterministic.
      if (occurrences > d.stable_peak_trials) {
        d.stable_peak_trials = occurrences;
        d.modal_peak_count = n;
      }
    }
    out.push_back(std::move(d));
  }
  return out;
}

// The simulated machine every workload shares, plus the sinks its trial
// collects.  Each Simulate() overload below builds its workload's state
// as locals, spawns the tasks, calls Run(), then writes its own counters.
struct Trial {
  const Scenario& scenario;
  TrialResult& result;
  osim::Kernel& kernel;
  osim::SimDisk& disk;
  osfs::Ext2SimFs& fs;
  osprofilers::SimProfiler& profiler;
  osprofilers::DriverProfiler* driver;  // Null unless profilers.driver.
  std::vector<osprofilers::ProfilerSink*> sinks;

  // The FoSgen-style in-FS instrumentation, when the spec asks for it.
  void AttachFsProfiler() {
    if (scenario.profilers.fs) {
      fs.SetProfiler(&profiler);
      sinks.push_back(&profiler);
    }
  }

  // Runs the kernel until its threads finish, collects every sink and
  // records the outputs all workloads share: the kernel counters, the
  // lock-order cycles and the SimRace report.
  void Run() {
    if (driver != nullptr) {
      sinks.push_back(driver);
    }
    // Per-CPU sharded recording: enabling after all probes attach is fine
    // -- existing ops are replayed into the shards and later Resolve()
    // calls propagate, so the order is immaterial to the serialized output.
    if (scenario.profilers.per_cpu_shards) {
      profiler.EnableSharding(scenario.profilers.shard_epoch);
    }

    kernel.RunUntilThreadsFinish();

    result.sim_cycles = kernel.now();
    for (const osprofilers::ProfilerSink* sink : sinks) {
      osprofilers::Collected collected =
          sink->Collect(osprofilers::CollectRequest{});
      result.layers.emplace(sink->layer(), std::move(collected.profiles));
      if (collected.layered != nullptr && !collected.layered->empty()) {
        result.layered.emplace(sink->layer(), *collected.layered);
      }
    }

    result.counters["context_switches"] = kernel.context_switches();
    result.counters["timer_interrupts"] = kernel.timer_interrupts_delivered();
    result.counters["forced_preemptions"] = kernel.total_forced_preemptions();
    result.lock_cycles = kernel.lock_order().CycleDescriptions();
    if (scenario.track_races) {
      const osim::RaceTracker& races = kernel.races();
      result.race_reports = races.ReportDescriptions();
      result.counters["race_reports"] = races.report_count();
      result.counters["race_racy_accesses"] = races.racy_accesses();
      result.counters["race_accesses_checked"] = races.accesses_checked();
      result.counters["race_cells_tracked"] = races.cells_tracked();
    }
  }
};

void Simulate(const GrepSpec& grep, Trial& t) {
  osworkloads::BuildSourceTree(&t.fs, grep.root, grep.tree);
  std::optional<osnet::CifsMount> cifs;
  osfs::Vfs* target = &t.fs;
  if (grep.over_cifs) {
    cifs.emplace(&t.kernel, &t.fs, grep.cifs);
    target = &*cifs;
    if (t.scenario.profilers.fs) {
      // Client-side CIFS layer (what Figure 10 profiles).
      t.profiler.set_layer("cifs");
      cifs->SetProfiler(&t.profiler);
      t.sinks.push_back(&t.profiler);
    }
  } else {
    t.AttachFsProfiler();
  }
  std::vector<osworkloads::GrepStats> stats(
      static_cast<std::size_t>(grep.processes));
  for (int p = 0; p < grep.processes; ++p) {
    t.kernel.Spawn("grep" + std::to_string(p),
                   osworkloads::GrepWorkload(
                       &t.kernel, target, grep.root, grep.per_byte_cpu,
                       &stats[static_cast<std::size_t>(p)]));
  }
  t.Run();
  for (const osworkloads::GrepStats& s : stats) {
    t.result.counters["files_read"] += s.files_read;
    t.result.counters["directories_visited"] += s.directories_visited;
    t.result.counters["bytes_read"] += s.bytes_read;
  }
}

void Simulate(const ZeroByteReadSpec& probe, Trial& t) {
  t.fs.AddFile(probe.path, probe.file_bytes);
  t.AttachFsProfiler();
  for (int p = 0; p < probe.processes; ++p) {
    t.kernel.Spawn("proc" + std::to_string(p),
                   osworkloads::ZeroByteReadWorkload(
                       &t.kernel, &t.fs, probe.path, probe.requests,
                       probe.user_cycles));
  }
  t.Run();
}

void Simulate(const RandomReadSpec& rr, Trial& t) {
  t.fs.AddFile(rr.path, rr.file_bytes);
  t.AttachFsProfiler();
  for (int p = 0; p < rr.processes; ++p) {
    t.kernel.Spawn(
        "proc" + std::to_string(p),
        osworkloads::RandomReadWorkload(
            &t.kernel, &t.fs, rr.path, rr.iterations,
            t.result.seed + 1'000'003u * static_cast<std::uint64_t>(p)));
  }
  t.Run();
}

void Simulate(const CloneSpec& clone, Trial& t) {
  // Syscall-boundary recording, like the paper's user-level profiler.
  t.profiler.set_layer("user");
  t.sinks.push_back(&t.profiler);
  osim::SimSemaphore lock(&t.kernel, 1, "proc_table");
  for (int p = 0; p < clone.processes; ++p) {
    t.kernel.Spawn("proc" + std::to_string(p),
                   osworkloads::CloneWorkload(
                       &t.kernel, &lock, &t.profiler, clone.iterations,
                       clone.lock_free_cpu, clone.locked_cpu,
                       clone.user_think_cpu));
  }
  t.Run();
  t.result.counters["acquisitions"] = lock.acquisitions();
  t.result.counters["contended_acquisitions"] = lock.contended_acquisitions();
}

void Simulate(const PostmarkSpec& pm, Trial& t) {
  osworkloads::PostmarkConfig pcfg = pm.config;
  pcfg.seed += static_cast<std::uint64_t>(t.result.trial);
  t.fs.AddDir(pcfg.directory);
  t.AttachFsProfiler();
  osworkloads::PostmarkStats stats;
  t.kernel.Spawn("postmark",
                 osworkloads::PostmarkWorkload(&t.kernel, &t.fs, pcfg, &stats));
  t.Run();
  t.result.counters["creates"] = stats.creates;
  t.result.counters["deletes"] = stats.deletes;
  t.result.counters["reads"] = stats.reads;
  t.result.counters["appends"] = stats.appends;
}

void Simulate(const TrafficSpec& traffic, Trial& t) {
  osworkloads::TrafficConfig tcfg = traffic.config;
  tcfg.seed += static_cast<std::uint64_t>(t.result.trial);
  osworkloads::CreateTrafficFiles(&t.fs, tcfg);
  t.AttachFsProfiler();
  osworkloads::TrafficStats stats;
  t.kernel.Spawn("traffic",
                 osworkloads::OpenLoopTraffic(&t.kernel, &t.fs, tcfg, &stats));
  t.Run();
  std::map<std::string, std::uint64_t>& c = t.result.counters;
  c["sessions"] = stats.sessions_finished;
  c["requests"] = stats.requests_completed;
  c["reads"] = stats.reads;
  c["writes"] = stats.writes;
  c["bytes_read"] = stats.bytes_read;
  c["bytes_written"] = stats.bytes_written;
  c["peak_live_sessions"] = stats.peak_live_sessions;
  // The kernel's own memory accounting, so scale benches can check the
  // simulator heap without host RSS noise.
  const osim::KernelMemoryStats mem = t.kernel.MemoryStats();
  c["spawned_threads"] = mem.spawned_threads;
  c["reaped_threads"] = mem.reaped_threads;
  c["run_queue_peak"] = mem.run_queue_peak_depth;
  c["sim_heap_bytes"] = mem.TotalBytes();
  if (t.scenario.profilers.per_cpu_shards && t.profiler.shards() != nullptr) {
    c["shard_flushes"] = t.profiler.shards()->flushes();
  }
}

void Simulate(const NoiseSpec& ns, Trial& t) {
  // The noise profiler subscribes to the kernel's interference channel;
  // its tasks are the workload.
  osprofilers::NoiseProfiler noise(&t.kernel, t.scenario.profilers.resolution);
  for (int i = 0; i < ns.tasks; ++i) {
    t.kernel.Spawn("noise" + std::to_string(i),
                   noise.NoiseTask(i, ns.samples, ns.burst));
  }
  t.sinks.push_back(&noise);
  t.Run();
  std::map<std::string, std::uint64_t>& c = t.result.counters;
  c["noise_samples"] = noise.TotalSamples();
  c["noise_runtime_cycles"] = noise.TotalRuntime();
  c["noise_cycles"] = noise.TotalNoise();
  c["noise_max_single"] = noise.MaxSingle();
  c["noise_preemptions"] = noise.TotalPreemptions();
  c["noise_migrations"] = noise.TotalMigrations();
  c["noise_timer_ticks"] = noise.TotalTimerTicks();
  c["noise_stolen_cycles"] = noise.TotalStolen();
  c["noise_runq_cycles"] = noise.TotalRunQueue();
  c["noise_lock_handoffs"] = noise.TotalLockHandoffs();
  t.result.noise_table = noise.RenderSummary();
}

void Simulate(const RaceFixtureSpec& race, Trial& t) {
  // Syscall-boundary recording so the race reports carry op names.
  t.profiler.set_layer("user");
  t.sinks.push_back(&t.profiler);
  osim::Shared<std::uint64_t> cell(t.kernel, "fixture.cell");
  std::optional<osim::SimSemaphore> lock;
  if (race.kind == RaceFixtureSpec::Kind::kLockedControl) {
    lock.emplace(&t.kernel, 1, "fixture_lock");
  }
  for (int p = 0; p < race.tasks; ++p) {
    osim::Task<void> body = [&]() -> osim::Task<void> {
      switch (race.kind) {
        case RaceFixtureSpec::Kind::kReaders:
          // Task 0 publishes; the rest scan.
          if (p == 0) {
            return osworkloads::RacePublishWorkload(
                &t.kernel, &t.profiler, &cell, race.rounds, race.stride);
          }
          return osworkloads::RaceScanWorkload(&t.kernel, &t.profiler, &cell,
                                               race.rounds, race.stride);
        case RaceFixtureSpec::Kind::kLockedControl:
          return osworkloads::RaceLockedWorkload(&t.kernel, &t.profiler,
                                                 &cell, &*lock, race.rounds,
                                                 race.stride);
        case RaceFixtureSpec::Kind::kCounter:
          break;
      }
      return osworkloads::RaceCounterWorkload(&t.kernel, &t.profiler, &cell,
                                              race.rounds, race.stride);
    }();
    t.kernel.Spawn("racer" + std::to_string(p), std::move(body));
  }
  t.Run();
  if (lock.has_value()) {
    t.result.counters["acquisitions"] = lock->acquisitions();
    t.result.counters["contended_acquisitions"] =
        lock->contended_acquisitions();
  }
}

void Simulate(const ClusterSpec& cl, Trial& t) {
  if (t.kernel.num_nodes() != cl.nodes) {
    throw std::invalid_argument(
        "RunTrial: ClusterSpec.nodes must match kernel.num_nodes");
  }
  osnet::Fabric fabric(&t.kernel, cl.net);
  osnet::Dlm dlm(&t.kernel, &fabric, cl.dlm);
  osfs::ClusterVolume volume(&t.kernel, &t.disk);
  // mkfs: every parent directory of the shared path, then the file.
  std::size_t pos = 1;
  for (std::size_t slash = cl.path.find('/', pos); slash != std::string::npos;
       slash = cl.path.find('/', pos)) {
    volume.AddDir(cl.path.substr(0, slash));
    pos = slash + 1;
  }
  volume.AddFile(cl.path, cl.file_bytes);
  if (t.scenario.profilers.fs) {
    // One profiler across all mounts: the cluster-wide view, with each
    // op still node-tagged through the interference channel.
    t.profiler.set_layer("cluster");
    t.sinks.push_back(&t.profiler);
  }
  // Mounts after the DLM exists: the ctor registers the node's
  // downgrade hook (the pre-grant flush that makes revokes coherent).
  std::vector<std::unique_ptr<osfs::ClusterFsNode>> mounts;
  for (int n = 0; n < cl.nodes; ++n) {
    mounts.push_back(
        std::make_unique<osfs::ClusterFsNode>(&volume, &dlm, n, cl.cfs));
    if (t.scenario.profilers.fs) {
      mounts.back()->SetProfiler(&t.profiler);
    }
  }
  dlm.Start();
  int remaining = cl.nodes * cl.clients_per_node;
  osim::WaitQueue done(&t.kernel);
  std::vector<osworkloads::ClusterClientStats> stats(
      static_cast<std::size_t>(remaining));
  for (int n = 0; n < cl.nodes; ++n) {
    for (int c = 0; c < cl.clients_per_node; ++c) {
      const int index = n * cl.clients_per_node + c;
      t.kernel.SpawnOn(
          n, "client" + std::to_string(n) + "." + std::to_string(c),
          osworkloads::ClusterClientWorkload(
              &t.kernel, mounts[static_cast<std::size_t>(n)].get(), cl.path,
              cl.iterations, cl.write_ratio, cl.io_bytes, cl.file_bytes,
              cl.think_cycles,
              t.result.seed + 7'919u * static_cast<std::uint64_t>(index),
              &stats[static_cast<std::size_t>(index)], &remaining, &done));
    }
  }
  t.kernel.Spawn("cluster_ctl", osworkloads::ClusterControl(
                                    &t.kernel, &dlm, &remaining, &done));
  t.Run();
  std::map<std::string, std::uint64_t>& c = t.result.counters;
  for (const osworkloads::ClusterClientStats& s : stats) {
    c["reads"] += s.reads;
    c["writes"] += s.writes;
    c["bytes_read"] += s.bytes_read;
    c["bytes_written"] += s.bytes_written;
  }
  c["dlm_acquires"] = dlm.acquires();
  c["dlm_cache_hits"] = dlm.cache_hits();
  c["dlm_remote_requests"] = dlm.remote_requests();
  c["dlm_queued_waits"] = dlm.queued_waits();
  c["dlm_basts"] = dlm.basts_sent();
  c["dlm_downgrades"] = dlm.downgrades();
  c["net_messages"] = fabric.messages_sent();
  c["net_bytes"] = fabric.bytes_sent();
  for (const auto& mount : mounts) {
    c["cache_invalidations"] += mount->invalidations();
    c["pages_flushed"] += mount->pages_flushed();
  }
}

// Equation 3 (§3.3) has inputs only for the noise workload: every sample
// is one burst, so all tasks * samples * trials records sit in the
// burst's bucket.
std::optional<osprof::NoisePreemptionCheck> Equation3(
    const NoiseSpec& ns, const Scenario& scenario, const RunResult& result) {
  return osprof::CheckNoisePreemptions(
      ns.tasks, scenario.kernel.num_cpus,
      ns.samples * static_cast<std::uint64_t>(result.trials.size()), ns.burst,
      static_cast<double>(scenario.kernel.quantum),
      static_cast<double>(result.TotalCounter("noise_preemptions")),
      ns.eq3_tolerance);
}

template <typename Spec>
std::optional<osprof::NoisePreemptionCheck> Equation3(const Spec&,
                                                      const Scenario&,
                                                      const RunResult&) {
  return std::nullopt;
}

}  // namespace

std::uint64_t RunResult::TotalCounter(const std::string& name) const {
  std::uint64_t sum = 0;
  for (const TrialResult& t : trials) {
    const auto it = t.counters.find(name);
    if (it != t.counters.end()) {
      sum += it->second;
    }
  }
  return sum;
}

std::vector<std::string> RunResult::LockCycles() const {
  std::set<std::string> unique;
  for (const TrialResult& t : trials) {
    unique.insert(t.lock_cycles.begin(), t.lock_cycles.end());
  }
  return {unique.begin(), unique.end()};
}

std::vector<std::string> RunResult::RaceReports() const {
  std::set<std::string> unique;
  for (const TrialResult& t : trials) {
    unique.insert(t.race_reports.begin(), t.race_reports.end());
  }
  return {unique.begin(), unique.end()};
}

TrialResult RunTrial(const Scenario& scenario, int trial) {
  const osprof::WallTimer timer;
  TrialResult result;
  result.trial = trial;

  osim::KernelConfig kcfg = scenario.kernel;
  kcfg.seed = scenario.kernel.seed + static_cast<std::uint64_t>(trial);
  result.seed = kcfg.seed;

  // A fully private simulated machine per trial: trials share nothing, so
  // they can run on concurrent host threads.
  osim::Kernel kernel(kcfg);
  // Lock-order analysis rides along on every trial: tracking consumes no
  // simulated time, so profiles are byte-identical with it on.
  kernel.lock_order().set_enabled(true);
  // SimRace happens-before tracking: same zero-simulated-time contract
  // (src/sim/race_tracker.h); scale scenarios opt out via the spec.
  kernel.races().set_enabled(scenario.track_races);
  osim::SimDisk disk(&kernel, scenario.disk);
  // Every workload gets the ext2 file system, even one that never touches
  // it: its constructor splits the kernel RNG, and the disk and the
  // cluster FS draw from that RNG later, so dropping it would shift their
  // draws and with them the goldens.
  osfs::Ext2SimFs fs(&kernel, &disk, scenario.fs);
  osprofilers::SimProfiler profiler(&kernel, scenario.profilers.resolution);
  std::optional<osprofilers::DriverProfiler> driver;
  if (scenario.profilers.driver) {
    driver.emplace(&kernel, &disk, scenario.profilers.resolution);
  }

  Trial t{scenario, result, kernel, disk, fs, profiler,
          driver.has_value() ? &*driver : nullptr, {}};
  std::visit([&t](const auto& spec) { Simulate(spec, t); }, scenario.workload);

  result.wall_seconds = timer.Seconds();
  return result;
}

RunResult RunScenario(const Scenario& scenario, const RunOptions& options) {
  if (options.trials <= 0) {
    throw std::invalid_argument("RunScenario: trials must be positive");
  }
  const osprof::WallTimer timer;

  int jobs = options.jobs;
  if (jobs <= 0) {
    jobs = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  jobs = std::min(jobs, options.trials);

  RunResult result;
  result.scenario = scenario.name;
  result.options = options;
  result.options.jobs = jobs;
  result.trials.resize(static_cast<std::size_t>(options.trials));

  // Work-stealing over the trial indices; results land in their slot, so
  // neither the claim order nor the worker count affects the output.
  std::atomic<int> next{0};
  std::vector<std::exception_ptr> errors(
      static_cast<std::size_t>(options.trials));
  auto worker = [&] {
    for (int i;
         (i = next.fetch_add(1, std::memory_order_relaxed)) < options.trials;) {
      try {
        result.trials[static_cast<std::size_t>(i)] = RunTrial(scenario, i);
      } catch (...) {
        errors[static_cast<std::size_t>(i)] = std::current_exception();
      }
    }
  };
  if (jobs == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(jobs));
    for (int j = 0; j < jobs; ++j) {
      pool.emplace_back(worker);
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }
  for (const std::exception_ptr& e : errors) {
    if (e != nullptr) {
      std::rethrow_exception(e);
    }
  }

  // Merge layer by layer, in trial order: ProfileSet::Merge is associative
  // and commutative, so the totals are identical for any jobs value; the
  // fixed order makes them bit-identical trivially.
  for (const TrialResult& t : result.trials) {
    for (const auto& [layer, set] : t.layers) {
      if (result.layers.find(layer) == result.layers.end()) {
        result.layers.emplace(
            layer,
            LayerResult{osprof::ProfileSet(set.resolution()),
                        {},
                        osprof::LayeredProfileSet(set.resolution())});
      }
    }
  }
  for (const TrialResult& t : result.trials) {
    for (auto& [layer, lr] : result.layers) {
      const auto it = t.layers.find(layer);
      if (it != t.layers.end()) {
        lr.merged.Merge(it->second);
      }
      const auto lit = t.layered.find(layer);
      if (lit != t.layered.end()) {
        lr.layered.Merge(lit->second);
      }
    }
  }
  for (auto& [layer, lr] : result.layers) {
    lr.dispersion = ComputeDispersion(lr.merged, result.trials, layer);
  }

  result.wall_seconds = timer.Seconds();
  return result;
}

std::optional<osprof::NoisePreemptionCheck> NoiseEquation3(
    const Scenario& scenario, const RunResult& result) {
  return std::visit(
      [&](const auto& spec) { return Equation3(spec, scenario, result); },
      scenario.workload);
}

std::string RenderDispersion(const LayerResult& layer, int trials) {
  std::ostringstream os;
  // Heaviest operations first: the paper's profile preprocessing order.
  for (const std::string& op : layer.merged.ByTotalLatency()) {
    const auto it =
        std::find_if(layer.dispersion.begin(), layer.dispersion.end(),
                     [&op](const OpDispersion& d) { return d.op == op; });
    if (it == layer.dispersion.end() || it->first_bucket < 0) {
      continue;
    }
    const OpDispersion& d = *it;
    char head[160];
    std::snprintf(head, sizeof(head),
                  "%s: %d peak(s) in %d/%d trials; buckets %d..%d\n",
                  d.op.c_str(), d.modal_peak_count, d.stable_peak_trials,
                  trials, d.first_bucket, d.last_bucket);
    os << head;
    os << "  bucket        min     median        max     merged\n";
    const osprof::Histogram& mh = layer.merged.Find(op)->histogram();
    for (int b = d.first_bucket; b <= d.last_bucket; ++b) {
      if (mh.bucket(b) == 0) {
        continue;
      }
      const std::size_t i = static_cast<std::size_t>(b - d.first_bucket);
      char line[160];
      std::snprintf(line, sizeof(line), "  %6d %10llu %10llu %10llu %10llu\n",
                    b, static_cast<unsigned long long>(d.min_count[i]),
                    static_cast<unsigned long long>(d.median_count[i]),
                    static_cast<unsigned long long>(d.max_count[i]),
                    static_cast<unsigned long long>(mh.bucket(b)));
      os << line;
    }
  }
  return os.str();
}

}  // namespace osrunner
