#include "perfbench/src/trial.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "perfbench/src/alloc_count.h"
#include "src/core/clock.h"
#include "src/fs/cluster_fs.h"
#include "src/fs/ext2fs.h"
#include "src/net/cifs.h"
#include "src/net/dlm.h"
#include "src/net/fabric.h"
#include "src/profilers/profile_shards.h"
#include "src/profilers/sim_profiler.h"
#include "src/sim/disk.h"
#include "src/sim/kernel.h"
#include "src/sim/sync.h"
#include "src/workloads/cluster_clients.h"
#include "src/workloads/traffic.h"
#include "src/workloads/workloads.h"

namespace perfbench {
namespace {

// Counts the kernel's scheduling events and sums the simulated waits each
// one charges, per component.
class ChannelCounter : public osim::InterferenceSubscriber {
 public:
  void OnInterference(const osim::InterferenceEvent& e) override {
    switch (e.kind) {
      case osim::InterferenceKind::kPark:
        ++parks;
        break;
      case osim::InterferenceKind::kWakeup:
        wait[e.component] += e.cycles;
        break;
      case osim::InterferenceKind::kDispatch:
        ++dispatches;
        wait[osprof::kLayerRunQueue] += e.cycles;
        break;
      case osim::InterferenceKind::kMigrate:
        ++migrations;
        break;
      case osim::InterferenceKind::kPreempt:
        ++preemptions;
        break;
      case osim::InterferenceKind::kTimerTick:
        timer_ticks += e.count;
        break;
      case osim::InterferenceKind::kLockHandoff:
        wait[osprof::kLayerLockWait] += e.cycles;
        break;
    }
  }

  std::uint64_t parks = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t migrations = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t timer_ticks = 0;
  std::uint64_t wait[osprof::kNumLayerComponents] = {};
};

// MemoryStats walks every thread slot, so the Step loop samples it once
// per 2^14 events rather than per event.
constexpr std::uint64_t kMemorySampleMask = (std::uint64_t{1} << 14) - 1;

void SampleMemory(const osim::Kernel& kernel,
                  std::map<std::string, std::uint64_t>* peaks) {
  const osim::KernelMemoryStats mem = kernel.MemoryStats();
  auto raise = [peaks](const char* name, std::uint64_t value) {
    std::uint64_t& slot = (*peaks)[name];
    slot = std::max(slot, value);
  };
  raise("sim.mem.event_queue_bytes", mem.event_queue_bytes);
  raise("sim.mem.thread_bytes", mem.thread_bytes);
  raise("sim.mem.context_bytes", mem.context_bytes);
  raise("sim.mem.run_queue_bytes", mem.run_queue_bytes);
}

}  // namespace

Output SerializeOutput(
    const std::map<std::string, osprof::ProfileSet>& layers,
    const std::map<std::string, osprof::LayeredProfileSet>& layered) {
  Output out;
  for (const auto& [layer, set] : layers) {
    std::ostringstream os;
    set.Serialize(os);
    out[layer + ".prof"] = os.str();
  }
  if (!layered.empty()) {
    std::ostringstream os;
    osprof::SerializeLayers(layered, os);
    out["layers"] = os.str();
  }
  return out;
}

TracedTrial RunTracedTrial(const osrunner::Scenario& scenario, int trial,
                           Variant variant) {
  const osprof::WallTimer wall;
  const AllocCounts allocs_before = AllocSnapshot();
  TracedTrial result;
  const bool profile = variant != Variant::kNoProfiler;

  // The same construction sequence as osrunner::RunTrial, step for step:
  // every constructor that draws from the kernel RNG or spawns a thread
  // must run in the same order for the trial to be byte-identical.
  osim::KernelConfig kcfg = scenario.kernel;
  kcfg.seed = scenario.kernel.seed + static_cast<std::uint64_t>(trial);
  osim::Kernel kernel(kcfg);
  kernel.lock_order().set_enabled(true);
  const bool track_races =
      scenario.track_races && variant != Variant::kNoRaces;
  kernel.races().set_enabled(track_races);
  osim::SimDisk disk(&kernel, scenario.disk);
  osfs::Ext2SimFs fs(&kernel, &disk, scenario.fs);
  osprofilers::SimProfiler profiler(&kernel, scenario.profilers.resolution);
  std::vector<osprofilers::ProfilerSink*> sinks;
  double inputs_s = 0.0;

  // Long-lived workload state; must survive until the simulation finishes.
  std::optional<osnet::CifsMount> cifs;
  std::vector<osworkloads::GrepStats> grep_stats;
  osworkloads::TrafficStats traffic_stats;
  std::optional<osnet::Fabric> fabric;
  std::optional<osnet::Dlm> dlm;
  std::optional<osfs::ClusterVolume> cluster_volume;
  std::vector<std::unique_ptr<osfs::ClusterFsNode>> cluster_mounts;
  std::vector<osworkloads::ClusterClientStats> cluster_stats;
  int cluster_remaining = 0;
  std::optional<osim::WaitQueue> cluster_done;

  if (const auto* grep = std::get_if<osrunner::GrepSpec>(&scenario.workload)) {
    if (!grep->over_cifs) {
      throw std::invalid_argument("RunTracedTrial: grep must be over CIFS");
    }
    const osprof::WallTimer inputs;
    osworkloads::BuildSourceTree(&fs, grep->root, grep->tree);
    inputs_s = inputs.Seconds();
    cifs.emplace(&kernel, &fs, grep->cifs);
    if (scenario.profilers.fs && profile) {
      profiler.set_layer("cifs");
      cifs->SetProfiler(&profiler);
      sinks.push_back(&profiler);
    }
    grep_stats.resize(static_cast<std::size_t>(grep->processes));
    for (int p = 0; p < grep->processes; ++p) {
      kernel.Spawn("grep" + std::to_string(p),
                   osworkloads::GrepWorkload(
                       &kernel, &*cifs, grep->root, grep->per_byte_cpu,
                       &grep_stats[static_cast<std::size_t>(p)]));
    }
  } else if (const auto* traffic =
                 std::get_if<osrunner::TrafficSpec>(&scenario.workload)) {
    osworkloads::TrafficConfig tcfg = traffic->config;
    tcfg.seed += static_cast<std::uint64_t>(trial);
    const osprof::WallTimer inputs;
    osworkloads::CreateTrafficFiles(&fs, tcfg);
    inputs_s = inputs.Seconds();
    if (scenario.profilers.fs && profile) {
      fs.SetProfiler(&profiler);
      sinks.push_back(&profiler);
    }
    kernel.Spawn("traffic", osworkloads::OpenLoopTraffic(&kernel, &fs, tcfg,
                                                         &traffic_stats));
  } else if (const auto* cl =
                 std::get_if<osrunner::ClusterSpec>(&scenario.workload)) {
    if (kernel.num_nodes() != cl->nodes) {
      throw std::invalid_argument(
          "RunTracedTrial: ClusterSpec.nodes must match kernel.num_nodes");
    }
    fabric.emplace(&kernel, cl->net);
    dlm.emplace(&kernel, &*fabric, cl->dlm);
    cluster_volume.emplace(&kernel, &disk);
    const osprof::WallTimer inputs;
    std::size_t pos = 1;
    for (std::size_t slash = cl->path.find('/', pos);
         slash != std::string::npos; slash = cl->path.find('/', pos)) {
      cluster_volume->AddDir(cl->path.substr(0, slash));
      pos = slash + 1;
    }
    cluster_volume->AddFile(cl->path, cl->file_bytes);
    inputs_s = inputs.Seconds();
    const bool attach = scenario.profilers.fs && profile;
    if (attach) {
      profiler.set_layer("cluster");
      sinks.push_back(&profiler);
    }
    for (int n = 0; n < cl->nodes; ++n) {
      cluster_mounts.push_back(std::make_unique<osfs::ClusterFsNode>(
          &*cluster_volume, &*dlm, n, cl->cfs));
      if (attach) {
        cluster_mounts.back()->SetProfiler(&profiler);
      }
    }
    dlm->Start();
    cluster_remaining = cl->nodes * cl->clients_per_node;
    cluster_done.emplace(&kernel);
    cluster_stats.resize(static_cast<std::size_t>(cluster_remaining));
    for (int n = 0; n < cl->nodes; ++n) {
      for (int c = 0; c < cl->clients_per_node; ++c) {
        const int index = n * cl->clients_per_node + c;
        kernel.SpawnOn(
            n, "client" + std::to_string(n) + "." + std::to_string(c),
            osworkloads::ClusterClientWorkload(
                &kernel, cluster_mounts[static_cast<std::size_t>(n)].get(),
                cl->path, cl->iterations, cl->write_ratio, cl->io_bytes,
                cl->file_bytes, cl->think_cycles,
                kcfg.seed + 7'919u * static_cast<std::uint64_t>(index),
                &cluster_stats[static_cast<std::size_t>(index)],
                &cluster_remaining, &*cluster_done));
      }
    }
    kernel.Spawn("cluster_ctl",
                 osworkloads::ClusterControl(&kernel, &*dlm,
                                             &cluster_remaining,
                                             &*cluster_done));
  } else {
    throw std::invalid_argument("RunTracedTrial: unsupported workload");
  }
  if (scenario.profilers.per_cpu_shards) {
    profiler.EnableSharding(scenario.profilers.shard_epoch);
  }
  result.build_inputs_s = inputs_s;
  result.build_machine_s = wall.Seconds() - inputs_s;
  if (variant == Variant::kSetupOnly) {
    result.wall_s = wall.Seconds();
    return result;
  }

  ChannelCounter channel;
  kernel.channel().Subscribe(&channel);
  const osprof::WallTimer run;
  osim::EventQueue& events = kernel.events();
  std::uint64_t steps = 0;
  std::uint64_t depth_sum = 0;
  std::uint64_t depth_max = 0;
  while (kernel.live_threads() > 0) {
    const std::uint64_t depth = events.size();
    depth_sum += depth;
    depth_max = std::max(depth_max, depth);
    if (!events.Step()) {
      throw std::logic_error(
          "RunTracedTrial: event queue drained with live threads (deadlock "
          "in the simulated scenario)");
    }
    if ((++steps & kMemorySampleMask) == 0) {
      SampleMemory(kernel, &result.peaks);
    }
  }
  result.run_s = run.Seconds();
  SampleMemory(kernel, &result.peaks);
  kernel.channel().Unsubscribe(&channel);

  const osprof::WallTimer collect;
  std::map<std::string, osprof::ProfileSet> layers;
  std::map<std::string, osprof::LayeredProfileSet> layered;
  for (const osprofilers::ProfilerSink* sink : sinks) {
    osprofilers::Collected collected =
        sink->Collect(osprofilers::CollectRequest{});
    layers.emplace(sink->layer(), std::move(collected.profiles));
    if (collected.layered != nullptr && !collected.layered->empty()) {
      layered.emplace(sink->layer(), *collected.layered);
    }
  }
  result.collect_s = collect.Seconds();

  std::map<std::string, std::uint64_t>& c = result.counts;
  for (const auto& [layer, set] : layers) {
    c["profilers.ops_recorded"] += set.TotalOperations();
  }
  c["sim.events"] = steps;
  c["sim.queue_depth_sum"] = depth_sum;
  result.peaks["sim.queue_depth_max"] = depth_max;
  c["sim.cycles"] = kernel.now();
  c["sim.context_switches"] = kernel.context_switches();
  c["sim.dispatches"] = channel.dispatches;
  c["sim.migrations"] = channel.migrations;
  c["sim.preemptions"] = channel.preemptions;
  c["sim.timer_ticks"] = channel.timer_ticks;
  c["sim.parks"] = channel.parks;
  c["sim.threads_spawned"] = kernel.spawned_threads();
  c["sim.threads_reaped"] = kernel.reaped_threads();
  c["sim.wait_cycles.runq"] = channel.wait[osprof::kLayerRunQueue];
  c["sim.wait_cycles.lock"] = channel.wait[osprof::kLayerLockWait];
  c["sim.wait_cycles.driver"] = channel.wait[osprof::kLayerDriver];
  c["sim.wait_cycles.net"] = channel.wait[osprof::kLayerNet];
  c["sim.races.checks"] =
      track_races ? kernel.races().accesses_checked() : 0;
  // The getters below read race-checked cells; stop tracking so reading
  // them from host code adds no checks.
  kernel.races().set_enabled(false);
  c["sim.disk.requests"] = disk.requests_completed();
  c["sim.disk.cache_hits"] = disk.cache_hits();
  if (cluster_mounts.empty()) {
    c["fs.page_cache.hits"] = fs.page_cache().hits();
    c["fs.page_cache.misses"] = fs.page_cache().misses();
  }
  for (const auto& mount : cluster_mounts) {
    c["fs.page_cache.hits"] += mount->page_cache().hits();
    c["fs.page_cache.misses"] += mount->page_cache().misses();
    c["fs.cluster.pages_flushed"] += mount->pages_flushed();
    c["fs.cluster.invalidations"] += mount->invalidations();
  }
  if (dlm.has_value()) {
    c["net.dlm.acquires"] = dlm->acquires();
    c["net.dlm.cache_hits"] = dlm->cache_hits();
    c["net.dlm.basts"] = dlm->basts_sent();
    c["net.fabric.messages"] = fabric->messages_sent();
    c["net.fabric.bytes"] = fabric->bytes_sent();
  }
  if (cifs.has_value()) {
    c["net.cifs.server_requests"] = cifs->server_requests();
    c["net.cifs.delayed_ack_stalls"] = cifs->delayed_ack_stalls();
  }
  if (profiler.shards() != nullptr) {
    c["profilers.shard_flushes"] = profiler.shards()->flushes();
  }
  const AllocCounts allocs_after = AllocSnapshot();
  c["sim.heap_allocs"] = allocs_after.allocs - allocs_before.allocs;
  c["sim.heap_bytes"] = allocs_after.bytes - allocs_before.bytes;
  result.output = SerializeOutput(layers, layered);
  result.wall_s = wall.Seconds();
  return result;
}

}  // namespace perfbench
