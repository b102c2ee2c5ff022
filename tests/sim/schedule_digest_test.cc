// Pins the scheduler's exact event stream, independently of the goldens.
//
// An InterferenceSubscriber folds every (now, kind, thread, cpu, cycles)
// tuple the kernel emits into an FNV-1a digest.  Three machines are driven
// by deterministic session churn -- bursts in both modes, sleeps, yields,
// semaphore parks, child spawns, reaping -- and each digest and
// context_switches() is compared against the values the scheduler produced
// before its idle-CPU bookkeeping became a bitmask with one completion
// event per switch batch.  Any change to dispatch order, CPU placement or
// switch timing changes a digest.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/interference.h"
#include "src/sim/kernel.h"
#include "src/sim/sync.h"

namespace osim {
namespace {

class DigestRecorder : public InterferenceSubscriber {
 public:
  void OnInterference(const InterferenceEvent& e) override {
    Mix(e.now);
    Mix(static_cast<std::uint64_t>(e.kind));
    Mix(static_cast<std::uint64_t>(e.thread_id));
    Mix(static_cast<std::uint64_t>(e.cpu));
    Mix(e.cycles);
    ++events_;
    if (e.kind == InterferenceKind::kDispatch) {
      dispatches_.push_back({e.now, e.cpu});
    }
  }

  std::uint64_t digest() const { return digest_; }
  std::uint64_t events() const { return events_; }
  struct Dispatch {
    Cycles now;
    int cpu;
  };
  const std::vector<Dispatch>& dispatches() const { return dispatches_; }

 private:
  void Mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest_ ^= (v >> (8 * i)) & 0xffu;
      digest_ *= 0x100000001b3ull;
    }
  }

  std::uint64_t digest_ = 0xcbf29ce484222325ull;
  std::uint64_t events_ = 0;
  std::vector<Dispatch> dispatches_;
};

// A session: a handful of steps drawn from the kernel RNG, each a burst,
// a sleep, a yield or a pass through a contended semaphore; some sessions
// fork a child that does the same.
Task<void> Session(Kernel* k, SimSemaphore* sem, int depth) {
  const int steps = 3 + static_cast<int>(k->rng().Next() % 6);
  for (int s = 0; s < steps; ++s) {
    switch (k->rng().Next() % 5) {
      case 0:
        co_await k->Cpu(2'000 + k->rng().Next() % 400'000);
        break;
      case 1:
        co_await k->CpuUser(1'000 + k->rng().Next() % 900'000);
        break;
      case 2:
        co_await k->Sleep(5'000 + k->rng().Next() % 300'000);
        break;
      case 3:
        co_await k->Yield();
        break;
      default:
        co_await sem->Acquire();
        co_await k->Cpu(20'000 + k->rng().Next() % 50'000);
        sem->Release();
        break;
    }
    if (depth < 2 && k->rng().Next() % 7 == 0) {
      k->Spawn("child", Session(k, sem, depth + 1));
    }
  }
}

// Opens `sessions` sessions on its node, spaced by random think time.
Task<void> Opener(Kernel* k, SimSemaphore* sem, int sessions) {
  for (int i = 0; i < sessions; ++i) {
    k->Spawn("session", Session(k, sem, 0));
    co_await k->Sleep(k->rng().Next() % 120'000);
  }
}

KernelConfig ChurnConfig(int cpus, int nodes) {
  KernelConfig cfg;
  cfg.num_cpus = cpus;
  cfg.num_nodes = nodes;
  cfg.quantum = 600'000;  // Short, so bursts are preempted under load.
  cfg.timer_tick_period = 1'000'000;
  cfg.reap_finished = true;
  cfg.seed = 7;
  for (int c = 0; c < cpus; ++c) {
    cfg.tsc_skew.push_back((c % 3) * 50 - 50);
  }
  return cfg;
}

struct Outcome {
  std::uint64_t digest;
  std::uint64_t events;
  std::uint64_t context_switches;
};

Outcome RunChurn(int cpus, int nodes, int openers_per_node, int sessions) {
  Kernel k(ChurnConfig(cpus, nodes));
  DigestRecorder rec;
  k.channel().Subscribe(&rec);
  std::vector<std::unique_ptr<SimSemaphore>> sems;
  for (int n = 0; n < nodes; ++n) {
    sems.push_back(std::make_unique<SimSemaphore>(&k, 2, "pin_sem"));
    for (int o = 0; o < openers_per_node; ++o) {
      k.SpawnOn(n, "opener", Opener(&k, sems.back().get(), sessions));
    }
  }
  k.RunUntilThreadsFinish();
  return {rec.digest(), rec.events(), k.context_switches()};
}

TEST(ScheduleDigest, EightCpusWithSessionChurn) {
  const Outcome o = RunChurn(8, 1, 3, 120);
  EXPECT_EQ(o.digest, 14525558872239381556ull);
  EXPECT_EQ(o.events, 7734u);
  EXPECT_EQ(o.context_switches, 3856u);
}

TEST(ScheduleDigest, TwoNodesOfFourCpus) {
  const Outcome o = RunChurn(8, 2, 2, 90);
  EXPECT_EQ(o.digest, 6930199685165923576ull);
  EXPECT_EQ(o.events, 7774u);
  EXPECT_EQ(o.context_switches, 4106u);
}

// 130 CPUs on one node span three 64-CPU mask words, the last one
// holding two CPUs.
TEST(ScheduleDigest, OneNodeOf130Cpus) {
  const Outcome o = RunChurn(130, 1, 40, 30);
  EXPECT_EQ(o.digest, 2423205940852492817ull);
  EXPECT_EQ(o.events, 36339u);
  EXPECT_EQ(o.context_switches, 381574u);
}

Task<void> Burn(Kernel* k, Cycles cycles) { co_await k->Cpu(cycles); }

// The first batch of a 130-CPU node covers every CPU in ascending order:
// the first dispatch is CPU 0 and none above 63 is skipped.
TEST(ScheduleDigest, WideNodeDispatchesEveryCpuInOrder) {
  KernelConfig cfg;
  cfg.num_cpus = 130;
  cfg.timer_tick_period = 0;
  Kernel k(cfg);
  DigestRecorder rec;
  k.channel().Subscribe(&rec);
  for (int i = 0; i < 140; ++i) {
    k.Spawn("burn", Burn(&k, 1'000'000));
  }
  k.RunUntilThreadsFinish();
  const auto& d = rec.dispatches();
  ASSERT_EQ(d.size(), 140u);
  for (int c = 0; c < 130; ++c) {
    EXPECT_EQ(d[static_cast<std::size_t>(c)].cpu, c);
    EXPECT_EQ(d[static_cast<std::size_t>(c)].now, cfg.context_switch_cost);
  }
  // The ten left over run on the first CPUs to finish, again ascending.
  for (int i = 130; i < 140; ++i) {
    EXPECT_EQ(d[static_cast<std::size_t>(i)].cpu, i - 130);
  }
  // The ten queued threads leave the run queue only when their switches
  // complete, so all 130 exits at 1M cycles start a switch, and 120 of
  // those find the queue drained.
  EXPECT_EQ(k.context_switches(), 260u);
}

}  // namespace
}  // namespace osim
