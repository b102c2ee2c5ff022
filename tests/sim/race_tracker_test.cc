// SimRace unit tests: the FastTrack-style happens-before engine over
// simulated tasks.  Each test builds a tiny kernel, runs coroutines that
// touch a Shared<T> cell across await points, and asserts on the deduped
// report set -- true positives for unsynchronized cross-await protocols,
// zero reports when a spawn edge, lock hand-off, exit-to-root join, or
// adopted causality token orders the accesses -- and that recycling the
// clock slots of exited tasks changes none of those answers.

#include "src/sim/race_tracker.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/kernel.h"
#include "src/sim/sync.h"

namespace osim {
namespace {

KernelConfig QuietConfig(int cpus = 2) {
  KernelConfig cfg;
  cfg.num_cpus = cpus;
  cfg.context_switch_cost = 0;
  cfg.timer_tick_period = 0;
  cfg.seed = 7;
  return cfg;
}

// The canonical racy protocol: read, await, write-back.  The await is the
// point where another task's turn can interleave.
Task<void> RacyIncrement(Kernel* k, Shared<std::uint64_t>* cell, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    const std::uint64_t seen = OSIM_SHARED_RO(*cell);
    co_await k->Cpu(1'000);
    OSIM_SHARED_RW(*cell) = seen + 1;
    co_await k->Sleep(500);
  }
}

// The same protocol with the read-modify-write under a semaphore: the
// release->acquire clock hand-off must order every pair of accesses.
Task<void> LockedIncrement(Kernel* k, Shared<std::uint64_t>* cell,
                           SimSemaphore* lock, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await lock->Acquire();
    const std::uint64_t seen = OSIM_SHARED_RO(*cell);
    co_await k->Cpu(1'000);
    OSIM_SHARED_RW(*cell) = seen + 1;
    lock->Release();
    co_await k->Sleep(500);
  }
}

Task<void> WriteOnce(Shared<std::uint64_t>* cell, std::uint64_t value) {
  OSIM_SHARED_RW(*cell) = value;
  co_return;
}

Task<void> ReadOnce(Shared<std::uint64_t>* cell, std::uint64_t* out) {
  *out = OSIM_SHARED_RO(*cell);
  co_return;
}

// Writes the cell, exports a causality token, then parks -- the simulated
// analogue of a task that issued an async request and is waiting on it.
Task<void> WriteCaptureAndPark(Kernel* k, Shared<std::uint64_t>* cell,
                               RaceClock* token) {
  OSIM_SHARED_RW(*cell) = 42;
  *token = k->races().Capture();
  co_await k->Sleep(1'000'000);
}

bool AnyReportMentions(const std::vector<std::string>& reports,
                       const std::string& needle) {
  for (const std::string& report : reports) {
    if (report.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(RaceTracker, DisabledTrackerIsInert) {
  Kernel k(QuietConfig());
  ASSERT_FALSE(k.races().enabled());
  Shared<std::uint64_t> cell(k, "inert.cell");
  k.Spawn("a", RacyIncrement(&k, &cell, 3));
  k.Spawn("b", RacyIncrement(&k, &cell, 3));
  k.RunUntilThreadsFinish();
  EXPECT_FALSE(k.races().RacesFound());
  EXPECT_EQ(k.races().accesses_checked(), 0u);
  EXPECT_EQ(k.races().cells_tracked(), 0u);
  EXPECT_TRUE(k.races().Capture().empty());
  EXPECT_EQ(k.MemoryStats().race_clock_bytes, 0u);
}

TEST(RaceTracker, UnsynchronizedCrossAwaitIncrementRaces) {
  Kernel k(QuietConfig());
  k.races().set_enabled(true);
  Shared<std::uint64_t> cell(k, "counter.cell");
  k.Spawn("a", RacyIncrement(&k, &cell, 2));
  k.Spawn("b", RacyIncrement(&k, &cell, 2));
  k.RunUntilThreadsFinish();

  const std::vector<std::string> reports = k.races().ReportDescriptions();
  ASSERT_TRUE(k.races().RacesFound());
  // Every report names the cell and the access site; with no profiler
  // attached the op annotation degrades to "(no op)".
  for (const std::string& report : reports) {
    EXPECT_NE(report.find("counter.cell@RacyIncrement"), std::string::npos)
        << report;
    EXPECT_NE(report.find("(no op)"), std::string::npos) << report;
  }
  // The racy loop repeats, but the (site, op) dedupe key collapses the
  // repetitions: far fewer reports than racy access pairs.
  EXPECT_GE(k.races().racy_accesses(), k.races().report_count());
  EXPECT_GT(k.races().accesses_checked(), 0u);
  EXPECT_EQ(k.races().cells_tracked(), 1u);
}

TEST(RaceTracker, SemaphoreHandoffOrdersTheSameProtocol) {
  Kernel k(QuietConfig());
  k.races().set_enabled(true);
  Shared<std::uint64_t> cell(k, "locked.cell");
  SimSemaphore lock(&k, 1, "cell_lock");
  k.Spawn("a", LockedIncrement(&k, &cell, &lock, 3));
  k.Spawn("b", LockedIncrement(&k, &cell, &lock, 3));
  k.RunUntilThreadsFinish();
  EXPECT_FALSE(k.races().RacesFound())
      << k.races().ReportDescriptions().front();
  EXPECT_GT(k.races().accesses_checked(), 0u);
}

// A spawn edge orders the parent's *prior* accesses before the child, but
// deliberately not the parent's later ones (the spawn is a send).
Task<void> SpawnThenWriteAgain(Kernel* k, Shared<std::uint64_t>* cell,
                               std::uint64_t* child_saw) {
  OSIM_SHARED_RW(*cell) = 1;  // Ordered before the child via the spawn.
  k->Spawn("child", ReadOnce(cell, child_saw));
  co_await k->Cpu(10'000);
  OSIM_SHARED_RW(*cell) = 2;  // Concurrent with the child's read.
}

TEST(RaceTracker, SpawnOrdersPriorWorkButNotLaterWork) {
  Kernel k(QuietConfig());
  k.races().set_enabled(true);
  Shared<std::uint64_t> cell(k, "spawn.cell");
  std::uint64_t child_saw = 0;
  k.Spawn("parent", SpawnThenWriteAgain(&k, &cell, &child_saw));
  k.RunUntilThreadsFinish();

  const std::vector<std::string> reports = k.races().ReportDescriptions();
  // Exactly one deduped race: the child's read against the parent's
  // post-spawn write.  The pre-spawn write is happens-before ordered.
  ASSERT_EQ(reports.size(), 1u) << (reports.empty() ? "" : reports[0]);
  EXPECT_TRUE(AnyReportMentions(reports, "read spawn.cell@ReadOnce"));
  EXPECT_TRUE(
      AnyReportMentions(reports, "write spawn.cell@SpawnThenWriteAgain"));
}

TEST(RaceTracker, ExitJoinsRootSoSequentialPhasesAreOrdered) {
  Kernel k(QuietConfig());
  k.races().set_enabled(true);
  Shared<std::uint64_t> cell(k, "phase.cell");
  k.Spawn("writer", WriteOnce(&cell, 7));
  k.RunUntilThreadsFinish();
  // The writer exited, so its history lives in the root clock: a task
  // spawned from host context afterwards is ordered after it.
  std::uint64_t saw = 0;
  k.Spawn("reader", ReadOnce(&cell, &saw));
  k.RunUntilThreadsFinish();
  EXPECT_EQ(saw, 7u);
  EXPECT_FALSE(k.races().RacesFound())
      << k.races().ReportDescriptions().front();
}

TEST(RaceTracker, HostSpawnWithoutTokenRacesAgainstParkedWriter) {
  Kernel k(QuietConfig());
  k.races().set_enabled(true);
  Shared<std::uint64_t> cell(k, "token.cell");
  RaceClock token;
  k.Spawn("writer", WriteCaptureAndPark(&k, &cell, &token));
  k.RunUntil(10'000);  // Writer has written and parked, not exited.
  ASSERT_FALSE(token.empty());

  // No token adopted: the host-context spawn joins only the (empty)
  // root clock, so the reader appears causally detached from the writer.
  std::uint64_t saw = 0;
  k.Spawn("reader", ReadOnce(&cell, &saw));
  k.RunUntilThreadsFinish();
  EXPECT_TRUE(k.races().RacesFound());
  EXPECT_TRUE(AnyReportMentions(k.races().ReportDescriptions(),
                                "write token.cell@WriteCaptureAndPark"));
}

TEST(RaceTracker, AdoptedTokenOrdersCompletionWork) {
  Kernel k(QuietConfig());
  k.races().set_enabled(true);
  Shared<std::uint64_t> cell(k, "token.cell");
  RaceClock token;
  k.Spawn("writer", WriteCaptureAndPark(&k, &cell, &token));
  k.RunUntil(10'000);
  ASSERT_FALSE(token.empty());

  // The disk/net completion pattern: adopt the submitter's captured
  // history around the callback, and everything spawned inside inherits
  // it -- the reader is now ordered after the parked writer's write.
  k.races().Adopt(token);
  std::uint64_t saw = 0;
  k.Spawn("reader", ReadOnce(&cell, &saw));
  k.races().Drop();
  k.RunUntilThreadsFinish();
  EXPECT_EQ(saw, 42u);
  EXPECT_FALSE(k.races().RacesFound())
      << k.races().ReportDescriptions().front();
}

TEST(RaceTracker, ResetClearsStateAndInvalidatesCellsLazily) {
  Kernel k(QuietConfig());
  k.races().set_enabled(true);
  Shared<std::uint64_t> cell(k, "reset.cell");
  k.Spawn("a", RacyIncrement(&k, &cell, 2));
  k.Spawn("b", RacyIncrement(&k, &cell, 2));
  k.RunUntilThreadsFinish();
  ASSERT_TRUE(k.races().RacesFound());

  k.races().Reset();
  EXPECT_FALSE(k.races().RacesFound());
  EXPECT_EQ(k.races().report_count(), 0u);
  EXPECT_EQ(k.races().racy_accesses(), 0u);
  EXPECT_EQ(k.races().accesses_checked(), 0u);
  EXPECT_EQ(k.races().cells_tracked(), 0u);
  EXPECT_TRUE(k.races().enabled()) << "Reset must not flip the enable bit";

  // The same cell is usable after Reset: the generation bump clears its
  // stale epochs on next touch, and an ordered access stays silent.
  std::uint64_t saw = 0;
  k.Spawn("writer", WriteOnce(&cell, 9));
  k.RunUntilThreadsFinish();
  k.Spawn("reader", ReadOnce(&cell, &saw));
  k.RunUntilThreadsFinish();
  EXPECT_EQ(saw, 9u);
  EXPECT_FALSE(k.races().RacesFound())
      << k.races().ReportDescriptions().front();
  EXPECT_EQ(k.races().cells_tracked(), 1u);
}

// Clock slots of exited tasks are recycled only when the reuse cannot
// change an ordering answer.

Task<void> BurnThenSpawnWriter(Kernel* k, Shared<std::uint64_t>* cell) {
  co_await k->Cpu(10'000);  // A burst: no wakeup, so no root-clock join.
  k->Spawn("child", WriteOnce(cell, 2));
}

TEST(RaceTracker, TaskSpawnNotOrderedAfterExitTakesFreshSlot) {
  Kernel k(QuietConfig());
  k.races().set_enabled(true);
  Shared<std::uint64_t> cell(k, "reuse.cell");
  // The parent starts before the writer exits and never synchronizes
  // with it, so the child it spawns is concurrent with the writer.
  // Handing the child the writer's slot would make the two writes look
  // program-ordered.
  k.Spawn("parent", BurnThenSpawnWriter(&k, &cell));
  k.Spawn("writer", WriteOnce(&cell, 1));
  k.RunUntilThreadsFinish();
  const std::vector<std::string> reports = k.races().ReportDescriptions();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(AnyReportMentions(reports, "write reuse.cell@WriteOnce"));
}

Task<void> SleepThenWrite(Kernel* k, Shared<std::uint64_t>* cell) {
  co_await k->Sleep(100'000);
  OSIM_SHARED_RW(*cell) = 3;
}

Task<void> WriteThenSleep(Kernel* k, Shared<std::uint64_t>* cell) {
  OSIM_SHARED_RW(*cell) = 4;
  co_await k->Sleep(1'000'000);
}

Task<void> ExitAtOnce() { co_return; }

TEST(RaceTracker, ReusedSlotEpochOutrunsPreviousOwner) {
  Kernel k(QuietConfig());
  k.races().set_enabled(true);
  Shared<std::uint64_t> cell(k, "epoch.cell");
  k.Spawn("owner", ExitAtOnce());
  k.Spawn("sleeper", SleepThenWrite(&k, &cell));
  k.RunUntil(10'000);  // The owner has exited; the sleeper sleeps.
  // The successor is spawned from host context after the owner's exit,
  // so it takes over the owner's slot.  The sleeper's timer wake joins
  // the root clock -- the owner's history, not the live successor's --
  // so the successor's write must stay unordered before the sleeper's.
  k.Spawn("successor", WriteThenSleep(&k, &cell));
  k.RunUntilThreadsFinish();
  const std::vector<std::string> reports = k.races().ReportDescriptions();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(AnyReportMentions(reports, "write epoch.cell@WriteThenSleep"));
  EXPECT_TRUE(AnyReportMentions(reports, "write epoch.cell@SleepThenWrite"));
}

TEST(RaceTracker, HostSpawnsAfterExitsReuseSlots) {
  KernelConfig cfg = QuietConfig();
  cfg.reap_finished = true;
  Kernel k(cfg);
  k.races().set_enabled(true);
  Shared<std::uint64_t> cell(k, "sequential.cell");
  constexpr int kTasks = 10'000;
  std::size_t early_bytes = 0;
  for (int i = 0; i < kTasks; ++i) {
    k.Spawn("task", WriteOnce(&cell, static_cast<std::uint64_t>(i)));
    k.RunUntilThreadsFinish();
    if (i == 9) {
      early_bytes = k.MemoryStats().race_clock_bytes;
    }
  }
  EXPECT_FALSE(k.races().RacesFound())
      << k.races().ReportDescriptions().front();
  EXPECT_EQ(k.races().accesses_checked(), static_cast<std::uint64_t>(kTasks));
  // Each task's exit joins the root clock that the next spawn starts
  // from, so every task reuses the one slot: the clocks held after
  // 10,000 tasks are those held after 10.
  EXPECT_GT(early_bytes, 0u);
  EXPECT_EQ(k.MemoryStats().race_clock_bytes, early_bytes);
}

TEST(RaceTracker, KernelContextAccessesAreExempt) {
  Kernel k(QuietConfig());
  k.races().set_enabled(true);
  Shared<std::uint64_t> cell(k, "host.cell");
  // Host-side setup and introspection (mkfs-style code) run with no
  // current task: never checked, never reported.
  OSIM_SHARED_RW(cell) = 5;
  EXPECT_EQ(OSIM_SHARED_RO(cell), 5u);
  EXPECT_EQ(k.races().accesses_checked(), 0u);
  EXPECT_EQ(k.races().cells_tracked(), 0u);
  EXPECT_FALSE(k.races().RacesFound());
}

}  // namespace
}  // namespace osim
