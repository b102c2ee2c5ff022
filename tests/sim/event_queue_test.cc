#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

namespace osim {
namespace {

TEST(EventQueue, RunsEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.At(30, [&] { order.push_back(3); });
  q.At(10, [&] { order.push_back(1); });
  q.At(20, [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTimestampRunsInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.At(5, [&order, i] { order.push_back(i); });
  }
  q.RunAll();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueue, EventsScheduleMoreEvents) {
  EventQueue q;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) {
      q.After(10, chain);
    }
  };
  q.After(10, chain);
  q.RunAll();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(q.now(), 50u);
}

TEST(EventQueue, NowSchedulesAfterPendingSameTimeEvents) {
  EventQueue q;
  std::vector<int> order;
  q.At(10, [&] {
    order.push_back(1);
    q.Now([&] { order.push_back(3); });
  });
  q.At(10, [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, RunUntilStopsAtBoundaryAndAdvancesClock) {
  EventQueue q;
  int fired = 0;
  q.At(10, [&] { ++fired; });
  q.At(100, [&] { ++fired; });
  const std::uint64_t n = q.RunUntil(50);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 50u);
  q.RunAll();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunUntilIncludesBoundaryEvents) {
  EventQueue q;
  int fired = 0;
  q.At(50, [&] { ++fired; });
  q.RunUntil(50);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, SchedulingIntoThePastThrows) {
  EventQueue q;
  q.At(100, [] {});
  q.RunAll();
  EXPECT_THROW(q.At(50, [] {}), std::logic_error);
}

// The event queue must be observationally identical to the
// std::priority_queue scheduler the simulator started with: ascending
// `when`, ties in ascending insertion order.  A reference model with
// exactly that comparator runs in lockstep over a million randomly seeded
// events -- timestamps drawn across twenty binary orders of magnitude (so
// the radix buckets see dense ties, sparse far-future stretches, and
// everything between), plus follow-up events scheduled mid-run the way
// simulated threads schedule wakeups.
//
// The run is driven two ways: by RunAll, and in part by RunUntil slices at
// random boundaries.  A slice that stops short of the next pending event
// leaves now() at the boundary, and events scheduled in [boundary, next)
// are legal there; RunUntil's peek must not have advanced the queue's
// internal ordering base past them.
TEST(EventQueue, MatchesReferencePriorityQueueOnRandomLoad) {
  struct Ref {
    Cycles when;
    std::uint64_t seq;
  };
  struct LaterFirst {
    bool operator()(const Ref& a, const Ref& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };
  constexpr int kInitialEvents = 1'000'000;
  constexpr int kFollowUps = 200'000;
  constexpr int kSlices = 5'000;

  for (const bool sliced : {false, true}) {
    SCOPED_TRACE(sliced ? "RunUntil slices, then RunAll" : "RunAll");
    std::priority_queue<Ref, std::vector<Ref>, LaterFirst> ref;
    EventQueue q;
    std::uint64_t state = 0x9e3779b97f4a7c15ull;  // Deterministic LCG.
    const auto next_random = [&state] {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      return state >> 33;
    };
    std::uint64_t seq = 0;
    std::uint64_t executed = 0;
    std::uint64_t mismatches = 0;
    int follow_ups_left = kFollowUps;

    std::function<void(Cycles)> schedule = [&](Cycles when) {
      const std::uint64_t id = seq++;
      ref.push(Ref{when, id});
      q.At(when, [&, when, id] {
        if (ref.empty() || ref.top().when != when || ref.top().seq != id) {
          ++mismatches;
        } else {
          ref.pop();
        }
        ++executed;
        if (follow_ups_left > 0 && (id & 3u) == 0) {
          --follow_ups_left;
          // Mixed-magnitude gap, sometimes exactly zero: a same-timestamp
          // follow-up must still run after everything already queued for
          // `now`.
          const Cycles gap =
              (id & 31u) == 0
                  ? 0
                  : next_random() & ((1ull << (8 + id % 21)) - 1);
          schedule(q.now() + gap);
        }
      });
    };

    // Times come from a random walk of mixed-magnitude gaps: zero gaps
    // make exact ties, small gaps make dense micro-bursts, 2^20-cycle
    // jumps make sparse stretches -- the local-density shape a simulated
    // kernel produces, at every magnitude.  The walk is then inserted in
    // LCG-shuffled order so arrival order and time order are unrelated.
    std::vector<Cycles> times(kInitialEvents);
    Cycles t = 0;
    for (int i = 0; i < kInitialEvents; ++i) {
      t += next_random() & ((Cycles{1} << (i % 21)) - 1);
      times[static_cast<std::size_t>(i)] = t;
    }
    for (std::size_t i = times.size() - 1; i > 0; --i) {
      std::swap(times[i], times[next_random() % (i + 1)]);
    }
    for (const Cycles when : times) {
      schedule(when);
    }
    std::uint64_t stopped_short = 0;
    for (int slice = 0; sliced && slice < kSlices && !q.empty(); ++slice) {
      const Cycles until =
          q.now() + (next_random() & ((Cycles{1} << (next_random() % 28)) - 1));
      q.RunUntil(until);
      EXPECT_EQ(q.now(), until);
      if (ref.empty()) {
        continue;
      }
      const Cycles next = ref.top().when;
      ASSERT_GT(next, until) << "RunUntil left a due event pending";
      ++stopped_short;
      schedule(until);
      for (int k = 0; k < 3; ++k) {
        schedule(until + next_random() % (next - until));
      }
    }
    q.RunAll();

    EXPECT_EQ(executed, seq);
    EXPECT_GE(seq, static_cast<std::uint64_t>(kInitialEvents) + kFollowUps);
    EXPECT_TRUE(ref.empty());
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(stopped_short > 0, sliced);
  }
}

TEST(EventQueue, MillionSameTimestampEventsExtractLinearly) {
  // A million events on one timestamp all land in one bucket however the
  // queue indexes time, so a queue that scans a bucket per extraction
  // degenerates to ~10^12 comparisons here.  This must finish well inside
  // the quick-tier timeout -- while preserving exact insertion order
  // across the pileup and correct ordering for events scheduled after it.
  constexpr std::uint64_t kEvents = 1'000'000;
  constexpr Cycles kWhen = 123'456;

  EventQueue q;
  std::uint64_t executed = 0;
  std::uint64_t out_of_order = 0;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    q.At(kWhen, [&executed, &out_of_order, i] {
      if (executed != i) {
        ++out_of_order;
      }
      ++executed;
    });
  }
  // A straggler far after the pileup, in a much higher bucket.
  bool straggler_ran = false;
  q.At(kWhen + (Cycles{1} << 40), [&] {
    straggler_ran = executed == kEvents;
  });
  q.RunAll();

  EXPECT_EQ(executed, kEvents);
  EXPECT_EQ(out_of_order, 0u);
  EXPECT_TRUE(straggler_ran);
}

TEST(EventQueue, StepReturnsFalseWhenEmpty) {
  EventQueue q;
  EXPECT_FALSE(q.Step());
  q.At(1, [] {});
  EXPECT_TRUE(q.Step());
  EXPECT_FALSE(q.Step());
}

TEST(EventQueue, MoveOnlyClosureRunsOnce) {
  EventQueue q;
  int runs = 0;
  auto one = std::make_unique<int>(1);
  q.At(5, [&runs, one = std::move(one)] { runs += *one; });
  q.RunAll();
  EXPECT_EQ(runs, 1);
}

// Counts destructions of the closure's capture, copies included, so the
// test sees both "destroyed" and "destroyed twice".
struct DestructionCounter {
  int* destroyed;
  std::array<char, 32> padding{};  // Too big to store inline.
  explicit DestructionCounter(int* d) : destroyed(d) {}
  DestructionCounter(const DestructionCounter&) = delete;
  DestructionCounter(DestructionCounter&& other) noexcept
      : destroyed(std::exchange(other.destroyed, nullptr)) {}
  ~DestructionCounter() {
    if (destroyed != nullptr) {
      ++*destroyed;
    }
  }
};

TEST(EventQueue, PendingBoxedClosuresAreDestroyedOnceWithTheQueue) {
  int destroyed = 0;
  int ran = 0;
  {
    EventQueue q;
    for (Cycles when : {Cycles{1}, Cycles{1}, Cycles{1000}, Cycles{1} << 40}) {
      q.At(when, [&ran, c = DestructionCounter(&destroyed)] { ++ran; });
    }
    q.RunUntil(1);  // The two at t=1 run; the other two stay pending.
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(destroyed, 2);
  }
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(destroyed, 4);
}

TEST(EventQueue, SameTimestampFifoAcrossInlineAndBoxedEvents) {
  EventQueue q;
  std::vector<int> order;
  const std::string tag = "boxed";  // A std::string capture is boxed.
  for (int i = 0; i < 12; ++i) {
    if (i % 3 == 0) {
      q.At(7, [&order, i, tag] { order.push_back(tag == "boxed" ? i : -100); });
    } else {
      q.At(7, [&order, i] { order.push_back(i); });
    }
  }
  // Drive the queue through a refill so the batch is redistributed.
  q.At(3, [&order, &q] {
    order.push_back(-1);
    q.Now([&order] { order.push_back(-2); });
  });
  q.RunAll();
  std::vector<int> want = {-1, -2};
  for (int i = 0; i < 12; ++i) {
    want.push_back(i);
  }
  EXPECT_EQ(order, want);
}

}  // namespace
}  // namespace osim
