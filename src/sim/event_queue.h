// The discrete-event engine driving the simulated OS.
//
// Time is measured in CPU cycles of the simulated machine (1.7 GHz by
// default, matching the paper's hardware).  Events at equal timestamps run
// in insertion order, which keeps the simulation deterministic.
//
// The scheduler is a radix heap (Ahuja, Mehlhorn, Orlin & Tarjan, JACM
// 1990), exact because At() rejects the past, so extracted times are
// monotone.  Bucket 0 holds the events at `last_`, the last extracted
// time, read FIFO from a head index; bucket i > 0 holds those with
// bit_width(when ^ last_) == i.  A drained bucket 0 is refilled by
// redistributing the lowest non-empty bucket around its minimum, moving
// each event to a strictly lower bucket (so at most 64 times).  Buckets are
// append-only and redistribution is stable, so same-timestamp events keep
// insertion order without a sequence number.

#ifndef OSPROF_SRC_SIM_EVENT_QUEUE_H_
#define OSPROF_SRC_SIM_EVENT_QUEUE_H_

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/core/clock.h"

namespace osim {

using osprof::Cycles;

class EventQueue {
 public:
  using Action = std::function<void()>;

  Cycles now() const { return now_; }

  // Schedules `action` to run at absolute time `when` (>= now).
  void At(Cycles when, Action action);

  // Schedules `action` to run `delay` cycles from now.
  void After(Cycles delay, Action action) { At(now_ + delay, std::move(action)); }

  // Schedules `action` at the current time, after already-queued
  // same-timestamp events.
  void Now(Action action) { At(now_, std::move(action)); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  // Runs the next event, advancing time.  Returns false if none remain.
  bool Step();

  // Runs events until the queue is empty or time would exceed `until`.
  // Returns the number of events executed.
  std::uint64_t RunUntil(Cycles until);

  // Runs events until the queue drains.
  std::uint64_t RunAll();

  // Approximate heap footprint: the bucket arrays, consumed bucket-0 slots
  // included (std::function targets are counted at their inline size).
  std::size_t ApproxBytes() const {
    std::size_t bytes = 0;
    for (const auto& bucket : buckets_) {
      bytes += bucket.capacity() * sizeof(Event);
    }
    return bytes;
  }

 private:
  struct Event {
    Cycles when;
    Action action;
  };

  // Appends to the bucket of `when` relative to `last_`.
  void Place(Cycles when, Action&& action);
  // The lowest non-empty bucket above 0; requires `occupied_ != 0`.
  std::vector<Event>& LowestBucket() {
    return buckets_[std::countr_zero(occupied_) + 1];
  }
  // Time of the next event, leaving `last_` alone.  Requires size_ > 0.
  Cycles PeekTime();
  // Refills the drained bucket 0 from the lowest non-empty bucket.
  void Refill();

  Cycles now_ = 0;
  // Base of the radix order.  Invariant: last_ <= now_, so any legal At()
  // has `when >= last_`: RunUntil must not advance it past unrun events.
  Cycles last_ = 0;
  std::size_t size_ = 0;
  std::size_t head_ = 0;        // Next unread event in buckets_[0].
  std::uint64_t occupied_ = 0;  // Bit i-1 set iff bucket i > 0 non-empty.
  std::array<std::vector<Event>, 65> buckets_;
};

}  // namespace osim

#endif  // OSPROF_SRC_SIM_EVENT_QUEUE_H_
