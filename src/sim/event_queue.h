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
//
// An event is a plain 32-byte record the heap moves with memcpy: its time,
// a handler function pointer and 16 bytes of closure storage.  A trivially
// copyable closure that fits (the scheduler's `[this, t]`-style captures)
// lives in that storage; any other closure is boxed on the heap once, at
// At(), and the storage holds the box pointer.  Moving an event between
// buckets therefore never touches the closure.

#ifndef OSPROF_SRC_SIM_EVENT_QUEUE_H_
#define OSPROF_SRC_SIM_EVENT_QUEUE_H_

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/clock.h"

namespace osim {

using osprof::Cycles;

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  // Destroys the closures of events that never ran.
  ~EventQueue();

  Cycles now() const { return now_; }

  // Schedules `action` (any void() callable, move-only ones included) to
  // run at absolute time `when` (>= now).
  template <typename F>
  void At(Cycles when, F&& action) {
    CheckNotPast(when);
    Place(Event::Make(when, std::forward<F>(action)));
    ++size_;
  }

  // Schedules `action` to run `delay` cycles from now.
  template <typename F>
  void After(Cycles delay, F&& action) {
    At(now_ + delay, std::forward<F>(action));
  }

  // Schedules `action` at the current time, after already-queued
  // same-timestamp events.
  template <typename F>
  void Now(F&& action) {
    At(now_, std::forward<F>(action));
  }

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
  // included.  Boxed closures (those that do not fit an event's inline
  // storage) are not counted.
  std::size_t ApproxBytes() const {
    std::size_t bytes = 0;
    for (const auto& bucket : buckets_) {
      bytes += bucket.capacity() * sizeof(Event);
    }
    return bytes;
  }

 private:
  struct Event {
    static constexpr std::size_t kInlineBytes = 16;
    // Runs the stored closure (run = true) and releases it; with
    // run = false only releases it.
    using Handler = void (*)(Event& event, bool run);

    Cycles when;
    Handler handler;
    alignas(8) unsigned char storage[kInlineBytes];

    template <typename F>
    static Event Make(Cycles when, F&& action) {
      using Fn = std::decay_t<F>;
      Event e{};
      e.when = when;
      if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= 8 &&
                    std::is_trivially_copyable_v<Fn>) {
        // Trivially copyable: the event's memcpy moves are valid copies,
        // and there is nothing to destroy.
        ::new (static_cast<void*>(e.storage)) Fn(std::forward<F>(action));
        e.handler = [](Event& self, bool run) {
          if (run) {
            (*std::launder(reinterpret_cast<Fn*>(self.storage)))();
          }
        };
      } else {
        Fn* box = new Fn(std::forward<F>(action));
        std::memcpy(e.storage, &box, sizeof(box));
        e.handler = [](Event& self, bool run) {
          Fn* raw = nullptr;
          std::memcpy(&raw, self.storage, sizeof(raw));
          const std::unique_ptr<Fn> owned(raw);
          if (run) {
            (*owned)();
          }
        };
      }
      return e;
    }
  };
  static_assert(std::is_trivially_copyable_v<Event>);

  void CheckNotPast(Cycles when) const;
  // Appends to the bucket of `event.when` relative to `last_`.
  void Place(const Event& event);
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
