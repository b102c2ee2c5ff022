#include "src/sim/event_queue.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace osim {

void EventQueue::At(Cycles when, Action action) {
  if (when < now_) {
    throw std::logic_error("EventQueue: scheduling into the past");
  }
  Place(when, std::move(action));
  ++size_;
}

void EventQueue::Place(Cycles when, Action&& action) {
  const int b = std::bit_width(when ^ last_);
  buckets_[b].push_back(Event{when, std::move(action)});
  if (b > 0) {
    occupied_ |= std::uint64_t{1} << (b - 1);
  }
}

Cycles EventQueue::PeekTime() {
  if (head_ < buckets_[0].size()) {
    return last_;
  }
  Cycles min = ~Cycles{0};
  for (const Event& e : LowestBucket()) {
    min = std::min(min, e.when);
  }
  return min;
}

void EventQueue::Refill() {
  buckets_[0].clear();
  head_ = 0;
  last_ = PeekTime();
  std::vector<Event>& bucket = LowestBucket();
  occupied_ &= occupied_ - 1;
  // Every event lands in a lower bucket, so `bucket` is not appended to.
  for (Event& e : bucket) {
    Place(e.when, std::move(e.action));
  }
  bucket.clear();
}

bool EventQueue::Step() {
  if (size_ == 0) {
    return false;
  }
  if (head_ == buckets_[0].size()) {
    Refill();
  }
  // Move the event out first: its action may append to bucket 0.
  Event event = std::move(buckets_[0][head_++]);
  --size_;
  now_ = event.when;
  event.action();
  return true;
}

std::uint64_t EventQueue::RunUntil(Cycles until) {
  std::uint64_t executed = 0;
  while (size_ > 0 && PeekTime() <= until) {
    Step();
    ++executed;
  }
  now_ = std::max(now_, until);
  return executed;
}

std::uint64_t EventQueue::RunAll() {
  std::uint64_t executed = 0;
  while (Step()) {
    ++executed;
  }
  return executed;
}

}  // namespace osim
