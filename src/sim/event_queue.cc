#include "src/sim/event_queue.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace osim {

EventQueue::~EventQueue() {
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    std::vector<Event>& bucket = buckets_[b];
    // Bucket 0's slots before head_ have already run.
    for (std::size_t i = b == 0 ? head_ : 0; i < bucket.size(); ++i) {
      bucket[i].handler(bucket[i], /*run=*/false);
    }
  }
}

void EventQueue::CheckNotPast(Cycles when) const {
  if (when < now_) {
    throw std::logic_error("EventQueue: scheduling into the past");
  }
}

void EventQueue::Place(const Event& event) {
  const int b = std::bit_width(event.when ^ last_);
  buckets_[b].push_back(event);
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
  for (const Event& e : bucket) {
    Place(e);
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
  // Copy the event out first: its action may append to bucket 0.
  Event event = buckets_[0][head_++];
  --size_;
  now_ = event.when;
  event.handler(event, /*run=*/true);
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
