#include "src/sim/race_tracker.h"

#include <algorithm>
#include <iterator>

#include "src/sim/kernel.h"
#include "src/sim/request_context.h"

namespace osim {
namespace {

// Renders one side of a report: "write cell@func (op name [layer])", or
// "(no op)" for accesses outside any profiled span.
std::string Describe(const char* cell_name, const RaceAccess& access) {
  std::string s = access.is_write ? "write " : "read ";
  s += cell_name;
  s += '@';
  s += access.func != nullptr ? access.func : "?";
  if (access.ops != nullptr && access.op != osprof::kInvalidOpId) {
    s += " (op ";
    s += access.ops->Name(access.op);
    s += " [";
    s += osprof::LayerComponentName(access.cls);
    s += "])";
  } else {
    s += " (no op)";
  }
  return s;
}

}  // namespace

RaceTracker& RaceTrackerOf(Kernel& kernel) { return kernel.races(); }

int RaceTracker::CurrentTid() const {
  if (kernel_ == nullptr) {
    return -1;
  }
  const SimThread* t = kernel_->current();
  return t != nullptr ? t->id() : -1;
}

void RaceTracker::Join(VectorClock& into, const VectorClock& from) {
  if (from.size() > into.size()) {
    into.resize(from.size(), 0);
  }
  for (std::size_t i = 0; i < from.size(); ++i) {
    into[i] = std::max(into[i], from[i]);
  }
}

std::uint32_t RaceTracker::SlotOf(int tid) {
  const auto t = static_cast<std::size_t>(tid);
  if (t < slot_of_.size() && slot_of_[t] != kNoSlot) {
    return slot_of_[t];
  }
  return Claim(tid, {});  // Every free slot has a final epoch >= 1.
}

std::uint32_t RaceTracker::Claim(int tid, VectorClock base) {
  auto slot = static_cast<std::uint32_t>(clocks_.size());
  for (auto it = free_.rbegin(); it != free_.rend(); ++it) {
    if (it->slot < base.size() && base[it->slot] >= it->final_epoch) {
      slot = it->slot;
      free_.erase(std::next(it).base());
      break;
    }
  }
  if (slot == clocks_.size()) {
    clocks_.emplace_back();
  }
  if (slot >= base.size()) {
    base.resize(slot + 1, 0);
  }
  ++base[slot];
  clocks_[slot] = std::move(base);
  const auto t = static_cast<std::size_t>(tid);
  if (t >= slot_of_.size()) {
    slot_of_.resize(t + 1, kNoSlot);
  }
  slot_of_[t] = slot;
  return slot;
}

void RaceTracker::KernelClockInto(VectorClock& out) const {
  Join(out, root_);
  for (const VectorClock& token : adopted_) {
    Join(out, token);
  }
}

void RaceTracker::SpawnSlow(int parent, int child) {
  if (child < 0) {
    return;
  }
  VectorClock base;
  if (parent >= 0) {
    const std::uint32_t p = SlotOf(parent);
    base = clocks_[p];
    // The spawn is a send: the parent's later work is not ordered before
    // anything the child does.
    ++clocks_[p][p];
  } else {
    // Kernel/host context: the child inherits everything that finished
    // plus whatever completion history was adopted around this callback.
    KernelClockInto(base);
  }
  // The kernel spawns every task under a fresh id, so the child has no
  // slot yet.
  Claim(child, std::move(base));
}

void RaceTracker::ExitSlow(int tid) {
  const auto t = static_cast<std::size_t>(tid);
  if (t >= slot_of_.size() || slot_of_[t] == kNoSlot) {
    return;
  }
  const std::uint32_t slot = slot_of_[t];
  slot_of_[t] = kNoSlot;
  Join(root_, clocks_[slot]);
  free_.push_back({slot, clocks_[slot][slot]});
  clocks_[slot] = VectorClock();
}

void RaceTracker::WakeSlow(int waker, int wakee) {
  if (wakee < 0) {
    return;
  }
  const std::uint32_t e = SlotOf(wakee);
  if (waker >= 0) {
    const std::uint32_t w = SlotOf(waker);
    Join(clocks_[e], clocks_[w]);
    ++clocks_[w][w];
  } else {
    KernelClockInto(clocks_[e]);
  }
}

void RaceTracker::AcquireSlow(const void* lock, int tid) {
  auto it = locks_.find(lock);
  if (it != locks_.end()) {
    Join(clocks_[SlotOf(tid)], it->second);
  }
}

void RaceTracker::ReleaseSlow(const void* lock, int tid) {
  const std::uint32_t s = SlotOf(tid);
  Join(locks_[lock], clocks_[s]);
  ++clocks_[s][s];
}

RaceClock RaceTracker::CaptureSlow() {
  const int tid = CurrentTid();
  if (tid >= 0) {
    const std::uint32_t s = SlotOf(tid);
    RaceClock token = clocks_[s];
    // The capture is a send: post-submit work must not look ordered
    // before the completion that adopts this token.
    ++clocks_[s][s];
    return token;
  }
  // Kernel context (a completion chaining into another submit): forward
  // the already-adopted history.
  VectorClock token;
  KernelClockInto(token);
  return token;
}

bool RaceTracker::OrderedBefore(const RaceAccess& access,
                                std::uint32_t slot, const VectorClock& now) {
  if (access.slot == slot) {
    return true;  // Program order: a slot's owners run one after another.
  }
  return access.slot < now.size() && access.clock <= now[access.slot];
}

RaceAccess RaceTracker::MakeAccess(int tid, std::uint32_t slot,
                                   const char* func, bool is_write) const {
  RaceAccess access;
  access.slot = slot;
  access.clock = 0;  // Filled by the caller from the task's own epoch.
  access.is_write = is_write;
  access.func = func;
  if (context_ != nullptr) {
    context_->TopSpan(tid, &access.ops, &access.op, &access.cls);
  }
  return access;
}

void RaceTracker::Report(const char* cell_name, const RaceAccess& prior,
                         const RaceAccess& current) {
  ++racy_accesses_;
  std::string a = Describe(cell_name, prior);
  std::string b = Describe(cell_name, current);
  if (b < a) {
    std::swap(a, b);
  }
  ++reports_[{std::move(a), std::move(b)}];
}

void RaceTracker::OnSharedAccess(RaceCellState* cell, const char* cell_name,
                                 const char* func, bool is_write) {
  const int tid = CurrentTid();
  if (tid < 0) {
    // Kernel context: event callbacks and host-side setup/introspection
    // are scheduler-atomic by construction, never racy.
    return;
  }
  if (cell->generation != generation_) {
    *cell = RaceCellState{};
    cell->generation = generation_;
  }
  if (!cell->registered) {
    cell->registered = true;
    ++cells_tracked_;
  }
  ++accesses_checked_;

  const std::uint32_t slot = SlotOf(tid);
  const VectorClock& now = clocks_[slot];
  RaceAccess current = MakeAccess(tid, slot, func, is_write);
  current.clock = now[slot];

  if (cell->has_write && !OrderedBefore(cell->last_write, slot, now)) {
    Report(cell_name, cell->last_write, current);
  }
  if (is_write) {
    for (const RaceAccess& read : cell->reads) {
      if (!OrderedBefore(read, slot, now)) {
        Report(cell_name, read, current);
      }
    }
    cell->last_write = current;
    cell->has_write = true;
    cell->reads.clear();
    return;
  }
  // A read: remember the latest read per slot since the last write.
  for (RaceAccess& read : cell->reads) {
    if (read.slot == slot) {
      read = current;
      return;
    }
  }
  cell->reads.push_back(current);
}

std::vector<std::string> RaceTracker::ReportDescriptions() const {
  std::vector<std::string> out;
  out.reserve(reports_.size());
  for (const auto& [key, count] : reports_) {
    out.push_back("data race: " + key.first + " vs " + key.second);
  }
  return out;
}

std::size_t RaceTracker::ClockBytes() const {
  std::size_t words = root_.capacity();
  for (const VectorClock& c : clocks_) {
    words += c.capacity();
  }
  for (const VectorClock& c : adopted_) {
    words += c.capacity();
  }
  for (const auto& [lock, c] : locks_) {
    words += c.capacity();
  }
  return words * sizeof(std::uint32_t) +
         clocks_.capacity() * sizeof(VectorClock) +
         free_.capacity() * sizeof(FreeSlot);
}

void RaceTracker::Reset() {
  slot_of_.clear();
  clocks_.clear();
  free_.clear();
  root_.clear();
  adopted_.clear();
  locks_.clear();
  reports_.clear();
  racy_accesses_ = 0;
  accesses_checked_ = 0;
  cells_tracked_ = 0;
  ++generation_;
}

}  // namespace osim
