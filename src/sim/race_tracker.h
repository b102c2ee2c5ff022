// Happens-before race detection for simulated tasks (SimRace).
//
// The simulator runs every task on one real thread, so ThreadSanitizer is
// structurally blind to simulated races: a coroutine that mutates shared
// FS/net state across a yield point without holding a sim lock corrupts
// profiles silently.  This tracker closes that gap with a FastTrack-style
// vector-clock happens-before engine over simulated tasks.
//
// Happens-before edges come from the same InterferenceChannel choke point
// the noise profiler taps (src/sim/interference.h): task spawn/exit,
// wait-queue and semaphore wakeups, and lock acquire/release pairs (each
// lock carries a clock that release joins into and acquire joins from).
// Asynchronous completions -- disk-request callbacks, network deliveries
// -- carry *causality tokens*: the submitter's clock is captured at
// submit/send time (Capture) and adopted around the completion callback
// (Adopt/Drop), so a task spawned or woken by a delivery inherits the
// sender's history instead of appearing causally detached.
//
// Accesses are checked only in task context.  Kernel-context code (event
// callbacks, mkfs-style setup, host-side introspection) runs atomically
// with respect to the scheduler and is exempt; between two awaits a
// task's code is likewise atomic, which is why single-turn structures
// (e.g. fd-table allocators) are deliberately not annotated.  What *is*
// annotated -- via osim::Shared<T> cells and the OSIM_SHARED_RW/RO
// macros below -- are the structures whose access protocol spans awaits
// and therefore requires real synchronization: inode tables, the page
// cache, journal state, the CIFS caches, the ack ledger.
//
// Reports name both racing accesses -- cell@function plus the profiled op
// and its layer read off the kernel's RequestContext span stack -- and
// dedupe by the (site, op) pair of both sides, so one racy loop yields
// one report.  They surface through the `osprof_tool run` report, the
// gate's [races] verdict, and the runner's race_* counters.
//
// Cost model (the LockOrderTracker contract): detection is plain C++
// between awaits -- zero simulated time, so golden profiles are
// byte-identical with tracking on or off.  Disabled, every hook is one
// inline flag test and Capture returns an empty token without touching
// the heap.  Enabled, clocks have one component per *slot*, and the
// slots of exited tasks are recycled, so a join or capture costs the
// tasks alive at once, not every task ever spawned (a CIFS grep's
// thousands of short-lived server threads share two slots).
//
// Slot reuse invariant: a task takes over an exited task's slot only
// when its starting clock covers that task's final epoch (the previous
// owner's whole history happens-before it), and continues the slot's
// epochs past it.  Sharing a slot thus implies program order, and every
// ordering answer equals a tracker with one component per task.  Cells
// keep the latest read per slot, as FastTrack keeps one per thread: a
// write that races with an earlier owner's read races with it too.

#ifndef OSPROF_SRC_SIM_RACE_TRACKER_H_
#define OSPROF_SRC_SIM_RACE_TRACKER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/layered.h"
#include "src/core/op_table.h"

namespace osim {

class Kernel;
class RequestContext;

// A captured vector clock, carried by value through asynchronous
// completion callbacks (disk submit -> completion, net send -> delivery).
// Empty when the tracker is disabled.
using RaceClock = std::vector<std::uint32_t>;

// One recorded access to a shared cell: who (by clock slot), at which
// epoch, from which function, under which profiled op.  The op table
// pointer stays valid for the run (profilers outlive the kernel they
// instrument); report strings are materialized the moment a race is found.
struct RaceAccess {
  std::uint32_t slot = 0;
  std::uint32_t clock = 0;
  bool is_write = false;
  const char* func = nullptr;
  const osprof::OpTable* ops = nullptr;
  osprof::OpId op = osprof::kInvalidOpId;
  osprof::LayerComponent cls = osprof::kLayerSelf;
};

// Per-cell detector state, embedded in each Shared<T>.  `generation`
// lets a tracker Reset() invalidate stale epochs without enumerating
// cells (the cell self-clears on its next access).
struct RaceCellState {
  std::uint32_t generation = 0;
  bool registered = false;
  bool has_write = false;
  RaceAccess last_write;
  // Latest read per slot since the last non-racing write.
  std::vector<RaceAccess> reads;
};

class RaceTracker {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // The kernel installs both at construction: the context annotates
  // reports with the accessor's innermost op, the kernel answers "which
  // task is executing right now" (task-context test).
  void set_context(const RequestContext* context) { context_ = context; }
  void BindKernel(const Kernel* kernel) { kernel_ = kernel; }

  // --- Happens-before edges (forwarded by InterferenceChannel) ----------
  // All inline no-ops while disabled.  Negative ids mean kernel context;
  // kernel-context spawns and wakes join from the root clock plus any
  // adopted tokens instead of a parent task's clock.

  void OnSpawn(int parent, int child) {
    if (enabled_) {
      SpawnSlow(parent, child);
    }
  }
  void OnExit(int tid) {
    if (enabled_) {
      ExitSlow(tid);
    }
  }
  void OnWake(int waker, int wakee) {
    if (enabled_ && waker != wakee) {
      WakeSlow(waker, wakee);
    }
  }
  void OnAcquire(const void* lock, int tid) {
    if (enabled_ && tid >= 0) {
      AcquireSlow(lock, tid);
    }
  }
  void OnRelease(const void* lock, int tid) {
    if (enabled_ && tid >= 0) {
      ReleaseSlow(lock, tid);
    }
  }

  // --- Causality tokens -------------------------------------------------
  // Capture the current history (task clock, or root+adopted in kernel
  // context) at submit/send time; Adopt/Drop bracket the completion
  // callback so everything it spawns or wakes inherits that history.

  RaceClock Capture() {
    if (!enabled_) {
      return {};
    }
    return CaptureSlow();
  }
  void Adopt(const RaceClock& token) {
    if (enabled_ && !token.empty()) {
      adopted_.push_back(token);
    }
  }
  void Drop() {
    if (enabled_ && !adopted_.empty()) {
      adopted_.pop_back();
    }
  }

  // --- Shared-cell accesses (called by Shared<T>, enabled-checked there).

  void OnSharedAccess(RaceCellState* cell, const char* cell_name,
                      const char* func, bool is_write);

  // --- Analysis ---------------------------------------------------------

  // One line per deduped race: "data race on <cell>: <access> vs
  // <access>", each access "write cell@func (op name [layer])".  Sorted;
  // identical across trials that find the same races, so the runner's
  // set-union merge dedupes cleanly.
  std::vector<std::string> ReportDescriptions() const;

  bool RacesFound() const { return !reports_.empty(); }

  // Counters for the runner's race_* surface.
  std::uint64_t report_count() const { return reports_.size(); }
  std::uint64_t racy_accesses() const { return racy_accesses_; }
  std::uint64_t accesses_checked() const { return accesses_checked_; }
  std::uint64_t cells_tracked() const { return cells_tracked_; }

  // Heap bytes held by vector clocks: per-slot, root, adopted-token and
  // per-lock clocks plus the slot free list.  0 while never enabled.
  std::size_t ClockBytes() const;

  // Drops all clocks, tokens and reports (not the enabled flag).  Cell
  // states invalidate lazily via the generation counter.
  void Reset();

 private:
  using VectorClock = std::vector<std::uint32_t>;

  // Out-of-line slow tails of the edge hooks.
  void SpawnSlow(int parent, int child);
  void ExitSlow(int tid);
  void WakeSlow(int waker, int wakee);
  void AcquireSlow(const void* lock, int tid);
  void ReleaseSlow(const void* lock, int tid);
  RaceClock CaptureSlow();

  // An exited task's slot and its epoch at exit.
  struct FreeSlot {
    std::uint32_t slot;
    std::uint32_t final_epoch;
  };
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  // The id of the task executing right now, or -1 in kernel context.
  int CurrentTid() const;

  // The slot of task `tid`; a task first seen outside a spawn (spawned
  // before the tracker was enabled) claims a fresh one at epoch 1.
  std::uint32_t SlotOf(int tid);

  // Gives task `tid` clock `base`, with its own epoch advanced, in the
  // newest free slot whose previous owner `base` covers, else a new one.
  std::uint32_t Claim(int tid, VectorClock base);

  // Joins root_ plus every adopted token into `out`.
  void KernelClockInto(VectorClock& out) const;

  static void Join(VectorClock& into, const VectorClock& from);

  // True when `access` happened-before the accessor whose clock is `now`.
  static bool OrderedBefore(const RaceAccess& access, std::uint32_t slot,
                            const VectorClock& now);

  RaceAccess MakeAccess(int tid, std::uint32_t slot, const char* func,
                        bool is_write) const;
  void Report(const char* cell_name, const RaceAccess& prior,
              const RaceAccess& current);

  bool enabled_ = false;
  const RequestContext* context_ = nullptr;
  const Kernel* kernel_ = nullptr;
  std::uint32_t generation_ = 0;

  // Slot of each thread id; kNoSlot before first sight and after exit.
  std::vector<std::uint32_t> slot_of_;
  // Per-slot clocks of live tasks; empty while the slot is free.
  std::vector<VectorClock> clocks_;
  // Slots of exited tasks, in exit order.
  std::vector<FreeSlot> free_;
  // The root clock: history of every exited task, joined at exit so
  // later host-context spawns are ordered after completed phases.
  VectorClock root_;
  // Adopted causality tokens (a stack: completions can nest).
  std::vector<VectorClock> adopted_;
  // Per-lock clocks: release joins in, acquire joins out.
  std::map<const void*, VectorClock> locks_;

  // Deduped reports keyed by the sorted pair of access descriptors
  // (site + op of both sides).  std::map keeps output deterministic.
  std::map<std::pair<std::string, std::string>, std::uint64_t> reports_;

  std::uint64_t racy_accesses_ = 0;
  std::uint64_t accesses_checked_ = 0;
  std::uint64_t cells_tracked_ = 0;
};

// The kernel's tracker, by reference.  Out-of-line so this header (which
// kernel.h reaches through interference.h) never needs kernel.h.
RaceTracker& RaceTrackerOf(Kernel& kernel);

// A race-checked shared cell.  Wraps the value and funnels every access
// through the tracker via the OSIM_SHARED_RW/RO macros; with tracking
// disabled an access is one flag test.  The lint `shared-state` rule
// requires mutable file-scope/static data in src/{sim,fs,net} to be
// wrapped in one of these (or carry an explicit allow).
template <typename T>
class Shared {
 public:
  Shared(Kernel& kernel, const char* name)
      : tracker_(&RaceTrackerOf(kernel)), name_(name) {}
  Shared(Kernel& kernel, const char* name, T value)
      : value_(std::move(value)), tracker_(&RaceTrackerOf(kernel)),
        name_(name) {}

  T& Write(const char* func) {
    if (tracker_->enabled()) {
      tracker_->OnSharedAccess(&state_, name_, func, true);
    }
    return value_;
  }
  const T& Read(const char* func) const {
    if (tracker_->enabled()) {
      tracker_->OnSharedAccess(&state_, name_, func, false);
    }
    return value_;
  }

 private:
  T value_{};
  RaceTracker* tracker_;
  const char* name_;
  mutable RaceCellState state_;
};

}  // namespace osim

// Annotation points: OSIM_SHARED_RW(cell) yields a mutable reference and
// records a write; OSIM_SHARED_RO(cell) yields a const reference and
// records a read.  __func__ gives the report its site name for free.
#define OSIM_SHARED_RW(cell) ((cell).Write(__func__))
#define OSIM_SHARED_RO(cell) ((cell).Read(__func__))

#endif  // OSPROF_SRC_SIM_RACE_TRACKER_H_
