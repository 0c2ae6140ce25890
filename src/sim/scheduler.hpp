// The virtual-time scheduler at the heart of the simulation.
//
// All protocol activity — message deliveries, clock waits, client think
// times, coroutine resumptions — is expressed as events on this single
// queue. Executing events in (time, sequence) order yields a linearizable,
// reproducible interleaving of the distributed computation.
#pragma once

#include <coroutine>
#include <cstdint>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "common/unique_function.hpp"
#include "sim/event_queue.hpp"

namespace str::sim {

class Scheduler;

/// The hook by which a Scheduler owns a suspended coroutine frame (each
/// sim::Fiber's promise holds one; coro.hpp). A frame still suspended when
/// its owner is destroyed is destroyed with it; a frame that finishes
/// unlinks itself. Intrusive, so owning a frame allocates nothing.
class FiberLink {
 public:
  FiberLink() = default;
  FiberLink(const FiberLink&) = delete;
  FiberLink& operator=(const FiberLink&) = delete;
  ~FiberLink() { unlink(); }

 private:
  friend class Scheduler;
  void unlink();

  Scheduler* owner_ = nullptr;
  FiberLink* prev_ = nullptr;
  FiberLink* next_ = nullptr;
  std::coroutine_handle<> frame_;
};

class Scheduler {
 public:
  Scheduler() = default;
  /// Destroys the frames of fibers still suspended (they can never resume:
  /// their wake-ups die with the queue).
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  Timestamp now() const { return now_; }

  /// Take ownership of the suspended coroutine `frame` through its `link`,
  /// until the frame finishes. The first owner keeps it: a fiber stays with
  /// the scheduler it first suspended on (its shard, under sharding).
  void own(FiberLink& link, std::coroutine_handle<> frame);

  void schedule_at(Timestamp at, UniqueFunction<void()> fn);
  void schedule_after(Timestamp delay, UniqueFunction<void()> fn) {
    schedule_at(now_ + delay, std::move(fn));
  }
  /// Run after all events already queued for the current instant.
  void schedule_now(UniqueFunction<void()> fn) { schedule_at(now_, std::move(fn)); }

  /// Execute the next event, if any. Returns false when the queue is empty.
  bool step();

  /// Run until the queue drains.
  void run();

  /// Run all events with timestamp <= t, then advance the clock to t.
  void run_until(Timestamp t);

  /// Drain the queue but stop after `max_events` (guards against livelock
  /// bugs in tests).
  std::uint64_t run_for_events(std::uint64_t max_events);

  // -- windowed execution (ShardedScheduler) --------------------------------

  /// Timestamp of the earliest pending event; kTsInfinity when idle.
  Timestamp next_event_time() const {
    return queue_.empty() ? kTsInfinity : queue_.next_time();
  }

  /// Execute every event with timestamp < `end` (exclusive), including
  /// events scheduled during the window that still land inside it. Does NOT
  /// advance the clock to `end`: within a conservative window the clock may
  /// only move by executing events, so shards never observe a time another
  /// shard could still send into.
  void run_window(Timestamp end) {
    while (!queue_.empty() && queue_.next_time() < end) step();
  }

  /// Advance the clock without executing anything. Only legal when no
  /// pending event predates `t` — i.e. at a barrier, once every shard has
  /// drained its window.
  void advance_to(Timestamp t) {
    if (now_ >= t) return;
    STR_ASSERT(queue_.empty() || queue_.next_time() >= t);
    now_ = t;
  }

  std::size_t pending() const { return queue_.size(); }
  std::uint64_t executed() const { return executed_; }

 private:
  friend class FiberLink;

  EventQueue queue_;
  Timestamp now_ = 0;
  std::uint64_t executed_ = 0;
  FiberLink* fibers_ = nullptr;  ///< owned suspended frames (list head)
};

}  // namespace str::sim
