// Coroutine primitives for expressing protocol logic as straight-line code.
//
// Three building blocks:
//   Fiber       — an eagerly-started, fire-and-forget coroutine. Actors
//                 (clients, the self-tuner, transaction bodies) are Fibers.
//   Future<T> / Promise<T>
//               — a single-producer / single-consumer rendezvous. The
//                 consumer co_awaits the Future; the producer fulfills the
//                 Promise (possibly synchronously, possibly from a later
//                 event). Resumption is routed through the Scheduler so that
//                 event ordering stays deterministic and stacks stay flat.
//   Delay       — co_await scheduler.sleep(d) suspends for d virtual time.
//
// All of this is single-threaded: one Scheduler drives one simulation, so no
// atomics or locks are needed (and none are used).
#pragma once

#include <coroutine>
#include <exception>
#include <memory>
#include <optional>
#include <utility>

#include "common/assert.hpp"
#include "sim/scheduler.hpp"

namespace str::sim {

/// Fire-and-forget coroutine. The coroutine starts executing immediately on
/// creation and destroys itself when it finishes. From its first suspension
/// on, the scheduler that will resume it owns the frame, and destroys it if
/// it is still suspended when the scheduler goes away.
struct Fiber {
  struct promise_type {
    Fiber get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }

    FiberLink link;
  };
};

template <class T>
class Promise;

namespace detail {

template <class T>
struct SharedState {
  Scheduler* scheduler = nullptr;
  std::optional<T> value;
  std::coroutine_handle<> waiter;
  bool waiter_scheduled = false;

  void deliver() {
    STR_ASSERT(value.has_value());
    if (waiter && !waiter_scheduled) {
      waiter_scheduled = true;
      auto handle = waiter;
      scheduler->schedule_now([handle]() {
        STR_ASSERT_MSG(!handle.done(), "resuming a finished coroutine");
        handle.resume();
      });
    }
  }
};

}  // namespace detail

/// Awaitable side of the rendezvous. Movable; exactly one consumer may
/// co_await it, exactly once.
template <class T>
class Future {
 public:
  Future() = default;

  bool valid() const { return state_ != nullptr; }
  bool ready() const { return state_ && state_->value.has_value(); }

  bool await_ready() const noexcept {
    STR_ASSERT_MSG(state_ != nullptr, "awaiting invalid Future");
    return state_->value.has_value();
  }

  void await_suspend(std::coroutine_handle<Fiber::promise_type> h) noexcept {
    STR_ASSERT_MSG(!state_->waiter, "Future supports a single waiter");
    state_->waiter = h;
    state_->scheduler->own(h.promise().link, h);  // the resuming scheduler
  }

  T await_resume() {
    STR_ASSERT(state_->value.has_value());
    T out = std::move(*state_->value);
    return out;
  }

  /// Non-coroutine access for tests: requires the value to be present.
  const T& get() const {
    STR_ASSERT_MSG(ready(), "Future::get before fulfillment");
    return *state_->value;
  }

 private:
  template <class U>
  friend class Promise;

  explicit Future(std::shared_ptr<detail::SharedState<T>> s)
      : state_(std::move(s)) {}

  std::shared_ptr<detail::SharedState<T>> state_;
};

/// Producer side. Copyable so it can be captured into message closures that
/// travel through the simulated network.
template <class T>
class Promise {
 public:
  explicit Promise(Scheduler& sched)
      : state_(std::make_shared<detail::SharedState<T>>()) {
    state_->scheduler = &sched;
  }

  Future<T> future() const { return Future<T>(state_); }

  bool fulfilled() const { return state_->value.has_value(); }

  void set_value(T v) {
    STR_ASSERT_MSG(!state_->value.has_value(), "Promise fulfilled twice");
    state_->value.emplace(std::move(v));
    state_->deliver();
  }

  /// Fulfill only if not already fulfilled; returns whether it did.
  bool try_set_value(T v) {
    if (state_->value.has_value()) return false;
    state_->value.emplace(std::move(v));
    state_->deliver();
    return true;
  }

 private:
  std::shared_ptr<detail::SharedState<T>> state_;
};

/// Awaitable virtual-time sleep.
class SleepAwaitable {
 public:
  SleepAwaitable(Scheduler& sched, Timestamp delay)
      : sched_(sched), delay_(delay) {}

  bool await_ready() const noexcept { return delay_ == 0; }
  void await_suspend(std::coroutine_handle<Fiber::promise_type> h) {
    sched_.own(h.promise().link, h);
    sched_.schedule_after(delay_, [h]() { h.resume(); });
  }
  void await_resume() const noexcept {}

 private:
  Scheduler& sched_;
  Timestamp delay_;
};

inline SleepAwaitable sleep_for(Scheduler& sched, Timestamp delay) {
  return SleepAwaitable(sched, delay);
}

}  // namespace str::sim
