#include "sim/scheduler.hpp"

namespace str::sim {

void FiberLink::unlink() {
  if (owner_ == nullptr) return;
  if (prev_ != nullptr) {
    prev_->next_ = next_;
  } else {
    owner_->fibers_ = next_;
  }
  if (next_ != nullptr) next_->prev_ = prev_;
  owner_ = nullptr;
  prev_ = next_ = nullptr;
}

Scheduler::~Scheduler() {
  // Destroying a frame runs its promise's ~FiberLink, which unlinks it.
  while (fibers_ != nullptr) fibers_->frame_.destroy();
}

void Scheduler::own(FiberLink& link, std::coroutine_handle<> frame) {
  if (link.owner_ != nullptr) return;
  link.owner_ = this;
  link.frame_ = frame;
  link.next_ = fibers_;
  if (fibers_ != nullptr) fibers_->prev_ = &link;
  fibers_ = &link;
}

void Scheduler::schedule_at(Timestamp at, UniqueFunction<void()> fn) {
  // Never schedule into the past: an event produced "now" for an earlier
  // timestamp would break the monotonic clock.
  if (at < now_) at = now_;
  queue_.push(at, std::move(fn));
}

bool Scheduler::step() {
  if (queue_.empty()) return false;
  EventQueue::Event ev = queue_.pop();
  now_ = ev.at;
  ++executed_;
  ev.fn();
  return true;
}

void Scheduler::run() {
  while (step()) {
  }
}

void Scheduler::run_until(Timestamp t) {
  while (!queue_.empty() && queue_.next_time() <= t) step();
  if (now_ < t) now_ = t;
}

std::uint64_t Scheduler::run_for_events(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

}  // namespace str::sim
