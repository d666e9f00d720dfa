#include "pisa/control_plane.hpp"

namespace swish::pisa {

std::size_t ControlPlane::backlog() const noexcept {
  const TimeNs now = sim_.now();
  if (cpu_free_time_ <= now) return 0;
  return static_cast<std::size_t>((cpu_free_time_ - now) / std::max<TimeNs>(service_time(), 1));
}

bool ControlPlane::submit(sim::EventFn job) {
  if (backlog() >= config_.max_queue) {
    ++stats_.dropped;
    return false;
  }
  const TimeNs start = std::max(sim_.now(), cpu_free_time_);
  const TimeNs done = start + service_time();
  cpu_free_time_ = done;
  // Completion is fire-and-forget: no cancellation handle needed.
  sim_.post_at(done, [this, job = std::move(job)]() mutable {
    if (gate_ && !gate_()) return;
    ++stats_.executed;
    job();
  });
  return true;
}

void ControlPlane::fire(const sim::TimerHandle& handle, std::function<void()> fn) {
  if (gate_ && !gate_()) return;
  if (backlog() >= config_.max_queue) {
    // A refused job would lose the timer for good (a retry timer would
    // leave its request pending forever): wait for the next free slot.
    fire_at(sim_.now() + service_time(), handle, std::move(fn));
    return;
  }
  submit([handle, fn = std::move(fn)]() {
    if (handle.active()) fn();  // cancelled while its job was queued
  });
}

void ControlPlane::fire_at(TimeNs t, const sim::TimerHandle& handle, std::function<void()> fn) {
  sim_.schedule_at(
      t, [this, handle, fn = std::move(fn)]() mutable { fire(handle, std::move(fn)); }, handle);
}

sim::TimerHandle ControlPlane::schedule_after(TimeNs delay, std::function<void()> fn) {
  const sim::TimerHandle handle = sim::TimerHandle::fresh();
  fire_at(sim_.now() + delay, handle, std::move(fn));
  return handle;
}

sim::TimerHandle ControlPlane::schedule_periodic(TimeNs period, std::function<void()> fn) {
  const sim::TimerHandle handle = sim::TimerHandle::fresh();
  return sim_.schedule_periodic(
      period, [this, handle, fn = std::move(fn)]() { fire(handle, fn); }, handle);
}

}  // namespace swish::pisa
