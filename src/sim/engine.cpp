#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace cdsf::sim {

void Engine::schedule_at(double time, Handler handler) {
  if (!std::isfinite(time)) throw std::invalid_argument("Engine::schedule_at: time must be finite");
  if (time < now_) throw std::invalid_argument("Engine::schedule_at: time is in the past");
  queue_.push_back(Event{time, next_sequence_++, std::move(handler)});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
}

void Engine::schedule_after(double delay, Handler handler) {
  if (delay < 0.0) throw std::invalid_argument("Engine::schedule_after: delay must be >= 0");
  schedule_at(now_ + delay, std::move(handler));
}

Engine::EventId Engine::schedule_cancellable_at(double time, Handler handler) {
  const EventId id = next_sequence_;
  schedule_at(time, std::move(handler));
  return id;
}

bool Engine::cancel(EventId id) {
  if (id == kNoEvent || id >= next_sequence_) return false;
  return cancelled_.insert(id).second;
}

std::uint64_t Engine::run(std::uint64_t max_events) {
  std::uint64_t dispatched = 0;
  while (!queue_.empty()) {
    if (dispatched >= max_events) {
      throw std::runtime_error("Engine::run: event budget exhausted (runaway simulation?)");
    }
    // Move out before running so the handler may schedule new events.
    // (time, sequence) is a strict total order, so the heap yields the
    // same dispatch order as any other correct priority queue.
    std::pop_heap(queue_.begin(), queue_.end(), Later{});
    Event event = std::move(queue_.back());
    queue_.pop_back();
    if (!cancelled_.empty() && cancelled_.erase(event.sequence) > 0) continue;
    now_ = event.time;
    ++dispatched;
    event.handler();
  }
  return dispatched;
}

}  // namespace cdsf::sim
