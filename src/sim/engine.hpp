// Minimal discrete-event simulation core: a time-ordered queue of typed
// event records with deterministic FIFO tie-breaking and a run loop.
//
// Each transport defines one flat Event record (a kind enum plus the fields
// its handlers read) and passes run() a dispatch function, usually one
// switch over the kind. Records live by value in a vector heap: an event
// costs no allocation, and no handler can capture (and leak) its owner.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <vector>

namespace cdsf::sim {

/// Token for Engine::cancel(); kNoEvent is never a live event.
using EventId = std::uint64_t;
inline constexpr EventId kNoEvent = 0;

/// The simulation clock of an Engine, readable without knowing its event
/// type (the dispatch core reads the time of either transport through it).
class SimClock {
 public:
  /// Current simulation time (the timestamp of the last dispatched event).
  [[nodiscard]] double now() const noexcept { return now_; }

 protected:
  double now_ = 0.0;
};

/// Event-driven simulation clock and dispatcher over `Event` records.
template <class Event>
class Engine : public SimClock {
 public:
  static constexpr std::uint64_t kDefaultMaxEvents = 50'000'000;

  /// Schedules `event` at absolute time `time`. Throws
  /// std::invalid_argument if time is before the current clock (no
  /// time travel) or not finite.
  void schedule_at(double time, Event event) {
    if (!std::isfinite(time)) {
      throw std::invalid_argument("Engine::schedule_at: time must be finite");
    }
    if (time < now_) throw std::invalid_argument("Engine::schedule_at: time is in the past");
    queue_.push_back(Entry{time, next_sequence_++, std::move(event)});
    std::push_heap(queue_.begin(), queue_.end(), Later{});
  }

  /// Schedules `event` `delay` time units from now. Throws if delay < 0.
  void schedule_after(double delay, Event event) {
    if (delay < 0.0) throw std::invalid_argument("Engine::schedule_after: delay must be >= 0");
    schedule_at(now_ + delay, std::move(event));
  }

  /// As schedule_at, but returns a token that cancel() accepts. Used by the
  /// speculation layer to kill the losing copy's completion event instead
  /// of threading stale-event guards through every handler.
  [[nodiscard]] EventId schedule_cancellable_at(double time, Event event) {
    const EventId id = next_sequence_;
    schedule_at(time, std::move(event));
    return id;
  }

  /// Cancels a pending event scheduled with schedule_cancellable_at: it is
  /// never dispatched, never counted by run(), and never moves the clock.
  /// Returns false for kNoEvent and for an id already cancelled. Callers
  /// must not cancel an already dispatched id (that would leave a dead
  /// tombstone in the cancellation set for the rest of the run).
  bool cancel(EventId id) {
    if (id == kNoEvent || id >= next_sequence_) return false;
    return cancelled_.insert(id).second;
  }

  /// Hands each event, in (time, sequence) order, to `dispatch(const
  /// Event&)`, which may schedule and cancel events, until the queue drains.
  /// Returns the number of events dispatched. Throws std::runtime_error when
  /// `max_events` were dispatched with events still pending (runaway guard).
  template <class Dispatch>
  std::uint64_t run(Dispatch&& dispatch, std::uint64_t max_events = kDefaultMaxEvents) {
    std::uint64_t dispatched = 0;
    while (!queue_.empty()) {
      if (dispatched >= max_events) {
        throw std::runtime_error("Engine::run: event budget exhausted (runaway simulation?)");
      }
      // Move out before dispatching so the handler may schedule new events.
      // (time, sequence) is a strict total order, so the heap yields the
      // same dispatch order as any other correct priority queue.
      std::pop_heap(queue_.begin(), queue_.end(), Later{});
      const Entry entry = std::move(queue_.back());
      queue_.pop_back();
      if (!cancelled_.empty() && cancelled_.erase(entry.sequence) > 0) continue;
      now_ = entry.time;
      ++dispatched;
      dispatch(entry.event);
    }
    return dispatched;
  }

  /// Number of events waiting in the queue (cancelled ones included until
  /// their time comes).
  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }

 private:
  struct Entry {
    double time;
    std::uint64_t sequence;  // FIFO order among same-time events; doubles
                             // as the EventId (sequence 0 is reserved for
                             // kNoEvent — the counter starts at 1)
    Event event;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };

  /// Binary heap under Later (std::push_heap / std::pop_heap), so run()
  /// moves the earliest record out instead of copying it.
  std::vector<Entry> queue_;
  std::unordered_set<EventId> cancelled_;
  std::uint64_t next_sequence_ = 1;
};

}  // namespace cdsf::sim
