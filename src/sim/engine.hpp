// Minimal discrete-event simulation core: a time-ordered event queue with
// deterministic FIFO tie-breaking and a run loop.
//
// The loop executor (src/sim/loop_executor.hpp) is built on this engine;
// the engine itself is application-agnostic and reusable for other
// scheduling studies.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

namespace cdsf::sim {

/// Event-driven simulation clock and dispatcher.
class Engine {
 public:
  using Handler = std::function<void()>;
  /// Token for cancel(); kNoEvent is never a live event.
  using EventId = std::uint64_t;
  static constexpr EventId kNoEvent = 0;

  /// Schedules `handler` at absolute time `time`. Throws
  /// std::invalid_argument if time is before the current clock (no
  /// time travel) or not finite.
  void schedule_at(double time, Handler handler);

  /// Schedules `handler` `delay` time units from now. Throws if delay < 0.
  void schedule_after(double delay, Handler handler);

  /// As schedule_at, but returns a token that cancel() accepts. Used by the
  /// speculation layer to kill the losing copy's completion event instead
  /// of threading stale-handler guards through every closure.
  [[nodiscard]] EventId schedule_cancellable_at(double time, Handler handler);

  /// Cancels a pending event scheduled with schedule_cancellable_at: its
  /// handler will not run. Returns false for kNoEvent. Callers must not
  /// cancel an id whose handler has already run (the executors track
  /// per-chunk state, so they always know) — doing so would leave a dead
  /// tombstone in the cancellation set for the rest of the run.
  bool cancel(EventId id);

  /// Runs until the queue drains or `max_events` events were dispatched.
  /// Returns the number of events dispatched. Throws std::runtime_error if
  /// the event budget is exhausted with events still pending (runaway
  /// simulation guard).
  std::uint64_t run(std::uint64_t max_events = kDefaultMaxEvents);

  /// Current simulation time (the timestamp of the last dispatched event).
  [[nodiscard]] double now() const noexcept { return now_; }

  /// Number of events waiting in the queue.
  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }

  static constexpr std::uint64_t kDefaultMaxEvents = 50'000'000;

 private:
  struct Event {
    double time;
    std::uint64_t sequence;  // FIFO order among same-time events; doubles
                             // as the EventId (sequence 0 is reserved for
                             // kNoEvent — the counter starts at 1)
    Handler handler;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };

  /// Binary heap under Later (std::push_heap / std::pop_heap), so run()
  /// can move the earliest event out instead of copying its handler.
  std::vector<Event> queue_;
  std::unordered_set<EventId> cancelled_;
  double now_ = 0.0;
  std::uint64_t next_sequence_ = 1;
};

}  // namespace cdsf::sim
