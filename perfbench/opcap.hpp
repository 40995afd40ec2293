// Wall-time cap on each timed operation, enforced from outside the solve.
//
// A watchdog thread watches the operation in flight. At the cap it calls
// the operation's cancel hook (solves and the service poll their cancel
// token at RA-enumeration and Monte-Carlo boundaries). Code that never
// polls, such as ra::count_feasible, cannot be stopped that way, so when
// the operation is still running after a further grace period the
// watchdog calls the abandon hook, which reports the run with that
// operation failed and ends the process.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

namespace perfbench {

class OpCap {
 public:
  /// `abandon` runs on the watchdog thread and must not return.
  OpCap(double cap_seconds, double grace_seconds, std::function<void()> abandon);
  ~OpCap();
  OpCap(const OpCap&) = delete;
  OpCap& operator=(const OpCap&) = delete;
  OpCap(OpCap&&) = delete;
  OpCap& operator=(OpCap&&) = delete;

  /// Watches one operation for the guard's lifetime.
  class Guard {
   public:
    Guard(OpCap& cap, std::function<void()> cancel);
    ~Guard();
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    Guard(Guard&&) = delete;
    Guard& operator=(Guard&&) = delete;

    /// The operation ran past the cap (it was asked to cancel).
    [[nodiscard]] bool overran() const;

   private:
    OpCap& cap_;
  };

 private:
  using Clock = std::chrono::steady_clock;
  void watch();

  const Clock::duration cap_;
  const Clock::duration grace_;
  const std::function<void()> abandon_;

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
  bool armed_ = false;
  bool overran_ = false;
  std::uint64_t generation_ = 0;
  Clock::time_point started_;
  std::function<void()> cancel_;
  std::thread thread_;  // last: starts after every member it reads
};

}  // namespace perfbench
