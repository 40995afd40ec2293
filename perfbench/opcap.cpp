#include "opcap.hpp"

#include <utility>

namespace perfbench {

namespace {

std::chrono::steady_clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(seconds));
}

}  // namespace

OpCap::OpCap(double cap_seconds, double grace_seconds, std::function<void()> abandon)
    : cap_(to_duration(cap_seconds)),
      grace_(to_duration(grace_seconds)),
      abandon_(std::move(abandon)),
      thread_([this] { watch(); }) {}

OpCap::~OpCap() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  thread_.join();
}

OpCap::Guard::Guard(OpCap& cap, std::function<void()> cancel) : cap_(cap) {
  {
    const std::lock_guard<std::mutex> lock(cap_.mutex_);
    cap_.armed_ = true;
    cap_.overran_ = false;
    ++cap_.generation_;
    cap_.started_ = Clock::now();
    cap_.cancel_ = std::move(cancel);
  }
  cap_.wake_.notify_all();
}

OpCap::Guard::~Guard() {
  {
    const std::lock_guard<std::mutex> lock(cap_.mutex_);
    cap_.armed_ = false;
    cap_.cancel_ = nullptr;
  }
  cap_.wake_.notify_all();
}

bool OpCap::Guard::overran() const {
  const std::lock_guard<std::mutex> lock(cap_.mutex_);
  return cap_.overran_;
}

void OpCap::watch() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    wake_.wait(lock, [this] { return stopping_ || armed_; });
    if (stopping_) return;
    const std::uint64_t generation = generation_;
    const auto same_op_done = [&] { return stopping_ || !armed_ || generation_ != generation; };
    if (wake_.wait_until(lock, started_ + cap_, same_op_done)) continue;
    overran_ = true;
    if (cancel_) cancel_();
    if (wake_.wait_until(lock, started_ + cap_ + grace_, same_op_done)) continue;
    lock.unlock();
    abandon_();  // reports the run and ends the process
    return;
  }
}

}  // namespace perfbench
