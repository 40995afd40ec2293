#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "sim/engine.hpp"

namespace cdsf::sim {
namespace {

/// A test event: the tag its handler records.
struct Tagged {
  int tag = 0;
};

/// Runs `engine` to completion, appending each dispatched tag to `order`.
std::uint64_t run_recording(Engine<Tagged>& engine, std::vector<int>& order) {
  return engine.run([&](const Tagged& event) { order.push_back(event.tag); });
}

TEST(Engine, DispatchesInTimeOrder) {
  Engine<Tagged> engine;
  std::vector<int> order;
  engine.schedule_at(3.0, {3});
  engine.schedule_at(1.0, {1});
  engine.schedule_at(2.0, {2});
  EXPECT_EQ(run_recording(engine, order), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, FifoAmongEqualTimes) {
  Engine<Tagged> engine;
  std::vector<int> order;
  engine.schedule_at(1.0, {1});
  engine.schedule_at(1.0, {2});
  engine.schedule_at(1.0, {3});
  run_recording(engine, order);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, NowAdvancesWithEvents) {
  Engine<Tagged> engine;
  double seen = -1.0;
  engine.schedule_at(5.0, {});
  engine.run([&](const Tagged&) { seen = engine.now(); });
  EXPECT_DOUBLE_EQ(seen, 5.0);
  EXPECT_DOUBLE_EQ(engine.now(), 5.0);
}

TEST(Engine, HandlersMayScheduleMoreEvents) {
  Engine<Tagged> engine;
  int count = 0;
  engine.schedule_at(0.0, {});
  const std::uint64_t dispatched = engine.run([&](const Tagged&) {
    if (++count < 10) engine.schedule_after(1.0, {});
  });
  EXPECT_EQ(dispatched, 10u);
  EXPECT_DOUBLE_EQ(engine.now(), 9.0);
}

TEST(Engine, RejectsPastAndNonFiniteTimes) {
  Engine<Tagged> engine;
  engine.schedule_at(5.0, {});
  engine.run([](const Tagged&) {});
  EXPECT_THROW(engine.schedule_at(4.0, {}), std::invalid_argument);
  EXPECT_THROW(engine.schedule_at(std::numeric_limits<double>::infinity(), {}),
               std::invalid_argument);
  EXPECT_THROW(engine.schedule_after(-1.0, {}), std::invalid_argument);
}

TEST(Engine, EventBudgetGuard) {
  Engine<Tagged> engine;
  engine.schedule_at(0.0, {});
  EXPECT_THROW(engine.run([&](const Tagged&) { engine.schedule_after(1.0, {}); }, 100),
               std::runtime_error);
}

TEST(Engine, PendingCount) {
  Engine<Tagged> engine;
  EXPECT_EQ(engine.pending(), 0u);
  engine.schedule_at(1.0, {});
  engine.schedule_at(2.0, {});
  EXPECT_EQ(engine.pending(), 2u);
  engine.run([](const Tagged&) {});
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(Engine, EmptyRunReturnsZero) {
  Engine<Tagged> engine;
  EXPECT_EQ(engine.run([](const Tagged&) {}), 0u);
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
}

TEST(Engine, CancelledEventIsNotDispatched) {
  Engine<Tagged> engine;
  std::vector<int> order;
  engine.schedule_at(1.0, {1});
  const EventId cancelled_up_front = engine.schedule_cancellable_at(2.0, {2});
  const EventId cancelled_by_handler = engine.schedule_cancellable_at(3.0, {3});
  engine.schedule_at(4.0, {4});
  EXPECT_TRUE(engine.cancel(cancelled_up_front));
  engine.run([&](const Tagged& event) {
    order.push_back(event.tag);
    if (event.tag == 1) {
      EXPECT_TRUE(engine.cancel(cancelled_by_handler));
    }
  });
  EXPECT_EQ(order, (std::vector<int>{1, 4}));
}

TEST(Engine, CancelledEventIsNotCounted) {
  Engine<Tagged> engine;
  std::vector<int> order;
  engine.schedule_at(1.0, {1});
  const EventId id = engine.schedule_cancellable_at(1.0, {2});
  engine.schedule_at(2.0, {3});
  EXPECT_TRUE(engine.cancel(id));
  EXPECT_EQ(run_recording(engine, order), 2u);
}

TEST(Engine, CancelledEventDoesNotMoveTheClock) {
  Engine<Tagged> engine;
  std::vector<int> order;
  engine.schedule_at(1.0, {1});
  const EventId last = engine.schedule_cancellable_at(7.0, {7});
  EXPECT_TRUE(engine.cancel(last));
  EXPECT_EQ(run_recording(engine, order), 1u);
  EXPECT_DOUBLE_EQ(engine.now(), 1.0);
  // Nor does a run whose only event was cancelled.
  const EventId only = engine.schedule_cancellable_at(9.0, {9});
  EXPECT_TRUE(engine.cancel(only));
  EXPECT_EQ(run_recording(engine, order), 0u);
  EXPECT_DOUBLE_EQ(engine.now(), 1.0);
  EXPECT_EQ(order, (std::vector<int>{1}));
}

TEST(Engine, CancelRejectsNoEventAndRepeatedCancels) {
  Engine<Tagged> engine;
  EXPECT_FALSE(engine.cancel(kNoEvent));
  const EventId id = engine.schedule_cancellable_at(1.0, {});
  EXPECT_NE(id, kNoEvent);
  EXPECT_FALSE(engine.cancel(id + 1));  // never issued
  EXPECT_TRUE(engine.cancel(id));
  EXPECT_FALSE(engine.cancel(id));
  EXPECT_EQ(engine.run([](const Tagged&) {}), 0u);
}

}  // namespace
}  // namespace cdsf::sim
