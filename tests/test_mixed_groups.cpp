// Tests for mixed-type groups (speed heterogeneity inside one group — the
// relaxation of the paper's single-type-group restriction).
#include <gtest/gtest.h>

#include "cdsf/paper_example.hpp"
#include "sim/loop_executor.hpp"
#include "test_support.hpp"

namespace cdsf::sim {
namespace {

using test::simple_app;

/// App with a 1:4 speed ratio between the two types.
workload::Application two_speed_app(std::int64_t parallel = 2000) {
  return simple_app("mixed", 0, parallel,
                    {static_cast<double>(parallel), static_cast<double>(parallel) * 4.0});
}

SimConfig dedicated() {
  SimConfig config;
  config.scheduling_overhead = 0.0;
  config.iteration_cov = 0.0;
  config.availability_mode = AvailabilityMode::kConstantMean;
  return config;
}

sysmodel::AvailabilitySpec full2() {
  return sysmodel::AvailabilitySpec("full", {pmf::Pmf::delta(1.0), pmf::Pmf::delta(1.0)});
}

TEST(MixedGroups, HomogeneousGroupMatchesSingleTypeExecutor) {
  const auto app = simple_app("h", 100, 900, {1000.0, 2000.0});
  const RunResult mixed = simulate_loop_mixed(app, {0, 0, 0, 0}, full2(),
                                              dls::TechniqueId::kStatic, dedicated(), 5);
  const RunResult plain =
      simulate_loop(app, 0, 4, full2(), dls::TechniqueId::kStatic, dedicated(), 5);
  EXPECT_NEAR(mixed.makespan, plain.makespan, 1e-9);
}

TEST(MixedGroups, AllIterationsExecutedExactlyOnce) {
  const auto app = two_speed_app();
  for (dls::TechniqueId id : {dls::TechniqueId::kSS, dls::TechniqueId::kGSS,
                              dls::TechniqueId::kWF, dls::TechniqueId::kAWF_B,
                              dls::TechniqueId::kAF}) {
    SimConfig config;
    config.iteration_cov = 0.2;
    const RunResult run =
        simulate_loop_mixed(app, {0, 0, 1, 1}, sysmodel::paper_case(1), id, config, 7);
    std::int64_t total = 0;
    for (const WorkerStats& w : run.workers) total += w.iterations;
    EXPECT_EQ(total, 2000) << dls::technique_name(id);
  }
}

TEST(MixedGroups, FastWorkersAbsorbMoreIterationsUnderSelfScheduling) {
  // Two fast (type 0) + two 4x-slower (type 1) workers, dedicated: dynamic
  // scheduling should give the fast pair roughly 4x the iterations.
  const auto app = two_speed_app(4000);
  const RunResult run = simulate_loop_mixed(app, {0, 0, 1, 1}, full2(),
                                            dls::TechniqueId::kSS, dedicated(), 3);
  const double fast =
      static_cast<double>(run.workers[0].iterations + run.workers[1].iterations);
  const double slow =
      static_cast<double>(run.workers[2].iterations + run.workers[3].iterations);
  EXPECT_NEAR(fast / slow, 4.0, 0.4);
}

TEST(MixedGroups, WfWeightsEncodeTheSpeedRatio) {
  // WF's executor-provided weights fold speed in: the fast workers' chunks
  // should be ~4x the slow workers' in the first batch.
  const auto app = two_speed_app(4000);
  SimConfig config = dedicated();
  config.collect_trace = true;
  const RunResult run = simulate_loop_mixed(app, {0, 0, 1, 1}, full2(),
                                            dls::TechniqueId::kWF, dedicated(), 3);
  // Makespan near the heterogeneous ideal: total rate = 2*1 + 2*0.25 = 2.5
  // iterations per time unit => 1600; STATIC-like equal split would leave
  // the slow pair with 1000 iterations at 4 time units each = 4000.
  EXPECT_LT(run.makespan, 2100.0);
}

TEST(MixedGroups, DynamicBeatsStaticUnderSpeedHeterogeneity) {
  const auto app = two_speed_app(4000);
  const double static_time = simulate_loop_mixed(app, {0, 0, 1, 1}, full2(),
                                                 dls::TechniqueId::kStatic, dedicated(), 9)
                                 .makespan;
  for (dls::TechniqueId id : {dls::TechniqueId::kGSS, dls::TechniqueId::kWF,
                              dls::TechniqueId::kAWF_B, dls::TechniqueId::kAF}) {
    const double dynamic_time =
        simulate_loop_mixed(app, {0, 0, 1, 1}, full2(), id, dedicated(), 9).makespan;
    EXPECT_LT(dynamic_time, 0.8 * static_time) << dls::technique_name(id);
  }
}

TEST(MixedGroups, SerialPhaseRunsOnWorkerZeroType) {
  // Worker 0 slow (type 1): serial cost = serial_iterations * 4 time units.
  const auto app = simple_app("s", 100, 100, {100.0, 400.0});
  const RunResult slow_master = simulate_loop_mixed(app, {1, 0}, full2(),
                                                    dls::TechniqueId::kStatic, dedicated(), 2);
  const RunResult fast_master = simulate_loop_mixed(app, {0, 1}, full2(),
                                                    dls::TechniqueId::kStatic, dedicated(), 2);
  EXPECT_NEAR(slow_master.serial_end, 200.0, 1e-9);  // 100 iters at 2.0 each
  EXPECT_NEAR(fast_master.serial_end, 50.0, 1e-9);   // 100 iters at 0.5 each
}

TEST(MixedGroups, Validation) {
  const auto app = two_speed_app();
  EXPECT_THROW(simulate_loop_mixed(app, {}, full2(), dls::TechniqueId::kSS, dedicated(), 1),
               std::invalid_argument);
  EXPECT_THROW(simulate_loop_mixed(app, {0, 5}, full2(), dls::TechniqueId::kSS, dedicated(), 1),
               std::invalid_argument);
  SimConfig bad = dedicated();
  bad.failures.push_back({9, 1.0, 0.5});
  EXPECT_THROW(simulate_loop_mixed(app, {0, 1}, full2(), dls::TechniqueId::kSS, bad, 1),
               std::invalid_argument);
  // One shared availability path is undefined when workers draw from
  // different per-type laws.
  SimConfig shared = dedicated();
  shared.shared_group_availability = true;
  EXPECT_THROW(simulate_loop_mixed(app, {0, 1}, full2(), dls::TechniqueId::kSS, shared, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace cdsf::sim
