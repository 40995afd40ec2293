// Tests for the statistical comparison machinery (bootstrap intervals,
// paired comparisons with common random numbers) and the branch-and-bound
// exact Stage I solver.
#include <gtest/gtest.h>

#include "cdsf/paper_example.hpp"
#include "ra/heuristics.hpp"
#include "sim/loop_executor.hpp"
#include "stats/summary.hpp"
#include "sysmodel/cases.hpp"
#include "test_support.hpp"
#include "workload/generator.hpp"

namespace cdsf {
namespace {

// ----------------------------------------------------- bootstrap median --

TEST(BootstrapMedian, CoversTheTrueMedianOfATightSample) {
  std::vector<double> sample;
  for (int i = 0; i < 200; ++i) sample.push_back(100.0 + (i % 10));
  const stats::ConfidenceInterval ci =
      stats::bootstrap_median_interval(sample, 0.95, 1000, 7);
  EXPECT_TRUE(ci.contains(stats::percentile(sample, 0.5)));
  EXPECT_LT(ci.width(), 6.0);
}

TEST(BootstrapMedian, DeterministicGivenSeed) {
  const std::vector<double> sample = {1, 5, 2, 8, 3, 9, 4, 7, 6, 10};
  const auto a = stats::bootstrap_median_interval(sample, 0.9, 500, 3);
  const auto b = stats::bootstrap_median_interval(sample, 0.9, 500, 3);
  EXPECT_DOUBLE_EQ(a.lower, b.lower);
  EXPECT_DOUBLE_EQ(a.upper, b.upper);
}

TEST(BootstrapMedian, Validation) {
  EXPECT_THROW(stats::bootstrap_median_interval({}, 0.95, 100, 1), std::invalid_argument);
  EXPECT_THROW(stats::bootstrap_median_interval({1.0}, 0.95, 0, 1), std::invalid_argument);
  EXPECT_THROW(stats::bootstrap_median_interval({1.0}, 1.0, 100, 1), std::invalid_argument);
}

// ------------------------------------------------------ paired comparison --

TEST(PairedComparison, IdenticalSamplesNotSignificant) {
  std::vector<double> a;
  for (int i = 0; i < 50; ++i) a.push_back(10.0 + i * 0.1);
  const stats::PairedComparison cmp = stats::paired_median_comparison(a, a);
  EXPECT_DOUBLE_EQ(cmp.median_difference, 0.0);
  EXPECT_FALSE(cmp.significant);
}

TEST(PairedComparison, ConstantShiftIsSignificant) {
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 50; ++i) {
    a.push_back(100.0 + i);
    b.push_back(95.0 + i);  // b is 5 lower everywhere
  }
  const stats::PairedComparison cmp = stats::paired_median_comparison(a, b);
  EXPECT_DOUBLE_EQ(cmp.median_difference, 5.0);
  EXPECT_TRUE(cmp.significant);
  EXPECT_GT(cmp.ci.lower, 0.0);
}

TEST(PairedComparison, Validation) {
  EXPECT_THROW(stats::paired_median_comparison({1.0}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(stats::paired_median_comparison({}, {}), std::invalid_argument);
}

// ------------------------------------------- technique comparison via CRN --

TEST(CompareTechniques, TechniqueAgainstItselfIsAWash) {
  const auto example = core::make_paper_example();
  const sim::TechniqueComparison cmp = sim::compare_techniques(
      example.batch.at(2), 1, 8, example.cases[2], dls::TechniqueId::kFAC,
      dls::TechniqueId::kFAC, sim::SimConfig{}, 11, 30);
  EXPECT_DOUBLE_EQ(cmp.makespan_difference.median_difference, 0.0);
  EXPECT_FALSE(cmp.makespan_difference.significant);
  EXPECT_DOUBLE_EQ(cmp.median_a, cmp.median_b);
}

TEST(CompareTechniques, StaticSignificantlySlowerThanAfUnderHeterogeneity) {
  const auto app = test::simple_app("a", 0, 4000, {8000.0, 8000.0});
  sim::SimConfig config;
  config.iteration_cov = 0.2;
  const sim::TechniqueComparison cmp = sim::compare_techniques(
      app, 1, 8, sysmodel::paper_case(4), dls::TechniqueId::kStatic, dls::TechniqueId::kAF,
      config, 5, 40);
  EXPECT_GT(cmp.makespan_difference.median_difference, 0.0);  // STATIC slower
  EXPECT_TRUE(cmp.makespan_difference.significant);
  EXPECT_GT(cmp.median_a, cmp.median_b);
}

TEST(CompareTechniques, Validation) {
  const auto example = core::make_paper_example();
  EXPECT_THROW(sim::compare_techniques(example.batch.at(0), 0, 2, example.cases[0],
                                       dls::TechniqueId::kFAC, dls::TechniqueId::kAF,
                                       sim::SimConfig{}, 1, 0),
               std::invalid_argument);
}

// --------------------------------------------------------- branch & bound --

TEST(BranchAndBound, MatchesExhaustiveOnThePaperInstance) {
  const auto example = core::make_paper_example();
  const ra::RobustnessEvaluator evaluator(example.batch, example.cases.front(),
                                          example.deadline);
  const ra::Allocation exact = ra::BranchAndBoundOptimal().allocate(
      evaluator, example.platform, ra::CountRule::kPowerOfTwo);
  const ra::Allocation exhaustive = ra::ExhaustiveOptimal().allocate(
      evaluator, example.platform, ra::CountRule::kPowerOfTwo);
  EXPECT_NEAR(evaluator.joint_probability(exact), evaluator.joint_probability(exhaustive),
              1e-9);
  EXPECT_EQ(exact, core::paper_robust_allocation());
}

TEST(BranchAndBound, MatchesExhaustiveOnRandomInstances) {
  const sysmodel::Platform platform({{"a", 4}, {"b", 8}});
  const sysmodel::AvailabilitySpec avail(
      "mixed", {pmf::Pmf::from_pulses({{0.6, 0.5}, {1.0, 0.5}}),
                pmf::Pmf::from_pulses({{0.3, 0.25}, {0.6, 0.25}, {1.0, 0.5}})});
  workload::BatchSpec spec;
  spec.applications = 4;
  spec.processor_types = 2;
  spec.min_mean_time = 2000.0;
  spec.max_mean_time = 12000.0;
  // A loose deadline saturates phi_1, so only the tie-break separates
  // allocations there.
  for (const double deadline : {9000.0, 1e6}) {
    for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull, 6ull, 7ull, 8ull}) {
      const workload::Batch batch = workload::generate_batch(spec, seed);
      const ra::RobustnessEvaluator evaluator(batch, avail, deadline);
      const ra::Allocation exact = ra::BranchAndBoundOptimal().allocate(
          evaluator, platform, ra::CountRule::kPowerOfTwo);
      const ra::Allocation brute = ra::ExhaustiveOptimal().allocate(
          evaluator, platform, ra::CountRule::kPowerOfTwo);
      EXPECT_NEAR(evaluator.joint_probability(exact), evaluator.joint_probability(brute), 1e-9)
          << "deadline=" << deadline << " seed=" << seed;
      // Same tie-break, so the same allocation, not just the same phi_1.
      EXPECT_EQ(exact, brute) << "deadline=" << deadline << " seed=" << seed << ": " << exact.to_string(platform) << " vs "
                              << brute.to_string(platform);
    }
  }
}

TEST(BranchAndBound, PrunesMostOfTheTree) {
  const auto example = core::make_paper_example();
  const ra::RobustnessEvaluator evaluator(example.batch, example.cases.front(),
                                          example.deadline);
  ra::BranchAndBoundOptimal solver;
  (void)solver.allocate(evaluator, example.platform, ra::CountRule::kPowerOfTwo);
  // Full enumeration visits 153 leaves plus internal nodes; the bound must
  // cut a meaningful share of them.
  EXPECT_GT(solver.last_nodes_visited(), 0u);
  EXPECT_LT(solver.last_nodes_visited(), 300u);
}

TEST(BranchAndBound, InfeasibleThrows) {
  workload::BatchSpec spec;
  spec.applications = 5;
  spec.processor_types = 1;
  const workload::Batch batch = workload::generate_batch(spec, 4);
  const sysmodel::Platform tiny({{"only", 3}});
  const sysmodel::AvailabilitySpec avail("u", {pmf::Pmf::delta(1.0)});
  const ra::RobustnessEvaluator evaluator(batch, avail, 1e9);
  EXPECT_THROW(ra::BranchAndBoundOptimal().allocate(evaluator, tiny, ra::CountRule::kAny),
               std::runtime_error);
}

}  // namespace
}  // namespace cdsf
