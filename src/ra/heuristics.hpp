// Resource-allocation heuristics for Stage I.
//
//   NaiveLoadBalance  — the paper's "naive IM": every application receives
//                       an equal share of processors; among the equal-share
//                       allocations the one with the highest phi_1 is kept.
//   ExhaustiveOptimal — the paper's "robust IM": walk every feasible
//                       allocation and keep the argmax of phi_1 (ties:
//                       the exact order below). Feasible only at small
//                       scale.
// Scalable heuristics (the paper's stated future work; baselines built from
// the literature it cites):
//   GreedyRobustness  — steepest-ascent local search on phi_1: start from
//                       minimal groups on each application's best type, then
//                       repeatedly apply the single reassignment (type or
//                       count change of one application) that most improves
//                       the joint probability.
//   MinMinExpected    — min-min (Ibarra & Kim 1977 family): repeatedly
//                       commit the (application, group) pair with the
//                       minimum expected completion time.
//   MaxMinExpected    — max-min: commit the application whose BEST option
//                       is worst first (bottleneck first).
//   SufferageRobust   — sufferage on the probability metric: commit the
//                       application that loses most if denied its best
//                       group.
//   SimulatedAnnealing— Metropolis search over feasible allocations on
//                       phi_1; seeded and deterministic.
//
// The exact searches (ExhaustiveOptimal, BranchAndBoundOptimal) rank
// allocations by one order: higher phi_1; phi_1 within 1e-9 of the best so
// far ties, and ties go to the smaller total expected completion time, then
// (that within 1e-9 too) to fewer processors; among equals the first in walk
// order wins. The local searches share one neighbourhood: the groups one
// application can move to with every other group fixed.
//
// All heuristics guarantee a returned allocation is feasible and complete,
// or throw std::runtime_error when the instance admits no feasible
// allocation (fewer processors than applications).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "ra/allocation.hpp"
#include "ra/robustness.hpp"

namespace cdsf::ra {

/// Abstract Stage I policy.
class Heuristic {
 public:
  virtual ~Heuristic() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Produces a feasible allocation for the evaluator's batch on
  /// `platform` under `rule`.
  [[nodiscard]] virtual Allocation allocate(const RobustnessEvaluator& evaluator,
                                            const sysmodel::Platform& platform,
                                            CountRule rule) const = 0;
};

class NaiveLoadBalance final : public Heuristic {
 public:
  [[nodiscard]] std::string name() const override { return "NaiveLoadBalance"; }
  [[nodiscard]] Allocation allocate(const RobustnessEvaluator& evaluator,
                                    const sysmodel::Platform& platform,
                                    CountRule rule) const override;
};

/// Streams every leaf of the allocation walk through the exact order above
/// (the space is never materialized); the oracle for the other searches.
class ExhaustiveOptimal final : public Heuristic {
 public:
  [[nodiscard]] std::string name() const override { return "ExhaustiveOptimal"; }
  [[nodiscard]] Allocation allocate(const RobustnessEvaluator& evaluator,
                                    const sysmodel::Platform& platform,
                                    CountRule rule) const override;
};

/// ExhaustiveOptimal's walk and order plus an admissible capacity-relaxed
/// bound: a subtree is skipped when (product so far) x (each remaining
/// application's best probability over the FULL platform) falls more than
/// 1e-9 below the incumbent's phi_1. Every skipped leaf would lose, so it
/// returns ExhaustiveOptimal's allocation from a fraction of the tree.
class BranchAndBoundOptimal final : public Heuristic {
 public:
  [[nodiscard]] std::string name() const override { return "BranchAndBoundOptimal"; }
  [[nodiscard]] Allocation allocate(const RobustnessEvaluator& evaluator,
                                    const sysmodel::Platform& platform,
                                    CountRule rule) const override;

  /// Nodes visited by the last allocate() call on this instance (for the
  /// pruning-effectiveness bench; not thread-safe).
  [[nodiscard]] std::size_t last_nodes_visited() const noexcept { return nodes_visited_; }

 private:
  mutable std::size_t nodes_visited_ = 0;
};

class GreedyRobustness final : public Heuristic {
 public:
  [[nodiscard]] std::string name() const override { return "GreedyRobustness"; }
  [[nodiscard]] Allocation allocate(const RobustnessEvaluator& evaluator,
                                    const sysmodel::Platform& platform,
                                    CountRule rule) const override;
};

class MinMinExpected final : public Heuristic {
 public:
  [[nodiscard]] std::string name() const override { return "MinMinExpected"; }
  [[nodiscard]] Allocation allocate(const RobustnessEvaluator& evaluator,
                                    const sysmodel::Platform& platform,
                                    CountRule rule) const override;
};

class MaxMinExpected final : public Heuristic {
 public:
  [[nodiscard]] std::string name() const override { return "MaxMinExpected"; }
  [[nodiscard]] Allocation allocate(const RobustnessEvaluator& evaluator,
                                    const sysmodel::Platform& platform,
                                    CountRule rule) const override;
};

class SufferageRobust final : public Heuristic {
 public:
  [[nodiscard]] std::string name() const override { return "SufferageRobust"; }
  [[nodiscard]] Allocation allocate(const RobustnessEvaluator& evaluator,
                                    const sysmodel::Platform& platform,
                                    CountRule rule) const override;
};

/// Knobs for SimulatedAnnealing.
struct AnnealingOptions {
  std::size_t iterations = 4000;
  double initial_temperature = 0.2;
  double cooling = 0.999;
  std::uint64_t seed = 0x5EED;
};

class SimulatedAnnealing final : public Heuristic {
 public:
  using Options = AnnealingOptions;
  explicit SimulatedAnnealing(Options options = Options()) : options_(options) {}

  [[nodiscard]] std::string name() const override { return "SimulatedAnnealing"; }
  [[nodiscard]] Allocation allocate(const RobustnessEvaluator& evaluator,
                                    const sysmodel::Platform& platform,
                                    CountRule rule) const override;

 private:
  Options options_;
};

/// Knobs for TabuSearch.
struct TabuOptions {
  /// Stop after this many consecutive non-improving moves.
  std::size_t patience = 200;
  /// Hard cap on total moves.
  std::size_t max_moves = 5000;
  /// Moves an (application, group) pair stays tabu after being applied.
  std::size_t tenure = 12;
};

/// Tabu search on phi_1: best-improving single-application reassignment per
/// move, with recently applied (application, group) pairs forbidden for
/// `tenure` moves (aspiration: a tabu move beating the global best is
/// allowed). Escapes the local optima that stop GreedyRobustness.
class TabuSearch final : public Heuristic {
 public:
  explicit TabuSearch(TabuOptions options = TabuOptions()) : options_(options) {}

  [[nodiscard]] std::string name() const override { return "TabuSearch"; }
  [[nodiscard]] Allocation allocate(const RobustnessEvaluator& evaluator,
                                    const sysmodel::Platform& platform,
                                    CountRule rule) const override;

 private:
  TabuOptions options_;
};

/// Portfolio: runs every scalable heuristic and returns the allocation
/// with the highest phi_1 (ties: smaller total expected completion time).
/// The practitioner's default — each member costs microseconds-to-
/// milliseconds, so running all of them is cheap insurance against any
/// single heuristic's pathological instances.
class BestOfPortfolio final : public Heuristic {
 public:
  [[nodiscard]] std::string name() const override { return "BestOfPortfolio"; }
  [[nodiscard]] Allocation allocate(const RobustnessEvaluator& evaluator,
                                    const sysmodel::Platform& platform,
                                    CountRule rule) const override;
};

/// All heuristics (for comparison benches); exhaustive included only when
/// `include_exhaustive`. BestOfPortfolio is excluded (it wraps the others).
[[nodiscard]] std::vector<std::unique_ptr<Heuristic>> all_heuristics(bool include_exhaustive);

}  // namespace cdsf::ra
