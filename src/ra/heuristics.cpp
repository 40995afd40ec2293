#include "ra/heuristics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "ra/allocation_walk.hpp"
#include "util/rng.hpp"

namespace cdsf::ra {

namespace {

/// Group options available to one application given remaining capacity,
/// reserving one processor for each of `reserve` still-unassigned
/// applications.
std::vector<GroupAssignment> feasible_options(const std::vector<std::size_t>& remaining,
                                              CountRule rule, std::size_t reserve) {
  std::vector<GroupAssignment> options;
  std::size_t total = 0;
  for (const std::size_t c : remaining) total += c;
  for (std::size_t type = 0; type < remaining.size(); ++type) {
    for (std::size_t count : candidate_counts(remaining[type], rule)) {
      if (total - count < reserve) continue;
      options.push_back(GroupAssignment{type, count});
    }
  }
  return options;
}

void require_feasible_instance(const RobustnessEvaluator& evaluator,
                               const sysmodel::Platform& platform) {
  if (platform.total_processors() < evaluator.batch().size()) {
    throw std::runtime_error("RA heuristic: fewer processors than applications");
  }
  if (platform.type_count() != evaluator.batch().type_count()) {
    throw std::invalid_argument("RA heuristic: platform/batch type count mismatch");
  }
}

/// Greedy commitment loop shared by MinMin / MaxMin / Sufferage and the
/// local searches' start. `pick` receives the unassigned applications and
/// the options they all share, and returns the (index within `unassigned`,
/// option) to commit.
template <typename Picker>
Allocation commit_loop(const RobustnessEvaluator& evaluator, const sysmodel::Platform& platform,
                       CountRule rule, Picker pick) {
  require_feasible_instance(evaluator, platform);
  const std::size_t n = evaluator.batch().size();
  std::vector<std::size_t> remaining = detail::capacities(platform);
  std::vector<GroupAssignment> groups(n);
  std::vector<std::size_t> unassigned(n);
  for (std::size_t i = 0; i < n; ++i) unassigned[i] = i;

  while (!unassigned.empty()) {
    const std::vector<GroupAssignment> options =
        feasible_options(remaining, rule, unassigned.size() - 1);
    if (options.empty()) {
      throw std::runtime_error("RA heuristic: no feasible group for an application");
    }
    const auto [k, choice] = pick(unassigned, options);
    groups[unassigned[k]] = choice;
    remaining[choice.processor_type] -= choice.processors;
    unassigned.erase(unassigned.begin() + static_cast<std::ptrdiff_t>(k));
  }
  return Allocation(std::move(groups));
}

/// Best option by maximum deadline probability (ties: fewer processors).
GroupAssignment best_by_probability(const RobustnessEvaluator& evaluator, std::size_t app,
                                    const std::vector<GroupAssignment>& options,
                                    double* best_probability = nullptr,
                                    double* second_probability = nullptr) {
  GroupAssignment best{};
  double best_p = -1.0;
  double second_p = -1.0;
  for (const GroupAssignment& option : options) {
    const double p = evaluator.application_probability(app, option);
    const bool better = p > best_p + 1e-15 ||
                        (std::fabs(p - best_p) <= 1e-15 && option.processors < best.processors);
    if (better) {
      second_p = best_p;
      best_p = p;
      best = option;
    } else if (p > second_p) {
      second_p = p;
    }
  }
  if (best_probability != nullptr) *best_probability = best_p;
  if (second_probability != nullptr) *second_probability = std::max(second_p, 0.0);
  return best;
}

/// MinMin's and MaxMin's pick: each application's fastest option (the first
/// of equals), for the first application whose time `wins` over `initial`
/// and every earlier application's.
template <typename Wins>
std::pair<std::size_t, GroupAssignment> pick_by_fastest(
    const RobustnessEvaluator& evaluator, const std::vector<std::size_t>& unassigned,
    const std::vector<GroupAssignment>& options, double initial, Wins wins) {
  std::size_t best_k = 0;
  GroupAssignment best_option{};
  double best_time = initial;
  for (std::size_t k = 0; k < unassigned.size(); ++k) {
    double app_best = std::numeric_limits<double>::infinity();
    GroupAssignment app_option{};
    for (const GroupAssignment& option : options) {
      const double t = evaluator.expected_completion(unassigned[k], option);
      if (t < app_best) {
        app_best = t;
        app_option = option;
      }
    }
    if (wins(app_best, best_time)) {
      best_time = app_best;
      best_k = k;
      best_option = app_option;
    }
  }
  return {best_k, best_option};
}

// ------------------------------------------------------ local-search kit --

/// Total expected completion time, summed in application order.
double total_expected(const RobustnessEvaluator& evaluator, const Allocation& allocation) {
  double sum = 0.0;
  for (std::size_t i = 0; i < allocation.size(); ++i) {
    sum += evaluator.expected_completion(i, allocation.at(i));
  }
  return sum;
}

/// The groups application i can take with every other application's group
/// fixed, its current group included; empty if the others alone overflow
/// the platform.
std::vector<GroupAssignment> reassignments(const Allocation& allocation, std::size_t i,
                                           const sysmodel::Platform& platform, CountRule rule) {
  std::vector<std::size_t> remaining = detail::capacities(platform);
  for (std::size_t k = 0; k < allocation.size(); ++k) {
    if (k == i) continue;
    const GroupAssignment& g = allocation.at(k);
    if (remaining[g.processor_type] < g.processors) return {};
    remaining[g.processor_type] -= g.processors;
  }
  return feasible_options(remaining, rule, 0);
}

/// `allocation` with application i moved to `option`.
Allocation reassigned(const Allocation& allocation, std::size_t i, GroupAssignment option) {
  std::vector<GroupAssignment> groups = allocation.groups();
  groups[i] = option;
  return Allocation(std::move(groups));
}

/// A move of application `app` to `option`, and its score.
struct Move {
  std::size_t app;
  GroupAssignment option;
  double score;
};

/// The first of the best-scoring moves of one application to a group other
/// than its current one (applications in order), if its score beats
/// `floor`; otherwise a move whose app is allocation.size().
/// `score(i, option)` may return -infinity to rule a move out.
template <typename Score>
Move best_move(const Allocation& allocation, const sysmodel::Platform& platform, CountRule rule,
               double floor, Score score) {
  Move best{allocation.size(), GroupAssignment{}, floor};
  for (std::size_t i = 0; i < allocation.size(); ++i) {
    for (const GroupAssignment& option : reassignments(allocation, i, platform, rule)) {
      if (option == allocation.at(i)) continue;
      const double value = score(i, option);
      if (value > best.score) best = Move{i, option, value};
    }
  }
  return best;
}

/// The local searches' start: applications in batch order, each on its
/// most probable group among what the earlier ones left (ties: fewer
/// processors), restricted to single-processor groups where any fit when
/// `single_processors`.
Allocation batch_order_start(const RobustnessEvaluator& evaluator,
                             const sysmodel::Platform& platform, CountRule rule,
                             bool single_processors) {
  return commit_loop(
      evaluator, platform, rule,
      [&](const std::vector<std::size_t>& unassigned,
          const std::vector<GroupAssignment>& options) {
        std::vector<GroupAssignment> singles;
        for (const GroupAssignment& option : options) {
          if (single_processors && option.processors == 1) singles.push_back(option);
        }
        const auto& pool = singles.empty() ? options : singles;
        return std::make_pair(std::size_t{0},
                              best_by_probability(evaluator, unassigned[0], pool));
      });
}

// -------------------------------------------------------- exact searches --

/// phi_1 values, and total expected times, this close tie in the exact order.
constexpr double kExactTie = 1e-9;

/// phi_1 and total expected time along the walk's current path: entry d
/// folds the first d groups left to right, so at a leaf they equal
/// joint_probability and total_expected bit for bit.
struct PathScore {
  explicit PathScore(std::size_t applications)
      : joint(applications + 1, 1.0), expected(applications + 1, 0.0) {}

  void extend(const RobustnessEvaluator& evaluator, std::size_t app, GroupAssignment option) {
    joint[app + 1] = joint[app] * evaluator.application_probability(app, option);
    expected[app + 1] = expected[app] + evaluator.expected_completion(app, option);
  }

  std::vector<double> joint;
  std::vector<double> expected;
};

/// The exact order (heuristics.hpp) over leaves offered in walk order. The
/// best phi_1 seen only rises, so near-ties never lower the bar.
struct ExactIncumbent {
  void offer(const std::vector<GroupAssignment>& candidate, double candidate_joint,
             double candidate_expected) {
    if (candidate_joint < joint - kExactTie) return;
    std::size_t candidate_processors = 0;
    for (const GroupAssignment& group : candidate) candidate_processors += group.processors;
    if (candidate_joint <= joint + kExactTie &&
        !(candidate_expected < expected - kExactTie ||
          (std::fabs(candidate_expected - expected) <= kExactTie &&
           candidate_processors < processors))) {
      return;
    }
    joint = std::max(candidate_joint, joint);
    expected = candidate_expected;
    processors = candidate_processors;
    groups = candidate;
  }

  double joint = -1.0;  // the best phi_1 offered so far
  double expected = std::numeric_limits<double>::infinity();
  std::size_t processors = 0;
  std::vector<GroupAssignment> groups;
};

/// ExhaustiveOptimal and BranchAndBoundOptimal: every leaf of the walk
/// offered to ExactIncumbent. With `bound` (entry d: an upper bound on the
/// product of the probabilities of applications d..n-1), a subtree that
/// cannot come within kExactTie of the incumbent's phi_1 is skipped; its
/// leaves would all lose anyway. `nodes` receives the nodes entered, the
/// root included.
Allocation exact_search(const RobustnessEvaluator& evaluator, const sysmodel::Platform& platform,
                        CountRule rule, const std::vector<double>* bound, std::size_t& nodes) {
  const std::size_t n = evaluator.batch().size();
  PathScore score(n);
  ExactIncumbent incumbent;
  nodes = 1;
  detail::walk_allocations(
      n, platform, detail::count_table(platform, rule),
      [&](std::size_t app, const GroupAssignment& option) {
        ++nodes;
        score.extend(evaluator, app, option);
        const std::size_t depth = app + 1;
        return bound == nullptr || depth == n ||
               !(score.joint[depth] * (*bound)[depth] < incumbent.joint - kExactTie);
      },
      [&](const std::vector<GroupAssignment>& groups) {
        incumbent.offer(groups, score.joint[n], score.expected[n]);
      });
  return Allocation(std::move(incumbent.groups));
}

}  // namespace

// ------------------------------------------------------- NaiveLoadBalance --

Allocation NaiveLoadBalance::allocate(const RobustnessEvaluator& evaluator,
                                      const sysmodel::Platform& platform,
                                      CountRule rule) const {
  require_feasible_instance(evaluator, platform);
  const std::size_t n = evaluator.batch().size();
  const std::size_t fair_share = platform.total_processors() / n;
  if (fair_share == 0) throw std::runtime_error("NaiveLoadBalance: no fair share possible");

  // Equal-share counts to try, largest first (power-of-2 rounds down).
  std::vector<std::size_t> shares = candidate_counts(fair_share, rule);
  std::sort(shares.rbegin(), shares.rend());

  for (std::size_t share : shares) {
    // Walk every type assignment with every group of size `share`; keep the
    // first with the highest joint probability.
    const detail::CountTable counts(platform.type_count(), std::vector<std::size_t>{share});
    PathScore score(n);
    std::vector<GroupAssignment> best;
    double best_joint = -1.0;
    detail::walk_allocations(
        n, platform, counts,
        [&](std::size_t app, const GroupAssignment& option) {
          score.extend(evaluator, app, option);
          return true;
        },
        [&](const std::vector<GroupAssignment>& groups) {
          if (score.joint[n] > best_joint) {
            best_joint = score.joint[n];
            best = groups;
          }
        });
    if (!best.empty()) return Allocation(std::move(best));
  }
  throw std::runtime_error("NaiveLoadBalance: no equal-share allocation fits the platform");
}

// ------------------------------------------------------ ExhaustiveOptimal --

Allocation ExhaustiveOptimal::allocate(const RobustnessEvaluator& evaluator,
                                       const sysmodel::Platform& platform,
                                       CountRule rule) const {
  require_feasible_instance(evaluator, platform);
  std::size_t nodes = 0;
  return exact_search(evaluator, platform, rule, nullptr, nodes);
}

// -------------------------------------------------- BranchAndBoundOptimal --

Allocation BranchAndBoundOptimal::allocate(const RobustnessEvaluator& evaluator,
                                           const sysmodel::Platform& platform,
                                           CountRule rule) const {
  require_feasible_instance(evaluator, platform);
  const std::size_t n = evaluator.batch().size();
  // Admissible per-application bound: the best probability achievable on
  // the FULL (capacity-relaxed) platform; suffix[d] is the product of the
  // bounds of applications d..n-1.
  const std::vector<GroupAssignment> all_options =
      feasible_options(detail::capacities(platform), rule, 0);
  std::vector<double> suffix(n + 1, 1.0);
  for (std::size_t i = n; i-- > 0;) {
    double best_possible = 0.0;
    for (const GroupAssignment& option : all_options) {
      best_possible = std::max(best_possible, evaluator.application_probability(i, option));
    }
    suffix[i] = suffix[i + 1] * best_possible;
  }
  return exact_search(evaluator, platform, rule, &suffix, nodes_visited_);
}

// ------------------------------------------------------- GreedyRobustness --

Allocation GreedyRobustness::allocate(const RobustnessEvaluator& evaluator,
                                      const sysmodel::Platform& platform,
                                      CountRule rule) const {
  Allocation allocation = batch_order_start(evaluator, platform, rule, true);

  // Steepest-ascent local search over single-application reassignments.
  double current = evaluator.joint_probability(allocation);
  const std::size_t n = allocation.size();
  for (std::size_t round = 0; round < 64 * n + 64; ++round) {
    const Move move =
        best_move(allocation, platform, rule, 1e-15, [&](std::size_t i, GroupAssignment option) {
          return evaluator.joint_probability(reassigned(allocation, i, option)) - current;
        });
    if (move.app == n) break;  // local optimum
    allocation = reassigned(allocation, move.app, move.option);
    current += move.score;
  }

  // Phase 2: phi_1 has saturated; among probability-preserving moves, hill
  // climb DOWN on the total expected completion time. Pr(Psi <= Delta)
  // alone is myopic — two allocations with equal probability can differ
  // widely in makespan, which matters the moment the next batch queues
  // behind this one (and mirrors the exact searches' tie-breaking).
  double current_expected = total_expected(evaluator, allocation);
  for (std::size_t round = 0; round < 64 * n + 64; ++round) {
    const Move move =
        best_move(allocation, platform, rule, 1e-9, [&](std::size_t i, GroupAssignment option) {
          const Allocation candidate = reassigned(allocation, i, option);
          if (evaluator.joint_probability(candidate) < current - 1e-12) {
            return -std::numeric_limits<double>::infinity();
          }
          return current_expected - total_expected(evaluator, candidate);
        });
    if (move.app == n) break;
    allocation = reassigned(allocation, move.app, move.option);
    current_expected -= move.score;
    current = evaluator.joint_probability(allocation);
  }
  return allocation;
}

// ------------------------------------------------- MinMin / MaxMinExpected --

Allocation MinMinExpected::allocate(const RobustnessEvaluator& evaluator,
                                    const sysmodel::Platform& platform, CountRule rule) const {
  return commit_loop(evaluator, platform, rule,
                     [&](const std::vector<std::size_t>& unassigned,
                         const std::vector<GroupAssignment>& options) {
                       return pick_by_fastest(evaluator, unassigned, options,
                                              std::numeric_limits<double>::infinity(),
                                              [](double t, double best) { return t < best; });
                     });
}

Allocation MaxMinExpected::allocate(const RobustnessEvaluator& evaluator,
                                    const sysmodel::Platform& platform, CountRule rule) const {
  // Commit the application whose best expected completion is the worst.
  return commit_loop(evaluator, platform, rule,
                     [&](const std::vector<std::size_t>& unassigned,
                         const std::vector<GroupAssignment>& options) {
                       return pick_by_fastest(evaluator, unassigned, options,
                                              -std::numeric_limits<double>::infinity(),
                                              [](double t, double best) { return t > best; });
                     });
}

// -------------------------------------------------------- SufferageRobust --

Allocation SufferageRobust::allocate(const RobustnessEvaluator& evaluator,
                                     const sysmodel::Platform& platform, CountRule rule) const {
  return commit_loop(
      evaluator, platform, rule,
      [&](const std::vector<std::size_t>& unassigned,
          const std::vector<GroupAssignment>& options) {
        std::size_t best_k = 0;
        GroupAssignment best_option{};
        double best_sufferage = -1.0;
        for (std::size_t k = 0; k < unassigned.size(); ++k) {
          double best_p = 0.0;
          double second_p = 0.0;
          const GroupAssignment option =
              best_by_probability(evaluator, unassigned[k], options, &best_p, &second_p);
          const double sufferage = best_p - second_p;
          if (sufferage > best_sufferage) {
            best_sufferage = sufferage;
            best_k = k;
            best_option = option;
          }
        }
        return std::make_pair(best_k, best_option);
      });
}

// ------------------------------------------------------ SimulatedAnnealing --

Allocation SimulatedAnnealing::allocate(const RobustnessEvaluator& evaluator,
                                        const sysmodel::Platform& platform,
                                        CountRule rule) const {
  Allocation current_allocation = batch_order_start(evaluator, platform, rule, false);
  double current = evaluator.joint_probability(current_allocation);
  Allocation best_allocation = current_allocation;
  double best = current;

  util::RngStream rng(options_.seed);
  double temperature = options_.initial_temperature;
  const std::size_t n = current_allocation.size();

  for (std::size_t step = 0; step < options_.iterations; ++step) {
    const auto i = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const std::vector<GroupAssignment> options =
        reassignments(current_allocation, i, platform, rule);
    if (options.empty()) continue;
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(options.size()) - 1));

    Allocation candidate = reassigned(current_allocation, i, options[pick]);
    const double joint = evaluator.joint_probability(candidate);
    const double delta = joint - current;
    if (delta >= 0.0 || rng.uniform01() < std::exp(delta / temperature)) {
      current_allocation = std::move(candidate);
      current = joint;
      if (current > best) {
        best = current;
        best_allocation = current_allocation;
      }
    }
    temperature = std::max(temperature * options_.cooling, 1e-6);
  }
  return best_allocation;
}

// ------------------------------------------------------------ TabuSearch --

Allocation TabuSearch::allocate(const RobustnessEvaluator& evaluator,
                                const sysmodel::Platform& platform, CountRule rule) const {
  Allocation current = batch_order_start(evaluator, platform, rule, false);
  double current_joint = evaluator.joint_probability(current);
  Allocation best = current;
  double best_joint = current_joint;

  const std::size_t n = current.size();
  // tabu_until[key] = move index until which (app, type, count) is tabu.
  std::unordered_map<std::uint64_t, std::size_t> tabu_until;
  auto key_of = [](std::size_t app, const GroupAssignment& g) {
    return (static_cast<std::uint64_t>(app) << 32) |
           (static_cast<std::uint64_t>(g.processor_type) << 16) |
           static_cast<std::uint64_t>(g.processors);
  };

  std::size_t stale = 0;
  for (std::size_t move = 0; move < options_.max_moves && stale < options_.patience; ++move) {
    const Move best_candidate =
        best_move(current, platform, rule, -1.0, [&](std::size_t i, GroupAssignment option) {
          const double joint = evaluator.joint_probability(reassigned(current, i, option));
          const auto it = tabu_until.find(key_of(i, option));
          const bool tabu = it != tabu_until.end() && it->second > move;
          // Aspiration: accept tabu moves only if they beat the global best.
          if (tabu && joint <= best_joint + 1e-15) return -std::numeric_limits<double>::infinity();
          return joint;
        });
    if (best_candidate.app == n) break;  // every move tabu and non-aspiring

    // Forbid undoing this application's PREVIOUS assignment for `tenure`.
    tabu_until[key_of(best_candidate.app, current.at(best_candidate.app))] =
        move + options_.tenure;
    current = reassigned(current, best_candidate.app, best_candidate.option);
    current_joint = best_candidate.score;

    if (current_joint > best_joint + 1e-15) {
      best_joint = current_joint;
      best = current;
      stale = 0;
    } else {
      ++stale;
    }
  }
  return best;
}

// -------------------------------------------------------- BestOfPortfolio --

Allocation BestOfPortfolio::allocate(const RobustnessEvaluator& evaluator,
                                     const sysmodel::Platform& platform,
                                     CountRule rule) const {
  Allocation best;
  double best_joint = -1.0;
  double best_expected = std::numeric_limits<double>::infinity();
  for (const auto& heuristic : all_heuristics(false)) {
    const Allocation candidate = heuristic->allocate(evaluator, platform, rule);
    const double joint = evaluator.joint_probability(candidate);
    const double expected = total_expected(evaluator, candidate);
    if (joint > best_joint + 1e-12 ||
        (joint > best_joint - 1e-12 && expected < best_expected)) {
      best_joint = joint;
      best_expected = expected;
      best = candidate;
    }
  }
  return best;
}

std::vector<std::unique_ptr<Heuristic>> all_heuristics(bool include_exhaustive) {
  std::vector<std::unique_ptr<Heuristic>> heuristics;
  heuristics.push_back(std::make_unique<NaiveLoadBalance>());
  if (include_exhaustive) heuristics.push_back(std::make_unique<ExhaustiveOptimal>());
  heuristics.push_back(std::make_unique<GreedyRobustness>());
  heuristics.push_back(std::make_unique<MinMinExpected>());
  heuristics.push_back(std::make_unique<MaxMinExpected>());
  heuristics.push_back(std::make_unique<SufferageRobust>());
  heuristics.push_back(std::make_unique<SimulatedAnnealing>());
  heuristics.push_back(std::make_unique<TabuSearch>());
  return heuristics;
}

}  // namespace cdsf::ra
