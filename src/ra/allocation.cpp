#include "ra/allocation.hpp"

#include <limits>
#include <sstream>
#include <stdexcept>

#include "ra/allocation_walk.hpp"

namespace cdsf::ra {

bool Allocation::fits(const sysmodel::Platform& platform) const noexcept {
  std::vector<std::size_t> used(platform.type_count(), 0);
  for (const GroupAssignment& group : groups_) {
    if (group.processors == 0) return false;
    if (group.processor_type >= platform.type_count()) return false;
    used[group.processor_type] += group.processors;
  }
  for (std::size_t j = 0; j < platform.type_count(); ++j) {
    if (used[j] > platform.processors_of_type(j)) return false;
  }
  return true;
}

std::size_t Allocation::used_of_type(std::size_t type) const noexcept {
  std::size_t used = 0;
  for (const GroupAssignment& group : groups_) {
    if (group.processor_type == type) used += group.processors;
  }
  return used;
}

std::size_t Allocation::total_processors() const noexcept {
  std::size_t total = 0;
  for (const GroupAssignment& group : groups_) total += group.processors;
  return total;
}

std::string Allocation::to_string(const sysmodel::Platform& platform) const {
  std::ostringstream out;
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    if (i > 0) out << ", ";
    out << "app" << (i + 1) << " -> " << groups_[i].processors << " x ";
    out << (groups_[i].processor_type < platform.type_count()
                ? platform.type(groups_[i].processor_type).name
                : "?");
  }
  return out.str();
}

std::vector<std::size_t> candidate_counts(std::size_t capacity, CountRule rule) {
  std::vector<std::size_t> counts;
  if (rule == CountRule::kPowerOfTwo) {
    for (std::size_t c = 1; c <= capacity; c *= 2) counts.push_back(c);
  } else {
    counts.reserve(capacity);
    for (std::size_t c = 1; c <= capacity; ++c) counts.push_back(c);
  }
  return counts;
}

namespace {

constexpr std::size_t kSaturated = std::numeric_limits<std::size_t>::max();

std::size_t saturating_add(std::size_t a, std::size_t b) {
  return a > kSaturated - b ? kSaturated : a + b;
}

/// Exact below kSaturated; a saturated factor stays saturated unless the
/// other factor is 0 (then the true product is 0 too).
std::size_t saturating_mul(std::size_t a, std::size_t b) {
  if (a == 0 || b == 0) return 0;
  return a > kSaturated / b ? kSaturated : a * b;
}

}  // namespace

std::vector<Allocation> enumerate_feasible(std::size_t applications,
                                           const sysmodel::Platform& platform, CountRule rule) {
  if (applications == 0) {
    throw std::invalid_argument("enumerate_feasible: applications must be >= 1");
  }
  std::vector<Allocation> result;
  detail::walk_allocations(
      applications, platform, detail::count_table(platform, rule),
      [](std::size_t, const GroupAssignment&) { return true; },
      [&result](const std::vector<GroupAssignment>& groups) { result.emplace_back(groups); });
  return result;
}

std::size_t count_feasible(std::size_t applications, const sysmodel::Platform& platform,
                           CountRule rule) {
  if (applications == 0) {
    throw std::invalid_argument("count_feasible: applications must be >= 1");
  }
  // Capacity binds per type only. So the count sums, over how many
  // applications k_j each type receives (sum n), the ways to choose which
  // applications those are (a multinomial) times, per type, the ordered
  // k_j-tuples of allowed counts whose sum fits its capacity. Every term is
  // a non-negative integer, so saturating arithmetic stays exact below
  // kSaturated and saturates exactly when the true count does not fit.
  const std::size_t n = applications;
  std::vector<std::vector<std::size_t>> binomial(n + 1, std::vector<std::size_t>(n + 1, 0));
  for (std::size_t a = 0; a <= n; ++a) {
    binomial[a][0] = 1;
    for (std::size_t b = 1; b <= a; ++b) {
      binomial[a][b] = saturating_add(binomial[a - 1][b - 1], binomial[a - 1][b]);
    }
  }
  // ways[m]: assignments of m labelled applications to the types so far.
  std::vector<std::size_t> ways(n + 1, 0);
  ways[0] = 1;
  for (std::size_t type = 0; type < platform.type_count(); ++type) {
    const std::size_t capacity = platform.processors_of_type(type);
    const std::vector<std::size_t> counts = candidate_counts(capacity, rule);
    // exact[s]: ordered k-tuples of allowed counts summing to s;
    // tuples[k]: those k-tuples that fit (sum <= capacity).
    std::vector<std::size_t> exact(capacity + 1, 0);
    exact[0] = 1;
    std::vector<std::size_t> tuples(n + 1, 0);
    tuples[0] = 1;
    for (std::size_t k = 1; k <= n; ++k) {
      std::vector<std::size_t> next(capacity + 1, 0);
      for (std::size_t sum = 0; sum <= capacity; ++sum) {
        if (exact[sum] == 0) continue;
        for (const std::size_t count : counts) {
          if (count > capacity - sum) break;  // counts ascend
          next[sum + count] = saturating_add(next[sum + count], exact[sum]);
        }
      }
      exact.swap(next);
      for (const std::size_t value : exact) tuples[k] = saturating_add(tuples[k], value);
      if (tuples[k] == 0) break;  // every larger k fits no tuple either
    }
    std::vector<std::size_t> next_ways(n + 1, 0);
    for (std::size_t m = 0; m <= n; ++m) {
      for (std::size_t k = 0; k <= m; ++k) {
        const std::size_t term =
            saturating_mul(saturating_mul(binomial[m][k], ways[m - k]), tuples[k]);
        next_ways[m] = saturating_add(next_ways[m], term);
      }
    }
    ways.swap(next_ways);
  }
  return ways[n];
}

}  // namespace cdsf::ra
