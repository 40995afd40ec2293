// The one walk of the allocation tree. enumerate_feasible,
// ExhaustiveOptimal, BranchAndBoundOptimal and NaiveLoadBalance all run on
// it; they differ only in the counts they offer and in what they do at a
// node and at a leaf. A template over the caller's callbacks, so a node
// pays no indirect call. Not public API.
#pragma once

#include <cstddef>
#include <vector>

#include "ra/allocation.hpp"
#include "sysmodel/platform.hpp"

namespace cdsf::ra::detail {

/// Counts one group may take, per type, ascending.
using CountTable = std::vector<std::vector<std::size_t>>;

/// Processors of every type.
inline std::vector<std::size_t> capacities(const sysmodel::Platform& platform) {
  std::vector<std::size_t> capacity(platform.type_count());
  for (std::size_t type = 0; type < capacity.size(); ++type) {
    capacity[type] = platform.processors_of_type(type);
  }
  return capacity;
}

/// candidate_counts of every type at its full capacity.
inline CountTable count_table(const sysmodel::Platform& platform, CountRule rule) {
  CountTable table(platform.type_count());
  for (std::size_t type = 0; type < table.size(); ++type) {
    table[type] = candidate_counts(platform.processors_of_type(type), rule);
  }
  return table;
}

/// Depth-first over the complete allocations of `applications` groups onto
/// `platform`, application-major: application i tries every type in
/// ascending order and, on each, every count of `counts[type]` that fits
/// the type's remaining capacity. An option must also leave one processor
/// for each later application; that cuts only subtrees without a leaf, so
/// the leaves and their order are those of the unpruned tree.
///
/// `enter(app, option)` runs before `option` becomes application app's
/// group and returns false to skip that subtree; `leaf(groups)` receives
/// each complete allocation.
template <typename Enter, typename Leaf>
void walk_allocations(std::size_t applications, const sysmodel::Platform& platform,
                      const CountTable& counts, Enter enter, Leaf leaf) {
  std::vector<GroupAssignment> groups(applications);
  std::vector<std::size_t> remaining = capacities(platform);
  std::size_t total = platform.total_processors();
  const auto walk = [&](const auto& self, std::size_t app) -> void {
    if (app == applications) {
      leaf(groups);
      return;
    }
    const std::size_t reserve = applications - app - 1;
    for (std::size_t type = 0; type < remaining.size(); ++type) {
      for (const std::size_t count : counts[type]) {
        if (count > remaining[type] || total - count < reserve) break;  // counts ascend
        const GroupAssignment option{type, count};
        if (!enter(app, option)) continue;
        groups[app] = option;
        remaining[type] -= count;
        total -= count;
        self(self, app + 1);
        remaining[type] += count;
        total += count;
      }
    }
  };
  walk(walk, 0);
}

}  // namespace cdsf::ra::detail
