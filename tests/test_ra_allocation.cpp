#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>
#include <vector>

#include "ra/allocation.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace cdsf::ra {
namespace {

using test::small_platform;

// ------------------------------------------------------------ Allocation --

TEST(Allocation, FitsRespectsCapacity) {
  const auto platform = small_platform();  // 4 x type1, 8 x type2
  EXPECT_TRUE(Allocation({{0, 4}, {1, 8}}).fits(platform));
  EXPECT_FALSE(Allocation({{0, 5}}).fits(platform));
  EXPECT_FALSE(Allocation({{0, 2}, {0, 3}}).fits(platform));  // 5 > 4 combined
  EXPECT_FALSE(Allocation({{2, 1}}).fits(platform));          // unknown type
  EXPECT_FALSE(Allocation({{0, 0}}).fits(platform));          // empty group
}

TEST(Allocation, UsageAccounting) {
  const Allocation allocation({{0, 2}, {1, 4}, {0, 1}});
  EXPECT_EQ(allocation.used_of_type(0), 3u);
  EXPECT_EQ(allocation.used_of_type(1), 4u);
  EXPECT_EQ(allocation.total_processors(), 7u);
  EXPECT_EQ(allocation.size(), 3u);
}

TEST(Allocation, ToStringNamesTypes) {
  const Allocation allocation({{0, 2}, {1, 8}});
  const std::string text = allocation.to_string(small_platform());
  EXPECT_NE(text.find("2 x type1"), std::string::npos);
  EXPECT_NE(text.find("8 x type2"), std::string::npos);
}

// ------------------------------------------------------- candidate counts --

TEST(CandidateCounts, PowerOfTwo) {
  EXPECT_EQ(candidate_counts(8, CountRule::kPowerOfTwo),
            (std::vector<std::size_t>{1, 2, 4, 8}));
  EXPECT_EQ(candidate_counts(6, CountRule::kPowerOfTwo), (std::vector<std::size_t>{1, 2, 4}));
  EXPECT_TRUE(candidate_counts(0, CountRule::kPowerOfTwo).empty());
}

TEST(CandidateCounts, Any) {
  EXPECT_EQ(candidate_counts(3, CountRule::kAny), (std::vector<std::size_t>{1, 2, 3}));
}

// ------------------------------------------------------------ enumeration --

TEST(Enumerate, SingleAppSingleType) {
  const sysmodel::Platform platform({{"t", 4}});
  const auto all = enumerate_feasible(1, platform, CountRule::kPowerOfTwo);
  // counts {1, 2, 4}.
  EXPECT_EQ(all.size(), 3u);
}

TEST(Enumerate, AllResultsAreFeasibleAndComplete) {
  const auto platform = small_platform();
  const auto all = enumerate_feasible(3, platform, CountRule::kPowerOfTwo);
  EXPECT_FALSE(all.empty());
  std::set<std::vector<std::pair<std::size_t, std::size_t>>> unique;
  for (const Allocation& allocation : all) {
    EXPECT_EQ(allocation.size(), 3u);
    EXPECT_TRUE(allocation.fits(platform));
    std::vector<std::pair<std::size_t, std::size_t>> key;
    for (const GroupAssignment& g : allocation.groups()) {
      key.emplace_back(g.processor_type, g.processors);
    }
    unique.insert(key);
  }
  EXPECT_EQ(unique.size(), all.size());  // no duplicates
}

TEST(Enumerate, ContainsThePaperAllocations) {
  const auto all = enumerate_feasible(3, small_platform(), CountRule::kPowerOfTwo);
  const Allocation naive({{1, 4}, {0, 4}, {1, 4}});
  const Allocation robust({{0, 2}, {0, 2}, {1, 8}});
  EXPECT_NE(std::find(all.begin(), all.end(), naive), all.end());
  EXPECT_NE(std::find(all.begin(), all.end(), robust), all.end());
}

TEST(Enumerate, CountMatchesMaterialization) {
  const auto platform = small_platform();
  for (std::size_t apps : {1u, 2u, 3u}) {
    EXPECT_EQ(count_feasible(apps, platform, CountRule::kPowerOfTwo),
              enumerate_feasible(apps, platform, CountRule::kPowerOfTwo).size());
  }
  // Random small platforms under both rules.
  util::RngStream rng(2026);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<sysmodel::ProcessorType> types;
    const auto type_count = static_cast<std::size_t>(rng.uniform_int(1, 3));
    for (std::size_t j = 0; j < type_count; ++j) {
      types.push_back({std::string(1, static_cast<char>('a' + j)),
                       static_cast<std::size_t>(rng.uniform_int(1, 9))});
    }
    const sysmodel::Platform random_platform(types);
    const auto apps = static_cast<std::size_t>(rng.uniform_int(1, 4));
    for (const CountRule rule : {CountRule::kPowerOfTwo, CountRule::kAny}) {
      EXPECT_EQ(count_feasible(apps, random_platform, rule),
                enumerate_feasible(apps, random_platform, rule).size())
          << "trial " << trial << " apps " << apps;
    }
  }
}

TEST(Enumerate, CountIsExactUpToTheSizeLimitAndSaturatesBeyond) {
  // One type of capacity c under kAny holds C(c, n) allocations of n
  // applications (n positive counts summing to at most c). C(67, 33) is
  // just below 2^64 and C(68, 34) is above it.
  EXPECT_EQ(count_feasible(33, sysmodel::Platform({{"t", 67}}), CountRule::kAny),
            std::size_t{14226520737620288370ULL});
  EXPECT_EQ(count_feasible(34, sysmodel::Platform({{"t", 68}}), CountRule::kAny),
            std::numeric_limits<std::size_t>::max());
  // Far past the limit on several types, and still instant.
  EXPECT_EQ(count_feasible(60, sysmodel::Platform({{"a", 64}, {"b", 64}, {"c", 64}, {"d", 64}}),
                           CountRule::kPowerOfTwo),
            std::numeric_limits<std::size_t>::max());
  // Infeasible stays 0 even when partial counts saturate.
  EXPECT_EQ(count_feasible(70, sysmodel::Platform({{"t", 69}}), CountRule::kAny), 0u);
}

TEST(Enumerate, AnyRuleIsSuperset) {
  const auto platform = small_platform();
  EXPECT_GT(count_feasible(2, platform, CountRule::kAny),
            count_feasible(2, platform, CountRule::kPowerOfTwo));
}

TEST(Enumerate, ZeroAppsThrows) {
  EXPECT_THROW(enumerate_feasible(0, small_platform(), CountRule::kAny), std::invalid_argument);
  EXPECT_THROW(count_feasible(0, small_platform(), CountRule::kAny), std::invalid_argument);
}

TEST(Enumerate, InfeasibleWhenTooManyApps) {
  const sysmodel::Platform tiny({{"t", 2}});
  EXPECT_TRUE(enumerate_feasible(3, tiny, CountRule::kAny).empty());
}

}  // namespace
}  // namespace cdsf::ra
