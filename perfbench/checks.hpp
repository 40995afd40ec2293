// Result checks (each failed check makes its operation count as failed)
// and the determinism fingerprint.
//
// The checks read no Stage II verdict and no rho_2, so a change to how
// Stage II decides (fewer replications, sequential stopping) does not trip
// them. They do read:
//   - rho_1 against joint_probability of the returned allocation on a
//     fresh RobustnessEvaluator;
//   - that every case holds every paper_robust_set() outcome per
//     application, each with a finite median makespan;
//   - Table IV on the paper example;
//   - nonzero chunk-loss, audit and quarantine counters where faults are
//     armed;
//   - exactly-once delivery and an empty replay set for the service.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "svc/journal.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Stage II work and fault counters of one solve, summed over every
/// (case, application, technique).
struct SimTotals {
  std::uint64_t replications = 0;
  std::uint64_t chunks_lost = 0;
  double wasted_work = 0.0;
  std::uint64_t audits = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t probes = 0;
};
[[nodiscard]] SimTotals sim_totals(const cdsf::core::ScenarioResult& scenario);

/// Problems found in one solve; empty when the solve is correct.
[[nodiscard]] std::vector<std::string> check_solve(const SolveRun& run, const SolveInput& input);

/// Problems found in one service run; `journal` is what load_journal read
/// back after the run.
[[nodiscard]] std::vector<std::string> check_service(const ServiceInput& input,
                                                     const cdsf::svc::ServiceRunResult& result,
                                                     const cdsf::svc::RecoveredJournal& journal);

/// The counters that must repeat exactly for identical inputs, as text:
/// feasible-space size, replications, fault and quarantine totals and the
/// report digest of a solve...
[[nodiscard]] std::string solve_fingerprint(const SolveRun& run);
/// ...and attempts, hedges, deliveries and the service-report digest of a
/// service run.
[[nodiscard]] std::string service_fingerprint(const cdsf::svc::ServiceRunResult& result);

/// Holds the first fingerprint seen (or one handed over from an earlier
/// process of the same invocation) and compares every later one with it.
class FingerprintGuard {
 public:
  /// `expected_hash` is the hex FNV-1a hash another process reported.
  explicit FingerprintGuard(std::optional<std::uint64_t> expected_hash = std::nullopt)
      : expected_hash_(expected_hash) {}

  /// Empty when `fingerprint` agrees with what came before, else the
  /// reason it does not.
  [[nodiscard]] std::string observe(const std::string& fingerprint);

  /// Hash of the reference fingerprint (0 before the first observe()).
  [[nodiscard]] std::uint64_t hash() const noexcept { return expected_hash_.value_or(0); }

 private:
  std::optional<std::uint64_t> expected_hash_;
  std::string first_;
};

}  // namespace perfbench
