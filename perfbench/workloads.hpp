// The four benchmark workloads: how each one's inputs are generated from
// the workload seed, and the one operation each one times.
//
//   paper-solve     the paper example (4 availability cases), 51
//                   replications, 1 thread: `cdsf scenario` as shipped.
//   paper-faults    the paper example plus a mid-parallel-phase crash of
//                   worker 1 and the fail-slow quarantine/audit layer,
//                   51 replications, 1 thread (nproc in the traced run).
//   stage1-wide     a generated 7-application batch on 3 types x 16
//                   processors (reference + degraded case, deadline 1800),
//                   11 replications, 1 thread: Stage I dominates.
//   service-stream  48 healthy scripted requests (the paper example, no
//                   deadline jitter) through the scheduling service
//                   (default config, nproc Phase B threads, journal on).
//
// A solve operation is scenario text -> parse_scenario_text ->
// make_framework -> solve_on -> make_scenario_report(...).dump(), which is
// the `cdsf scenario --report-json` path. A service operation is one
// SchedulingService::run over the whole stream.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cdsf/scenario_io.hpp"
#include "cdsf/solve.hpp"
#include "svc/request.hpp"
#include "svc/service.hpp"

namespace perfbench {

enum class Kind { kPaperSolve, kPaperFaults, kStage1Wide, kServiceStream };

/// Workload names as the command line takes them, in Kind order.
inline constexpr const char* kWorkloadNames[] = {"paper-solve", "paper-faults", "stage1-wide",
                                                 "service-stream"};

[[nodiscard]] std::optional<Kind> workload_from_name(const std::string& name);
[[nodiscard]] const char* workload_name(Kind kind);
[[nodiscard]] bool is_solve_workload(Kind kind);

/// Inputs of a solve workload.
struct SolveInput {
  std::string text;  // the scenario file the operation parses
  cdsf::core::SolveOptions options;
  /// Table IV applies: the paper example's Stage I answer is known.
  bool paper_example = false;
  /// [failure] + [quarantine] are armed: their counters must be nonzero.
  bool faults_armed = false;
};

/// Inputs of the service workload.
struct ServiceInput {
  std::vector<cdsf::svc::ScenarioRequest> stream;
  cdsf::svc::ServiceConfig config;
};

/// Threads a workload may use: hardware concurrency, capped at 4 so the
/// load shape does not change with the host.
[[nodiscard]] std::size_t bench_threads();

/// Builds a solve workload's inputs. `seed` seeds Stage II;
/// `instance_seed` picks stage1-wide's generated batch, which is pinned
/// (default 1) so that rho_1 and the Stage I cost do not move with `seed`.
[[nodiscard]] SolveInput make_solve_input(Kind kind, std::uint64_t seed,
                                          std::uint64_t instance_seed);

/// Builds the service workload's inputs; the journal goes to `journal_path`.
[[nodiscard]] ServiceInput make_service_input(std::uint64_t seed, const std::string& journal_path);

/// What one solve operation produced (everything the checks read).
struct SolveRun {
  cdsf::core::Scenario scenario;
  cdsf::core::SolveOutcome outcome;
  std::string report;  // the dumped cdsf.scenario_report bytes
};

/// One solve operation. `cancel` is wired into both stages, so the
/// operation cap can stop it at the next poll. `solve_s`, when given,
/// receives the seconds spent in make_framework + solve_on, the part
/// core::solve_scenario covers.
[[nodiscard]] SolveRun run_solve(const SolveInput& input, const std::atomic<bool>* cancel,
                                 double* solve_s = nullptr);

/// FNV-1a digest of a scenario report with its process-cumulative members
/// ("metrics", "stage1_profile") removed: the part that must repeat
/// exactly for identical inputs.
[[nodiscard]] std::uint64_t report_digest(const std::string& report);

}  // namespace perfbench
