#include "checks.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <set>

#include "cdsf/paper_example.hpp"
#include "dls/registry.hpp"
#include "ra/robustness.hpp"

namespace perfbench {

namespace {

/// Table IV robust IM: phi_1 of app1 -> 2 x type1, app2 -> 2 x type1,
/// app3 -> 8 x type2.
constexpr double kTableFourPhi1 = 0.746094;

}  // namespace

SimTotals sim_totals(const cdsf::core::ScenarioResult& scenario) {
  SimTotals totals;
  for (const cdsf::core::StageTwoResult& per_case : scenario.per_case) {
    for (const auto& app : per_case.outcomes) {
      for (const cdsf::core::AppTechniqueOutcome& outcome : app) {
        totals.replications += outcome.summary.replications;
        totals.chunks_lost += outcome.summary.faults_total.chunks_lost;
        totals.wasted_work += outcome.summary.faults_total.wasted_work;
        totals.audits += outcome.summary.quarantine_total.audits_launched;
        totals.quarantines += outcome.summary.quarantine_total.quarantines;
        totals.probes += outcome.summary.quarantine_total.probes_launched;
      }
    }
  }
  return totals;
}

std::vector<std::string> check_solve(const SolveRun& run, const SolveInput& input) {
  std::vector<std::string> problems;
  const cdsf::core::ScenarioResult& result = run.outcome.scenario;
  const cdsf::ra::Allocation& allocation = result.stage_one.allocation;
  const std::size_t apps = run.scenario.batch.size();
  const double rho1 = run.outcome.report.rho1;

  if (allocation.size() != apps || !allocation.fits(run.scenario.platform)) {
    problems.emplace_back("allocation does not cover the batch within capacity");
  } else {
    const cdsf::ra::RobustnessEvaluator fresh(run.scenario.batch, run.scenario.cases.front(),
                                              run.scenario.deadline);
    const double joint = fresh.joint_probability(allocation);
    if (!(std::fabs(joint - rho1) <= 1e-12)) {
      char line[128];
      std::snprintf(line, sizeof line, "rho1 %.17g != joint_probability %.17g", rho1, joint);
      problems.emplace_back(line);
    }
  }

  const std::vector<cdsf::dls::TechniqueId>& techniques = cdsf::dls::paper_robust_set();
  if (result.per_case.size() != run.scenario.cases.size()) {
    problems.emplace_back("case count differs from the scenario");
  }
  for (const cdsf::core::StageTwoResult& per_case : result.per_case) {
    bool complete = per_case.outcomes.size() == apps;
    bool finite = true;
    for (const auto& app : per_case.outcomes) {
      complete = complete && app.size() == techniques.size();
      for (std::size_t k = 0; k < app.size(); ++k) {
        complete = complete && k < techniques.size() && app[k].technique == techniques[k];
        finite = finite && std::isfinite(app[k].summary.median_makespan);
      }
    }
    if (!complete) {
      problems.push_back("case " + per_case.case_name + ": technique set incomplete");
    }
    if (!finite) problems.push_back("case " + per_case.case_name + ": non-finite median");
  }

  if (input.paper_example) {
    if (!(allocation == cdsf::core::paper_robust_allocation())) {
      problems.emplace_back("Stage I allocation differs from Table IV");
    }
    if (!(std::fabs(rho1 - kTableFourPhi1) <= 5e-7)) {
      problems.emplace_back("rho1 differs from Table IV phi_1 = 0.746094");
    }
  }
  if (input.faults_armed) {
    const SimTotals totals = sim_totals(result);
    if (totals.chunks_lost == 0) problems.emplace_back("faults armed but no chunk was lost");
    if (totals.audits == 0) problems.emplace_back("quarantine armed but no audit ran");
    if (totals.quarantines == 0) problems.emplace_back("quarantine armed but none tripped");
  }
  return problems;
}

std::vector<std::string> check_service(const ServiceInput& input,
                                       const cdsf::svc::ServiceRunResult& result,
                                       const cdsf::svc::RecoveredJournal& journal) {
  std::vector<std::string> problems;
  const std::size_t requests = input.stream.size();
  if (result.delivered != requests) {
    problems.push_back("delivered " + std::to_string(result.delivered) + " of " +
                       std::to_string(requests) + " requests");
  }
  std::size_t completed = 0;
  for (const cdsf::svc::RequestRecord& record : result.requests) {
    if (record.outcome != cdsf::svc::RequestOutcome::kCompleted) continue;
    ++completed;
    if (!(record.rho1 >= 0.0 && record.rho1 <= 1.0)) {
      problems.push_back("request " + std::to_string(record.id) + ": rho1 out of [0, 1]");
    }
  }
  if (completed != requests) {
    problems.push_back("completed " + std::to_string(completed) + " of " +
                       std::to_string(requests) + " requests");
  }
  std::set<std::uint64_t> ids;
  for (const auto& [id, report] : result.delivered_reports) {
    if (!ids.insert(id).second) {
      problems.push_back("request " + std::to_string(id) + " delivered twice");
    }
  }
  for (const cdsf::svc::ScenarioRequest& request : input.stream) {
    if (ids.count(request.id) == 0) {
      problems.push_back("request " + std::to_string(request.id) + " never delivered");
    }
  }
  if (!journal.unfinished().empty()) {
    problems.push_back("journal replay set holds " + std::to_string(journal.unfinished().size()) +
                       " unfinished requests");
  }
  return problems;
}

std::string solve_fingerprint(const SolveRun& run) {
  const SimTotals totals = sim_totals(run.outcome.scenario);
  char text[320];
  std::snprintf(text, sizeof text,
                "space=%zu reps=%" PRIu64 " lost=%" PRIu64 " wasted=%.17g audits=%" PRIu64
                " quarantines=%" PRIu64 " probes=%" PRIu64 " report=%016" PRIx64,
                run.outcome.feasible_space, totals.replications, totals.chunks_lost,
                totals.wasted_work, totals.audits, totals.quarantines, totals.probes,
                report_digest(run.report));
  return text;
}

std::string service_fingerprint(const cdsf::svc::ServiceRunResult& result) {
  std::uint64_t attempts = 0;
  for (const cdsf::svc::RequestRecord& record : result.requests) attempts += record.attempts;
  char text[200];
  std::snprintf(text, sizeof text,
                "attempts=%" PRIu64 " hedges=%" PRIu64 " delivered=%" PRIu64 " report=%016" PRIx64,
                attempts, result.hedges, result.delivered,
                cdsf::svc::fnv1a64(result.report.dump()));
  return text;
}

std::string FingerprintGuard::observe(const std::string& fingerprint) {
  const std::uint64_t hash = cdsf::svc::fnv1a64(fingerprint);
  if (!expected_hash_) {
    expected_hash_ = hash;
    first_ = fingerprint;
    return {};
  }
  if (hash == *expected_hash_) {
    if (first_.empty()) first_ = fingerprint;
    return {};
  }
  return "fingerprint changed: [" + fingerprint + "] vs " +
         (first_.empty() ? "an earlier process of this run" : "[" + first_ + "]");
}

}  // namespace perfbench
