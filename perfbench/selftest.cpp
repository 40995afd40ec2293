#include "selftest.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>

#include "checks.hpp"
#include "svc/journal.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

/// True when some problem mentions `needle`.
bool mentions(const std::vector<std::string>& problems, const std::string& needle) {
  for (const std::string& problem : problems) {
    if (problem.find(needle) != std::string::npos) return true;
  }
  return false;
}

void solve_checks() {
  const SolveInput input = make_solve_input(Kind::kPaperFaults, 1, 1);
  const SolveRun good = run_solve(input, nullptr);
  const std::vector<std::string> clean = check_solve(good, input);
  expect(clean.empty(), "a correct paper-faults solve passes every check");
  for (const std::string& problem : clean) std::printf("     %s\n", problem.c_str());

  struct Corruption {
    const char* name;
    const char* fires;  // text the failed check must contain
    std::function<void(SolveRun&)> apply;
  };
  const Corruption corruptions[] = {
      {"rho1 off by 1e-9", "joint_probability",
       [](SolveRun& r) { r.outcome.report.rho1 += 1e-9; }},
      {"rho1 off Table IV", "Table IV phi_1",
       [](SolveRun& r) { r.outcome.report.rho1 += 1e-3; }},
      {"allocation swapped", "differs from Table IV",
       [](SolveRun& r) {
         auto groups = r.outcome.scenario.stage_one.allocation.groups();
         std::swap(groups[0], groups[2]);
         r.outcome.scenario.stage_one.allocation = cdsf::ra::Allocation(groups);
       }},
      {"technique outcome dropped", "technique set incomplete",
       [](SolveRun& r) { r.outcome.scenario.per_case[1].outcomes[0].pop_back(); }},
      {"median not finite", "non-finite median",
       [](SolveRun& r) {
         r.outcome.scenario.per_case[2].outcomes[1][0].summary.median_makespan =
             std::numeric_limits<double>::quiet_NaN();
       }},
      {"case dropped", "case count",
       [](SolveRun& r) { r.outcome.scenario.per_case.pop_back(); }},
      {"no chunk lost", "no chunk was lost",
       [](SolveRun& r) {
         for (auto& c : r.outcome.scenario.per_case)
           for (auto& app : c.outcomes)
             for (auto& o : app) o.summary.faults_total.chunks_lost = 0;
       }},
      {"no audit", "no audit ran",
       [](SolveRun& r) {
         for (auto& c : r.outcome.scenario.per_case)
           for (auto& app : c.outcomes)
             for (auto& o : app) o.summary.quarantine_total.audits_launched = 0;
       }},
      {"no quarantine", "none tripped",
       [](SolveRun& r) {
         for (auto& c : r.outcome.scenario.per_case)
           for (auto& app : c.outcomes)
             for (auto& o : app) o.summary.quarantine_total.quarantines = 0;
       }},
  };
  for (const Corruption& corruption : corruptions) {
    SolveRun bad = good;
    corruption.apply(bad);
    expect(mentions(check_solve(bad, input), corruption.fires),
           std::string("solve check fires on: ") + corruption.name);
  }

  // Fingerprint: a repeat matches, a changed counter or report does not.
  FingerprintGuard guard;
  expect(guard.observe(solve_fingerprint(good)).empty(), "first fingerprint is the reference");
  expect(guard.observe(solve_fingerprint(run_solve(input, nullptr))).empty(),
         "a repeated solve has the same fingerprint");
  SolveRun drifted = good;
  drifted.outcome.scenario.per_case[0].outcomes[0][0].summary.replications += 1;
  expect(!guard.observe(solve_fingerprint(drifted)).empty(),
         "fingerprint fires on a changed replication count");
  SolveRun rewritten = good;
  rewritten.report.replace(rewritten.report.find("\"deadline\":3250"), 15, "\"deadline\":3251");
  expect(!guard.observe(solve_fingerprint(rewritten)).empty(),
         "fingerprint fires on a changed report");
  FingerprintGuard handed_over(guard.hash() ^ 1);
  expect(!handed_over.observe(solve_fingerprint(good)).empty(),
         "fingerprint fires on a mismatch with an earlier process");
}

void service_checks(const std::string& scratch) {
  std::filesystem::create_directories(scratch);
  const std::string journal_path = scratch + "/selftest-journal.jsonl";
  ServiceInput input = make_service_input(1, journal_path);
  input.stream.resize(6);
  cdsf::svc::SchedulingService service(input.config);
  const cdsf::svc::ServiceRunResult good = service.run(input.stream);
  const cdsf::svc::RecoveredJournal journal = cdsf::svc::load_journal(journal_path);
  const std::vector<std::string> clean = check_service(input, good, journal);
  expect(clean.empty(), "a correct service run passes every check");
  for (const std::string& problem : clean) std::printf("     %s\n", problem.c_str());

  cdsf::svc::ServiceRunResult short_count = good;
  short_count.delivered -= 1;
  expect(mentions(check_service(input, short_count, journal), "delivered 5 of 6"),
         "service check fires on a missing delivery count");
  cdsf::svc::ServiceRunResult failed_one = good;
  failed_one.requests[2].outcome = cdsf::svc::RequestOutcome::kFailed;
  expect(mentions(check_service(input, failed_one, journal), "completed 5 of 6"),
         "service check fires on a failed request");
  cdsf::svc::ServiceRunResult twice = good;
  twice.delivered_reports[1].first = twice.delivered_reports[0].first;
  const std::vector<std::string> twice_problems = check_service(input, twice, journal);
  expect(mentions(twice_problems, "delivered twice") && mentions(twice_problems, "never delivered"),
         "service check fires on a double delivery");
  cdsf::svc::RecoveredJournal unfinished = journal;
  unfinished.completed.pop_back();
  expect(mentions(check_service(input, good, unfinished), "unfinished"),
         "service check fires on a non-empty replay set");

  FingerprintGuard guard;
  expect(guard.observe(service_fingerprint(good)).empty(), "service fingerprint reference");
  cdsf::svc::ServiceRunResult hedged = good;
  hedged.hedges += 1;
  expect(!guard.observe(service_fingerprint(hedged)).empty(),
         "service fingerprint fires on a changed hedge count");
  std::filesystem::remove(journal_path);
}

}  // namespace

int run_self_test(const std::string& scratch) {
  solve_checks();
  service_checks(scratch);
  std::printf("%s: %d failure(s)\n", failures == 0 ? "self-test passed" : "self-test FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
