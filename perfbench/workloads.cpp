#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/json.hpp"
#include "obs/report.hpp"
#include "pmf/pmf.hpp"
#include "svc/journal.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace core = cdsf::core;

std::optional<Kind> workload_from_name(const std::string& name) {
  for (std::size_t k = 0; k < std::size(kWorkloadNames); ++k) {
    if (name == kWorkloadNames[k]) return static_cast<Kind>(k);
  }
  return std::nullopt;
}

const char* workload_name(Kind kind) { return kWorkloadNames[static_cast<std::size_t>(kind)]; }

bool is_solve_workload(Kind kind) { return kind != Kind::kServiceStream; }

std::size_t bench_threads() {
  const unsigned hardware = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hardware, 1, 4);
}

namespace {

// stage1-wide's deadline: phi_1 = 0.737 on the pinned batch, unsaturated.
constexpr double kWideDeadline = 1800.0;

// A crash of worker 1 at t = 1000 lands inside every application's
// parallel phase, so chunks are lost and re-dispatched; the quarantine
// section arms fail-slow detection, canaries and 10% audits.
constexpr const char* kFaultSections =
    "\n[failure]\n"
    "worker = 1\n"
    "time = 1000\n"
    "kind = crash\n"
    "\n[quarantine]\n"
    "slowdown-threshold = 4\n"
    "audit-rate = 0.1\n";

// The generated platform and its two availability cases (the shapes the
// large-scale bench uses for a 3-type system).
std::string wide_scenario_text(std::uint64_t seed) {
  using cdsf::pmf::Pmf;
  cdsf::workload::BatchSpec spec;
  spec.applications = 7;
  spec.processor_types = 3;
  core::Scenario scenario;
  scenario.platform = cdsf::sysmodel::Platform({{"type1", 16}, {"type2", 16}, {"type3", 16}});
  scenario.cases = {
      cdsf::sysmodel::AvailabilitySpec(
          "reference", {Pmf::from_pulses({{0.70, 0.30}, {1.00, 0.70}}),
                        Pmf::from_pulses({{0.40, 0.25}, {0.70, 0.25}, {1.00, 0.50}}),
                        Pmf::from_pulses({{0.25, 0.30}, {0.50, 0.40}, {0.90, 0.30}})}),
      cdsf::sysmodel::AvailabilitySpec(
          "degraded", {Pmf::from_pulses({{0.50, 0.60}, {0.80, 0.40}}),
                       Pmf::from_pulses({{0.30, 0.50}, {0.60, 0.40}, {0.90, 0.10}}),
                       Pmf::from_pulses({{0.15, 0.40}, {0.40, 0.40}, {0.70, 0.20}})})};
  scenario.batch = cdsf::workload::generate_batch(spec, seed);
  scenario.deadline = kWideDeadline;
  return core::scenario_to_text(scenario);
}

}  // namespace

SolveInput make_solve_input(Kind kind, std::uint64_t seed, std::uint64_t instance_seed) {
  SolveInput input;
  input.options.seed = seed;
  switch (kind) {
    case Kind::kPaperSolve:
      input.text = core::paper_scenario_text();
      input.options.replications = 51;
      input.options.threads = 1;
      input.paper_example = true;
      break;
    case Kind::kPaperFaults:
      // Timed at 1 thread: at nproc threads its 48 fine-grained parallel
      // regions per solve wait on every core, and on a shared host the run
      // medians swung 0.10-0.19 s with the host's steal time. The traced
      // run still times the solve at nproc threads (util.speedup).
      input.text = core::paper_scenario_text() + kFaultSections;
      input.options.replications = 51;
      input.options.threads = 1;
      input.paper_example = true;
      input.faults_armed = true;
      break;
    case Kind::kStage1Wide:
      input.text = wide_scenario_text(instance_seed);
      input.options.replications = 11;
      input.options.threads = 1;
      break;
    case Kind::kServiceStream:
      throw std::logic_error("make_solve_input: service-stream is not a solve workload");
  }
  return input;
}

ServiceInput make_service_input(std::uint64_t seed, const std::string& journal_path) {
  ServiceInput input;
  cdsf::svc::StreamConfig stream;
  stream.requests = 48;
  stream.seed = seed;
  stream.poison_fraction = 0.0;
  // Every request carries the paper deadline: with the default +-20%
  // jitter the stream's mean rho_1 moves by a few percent from seed to
  // seed, which would hide a Stage I regression of that size.
  stream.deadline_jitter = 0.0;
  input.stream = cdsf::svc::make_scripted_stream(stream);
  input.config.seed = seed;
  input.config.solve_threads = bench_threads();
  input.config.hang_fraction = 0.0;
  input.config.journal_path = journal_path;
  return input;
}

SolveRun run_solve(const SolveInput& input, const std::atomic<bool>* cancel, double* solve_s) {
  SolveRun run;
  run.scenario = core::parse_scenario_text(input.text);
  const auto start = std::chrono::steady_clock::now();
  cdsf::ra::RobustnessConfig robustness;
  robustness.cancel = cancel;
  const core::Framework framework = core::make_framework(run.scenario, robustness);
  core::SolveOptions options = input.options;
  options.cancel = cancel;
  run.outcome = core::solve_on(framework, run.scenario, options);
  if (solve_s != nullptr) {
    *solve_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  }
  run.report =
      cdsf::obs::make_scenario_report(framework, run.outcome.scenario, run.scenario.cases).dump();
  return run;
}

std::uint64_t report_digest(const std::string& report) {
  const cdsf::obs::Json doc = cdsf::obs::Json::parse(report);
  cdsf::obs::Json kept = cdsf::obs::Json::object();
  for (const auto& [key, value] : doc.members()) {
    if (key != "metrics" && key != "stage1_profile") kept.set(key, value);
  }
  return cdsf::svc::fnv1a64(kept.dump());
}

}  // namespace perfbench
