#include "tracing.hpp"

#include <fstream>
#include <stdexcept>

#include "dls/registry.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"

namespace perfbench {

namespace core = cdsf::core;

double SpanLog::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

int SpanLog::open(std::string name, int parent, std::uint64_t solve) {
  spans_.push_back(Span{std::move(name), now(), 0.0, parent, solve});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int span) { spans_.at(static_cast<std::size_t>(span)).end = now(); }

double SpanLog::seconds(int span) const {
  const Span& s = spans_.at(static_cast<std::size_t>(span));
  return s.end - s.start;
}

void SpanLog::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (const Span& span : spans_) {
    cdsf::obs::Json line = cdsf::obs::Json::object();
    line.set("name", span.name);
    line.set("start", span.start);
    line.set("end", span.end);
    line.set("parent", span.parent);
    line.set("solve", span.solve);
    out << line.dump() << '\n';
  }
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

MirroredSolve mirror_solve(const SolveInput& input, SpanLog& log, std::uint64_t solve_id,
                           const std::atomic<bool>* cancel) {
  MirroredSolve mirrored;
  SolveRun& run = mirrored.run;
  const int root = log.open("solve", -1, solve_id);
  // Closes a child span of the root and books its time.
  const auto book = [&](int id) {
    log.close(id);
    const Span& closed = log.spans()[static_cast<std::size_t>(id)];
    mirrored.layer_s[closed.name] += log.seconds(id);
  };
  // Runs `call` inside a child span of the root.
  const auto span = [&](const char* name, auto&& call) {
    const int id = log.open(name, root, solve_id);
    call();
    book(id);
  };

  span("cdsf.parse", [&] { run.scenario = core::parse_scenario_text(input.text); });
  // Built in place: a Framework must not be moved (its evaluator points
  // into it).
  const int framework_span = log.open("cdsf.framework", root, solve_id);
  cdsf::ra::RobustnessConfig robustness;
  robustness.cancel = cancel;
  const core::Framework framework = core::make_framework(run.scenario, robustness);
  book(framework_span);
  span("ra.count", [&] {
    run.outcome.feasible_space = cdsf::ra::count_feasible(
        run.scenario.batch.size(), run.scenario.platform, cdsf::ra::CountRule::kPowerOfTwo);
  });
  core::ScenarioResult& result = run.outcome.scenario;
  result.name = "cdsf";
  span("ra.search", [&] {
    const cdsf::ra::ExhaustiveOptimal exhaustive;
    const cdsf::ra::BestOfPortfolio portfolio;
    const cdsf::ra::Heuristic& heuristic =
        run.outcome.feasible_space <= input.options.exhaustive_space_limit
            ? static_cast<const cdsf::ra::Heuristic&>(exhaustive)
            : static_cast<const cdsf::ra::Heuristic&>(portfolio);
    result.stage_one = framework.run_stage_one(heuristic);
  });
  core::StageTwoConfig config;
  config.replications = input.options.replications;
  config.seed = input.options.seed;
  config.threads = input.options.threads;
  config.sim.failures = run.scenario.failures;
  config.sim.quarantine = run.scenario.quarantine;
  config.sim.cancel = cancel;
  for (const cdsf::sysmodel::AvailabilitySpec& runtime : run.scenario.cases) {
    span("sim.stage2", [&] {
      result.per_case.push_back(framework.run_stage_two(
          result.stage_one.allocation, runtime, cdsf::dls::paper_robust_set(), config));
    });
  }
  span("cdsf.certificate", [&] {
    run.outcome.report = framework.robustness_report(result, run.scenario.cases);
  });
  span("obs.report", [&] {
    run.report = cdsf::obs::make_scenario_report(framework, result, run.scenario.cases).dump();
  });
  log.close(root);
  mirrored.total_s = log.seconds(root);
  return mirrored;
}

}  // namespace perfbench
