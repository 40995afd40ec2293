// Solve-path and service benchmark driver.
//
//   perfbench_driver --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//
// Untraced (--trace 0): set up (generate inputs, parse, one warm-up
// operation), then time operations for S seconds and print the end-to-end
// metrics. Traced (--trace 1): replay each solve as the sequence of public
// calls core::solve_on makes, one span per call, plus the out-of-path
// probes (B&B oracle, PMF construction, 1-thread re-run, serial service
// re-solves), and print the per-layer metrics. Either way the last line
// of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// perfbench/run.py builds this program and runs it; see perfbench/README.md.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "opcap.hpp"
#include "ra/heuristics.hpp"
#include "selftest.hpp"
#include "tracing.hpp"
#include "util/cancel.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace core = cdsf::core;
namespace svc = cdsf::svc;
using Clock = std::chrono::steady_clock;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed by untraced runs. error_rate is printed beside them but carried
// in the JSON as failed / attempted: it is 0 on a healthy run.
constexpr MetricDef kEndToEnd[] = {
    {"solve_s_p50", "s"},         {"solve_s_tail", "s"}, {"throughput_rps", "requests/s"},
    {"rho1", "probability"},      {"peak_rss_mb", "MiB"}, {"setup_s", "s"},
};

// Printed by traced runs. A layer the workload does not reach reads 0.
constexpr MetricDef kPerLayer[] = {
    {"cdsf.parse_s", "s"},
    {"cdsf.scenario_bytes", "bytes"},
    {"cdsf.framework_s", "s"},
    {"cdsf.certificate_s", "s"},
    {"ra.count_s", "s"},
    {"ra.feasible_space", "count"},
    {"ra.search_s", "s"},
    {"ra.bnb_s", "s"},
    {"ra.bnb_nodes", "count"},
    {"ra.rho1_gap", "probability"},
    {"pmf.build_s", "s"},
    {"pmf.pulses", "count"},
    {"sim.stage2_s", "s"},
    {"sim.replications", "count"},
    {"sim.replication_us", "us"},
    {"sim.chunks_lost", "count"},
    {"sim.wasted_work", "time_units"},
    {"sim.audits", "count"},
    {"sim.quarantines", "count"},
    {"sim.probes", "count"},
    {"util.speedup", "ratio"},
    {"util.efficiency", "ratio"},
    {"svc.run_s", "s"},
    {"svc.solve_s_p50", "s"},
    {"svc.phase_b_efficiency", "ratio"},
    {"svc.attempts", "count"},
    {"svc.hedges", "count"},
    {"svc.useful_attempt_frac", "fraction"},
    {"svc.virtual_latency_p50", "virtual_s"},
    {"svc.journal_bytes", "bytes"},
    {"svc.recover_s", "s"},
    {"obs.report_s", "s"},
    {"obs.report_bytes", "bytes"},
    {"trace.mirror_ratio", "ratio"},
    {"trace.mirror_identical", "count"},
    {"trace.overhead", "ratio"},
};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The tail percentile of a workload's operation times: p75, the highest
/// quartile that leaves at least ten samples beyond it at the 40-60 solves
/// a 15 s run of the paper workloads completes, fixed so that runs (and
/// commits) compare at one level. stage1-wide and service-stream finish
/// 10-25 operations in a run, too few for it, and report the maximum.
double tail_level(Kind kind) {
  return kind == Kind::kPaperSolve || kind == Kind::kPaperFaults ? 0.75 : 1.0;
}

/// Nearest-rank percentile at `level` (1 = the maximum).
double percentile(std::vector<double> values, double level) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(level * static_cast<double>(values.size()));
  return values[static_cast<std::size_t>(std::max(rank, 1.0)) - 1];
}

/// Peak resident set of this process (VmHWM). getrusage's ru_maxrss is
/// not used: it keeps the high-water mark of the process that forked this
/// one.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

/// Keeps every benchmark thread's core busy for `seconds`. Run before any
/// timing: on a virtual machine whose cores have been idle, the first
/// multi-threaded solves wait on core wake-ups and run up to 3x slower.
void spin_cores(double seconds) {
  const Clock::time_point end =
      Clock::now() +
      std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < bench_threads(); ++t) {
    threads.emplace_back([end] {
      while (Clock::now() < end) {
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

/// Jiffies of (all, stolen) CPU time on the host's /proc/stat cpu line.
std::pair<double, double> cpu_jiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double total = 0.0;
  double steal = 0.0;
  for (int field = 0; field < 8; ++field) {
    double value = 0.0;
    if (!(stat >> value)) break;
    total += value;
    if (field == 7) steal = value;
  }
  return {total, steal};
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t instance_seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".bench_build/run";
  double op_cap = 60.0;
  double op_grace = 5.0;
  bool setup_only = false;
  std::optional<std::int64_t> t0_ns;
  std::vector<double> setup_samples;
  std::size_t prior_attempted = 0;
  std::size_t prior_failed = 0;
  std::optional<std::uint64_t> expect_fingerprint;
  bool self_test = false;
  double spin = 0.0;
};

std::vector<double> parse_list(const std::string& text) {
  std::vector<double> values;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(',', pos);
    if (end == std::string::npos) end = text.size();
    if (end > pos) values.push_back(std::stod(text.substr(pos, end - pos)));
    pos = end + 1;
  }
  return values;
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") args.workload = value();
    else if (flag == "--seed") args.seed = std::stoull(value());
    else if (flag == "--instance-seed") args.instance_seed = std::stoull(value());
    else if (flag == "--seconds") args.seconds = std::stod(value());
    else if (flag == "--trace") args.trace = value() != "0";
    else if (flag == "--scratch") args.scratch = value();
    else if (flag == "--op-cap") args.op_cap = std::stod(value());
    else if (flag == "--op-grace") args.op_grace = std::stod(value());
    else if (flag == "--setup-only") args.setup_only = true;
    else if (flag == "--t0-ns") args.t0_ns = std::stoll(value());
    else if (flag == "--setup-samples") args.setup_samples = parse_list(value());
    else if (flag == "--prior-attempted") args.prior_attempted = std::stoull(value());
    else if (flag == "--prior-failed") args.prior_failed = std::stoull(value());
    else if (flag == "--expect-fingerprint")
      args.expect_fingerprint = std::stoull(value(), nullptr, 16);
    else if (flag == "--self-test") args.self_test = true;
    else if (flag == "--spin") args.spin = std::stod(value());
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (!args.self_test && args.spin <= 0.0 && !workload_from_name(args.workload)) {
    return std::nullopt;
  }
  return args;
}

/// The state of one benchmark process: operation counts, samples and the
/// metric values, guarded by one mutex so the op-cap watchdog can report
/// the run while an operation is stuck.
class Bench {
 public:
  Bench(const Args& args, Kind kind)
      : args_(args),
        kind_(kind),
        fingerprint_(args.expect_fingerprint),
        cap_(args.op_cap, args.op_grace, [this] { abandon(); }) {
    attempted_ = args.prior_attempted;
    failed_ = args.prior_failed;
    if (args.prior_failed > 0) note_failure("a set-up process of this run failed");
  }

  int run();

 private:
  // -- operations ------------------------------------------------------
  void begin_op() {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++attempted_;
  }
  /// Books the end of an operation; returns true when it succeeded.
  bool end_op(const std::vector<std::string>& problems) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (problems.empty()) return true;
    ++failed_;
    for (const std::string& problem : problems) note_failure_locked(problem);
    return false;
  }
  void note_failure(const std::string& problem) {
    const std::lock_guard<std::mutex> lock(mutex_);
    note_failure_locked(problem);
  }
  void note_failure_locked(const std::string& problem) {
    correct_ = false;
    if (failures_.size() < 20) failures_.push_back(problem);
  }
  void note(std::string line) {
    const std::lock_guard<std::mutex> lock(mutex_);
    notes_.push_back(std::move(line));
  }
  void set_metric(const std::string& name, double value) {
    const std::lock_guard<std::mutex> lock(mutex_);
    metrics_[name] = value;
  }

  /// Runs `work` as one operation under the wall cap: `cancel` is called
  /// at the cap. Returns what went wrong (a throw, an overrun).
  std::vector<std::string> capped(const std::string& what, std::function<void()> cancel,
                                  const std::function<void()>& work);
  /// One solve; fills `seconds` (whole operation) and `solve_s`
  /// (make_framework + solve_on). Empty when the solve failed.
  std::optional<SolveRun> solve_op(const SolveInput& input, double* seconds,
                                   double* solve_s = nullptr);
  /// One traced solve.
  std::optional<MirroredSolve> mirrored_op(const SolveInput& input);
  /// Result checks + fingerprint of a finished solve.
  std::vector<std::string> vet_solve(const SolveRun& run, const SolveInput& input);

  struct ServiceOp {
    svc::ServiceRunResult result;
    double run_s = 0.0;
    double recover_s = 0.0;
    std::uintmax_t journal_bytes = 0;
  };
  std::optional<ServiceOp> service_op(const ServiceInput& input);

  // -- phases ----------------------------------------------------------
  /// Builds the inputs and runs the warm-up operation.
  void setup();
  void measure_solves();
  void measure_service();
  void trace_solves();
  void trace_service();

  // -- output ----------------------------------------------------------
  void finish_end_to_end_locked();
  void emit_locked();
  [[noreturn]] void abandon();

  const Args& args_;
  const Kind kind_;
  FingerprintGuard fingerprint_;
  std::optional<SolveInput> solve_input_;
  std::optional<ServiceInput> service_input_;
  SpanLog spans_;
  std::uint64_t next_solve_id_ = 1;

  mutable std::mutex mutex_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  bool correct_ = true;
  std::vector<std::string> failures_;
  std::map<std::string, double> metrics_;
  std::vector<double> op_s_;       // successful timed operations
  std::vector<double> rate_rps_;   // service-stream: delivered / run seconds, per stream
  double rho1_ = 0.0;
  std::vector<double> setup_s_;
  std::vector<std::string> notes_;  // extra human-readable lines

  // Declared last: its watchdog thread calls abandon(), which reads every
  // member above.
  OpCap cap_;
};

std::vector<std::string> Bench::vet_solve(const SolveRun& run, const SolveInput& input) {
  std::vector<std::string> problems = check_solve(run, input);
  const std::string mismatch = fingerprint_.observe(solve_fingerprint(run));
  if (!mismatch.empty()) problems.push_back(mismatch);
  return problems;
}

std::vector<std::string> Bench::capped(const std::string& what, std::function<void()> cancel,
                                       const std::function<void()>& work) {
  std::vector<std::string> problems;
  const OpCap::Guard guard(cap_, std::move(cancel));
  try {
    work();
  } catch (const std::exception& error) {
    problems.push_back(what + " threw: " + error.what());
  }
  if (guard.overran()) problems.push_back(what + " exceeded the wall cap");
  return problems;
}

std::optional<SolveRun> Bench::solve_op(const SolveInput& input, double* seconds, double* solve_s) {
  begin_op();
  cdsf::util::CancelToken token;
  std::optional<SolveRun> run;
  std::vector<std::string> problems = capped("solve", [&token] { token.cancel(); }, [&] {
    const Clock::time_point start = Clock::now();
    run = run_solve(input, token.flag(), solve_s);
    *seconds = seconds_since(start);
  });
  if (problems.empty()) problems = vet_solve(*run, input);
  if (!end_op(problems)) return std::nullopt;
  return run;
}

std::optional<MirroredSolve> Bench::mirrored_op(const SolveInput& input) {
  begin_op();
  cdsf::util::CancelToken token;
  std::optional<MirroredSolve> mirrored;
  std::vector<std::string> problems = capped("traced solve", [&token] { token.cancel(); }, [&] {
    mirrored = mirror_solve(input, spans_, next_solve_id_++, token.flag());
  });
  if (problems.empty()) problems = vet_solve(mirrored->run, input);
  if (!end_op(problems)) return std::nullopt;
  return mirrored;
}

std::optional<Bench::ServiceOp> Bench::service_op(const ServiceInput& input) {
  begin_op();
  std::optional<ServiceOp> op;
  std::vector<svc::ScenarioRequest> stream = input.stream;
  std::optional<svc::SchedulingService> service;
  std::vector<std::string> problems = capped(
      "service run", [&service] { if (service) service->cancel_token().cancel(); }, [&] {
        service.emplace(input.config);
        const Clock::time_point start = Clock::now();
        svc::ServiceRunResult result = service->run(std::move(stream));
        op = ServiceOp{std::move(result), seconds_since(start), 0.0, 0};
      });
  if (problems.empty()) {
    try {
      const Clock::time_point start = Clock::now();
      const svc::RecoveredJournal journal = svc::load_journal(input.config.journal_path);
      op->recover_s = seconds_since(start);
      op->journal_bytes = std::filesystem::file_size(input.config.journal_path);
      problems = check_service(input, op->result, journal);
      const std::string mismatch = fingerprint_.observe(service_fingerprint(op->result));
      if (!mismatch.empty()) problems.push_back(mismatch);
    } catch (const std::exception& error) {
      problems.push_back(std::string("journal check threw: ") + error.what());
    }
  }
  if (!end_op(problems)) return std::nullopt;
  return op;
}

void Bench::setup() {
  const std::string journal = args_.scratch + "/journal-" + workload_name(kind_) + "-" +
                              std::to_string(::getpid()) + ".jsonl";
  if (is_solve_workload(kind_)) {
    solve_input_ = make_solve_input(kind_, args_.seed, args_.instance_seed);
    double seconds = 0.0;
    (void)solve_op(*solve_input_, &seconds);
  } else {
    service_input_ = make_service_input(args_.seed, journal);
    (void)service_op(*service_input_);
  }
}

void Bench::measure_solves() {
  const Clock::time_point start = Clock::now();
  do {
    double seconds = 0.0;
    const std::optional<SolveRun> run = solve_op(*solve_input_, &seconds);
    if (!run) continue;
    const std::lock_guard<std::mutex> lock(mutex_);
    op_s_.push_back(seconds);
    rho1_ = run->outcome.report.rho1;
  } while (seconds_since(start) < args_.seconds);
}

void Bench::measure_service() {
  const Clock::time_point start = Clock::now();
  do {
    const std::optional<ServiceOp> op = service_op(*service_input_);
    if (!op) continue;
    double rho1_sum = 0.0;
    for (const svc::RequestRecord& record : op->result.requests) rho1_sum += record.rho1;
    const std::lock_guard<std::mutex> lock(mutex_);
    op_s_.push_back(op->run_s);
    rate_rps_.push_back(static_cast<double>(op->result.delivered) / op->run_s);
    rho1_ = rho1_sum / static_cast<double>(op->result.requests.size());
  } while (seconds_since(start) < args_.seconds);
}

/// Per-layer span medians over a set of mirrored solves.
struct LayerMedians {
  std::map<std::string, std::vector<double>> samples;
  std::vector<double> root_s;
  void add(const MirroredSolve& mirrored) {
    for (const char* name : {"cdsf.parse", "cdsf.framework", "ra.count", "ra.search",
                             "sim.stage2", "cdsf.certificate", "obs.report"}) {
      const auto it = mirrored.layer_s.find(name);
      samples[name].push_back(it == mirrored.layer_s.end() ? 0.0 : it->second);
    }
    root_s.push_back(mirrored.total_s);
  }
  [[nodiscard]] double operator[](const std::string& name) const {
    const auto it = samples.find(name);
    return it == samples.end() ? 0.0 : median(it->second);
  }
  /// The spans of the calls make_framework + solve_on make.
  [[nodiscard]] double solve_path_s() const {
    return (*this)["cdsf.framework"] + (*this)["ra.count"] + (*this)["ra.search"] +
           (*this)["sim.stage2"] + (*this)["cdsf.certificate"];
  }
};

void Bench::trace_solves() {
  const SolveInput& input = *solve_input_;
  LayerMedians layers;
  std::vector<double> untraced_s;
  std::vector<double> untraced_solve_s;
  std::optional<MirroredSolve> last;
  std::size_t identical = 0;
  std::size_t pairs = 0;
  const Clock::time_point start = Clock::now();
  do {
    double seconds = 0.0;
    double solve_s = 0.0;
    const std::optional<SolveRun> run = solve_op(input, &seconds, &solve_s);
    std::optional<MirroredSolve> mirrored = mirrored_op(input);
    if (!run || !mirrored) continue;
    untraced_s.push_back(seconds);
    untraced_solve_s.push_back(solve_s);
    layers.add(*mirrored);
    ++pairs;
    if (report_digest(run->report) == report_digest(mirrored->run.report)) ++identical;
    last = std::move(mirrored);
  } while (seconds_since(start) < args_.seconds);
  if (!last) return;

  const SolveRun& run = last->run;
  const SimTotals totals = sim_totals(run.outcome.scenario);
  const double stage2_s = layers["sim.stage2"];
  set_metric("cdsf.parse_s", layers["cdsf.parse"]);
  set_metric("cdsf.scenario_bytes", static_cast<double>(input.text.size()));
  set_metric("cdsf.framework_s", layers["cdsf.framework"]);
  set_metric("cdsf.certificate_s", layers["cdsf.certificate"]);
  set_metric("ra.count_s", layers["ra.count"]);
  set_metric("ra.feasible_space", static_cast<double>(run.outcome.feasible_space));
  set_metric("ra.search_s", layers["ra.search"]);
  set_metric("sim.stage2_s", stage2_s);
  set_metric("sim.replications", static_cast<double>(totals.replications));
  set_metric("sim.replication_us", 1e6 * stage2_s / static_cast<double>(totals.replications));
  set_metric("sim.chunks_lost", static_cast<double>(totals.chunks_lost));
  set_metric("sim.wasted_work", totals.wasted_work);
  set_metric("sim.audits", static_cast<double>(totals.audits));
  set_metric("sim.quarantines", static_cast<double>(totals.quarantines));
  set_metric("sim.probes", static_cast<double>(totals.probes));
  set_metric("obs.report_s", layers["obs.report"]);
  set_metric("obs.report_bytes", static_cast<double>(run.report.size()));
  set_metric("trace.mirror_ratio", layers.solve_path_s() / median(untraced_solve_s));
  set_metric("trace.mirror_identical", identical == pairs ? 1.0 : 0.0);
  set_metric("trace.overhead", median(layers.root_s) / median(untraced_s));

  // Stage I oracle: exact branch and bound on the same instance.
  begin_op();
  (void)end_op(capped("B&B oracle", nullptr, [&] {
    const core::Framework framework = core::make_framework(run.scenario);
    const cdsf::ra::BranchAndBoundOptimal bnb;
    const Clock::time_point t = Clock::now();
    const core::StageOneResult oracle = framework.run_stage_one(bnb);
    set_metric("ra.bnb_s", seconds_since(t));
    set_metric("ra.bnb_nodes", static_cast<double>(bnb.last_nodes_visited()));
    set_metric("ra.rho1_gap", oracle.phi1 - run.outcome.report.rho1);
  }));
  // Every candidate completion PMF, once, on a fresh evaluator.
  begin_op();
  (void)end_op(capped("PMF build", nullptr, [&] {
    const cdsf::ra::RobustnessEvaluator evaluator(run.scenario.batch, run.scenario.cases.front(),
                                                  run.scenario.deadline);
    std::size_t pulses = 0;
    const Clock::time_point t = Clock::now();
    const auto& types = run.scenario.platform.types();
    for (std::size_t app = 0; app < run.scenario.batch.size(); ++app) {
      for (std::size_t type = 0; type < types.size(); ++type) {
        for (std::size_t count :
             cdsf::ra::candidate_counts(types[type].count, cdsf::ra::CountRule::kPowerOfTwo)) {
          pulses += evaluator.completion_pmf(app, {type, count}).size();
        }
      }
    }
    set_metric("pmf.build_s", seconds_since(t));
    set_metric("pmf.pulses", static_cast<double>(pulses));
  }));
  // Host parallelism: the paper-faults solve at nproc threads against the
  // 1-thread solves above. The first threaded solve of a process is a
  // warm-up and is not timed.
  if (kind_ == Kind::kPaperFaults) {
    SolveInput parallel = input;
    parallel.options.threads = bench_threads();
    std::vector<double> parallel_s;
    for (int k = 0; k < 4; ++k) {
      double seconds = 0.0;
      if (solve_op(parallel, &seconds) && k > 0) parallel_s.push_back(seconds);
    }
    if (!parallel_s.empty()) {
      const double speedup = median(untraced_s) / median(parallel_s);
      set_metric("util.speedup", speedup);
      set_metric("util.efficiency", speedup / static_cast<double>(parallel.options.threads));
    }
  }

  const double mirrored_s = median(layers.root_s);
  char line[200];
  if (kind_ == Kind::kPaperSolve) {
    std::snprintf(line, sizeof line,
                  "stress: sim.stage2_s is %.4f of the traced solve (want >= 0.95)",
                  stage2_s / mirrored_s);
    note(line);
  } else if (kind_ == Kind::kStage1Wide) {
    std::snprintf(line, sizeof line,
                  "stress: ra.count_s + ra.search_s is %.4f of the traced solve (want >= 0.75)",
                  (layers["ra.count"] + layers["ra.search"]) / mirrored_s);
    note(line);
  }
  std::snprintf(line, sizeof line, "stress: sim fault counters lost=%" PRIu64 " audits=%" PRIu64
                " quarantines=%" PRIu64 " (want nonzero only on paper-faults)",
                totals.chunks_lost, totals.audits, totals.quarantines);
  note(line);
  std::snprintf(line, sizeof line, "trace: %zu traced solves, mirrored report %s solve_on's",
                pairs, identical == pairs ? "identical to" : "DIFFERS from");
  note(line);
}

void Bench::trace_service() {
  const ServiceInput& input = *service_input_;
  std::vector<double> run_s;
  std::optional<ServiceOp> last;
  const Clock::time_point start = Clock::now();
  do {
    std::optional<ServiceOp> op = service_op(input);
    if (!op) continue;
    run_s.push_back(op->run_s);
    last = std::move(op);
  } while (seconds_since(start) < args_.seconds);
  if (!last) return;
  const svc::ServiceRunResult& result = last->result;

  // Phase B determinism: the service report must not depend on the
  // thread count.
  {
    ServiceInput serial = input;
    serial.config.solve_threads = 1;
    const std::optional<ServiceOp> one = service_op(serial);
    if (one && one->result.report.dump() != result.report.dump()) {
      begin_op();
      (void)end_op({"cdsf.service_report differs between solve_threads = 1 and " +
                    std::to_string(input.config.solve_threads)});
    }
  }

  // Every delivered request solved again, serially: once through
  // core::solve_scenario and once as the traced call sequence.
  LayerMedians layers;
  std::vector<double> solve_s;    // core::solve_scenario
  std::vector<double> request_s;  // parse + core::solve_scenario
  std::size_t identical = 0;
  std::optional<MirroredSolve> mirrored;
  for (const svc::ScenarioRequest& request : input.stream) {
    const auto record =
        std::find_if(result.requests.begin(), result.requests.end(),
                     [&](const svc::RequestRecord& r) { return r.id == request.id; });
    SolveInput solve;
    solve.text = request.scenario_text;
    solve.options.replications = input.config.replications;
    solve.options.seed = request.seed;
    solve.options.threads = 1;
    solve.paper_example = true;  // the stream carries the paper example unchanged
    begin_op();
    std::vector<std::string> found;  // failed checks of this request's results
    std::vector<std::string> problems = capped("serial re-solve", nullptr, [&] {
      const Clock::time_point t = Clock::now();
      const core::Scenario scenario = core::parse_scenario_text(solve.text);
      const Clock::time_point t_solve = Clock::now();
      const core::SolveOutcome outcome = core::solve_scenario(scenario, solve.options);
      solve_s.push_back(seconds_since(t_solve));
      request_s.push_back(seconds_since(t));
      mirrored = mirror_solve(solve, spans_, next_solve_id_++, nullptr);
      layers.add(*mirrored);
      if (mirrored->run.outcome.report.rho1 == outcome.report.rho1 &&
          mirrored->run.outcome.scenario.stage_one.allocation ==
              outcome.scenario.stage_one.allocation) {
        ++identical;
      }
      found = check_solve(mirrored->run, solve);
      if (record == result.requests.end() || outcome.report.rho1 != record->rho1) {
        found.push_back("request " + std::to_string(request.id) +
                        ": serial rho1 differs from the delivered one");
      }
    });
    problems.insert(problems.end(), found.begin(), found.end());
    (void)end_op(problems);
  }
  if (!mirrored) return;

  std::uint64_t attempts = 0;
  std::vector<double> latency;
  for (const svc::RequestRecord& record : result.requests) {
    attempts += record.attempts;
    if (record.delivered_at >= 0.0) latency.push_back(record.delivered_at - record.arrival);
  }
  const double run_median = median(run_s);
  const double threads = static_cast<double>(input.config.solve_threads);
  const SimTotals totals = sim_totals(mirrored->run.outcome.scenario);
  const double stage2_s = layers["sim.stage2"];
  set_metric("svc.run_s", run_median);
  set_metric("svc.solve_s_p50", median(solve_s));
  set_metric("svc.phase_b_efficiency",
             std::accumulate(solve_s.begin(), solve_s.end(), 0.0) / (threads * run_median));
  set_metric("svc.attempts", static_cast<double>(attempts));
  set_metric("svc.hedges", static_cast<double>(result.hedges));
  set_metric("svc.useful_attempt_frac",
             static_cast<double>(result.delivered) / static_cast<double>(attempts));
  set_metric("svc.virtual_latency_p50", median(latency));
  set_metric("svc.journal_bytes", static_cast<double>(last->journal_bytes));
  set_metric("svc.recover_s", last->recover_s);
  // Layers of one request's solve (medians over the stream).
  set_metric("cdsf.parse_s", layers["cdsf.parse"]);
  set_metric("cdsf.scenario_bytes", static_cast<double>(input.stream.front().scenario_text.size()));
  set_metric("cdsf.framework_s", layers["cdsf.framework"]);
  set_metric("cdsf.certificate_s", layers["cdsf.certificate"]);
  set_metric("ra.count_s", layers["ra.count"]);
  set_metric("ra.feasible_space", static_cast<double>(mirrored->run.outcome.feasible_space));
  set_metric("ra.search_s", layers["ra.search"]);
  set_metric("sim.stage2_s", stage2_s);
  set_metric("sim.replications", static_cast<double>(totals.replications));
  set_metric("sim.replication_us", 1e6 * stage2_s / static_cast<double>(totals.replications));
  set_metric("obs.report_s", layers["obs.report"]);
  set_metric("obs.report_bytes", static_cast<double>(mirrored->run.report.size()));
  set_metric("trace.mirror_ratio", layers.solve_path_s() / median(solve_s));
  set_metric("trace.mirror_identical", identical == input.stream.size() ? 1.0 : 0.0);
  set_metric("trace.overhead",
             (median(layers.root_s) - layers["obs.report"]) / median(request_s));
}

void Bench::finish_end_to_end_locked() {
  const double level = tail_level(kind_);
  metrics_["solve_s_p50"] = median(op_s_);
  metrics_["solve_s_tail"] = percentile(op_s_, level);
  if (kind_ == Kind::kServiceStream) {
    metrics_["throughput_rps"] = median(rate_rps_);
  } else {
    const double busy = std::accumulate(op_s_.begin(), op_s_.end(), 0.0);
    metrics_["throughput_rps"] = busy > 0.0 ? static_cast<double>(op_s_.size()) / busy : 0.0;
  }
  metrics_["rho1"] = rho1_;
  metrics_["peak_rss_mb"] = peak_rss_mb();
  metrics_["setup_s"] = median(setup_s_);
  const double beyond = std::floor((1.0 - level) * static_cast<double>(op_s_.size()));
  char line[160];
  std::snprintf(line, sizeof line, "solve_s_tail is p%.0f over %zu operations (%.0f beyond it)",
                100.0 * level, op_s_.size(), beyond);
  notes_.emplace_back(line);
}

void Bench::emit_locked() {
  std::printf("workload %s seed %" PRIu64 " trace %d\n", workload_name(kind_), args_.seed,
              args_.trace ? 1 : 0);
  for (const std::string& note : notes_) std::printf("%s\n", note.c_str());
  for (const std::string& failure : failures_) std::printf("FAILED: %s\n", failure.c_str());
  cdsf::obs::Json metrics = cdsf::obs::Json::object();
  const std::span<const MetricDef> defs =
      args_.trace ? std::span<const MetricDef>(kPerLayer) : std::span<const MetricDef>(kEndToEnd);
  for (const MetricDef& def : defs) {
    const auto it = metrics_.find(def.name);
    const double value = it == metrics_.end() ? 0.0 : it->second;
    std::printf("metric %-26s %.9g %s\n", def.name, value, def.unit);
    cdsf::obs::Json entry = cdsf::obs::Json::object();
    entry.set("value", value);
    entry.set("unit", def.unit);
    metrics.set(def.name, std::move(entry));
  }
  std::printf("metric %-26s %.9g fraction (%zu failed of %zu attempted)\n", "error_rate",
              attempted_ > 0 ? static_cast<double>(failed_) / static_cast<double>(attempted_) : 0.0,
              failed_, attempted_);
  cdsf::obs::Json result = cdsf::obs::Json::object();
  result.set("correct", correct_ && failed_ == 0 && attempted_ > 0);
  result.set("attempted", std::max<std::size_t>(attempted_, 1));
  result.set("failed", failed_);
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
}

void Bench::abandon() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++failed_;
  note_failure_locked("an operation ran past the wall cap and its grace period; run abandoned");
  if (!args_.trace) finish_end_to_end_locked();
  emit_locked();
  std::_Exit(0);
}

int Bench::run() {
  const Clock::time_point process_start =
      args_.t0_ns ? Clock::time_point(std::chrono::nanoseconds(*args_.t0_ns)) : Clock::now();
  std::filesystem::create_directories(args_.scratch);
  setup();
  const double setup_s = seconds_since(process_start);
  const auto remove_journal = [this] {
    if (service_input_) std::filesystem::remove(service_input_->config.journal_path);
  };
  if (args_.setup_only) {
    remove_journal();
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const std::string& failure : failures_) std::printf("FAILED: %s\n", failure.c_str());
    std::printf("setup %.9f %016" PRIx64 " %zu %zu\n", setup_s, fingerprint_.hash(), attempted_,
                failed_);
    std::fflush(stdout);
    return 0;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    setup_s_ = args_.setup_samples;
    setup_s_.push_back(setup_s);
  }
  const std::pair<double, double> jiffies_before = cpu_jiffies();
  if (!args_.trace) {
    if (is_solve_workload(kind_)) measure_solves();
    else measure_service();
  } else {
    if (is_solve_workload(kind_)) trace_solves();
    else trace_service();
    const std::string path = args_.scratch + "/spans-" + workload_name(kind_) + "-seed" +
                             std::to_string(args_.seed) + ".jsonl";
    try {
      spans_.write(path);
      note("spans written to " + path);
    } catch (const std::exception& error) {
      note_failure(error.what());
    }
  }
  const std::pair<double, double> jiffies_after = cpu_jiffies();
  const double total = jiffies_after.first - jiffies_before.first;
  char line[120];
  std::snprintf(line, sizeof line, "host: %.1f%% of CPU time was stolen while measuring",
                total > 0.0 ? 100.0 * (jiffies_after.second - jiffies_before.second) / total : 0.0);
  note(line);
  remove_journal();
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!args_.trace) finish_end_to_end_locked();
  emit_locked();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Args> args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_driver: %s\n", error.what());
    return 2;
  }
  if (!args) {
    std::fprintf(stderr, "usage: perfbench_driver --workload {paper-solve|paper-faults|"
                         "stage1-wide|service-stream} [--seed N] [--seconds S] [--trace 0|1]\n");
    return 2;
  }
  if (args->self_test) return run_self_test(args->scratch);
  if (args->spin > 0.0) {
    spin_cores(args->spin);
    return 0;
  }
  // Reports are built as `cdsf scenario --report-json` and `cdsf serve
  // --report-json` build them: with the metrics registry and the Stage I
  // profiler on.
  cdsf::obs::MetricsRegistry::global().set_enabled(true);
  cdsf::obs::PhaseProfiler::global().set_enabled(true);
  Bench bench(*args, *workload_from_name(args->workload));
  return bench.run();
}
