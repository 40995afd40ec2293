// Byte-level determinism of the serialized observability outputs: the
// report and trace documents for the same (scenario, seed) must be
// IDENTICAL bytes run after run and — for the replicated reduction —
// across thread counts. This is the regression net behind the
// unordered-iteration lint rule: a nondeterministically ordered container
// anywhere in the report/trace emission paths shows up here as a byte
// diff long before a human notices reordered JSON keys.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cdsf/dynamic_manager.hpp"
#include "cdsf/paper_example.hpp"
#include "cdsf/solve.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "ra/heuristics.hpp"
#include "sim/loop_executor.hpp"
#include "sim/master_worker.hpp"
#include "svc/journal.hpp"
#include "svc/request.hpp"
#include "svc/service.hpp"
#include "sysmodel/cases.hpp"
#include "test_support.hpp"
#include "workload/generator.hpp"

namespace cdsf {
namespace {

constexpr std::uint64_t kSeed = 20260805;

sim::SimConfig traced_config() {
  sim::SimConfig config;
  config.collect_trace = true;
  return config;
}

sim::RunResult run_once() {
  return sim::simulate_loop(test::simple_app("app", 100, 2000, {5.0, 3.0}), 0, 4,
                            test::full_availability(2), dls::TechniqueId::kFAC,
                            traced_config(), kSeed);
}

TEST(Determinism, RunReportBytesAreIdenticalAcrossRepeatedRuns) {
  const std::string first = obs::make_run_report("det", run_once(), 5000.0).dump(1);
  const std::string second = obs::make_run_report("det", run_once(), 5000.0).dump(1);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST(Determinism, TraceBytesAreIdenticalAcrossRepeatedRuns) {
  auto render = [] {
    obs::TraceSink sink;
    obs::TraceSink::RunOptions options;
    options.pid = 0;
    options.process_name = "det";
    sink.append_run(run_once(), options);
    return sink.to_string();
  };
  const std::string first = render();
  const std::string second = render();
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST(Determinism, ReplicationSummaryReportBytesAreThreadCountInvariant) {
  auto render = [](std::size_t threads) {
    const sim::ReplicationSummary summary = sim::simulate_replicated(
        test::simple_app("app", 100, 2000, {5.0, 3.0}), 0, 4, test::full_availability(2),
        dls::TechniqueId::kAWF_B, sim::SimConfig{}, kSeed, 16, 4000.0, threads);
    return obs::to_json(summary, 4000.0).dump(1);
  };
  const std::string serial = render(1);
  EXPECT_EQ(serial, render(2));
  EXPECT_EQ(serial, render(4));
}

// ------------------------------------------------------- executor goldens --
//
// Pinned FNV-1a digests of everything an executor run makes observable:
// the run report, the Perfetto trace rendering, the flight record (with
// the sink armed, so every run keeps its full event list), and every raw
// trace entry and lifecycle event field in hex-float form. A refactor of
// either executor that moves one RNG draw, one scheduled event, one
// counter, one trace entry, or one flight event changes a digest here.
// Re-pin a digest only for a deliberate, documented behaviour change.

namespace fs = std::filesystem;

constexpr double kGoldenDeadline = 2500.0;

workload::Application golden_app() {
  return test::simple_app("app", 100, 2000, {4000.0, 2400.0});
}

sysmodel::AvailabilitySpec golden_availability() { return sysmodel::paper_case(2); }

sim::SimConfig::Failure failure(std::size_t worker, double time, sim::SimConfig::FailureKind kind,
                                double recovery = std::numeric_limits<double>::infinity()) {
  sim::SimConfig::Failure f;
  f.worker = worker;
  f.time = time;
  f.kind = kind;
  f.residual_availability = 0.1;
  f.recovery_time = recovery;
  f.corrupt_probability = 0.5;
  return f;
}

/// Scratch directory for one golden test (flight dumps, checkpoint JSON);
/// removed on destruction. Keeps the process-global flight sink armed for
/// its lifetime so finalize_run always merges the full event list.
class GoldenScratch {
 public:
  explicit GoldenScratch(const std::string& name)
      : dir_(fs::path(::testing::TempDir()) / ("cdsf_golden_" + name)) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    obs::FlightSink::global().arm((dir_ / "flight").string(), 1000);
  }
  ~GoldenScratch() {
    obs::FlightSink::global().disarm();
    std::error_code ignored;
    fs::remove_all(dir_, ignored);
  }
  GoldenScratch(const GoldenScratch&) = delete;
  GoldenScratch& operator=(const GoldenScratch&) = delete;

  [[nodiscard]] std::string path(const std::string& file) const { return (dir_ / file).string(); }

 private:
  fs::path dir_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string run_bytes(const sim::RunResult& run) {
  std::string bytes = obs::make_run_report("golden", run, kGoldenDeadline).dump(1);
  obs::TraceSink sink;
  obs::TraceSink::RunOptions options;
  options.pid = 0;
  options.process_name = "golden";
  sink.append_run(run, options);
  bytes += sink.to_string();
  bytes += obs::flight_record_to_json(run.flight, obs::FlightAnomaly{}).dump(1);
  std::ostringstream raw;
  raw << std::hexfloat;
  for (const sim::ChunkTraceEntry& e : run.trace) {
    raw << "T " << e.worker << ' ' << e.iterations << ' ' << e.dispatch_time << ' '
        << e.start_time << ' ' << e.end_time << ' ' << e.lost << ' ' << e.first << ' '
        << e.speculative << ' ' << e.cancelled << ' ' << e.retransmitted << ' ' << e.audit
        << ' ' << e.probe << '\n';
  }
  for (const sim::LifecycleEvent& e : run.events) {
    raw << "E " << static_cast<int>(e.kind) << ' ' << e.time << ' ' << e.worker << ' '
        << e.value << '\n';
  }
  return bytes + raw.str();
}

std::string mpi_bytes(const sim::MpiRunResult& result) {
  std::ostringstream master;
  master << std::hexfloat << "M " << result.master.requests_handled << ' '
         << result.master.busy_time << ' ' << result.master.queue_wait_time << ' '
         << result.master.max_queue_wait << '\n';
  return run_bytes(result.run) + master.str();
}

std::string hex(std::uint64_t digest) {
  char buffer[19];
  std::snprintf(buffer, sizeof buffer, "0x%016llx", static_cast<unsigned long long>(digest));
  return buffer;
}

void expect_digest(const std::string& bytes, std::uint64_t pinned) {
  EXPECT_EQ(hex(svc::fnv1a64(bytes)), hex(pinned));
}

sim::SimConfig golden_config() {
  sim::SimConfig config;
  config.collect_trace = true;
  return config;
}

sim::RunResult ideal(const sim::SimConfig& config, dls::TechniqueId technique) {
  return sim::simulate_loop(golden_app(), 0, 4, golden_availability(), technique, config,
                            kSeed);
}

sim::MpiRunResult mpi(const sim::SimConfig& config, dls::TechniqueId technique) {
  return sim::simulate_loop_mpi(golden_app(), 0, 4, golden_availability(), technique, config,
                                sim::MessageModel{}, kSeed);
}

using Kind = sim::SimConfig::FailureKind;

TEST(ExecutorGolden, IdealCleanFac) {
  const GoldenScratch scratch("ideal_clean");
  expect_digest(run_bytes(ideal(golden_config(), dls::TechniqueId::kFAC)),
                0xf1025b7853e4bd44ULL);
}

TEST(ExecutorGolden, IdealCrashRecoverAwfB) {
  const GoldenScratch scratch("ideal_crash");
  sim::SimConfig config = golden_config();
  config.failures.push_back(failure(1, 900.0, Kind::kCrashRecover, 1300.0));
  config.failures.push_back(failure(3, 1500.0, Kind::kCrash));
  const sim::RunResult run = ideal(config, dls::TechniqueId::kAWF_B);
  EXPECT_GT(run.faults.chunks_lost, 0u);
  expect_digest(run_bytes(run), 0x1e0afebef884f070ULL);
}

TEST(ExecutorGolden, IdealDegradeWithSpeculationAndDeadlineRisk) {
  const GoldenScratch scratch("ideal_spec");
  sim::SimConfig config = golden_config();
  config.failures.push_back(failure(1, 600.0, Kind::kDegrade));
  config.speculation.enabled = true;
  config.speculation.quantile = 2.0;
  config.deadline_risk.enabled = true;
  config.deadline_risk.deadline = 1500.0;
  config.deadline_risk.check_interval = 100.0;
  config.deadline_risk.risk_floor = 0.9;
  const sim::RunResult run = ideal(config, dls::TechniqueId::kFAC);
  EXPECT_GT(run.speculation.backups_launched, 0u);
  EXPECT_GT(run.speculation.risk_escalations, 0u);
  expect_digest(run_bytes(run), 0x5b94a12c6a3ac72fULL);
}

TEST(ExecutorGolden, IdealQuarantineWithAuditsAndSilentCorruption) {
  const GoldenScratch scratch("ideal_gray");
  sim::SimConfig config = golden_config();
  config.failures.push_back(failure(2, 600.0, Kind::kDegrade));
  config.failures.push_back(failure(1, 500.0, Kind::kSilentCorrupt));
  config.failures.push_back(failure(3, 1200.0, Kind::kCrashRecover, 1400.0));
  config.quarantine.enabled = true;
  config.quarantine.ewma_alpha = 0.9;
  config.quarantine.min_observations = 1;
  config.quarantine.slowdown_threshold = 3.0;
  config.quarantine.probe_interval = 25.0;
  config.quarantine.audit_rate = 0.3;
  config.quarantine.audit_mismatch_limit = 1;
  config.quarantine.probe_successes = 1;
  const sim::RunResult run = ideal(config, dls::TechniqueId::kSS);
  EXPECT_GT(run.quarantine.quarantines, 0u);
  EXPECT_GT(run.quarantine.probes_launched, 0u);
  EXPECT_GT(run.quarantine.reinstatements, 0u);
  EXPECT_GT(run.quarantine.audit_mismatches, 0u);
  EXPECT_GT(run.quarantine.audits_matched, 0u);
  expect_digest(run_bytes(run), 0x823256eaaf32dc9eULL);
}

TEST(ExecutorGolden, MixedGroup) {
  const GoldenScratch scratch("mixed");
  expect_digest(run_bytes(sim::simulate_loop_mixed(golden_app(), {0, 0, 1, 1},
                                                   golden_availability(),
                                                   dls::TechniqueId::kFAC, golden_config(),
                                                   kSeed)),
                0x05ce1080c2aaf627ULL);
}

TEST(ExecutorGolden, MpiReliableClean) {
  const GoldenScratch scratch("mpi_clean");
  expect_digest(mpi_bytes(mpi(golden_config(), dls::TechniqueId::kFAC)), 0x8716a2dc134cd03dULL);
}

TEST(ExecutorGolden, MpiCrashWithDetection) {
  const GoldenScratch scratch("mpi_crash");
  sim::SimConfig config = golden_config();
  config.failures.push_back(failure(1, 900.0, Kind::kCrashRecover, 1300.0));
  config.failures.push_back(failure(3, 1500.0, Kind::kCrash));
  const sim::MpiRunResult result = mpi(config, dls::TechniqueId::kAWF_B);
  EXPECT_GT(result.run.faults.chunks_lost, 0u);
  EXPECT_GT(result.run.faults.detection_latency_total, 0.0);
  expect_digest(mpi_bytes(result), 0x202e9d1ec47154b2ULL);
}

TEST(ExecutorGolden, MpiSpeculation) {
  const GoldenScratch scratch("mpi_spec");
  sim::SimConfig config = golden_config();
  config.failures.push_back(failure(1, 600.0, Kind::kDegrade));
  config.speculation.enabled = true;
  config.speculation.quantile = 2.0;
  const sim::MpiRunResult result = mpi(config, dls::TechniqueId::kFAC);
  EXPECT_GT(result.run.speculation.backups_launched, 0u);
  expect_digest(mpi_bytes(result), 0xd3224375d3075837ULL);
}

TEST(ExecutorGolden, MpiLossyChannelWithSpeculationCheckpointAndMasterRestart) {
  const GoldenScratch scratch("mpi_channel");
  sim::SimConfig config = golden_config();
  config.channel.drop_to_worker = 0.05;
  config.channel.drop_to_master = 0.05;
  config.channel.duplicate_to_worker = 0.1;
  config.channel.duplicate_to_master = 0.1;
  config.channel.reorder_to_worker = 0.1;
  config.channel.reorder_to_master = 0.1;
  config.channel.reorder_delay = 1.5;
  config.checkpoint.enabled = true;
  config.checkpoint.interval = 50.0;
  config.checkpoint.json_path = scratch.path("checkpoint.json");
  sim::SimConfig::Failure master;
  master.kind = Kind::kMasterCrashRestart;
  master.time = 1000.0;
  master.recovery_time = 1060.0;
  config.failures.push_back(master);
  config.failures.push_back(failure(2, 800.0, Kind::kCrashRecover, 1100.0));
  config.failures.push_back(failure(0, 600.0, Kind::kDegrade));
  config.speculation.enabled = true;
  config.speculation.quantile = 2.0;
  const sim::MpiRunResult result = mpi(config, dls::TechniqueId::kFAC);
  EXPECT_GT(result.run.speculation.backups_launched, 0u);
  EXPECT_EQ(result.run.checkpoint.master_restarts, 1u);
  EXPECT_GT(result.run.channel.drops, 0u);
  EXPECT_GT(result.run.channel.duplicates, 0u);
  const std::string bytes = mpi_bytes(result);
  expect_digest(bytes + slurp(config.checkpoint.json_path), 0xcb9fa11a68db52c3ULL);
}

TEST(ExecutorGolden, MpiQuarantineWithAuditsAndCorruptingChannel) {
  const GoldenScratch scratch("mpi_gray");
  sim::SimConfig config = golden_config();
  config.failures.push_back(failure(2, 600.0, Kind::kDegrade));
  config.failures.push_back(failure(1, 500.0, Kind::kSilentCorrupt));
  config.quarantine.enabled = true;
  config.quarantine.ewma_alpha = 0.9;
  config.quarantine.min_observations = 1;
  config.quarantine.slowdown_threshold = 3.0;
  config.quarantine.probe_interval = 25.0;
  config.quarantine.audit_rate = 0.3;
  config.quarantine.audit_mismatch_limit = 1;
  config.quarantine.probe_successes = 1;
  config.channel.corrupt_to_worker = 0.02;
  config.channel.corrupt_to_master = 0.02;
  const sim::MpiRunResult result = mpi(config, dls::TechniqueId::kSS);
  EXPECT_GT(result.run.quarantine.quarantines, 0u);
  EXPECT_GT(result.run.quarantine.probes_launched, 0u);
  EXPECT_GT(result.run.quarantine.reinstatements, 0u);
  EXPECT_GT(result.run.quarantine.audits_launched, 0u);
  EXPECT_GT(result.run.quarantine.audit_mismatches, 0u);
  EXPECT_GT(result.run.channel.corrupt_discarded, 0u);
  expect_digest(mpi_bytes(result), 0x7c3b45b1b1cc490fULL);
}

// AF goldens: the adaptive-factoring chunk solver drives every dispatch
// below, so these pin its chunk sequence through each executor.

TEST(ExecutorGolden, IdealCleanAf) {
  const GoldenScratch scratch("ideal_af");
  const sim::RunResult run = ideal(golden_config(), dls::TechniqueId::kAF);
  // More chunks than workers: requests after the first completions went
  // through the measured-state solver, not only the bootstrap share.
  EXPECT_GT(run.trace.size(), 4u * 4u);
  expect_digest(run_bytes(run), 0x85e2d52cb58f901fULL);
}

TEST(ExecutorGolden, MpiCleanAf) {
  const GoldenScratch scratch("mpi_af");
  expect_digest(mpi_bytes(mpi(golden_config(), dls::TechniqueId::kAF)), 0x4726f3880bff6a6fULL);
}

TEST(ExecutorGolden, MixedGroupAf) {
  const GoldenScratch scratch("mixed_af");
  expect_digest(run_bytes(sim::simulate_loop_mixed(golden_app(), {0, 0, 1, 1},
                                                   golden_availability(),
                                                   dls::TechniqueId::kAF, golden_config(),
                                                   kSeed)),
                0x5c087f3d9e260639ULL);
}

// Paths the matrix above leaves unpinned: the MPI degrade-only run, copies
// cancelled or lost while the quarantine clock is live, and the
// reliable-channel report chain of a cancelled speculation loser.

TEST(ExecutorGolden, MpiDegradeStaticWithoutSpeculation) {
  const GoldenScratch scratch("mpi_degrade");
  sim::SimConfig config = golden_config();
  config.failures.push_back(failure(1, 300.0, Kind::kDegrade));
  const sim::MpiRunResult result = mpi(config, dls::TechniqueId::kStatic);
  // The degraded worker ran its share past the onset, and nothing crashed.
  bool degraded_chunk = false;
  for (const sim::ChunkTraceEntry& e : result.run.trace) {
    degraded_chunk = degraded_chunk || (e.worker == 1 && e.end_time > 300.0);
  }
  EXPECT_TRUE(degraded_chunk);
  EXPECT_EQ(result.run.faults.workers_crashed, 0u);
  EXPECT_EQ(result.run.speculation.backups_launched, 0u);
  expect_digest(mpi_bytes(result), 0x4bc9bcfd346e0d59ULL);
}

TEST(ExecutorGolden, IdealSpeculationWithQuarantineAndPermanentCrash) {
  const GoldenScratch scratch("ideal_spec_crash");
  sim::SimConfig config = golden_config();
  config.failures.push_back(failure(1, 600.0, Kind::kDegrade));
  config.failures.push_back(failure(3, 1200.0, Kind::kCrash));
  config.speculation.enabled = true;
  config.speculation.quantile = 2.0;
  config.quarantine.enabled = true;
  config.quarantine.ewma_alpha = 0.9;
  config.quarantine.min_observations = 1;
  config.quarantine.slowdown_threshold = 3.0;
  config.quarantine.probe_interval = 25.0;
  const sim::RunResult run = ideal(config, dls::TechniqueId::kFAC);
  EXPECT_GT(run.quarantine.quarantines, 0u);
  EXPECT_GT(run.speculation.backups_launched, 0u);
  EXPECT_GT(run.speculation.primaries_cancelled + run.speculation.backups_cancelled, 0u);
  EXPECT_GT(run.faults.chunks_lost, 0u);
  expect_digest(run_bytes(run), 0x611a9aaa3495df5bULL);
}

TEST(ExecutorGolden, MpiReliableSpeculationWithQuarantine) {
  const GoldenScratch scratch("mpi_spec_gray");
  sim::SimConfig config = golden_config();
  config.failures.push_back(failure(1, 600.0, Kind::kDegrade));
  config.failures.back().residual_availability = 0.25;
  config.speculation.enabled = true;
  config.speculation.quantile = 2.0;
  config.quarantine.enabled = true;
  config.quarantine.ewma_alpha = 0.9;
  config.quarantine.min_observations = 1;
  config.quarantine.slowdown_threshold = 3.0;
  config.quarantine.probe_interval = 25.0;
  const sim::MpiRunResult result = mpi(config, dls::TechniqueId::kSS);
  EXPECT_FALSE(config.channel.faulty());
  EXPECT_GT(result.run.quarantine.quarantines, 0u);
  EXPECT_GT(result.run.speculation.backups_launched, 0u);
  EXPECT_GT(result.run.speculation.primaries_cancelled +
                result.run.speculation.backups_cancelled,
            0u);
  expect_digest(mpi_bytes(result), 0xefe882bffd03f1a1ULL);
}

sim::SimConfig replicated_config() {
  sim::SimConfig config;
  config.failures.push_back(failure(1, 900.0, Kind::kCrashRecover, 1300.0));
  config.failures.push_back(failure(2, 600.0, Kind::kDegrade));
  config.speculation.enabled = true;
  config.speculation.quantile = 2.0;
  config.quarantine.enabled = true;
  config.quarantine.audit_rate = 0.2;
  return config;
}

TEST(ExecutorGolden, ReplicatedSummaryAtOneAndFourThreads) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const sim::ReplicationSummary summary = sim::simulate_replicated(
        golden_app(), 0, 4, golden_availability(), dls::TechniqueId::kAWF_B,
        replicated_config(), kSeed, 8, kGoldenDeadline, threads);
    expect_digest(obs::to_json(summary, kGoldenDeadline).dump(1), 0x4468c5f8f45ac291ULL);
  }
}

TEST(ExecutorGolden, ReplicatedAfSummaryAtOneAndFourThreads) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const sim::ReplicationSummary summary = sim::simulate_replicated(
        golden_app(), 0, 4, golden_availability(), dls::TechniqueId::kAF,
        replicated_config(), kSeed, 8, kGoldenDeadline, threads);
    expect_digest(obs::to_json(summary, kGoldenDeadline).dump(1), 0x09f623f12f259917ULL);
  }
}

TEST(ExecutorGolden, MpiReplicatedSummaryAtOneAndFourThreads) {
  sim::SimConfig config = replicated_config();
  config.channel.drop_to_master = 0.05;
  config.channel.duplicate_to_worker = 0.1;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const sim::ReplicationSummary summary = sim::simulate_replicated_mpi(
        golden_app(), 0, 4, golden_availability(), dls::TechniqueId::kAWF_B, config,
        sim::MessageModel{}, kSeed, 8, kGoldenDeadline, threads);
    expect_digest(obs::to_json(summary, kGoldenDeadline).dump(1), 0x7d297d8f7e8fcbebULL);
  }
}

// ---------------------------------------------------- online-layer goldens --
//
// The scheduling service's Phase A and the dynamic manager are virtual-time
// event loops like the Stage II transports. These digests pin every byte
// they emit (service report, delivered reports, journal, flight record;
// dynamic report and flight record), each on a stream or configuration
// whose distinguishing path is asserted to have fired.

/// Bytes of one service run: its report, every delivered report (with
/// its id), the journal file and the flight record.
std::string service_bytes(const svc::ServiceRunResult& result, const std::string& journal) {
  std::string bytes = result.report.dump(1);
  for (const auto& [id, document] : result.delivered_reports) {
    bytes += std::to_string(id) + document.dump(1);
  }
  bytes += slurp(journal);
  bytes += obs::flight_record_to_json(result.flight, obs::FlightAnomaly{}).dump(1);
  return bytes;
}

svc::ServiceConfig golden_service(const GoldenScratch& scratch, std::uint64_t seed) {
  svc::ServiceConfig config;
  config.replications = 3;
  config.seed = seed;
  config.journal_path = scratch.path("journal.jsonl");
  return config;
}

std::vector<svc::ScenarioRequest> golden_stream(std::size_t requests, double interarrival,
                                                std::uint64_t seed,
                                                double poison_fraction = 0.0) {
  svc::StreamConfig config;
  config.requests = requests;
  config.mean_interarrival = interarrival;
  config.seed = seed;
  config.poison_fraction = poison_fraction;
  return svc::make_scripted_stream(config);
}

TEST(ServiceGolden, HealthyStreamWithHedges) {
  const GoldenScratch scratch("svc_hedges");
  svc::ServiceConfig config = golden_service(scratch, 13);
  config.solve_time_cov = 1.2;
  config.hedge_min_delay = 1.0;
  config.hedge_multiplier = 0.5;
  config.hedge_warmup = 2;
  const svc::ServiceRunResult result =
      svc::SchedulingService(config).run(golden_stream(10, 3.0, 13));
  ASSERT_TRUE(result.drained);
  EXPECT_GT(result.hedges, 0u);
  EXPECT_GT(result.hedge_wins, 0u);
  expect_digest(service_bytes(result, config.journal_path), 0x492ba3a8b60ddbc3ULL);
}

TEST(ServiceGolden, HangAndPoisonStream) {
  const GoldenScratch scratch("svc_hang_poison");
  svc::ServiceConfig config = golden_service(scratch, 7);
  config.hang_fraction = 0.4;
  config.watchdog_timeout = 15.0;
  const svc::ServiceRunResult result =
      svc::SchedulingService(config).run(golden_stream(8, 3.0, 7, 0.3));
  ASSERT_TRUE(result.drained);
  EXPECT_GT(result.timeouts, 0u);
  EXPECT_GT(result.poisoned, 0u);
  EXPECT_GT(result.delivered, result.poisoned);
  expect_digest(service_bytes(result, config.journal_path), 0xfa8134a85d2d94f2ULL);
}

TEST(ServiceGolden, CrashAndResume) {
  const GoldenScratch scratch("svc_crash");
  const std::vector<svc::ScenarioRequest> stream = golden_stream(6, 3.0, 29);
  svc::ServiceConfig config = golden_service(scratch, 29);
  config.crash_at = stream[3].arrival;
  const svc::ServiceRunResult crashed = svc::SchedulingService(config).run(stream);
  ASSERT_TRUE(crashed.crashed);
  const std::string crashed_bytes = service_bytes(crashed, config.journal_path);

  std::vector<svc::ScenarioRequest> resume = svc::load_journal(config.journal_path).unfinished();
  ASSERT_FALSE(resume.empty());
  for (const svc::ScenarioRequest& request : stream) {
    for (const svc::RequestRecord& record : crashed.requests) {
      if (record.id == request.id && record.outcome == svc::RequestOutcome::kNotArrived) {
        resume.push_back(request);
      }
    }
  }
  config.crash_at = -1.0;
  config.journal_truncate = false;
  const svc::ServiceRunResult resumed = svc::SchedulingService(config).run(resume);
  ASSERT_TRUE(resumed.drained);
  EXPECT_GT(resumed.replayed, 0u);
  expect_digest(crashed_bytes + service_bytes(resumed, config.journal_path), 0x9e31a8d314779845ULL);
}

TEST(ServiceGolden, BoundedStreamAtCapacity) {
  const GoldenScratch scratch("svc_bounded");
  svc::ServiceConfig config = golden_service(scratch, 19);
  config.shards = 1;
  config.mean_solve_time = 40.0;
  config.solve_time_cov = 0.1;
  config.admission.policy = core::AdmissionPolicy::kBoundedQueue;
  config.admission.queue_capacity = 1;
  const svc::ServiceRunResult result =
      svc::SchedulingService(config).run(golden_stream(8, 1.0, 19));
  ASSERT_TRUE(result.drained);
  EXPECT_GT(result.admission.rejected, 0u);
  EXPECT_EQ(result.admission.peak_queue_depth, 1u);
  expect_digest(service_bytes(result, config.journal_path), 0xaae0bf1c0069314aULL);
}

/// Offered load well past capacity, with heterogeneous slack so EDF and
/// FIFO queue orders differ.
core::DynamicConfig golden_dynamic() {
  core::DynamicConfig config;
  config.applications = 20;
  config.mean_interarrival = 100.0;
  config.deadline_slack = 4000.0;
  config.deadline_slack_spread = 0.25;
  config.application_spec.processor_types = 2;
  config.application_spec.min_total_iterations = 800;
  config.application_spec.max_total_iterations = 3000;
  config.application_spec.min_mean_time = 2000.0;
  config.application_spec.max_mean_time = 8000.0;
  return config;
}

std::string dynamic_bytes(const core::DynamicRunResult& result,
                          const core::DynamicConfig& config) {
  return obs::make_dynamic_report(result, config, sysmodel::paper_platform()).dump(1) +
         obs::flight_record_to_json(result.flight, obs::FlightAnomaly{}).dump(1);
}

core::DynamicRunResult run_dynamic(const core::DynamicConfig& config,
                                   const sysmodel::AvailabilitySpec& runtime) {
  return core::run_dynamic_manager(sysmodel::paper_platform(), sysmodel::paper_case(1),
                                   runtime, config, 7);
}

TEST(DynamicGolden, AcceptAll) {
  const core::DynamicConfig config = golden_dynamic();
  const core::DynamicRunResult result = run_dynamic(config, sysmodel::paper_case(1));
  EXPECT_EQ(result.admission.admitted, config.applications);
  EXPECT_GT(result.mean_queueing_delay, 0.0);
  expect_digest(dynamic_bytes(result, config), 0x384e465b5686d697ULL);
}

TEST(DynamicGolden, BoundedEdfWithShedFloorAndLadder) {
  const GoldenScratch scratch("dynamic_bounded");
  core::DynamicConfig config = golden_dynamic();
  config.applications = 30;
  config.mean_interarrival = 50.0;
  config.admission.policy = core::AdmissionPolicy::kBoundedQueue;
  config.admission.queue_capacity = 6;
  config.admission.queue_order = core::QueueOrder::kEdf;
  config.admission.shed_floor = 0.5;
  config.admission.ladder = true;
  config.admission.ladder_alpha = 0.4;
  config.admission.overload_threshold = 0.7;
  config.admission.recover_threshold = 0.3;
  const core::DynamicRunResult result = run_dynamic(config, sysmodel::paper_case(1));
  EXPECT_GT(result.admission.shed, 0u);
  EXPECT_GT(result.admission.ladder_steps, 0u);
  EXPECT_GT(result.admission.queued, 0u);
  expect_digest(dynamic_bytes(result, config), 0x1a8952c7aaa3f858ULL);
}

TEST(DynamicGolden, Rho2AdmissionWithRemap) {
  const GoldenScratch scratch("dynamic_rho2");
  core::DynamicConfig config = golden_dynamic();
  config.remap_on_rho2 = true;
  config.rho2 = 0.05;
  config.admission.policy = core::AdmissionPolicy::kRho2Aware;
  config.admission.queue_capacity = 4;
  config.admission.queue_order = core::QueueOrder::kEdf;
  config.admission.admit_floor = 0.5;
  config.admission.shed_floor = 0.1;
  const core::DynamicRunResult result = run_dynamic(config, sysmodel::paper_case(4));
  EXPECT_TRUE(result.remap_triggered);
  EXPECT_GT(result.admission.rejected, 0u);
  EXPECT_GT(result.admission.admitted, 0u);
  expect_digest(dynamic_bytes(result, config), 0x447cd01f3bd2c93fULL);
}

// ------------------------------------------------------- Stage I goldens --
//
// Pinned FNV-1a digests of every Stage I search's output: each heuristic's
// allocation and phi_1 (hex-float), branch and bound's visited-node count,
// and the enumeration order of the allocation tree. A refactor of the
// searches that moves one leaf, one tie-break or one pruned node changes a
// digest here.

/// The heuristics whose allocations the Stage I goldens pin, in a fixed
/// order: every heuristic, the exact searches and the portfolio.
std::vector<std::unique_ptr<ra::Heuristic>> golden_heuristics() {
  std::vector<std::unique_ptr<ra::Heuristic>> heuristics = ra::all_heuristics(true);
  heuristics.push_back(std::make_unique<ra::BestOfPortfolio>());
  return heuristics;
}

std::string allocation_bytes(const ra::Allocation& allocation) {
  std::string bytes;
  for (const ra::GroupAssignment& group : allocation.groups()) {
    bytes += std::to_string(group.processor_type) + 'x' + std::to_string(group.processors) + ';';
  }
  return bytes;
}

/// One instance's bytes: every heuristic's allocation and phi_1, then
/// branch and bound's allocation and node count. Returns the exhaustive
/// phi_1 through `optimum` so callers can assert which regime fired.
std::string stage_one_bytes(const ra::RobustnessEvaluator& evaluator,
                            const sysmodel::Platform& platform, ra::CountRule rule,
                            double* optimum = nullptr) {
  std::ostringstream out;
  out << std::hexfloat;
  for (const auto& heuristic : golden_heuristics()) {
    const ra::Allocation allocation = heuristic->allocate(evaluator, platform, rule);
    EXPECT_TRUE(allocation.fits(platform)) << heuristic->name();
    const double phi1 = evaluator.joint_probability(allocation);
    if (optimum != nullptr && heuristic->name() == "ExhaustiveOptimal") *optimum = phi1;
    out << heuristic->name() << ' ' << allocation_bytes(allocation) << ' ' << phi1 << '\n';
  }
  ra::BranchAndBoundOptimal bnb;
  const ra::Allocation exact = bnb.allocate(evaluator, platform, rule);
  EXPECT_GT(bnb.last_nodes_visited(), 0u);
  out << "BranchAndBoundOptimal " << allocation_bytes(exact) << ' '
      << evaluator.joint_probability(exact) << " nodes " << bnb.last_nodes_visited() << '\n';
  return out.str();
}

std::string enumeration_bytes(std::size_t applications, const sysmodel::Platform& platform,
                              ra::CountRule rule) {
  const std::vector<ra::Allocation> all = ra::enumerate_feasible(applications, platform, rule);
  EXPECT_EQ(all.size(), ra::count_feasible(applications, platform, rule));
  std::string bytes;
  for (const ra::Allocation& allocation : all) bytes += allocation_bytes(allocation) + '\n';
  return bytes;
}

std::string paper_stage_one_bytes(ra::CountRule rule) {
  const core::PaperExample example = core::make_paper_example();
  const ra::RobustnessEvaluator evaluator(example.batch, example.cases.front(),
                                          example.deadline);
  double optimum = 0.0;
  std::string bytes = stage_one_bytes(evaluator, example.platform, rule, &optimum);
  EXPECT_GT(optimum, 0.0);
  EXPECT_LT(optimum, 1.0);
  return bytes + enumeration_bytes(example.batch.size(), example.platform, rule);
}

TEST(StageOneGolden, PaperExamplePowerOfTwo) {
  const std::string bytes = paper_stage_one_bytes(ra::CountRule::kPowerOfTwo);
  EXPECT_NE(bytes.find("ExhaustiveOptimal " +
                       allocation_bytes(core::paper_robust_allocation())),
            std::string::npos);
  expect_digest(bytes, 0x3550036357631121ULL);
}

TEST(StageOneGolden, PaperExampleAnyCount) {
  expect_digest(paper_stage_one_bytes(ra::CountRule::kAny), 0xc61ca39ce1c3aff8ULL);
}

/// Generated 4-application batches (seeds 1-8) on a 4 + 8 processor
/// platform, small enough for ExhaustiveOptimal, under both count rules.
/// Every instance's exhaustive phi_1 must satisfy `regime`.
template <typename Regime>
std::string generated_stage_one_bytes(double deadline, Regime regime) {
  const sysmodel::Platform platform({{"a", 4}, {"b", 8}});
  const sysmodel::AvailabilitySpec availability(
      "mixed", {pmf::Pmf::from_pulses({{0.6, 0.5}, {1.0, 0.5}}),
                pmf::Pmf::from_pulses({{0.3, 0.25}, {0.6, 0.25}, {1.0, 0.5}})});
  workload::BatchSpec spec;
  spec.applications = 4;
  spec.processor_types = 2;
  spec.min_mean_time = 2000.0;
  spec.max_mean_time = 12000.0;
  std::string bytes;
  for (const ra::CountRule rule : {ra::CountRule::kPowerOfTwo, ra::CountRule::kAny}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const workload::Batch batch = workload::generate_batch(spec, seed);
      const ra::RobustnessEvaluator evaluator(batch, availability, deadline);
      double optimum = -1.0;
      bytes += stage_one_bytes(evaluator, platform, rule, &optimum);
      EXPECT_TRUE(regime(optimum)) << "seed " << seed << " phi_1 " << optimum;
    }
    bytes += enumeration_bytes(spec.applications, platform, rule);
  }
  return bytes;
}

TEST(StageOneGolden, GeneratedTightDeadline) {
  // phi_1 = 0 for every allocation: only the tie-break ranks them.
  expect_digest(generated_stage_one_bytes(150.0, [](double phi1) { return phi1 == 0.0; }),
                0x4f6a85d4752f03c2ULL);
}

TEST(StageOneGolden, GeneratedMiddleDeadline) {
  expect_digest(generated_stage_one_bytes(
                    5000.0, [](double phi1) { return phi1 > 0.0 && phi1 < 1.0; }),
                0x5c1cd81f5aa2faf7ULL);
}

TEST(StageOneGolden, GeneratedSaturatedDeadline) {
  expect_digest(generated_stage_one_bytes(1e6, [](double phi1) { return phi1 == 1.0; }),
                0x1ae30808c4258702ULL);
}

TEST(StageOneGolden, PortfolioSolveAboveTheExhaustiveLimit) {
  // Six applications on 3 x 8 processors: past the exhaustive limit, so
  // solve_on ships BestOfPortfolio's allocation.
  workload::BatchSpec spec;
  spec.applications = 6;
  spec.processor_types = 3;
  spec.min_total_iterations = 200;
  spec.max_total_iterations = 400;
  core::Scenario scenario;
  scenario.platform = sysmodel::Platform({{"a", 8}, {"b", 8}, {"c", 8}});
  scenario.batch = workload::generate_batch(spec, 1);
  scenario.cases.push_back(sysmodel::AvailabilitySpec(
      "mixed", {pmf::Pmf::from_pulses({{0.6, 0.5}, {1.0, 0.5}}), pmf::Pmf::delta(0.8),
                pmf::Pmf::from_pulses({{0.3, 0.25}, {0.6, 0.25}, {1.0, 0.5}})}));
  scenario.deadline = 8000.0;
  core::SolveOptions options;
  options.replications = 1;
  const core::SolveOutcome outcome = core::solve_scenario(scenario, options);
  ASSERT_GT(outcome.feasible_space, options.exhaustive_space_limit);
  const core::StageOneResult& stage_one = outcome.scenario.stage_one;
  EXPECT_EQ(stage_one.heuristic_name, "BestOfPortfolio");
  EXPECT_GT(stage_one.phi1, 0.0);
  std::ostringstream out;
  out << std::hexfloat << allocation_bytes(stage_one.allocation) << ' ' << stage_one.phi1;
  expect_digest(out.str(), 0x9c95123e782b5fe0ULL);
}

TEST(Determinism, MetricsSnapshotOrderIsInsertionOrderInvariant) {
  // Same metric names registered in different orders must serialize the
  // same way (snapshot maps are ordered by name, not by registration).
  obs::MetricsRegistry forward(true);
  forward.add("z.counter", 3);
  forward.set_gauge("m.gauge", 1.5);
  forward.add("a.counter", 7);
  forward.observe("h.hist", 0.25);

  obs::MetricsRegistry reverse(true);
  reverse.observe("h.hist", 0.25);
  reverse.add("a.counter", 7);
  reverse.set_gauge("m.gauge", 1.5);
  reverse.add("z.counter", 3);

  EXPECT_EQ(forward.snapshot().to_json().dump(1), reverse.snapshot().to_json().dump(1));
}

}  // namespace
}  // namespace cdsf
