// Internal helpers shared by the loop executors (the idealized one in
// loop_executor.cpp and the message-passing one in master_worker.cpp; their
// shared dispatch policy is dispatch_core.hpp). Not part of the public API.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "dls/technique.hpp"
#include "obs/flight.hpp"
#include "sim/loop_executor.hpp"
#include "sysmodel/availability.hpp"
#include "util/rng.hpp"
#include "workload/application.hpp"

namespace cdsf::sim::detail {

/// Throws std::invalid_argument on out-of-domain config values.
void validate_config(const SimConfig& config);

/// Validates the failure list against a worker count: every target must be
/// a known worker, at most ONE failure per worker (duplicates would stack
/// decorators with order-dependent semantics), kDegrade residuals in
/// (0, 1], kCrashRecover recoveries strictly after the crash. Throws
/// std::invalid_argument.
void validate_failures(const std::vector<SimConfig::Failure>& failures,
                       std::size_t processors);

/// True if any configured failure is kCrash / kCrashRecover — the switch
/// that arms the fault-tolerance machinery (and, in the MPI model, the
/// timeout timers). Master failures (kMasterCrashRestart) do NOT count:
/// they crash the coordinator, not a worker's availability process.
[[nodiscard]] bool has_crash_failures(const SimConfig& config);

/// The configured master crash-restart failure, or nullptr. At most one
/// exists (validate_failures rejects duplicates).
[[nodiscard]] const SimConfig::Failure* master_restart_failure(const SimConfig& config);

/// True if any configured failure is kSilentCorrupt — the switch that arms
/// the silent-wrongness draw stream (and ground-truth accounting) in both
/// executors.
[[nodiscard]] bool has_silent_corrupt(const SimConfig& config);

/// Worker `worker`'s kSilentCorrupt failure, or nullptr (at most one
/// failure per worker exists after validate_failures).
[[nodiscard]] const SimConfig::Failure* silent_corrupt_failure(const SimConfig& config,
                                                               std::size_t worker);

/// One replication: the executor under `config` with a child seed.
using ReplicaRun = std::function<RunResult(const SimConfig& config, std::uint64_t seed)>;

/// The replication driver of simulate_replicated and
/// simulate_replicated_mpi. Each replication derives all randomness from
/// its own child seed and totals are summed in replication order, so the
/// summary is bit-identical for any thread count. Replications drop the
/// checkpoint JSON path (threads would race on one file) and take the
/// deadline as the flight deadline-miss trigger unless one is pinned.
/// Throws std::invalid_argument (`who`) for zero replications.
[[nodiscard]] ReplicationSummary replicate(const char* who, const SimConfig& config,
                                           std::uint64_t seed, std::size_t replications,
                                           double deadline, std::size_t threads,
                                           const ReplicaRun& run);

struct Worker;

/// Applies one (already validated) failure to its worker: wraps the
/// availability process in the kind's decorator and, for crash kinds,
/// mirrors crash metadata and captures the pre-crash weight seed.
void apply_failure(Worker& worker, const SimConfig::Failure& failure);

/// Sum of `count` iid iteration times (exact draws for small chunks, CLT
/// normal approximation for large ones); always > 0.
[[nodiscard]] double sample_work(std::int64_t count, double mean, double stddev,
                                 util::RngStream& rng);

/// Dedicated-processor work of the chunk covering parallel iterations
/// [first_index, first_index + count). For flat profiles this is the iid
/// draw of sample_work (bit-identical to the historical behavior); for
/// index-dependent profiles the profile-weighted mean over the range is
/// taken with one multiplicative noise draw of c.o.v. iteration_cov /
/// sqrt(count).
[[nodiscard]] double chunk_work(const workload::Application& application,
                                std::size_t processor_type, double mean_iter,
                                double stddev_iter, double iteration_cov,
                                std::int64_t first_index, std::int64_t count,
                                util::RngStream& rng);

/// One worker's simulation state.
struct Worker {
  std::unique_ptr<sysmodel::AvailabilityProcess> availability;
  std::unique_ptr<util::RngStream> rng;
  /// Crash metadata mirrored out of the configured failure (both
  /// +infinity when the worker has no crash-kind failure). The executors
  /// read these instead of down-casting the decorated process.
  double crash_time = std::numeric_limits<double>::infinity();
  double recovery_time = std::numeric_limits<double>::infinity();
  /// availability_at(0) of the process BEFORE any crash decorator was
  /// applied — the a-priori weight seed. A crash at t = 0 would otherwise
  /// seed weight 0, which normalized_weights rejects (and the master has
  /// no way to know at dispatch time that the worker is already gone).
  double weight_at_zero = 1.0;

  [[nodiscard]] bool crashes() const noexcept {
    return crash_time != std::numeric_limits<double>::infinity();
  }
};

/// The undispatched parallel iterations. Normally a plain front counter
/// (contiguous ranges handed out in index order — bit-identical to the
/// historical `first_index = total - remaining` arithmetic); when a crash
/// strands a chunk its range is given back and re-dispatched FIFO before
/// any fresh work. take() always returns ONE contiguous range (chunk work
/// of index-dependent profiles needs contiguity), so a grant may come back
/// smaller than requested when the front returned range is short.
class IterationPool {
 public:
  struct Range {
    std::int64_t first = 0;
    std::int64_t count = 0;
  };

  explicit IterationPool(std::int64_t total) : total_(total) {}

  /// Iterations not yet completed-or-in-flight.
  [[nodiscard]] std::int64_t pending() const noexcept {
    std::int64_t p = total_ - next_;
    for (const Range& r : returned_) p += r.count;
    return p;
  }

  /// Hands out up to `max_count` iterations as one contiguous range
  /// (count == 0 when the pool is empty or max_count <= 0).
  [[nodiscard]] Range take(std::int64_t max_count) {
    if (max_count <= 0) return {};
    if (!returned_.empty()) {
      Range& front = returned_.front();
      Range out{front.first, std::min(front.count, max_count)};
      front.first += out.count;
      front.count -= out.count;
      if (front.count == 0) returned_.pop_front();
      return out;
    }
    Range out{next_, std::min(total_ - next_, max_count)};
    if (out.count <= 0) return {};
    next_ += out.count;
    return out;
  }

  /// Returns a lost chunk's range for re-dispatch.
  void give_back(Range range) {
    if (range.count > 0) returned_.push_back(range);
  }

 private:
  std::int64_t total_ = 0;
  std::int64_t next_ = 0;
  std::deque<Range> returned_;
};

/// Fail-slow health tracking + quarantine state machine of the dispatch
/// core. Pure bookkeeping with NO randomness: every decision derives from
/// observations the caller feeds in deterministic event order, so the
/// tracker never perturbs the executors' RNG streams. The core and the
/// transports own dispatch policy (benching quarantined workers, firing
/// canary probes); the tracker owns the thresholds, streaks, and counters.
///
/// State machine per worker:
///   Healthy --(EWMA slowdown > threshold after min_observations,
///              or audit mismatches reach audit_mismatch_limit)-->
///   Quarantined (drained; canary probes only) --(probe_successes
///              consecutive healthy canaries)--> Healthy (state reset).
///
/// The fail-slow EWMA trips only with Quarantine::enabled; audit
/// mismatches trip whenever audits run (audit_rate > 0) — both feed the
/// same quarantine machinery.
class HealthTracker {
 public:
  HealthTracker(const SimConfig::Quarantine& config, std::size_t workers)
      : config_(config), state_(workers) {}

  /// Aggregated counters; the executor merges this into
  /// RunResult::quarantine after finish().
  QuarantineStats stats;

  /// Expected dedicated wall-clock of a chunk for the slowdown ratio:
  /// dispatch overhead plus a-priori work scaled by the worker's t = 0
  /// weight, floored like the MPI failure detector's round-trip estimate.
  /// Deliberately NOT the technique's runtime mu estimate: adaptive
  /// estimators normalize themselves to a slow worker's observed rate and
  /// would never flag it.
  [[nodiscard]] static double expected_elapsed(double overhead, double work,
                                               double weight) noexcept {
    return overhead + work / std::max(weight, 0.05);
  }

  /// Feeds one accepted non-canary chunk observation. Returns true when
  /// this observation trips the fail-slow threshold (caller quarantines).
  [[nodiscard]] bool observe(std::size_t worker, double slowdown) {
    State& s = state_[worker];
    s.ewma = s.observations == 0
                 ? slowdown
                 : config_.ewma_alpha * slowdown + (1.0 - config_.ewma_alpha) * s.ewma;
    ++s.observations;
    return config_.enabled && !s.quarantined &&
           s.observations >= config_.min_observations &&
           s.ewma > config_.slowdown_threshold;
  }

  /// Feeds one canary-probe result. Returns true when the healthy streak
  /// reaches probe_successes (caller reinstates).
  [[nodiscard]] bool observe_probe(std::size_t worker, double slowdown) {
    State& s = state_[worker];
    if (slowdown <= config_.slowdown_threshold) {
      ++stats.probes_healthy;
      ++s.healthy_streak;
    } else {
      s.healthy_streak = 0;
    }
    return s.quarantined && s.healthy_streak >= config_.probe_successes;
  }

  /// Feeds one audit mismatch against `worker`. Returns true when the
  /// mismatch limit is reached (caller quarantines).
  [[nodiscard]] bool observe_mismatch(std::size_t worker) {
    State& s = state_[worker];
    ++s.mismatches;
    return !s.quarantined && s.mismatches >= config_.audit_mismatch_limit;
  }

  void quarantine(std::size_t worker, double now, bool audit_trip) {
    State& s = state_[worker];
    s.quarantined = true;
    s.since = now;
    s.healthy_streak = 0;
    ++stats.quarantines;
    if (audit_trip) {
      ++stats.audit_trips;
    } else {
      ++stats.fail_slow_trips;
    }
  }

  /// Reinstates with a clean slate: the EWMA, observation count, and
  /// mismatch tally restart so stale history cannot instantly re-trip.
  void reinstate(std::size_t worker, double now) {
    State& s = state_[worker];
    stats.quarantined_time += now - s.since;
    s = State{};
    ++stats.reinstatements;
  }

  [[nodiscard]] bool quarantined(std::size_t worker) const {
    return state_[worker].quarantined;
  }

  /// Closes still-open quarantine windows into quarantined_time.
  void finish(double now) {
    for (State& s : state_) {
      if (s.quarantined) {
        stats.quarantined_time += now - s.since;
        s.quarantined = false;
      }
    }
  }

 private:
  struct State {
    double ewma = 0.0;
    std::uint64_t observations = 0;
    std::size_t healthy_streak = 0;
    std::size_t mismatches = 0;
    bool quarantined = false;
    double since = 0.0;
  };
  SimConfig::Quarantine config_;
  std::vector<State> state_;
};

/// Everything both executors need set up identically: validated inputs,
/// per-run input factor, per-worker types, iteration statistics,
/// availability processes and noise streams (failure decorators applied),
/// and executor-populated TechniqueParams (weights = availabilities
/// observed at t = 0).
struct PreparedRun {
  double input_factor = 1.0;
  std::vector<std::size_t> types;
  std::vector<double> mean_iter;
  std::vector<double> stddev_iter;
  std::vector<Worker> workers;
  dls::TechniqueParams params;
  util::RngStream run_rng{0};
};

/// Builds the shared state for workers of the given types. A `mixed` group
/// (simulate_loop_mixed) spreads diurnal phases evenly over the group and
/// weights workers by speed x availability; a homogeneous group takes each
/// diurnal phase from the availability seed and weights = availabilities.
/// Throws std::invalid_argument for zero workers, unknown processor types,
/// or invalid config.
[[nodiscard]] PreparedRun prepare_run(const workload::Application& application,
                                      std::vector<std::size_t> worker_types,
                                      const sysmodel::AvailabilitySpec& availability,
                                      const SimConfig& config, std::uint64_t seed, bool mixed);

/// Shared run epilogue: sorts the lifecycle events by time, merges the
/// flight recorder into RunResult::flight, dumps a postmortem through
/// obs::FlightSink when the run ended badly (deadline miss, master
/// restart, quarantine trip — strands and chaos violations dump at their
/// own detection sites), and, when the global obs::MetricsRegistry is
/// enabled, records the run's aggregate counters and makespan histogram
/// (one registry touch per run — nothing on the per-chunk path).
void finalize_run(RunResult& result, const SimConfig& config,
                  const obs::FlightRecorder& recorder);

}  // namespace cdsf::sim::detail
