// Transport-agnostic Stage II dispatch policy shared by both loop
// executors. The idealized executor (loop_executor.cpp) and the
// message-passing executor (master_worker.cpp) differ only in how a
// decision reaches a worker and how its result comes back; everything the
// master DECIDES lives here once. Plain data plus non-virtual members (the
// pool-empty ladder is a template over the transport's callbacks), so the
// chunk path pays no virtual call and no std::function. Not public API.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "dls/technique.hpp"
#include "obs/flight.hpp"
#include "sim/engine.hpp"
#include "sim/loop_executor.hpp"
#include "sim/sim_common.hpp"
#include "util/rng.hpp"
#include "workload/application.hpp"

namespace cdsf::sim::detail {

/// One queued audit: re-run `range` on a worker other than `origin` and
/// compare. `original_wrong` is the ground truth carried from the
/// original completion's silent-wrongness draw.
struct AuditJob {
  IterationPool::Range range;
  std::size_t origin = 0;
  bool original_wrong = false;
};

class DispatchCore {
 public:
  /// `executor` prefixes thrown messages; `dispatch_overhead` is the
  /// transport's dispatch cost (scheduling overhead, or one message
  /// latency) — the fixed part of the slowdown baseline and of every
  /// sunk-work charge.
  /// `sim_clock` is the transport's engine, which outlives the core.
  DispatchCore(const char* executor, const SimClock& sim_clock,
               const workload::Application& app, const SimConfig& sim_config, PreparedRun& run,
               double dispatch_overhead, std::uint64_t seed);
  DispatchCore(const DispatchCore&) = delete;
  DispatchCore& operator=(const DispatchCore&) = delete;

  const char* const who;
  const workload::Application& application;
  const SimConfig& config;
  PreparedRun& prepared;
  const double overhead;
  const bool quarantine_armed;

  RunResult result;
  IterationPool pool;
  obs::FlightRecorder flight;
  HealthTracker health;
  std::deque<AuditJob> audits_waiting;  // enrolled, not yet dispatched
  std::vector<char> auditing;           // worker busy on an audit replica
  std::int64_t completed = 0;           // accepted parallel iterations

  /// Counts crashed workers, records their crash/recover lifecycle events,
  /// and runs the serial phase on worker 0; returns serial_end. Throws
  /// std::runtime_error(who: serial_failure) when worker 0 crashes in it.
  double open_run(const char* serial_failure);

  /// Throws std::runtime_error after a "strand" postmortem when `armed`
  /// and `remaining` > 0 iterations never completed.
  void check_stranded(bool armed, std::int64_t remaining, const char* reason);

  /// Epilogue: in-flight audit replicas are abandoned, queued ones dropped
  /// uncounted (audits_abandoned tracks LAUNCHED replicas only, keeping
  /// launched == matched + mismatches + abandoned exact), open quarantine
  /// windows close, idle workers finish at serial_end, then finalize_run.
  [[nodiscard]] RunResult finish_run(double serial_end);

  /// One lifecycle moment, now, on worker `w`'s flight track and (with
  /// collect_trace) in the lifecycle trace.
  void emit(obs::FlightEventKind flight_kind, LifecycleEvent::Kind kind, std::size_t w,
            std::int64_t value = 0) {
    const double now = clock_.now();
    flight.record(flight_kind, now, static_cast<std::uint32_t>(w), value);
    if (config.collect_trace) result.events.push_back({kind, now, w, value});
  }
  /// As emit, for a chunk: the flight event carries the range, the
  /// lifecycle event its iteration count.
  void emit(obs::FlightEventKind flight_kind, LifecycleEvent::Kind kind, std::size_t w,
            IterationPool::Range range) {
    const double now = clock_.now();
    flight.record(flight_kind, now, static_cast<std::uint32_t>(w), range.first, range.count);
    if (config.collect_trace) result.events.push_back({kind, now, w, range.count});
  }
  /// A coordinator moment: master flight track, lifecycle worker 0.
  void emit_master(obs::FlightEventKind flight_kind, LifecycleEvent::Kind kind,
                   std::int64_t value = 0, std::int64_t b = 0) {
    const double now = clock_.now();
    flight.record(flight_kind, now, obs::kFlightMasterTrack, value, b);
    if (config.collect_trace) result.events.push_back({kind, now, 0, value});
  }
  /// Appends a chunk trace entry; returns its index (-1 when not tracing).
  std::ptrdiff_t trace(const ChunkTraceEntry& entry) {
    if (!config.collect_trace) return -1;
    result.trace.push_back(entry);
    return static_cast<std::ptrdiff_t>(result.trace.size()) - 1;
  }

  /// Dedicated-processor work of `range` on worker w (one noise draw).
  [[nodiscard]] double draw_work(std::size_t w, IterationPool::Range range) {
    return prepared.input_factor * chunk_work(application, prepared.types[w],
                                              prepared.mean_iter[w], prepared.stddev_iter[w],
                                              config.iteration_cov, range.first, range.count,
                                              *prepared.workers[w].rng);
  }

  /// Worker w's next grant from the non-empty pool: the technique's chunk,
  /// else one iteration for a canary (a spent plan still probes), else with
  /// `fallback` an equal share over the workers not `down`, else nothing
  /// (the caller retires w). A canary grant is counted and announced.
  [[nodiscard]] IterationPool::Range grant(dls::Technique& technique, std::size_t w,
                                           bool probe, bool fallback,
                                           const std::vector<char>& down);

  /// The pool-empty ladder for worker w (fresh work always outranks both):
  /// a backup for the oldest live straggler (`stale` prunes resolved
  /// races), then an audit (pure validation; never of w's own chunk).
  /// Returns false when neither applies — the caller idles the worker.
  template <class Straggler, class Stale, class Backup, class Audit>
  bool offer_spare_work(std::size_t w, std::deque<Straggler>& stragglers, Stale&& stale,
                        Backup&& launch_backup, Audit&& launch_audit) {
    while (!stragglers.empty() && stale(stragglers.front())) stragglers.pop_front();
    if (!stragglers.empty()) {
      const Straggler straggler = stragglers.front();
      stragglers.pop_front();
      launch_backup(straggler);
      return true;
    }
    for (auto it = audits_waiting.begin(); it != audits_waiting.end(); ++it) {
      if (it->origin == w) continue;
      const AuditJob job = *it;
      audits_waiting.erase(it);
      launch_audit(job);
      return true;
    }
    return false;
  }

  /// Worker w has nothing to run: its finish time reaches now.
  void note_idle(std::size_t w) {
    WorkerStats& stats = result.workers[w];
    stats.finish_time = std::max(stats.finish_time, clock_.now());
  }

  /// An ACCEPTED completion of `range` on worker w: accounting, the
  /// technique's feedback (exactly once per range), the silent-wrongness
  /// draw, the fail-slow EWMA (a canary's recovery streak) with quarantine
  /// or reinstatement, and audit enrolment. True when an audit was
  /// enrolled (the caller wakes one idle eligible worker).
  bool complete(dls::Technique& technique, std::size_t w, IterationPool::Range range,
                bool backup, bool probe, double dispatch_time, double start_time,
                double end_time, double overhead_time);

  /// Records one dispatched audit replica. Returns false when the replica
  /// is lost to its worker's crash (the verdict never lands); otherwise
  /// marks w busy auditing and the caller schedules the verdict.
  bool begin_audit(std::size_t w, const AuditJob& job, double dispatch_time, double start_time,
                   double end_time, bool lost);

  /// The verdict of worker w's replica reached the master: accounts the
  /// replica, draws its own wrongness, and on a mismatch marks the
  /// ORIGINATING worker suspect (quarantined at the mismatch limit).
  void audit_verdict(std::size_t w, const AuditJob& job, double start_time, double end_time,
                     double overhead_time);

  /// Charges a cancelled losing copy on worker w.
  void charge_cancelled(std::size_t w, IterationPool::Range range, bool backup,
                        double dispatch_time, double start_time, double end_time,
                        std::ptrdiff_t trace_index);

  /// Charges a copy stranded by worker w's crash.
  void charge_lost(std::size_t w, IterationPool::Range range, bool backup, double dispatch_time,
                   double start_time, double end_time);

 private:
  const SimClock& clock_;
  /// Dispatch overhead spent so far plus compute delivered before now (or
  /// before the copy's end, whichever is first).
  [[nodiscard]] double sunk_work(std::size_t w, double dispatch_time, double start_time,
                                 double end_time) const;
  /// Silent-wrongness ground truth of a result w finished at end_time
  /// (drawn only for a gray worker past onset).
  [[nodiscard]] bool draws_wrong(std::size_t w, double end_time);
  void quarantine(std::size_t w, bool audit_trip);

  // Gray-failure streams, fanned out of the run seed on their own child
  // indices (23 / 29 — disjoint from the run_rng, worker, availability,
  // channel, and burst streams) and created only when armed, so disarmed
  // runs never consume them.
  std::unique_ptr<util::RngStream> audit_rng_;
  std::unique_ptr<util::RngStream> corrupt_rng_;
  std::vector<const SimConfig::Failure*> corrupt_failure_;
  /// A-priori t = 0 weights for the slowdown baseline (pre-crash value for
  /// a worker already down at t = 0, matching the technique's weight seed).
  std::vector<double> weight0_;
};

}  // namespace cdsf::sim::detail
