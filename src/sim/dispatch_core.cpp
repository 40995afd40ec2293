#include "sim/dispatch_core.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "util/log.hpp"

namespace cdsf::sim::detail {

DispatchCore::DispatchCore(const char* executor, const SimClock& sim_clock,
                           const workload::Application& app, const SimConfig& sim_config,
                           PreparedRun& run, double dispatch_overhead, std::uint64_t seed)
    : who(executor),
      application(app),
      config(sim_config),
      prepared(run),
      overhead(dispatch_overhead),
      quarantine_armed(config.quarantine.armed()),
      pool(application.parallel_iterations()),
      // Always-on flight recorder: bounded per-worker rings, merged into
      // result.flight by finalize_run. Recording never touches the RNG,
      // the trace, or the event list, so enabling it cannot perturb the run.
      flight(prepared.workers.size(), obs::kFlightTrackCapacity,
             config.flight.enabled && obs::flight_recording_enabled()),
      health(config.quarantine, prepared.workers.size()),
      auditing(prepared.workers.size(), 0),
      clock_(sim_clock),
      corrupt_failure_(prepared.workers.size(), nullptr),
      weight0_(prepared.workers.size(), 1.0) {
  const std::size_t processors = prepared.workers.size();
  result.workers.assign(processors, WorkerStats{});
  // Gray-failure machinery, structurally disarmed by default: with the
  // quarantine config unarmed and no kSilentCorrupt failure, no tracker
  // decision fires, no extra RNG stream is created, and no extra event is
  // scheduled.
  const util::SeedSequence gray_seeds(seed);
  if (quarantine_armed && config.quarantine.audit_rate > 0.0) {
    audit_rng_ = std::make_unique<util::RngStream>(gray_seeds.child(23));
  }
  if (has_silent_corrupt(config)) {
    corrupt_rng_ = std::make_unique<util::RngStream>(gray_seeds.child(29));
    for (std::size_t w = 0; w < processors; ++w) {
      corrupt_failure_[w] = silent_corrupt_failure(config, w);
    }
  }
  if (quarantine_armed) {
    for (std::size_t w = 0; w < processors; ++w) {
      const Worker& worker = prepared.workers[w];
      weight0_[w] = worker.crashes() && worker.crash_time <= 0.0
                        ? worker.weight_at_zero
                        : worker.availability->availability_at(0.0);
    }
  }
}

double DispatchCore::open_run(const char* serial_failure) {
  for (const SimConfig::Failure& failure : config.failures) {
    // Degrade and silent-corrupt workers stay up; a master crash-restart
    // crashes the coordinator, not a worker.
    if (failure.kind == SimConfig::FailureKind::kDegrade ||
        failure.kind == SimConfig::FailureKind::kMasterCrashRestart ||
        failure.kind == SimConfig::FailureKind::kSilentCorrupt) {
      continue;
    }
    result.faults.workers_crashed += 1;
    if (failure.kind == SimConfig::FailureKind::kCrashRecover) {
      result.faults.workers_recovered += 1;
    }
  }

  // Serial iterations on worker 0 before the parallel loop opens.
  double serial_end = 0.0;
  if (application.serial_iterations() > 0) {
    const double serial_work =
        prepared.input_factor * sample_work(application.serial_iterations(),
                                            prepared.mean_iter[0], prepared.stddev_iter[0],
                                            prepared.run_rng);
    serial_end = prepared.workers[0].availability->finish_time(0.0, serial_work);
    if (!std::isfinite(serial_end)) {
      throw std::runtime_error(std::string(who) + ": " + serial_failure);
    }
  }
  result.serial_end = serial_end;
  result.makespan = serial_end;

  if (config.collect_trace) {
    for (std::size_t w = 0; w < prepared.workers.size(); ++w) {
      const Worker& worker = prepared.workers[w];
      if (!worker.crashes()) continue;
      result.events.push_back({LifecycleEvent::Kind::kWorkerCrash, worker.crash_time, w, 0});
      if (std::isfinite(worker.recovery_time)) {
        result.events.push_back(
            {LifecycleEvent::Kind::kWorkerRecover, worker.recovery_time, w, 0});
      }
    }
  }
  return serial_end;
}

void DispatchCore::check_stranded(bool armed, std::int64_t remaining, const char* reason) {
  if (!armed || remaining <= 0) return;
  const std::string detail =
      std::to_string(remaining) + " iterations stranded by crashes " + reason;
  // finalize_run never runs for a stranded run, so the postmortem dumps
  // here, at the detection site.
  obs::FlightSink::global().maybe_dump(flight.finish(),
                                       obs::FlightAnomaly{"strand", detail, clock_.now()});
  throw std::runtime_error(std::string(who) + ": " + detail);
}

RunResult DispatchCore::finish_run(double serial_end) {
  for (const char busy : auditing) {
    if (busy) health.stats.audits_abandoned += 1;
  }
  audits_waiting.clear();
  health.finish(std::max(result.makespan, clock_.now()));
  result.quarantine = health.stats;
  for (WorkerStats& w : result.workers) {
    if (w.finish_time == 0.0) w.finish_time = serial_end;
  }
  finalize_run(result, config, flight);
  return std::move(result);
}

IterationPool::Range DispatchCore::grant(dls::Technique& technique, std::size_t w, bool probe,
                                         bool fallback, const std::vector<char>& down) {
  const std::int64_t pending = pool.pending();
  std::int64_t chunk = technique.next_chunk(dls::SchedulingContext{pending, w, clock_.now()});
  if (chunk <= 0) {
    if (probe) {
      chunk = 1;
    } else if (!fallback) {
      return {};
    } else {
      // The technique considers its plan spent (STATIC after a crash
      // returned iterations to the pool), yet work is pending — drain it
      // in equal shares so every run completes.
      std::int64_t alive = 0;
      for (const char d : down) alive += d ? 0 : 1;
      chunk = (pending + alive - 1) / alive;
    }
  }
  const IterationPool::Range range = pool.take(chunk);
  if (probe) {
    health.stats.probes_launched += 1;
    emit(obs::FlightEventKind::kCanaryProbe, LifecycleEvent::Kind::kQuarantineProbe, w, range);
  }
  return range;
}

bool DispatchCore::complete(dls::Technique& technique, std::size_t w, IterationPool::Range range,
                            bool backup, bool probe, double dispatch_time, double start_time,
                            double end_time, double overhead_time) {
  const double now = clock_.now();
  WorkerStats& stats = result.workers[w];
  stats.chunks += 1;
  stats.iterations += range.count;
  stats.busy_time += end_time - start_time;
  stats.overhead_time += overhead_time;
  stats.finish_time = end_time;
  result.total_chunks += 1;
  result.makespan = std::max(result.makespan, end_time);
  completed += range.count;
  flight.record(obs::FlightEventKind::kChunkAccepted, now, static_cast<std::uint32_t>(w),
                range.first, range.count);
  if (backup) {
    result.speculation.backups_won += 1;
    flight.record(obs::FlightEventKind::kBackupWon, now, static_cast<std::uint32_t>(w),
                  range.first, range.count);
  }
  technique.record(
      dls::ChunkResult{w, range.count, end_time - start_time, end_time - dispatch_time});

  const bool wrong = draws_wrong(w, end_time);
  if (wrong) health.stats.corrupt_chunks_recorded += 1;
  if (!quarantine_armed) return false;
  // Dispatch-to-completion wall clock against the a-priori expectation
  // (the dispatch overhead covers the assignment's trip; a report trip is
  // not in the numerator). Deliberately NOT the technique's runtime
  // estimate: adaptive estimators normalize to a slow worker's rate.
  const double expected = HealthTracker::expected_elapsed(
      overhead, prepared.input_factor * prepared.mean_iter[w] * static_cast<double>(range.count),
      weight0_[w]);
  const double slowdown = (end_time - dispatch_time) / expected;
  if (probe) {
    if (health.observe_probe(w, slowdown)) {
      health.reinstate(w, now);
      emit(obs::FlightEventKind::kWorkerRestored, LifecycleEvent::Kind::kWorkerRestored, w);
    }
    return false;
  }
  if (health.observe(w, slowdown)) quarantine(w, /*audit_trip=*/false);
  if (audit_rng_ == nullptr || !(audit_rng_->uniform01() < config.quarantine.audit_rate)) {
    return false;
  }
  audits_waiting.push_back(AuditJob{range, w, wrong});
  return true;
}

bool DispatchCore::begin_audit(std::size_t w, const AuditJob& job, double dispatch_time,
                               double start_time, double end_time, bool lost) {
  health.stats.audits_launched += 1;
  emit(obs::FlightEventKind::kAuditLaunched, LifecycleEvent::Kind::kAuditLaunched, w,
       job.range);
  trace({w, job.range.count, dispatch_time, start_time, end_time, lost, job.range.first, false,
         false, false, true, false});
  CDSF_LOG_TRACE << who << " worker " << w << " audit " << job.range.count << " of worker "
                 << job.origin << " [" << dispatch_time << ", " << end_time << "]"
                 << (lost ? " LOST" : "");
  if (lost) {
    // The auditing worker crashes mid-replica; the verdict never lands.
    health.stats.audits_abandoned += 1;
    return false;
  }
  auditing[w] = 1;
  return true;
}

void DispatchCore::audit_verdict(std::size_t w, const AuditJob& job, double start_time,
                                 double end_time, double overhead_time) {
  auditing[w] = 0;
  WorkerStats& stats = result.workers[w];
  stats.busy_time += end_time - start_time;
  stats.overhead_time += overhead_time;
  stats.finish_time = std::max(stats.finish_time, end_time);
  // The replica itself can be silently wrong when ITS worker is gray —
  // either wrongness makes the pair disagree.
  const bool replica_wrong = draws_wrong(w, end_time);
  if (!job.original_wrong && !replica_wrong) {
    health.stats.audits_matched += 1;
    return;
  }
  health.stats.audit_mismatches += 1;
  emit(obs::FlightEventKind::kAuditMismatch, LifecycleEvent::Kind::kAuditMismatch, job.origin,
       job.range);
  if (health.observe_mismatch(job.origin)) quarantine(job.origin, /*audit_trip=*/true);
}

void DispatchCore::charge_cancelled(std::size_t w, IterationPool::Range range, bool backup,
                                    double dispatch_time, double start_time, double end_time,
                                    std::ptrdiff_t trace_index) {
  const double now = clock_.now();
  result.speculation.cancelled_work += sunk_work(w, dispatch_time, start_time, end_time);
  if (backup) {
    result.speculation.backups_cancelled += 1;
  } else {
    result.speculation.primaries_cancelled += 1;
  }
  emit(obs::FlightEventKind::kChunkCancelled, LifecycleEvent::Kind::kChunkCancelled, w, range);
  if (trace_index >= 0) {
    ChunkTraceEntry& entry = result.trace[static_cast<std::size_t>(trace_index)];
    entry.cancelled = true;
    entry.end_time = std::min(now, entry.end_time);
  }
}

void DispatchCore::charge_lost(std::size_t w, IterationPool::Range range, bool backup,
                               double dispatch_time, double start_time, double end_time) {
  result.faults.chunks_lost += 1;
  emit(obs::FlightEventKind::kChunkLost, LifecycleEvent::Kind::kChunkLost, w, range);
  result.faults.wasted_work += sunk_work(w, dispatch_time, start_time, end_time);
  if (backup) result.speculation.backups_lost += 1;
}

double DispatchCore::sunk_work(std::size_t w, double dispatch_time, double start_time,
                               double end_time) const {
  const double now = clock_.now();
  double sunk = std::min(overhead, std::max(0.0, now - dispatch_time));
  const double stop = std::min(now, end_time);
  if (start_time < stop) {
    sunk += prepared.workers[w].availability->work_delivered(start_time, stop);
  }
  return sunk;
}

bool DispatchCore::draws_wrong(std::size_t w, double end_time) {
  const SimConfig::Failure* f = corrupt_failure_[w];
  return f != nullptr && end_time > f->time && corrupt_rng_->uniform01() < f->corrupt_probability;
}

void DispatchCore::quarantine(std::size_t w, bool audit_trip) {
  health.quarantine(w, clock_.now(), audit_trip);
  emit(obs::FlightEventKind::kWorkerQuarantined, LifecycleEvent::Kind::kWorkerQuarantined, w,
       audit_trip ? 1 : 0);
}

}  // namespace cdsf::sim::detail
