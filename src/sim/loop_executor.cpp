#include "sim/loop_executor.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>

#include "sim/dispatch_core.hpp"
#include "sim/engine.hpp"
#include "sim/sim_common.hpp"
#include "stats/distribution.hpp"
#include "stats/summary.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace cdsf::sim {

namespace {

/// Delegates every call to a caller-owned technique (for the Technique&
/// overload of simulate_loop).
class ForwardingTechnique final : public dls::Technique {
 public:
  explicit ForwardingTechnique(dls::Technique& inner) : inner_(&inner) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::int64_t next_chunk(const dls::SchedulingContext& ctx) override {
    return inner_->next_chunk(ctx);
  }
  void record(const dls::ChunkResult& result) override { inner_->record(result); }
  [[nodiscard]] double estimated_iteration_time(std::size_t worker) const override {
    return inner_->estimated_iteration_time(worker);
  }
  void reset() override { inner_->reset(); }

 private:
  dls::Technique* inner_;
};

/// The idealized self-scheduling event loop shared by simulate_loop and
/// simulate_loop_mixed: the dispatch core (dispatch_core.hpp) over a
/// transport that charges a fixed scheduling_overhead per dispatch and
/// observes crashes instantly. A chunk whose execution window straddles
/// its worker's crash is LOST — its iterations return to the pool and are
/// re-dispatched FIFO to idle survivors; record() is never called for lost
/// chunks, so adaptive weights see only real timings. The deadline-risk
/// monitor exists only here.
class IdealLoop {
 public:
  IdealLoop(const workload::Application& application, const SimConfig& sim_config,
            detail::PreparedRun& prepared_run, dls::Technique& run_technique, std::uint64_t seed)
      : config(sim_config),
        prepared(prepared_run),
        technique(run_technique),
        core("simulate_loop", engine, application, sim_config, prepared_run,
             sim_config.scheduling_overhead, seed),
        total_parallel(application.parallel_iterations()) {}

  RunResult run() {
    serial_end =
        core.open_run("master crashed during the serial phase — the serial iterations have no "
                      "fault tolerance (re-dispatch needs a live master)");
    if (total_parallel > 0) {
      // Crash lifecycle events FIRST so that, on a timestamp tie, a worker is
      // marked dead before any request or completion at the same instant.
      for (std::size_t w = 0; w < processors; ++w) {
        if (!workers[w].crashes()) continue;
        engine.schedule_at(workers[w].crash_time, Event{Kind::kCrash, w});
        if (std::isfinite(workers[w].recovery_time) && workers[w].recovery_time > serial_end) {
          engine.schedule_at(workers[w].recovery_time, Event{Kind::kRecover, w});
        }
      }
      // Two timers re-push themselves while rescuable(); the canary timer
      // exists only when the gray machinery is armed.
      if (config.deadline_risk.enabled) {
        engine.schedule_at(serial_end + config.deadline_risk.check_interval,
                           Event{Kind::kRiskCheck});
      }
      if (core.quarantine_armed) {
        engine.schedule_at(serial_end + config.quarantine.probe_interval,
                           Event{Kind::kProbeTick});
      }
      // All workers become available for parallel work once the serial
      // portion completes on the master; workers already down then are
      // skipped (their recovery event, if any, revives them).
      engine.schedule_at(serial_end, Event{Kind::kOpen});
      engine.run([this](const Event& event) { dispatch(event); });
    }
    core.check_stranded(crash_mode, core.pool.pending(),
                        "with no surviving worker to re-dispatch to");
    return core.finish_run(serial_end);
  }

 private:
  // One dispatched copy of a task's range. A task is the unit of
  // exactly-once execution: normally just the primary copy; when the
  // speculation layer flags the primary as a straggler, a backup copy runs
  // the SAME range on another worker and the first finisher wins.
  struct Copy {
    std::size_t worker = 0;
    bool live = false;  // running; completion event pending
    bool lost = false;  // straddles its worker's crash; reclaim pending
    double dispatch_time = 0.0;
    double start_time = 0.0;
    double end_time = 0.0;
    EventId completion = kNoEvent;
    std::ptrdiff_t trace_index = -1;  // set only with collect_trace
  };
  struct Task {
    detail::IterationPool::Range range;
    Copy primary;
    Copy backup;
    bool has_backup = false;
    bool flagged = false;  // straggler-flagged (at most once)
    bool done = false;     // a winner finished, or the range went back
    bool probe = false;    // canary chunk sent to a quarantined worker
  };
  enum class Kind : std::uint8_t {
    kOpen,          // the serial phase ended: every worker requests
    kComplete,      // copy `backup` of `task` finished (cancellable)
    kStraggler,     // `task`'s primary on `worker` crossed its threshold
    kAuditVerdict,  // `worker`'s replica of `job` finished
    kCrash,         // `worker` crashes
    kRecover,       // `worker` rejoins
    kRiskCheck,     // deadline-risk monitor tick
    kProbeTick,     // canary-probe timer tick
  };
  /// One scheduled moment: the kind plus the fields its handler reads.
  struct Event {
    Kind kind;
    std::size_t worker = 0;
    Task* task = nullptr;
    bool backup = false;
    detail::AuditJob job{};
    double start_time = 0.0;  // kAuditVerdict
    double end_time = 0.0;    // kAuditVerdict
  };

  void dispatch(const Event& event) {
    const std::size_t w = event.worker;
    switch (event.kind) {
      case Kind::kOpen:
        for (std::size_t v = 0; v < processors; ++v) request(v);
        return;
      case Kind::kComplete:
        return complete_copy(event.task, event.backup);
      case Kind::kStraggler:
        return flag_straggler(event.task, w);
      case Kind::kAuditVerdict:
        core.audit_verdict(w, event.job, event.start_time, event.end_time,
                           config.scheduling_overhead);
        request(w);
        return;
      case Kind::kCrash:
        return crash(w);
      case Kind::kRecover:
        dead[w] = 0;
        core.flight.record(obs::FlightEventKind::kWorkerRecovered, engine.now(),
                           static_cast<std::uint32_t>(w));
        request(w);
        return;
      case Kind::kRiskCheck:
        return risk_check();
      case Kind::kProbeTick:
        return probe_tick();
    }
  }

  // Times a copy of `range` dispatched to worker v now. Lost iff the
  // execution window straddles the crash (a permanent crash makes end_time
  // +infinity, which also lands here). Dead workers never request, so
  // dispatch_time < crash_time holds for every pre-crash chunk and is
  // false for every post-recovery one.
  Copy time_copy(std::size_t v, detail::IterationPool::Range range) {
    Copy copy{.worker = v, .dispatch_time = engine.now(),
              .start_time = engine.now() + config.scheduling_overhead};
    copy.end_time =
        workers[v].availability->finish_time(copy.start_time, core.draw_work(v, range));
    copy.lost =
        copy.dispatch_time < workers[v].crash_time && copy.end_time > workers[v].crash_time;
    copy.live = !copy.lost;
    return copy;
  }

  // Stops a live losing copy: its completion event dies, the sunk work is
  // charged to cancelled_work, and its worker is free immediately.
  void cancel_copy(Task& task, Copy& copy, bool is_backup) {
    engine.cancel(copy.completion);
    copy.live = false;
    core.charge_cancelled(copy.worker, task.range, is_backup, copy.dispatch_time,
                          copy.start_time, copy.end_time, copy.trace_index);
    running[copy.worker] = nullptr;
    request(copy.worker);
  }

  // Re-executes an accepted chunk on independent worker v; the verdict
  // lands when the replica finishes.
  void launch_audit(std::size_t v, const detail::AuditJob& job) {
    const Copy replica = time_copy(v, job.range);
    if (!core.begin_audit(v, job, replica.dispatch_time, replica.start_time, replica.end_time,
                          replica.lost)) {
      return;
    }
    engine.schedule_at(replica.end_time,
                       Event{.kind = Kind::kAuditVerdict, .worker = v, .job = job,
                             .start_time = replica.start_time, .end_time = replica.end_time});
  }

  // Winning copy finished: account it, feed the technique exactly once,
  // cancel the losing copy if one is still running.
  void complete_copy(Task* task, bool is_backup) {
    Copy& winner = is_backup ? task->backup : task->primary;
    const std::size_t w = winner.worker;
    winner.live = false;
    running[w] = nullptr;
    task->done = true;
    if (core.complete(technique, w, task->range, is_backup, task->probe, winner.dispatch_time,
                      winner.start_time, engine.now(), config.scheduling_overhead)) {
      // Wake one idle eligible worker for the replica (the originator
      // cannot audit itself; quarantined workers are never idle[]).
      for (std::size_t v = 0; v < processors; ++v) {
        if (idle[v] && !dead[v] && v != w) {
          idle[v] = 0;
          request(v);
          break;
        }
      }
    }
    Copy& loser = is_backup ? task->primary : task->backup;
    if (task->has_backup && loser.live) cancel_copy(*task, loser, !is_backup);
    request(w);
  }

  // Runs a straggler task's range a second time on idle worker v.
  void launch_backup(std::size_t v, Task* task) {
    const detail::IterationPool::Range range = task->range;
    task->has_backup = true;
    task->backup = time_copy(v, range);
    Copy& copy = task->backup;
    running[v] = task;
    core.result.speculation.backups_launched += 1;
    core.emit(obs::FlightEventKind::kBackupLaunched, LifecycleEvent::Kind::kChunkBackup, v,
              range);
    copy.trace_index = core.trace({v, range.count, copy.dispatch_time, copy.start_time,
                                   copy.end_time, copy.lost, range.first, true, false});
    CDSF_LOG_TRACE << "worker " << v << " backup " << range.count << " [" << copy.dispatch_time
                   << ", " << copy.end_time << "]" << (copy.lost ? " LOST" : "");
    if (copy.lost) return;  // the crash event at crash_time reclaims it
    copy.completion =
        engine.schedule_cancellable_at(copy.end_time, Event{Kind::kComplete, v, task, true});
  }

  // Dispatches a granted range onto worker w as a fresh primary copy.
  // Shared by the normal request path and the canary-probe path (a canary
  // is an ordinary chunk of real pool work, flagged `probe` and exempt
  // from straggler speculation — the quarantined worker is deliberately
  // running it, so a backup would defeat the measurement).
  void launch_task(std::size_t w, detail::IterationPool::Range range, bool is_probe) {
    const Copy copy = time_copy(w, range);
    tasks.push_back(std::make_unique<Task>());
    Task* task = tasks.back().get();
    task->range = range;
    task->probe = is_probe;
    task->primary = copy;
    running[w] = task;
    core.flight.record(obs::FlightEventKind::kChunkDispatched, copy.dispatch_time,
                       static_cast<std::uint32_t>(w), range.first, range.count);
    task->primary.trace_index =
        core.trace({w, range.count, copy.dispatch_time, copy.start_time, copy.end_time,
                    copy.lost, range.first, false, false, false, false, is_probe});
    CDSF_LOG_TRACE << "worker " << w << (is_probe ? " canary " : " chunk ") << range.count
                   << " [" << copy.dispatch_time << ", " << copy.end_time << "]"
                   << (copy.lost ? " LOST" : "");
    if (config.speculation.enabled && !is_probe) {
      // Expected compute time: the technique's measured wall-clock estimate
      // when it has one (AWF/AF — availability-aware), else the a-priori
      // dedicated-time profile. A degraded-but-alive worker blows through
      // mu + quantile * sigma without ever tripping the crash detector.
      double mu_it = technique.estimated_iteration_time(w);
      if (!(mu_it > 0.0)) mu_it = prepared.input_factor * prepared.mean_iter[w];
      const double count = static_cast<double>(range.count);
      const double threshold = std::max(
          config.speculation.min_elapsed,
          mu_it * count +
              quantile * prepared.input_factor * prepared.stddev_iter[w] * std::sqrt(count));
      engine.schedule_at(copy.start_time + threshold, Event{Kind::kStraggler, w, task});
    }
    if (copy.lost) return;  // never completes; the crash event at crash_time reclaims it
    task->primary.completion =
        engine.schedule_cancellable_at(copy.end_time, Event{Kind::kComplete, w, task, false});
  }

  // The primary of `task` on worker w outlived its straggler threshold:
  // host a backup on an idle worker, or queue it for the next one.
  void flag_straggler(Task* task, std::size_t w) {
    if (task->done || task->flagged || task->has_backup) return;
    task->flagged = true;
    core.result.speculation.stragglers_flagged += 1;
    core.emit(obs::FlightEventKind::kStragglerFlagged, LifecycleEvent::Kind::kChunkStraggler, w,
              task->range);
    for (std::size_t v = 0; v < processors; ++v) {
      if (idle[v] && !dead[v]) {
        idle[v] = 0;
        launch_backup(v, task);
        return;
      }
    }
    stragglers.push_back(task);  // next idle worker picks it up
  }

  // Self-scheduling protocol: an idle worker requests a chunk; the chunk
  // completion event records feedback and triggers the next request. With
  // the pool empty the core's ladder offers a backup, then an audit.
  void request(std::size_t w) {
    if (dead[w]) return;
    if (core.quarantine_armed && core.health.quarantined(w)) {
      // Drained: no pool work, no backups, no audits. Canary probes arrive
      // through the probe timer. Deliberately NOT marked idle[], so the
      // give-back / straggler / audit wake scans skip this worker.
      core.note_idle(w);
      return;
    }
    if (core.pool.pending() <= 0) {
      if (core.offer_spare_work(
              w, stragglers, [](const Task* task) { return task->done; },
              [&](Task* task) { launch_backup(w, task); },
              [&](const detail::AuditJob& job) { launch_audit(w, job); })) {
        return;
      }
      // Nothing undispatched NOW — but a crash may still return work, so
      // stay wakeable instead of retiring.
      idle[w] = 1;
      core.note_idle(w);
      return;
    }
    const detail::IterationPool::Range range =
        core.grant(technique, w, /*probe=*/false, /*fallback=*/crash_mode, dead);
    if (range.count <= 0) {
      // Technique has nothing (ever) for this worker (STATIC share spent).
      core.note_idle(w);
      return;
    }
    launch_task(w, range, /*is_probe=*/false);
  }

  void crash(std::size_t w) {
    dead[w] = 1;
    core.flight.record(obs::FlightEventKind::kWorkerCrashed, engine.now(),
                       static_cast<std::uint32_t>(w));
    Task* task = running[w];
    if (task == nullptr) return;
    const bool is_backup = task->has_backup && task->backup.worker == w;
    Copy& copy = is_backup ? task->backup : task->primary;
    if (!copy.lost) return;  // completes exactly at crash time; allowed
    running[w] = nullptr;
    copy.lost = false;
    core.charge_lost(w, task->range, is_backup, copy.dispatch_time, copy.start_time,
                     copy.end_time);
    // Exactly-once: the range returns to the pool ONLY when no other
    // copy of the task can still deliver it (the winner already did, or
    // a live/pending-reclaim sibling copy covers it).
    const Copy& other = is_backup ? task->primary : task->backup;
    if (task->done || (task->has_backup && (other.live || other.lost))) return;
    task->done = true;
    core.result.faults.iterations_reexecuted += task->range.count;
    core.pool.give_back(task->range);
    // Wake idle survivors for the returned iterations.
    for (std::size_t v = 0; v < processors; ++v) {
      if (!dead[v] && idle[v]) {
        idle[v] = 0;
        request(v);
      }
    }
  }

  // The two timers stop once the loop completed or no worker is alive or
  // due back (stranded; the post-run check reports it) — they must stop
  // re-pushing themselves for the event queue to drain.
  [[nodiscard]] bool rescuable() const {
    if (core.completed >= total_parallel) return false;
    for (std::size_t v = 0; v < processors; ++v) {
      if (!dead[v] || (std::isfinite(workers[v].recovery_time) &&
                       workers[v].recovery_time > engine.now())) {
        return true;
      }
    }
    return false;
  }

  // Deadline-risk monitor: every check_interval, project the makespan
  // from the realized completion rate and escalate the straggler quantile
  // while Pr(makespan <= deadline) sits under the floor.
  void risk_check() {
    if (!rescuable()) return;
    const double elapsed = engine.now() - serial_end;
    if (core.completed > 0 && elapsed > 0.0) {
      const double rate = static_cast<double>(core.completed) / elapsed;
      const double remaining = static_cast<double>(total_parallel - core.completed);
      const double projected = engine.now() + remaining / rate;
      // CLT over the remaining iid iterations at the realized rate.
      const double sigma = std::max(1e-12, std::sqrt(remaining) * config.iteration_cov / rate);
      const double p =
          stats::standard_normal_cdf((config.deadline_risk.deadline - projected) / sigma);
      if (p < config.deadline_risk.risk_floor && quantile > config.speculation.min_quantile) {
        quantile = std::max(config.speculation.min_quantile,
                            quantile * config.speculation.escalation_factor);
        core.result.speculation.risk_escalations += 1;
        core.emit_master(obs::FlightEventKind::kRiskEscalated,
                         LifecycleEvent::Kind::kRiskEscalated,
                         static_cast<std::int64_t>(core.result.speculation.risk_escalations));
      }
    }
    engine.schedule_after(config.deadline_risk.check_interval, Event{Kind::kRiskCheck});
  }

  // Canary-probe timer: every probe_interval, each quarantined worker
  // that is not already busy receives one chunk of real pool work (a
  // canary: technique-sized, flagged `probe` so its completion feeds the
  // recovery streak instead of the fail-slow EWMA).
  void probe_tick() {
    if (!rescuable()) return;
    for (std::size_t w = 0; w < processors; ++w) {
      if (core.health.quarantined(w) && !dead[w] && running[w] == nullptr &&
          !core.auditing[w] && core.pool.pending() > 0) {
        launch_task(w, core.grant(technique, w, /*probe=*/true, crash_mode, dead),
                    /*is_probe=*/true);
      }
    }
    engine.schedule_after(config.quarantine.probe_interval, Event{Kind::kProbeTick});
  }

  const SimConfig& config;
  detail::PreparedRun& prepared;
  dls::Technique& technique;
  Engine<Event> engine;
  detail::DispatchCore core;
  const std::int64_t total_parallel;
  std::vector<detail::Worker>& workers = prepared.workers;
  const std::size_t processors = workers.size();
  const bool crash_mode = detail::has_crash_failures(config);
  std::vector<char> dead = std::vector<char>(processors, 0);
  std::vector<char> idle = std::vector<char>(processors, 0);
  std::vector<std::unique_ptr<Task>> tasks;  // stable addresses
  std::vector<Task*> running = std::vector<Task*>(processors, nullptr);  // copy on worker w
  std::deque<Task*> stragglers;  // flagged tasks awaiting an idle worker
  // Live straggler threshold in sigmas; the deadline-risk monitor tightens
  // it (affects chunks dispatched AFTER the escalation).
  double quantile = config.speculation.quantile;
  double serial_end = 0.0;
};

}  // namespace

double RunResult::finish_time_cov() const {
  stats::OnlineSummary summary;
  for (const WorkerStats& w : workers) summary.add(w.finish_time);
  return summary.cov();
}

RunResult simulate_loop(const workload::Application& application, std::size_t processor_type,
                        std::size_t processors, const sysmodel::AvailabilitySpec& availability,
                        const TechniqueFactory& factory, const SimConfig& config,
                        std::uint64_t seed) {
  detail::PreparedRun prepared =
      detail::prepare_run(application, std::vector<std::size_t>(processors, processor_type),
                          availability, config, seed, /*mixed=*/false);

  const std::unique_ptr<dls::Technique> technique = factory(prepared.params);
  if (technique == nullptr) throw std::invalid_argument("simulate_loop: factory returned null");
  technique->reset();
  return IdealLoop(application, config, prepared, *technique, seed).run();
}

RunResult simulate_loop(const workload::Application& application, std::size_t processor_type,
                        std::size_t processors, const sysmodel::AvailabilitySpec& availability,
                        dls::TechniqueId technique, const SimConfig& config, std::uint64_t seed) {
  return simulate_loop(
      application, processor_type, processors, availability,
      [technique](const dls::TechniqueParams& params) {
        return dls::make_technique(technique, params);
      },
      config, seed);
}

RunResult simulate_loop(const workload::Application& application, std::size_t processor_type,
                        std::size_t processors, const sysmodel::AvailabilitySpec& availability,
                        dls::Technique& technique, const SimConfig& config, std::uint64_t seed) {
  return simulate_loop(
      application, processor_type, processors, availability,
      [&technique](const dls::TechniqueParams&) {
        return std::make_unique<ForwardingTechnique>(technique);
      },
      config, seed);
}

ReplicationSummary simulate_replicated(const workload::Application& application,
                                       std::size_t processor_type, std::size_t processors,
                                       const sysmodel::AvailabilitySpec& availability,
                                       dls::TechniqueId technique, const SimConfig& config,
                                       std::uint64_t seed, std::size_t replications,
                                       double deadline, std::size_t threads) {
  return detail::replicate(
      "simulate_replicated", config, seed, replications, deadline, threads,
      [&](const SimConfig& run_config, std::uint64_t child) {
        return simulate_loop(application, processor_type, processors, availability, technique,
                             run_config, child);
      });
}

RunResult simulate_loop_mixed(const workload::Application& application,
                              const std::vector<std::size_t>& worker_types,
                              const sysmodel::AvailabilitySpec& availability,
                              dls::TechniqueId technique, const SimConfig& config,
                              std::uint64_t seed) {
  if (worker_types.empty()) {
    throw std::invalid_argument("simulate_loop_mixed: at least one worker required");
  }
  for (std::size_t type : worker_types) {
    if (type >= availability.type_count() || type >= application.type_count()) {
      throw std::invalid_argument("simulate_loop_mixed: unknown processor type");
    }
  }
  if (config.shared_group_availability) {
    // One shared availability path needs one availability law; a mixed
    // group draws each worker from its own type's law.
    throw std::invalid_argument(
        "simulate_loop_mixed: shared_group_availability is undefined for mixed-type groups");
  }
  detail::PreparedRun prepared =
      detail::prepare_run(application, worker_types, availability, config, seed, /*mixed=*/true);
  const std::unique_ptr<dls::Technique> tech = dls::make_technique(technique, prepared.params);
  tech->reset();
  return IdealLoop(application, config, prepared, *tech, seed).run();
}

TechniqueComparison compare_techniques(const workload::Application& application,
                                       std::size_t processor_type, std::size_t processors,
                                       const sysmodel::AvailabilitySpec& availability,
                                       dls::TechniqueId technique_a,
                                       dls::TechniqueId technique_b, const SimConfig& config,
                                       std::uint64_t seed, std::size_t replications,
                                       double level) {
  if (replications == 0) {
    throw std::invalid_argument("compare_techniques: replications must be >= 1");
  }
  const util::SeedSequence seeds(seed);
  std::vector<double> a(replications);
  std::vector<double> b(replications);
  for (std::size_t r = 0; r < replications; ++r) {
    // Common random numbers: the SAME child seed drives both techniques, so
    // they face identical availability paths and iteration noise.
    const std::uint64_t child = seeds.child(r);
    a[r] = simulate_loop(application, processor_type, processors, availability, technique_a,
                         config, child)
               .makespan;
    b[r] = simulate_loop(application, processor_type, processors, availability, technique_b,
                         config, child)
               .makespan;
  }
  TechniqueComparison comparison;
  comparison.technique_a = technique_a;
  comparison.technique_b = technique_b;
  comparison.makespan_difference =
      stats::paired_median_comparison(a, b, level, 2000, seeds.child(1 << 20));
  comparison.median_a = stats::percentile(a, 0.5);
  comparison.median_b = stats::percentile(b, 0.5);
  return comparison;
}

}  // namespace cdsf::sim
