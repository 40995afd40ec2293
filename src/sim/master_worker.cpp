#include "sim/master_worker.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/json.hpp"
#include "sim/dispatch_core.hpp"
#include "sim/engine.hpp"
#include "sim/sim_common.hpp"
#include "sim/wal_recovery.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace cdsf::sim {

namespace {

/// Serializes the master's final durable state (snapshot counters plus the
/// full write-ahead log) as schema-tagged JSON.
void write_checkpoint_json(const std::string& path, const RunResult& run) {
  obs::Json doc = obs::Json::object();
  doc.set("schema", "cdsf.master_checkpoint/1");
  doc.set("makespan", run.makespan);
  doc.set("wal_records", run.checkpoint.wal_records);
  doc.set("snapshots", run.checkpoint.snapshots);
  doc.set("master_restarts", run.checkpoint.master_restarts);
  obs::Json wal = obs::Json::array();
  for (const WalRecord& rec : run.wal) {
    obs::Json r = obs::Json::object();
    r.set("kind", wal_kind_name(rec.kind));
    r.set("time", rec.time);
    r.set("worker", rec.worker);
    r.set("seq", rec.seq);
    r.set("first", rec.first);
    r.set("count", rec.count);
    wal.push_back(std::move(r));
  }
  doc.set("wal", std::move(wal));
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("simulate_loop_mpi: cannot write checkpoint JSON to " + path);
  }
  out << doc.dump(2) << '\n';
}

/// One protocol message between the master and worker `worker`. `seq` is
/// the request sequence of a kRequest or kBench and the assignment id of
/// every other kind.
struct Message {
  enum class Kind : std::uint8_t {
    kRequest,    // worker -> master: "give me work"
    kAssign,     // master -> worker: a chunk, answering request `rseq`
    kAssignAck,  // worker -> master
    kReport,     // worker -> master: the chunk's completion
    kReportAck,  // master -> worker
    kBench,      // master -> worker: the pool is empty, stop requesting
                 // (best-effort: a lost notice is re-sent to the retried request)
  };
  Kind kind = Kind::kRequest;
  std::size_t worker = 0;
  std::uint64_t seq = 0;
  std::uint64_t rseq = 0;                 // kAssign
  bool rejoin = false;                    // kRequest: first contact after an outage
  detail::IterationPool::Range range{};   // kAssign, kReport
  double dispatch_time = 0.0;             // kAssign, kReport
  double start_time = 0.0;                // kReport
  double end_time = 0.0;                  // kReport
};

/// The message-passing transport of simulate_loop_mpi over the dispatch
/// core (dispatch_core.hpp), which owns the policy. One message latency is
/// the dispatch overhead: the assignment's trip to the worker.
///
/// With crashes the master only ever observes MESSAGES: a dead worker
/// simply stops reporting, so each outstanding chunk carries a timeout;
/// after fault_detection.max_probes expirations (exponential backoff
/// between probes) the worker is declared dead and its chunk re-dispatched.
/// A recovering worker's fresh request also exposes the loss (even with
/// detection disabled), mirroring an MPI reconnect. Every run accounts
/// only ACCEPTED completion reports, so lost, falsely-suspected
/// (late-report), and cancelled-loser chunks never pollute the worker
/// stats or the technique's adaptive weights.
class MpiLoop {
 public:
  MpiLoop(const workload::Application& app, const SimConfig& sim_config,
          const MessageModel& message_model, detail::PreparedRun& prepared_run,
          dls::Technique& run_technique, std::uint64_t seed)
      : application(app),
        config(sim_config),
        messages(message_model),
        prepared(prepared_run),
        technique(run_technique),
        core("simulate_loop_mpi", engine, app, sim_config, prepared_run, message_model.latency,
             seed) {
    // Channel fault draws come from dedicated streams fanned out of the run
    // seed (children 17/19 — prepare_run owns 0 and 100+), so arming the
    // channel never perturbs the work-sampling or availability streams.
    if (unreliable) {
      channel_rng.emplace(util::SeedSequence(seed).child(17));
      if (chan.burst_gap_mean > 0.0) {
        bursts.emplace(chan.burst_gap_mean, chan.burst_duration,
                       util::SeedSequence(seed).child(19));
      }
    }
  }

  MpiRunResult run_loop() {
    serial_end =
        core.open_run("worker 0 crashed during the serial phase — the serial iterations have no "
                      "fault tolerance (re-dispatch needs the loop to open)");
    // Crash/recovery instants are known up front (the availability process
    // carries them); the merge sort in finish() interleaves them correctly.
    for (std::size_t w = 0; w < processors; ++w) {
      if (!prepared.workers[w].crashes()) continue;
      flight.record(obs::FlightEventKind::kWorkerCrashed, prepared.workers[w].crash_time,
                    static_cast<std::uint32_t>(w));
      if (std::isfinite(prepared.workers[w].recovery_time)) {
        flight.record(obs::FlightEventKind::kWorkerRecovered,
                      prepared.workers[w].recovery_time, static_cast<std::uint32_t>(w));
      }
    }
    if (application.parallel_iterations() > 0) {
      engine.schedule_at(serial_end, Event{Kind::kKick});
      for (std::size_t w = 0; w < processors; ++w) {
        const detail::Worker& worker = prepared.workers[w];
        if (!worker.crashes() || !std::isfinite(worker.recovery_time)) continue;
        // An outage fully inside the serial phase is invisible to the loop:
        // the worker is alive at the kick and its initial request covers it —
        // a rejoin request here would be a duplicate entry into the loop,
        // overwriting the worker's outstanding chunk and stranding it.
        if (worker.recovery_time <= serial_end) continue;
        // The rejoining worker's request reaches the master one latency after
        // recovery (or after the loop opens); it also reveals that the old
        // chunk died with the worker, even when timeout detection is off.
        const double rejoin = std::max(worker.recovery_time, serial_end);
        engine.schedule_at(hardened ? rejoin : rejoin + messages.latency,
                           Event{.kind = Kind::kEnter, .message = {.worker = w, .rejoin = true}});
      }
      if (master_fault != nullptr) {
        engine.schedule_at(master_fault->time, Event{Kind::kMasterCrash});
        engine.schedule_at(master_fault->recovery_time, Event{Kind::kMasterRestart});
      }
      if (checkpointing) {
        engine.schedule_at(serial_end + config.checkpoint.interval, Event{Kind::kSnapshot});
      }
      if (core.quarantine_armed) {
        engine.schedule_at(serial_end + config.quarantine.probe_interval,
                           Event{Kind::kProbeTick});
      }
      engine.run([this](const Event& event) { dispatch(event); });
    }
    core.check_stranded(/*armed=*/true, application.parallel_iterations() - core.completed,
                        "(fault detection disabled or no surviving worker to re-dispatch to)");
    MpiRunResult result{core.finish_run(serial_end), master_stats};
    if (checkpointing && !config.checkpoint.json_path.empty()) {
      write_checkpoint_json(config.checkpoint.json_path, result.run);
    }
    return result;
  }

 private:
  enum class Kind : std::uint8_t {
    kKick,           // the loop opens: every live worker requests
    kEnter,          // a worker (re)enters the loop; message.rejoin: after an outage
    kDeliver,        // `message` reaches its receiver
    kCorrupt,        // a corrupted copy of `message` fails its checksum
    kRetransmit,     // the sender's retransmission timer for `message`
    kTimeout,        // dead-worker timeout of assignment message.seq
    kStraggler,      // straggler check of assignment message.seq
    kService,        // the master finishes serving request message.seq
    kComputeDone,    // a worker finished computing; `message` is its report
    kAuditVerdict,   // an audit replica's verdict reaches the master
    kSnapshot,       // checkpoint snapshot timer
    kProbeTick,      // canary-probe timer
    kMasterCrash,
    kMasterRestart,
  };
  /// One scheduled moment: the kind plus the fields its handler reads.
  struct Event {
    Kind kind;
    Message message{};
    double interval = 0.0;    // kTimeout: this timeout; kRetransmit: this rto
    std::size_t retries = 0;  // kRetransmit: re-offers left
    /// Sender's master epoch (kTimeout, kRetransmit; 0 = a worker sends),
    /// or the replica's audit epoch (kAuditVerdict).
    std::uint64_t epoch = 0;
    detail::AuditJob job{};  // kAuditVerdict
  };

  // Master-side fault state.
  struct Outstanding {
    bool active = false;
    bool lost = false;  // physically stranded by the worker's crash
    /// Hardened protocol: the assignment message reached the worker (work
    /// draw done, computation running). An undelivered assignment reclaims
    /// with zero compute waste. Always true on the reliable channel, where
    /// dispatch draws the work.
    bool delivered = true;
    detail::IterationPool::Range range;
    double dispatch_time = 0.0;
    double start_time = 0.0;
    double end_time = 0.0;
    std::uint64_t id = 0;
    std::size_t probes = 0;
    /// Speculation: this assignment is the backup copy of a straggler.
    bool speculative = false;
    /// Speculation: the sibling copy (partner worker + its assignment id).
    bool has_partner = false;
    std::size_t partner = 0;
    std::uint64_t partner_id = 0;
    /// Pending report-chain event (compute completion, then the report's
    /// arrival); cancelled when the partner's report wins the race.
    EventId report_event = kNoEvent;
    /// Canary chunk probing a quarantined worker: its accepted report feeds
    /// the recovery streak instead of the fail-slow EWMA.
    bool probe = false;
    std::ptrdiff_t trace_index = -1;  // set only with collect_trace
  };

  // A reliable-channel assignment of `range` to worker v leaving the master
  // now: computation starts on arrival one latency later (the
  // scheduling_overhead of the idealized model is the message trip here, so
  // it is NOT charged again). Physically stranded iff the worker's outage
  // touches the chunk's lifetime: assigned before (or into) the outage and
  // not finished by the crash — a permanent crash makes end_time +infinity,
  // which also lands here.
  struct Timing {
    double dispatch_time = 0.0;
    double start_time = 0.0;
    double end_time = 0.0;
    bool lost = false;
  };

  /// Stops a periodic timer once the loop completed (so the event queue can
  /// drain) or after a long stretch without progress (a stranded run must
  /// reach the post-run diagnostics, not the event cap). The master cannot
  /// see which workers are alive, so the idealized executor's rescuable
  /// check has no equivalent here.
  struct StagnationGuard {
    std::int64_t last_completed = -1;
    std::size_t stagnant = 0;

    bool expired(std::int64_t completed, std::int64_t total) {
      if (completed >= total) return true;
      if (completed == last_completed) return ++stagnant > 1000;
      stagnant = 0;
      last_completed = completed;
      return false;
    }
  };

  void dispatch(const Event& event) {
    const Message& m = event.message;
    const std::size_t w = m.worker;
    switch (event.kind) {
      case Kind::kKick:
        // Every worker's initial request reaches the master one latency in;
        // workers already down at the kick never send one (their recovery
        // request, if any, is their first contact).
        for (std::size_t v = 0; v < processors; ++v) {
          if (down(v)) continue;
          if (hardened) {
            worker_send_request(v, false);
          } else {
            engine.schedule_after(messages.latency,
                                  Event{.kind = Kind::kEnter, .message = {.worker = v}});
          }
        }
        return;
      case Kind::kEnter:
        if (!m.rejoin && declared_dead[w]) return;
        if (hardened) return worker_send_request(w, m.rejoin);
        if (m.rejoin) {
          declared_dead[w] = 0;
          reclaim_outstanding(w);
        }
        return master_receive_request(w, 0);
      case Kind::kDeliver:
        return deliver(m);
      case Kind::kCorrupt:
        run.channel.corrupted += 1;
        run.channel.corrupt_discarded += 1;
        core.emit(obs::FlightEventKind::kMessageCorrupted, LifecycleEvent::Kind::kMessageCorrupted,
                  w, static_cast<std::int64_t>(m.seq));
        return;
      case Kind::kRetransmit:
        return retransmit(event);
      case Kind::kTimeout:
        return timeout(event);
      case Kind::kStraggler:
        return flag_straggler(w, m.seq);
      case Kind::kService:
        return serve(w, m.seq);
      case Kind::kComputeDone:
        return compute_done(m);
      case Kind::kAuditVerdict:
        if (master_down || audit_epoch[w] != event.epoch || !core.auditing[w]) {
          return;  // the verdict died with the master (counted at restart)
        }
        core.audit_verdict(w, event.job, m.start_time, m.end_time,
                           m.start_time - m.dispatch_time);
        master_receive_request(w, 0);
        return;
      case Kind::kSnapshot:
        if (snapshot_guard.expired(core.completed, application.parallel_iterations())) return;
        if (!master_down) {
          wal_append(WalRecord::Kind::kSnapshot, 0, master_epoch, 0, core.completed);
          run.checkpoint.snapshots += 1;
          core.emit_master(obs::FlightEventKind::kCheckpoint, LifecycleEvent::Kind::kCheckpoint,
                           static_cast<std::int64_t>(run.wal.size()), core.completed);
        }
        engine.schedule_after(config.checkpoint.interval, Event{Kind::kSnapshot});
        return;
      case Kind::kProbeTick:
        return probe_tick();
      case Kind::kMasterCrash:
        master_down = true;
        master_epoch += 1;  // every pending master-side timer is now stale
        core.emit_master(obs::FlightEventKind::kMasterCrashed, LifecycleEvent::Kind::kMasterCrash);
        CDSF_LOG_TRACE << "mpi master crashed at " << engine.now();
        return;
      case Kind::kMasterRestart:
        return master_restart();
    }
  }

  /// Whether worker w is physically down at this instant.
  [[nodiscard]] bool down(std::size_t w) const {
    const detail::Worker& worker = prepared.workers[w];
    return worker.crash_time <= engine.now() && engine.now() < worker.recovery_time;
  }

  Timing time_assignment(std::size_t v, detail::IterationPool::Range range) {
    const detail::Worker& worker = prepared.workers[v];
    const double start = engine.now() + messages.latency;
    const double end = worker.availability->finish_time(start, core.draw_work(v, range));
    return {engine.now(), start, end, start < worker.recovery_time && end > worker.crash_time};
  }

  // Pulls a reclaimed/returned range back into circulation: benched workers
  // (idle because the pool momentarily drained) get the master's deferred
  // reply now.
  void wake_idle() {
    for (std::size_t v = 0; v < processors; ++v) {
      if (idle[v] && !declared_dead[v] && !(core.quarantine_armed && health.quarantined(v))) {
        idle[v] = 0;
        master_receive_request(v, 0);
      }
    }
  }

  // Takes worker w's outstanding chunk away from it (it was declared dead
  // or rejoined after a crash) and returns the iterations to the pool —
  // unless a speculative sibling copy is still in flight, in which case the
  // sibling already covers the range (exactly-once execution).
  void reclaim_outstanding(std::size_t w) {
    Outstanding& out = outstanding[w];
    if (!out.active) return;
    out.active = false;
    core.emit(obs::FlightEventKind::kChunkLost, LifecycleEvent::Kind::kChunkLost, w, out.range);
    if (out.lost) {
      run.faults.chunks_lost += 1;
      const double detect_latency =
          std::max(0.0, engine.now() - prepared.workers[w].crash_time);
      run.faults.detection_latency_total += detect_latency;
      run.faults.max_detection_latency =
          std::max(run.faults.max_detection_latency, detect_latency);
      double wasted = out.start_time - out.dispatch_time;
      if (out.start_time < engine.now()) {
        wasted += prepared.workers[w].availability->work_delivered(out.start_time, engine.now());
      }
      run.faults.wasted_work += wasted;
      if (out.speculative) run.speculation.backups_lost += 1;
    } else {
      // False suspicion (or an undelivered hardened assignment): the range
      // is re-dispatched and any late report will be dropped — a reclaimed
      // backup copy resolves as cancelled (the worker is alive), keeping
      // the launched == won + cancelled + lost identity intact.
      if (out.speculative) run.speculation.backups_cancelled += 1;
      if (out.trace_index >= 0) {
        // Mark the entry so it no longer counts as delivered work (the
        // chaos harness reconstructs exactly-once coverage from the trace).
        run.trace[static_cast<std::size_t>(out.trace_index)].cancelled = true;
      }
    }
    if (partner_live(out)) return;  // the sibling copy still delivers the range
    run.faults.iterations_reexecuted += out.range.count;
    pool.give_back(out.range);
    wake_idle();
  }

  [[nodiscard]] bool partner_live(const Outstanding& out) const {
    return out.has_partner && outstanding[out.partner].active &&
           outstanding[out.partner].id == out.partner_id;
  }

  // One timeout expiration for assignment message.seq. Stale probes (the
  // report arrived, the chunk was already reclaimed, or the master that
  // armed the timer crashed) are no-ops.
  void timeout(const Event& event) {
    const std::size_t w = event.message.worker;
    if (event.epoch != master_epoch) return;  // timer died with the old master
    Outstanding& out = outstanding[w];
    if (!out.active || out.id != event.message.seq) return;
    out.probes += 1;
    core.emit(obs::FlightEventKind::kWorkerSuspected, LifecycleEvent::Kind::kWorkerSuspected, w,
              static_cast<std::int64_t>(out.probes));
    if (out.probes >= config.fault_detection.max_probes) {
      declared_dead[w] = 1;
      core.emit(obs::FlightEventKind::kWorkerDeclaredDead,
                LifecycleEvent::Kind::kWorkerDeclaredDead, w);
      // An undelivered hardened assignment is a lost MESSAGE, not a
      // suspicion of a live worker mid-report.
      if (!out.lost && out.delivered) run.faults.false_suspicions += 1;
      CDSF_LOG_TRACE << "mpi master declares worker " << w << " dead at " << engine.now();
      reclaim_outstanding(w);
      return;
    }
    Event next = event;
    next.interval = event.interval * config.fault_detection.backoff;
    engine.schedule_at(engine.now() + next.interval, next);
  }

  // Arms the first dead-worker timeout for assignment `id` (detection on).
  void arm_detection(std::size_t w, std::uint64_t id, std::int64_t count, double dispatch_time) {
    if (!detection) return;
    // Expected round trip from the master's a-priori knowledge: the
    // weight seed (observed availability) is all it has — the actual
    // availability path is exactly what it cannot see.
    const double expected_compute = static_cast<double>(count) * prepared.mean_iter[w] *
                                    prepared.input_factor /
                                    std::max(prepared.params.weights[w], 0.05);
    const double timeout = std::max(config.fault_detection.min_timeout,
                                    timeout_scale[w] * config.fault_detection.timeout_factor *
                                        (expected_compute + 2.0 * messages.latency));
    engine.schedule_at(dispatch_time + timeout,
                       Event{.kind = Kind::kTimeout, .message = {.worker = w, .seq = id},
                             .interval = timeout, .epoch = master_epoch});
  }

  // Offers one message to the channel: applies the force-drop test hooks,
  // burst windows, and the per-direction drop / duplicate / reorder /
  // corrupt draws, then schedules one delivery per surviving copy. With a
  // clean channel this is exactly one delivery after the base latency.
  void channel_send(const Message& m) {
    using MessageKind = Message::Kind;
    const bool to_worker = m.kind == MessageKind::kAssign || m.kind == MessageKind::kReportAck ||
                           m.kind == MessageKind::kBench;
    const bool is_ack = m.kind == MessageKind::kAssignAck || m.kind == MessageKind::kReportAck;
    (is_ack ? run.channel.acks_sent : run.channel.messages_sent) += 1;
    if (!unreliable) {
      engine.schedule_after(messages.latency, Event{Kind::kDeliver, m});
      return;
    }
    bool dropped = false;
    bool burst = false;
    std::size_t& force = to_worker ? force_drop_to_worker : force_drop_to_master;
    if (!is_ack && force > 0) {
      force -= 1;
      dropped = true;
    } else if (bursts && bursts->covers(engine.now())) {
      dropped = true;
      burst = true;
    } else {
      const double p = to_worker ? chan.drop_to_worker : chan.drop_to_master;
      if (p > 0.0 && channel_rng->uniform01() < p) dropped = true;
    }
    if (dropped) {
      run.channel.drops += 1;
      if (burst) run.channel.burst_drops += 1;
      return;
    }
    const double dup_p = to_worker ? chan.duplicate_to_worker : chan.duplicate_to_master;
    const bool duplicated = dup_p > 0.0 && channel_rng->uniform01() < dup_p;
    if (duplicated) run.channel.duplicates += 1;
    const double reorder_p = to_worker ? chan.reorder_to_worker : chan.reorder_to_master;
    const double corrupt_p = to_worker ? chan.corrupt_to_worker : chan.corrupt_to_master;
    std::size_t& force_corrupt = to_worker ? force_corrupt_to_worker : force_corrupt_to_master;
    const std::size_t copies = duplicated ? 2 : 1;
    for (std::size_t c = 0; c < copies; ++c) {
      double delay = messages.latency;
      if (reorder_p > 0.0 && channel_rng->uniform01() < reorder_p) {
        run.channel.reorders += 1;
        delay += channel_rng->uniform(0.0, chan.reorder_delay);
      }
      // Payload corruption: the copy still travels, but its checksum fails
      // at the receiver — the frame is counted and DISCARDED there, never
      // processed, so no ack fires and the sender's retransmission loop
      // recovers it. A corrupted report can therefore never reach record().
      bool corrupt = false;
      if (!is_ack && force_corrupt > 0) {
        force_corrupt -= 1;
        corrupt = true;
      } else if (corrupt_p > 0.0 && channel_rng->uniform01() < corrupt_p) {
        corrupt = true;
      }
      engine.schedule_after(delay, Event{corrupt ? Kind::kCorrupt : Kind::kDeliver, m});
    }
  }

  // At-least-once sender: offers the message now and re-offers it with
  // exponential backoff until it is resolved (the ack/reply arrived) or the
  // retry budget is spent. Master-side senders pass their epoch so pending
  // timers die with a master crash; worker-side senders pass epoch 0 and
  // instead stop when their own worker is down at the retry instant.
  void transmit(const Message& m, double rto, std::size_t retries_left, std::uint64_t epoch) {
    channel_send(m);
    engine.schedule_after(rto, Event{Kind::kRetransmit, m, rto, retries_left, epoch});
  }

  void retransmit(const Event& event) {
    const Message& m = event.message;
    const std::size_t w = m.worker;
    if (event.epoch != 0 && event.epoch != master_epoch) return;  // sender died with the master
    if (event.epoch == 0 && down(w)) return;  // the sending worker's timers died with it
    const Outstanding& out = outstanding[w];
    switch (m.kind) {
      case Message::Kind::kAssign:
        if (assign_acked_seq[w] >= m.seq || !out.active || out.id != m.seq) return;
        break;
      case Message::Kind::kReport:
        if (report_acked_seq[w] >= m.seq || cancelled_seq[w] >= m.seq) return;
        break;
      default:  // kRequest: answered by an assignment or a bench notice
        if (reply_seq[w] >= m.seq) return;
        break;
    }
    if (event.retries == 0) {
      run.channel.retransmits_abandoned += 1;
      return;
    }
    run.channel.retransmits += 1;
    core.emit(obs::FlightEventKind::kRetransmit, LifecycleEvent::Kind::kRetransmit, w,
              static_cast<std::int64_t>(m.seq));
    if (m.kind == Message::Kind::kAssign && out.trace_index >= 0) {
      run.trace[static_cast<std::size_t>(out.trace_index)].retransmitted = true;
    }
    transmit(m, event.interval * chan.rto_backoff, event.retries - 1, event.epoch);
  }

  // One message copy arriving at its receiver.
  void deliver(const Message& m) {
    const std::size_t w = m.worker;
    switch (m.kind) {
      case Message::Kind::kRequest:
        return master_handle_request(w, m.seq, m.rejoin);
      case Message::Kind::kAssign:
        return worker_receive_assignment(m);
      case Message::Kind::kAssignAck:
        if (master_down || m.seq <= assign_acked_seq[w]) return;  // lost, or a duplicate
        assign_acked_seq[w] = m.seq;
        wal_append(WalRecord::Kind::kAck, w, m.seq, 0, 0);
        return;
      case Message::Kind::kReport:
        return master_receive_report(m);
      case Message::Kind::kReportAck:
        if (m.seq > report_acked_seq[w]) report_acked_seq[w] = m.seq;
        return;
      case Message::Kind::kBench:
        // Stops the worker's request retries (unless it is down: lost).
        if (!down(w) && m.seq > reply_seq[w]) reply_seq[w] = m.seq;
        return;
    }
  }

  // Appends one record to the master's write-ahead log (checkpointing only).
  void wal_append(WalRecord::Kind kind, std::size_t w, std::uint64_t seqno, std::int64_t first,
                  std::int64_t count) {
    if (!checkpointing) return;
    run.wal.push_back({kind, engine.now(), w, seqno, first, count});
    run.checkpoint.wal_records += 1;
    flight.record(obs::FlightEventKind::kWalAppend, engine.now(), obs::kFlightMasterTrack,
                  static_cast<std::int64_t>(seqno), count);
  }

  // Re-executes an accepted chunk on independent worker v. The replica is
  // side-channel validation traffic: it never enters the assignment
  // protocol, and its worker is simply busy until the verdict reaches the
  // master one latency after completion.
  void launch_audit(std::size_t v, const detail::AuditJob& job) {
    const Timing t = time_assignment(v, job.range);
    // A lost replica's verdict never lands (the worker's rejoin request,
    // if any, re-enters it through the usual path).
    if (!core.begin_audit(v, job, t.dispatch_time, t.start_time, t.end_time, t.lost)) return;
    const Message replica{.worker = v, .dispatch_time = t.dispatch_time,
                          .start_time = t.start_time, .end_time = t.end_time};
    engine.schedule_at(t.end_time + messages.latency,
                       Event{.kind = Kind::kAuditVerdict, .message = replica,
                             .epoch = ++audit_epoch[v], .job = job});
  }

  // The partner of an accepted report lost the race: drop its (pending)
  // report, charge the sunk work, and bring the worker back into the loop.
  // The cancel notice itself is abstracted to the master's instant (in the
  // hardened protocol it also annihilates in-flight report copies via
  // cancelled_seq); the loser's next request pays the message latencies.
  void cancel_partner(std::size_t v) {
    Outstanding& out = outstanding[v];
    out.active = false;
    if (out.lost) {
      // The losing copy was already stranded by its worker's crash: the
      // winner resolves the race, but the copy is accounted as LOST (as the
      // reclaim path would do), not cancelled — there is no report to
      // cancel, no cancel notice to deliver, and no request to solicit.
      core.charge_lost(v, out.range, out.speculative, out.dispatch_time, out.start_time,
                       out.end_time);
      return;
    }
    if (hardened) cancelled_seq[v] = std::max(cancelled_seq[v], out.id);
    engine.cancel(out.report_event);
    core.charge_cancelled(v, out.range, out.speculative, out.dispatch_time, out.start_time,
                          out.end_time, out.trace_index);
    const double receive = engine.now() + messages.latency;
    if (!(prepared.workers[v].crash_time <= receive &&
          receive < prepared.workers[v].recovery_time)) {
      // Hardened: the worker's own request loop starts on the notice;
      // reliable: its request reaches the master one more latency later.
      engine.schedule_at(hardened ? receive : receive + messages.latency,
                         Event{.kind = Kind::kEnter, .message = {.worker = v}});
    }
  }

  // Proof of life from a worker the master declared dead: reinstate it and
  // double its timeout (see timeout_scale).
  void reinstate(std::size_t w) {
    declared_dead[w] = 0;
    timeout_scale[w] *= 2.0;
    core.emit(obs::FlightEventKind::kWorkerReinstated, LifecycleEvent::Kind::kWorkerReinstated,
              w);
  }

  // Worker w's outstanding assignment reported first: accept it, resolve
  // the speculation race, and serve the worker's next request.
  void accept_report(std::size_t w, double dispatch_time, double start_time, double end_time) {
    Outstanding& out = outstanding[w];
    out.active = false;
    if (core.complete(technique, w, out.range, out.speculative, out.probe, dispatch_time,
                      start_time, end_time, start_time - dispatch_time)) {
      // An audit was enrolled: wake one idle eligible worker for the
      // replica (the originator cannot audit itself; quarantined workers
      // stay benched).
      for (std::size_t v = 0; v < processors; ++v) {
        if (idle[v] && !declared_dead[v] && v != w && !health.quarantined(v)) {
          idle[v] = 0;
          master_receive_request(v, 0);
          break;
        }
      }
    }
    if (partner_live(out)) cancel_partner(out.partner);
    master_receive_request(w, 0);
  }

  // Worker w finished computing assignment report.seq; its report now
  // travels (reliable: one latency; hardened: through the channel until
  // acked). Outstanding::report_event always holds the currently-pending
  // stage, so a losing speculated copy can be stopped.
  void compute_done(const Message& report) {
    const std::size_t w = report.worker;
    Outstanding& out = outstanding[w];
    const bool tracked = out.active && out.id == report.seq;
    if (!hardened) {
      const EventId arrival = engine.schedule_cancellable_at(engine.now() + messages.latency,
                                                             Event{Kind::kDeliver, report});
      if (tracked) out.report_event = arrival;
      return;
    }
    if (tracked) out.report_event = kNoEvent;
    if (cancelled_seq[w] >= report.seq) return;  // lost the race mid-compute
    // The report retransmits until the master's report-ack lands (or the
    // chunk is cancelled by the speculation race).
    transmit(report, chan.rto, chan.max_retransmits, 0);
  }

  // One completion report arriving at the master. Hardened protocol: every
  // copy is acked (the previous ack may have dropped); duplicates are
  // suppressed by sequence dedup so record() is never double-fed.
  void master_receive_report(const Message& report) {
    const std::size_t w = report.worker;
    const std::uint64_t id = report.seq;
    if (hardened) {
      if (master_down) return;             // lost with the master; the worker retransmits
      if (cancelled_seq[w] >= id) return;  // cancelled loser: already resolved
      channel_send(Message{Message::Kind::kReportAck, w, id});
      if (id <= processed_seq[w]) {
        run.channel.dedup_hits += 1;
        core.emit(obs::FlightEventKind::kDedupHit, LifecycleEvent::Kind::kDedupHit, w,
                  static_cast<std::int64_t>(id));
        return;
      }
      processed_seq[w] = id;
    }
    Outstanding& out = outstanding[w];
    if (!out.active || out.id != id) {
      // Late report from a reclaimed assignment (false suspicion or master
      // restart re-dispatch): the range was re-dispatched, drop the result.
      run.faults.wasted_work +=
          prepared.workers[w].availability->work_delivered(report.start_time, report.end_time);
      if (declared_dead[w]) reinstate(w);
      // The worker is alive and idle either way — bring it back into the
      // loop (a restart reclaim can orphan a live worker the same way a
      // false suspicion does).
      if (!outstanding[w].active) master_receive_request(w, 0);
      return;
    }
    wal_append(WalRecord::Kind::kComplete, w, id, report.range.first, report.range.count);
    accept_report(w, report.dispatch_time, report.start_time, report.end_time);
  }

  // Hardened protocol: one assignment delivery at the worker. The work draw
  // happens HERE (computation starts at first delivery); every delivery is
  // acked, and a re-delivered assignment is never executed twice.
  void worker_receive_assignment(const Message& m) {
    const std::size_t w = m.worker;
    const std::uint64_t id = m.seq;
    const detail::Worker& worker = prepared.workers[w];
    const double now = engine.now();
    if (down(w)) return;  // lost
    if (m.rseq > reply_seq[w]) reply_seq[w] = m.rseq;  // the assignment answers the request
    channel_send(Message{Message::Kind::kAssignAck, w, id});
    if (id <= cancelled_seq[w]) return;  // cancelled before it arrived
    if (id <= executed_seq[w]) {
      run.channel.dedup_hits += 1;
      core.emit(obs::FlightEventKind::kDedupHit, LifecycleEvent::Kind::kDedupHit, w,
                static_cast<std::int64_t>(id));
      return;
    }
    executed_seq[w] = id;
    const double start_time = now;
    const double end_time =
        worker.availability->finish_time(start_time, core.draw_work(w, m.range));
    const bool lost = start_time < worker.recovery_time && end_time > worker.crash_time;
    Outstanding& out = outstanding[w];
    const bool tracked = out.active && out.id == id;
    if (tracked) {
      out.delivered = true;
      out.lost = lost;
      out.start_time = start_time;
      out.end_time = end_time;
      if (out.trace_index >= 0) {
        ChunkTraceEntry& entry = run.trace[static_cast<std::size_t>(out.trace_index)];
        entry.start_time = start_time;
        entry.end_time = end_time;
        entry.lost = lost;
      }
    }
    CDSF_LOG_TRACE << "mpi worker " << w << " chunk " << m.range.count << " delivered ["
                   << start_time << ", " << end_time << "]" << (lost ? " LOST" : "");
    if (lost) return;  // the worker dies mid-chunk: no report, ever
    const EventId compute = schedule_report(m, start_time, end_time);
    if (tracked) out.report_event = compute;
  }

  // Assignment `m` computes over [start_time, end_time]; its report leaves
  // the worker at end_time (cancellable: see Outstanding::report_event).
  EventId schedule_report(Message m, double start_time, double end_time) {
    m.kind = Message::Kind::kReport;
    m.start_time = start_time;
    m.end_time = end_time;
    return engine.schedule_cancellable_at(end_time,
                                          Event{.kind = Kind::kComputeDone, .message = m});
  }

  // Assigns `range` to worker w as its outstanding chunk; returns the
  // assignment id. Reliable channel: the assignment arrives one latency
  // later and the work is drawn now. Hardened: the assignment is logged to
  // the WAL and retransmits with backoff until the worker's ack lands;
  // start and end stay provisional until its delivery draws the work.
  // A backup copy names the straggling `primary` assignment it races.
  std::uint64_t assign(std::size_t w, detail::IterationPool::Range range, std::uint64_t rseq,
                       bool probe, const std::pair<std::size_t, std::uint64_t>* primary) {
    const double now = engine.now();
    const Timing t = hardened ? Timing{now, now, now, false} : time_assignment(w, range);
    const bool speculative = primary != nullptr;
    const std::ptrdiff_t trace_index =
        core.trace({w, range.count, t.dispatch_time, t.start_time, t.end_time, t.lost,
                    range.first, speculative, false, false, false, probe});
    if (speculative) {
      core.emit(obs::FlightEventKind::kBackupLaunched, LifecycleEvent::Kind::kChunkBackup, w,
                range);
    } else {
      flight.record(obs::FlightEventKind::kChunkDispatched, now, static_cast<std::uint32_t>(w),
                    range.first, range.count);
    }
    Outstanding& out = outstanding[w];
    out = Outstanding{.active = true, .lost = t.lost, .delivered = !hardened, .range = range,
                      .dispatch_time = now, .start_time = t.start_time, .end_time = t.end_time,
                      .id = ++next_id[w], .speculative = speculative, .has_partner = speculative,
                      .partner = speculative ? primary->first : 0,
                      .partner_id = speculative ? primary->second : 0, .probe = probe,
                      .trace_index = trace_index};
    wal_append(WalRecord::Kind::kAssign, w, out.id, range.first, range.count);
    CDSF_LOG_TRACE << "mpi worker " << w
                   << (speculative ? " backup " : probe ? " canary " : " chunk ") << range.count
                   << " [" << t.dispatch_time << ", " << t.end_time << "]"
                   << (t.lost ? " LOST" : "");
    arm_detection(w, out.id, range.count, now);
    if (config.speculation.enabled && !speculative && !probe) {
      // Canaries are exempt from straggler speculation: the quarantined
      // worker is deliberately running this chunk, so a backup would defeat
      // the measurement.
      arm_straggler_check(w, out.id, range.count, now + messages.latency);
    }
    const Message assignment{Message::Kind::kAssign, w, out.id, rseq, false, range, now};
    if (hardened) {
      transmit(assignment, chan.rto, chan.max_retransmits, master_epoch);
    } else if (!t.lost) {  // a lost chunk's worker dies mid-chunk: no report, ever
      out.report_event = schedule_report(assignment, t.start_time, t.end_time);
    }
    return out.id;
  }

  // Runs a straggler assignment's range a second time on idle worker v.
  void launch_backup(std::size_t v, std::size_t w, std::uint64_t id, std::uint64_t rseq) {
    const std::pair<std::size_t, std::uint64_t> primary_id{w, id};
    const std::uint64_t backup_id = assign(v, outstanding[w].range, rseq, false, &primary_id);
    Outstanding& primary = outstanding[w];
    primary.has_partner = true;
    primary.partner = v;
    primary.partner_id = backup_id;
    run.speculation.backups_launched += 1;
  }

  // Straggler monitor for assignment `id`: fires once the chunk's elapsed
  // time exceeds mu + quantile * sigma of its expected completion (the
  // technique's runtime estimate when it has one, the a-priori weight
  // otherwise) and launches a backup on an idle worker — or queues the
  // assignment for the next worker that goes idle.
  void arm_straggler_check(std::size_t w, std::uint64_t id, std::int64_t count,
                           double start_time) {
    double mu_it = technique.estimated_iteration_time(w);
    if (!(mu_it > 0.0)) {
      mu_it = prepared.input_factor * prepared.mean_iter[w] /
              std::max(prepared.params.weights[w], 0.05);
    }
    const double n = static_cast<double>(count);
    const double threshold =
        std::max(config.speculation.min_elapsed,
                 mu_it * n +
                     config.speculation.quantile * prepared.input_factor *
                         prepared.stddev_iter[w] * std::sqrt(n));
    engine.schedule_at(start_time + threshold + messages.latency,
                       Event{.kind = Kind::kStraggler, .message = {.worker = w, .seq = id}});
  }

  void flag_straggler(std::size_t w, std::uint64_t id) {
    Outstanding& out = outstanding[w];
    if (!out.active || out.id != id || out.has_partner) return;
    run.speculation.stragglers_flagged += 1;
    core.emit(obs::FlightEventKind::kStragglerFlagged, LifecycleEvent::Kind::kChunkStraggler, w,
              out.range);
    for (std::size_t v = 0; v < processors; ++v) {
      if (idle[v] && !declared_dead[v] && !(core.quarantine_armed && health.quarantined(v))) {
        idle[v] = 0;
        launch_backup(v, w, id, 0);
        return;
      }
    }
    stragglers.emplace_back(w, id);  // next idle worker picks it up
  }

  // Hardened protocol: request arrival at the master. At-least-once
  // delivery means the same request (sequence rseq) can arrive several
  // times; a duplicate must re-trigger the REPLY (assignment or bench
  // notice), never a second assignment.
  void master_handle_request(std::size_t w, std::uint64_t rseq, bool rejoin) {
    if (master_down) return;  // lost with the master; the worker retransmits
    if (rejoin) declared_dead[w] = 0;
    if (declared_dead[w]) {
      // A request is proof of life: the worker outlived its declared death
      // (its assignment was lost on the channel — e.g. in a burst window —
      // and the expired timeout was charged to the worker). Reinstate it
      // and escalate its timeout like the late-report path does; without
      // this, every wrongful death permanently removes a live worker and
      // enough of them strand the run.
      reinstate(w);
    }
    Outstanding& out = outstanding[w];
    if (out.active && rejoin && out.dispatch_time < prepared.workers[w].recovery_time) {
      // The rejoin request reveals that the pre-crash assignment died with
      // the worker (even when timeout detection is off).
      reclaim_outstanding(w);
      master_receive_request(w, rseq);
      return;
    }
    if (service_pending[w]) {
      // The previous copy of this request is already queued for service;
      // the assignment it produces will answer this sequence too.
      run.channel.dedup_hits += 1;
      core.emit(obs::FlightEventKind::kDedupHit, LifecycleEvent::Kind::kDedupHit, w,
                static_cast<std::int64_t>(rseq));
      return;
    }
    if (out.active) {
      // Duplicate or retransmitted request while an assignment is in
      // flight: the worker clearly missed the reply — resend it instead of
      // double-assigning.
      run.channel.dedup_hits += 1;
      run.channel.retransmits += 1;
      core.emit(obs::FlightEventKind::kRetransmit, LifecycleEvent::Kind::kRetransmit, w,
                static_cast<std::int64_t>(out.id));
      if (out.trace_index >= 0) {
        run.trace[static_cast<std::size_t>(out.trace_index)].retransmitted = true;
      }
      channel_send(
          Message{Message::Kind::kAssign, w, out.id, rseq, false, out.range, out.dispatch_time});
      return;
    }
    if (idle[w]) {
      // Benched worker re-requesting: the bench notice was lost — resend.
      run.channel.dedup_hits += 1;
      flight.record(obs::FlightEventKind::kDedupHit, engine.now(), static_cast<std::uint32_t>(w),
                    static_cast<std::int64_t>(rseq));
      channel_send({Message::Kind::kBench, w, rseq});
      return;
    }
    master_receive_request(w, rseq);
  }

  // Hardened protocol: a worker-initiated request (loop kick, rejoin, or
  // post-cancel re-entry) with its own retransmission loop — resolved by
  // the assignment or bench notice that answers it.
  void worker_send_request(std::size_t w, bool rejoin) {
    const Message request{Message::Kind::kRequest, w, ++request_seq[w], 0, rejoin};
    transmit(request, chan.rto, chan.max_retransmits, 0);
  }

  // The master serializes request handling; each handled request either
  // assigns a chunk (reply travels back with one latency) or retires the
  // worker. Completion reports carry the technique feedback. `rseq` is the
  // hardened protocol's request sequence (0 for master-initiated service,
  // which sends no bench notice).
  void master_receive_request(std::size_t w, std::uint64_t rseq) {
    const double arrival = engine.now();
    const double service_start = std::max(arrival, master_free_at);
    const double wait = service_start - arrival;
    master_stats.queue_wait_time += wait;
    master_stats.max_queue_wait = std::max(master_stats.max_queue_wait, wait);
    master_free_at = service_start + messages.master_service_time;
    master_stats.requests_handled += 1;
    master_stats.busy_time += messages.master_service_time;
    if (hardened) service_pending[w] = 1;
    engine.schedule_at(master_free_at,
                       Event{.kind = Kind::kService, .message = {.worker = w, .seq = rseq}});
  }

  // The master finished serving worker w's request `rseq`.
  void serve(std::size_t w, std::uint64_t rseq) {
    service_pending[w] = 0;
    if (master_down) return;  // the master died mid-service
    if (declared_dead[w]) return;
    const bool quarantine_armed = core.quarantine_armed;
    const bool probe = quarantine_armed && probe_pending[w] != 0;
    if (probe) probe_pending[w] = 0;
    const bool bench = hardened && rseq > 0;
    if (quarantine_armed && !probe && health.quarantined(w)) {
      // Drained: no pool work, no backups, no audits. Canary probes
      // arrive through the probe timer; the bench notice stops a hardened
      // worker's request retries. Deliberately NOT marked idle[], so the
      // wake / straggler-host / audit scans skip this worker.
      if (bench) channel_send({Message::Kind::kBench, w, rseq});
      core.note_idle(w);
      return;
    }
    if (quarantine_armed && core.auditing[w] != 0) {
      // Mid-audit duplicate service (e.g. the worker's request retry —
      // an audit sends it no reply): the worker is busy with the replica.
      // Bench the retry so its request loop resolves; the verdict
      // re-enters it through the usual request path. Launching anything
      // here would double-book the worker and orphan the first verdict.
      if (bench) channel_send({Message::Kind::kBench, w, rseq});
      return;
    }
    if (pool.pending() <= 0) {
      if (probe) return;  // nothing left to probe with; keep waiting
      const auto stale = [&](const std::pair<std::size_t, std::uint64_t>& straggler) {
        const Outstanding& pout = outstanding[straggler.first];
        return !pout.active || pout.id != straggler.second || pout.has_partner;
      };
      if (core.offer_spare_work(
              w, stragglers, stale,
              [&](const std::pair<std::size_t, std::uint64_t>& straggler) {
                launch_backup(w, straggler.first, straggler.second, rseq);
              },
              [&](const detail::AuditJob& job) { launch_audit(w, job); })) {
        return;
      }
      // Stay wakeable — a reclaim may refill the pool.
      idle[w] = 1;
      if (bench) channel_send({Message::Kind::kBench, w, rseq});
      core.note_idle(w);
      return;
    }
    const detail::IterationPool::Range range =
        core.grant(technique, w, probe, /*fallback=*/crash_mode || hardened, declared_dead);
    if (range.count <= 0) {
      core.note_idle(w);
      return;
    }
    (void)assign(w, range, rseq, probe, nullptr);
  }

  // Canary-probe timer: every probe_interval, each quarantined live worker
  // with nothing in flight gets one master-initiated service carrying real
  // pool work, flagged as a probe.
  void probe_tick() {
    if (probe_guard.expired(core.completed, application.parallel_iterations())) return;
    if (!master_down) {
      for (std::size_t w = 0; w < processors; ++w) {
        if (!health.quarantined(w) || declared_dead[w]) continue;
        if (down(w)) continue;  // physically down; the canary would be wasted
        if (outstanding[w].active || service_pending[w] != 0 || core.auditing[w] != 0 ||
            probe_pending[w] != 0) {
          continue;
        }
        probe_pending[w] = 1;
        idle[w] = 0;  // a restart may have benched it as idle; the probe owns it now
        master_receive_request(w, 0);
      }
    }
    engine.schedule_after(config.quarantine.probe_interval, Event{Kind::kProbeTick});
  }

  // Master restart: rebuild the coordinator's volatile state from the
  // write-ahead log. Assignments without an ack may never have left the
  // wire — reclaim and re-dispatch them; acked-but-incomplete assignments
  // stay outstanding (their reports are still good); completions are
  // replayed into the dedup table so a finished chunk is never re-recorded.
  void master_restart() {
    const double now = engine.now();
    master_down = false;
    master_free_at = std::max(master_free_at, now);
    run.checkpoint.master_restarts += 1;
    flight.record(obs::FlightEventKind::kMasterRestarted, now, obs::kFlightMasterTrack,
                  static_cast<std::int64_t>(master_epoch));
    // A restart before the loop kicked off (crash inside the serial phase)
    // has nothing to reconcile and must NOT wake workers — the parallel
    // loop opens at serial_end, not at the master's recovery. A restart
    // after the loop drained likewise only logs itself.
    const bool loop_open =
        now >= serial_end && core.completed < application.parallel_iterations();
    // Suspicions, timeout escalation, and the bench list died with the old
    // master.
    std::fill(declared_dead.begin(), declared_dead.end(), 0);
    std::fill(timeout_scale.begin(), timeout_scale.end(), 1.0);
    std::fill(idle.begin(), idle.end(), 0);
    std::fill(service_pending.begin(), service_pending.end(), 0);
    stragglers.clear();
    // In-flight audit replicas and queued audit jobs died with the master
    // (the verdict table is volatile); their workers re-enter through the
    // restart wake below or their own requests. Queued jobs were never
    // dispatched, so only the in-flight replicas count as abandoned. The
    // health/quarantine state itself is snapshot-durable and survives the
    // restart.
    for (std::size_t w = 0; w < processors; ++w) {
      if (core.auditing[w]) {
        core.auditing[w] = 0;
        health.stats.audits_abandoned += 1;
      }
    }
    core.audits_waiting.clear();
    std::fill(probe_pending.begin(), probe_pending.end(), 0);
    std::vector<std::uint64_t> last_assign(processors, 0);
    std::vector<std::uint64_t> last_ack(processors, 0);
    std::vector<std::uint64_t> last_complete(processors, 0);
    for (const WalRecord& rec : run.wal) {
      switch (rec.kind) {
        case WalRecord::Kind::kAssign:
          last_assign[rec.worker] = std::max(last_assign[rec.worker], rec.seq);
          break;
        case WalRecord::Kind::kAck:
          last_ack[rec.worker] = std::max(last_ack[rec.worker], rec.seq);
          break;
        case WalRecord::Kind::kComplete:
          last_complete[rec.worker] = std::max(last_complete[rec.worker], rec.seq);
          run.checkpoint.restart_completions_replayed += 1;
          break;
        case WalRecord::Kind::kSnapshot:
        case WalRecord::Kind::kRestart:
          break;
      }
    }
    for (std::size_t w = 0; w < processors; ++w) {
      next_id[w] = std::max(next_id[w], last_assign[w]);
      processed_seq[w] = last_complete[w];  // never re-record a completed chunk
      assign_acked_seq[w] = last_ack[w];
      Outstanding& out = outstanding[w];
      const std::uint64_t seq = last_assign[w];
      if (seq == 0 || seq <= last_complete[w]) {
        // Nothing in flight for this worker according to the log: treat it
        // as idle and wakeable (the bench list did not survive).
        if (loop_open && !out.active) idle[w] = 1;
      } else if (seq <= last_ack[w]) {
        // Acked but incomplete: the worker is still computing; keep the
        // assignment outstanding and re-arm detection from the restart.
        if (out.active && out.id == seq) {
          run.checkpoint.restart_chunks_preserved += 1;
          out.probes = 0;
          arm_detection(w, seq, out.range.count, now);
        } else if (loop_open && !out.active) {
          idle[w] = 1;  // e.g. a speculation loser cancelled pre-crash
        }
      } else {
        // Assigned but never acked: the assignment may never have reached
        // the worker — reclaim and re-dispatch. If it WAS delivered (the
        // ack was lost), the worker's eventual report hits the late-report
        // path: dropped, exactly-once preserved.
        if (out.active && out.id == seq) {
          run.checkpoint.restart_ranges_redispatched += 1;
          reclaim_outstanding(w);
          // NOT idle: the worker may be computing the reclaimed chunk; its
          // late report (or its own request retry) re-enters it.
        } else if (loop_open && !out.active) {
          idle[w] = 1;
        }
      }
    }
    wal_append(WalRecord::Kind::kRestart, 0, master_epoch, 0, 0);
    if (config.collect_trace) {
      run.events.push_back({LifecycleEvent::Kind::kMasterRestart, now, 0, 0});
    }
    CDSF_LOG_TRACE << "mpi master restarted at " << now;
    if (loop_open) wake_idle();
  }

  const workload::Application& application;
  const SimConfig& config;
  const MessageModel& messages;
  detail::PreparedRun& prepared;
  dls::Technique& technique;
  const std::size_t processors = prepared.workers.size();
  const bool crash_mode = detail::has_crash_failures(config);
  const SimConfig::Failure* const master_fault = detail::master_restart_failure(config);
  const bool unreliable = config.channel.faulty();
  // A master restart needs the WAL to reconcile against, so a master fault
  // implies checkpointing; and messages arriving at a down master are lost,
  // so either condition arms the hardened at-least-once protocol.
  const bool checkpointing = config.checkpoint.enabled || master_fault != nullptr;
  const bool hardened = unreliable || checkpointing;
  const bool detection = (crash_mode || hardened) && config.fault_detection.enabled;
  Engine<Event> engine;
  detail::DispatchCore core;
  RunResult& run = core.result;
  detail::IterationPool& pool = core.pool;
  detail::HealthTracker& health = core.health;
  obs::FlightRecorder& flight = core.flight;
  MasterStats master_stats;
  double serial_end = 0.0;
  double master_free_at = 0.0;

  std::vector<Outstanding> outstanding = std::vector<Outstanding>(processors);
  std::vector<std::uint64_t> next_id = std::vector<std::uint64_t>(processors, 0);
  std::vector<char> declared_dead = std::vector<char>(processors, 0);
  std::vector<char> idle = std::vector<char>(processors, 0);
  // Per-worker timeout escalation: each proven-false suspicion (a late
  // report from a worker the master declared dead) doubles that worker's
  // timeout scale. Without this, a timeout below the true round trip
  // reclaims EVERY chunk before its report lands — no report is ever
  // accepted and the run livelocks. Doubling converges the timeout above
  // the real round trip within O(log) false suspicions.
  std::vector<double> timeout_scale = std::vector<double>(processors, 1.0);
  // Straggler-flagged assignments waiting for an idle worker to host the
  // backup copy (entries may go stale when the report arrives first).
  std::deque<std::pair<std::size_t, std::uint64_t>> stragglers;
  // Gray-failure transport state: the verdict of an audit replica in
  // flight across a master restart is stale (epoch), and a canary service
  // is queued for a quarantined worker (probe_pending).
  std::vector<std::uint64_t> audit_epoch = std::vector<std::uint64_t>(processors, 0);
  std::vector<char> probe_pending = std::vector<char>(processors, 0);
  StagnationGuard snapshot_guard;
  StagnationGuard probe_guard;

  // ---- Hardened at-least-once protocol state (dormant otherwise). ----
  const ChannelModel& chan = config.channel;
  std::optional<util::RngStream> channel_rng;
  std::optional<sysmodel::BurstWindows> bursts;
  std::size_t force_drop_to_worker = chan.force_drop_to_worker;
  std::size_t force_drop_to_master = chan.force_drop_to_master;
  std::size_t force_corrupt_to_worker = chan.force_corrupt_to_worker;
  std::size_t force_corrupt_to_master = chan.force_corrupt_to_master;
  // Worker-side protocol memory (survives master restarts).
  std::vector<std::uint64_t> request_seq = std::vector<std::uint64_t>(processors, 0);
  std::vector<std::uint64_t> reply_seq = std::vector<std::uint64_t>(processors, 0);
  std::vector<std::uint64_t> executed_seq = std::vector<std::uint64_t>(processors, 0);
  std::vector<std::uint64_t> cancelled_seq = std::vector<std::uint64_t>(processors, 0);
  std::vector<std::uint64_t> report_acked_seq = std::vector<std::uint64_t>(processors, 0);
  // Master-side protocol memory (volatile: dies in a master crash and is
  // rebuilt from the WAL at restart).
  std::vector<std::uint64_t> assign_acked_seq = std::vector<std::uint64_t>(processors, 0);
  std::vector<std::uint64_t> processed_seq = std::vector<std::uint64_t>(processors, 0);
  // A master service for this worker is enqueued but not yet executed.
  // In that window outstanding[w] is inactive and idle[w] unset, so a
  // duplicated/retransmitted request would otherwise enqueue a SECOND
  // service — two overlapping assignments for one worker, the first of
  // which would be silently orphaned (its report drops into the
  // late-report path and its iterations strand).
  std::vector<char> service_pending = std::vector<char>(processors, 0);
  bool master_down = false;
  // Bumped at every master crash; timers armed by the old incarnation
  // (probes, assignment retransmits) carry their epoch and no-op on
  // mismatch — the crashed process's timers died with it.
  std::uint64_t master_epoch = 1;
};

}  // namespace

MpiRunResult simulate_loop_mpi(const workload::Application& application,
                               std::size_t processor_type, std::size_t processors,
                               const sysmodel::AvailabilitySpec& availability,
                               const TechniqueFactory& factory, const SimConfig& config,
                               const MessageModel& messages, std::uint64_t seed) {
  if (messages.latency < 0.0 || messages.master_service_time < 0.0) {
    throw std::invalid_argument("simulate_loop_mpi: message costs must be >= 0");
  }
  if (config.deadline_risk.enabled) {
    throw std::invalid_argument(
        "simulate_loop_mpi: deadline_risk is not supported (the deadline-risk monitor exists "
        "only in the idealized executors)");
  }
  detail::PreparedRun prepared =
      detail::prepare_run(application, std::vector<std::size_t>(processors, processor_type),
                          availability, config, seed, /*mixed=*/false);

  const std::unique_ptr<dls::Technique> technique = factory(prepared.params);
  if (technique == nullptr) {
    throw std::invalid_argument("simulate_loop_mpi: factory returned null");
  }
  technique->reset();

  return MpiLoop(application, config, messages, prepared, *technique, seed).run_loop();
}

MpiRunResult simulate_loop_mpi(const workload::Application& application,
                               std::size_t processor_type, std::size_t processors,
                               const sysmodel::AvailabilitySpec& availability,
                               dls::TechniqueId technique, const SimConfig& config,
                               const MessageModel& messages, std::uint64_t seed) {
  return simulate_loop_mpi(
      application, processor_type, processors, availability,
      [technique](const dls::TechniqueParams& params) {
        return dls::make_technique(technique, params);
      },
      config, messages, seed);
}

ReplicationSummary simulate_replicated_mpi(const workload::Application& application,
                                           std::size_t processor_type, std::size_t processors,
                                           const sysmodel::AvailabilitySpec& availability,
                                           dls::TechniqueId technique, const SimConfig& config,
                                           const MessageModel& messages, std::uint64_t seed,
                                           std::size_t replications, double deadline,
                                           std::size_t threads) {
  return detail::replicate(
      "simulate_replicated_mpi", config, seed, replications, deadline, threads,
      [&](const SimConfig& run_config, std::uint64_t child) {
        return simulate_loop_mpi(application, processor_type, processors, availability,
                                 technique, run_config, messages, child)
            .run;
      });
}

}  // namespace cdsf::sim
