#include "src/dist/shard.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <optional>
#include <stdexcept>

#include "src/common/errors.h"
#include "src/experiment/batch_runner.h"
#include "src/explore/explorer.h"
#include "src/obs/events.h"
#include "src/obs/heartbeat.h"
#include "src/obs/metrics.h"
#include "src/obs/progress.h"
#include "src/obs/spans.h"

namespace mpcn {

namespace {

// Shard-pool telemetry (src/obs/metrics.h): coordinator-side counters
// for churn and flow, worker-side counters for served work. All sidecar;
// the merged Report never sees them.
Counter& m_cells_dispatched() {
  static Counter& c = metrics_registry().counter("shard.cells_dispatched");
  return c;
}
Counter& m_cells_requeued() {
  static Counter& c = metrics_registry().counter("shard.cells_requeued");
  return c;
}
Counter& m_workers_written_off() {
  static Counter& c = metrics_registry().counter("shard.workers_written_off");
  return c;
}
Counter& m_workers_respawned() {
  static Counter& c = metrics_registry().counter("shard.workers_respawned");
  return c;
}
Counter& m_backoff_waits() {
  static Counter& c = metrics_registry().counter("shard.backoff_waits");
  return c;
}
Counter& m_garbage_lines() {
  static Counter& c = metrics_registry().counter("shard.garbage_lines");
  return c;
}
Counter& m_fallback_cells() {
  static Counter& c = metrics_registry().counter("shard.fallback_cells");
  return c;
}
Counter& m_heartbeats() {
  static Counter& c = metrics_registry().counter("shard.heartbeats");
  return c;
}
Counter& m_stale_writeoffs() {
  static Counter& c = metrics_registry().counter("shard.stale_writeoffs");
  return c;
}
Counter& m_snapshot_timeouts() {
  static Counter& c = metrics_registry().counter("shard.snapshot_timeouts");
  return c;
}
Counter& m_worker_cells_served() {
  static Counter& c = metrics_registry().counter("worker.cells_served");
  return c;
}
Counter& m_worker_garbage_lines() {
  static Counter& c = metrics_registry().counter("worker.garbage_lines");
  return c;
}

// The worker-side heartbeat. Once armed the worker beats at once, after
// every job, from inside a long job once the interval has passed (the
// in-run hook, src/obs/heartbeat.h) and, while idle, whenever its wait
// for the next line outlasts the interval. A beat diffs the metrics
// registry against the previous beat (delta_json) and writes one
// telemetry line. All of it runs on the worker's one thread, so lines
// never interleave and seq and delta stay consistent without a lock.
class Heartbeat {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Heartbeat(LineIO& io) : io_(io) {}
  ~Heartbeat() { stop(); }
  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

  // Arm at `interval` (> 0) and beat at once, so every armed worker
  // produces at least one telemetry line even if it never receives a job.
  void arm(std::chrono::milliseconds interval) {
    interval_ = interval;
    beat();
    set_heartbeat_hook(&Heartbeat::on_tick, this);
  }

  bool armed() const { return interval_ > std::chrono::milliseconds::zero(); }
  // How long the idle worker may wait before the next beat is due.
  std::chrono::milliseconds until_due() const {
    return std::max(std::chrono::ceil<std::chrono::milliseconds>(
                        next_due_ - Clock::now()),
                    std::chrono::milliseconds::zero());
  }

  // Beat once, now (no-op until armed).
  void beat() {
    const std::string line = compose();
    if (!line.empty()) io_.write_line(line);
  }

  // Write a job's reply and, when armed, its after-job heartbeat in one
  // coalesced write: one syscall, one coordinator wakeup — the beat
  // rides the reply instead of doubling the wire traffic per job.
  bool reply_and_beat(const std::string& reply) {
    const std::string beat = compose();
    if (beat.empty()) return io_.write_line(reply);
    return io_.write_lines(reply, beat);
  }

  // Disarm; no beats after this returns. Called before a shutdown reply
  // (the final metrics line must be the last word) and before an
  // injected SIGSTOP.
  void stop() {
    interval_ = std::chrono::milliseconds::zero();
    set_heartbeat_hook(nullptr, nullptr);
  }

 private:
  // The next telemetry line; empty when unarmed.
  std::string compose() {
    if (!armed()) return std::string();
    next_due_ = Clock::now() + interval_;
    metrics_registry().delta_json(prev_, delta_buf_);
    return telemetry_line(seq_++, static_cast<std::int64_t>(trace_now_us()),
                          delta_buf_);
  }

  // The in-run hook: beat once the interval has passed. It must not
  // throw into the controller, so a beat that fails (out of memory) is
  // retried at the next tick.
  static void on_tick(void* self, Clock::time_point now) noexcept {
    Heartbeat& h = *static_cast<Heartbeat*>(self);
    if (now < h.next_due_) return;
    try {
      h.beat();
    } catch (...) {
      h.next_due_ = now;
    }
  }

  LineIO& io_;
  std::chrono::milliseconds interval_{0};  // zero: unarmed
  Clock::time_point next_due_{};
  MetricsSnapshot prev_;   // updated in place by delta_json
  std::string delta_buf_;  // reused per beat; capacity amortizes
  std::int64_t seq_ = 0;
};

// A cell line's reply. to_cell() failures (unknown scenario, invalid
// model) still answer: the spec's identity fields label the error record.
std::string serve_cell(const WireMessage& msg) {
  RunRecord rec;
  try {
    rec = run_cell(msg.spec->to_cell());
  } catch (const std::exception& e) {
    rec = msg.spec->error_record(e.what());
  }
  return result_line(msg.id, rec);
}

// A range line's reply. A spec that fails to rebuild answers every
// schedule of the range with the error record a cell line would get.
std::string serve_range(const WireMessage& msg) {
  RangeResult result;
  try {
    result = run_schedule_range(msg.spec->to_cell(), msg.first, msg.count);
  } catch (const std::exception& e) {
    result = RangeResult{};
    CellSpec spec = *msg.spec;
    for (int i = msg.first; i < msg.first + msg.count; ++i) {
      spec.cell_index = i;
      result.steps.push_back(0);
      result.records.push_back(spec.error_record(e.what()));
    }
  }
  return range_result_line(msg.id, result);
}

}  // namespace

// --------------------------------------------------------------- worker

void run_worker_loop(LineIO& io, const WorkerOptions& options) {
  Heartbeat heartbeat(io);
  if (!io.write_line(hello_line())) return;
  if (options.heartbeat > std::chrono::milliseconds::zero()) {
    heartbeat.arm(options.heartbeat);
  }
  int jobs_received = 0;
  std::string line;
  for (;;) {
    // Idle: wait for the next line, beating whenever the interval passes.
    while (heartbeat.armed() &&
           !io.await_line(heartbeat.until_due())) {
      heartbeat.beat();
    }
    if (!io.read_line(line)) return;
    WireMessage msg;
    try {
      msg = parse_wire_line(line);
    } catch (const WireError& e) {
      // Bad framing is the sender's bug; answer with a diagnostic and
      // keep serving — one garbage line must not take the worker down.
      m_worker_garbage_lines().add();
      if (!io.write_line(error_line(e.what()))) return;
      continue;
    }
    switch (msg.type) {
      case WireMessage::Type::kShutdown:
        // Quiesce the heartbeat first: the shutdown replies must be the
        // final lines on the wire. Then the opt-in telemetry exchange —
        // one snapshot of this process's counters, one span-ring dump.
        // A plain shutdown gets no reply (pre-telemetry coordinators
        // and tests see identical bytes).
        heartbeat.stop();
        if (msg.want_metrics) {
          io.write_line(metrics_line(metrics_registry().snapshot()));
        }
        if (msg.want_trace) io.write_line(trace_line(dump_trace_json()));
        return;
      case WireMessage::Type::kCell:
      case WireMessage::Type::kRange: {
        ++jobs_received;
        if (options.max_cells > 0 && jobs_received >= options.max_cells) {
          return;  // injected crash: die with the job unanswered
        }
        if (options.stop_after_cells > 0 &&
            jobs_received >= options.stop_after_cells) {
          // Injected freeze holding this job, before serving it: disarm
          // the heartbeat, then stop the whole process. The job's
          // watchdog deadline (its wall limit plus grace) is far off, so
          // only heartbeat staleness can notice. A SIGCONT would resume
          // the loop (heartbeats stay off); the coordinator's write-off
          // SIGKILL ends it for good.
          heartbeat.stop();
          ::raise(SIGSTOP);
        }
        const bool cell = msg.type == WireMessage::Type::kCell;
        std::string reply;
        {
          ScopedSpan span("worker.cell", "shard",
                          cell ? msg.spec->cell_index : msg.first);
          reply = cell ? serve_cell(msg) : serve_range(msg);
        }
        m_worker_cells_served().add(
            static_cast<std::uint64_t>(cell ? 1 : msg.count));
        // Reply + after-job heartbeat in one write (beat is a no-op
        // until armed, so this is just the reply on plain runs).
        if (!heartbeat.reply_and_beat(reply)) return;
        break;
      }
      case WireMessage::Type::kHello:
      case WireMessage::Type::kResult:
      case WireMessage::Type::kRangeResult:
      case WireMessage::Type::kError:
      case WireMessage::Type::kMetrics:
      case WireMessage::Type::kTelemetry:
      case WireMessage::Type::kTrace:
        break;  // tolerated, meaningless towards a worker
    }
  }
}

// ---------------------------------------------------------- coordinator

namespace {

// Deadlines of the shutdown harvest: the final exchange with the whole
// pool, and the span salvage from one worker about to be written off.
constexpr std::chrono::milliseconds kHarvestDeadline{2000};
constexpr std::chrono::milliseconds kSalvageDeadline{200};

struct WorkerProc {
  pid_t pid = -1;
  int fd = -1;          // our end of the socketpair
  FdLineIO io{-1, -1};  // the line framing over fd
  bool alive = false;
  bool busy = false;
  std::size_t outstanding = 0;  // cell id, valid when busy
  std::chrono::steady_clock::time_point sent_at{};
  // Health layer: the last sign of life — any bytes received, or the
  // spawn itself. Staleness is measured against this, so a worker
  // streaming heartbeats (or results) is never stale.
  std::chrono::steady_clock::time_point last_heard{};
  // Churn hardening: respawn attempts this slot has consumed, and the
  // scheduled relaunch (valid while respawn_pending).
  int respawns = 0;
  bool respawn_pending = false;
  std::chrono::steady_clock::time_point respawn_at{};
};

// Doubling backoff for the (attempt+1)-th respawn of a slot, capped so a
// crash-looping worker cannot push waits without bound.
std::chrono::milliseconds respawn_delay(const ShardOptions& options,
                                        int attempt) {
  constexpr std::chrono::milliseconds kCap{1000};
  std::chrono::milliseconds d = options.respawn_backoff;
  if (d <= std::chrono::milliseconds::zero()) return {};
  for (int i = 0; i < attempt && d < kCap; ++i) d *= 2;
  return std::min(d, kCap);
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

// Reap `pid`: give it `grace` to exit on its own, then SIGKILL.
void reap(pid_t pid, std::chrono::milliseconds grace) {
  if (pid <= 0) return;
  const auto deadline = std::chrono::steady_clock::now() + grace;
  int status = 0;
  for (;;) {
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r != 0) return;  // reaped (or ECHILD)
    if (std::chrono::steady_clock::now() >= deadline) break;
    ::usleep(2000);
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, &status, 0);
}

// Slot `index`'s entry of a per-slot fault-injection list; 0 when missing.
int slot_quota(const std::vector<int>& quotas, int index) {
  return index < static_cast<int>(quotas.size())
             ? quotas[static_cast<std::size_t>(index)]
             : 0;
}

// Fork the worker of slot `index`. `sibling_fds`: coordinator ends of
// previously spawned workers, closed in the child so no worker holds
// another worker's pipe open — otherwise a worker would never see EOF
// when the coordinator dies.
WorkerProc spawn_worker(const ShardOptions& options, int index,
                        const std::vector<int>& sibling_fds) {
  int sv[2];
#ifdef SOCK_CLOEXEC
  const int type = SOCK_STREAM | SOCK_CLOEXEC;
#else
  const int type = SOCK_STREAM;
#endif
  if (::socketpair(AF_UNIX, type, 0, sv) != 0) {
    throw std::runtime_error(std::string("shard: socketpair failed: ") +
                             std::strerror(errno));
  }
  // The worker's settings, set before the fork and inherited with the
  // rest of memory: no wire line configures a worker. Only streamed
  // telemetry arms the heartbeat; span recording is harvested at
  // shutdown and needs no beat.
  WorkerOptions wo;
  wo.max_cells = slot_quota(options.worker_max_cells, index);
  wo.stop_after_cells = slot_quota(options.worker_stop_after, index);
  wo.heartbeat = options.telemetry_interval;
  const bool want_traces = options.worker_traces != nullptr;
  // Pin the trace clock's origin BEFORE forking: the child inherits it,
  // so its span timestamps need no alignment in the merged trace.
  trace_now_us();
  const pid_t coordinator = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    throw std::runtime_error(std::string("shard: fork failed: ") +
                             std::strerror(errno));
  }
  if (pid == 0) {
    // A worker dies with its coordinator: the kernel SIGKILLs it then, so
    // no orphan runs its job on. A coordinator that died before prctl()
    // is caught by the getppid() check.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != coordinator) ::_exit(1);
    // Serve straight from the forked image. _exit (not exit) so the
    // child never runs the parent's atexit/stream flushing. Zero the
    // inherited telemetry first — a forked child carries the
    // coordinator's counter values and span rings, and a worker
    // snapshot/trace must report only its own work or pool-wide views
    // double-count. The child also detaches from the coordinator's
    // event log so it never appends to the parent's file.
    ::close(sv[0]);
    for (int fd : sibling_fds) ::close(fd);
    metrics_registry().reset();
    reset_trace();
    close_event_log();
    if (want_traces) set_tracing_enabled(true);
    FdLineIO io(sv[1], sv[1]);
    options.worker_loop(io, wo);
    ::_exit(0);
  }
  ::close(sv[1]);
  WorkerProc w;
  w.pid = pid;
  w.fd = sv[0];
  w.io = FdLineIO(sv[0], sv[0]);
  w.alive = true;
  w.last_heard = std::chrono::steady_clock::now();
  return w;
}

// One unit of dispatch: a grid cell, or a range of search schedules.
struct Job {
  int first = 0;                   // cell_index of its first cell
  int count = 1;                   // cells it covers
  std::int64_t wall_limit_ms = 0;  // summed over its cells (watchdog)
};

// What the pool's two kinds of work differ in.
struct JobHooks {
  // The wire line that dispatches job j.
  std::function<std::string(std::size_t j)> line;
  // A worker's reply to job j: consume it, or return false when it is no
  // answer to job j (a protocol violation).
  std::function<bool(std::size_t j, WireMessage& reply)> accept;
  // Run job j in-process, once the pool has drained.
  std::function<void(std::size_t j)> run_local;
  // Null, or false when job j is no longer wanted: it resolves unrun.
  std::function<bool(std::size_t j)> wanted;
  // The --progress line's label and unit, as the in-process loops
  // print them.
  const char* label = "";
  const char* unit = "";
};

// The coordinator: spawn min(shards, jobs) workers, stream the jobs over
// them with requeue, respawn, watchdog and heartbeat write-off, run what
// is left in-process if the pool drains, and shut the pool down.
void run_pool(const std::vector<Job>& jobs, const ShardOptions& options,
              const JobHooks& hooks) {
  std::size_t total_cells = 0;
  for (const Job& j : jobs) total_cells += static_cast<std::size_t>(j.count);
  const int shard_count =
      std::min<int>(options.shards, static_cast<int>(jobs.size()));
  std::vector<WorkerProc> workers;
  workers.reserve(static_cast<std::size_t>(shard_count));
  std::vector<int> sibling_fds;
  try {
    for (int i = 0; i < shard_count; ++i) {
      workers.push_back(spawn_worker(options, i, sibling_fds));
      sibling_fds.push_back(workers.back().fd);
    }
  } catch (...) {
    // A failed spawn (fork EAGAIN, ...) must not orphan the workers
    // already running: kill and reap them before propagating.
    for (WorkerProc& w : workers) {
      close_fd(w.fd);
      if (w.pid > 0) {
        ::kill(w.pid, SIGKILL);
        int status = 0;
        ::waitpid(w.pid, &status, 0);
      }
    }
    throw;
  }

  std::deque<std::size_t> pending;
  for (std::size_t i = 0; i < jobs.size(); ++i) pending.push_back(i);
  std::vector<bool> seen(jobs.size(), false);  // answered, or dropped
  std::size_t done = 0;  // jobs seen
  const auto resolve = [&](std::size_t id) {
    seen[id] = true;
    ++done;
  };
  // Jobs the caller no longer wants (a search's early stop) resolve
  // unrun, wherever they wait in the queue.
  const auto drop_unwanted = [&] {
    if (!hooks.wanted) return;
    for (auto it = pending.begin(); it != pending.end();) {
      if (hooks.wanted(*it)) {
        ++it;
        continue;
      }
      resolve(*it);
      it = pending.erase(it);
    }
  };

  // The live per-slot health table, fed by heartbeats and results.
  // Slots persist across respawns; copied out to options.health at
  // return.
  std::vector<WorkerHealth> health(workers.size());
  for (std::size_t i = 0; i < workers.size(); ++i) {
    health[i].slot = static_cast<int>(i);
  }
  const bool want_worker_traces = options.worker_traces != nullptr;
  const bool stale_enabled = options.telemetry_interval.count() > 0 &&
                             options.heartbeat_stale_after.count() > 0;
  const auto slot_of = [&](const WorkerProc& w) {
    return static_cast<std::size_t>(&w - workers.data());
  };
  const auto age_ms = [](std::chrono::steady_clock::time_point now,
                         std::chrono::steady_clock::time_point then) {
    return static_cast<std::int64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(now - then)
            .count());
  };

  // A heartbeat: fold its delta (parse_wire_line gives every telemetry
  // line one) into the slot's health entry.
  const auto fold_heartbeat = [&](std::size_t slot, const WireMessage& msg) {
    WorkerHealth& h = health[slot];
    ++h.heartbeats;
    h.last_seq = std::max(h.last_seq, msg.telemetry_seq);
    h.telemetry.merge(*msg.snapshot);
    m_heartbeats().add();
  };

  // The shutdown harvest. The shutdown line, with its opt-in metrics and
  // trace requests, goes to EVERY listed slot before any reply is
  // awaited; one poll loop then collects the replies under one shared
  // deadline, so the harvest takes ~`timeout` however many workers it
  // waits on, and a slow worker starves nobody else. A worker that
  // misses the deadline counts one shard.snapshot_timeouts. Heartbeats
  // racing the shutdown are folded; late results and errors are
  // skipped. What arrives is appended in slot order, whatever the
  // arrival order, so the harvested vectors are deterministic.
  const auto harvest = [&](const std::vector<std::size_t>& slots,
                           bool want_metrics, bool want_trace,
                           std::chrono::milliseconds timeout) {
    struct Owed {
      bool metrics = false;  // replies still owed
      bool trace = false;
      std::optional<MetricsSnapshot> snapshot;
      std::optional<Json> trace_doc;
      bool waiting() const { return metrics || trace; }
      void give_up() { metrics = trace = false; }
    };
    std::vector<Owed> owed(workers.size());
    for (std::size_t i : slots) {
      if (workers[i].io.write_line(shutdown_line(want_metrics, want_trace))) {
        owed[i].metrics = want_metrics;
        owed[i].trace = want_trace;
      }
    }
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    std::string line;
    for (;;) {
      // Drain buffered lines first, then poll only the still-owed fds.
      for (std::size_t i = 0; i < workers.size(); ++i) {
        Owed& p = owed[i];
        while (p.waiting() && workers[i].io.take_line(line)) {
          try {
            WireMessage msg = parse_wire_line(line);
            if (msg.type == WireMessage::Type::kMetrics && msg.snapshot) {
              p.snapshot = std::move(*msg.snapshot);
              p.metrics = false;
            } else if (msg.type == WireMessage::Type::kTrace &&
                       msg.trace_doc) {
              p.trace_doc = std::move(*msg.trace_doc);
              p.trace = false;
            } else if (msg.type == WireMessage::Type::kTelemetry) {
              fold_heartbeat(i, msg);
            }
          } catch (const WireError&) {
            m_garbage_lines().add();
          }
        }
      }
      std::vector<pollfd> pfds;
      std::vector<std::size_t> pown;
      const auto now = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < workers.size(); ++i) {
        if (!owed[i].waiting()) continue;
        if (now >= deadline) {
          owed[i].give_up();
          m_snapshot_timeouts().add();
          continue;
        }
        pfds.push_back(pollfd{workers[i].fd, POLLIN, 0});
        pown.push_back(i);
      }
      if (pfds.empty()) break;
      const int timeout_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                now)
              .count() +
          1);
      ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), timeout_ms);
      for (std::size_t k = 0; k < pfds.size(); ++k) {
        if ((pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        // EOF with replies still owed: the worker died mid-harvest.
        if (!workers[pown[k]].io.fill()) owed[pown[k]].give_up();
      }
    }
    for (std::size_t i = 0; i < workers.size(); ++i) {
      Owed& p = owed[i];
      if (p.snapshot && options.worker_metrics != nullptr) {
        options.worker_metrics->push_back(std::move(*p.snapshot));
      }
      if (p.trace_doc && want_worker_traces) {
        ProcessTrace pt;
        pt.pid = static_cast<int>(i) + 2;  // pid 1 = coordinator
        pt.name = "worker " + std::to_string(i);
        pt.doc = std::move(*p.trace_doc);
        options.worker_traces->push_back(std::move(pt));
      }
    }
  };

  auto write_off = [&](WorkerProc& w, const char* why) {
    if (!w.alive) return;
    const std::size_t slot = slot_of(w);
    // Best-effort span salvage: a frozen or hung worker just times out;
    // a protocol-violating (but responsive) one delivers.
    if (want_worker_traces) harvest({slot}, false, true, kSalvageDeadline);
    w.alive = false;
    m_workers_written_off().add();
    {
      WorkerHealth& h = health[slot];
      h.written_off = true;
      h.write_off_reason = why;
      h.last_heard_age_ms =
          age_ms(std::chrono::steady_clock::now(), w.last_heard);
    }
    log_event("worker_death", Json::object()
                                  .set("slot", static_cast<std::int64_t>(slot))
                                  .set("reason", why));
    close_fd(w.fd);
    if (w.pid > 0) {
      ::kill(w.pid, SIGKILL);
      int status = 0;
      ::waitpid(w.pid, &status, 0);
      w.pid = -1;
    }
    if (w.busy) {
      w.busy = false;
      if (!seen[w.outstanding]) {
        const Job& job = jobs[w.outstanding];
        pending.push_front(w.outstanding);
        m_cells_requeued().add(static_cast<std::uint64_t>(job.count));
        log_event("cell_requeue",
                  Json::object()
                      .set("cell_index", static_cast<std::int64_t>(job.first))
                      .set("slot", static_cast<std::int64_t>(slot)));
      }
    }
    // Schedule the slot's relaunch while respawn budget remains; the
    // backoff doubles with every attempt already spent.
    if (w.respawns < options.max_respawns) {
      const auto delay = respawn_delay(options, w.respawns);
      w.respawn_pending = true;
      w.respawn_at = std::chrono::steady_clock::now() + delay;
      m_backoff_waits().add();
      log_event("worker_backoff",
                Json::object()
                    .set("slot", static_cast<std::int64_t>(slot))
                    .set("delay_ms",
                         static_cast<std::int64_t>(delay.count())));
    }
    std::fprintf(stderr, "[shard] worker written off (%s); requeueing\n",
                 why);
  };

  // Record the initial pool's birth in the flight recorder.
  for (const WorkerProc& w : workers) {
    log_event("worker_spawn",
              Json::object()
                  .set("slot", static_cast<std::int64_t>(slot_of(w)))
                  .set("pid", static_cast<std::int64_t>(w.pid)));
  }

  // Progress heartbeat (stderr, opt-in): ticked by the cells of each
  // answered job, printed at most once per interval and once more when
  // the pool is done.
  ProgressMeter meter(options.progress, hooks.label, hooks.unit,
                      static_cast<long long>(total_cells));

  // Returns false on a protocol violation (caller writes the worker off).
  auto handle_line = [&](WorkerProc& w, const std::string& line) -> bool {
    WireMessage msg;
    try {
      msg = parse_wire_line(line);
    } catch (const WireError& e) {
      // Count garbage before writing the worker off: a pool suffering
      // framing corruption shows up in telemetry, not only in scattered
      // stderr lines. The excerpt (wire_excerpt) says what arrived.
      m_garbage_lines().add();
      std::fprintf(stderr, "[shard] garbage line from worker: %s\n",
                   e.what());
      return false;
    }
    switch (msg.type) {
      case WireMessage::Type::kHello:
        return msg.protocol == kWireProtocolVersion;
      case WireMessage::Type::kError:
        std::fprintf(stderr, "[shard] worker reported: %s\n",
                     msg.message.c_str());
        return true;
      case WireMessage::Type::kResult:
      case WireMessage::Type::kRangeResult: {
        if (!w.busy || msg.id != static_cast<std::int64_t>(w.outstanding)) {
          return false;  // an answer we never asked for
        }
        const std::size_t id = w.outstanding;
        const Job& job = jobs[id];
        if (!hooks.accept(id, msg)) return false;
        w.busy = false;
        health[slot_of(w)].cells_served += job.count;
        if (tracing_enabled()) {
          // The round trip, from dispatch to this reply.
          const auto dur = static_cast<std::uint64_t>(std::max<std::int64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - w.sent_at)
                  .count(),
              0));
          const std::uint64_t end_us = trace_now_us();
          record_span("shard.cell", "shard",
                      end_us >= dur ? end_us - dur : 0, dur,
                      static_cast<std::int64_t>(job.first));
        }
        resolve(id);
        meter.tick(job.count);
        return true;
      }
      case WireMessage::Type::kTelemetry:
        fold_heartbeat(slot_of(w), msg);
        return true;
      case WireMessage::Type::kMetrics:
      case WireMessage::Type::kTrace:
        // A snapshot/trace outside the shutdown handshake is harmless —
        // telemetry must never kill a worker.
        return true;
      case WireMessage::Type::kCell:
      case WireMessage::Type::kRange:
      case WireMessage::Type::kShutdown:
        return false;  // coordinator-only messages coming back at us
    }
    return false;
  };

  for (;;) {
    drop_unwanted();
    if (done == jobs.size()) break;
    // Churn hardening: relaunch written-off slots whose backoff expired.
    // The fresh worker inherits the slot's fault-injection quotas
    // (spawn_worker keys them by slot index).
    const auto respawn_now = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < workers.size(); ++i) {
      WorkerProc& w = workers[i];
      if (!w.respawn_pending || respawn_now < w.respawn_at) continue;
      w.respawn_pending = false;
      ++w.respawns;
      std::vector<int> live_fds;
      for (const WorkerProc& o : workers) {
        if (o.alive && o.fd >= 0) live_fds.push_back(o.fd);
      }
      try {
        const WorkerProc fresh =
            spawn_worker(options, static_cast<int>(i), live_fds);
        w.pid = fresh.pid;
        w.fd = fresh.fd;
        w.io = fresh.io;
        w.alive = true;
        w.busy = false;
        w.last_heard = fresh.last_heard;
        health[i].respawns = w.respawns;
        m_workers_respawned().add();
        log_event("worker_respawn",
                  Json::object()
                      .set("slot", static_cast<std::int64_t>(i))
                      .set("pid", static_cast<std::int64_t>(w.pid))
                      .set("attempt", static_cast<std::int64_t>(w.respawns)));
        std::fprintf(stderr,
                     "[shard] worker slot %zu respawned (attempt %d/%d)\n",
                     i, w.respawns, options.max_respawns);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[shard] respawn of slot %zu failed: %s\n", i,
                     e.what());
        if (w.respawns < options.max_respawns) {
          w.respawn_pending = true;
          w.respawn_at = respawn_now + respawn_delay(options, w.respawns);
        }
      }
    }

    // Dispatch: one outstanding job per live worker; streaming the next
    // job only on completion makes the load self-balancing.
    for (WorkerProc& w : workers) {
      if (!w.alive || w.busy || pending.empty()) continue;
      const std::size_t id = pending.front();
      if (!w.io.write_line(hooks.line(id))) {
        write_off(w, "write failed");
        continue;
      }
      pending.pop_front();
      w.busy = true;
      w.outstanding = id;
      w.sent_at = std::chrono::steady_clock::now();
      m_cells_dispatched().add(static_cast<std::uint64_t>(jobs[id].count));
      log_event("cell_dispatch",
                Json::object()
                    .set("cell_index",
                         static_cast<std::int64_t>(jobs[id].first))
                    .set("slot",
                         static_cast<std::int64_t>(slot_of(w))));
    }

    std::vector<pollfd> fds;
    std::vector<std::size_t> owner;
    for (std::size_t i = 0; i < workers.size(); ++i) {
      if (!workers[i].alive) continue;
      fds.push_back(pollfd{workers[i].fd, POLLIN, 0});
      owner.push_back(i);
    }
    if (fds.empty()) {
      // No live workers. A still-scheduled respawn means the pool is only
      // napping: sleep out the nearest backoff and loop. Otherwise the
      // pool has drained for good — fall back below.
      bool have_next = false;
      std::chrono::steady_clock::time_point next{};
      for (const WorkerProc& w : workers) {
        if (!w.respawn_pending) continue;
        if (!have_next || w.respawn_at < next) next = w.respawn_at;
        have_next = true;
      }
      if (!have_next) break;
      const auto now = std::chrono::steady_clock::now();
      if (next > now) {
        const auto wait_us =
            std::chrono::duration_cast<std::chrono::microseconds>(next -
                                                                  now)
                .count();
        ::usleep(static_cast<useconds_t>(
            std::min<long long>(wait_us + 1000, 1'100'000)));
      }
      continue;
    }

    // The watchdog deadline scales with the job's own wall_limit: a
    // worker is presumed hung only once its job has exceeded the
    // runtime the user allowed its cells PLUS the grace period, so cells
    // that legitimately run for minutes are never killed early.
    const auto effective_timeout_ms = [&](std::size_t id) {
      return jobs[id].wall_limit_ms + options.watchdog_grace.count();
    };
    // Every deadline below bounds the poll. A range's summed wall limits
    // can lie past INT_MAX ms (budget 500k over 3 shards at the default
    // 120 s limit), so each wait is clamped to fit poll()'s int.
    int timeout_ms = -1;
    const auto bound_poll = [&timeout_ms](long long remaining) {
      const int r = static_cast<int>(std::min<long long>(
                        std::max<long long>(remaining, 0),
                        std::numeric_limits<int>::max() - 1)) +
                    1;
      timeout_ms = timeout_ms < 0 ? r : std::min(timeout_ms, r);
    };
    if (options.watchdog_grace.count() > 0) {
      const auto now = std::chrono::steady_clock::now();
      for (const WorkerProc& w : workers) {
        if (!w.alive || !w.busy) continue;
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - w.sent_at)
                .count();
        bound_poll(effective_timeout_ms(w.outstanding) - elapsed);
      }
    }
    {
      // Scheduled respawns also bound the poll: a napping slot must come
      // back on time even if no worker event ever arrives.
      const auto now = std::chrono::steady_clock::now();
      for (const WorkerProc& w : workers) {
        if (!w.respawn_pending) continue;
        bound_poll(std::chrono::duration_cast<std::chrono::milliseconds>(
                       w.respawn_at - now)
                       .count());
      }
    }
    if (stale_enabled) {
      // Staleness deadlines bound the poll too: a frozen worker must be
      // noticed within ~heartbeat_stale_after even when nothing else
      // ever wakes the coordinator.
      const auto now = std::chrono::steady_clock::now();
      for (const WorkerProc& w : workers) {
        if (!w.alive) continue;
        bound_poll(options.heartbeat_stale_after.count() -
                   age_ms(now, w.last_heard));
      }
    }
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);

    for (std::size_t k = 0; k < fds.size(); ++k) {
      WorkerProc& w = workers[owner[k]];
      if (!w.alive) continue;
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (!w.io.fill()) {
        write_off(w, "eof");
        continue;
      }
      w.last_heard = std::chrono::steady_clock::now();
      bool ok = true;
      std::string line;
      while (ok && w.io.take_line(line)) ok = handle_line(w, line);
      if (!ok) write_off(w, "protocol violation");
    }

    if (options.watchdog_grace.count() > 0) {
      const auto now = std::chrono::steady_clock::now();
      for (WorkerProc& w : workers) {
        if (w.alive && w.busy &&
            now - w.sent_at > std::chrono::milliseconds(
                                  effective_timeout_ms(w.outstanding))) {
          write_off(w, "cell timeout");
        }
      }
    }
    if (stale_enabled) {
      // The health layer's write-off: no sign of life — heartbeat,
      // result, anything — for heartbeat_stale_after. Unlike the
      // watchdog this also catches a worker frozen BETWEEN cells, when
      // nothing is outstanding.
      const auto now = std::chrono::steady_clock::now();
      for (WorkerProc& w : workers) {
        if (!w.alive) continue;
        const std::int64_t age = age_ms(now, w.last_heard);
        if (age <= options.heartbeat_stale_after.count()) continue;
        m_stale_writeoffs().add();
        log_event("heartbeat_gap",
                  Json::object()
                      .set("slot",
                           static_cast<std::int64_t>(slot_of(w)))
                      .set("age_ms", age));
        write_off(w, "heartbeat stale");
      }
    }
  }

  // Shut the pool down, harvesting the opt-in metrics and traces, and
  // reap every live worker.
  std::vector<std::size_t> live;
  for (const WorkerProc& w : workers) {
    if (w.alive) live.push_back(slot_of(w));
  }
  harvest(live, options.worker_metrics != nullptr, want_worker_traces,
          kHarvestDeadline);
  for (std::size_t i : live) {
    WorkerProc& w = workers[i];
    health[i].last_heard_age_ms =
        age_ms(std::chrono::steady_clock::now(), w.last_heard);
    log_event("worker_shutdown",
              Json::object()
                  .set("slot", static_cast<std::int64_t>(i))
                  .set("cells_served", health[i].cells_served));
    close_fd(w.fd);
    reap(w.pid, std::chrono::milliseconds(500));
    w.pid = -1;
    w.alive = false;
  }

  // Degraded mode: every worker died with every respawn budget spent and
  // jobs unserved. Either fail cleanly or run the remainder in-process —
  // a sharded run may get slower, but it never loses cells.
  drop_unwanted();
  if (done < jobs.size()) {
    std::size_t cells_left = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (!seen[i]) cells_left += static_cast<std::size_t>(jobs[i].count);
    }
    if (!options.fallback_in_process) {
      throw ProtocolError(
          "run_sharded: worker pool drained (" +
          std::to_string(workers.size()) + " slot(s) dead after " +
          std::to_string(options.max_respawns) +
          " respawn(s) each) with " + std::to_string(cells_left) +
          " cells unserved and fallback_in_process disabled");
    }
    std::fprintf(stderr,
                 "[shard] %zu cells had no surviving worker; running them "
                 "in-process\n",
                 cells_left);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (seen[i]) continue;
      // An earlier fallback job may have ended the caller's interest.
      if (!hooks.wanted || hooks.wanted(i)) {
        hooks.run_local(i);
        meter.tick(jobs[i].count);
        m_fallback_cells().add(static_cast<std::uint64_t>(jobs[i].count));
      }
      resolve(i);
    }
  }

  if (options.health != nullptr) *options.health = std::move(health);
}

}  // namespace

Report run_sharded(const std::vector<ExperimentCell>& cells,
                   const ShardOptions& options) {
  if (options.shards <= 0) {
    throw ProtocolError("run_sharded: need shards >= 1 (use run_batch "
                        "with shards = 0 for in-process runs)");
  }
  // Serialize every cell up front: fail fast on non-wire-serializable
  // grids before any process is forked.
  std::vector<CellSpec> specs;
  specs.reserve(cells.size());
  std::vector<Job> jobs;
  jobs.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    CellSpec spec = CellSpec::from_cell(cells[i]);
    if (spec.cell_index != static_cast<int>(i)) {
      throw ProtocolError(
          "run_sharded: cells must be grid-stamped with cell_index == "
          "position (Experiment::cells() provides this); cell " +
          std::to_string(i) + " has cell_index " +
          std::to_string(spec.cell_index));
    }
    jobs.push_back(Job{spec.cell_index, 1, spec.wall_limit_ms});
    specs.push_back(std::move(spec));
  }
  Report arrivals;  // records in arrival order; merged into grid order
  arrivals.title = derive_report_title(cells, "");
  if (cells.empty()) return arrivals;

  JobHooks hooks;
  hooks.label = "batch";
  hooks.unit = "cells";
  hooks.line = [&](std::size_t j) {
    return cell_line(static_cast<std::int64_t>(j), specs[j]);
  };
  hooks.accept = [&](std::size_t j, WireMessage& reply) {
    if (reply.type != WireMessage::Type::kResult || !reply.record ||
        reply.record->cell_index != static_cast<int>(j)) {
      return false;
    }
    arrivals.records.push_back(std::move(*reply.record));
    return true;
  };
  hooks.run_local = [&](std::size_t j) {
    arrivals.records.push_back(run_cell(cells[j]));
  };
  run_pool(jobs, options, hooks);

  Report merged = Report::merge({arrivals});
  merged.title = arrivals.title;
  if (merged.records.size() != cells.size()) {
    throw ProtocolError("run_sharded: merged report has " +
                        std::to_string(merged.records.size()) +
                        " records for " + std::to_string(cells.size()) +
                        " cells");
  }
  return merged;
}

void run_sharded_search(
    const ExperimentCell& base, int budget, const ShardOptions& options,
    const std::function<bool(int first)>& wanted,
    const std::function<void(int first, RangeResult&& result)>& on_range) {
  if (options.shards <= 0) {
    throw ProtocolError("run_sharded_search: need shards >= 1");
  }
  // Serialize up front: fail fast on a non-wire-serializable cell before
  // any process is forked.
  const CellSpec spec = CellSpec::from_cell(base);
  // About eight ranges per worker: few enough lines that the wire costs
  // little, enough that the pool still balances and an early stop skips
  // most of a long budget.
  const std::int64_t per_range =
      (static_cast<std::int64_t>(budget) + 8LL * options.shards - 1) /
      (8LL * options.shards);
  std::vector<Job> jobs;
  for (std::int64_t first = 0; first < budget; first += per_range) {
    const int count =
        static_cast<int>(std::min<std::int64_t>(per_range, budget - first));
    jobs.push_back(
        Job{static_cast<int>(first), count, count * spec.wall_limit_ms});
  }
  if (jobs.empty()) return;

  JobHooks hooks;
  hooks.label = "explore";
  hooks.unit = "schedules";
  hooks.line = [&](std::size_t j) {
    return range_line(static_cast<std::int64_t>(j), jobs[j].first,
                      jobs[j].count, spec);
  };
  hooks.accept = [&](std::size_t j, WireMessage& reply) {
    const Job& job = jobs[j];
    if (reply.type != WireMessage::Type::kRangeResult || !reply.range ||
        reply.range->steps.size() != static_cast<std::size_t>(job.count)) {
      return false;
    }
    for (const RunRecord& rec : reply.range->records) {
      if (rec.cell_index < job.first ||
          rec.cell_index >= job.first + job.count) {
        return false;
      }
    }
    on_range(job.first, std::move(*reply.range));
    return true;
  };
  hooks.run_local = [&](std::size_t j) {
    on_range(jobs[j].first,
             run_schedule_range(base, jobs[j].first, jobs[j].count));
  };
  hooks.wanted = [&](std::size_t j) { return wanted(jobs[j].first); };
  run_pool(jobs, options, hooks);
}

}  // namespace mpcn
