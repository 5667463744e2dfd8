// perfbench_layers: the traced half of the benchmark (run.py --trace 1).
//
// Runs one workload in-process through the library's public functions and
// attributes its wall time to the modules under src/. Every span that the
// ledger is computed from is opened HERE, around a call into a layer's
// public entry point (Experiment::cells, explore, run_batch, run_cell,
// replay_trace, compute_happens_before, find_races,
// ColorlessTask::validate, the wire encoders/decoders, run_worker_loop).
// Spans the library records itself (explore.schedule, explore.shrink,
// shard.cell) are read back from the same dump, never opened here.
//
// Usage:
//   perfbench_layers --trace-out T.json --report-out R.json
//       -- explore <scenario> <mpcn explore flags>
//   perfbench_layers --trace-out T.json --report-out R.json
//       -- run <scenario> <flags> --- run <scenario> <flags>
//
// The commands use the `mpcn` CLI's flag spelling, so run.py states each
// workload once and hands the same argv to the CLI (untraced, end to end)
// and to this program. Output: one JSON object on stdout with the per-layer
// metrics, the ledger and the facts run.py checks; the report documents
// go to --report-out and one Perfetto-loadable trace to --trace-out.
//
// Every pass runs the workload untraced, traced and untraced again, so
// trace.overhead_x compares like with like inside one process. Only the
// API surface that a thread-free lock-step executor keeps is used: no
// wait strategy, no process pool, no pool knob.
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/analysis/race_oracle.h"
#include "src/cli/args.h"
#include "src/common/errors.h"
#include "src/common/parse.h"
#include "src/dist/shard.h"
#include "src/dist/wire.h"
#include "src/experiment/batch_runner.h"
#include "src/experiment/experiment.h"
#include "src/explore/explorer.h"
#include "src/history/history.h"
#include "src/obs/metrics.h"
#include "src/obs/spans.h"

namespace mpcn {
namespace {

using Clock = std::chrono::steady_clock;

// Probe sample sizes: schedules re-run with a recorded history so the
// oracles can be timed apart from the run, cells pushed through the wire
// codec, grid cells run outside the pool, and worker spawns.
constexpr int kOracleSample = 64;
constexpr int kWireSample = 200;
constexpr int kEngineSample = 8;
constexpr int kSpawnSample = 3;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Run `fn` inside a benchmark span; returns the wall seconds it took.
template <typename Fn>
double timed(const char* name, const char* layer, std::int64_t cell_index,
             Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(name, layer, cell_index);
    fn();
  }
  return seconds_since(t0);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ------------------------------------------------------------- trace log

// Span rings are dumped and cleared at every phase boundary, so no phase
// overflows a ring and each phase's library spans can be summed on their
// own. The events accumulate into one document for --trace-out.
class TraceLog {
 public:
  using Durations = std::map<std::string, std::vector<double>>;  // us

  Durations cut() {
    Durations d;
    const Json doc = dump_trace_json();
    for (const Json& ev : doc.at("traceEvents").items()) {
      d[ev.at("name").as_string()].push_back(ev.at("dur").as_double());
      events_.push(ev);
    }
    if (const Json* dropped = doc.find("droppedEvents")) {
      dropped_ += dropped->as_int();
    }
    reset_trace();
    return d;
  }

  // Worker span rings harvested by a sharded phase; re-numbered so the
  // pools of different phases get their own process lanes.
  void add_workers(std::vector<ProcessTrace> workers, const char* phase) {
    for (ProcessTrace& w : workers) {
      w.pid = next_pid_++;
      w.name = std::string(phase) + " " + w.name;
      workers_.push_back(std::move(w));
    }
  }

  Json document() const {
    ProcessTrace self;
    self.pid = 1;
    self.name = "perfbench_layers";
    self.doc = Json::object();
    self.doc.set("traceEvents", events_).set("droppedEvents", dropped_);
    std::vector<ProcessTrace> procs{self};
    procs.insert(procs.end(), workers_.begin(), workers_.end());
    return merge_trace_docs(procs);
  }

 private:
  Json events_ = Json::array();
  std::int64_t dropped_ = 0;
  std::vector<ProcessTrace> workers_;
  int next_pid_ = 2;
};

double sum(const TraceLog::Durations& d, const std::string& name) {
  const auto it = d.find(name);
  if (it == d.end()) return 0.0;
  double s = 0.0;
  for (double x : it->second) s += x;
  return s;
}

std::size_t count(const TraceLog::Durations& d, const std::string& name) {
  const auto it = d.find(name);
  return it == d.end() ? 0 : it->second.size();
}

std::uint64_t counter(const MetricsSnapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

// --------------------------------------------------------- command line

const std::vector<std::string> kValueFlags = {
    "in", "source", "mode", "seeds", "seed", "mem", "steps", "crash-p",
    "policy", "budget", "max-violations", "bound", "crash-budget", "shards"};
const std::vector<std::string> kBoolFlags = {"check-races", "fork-workers"};

struct Command {
  bool explore = false;
  std::string scenario;
  std::vector<std::string> argv;  // flags after the scenario name
};

Args parse_args(const Command& c) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("perfbench_layers"));
  for (const std::string& a : c.argv) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  return Args(static_cast<int>(argv.size()), argv.data(), 1, kValueFlags,
              kBoolFlags);
}

// The same grid the CLI builds for these flags (src/cli/cli.cc).
Experiment build_experiment(const Command& c, const Args& a) {
  const ModelSpec target = parse_model_spec(a.require("in"));
  const ModelSpec source =
      a.has("source") ? parse_model_spec(a.require("source")) : target;
  Experiment e = Experiment::named(c.scenario, source);
  const std::string mode =
      a.value_or("mode", source == target ? "direct" : "simulated");
  if (mode == "direct") {
    e.direct();
  } else if (mode == "simulated") {
    e.in(target);
  } else if (mode == "chain") {
    e.through_chain_to(target);
  } else {
    throw ProtocolError("unsupported --mode '" + mode + "'");
  }
  if (c.explore) {
    e.seed(parse_u64(a.value_or("seed", "1")));
  } else {
    e.seed_list(parse_u64_axis(a.value_or("seeds", "1")));
  }
  e.mem(mem_kind_from_string(a.value_or("mem", "primitive")));
  if (a.has("steps")) e.step_limit(parse_u64(a.require("steps")));
  if (a.has("crash-p")) {
    const double p = parse_double(a.require("crash-p"));
    e.crashes([p](const ModelSpec& m, std::uint64_t seed) {
      return CrashPlan::hazard(p, m.t, seed);
    });
  }
  e.inputs_fn([](const ModelSpec& m) {
    std::vector<Value> in;
    for (int i = 0; i < m.n; ++i) in.push_back(Value(i));
    return in;
  });
  return e;
}

ExploreOptions explore_options(const Args& a) {
  ExploreOptions o;
  o.policy = explore_policy_from_string(a.value_or("policy", "pct"));
  o.seed = parse_u64(a.value_or("seed", "1"));
  o.budget = static_cast<int>(parse_u64(a.value_or("budget", "200")));
  o.max_violations =
      static_cast<int>(parse_u64(a.value_or("max-violations", "1")));
  o.dfs_preemption_bound =
      static_cast<int>(parse_u64(a.value_or("bound", "2")));
  o.crash_budget =
      static_cast<int>(parse_u64(a.value_or("crash-budget", "0")));
  o.check_races = a.has("check-races");
  o.shards = static_cast<int>(parse_u64(a.value_or("shards", "0")));
  return o;  // worker_argv empty: shards fork the current image
}

// --------------------------------------------------------------- output

struct Pass {
  std::map<std::string, double> metrics;
  std::map<std::string, double> ledger;  // layer -> seconds of traced core
  Json reports = Json::array();
  Json facts = Json::object();
  std::int64_t executions = 0;
  std::int64_t errors = 0;
};

// Fork one shard worker exactly as the sharded backend's fork mode does
// and time spawn -> hello; then shut it down and reap it.
double spawn_worker_once() {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  const Clock::time_point t0 = Clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(sv[0]);
    metrics_registry().reset();
    reset_trace();
    FdLineIO io(sv[1], sv[1]);
    run_worker_loop(io);
    ::_exit(0);
  }
  ::close(sv[1]);
  FdLineIO io(sv[0], sv[0]);
  std::string hello;
  const bool ok = io.read_line(hello) &&
                  parse_wire_line(hello).type == WireMessage::Type::kHello;
  const double s = seconds_since(t0);
  io.write_line(shutdown_line());
  ::close(sv[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!ok) throw std::runtime_error("forked worker sent no hello");
  return s;
}

// The per-execution runtime counters of one phase, normalized by its runs.
void runtime_metrics(Pass& p, const MetricsSnapshot& s, double runs,
                     double steps) {
  p.metrics["runtime.parks_per_step"] = ratio(counter(s, "wait.parks"), steps);
  p.metrics["runtime.spins_per_step"] = ratio(counter(s, "wait.spins"), steps);
  p.metrics["runtime.wakes_per_step"] = ratio(counter(s, "wait.wakes"), steps);
  p.metrics["runtime.pool_epochs_per_run"] =
      ratio(counter(s, "pool.epochs"), runs);
  p.metrics["substrate.steps_per_schedule"] = ratio(steps, runs);
  p.metrics["arena.bytes_per_schedule"] =
      ratio(counter(s, "arena.bytes"), runs);
  const double hits = counter(s, "value.hash_memo_hits");
  p.metrics["value.hash_memo_hit_frac"] =
      ratio(hits, hits + counter(s, "value.hash_memo_misses"));
}

// ------------------------------------------------------------ explore

// A search schedule of the workload, rebuilt the way the explorer builds
// schedule `index` of a random/PCT search.
ExperimentCell schedule_cell(const ExperimentCell& base,
                             const ExploreOptions& o, std::uint64_t horizon,
                             int index) {
  ExperimentCell c = base;
  c.cell_index = index;
  c.schedule.kind = o.policy == ExplorePolicy::kSeededRandom
                        ? SchedulePolicyKind::kSeededRandom
                        : SchedulePolicyKind::kPct;
  c.schedule.seed = o.seed + static_cast<std::uint64_t>(index);
  c.schedule.pct_depth = o.pct_depth;
  c.schedule.pct_horizon = horizon;
  c.record_schedule = true;
  c.check_races = o.check_races;
  return c;
}

Pass explore_pass(const Command& cmd, TraceLog& log) {
  const Args a = parse_args(cmd);
  const Experiment e = build_experiment(cmd, a);
  const ExploreOptions opts = explore_options(a);
  const bool pct = opts.policy == ExplorePolicy::kPct;
  const bool dfs = opts.policy == ExplorePolicy::kBoundedDfs;
  Pass p;

  // Untraced reference: exactly what `mpcn explore` does. It brackets the
  // traced core (before and after) so warm-up favours neither side.
  auto untraced_once = [&] {
    set_tracing_enabled(false);
    const Clock::time_point t = Clock::now();
    const std::string doc = explore(e.cells().front(), opts).to_json().dump();
    (void)doc;
    set_tracing_enabled(true);
    return seconds_since(t);
  };
  double untraced = untraced_once();

  // Traced core: the same three calls, each in a benchmark span.
  log.cut();
  metrics_registry().reset();
  ExploreOptions run_opts = opts;
  std::vector<ProcessTrace> run_workers;
  if (opts.shards > 0) run_opts.worker_traces = &run_workers;
  std::vector<ExperimentCell> cells;
  ExploreResult result;
  std::string report;
  const Clock::time_point t0 = Clock::now();
  const double cells_s = timed("experiment.cells_build", "experiment", -1,
                               [&] { cells = e.cells(); });
  const ExperimentCell cell = cells.front();
  const double run_s = timed("explore.run", "explore", -1,
                             [&] { result = explore(cell, run_opts); });
  const double json_s = timed("experiment.report_json", "experiment", -1,
                              [&] { report = result.to_json().dump(); });
  const double core = seconds_since(t0);
  const TraceLog::Durations run_spans = log.cut();
  untraced = (untraced + untraced_once()) / 2.0;
  log.add_workers(std::move(run_workers), "run");
  p.reports.push(Json::parse(report));
  p.executions = result.schedules;
  for (const ExploreViolation& v : result.violations) {
    if (!v.record.error.empty()) ++p.errors;
  }

  // Search alone (shrinking off): the explorer's hot loop.
  ExploreOptions search_opts = opts;
  search_opts.shrink_violations = false;
  std::vector<ProcessTrace> search_workers;
  if (opts.shards > 0) search_opts.worker_traces = &search_workers;
  metrics_registry().reset();
  ExploreResult searched;
  const double search_s = timed("explore.search", "explore", -1, [&] {
    searched = explore(cell, search_opts);
  });
  TraceLog::Durations search_spans = log.cut();
  MetricsSnapshot runtime_counters = metrics_registry().snapshot();
  log.add_workers(std::move(search_workers), "search");
  double runtime_runs = static_cast<double>(count(search_spans,
                                                  "explore.schedule"));
  double runtime_steps = static_cast<double>(searched.total_steps);
  double runtime_span_us = sum(search_spans, "explore.schedule");

  // The race oracle's price is its analysis plus the history recording it
  // switches on; the same search without it isolates the recording.
  double plain_us_per_run = 0.0;
  if (opts.check_races) {
    ExploreOptions plain = search_opts;
    plain.check_races = false;
    plain.shards = 0;
    plain.worker_traces = nullptr;
    timed("explore.search_no_races", "explore", -1,
          [&] { (void)explore(cell, plain); });
    const TraceLog::Durations plain_spans = log.cut();
    plain_us_per_run = ratio(sum(plain_spans, "explore.schedule"),
                             count(plain_spans, "explore.schedule"));
  }

  ExperimentCell base = cell;
  base.check_races = opts.check_races;
  if (opts.crash_budget > 0) {
    base.options.crashes = CrashPlan::explored(opts.crash_budget,
                                               opts.crash_rate);
  }

  if (opts.shards > 0) {
    // The same search in-process: the wire's price, and the runtime
    // numbers the forked workers cannot report from their own process.
    ExploreOptions inproc = search_opts;
    inproc.shards = 0;
    inproc.worker_traces = nullptr;
    metrics_registry().reset();
    ExploreResult local;
    const double inproc_s = timed("dist.inproc_search", "dist", -1, [&] {
      local = explore(cell, inproc);
    });
    const TraceLog::Durations inproc_spans = log.cut();
    runtime_counters = metrics_registry().snapshot();
    runtime_runs = static_cast<double>(count(inproc_spans,
                                             "explore.schedule"));
    runtime_steps = static_cast<double>(local.total_steps);
    runtime_span_us = sum(inproc_spans, "explore.schedule");
    p.facts.set("sharded_matches_inproc",
                local.to_json().dump() == searched.to_json().dump());
    p.metrics["dist.shard_overhead_x"] = ratio(search_s, inproc_s);
    const auto lat = search_spans.find("shard.cell");
    p.metrics["dist.cell_latency_p50_us"] =
        lat == search_spans.end() ? 0.0 : median(lat->second);

    std::vector<double> enc, dec, renc, rdec, bytes;
    for (int i = 0; i < std::min(kWireSample, opts.budget); ++i) {
      const ExperimentCell c = schedule_cell(base, opts, result.pct_horizon, i);
      std::string line;
      enc.push_back(timed("dist.cell_encode", "dist", i, [&] {
        line = cell_line(i, CellSpec::from_cell(c));
      }));
      ExperimentCell rebuilt;
      dec.push_back(timed("dist.cell_decode", "dist", i, [&] {
        rebuilt = parse_wire_line(line).spec->to_cell();
      }));
      const RunRecord rec = run_cell(rebuilt);
      std::string reply;
      renc.push_back(timed("dist.result_encode", "dist", i,
                           [&] { reply = result_line(i, rec); }));
      rdec.push_back(timed("dist.result_decode", "dist", i,
                           [&] { (void)parse_wire_line(reply); }));
      bytes.push_back(static_cast<double>(line.size() + reply.size() + 2));
    }
    p.metrics["dist.cell_encode_us"] = mean(enc) * 1e6;
    p.metrics["dist.cell_decode_us"] = mean(dec) * 1e6;
    p.metrics["dist.result_encode_us"] = mean(renc) * 1e6;
    p.metrics["dist.result_decode_us"] = mean(rdec) * 1e6;
    p.metrics["dist.bytes_per_cell"] = mean(bytes);
    std::vector<double> spawn;
    for (int i = 0; i < kSpawnSample; ++i) {
      spawn.push_back(timed("dist.worker_spawn", "dist", i,
                            [&] { spawn_worker_once(); }));
    }
    p.metrics["dist.worker_spawn_s"] = median(spawn);
    log.cut();
    // Coordinator-side wire work per schedule: one cell out, one result in.
    p.ledger["dist"] = result.schedules *
                       (p.metrics["dist.cell_encode_us"] +
                        p.metrics["dist.result_decode_us"]) * 1e-6;
  }

  if (pct) {
    ScheduleSpec probe;
    probe.kind = SchedulePolicyKind::kSeededRandom;
    probe.seed = opts.seed;
    ExperimentCell c = base;
    c.schedule = probe;
    c.record_schedule = true;
    p.metrics["explore.pct_probe_s"] = timed(
        "explore.pct_probe", "explore", -1, [&] { (void)run_cell(c); });
  }

  // Oracles timed apart from the runs that feed them, on recorded
  // histories of the workload's own schedules.
  std::vector<RunRecord> judged;
  std::vector<double> hb_us, races_us, events;
  if (pct && (opts.check_races || cell.task)) {
    for (int i = 0; i < std::min(kOracleSample, opts.budget); ++i) {
      ExperimentCell c = schedule_cell(base, opts, result.pct_horizon, i);
      auto history = std::make_shared<HistoryRecorder>();
      c.history = history;
      c.check_races = false;
      c.task = nullptr;
      RunRecord rec;
      timed("runtime.run_cell", "runtime", i, [&] { rec = run_cell(c); });
      if (opts.check_races && rec.schedule_trace) {
        const std::vector<Event> ev = history->events();
        events.push_back(static_cast<double>(ev.size()));
        hb_us.push_back(1e6 * timed("analysis.hb", "analysis", i, [&] {
          (void)compute_happens_before(ev);
        }));
        races_us.push_back(1e6 * timed("analysis.find_races", "analysis", i,
                                       [&] {
          (void)find_races(ev, *rec.schedule_trace);
        }));
      }
      judged.push_back(std::move(rec));
    }
  }
  for (const ExploreViolation& v : result.violations) {
    judged.push_back(v.record);
  }
  std::vector<double> validate_us;
  if (cell.task) {
    for (std::size_t i = 0; i < judged.size(); ++i) {
      std::string why;
      validate_us.push_back(
          1e6 * timed("tasks.validate", "tasks",
                      judged[i].cell_index, [&] {
            (void)cell.task->validate(judged[i].inputs, judged[i].decisions,
                                      &why);
          }));
    }
  }

  // Replays: each distinct counterexample must fail again; a clean search
  // replays its first schedule instead, which must stay clean.
  std::vector<double> replay_us;
  std::set<std::string> seen;
  int failed_again = 0;
  ExperimentCell replay_base = cell;
  replay_base.check_races = opts.check_races;
  for (const ExploreViolation& v : result.violations) {
    if (!seen.insert(v.shrunk.digest()).second) continue;
    RunRecord rec;
    replay_us.push_back(1e6 * timed("explore.replay", "explore",
                                    v.schedule_index, [&] {
      rec = replay_trace(replay_base, v.shrunk);
    }));
    if (!rec.ok() || rec.raced()) ++failed_again;
  }
  if (result.violations.empty() && !result.first_trace.empty()) {
    RunRecord rec;
    replay_us.push_back(1e6 * timed("explore.replay", "explore", 0, [&] {
      rec = replay_trace(replay_base, result.first_trace);
    }));
    p.facts.set("first_replay_clean", rec.ok() && !rec.raced());
  }
  log.cut();
  p.facts.set("distinct_cex", static_cast<std::int64_t>(seen.size()))
      .set("replays_failed_again", failed_again);

  const double shrink_s = sum(run_spans, "explore.shrink") * 1e-6;
  double replays = 0.0, shrunk = 0.0;
  for (const ExploreViolation& v : result.violations) {
    replays += v.shrink_replays;
    shrunk += static_cast<double>(v.shrunk.size());
  }
  const double cex = static_cast<double>(result.violations.size());
  const double find_races_us = mean(races_us);
  const double validate = mean(validate_us);
  const double oracle_us =
      (opts.check_races ? find_races_us : 0.0) + (cell.task ? validate : 0.0);
  const double exec_s =
      runtime_span_us * 1e-6 - runtime_runs * oracle_us * 1e-6;

  p.metrics["runtime.exec_us_per_step"] = ratio(exec_s * 1e6, runtime_steps);
  runtime_metrics(p, runtime_counters, runtime_runs, runtime_steps);
  p.metrics["experiment.cells_build_s"] = cells_s;
  p.metrics["experiment.report_json_s"] = json_s;
  p.metrics["analysis.find_races_us"] = find_races_us;
  p.metrics["analysis.hb_us"] = mean(hb_us);
  p.metrics["analysis.events_per_history"] = mean(events);
  p.metrics["tasks.validate_us"] = validate;
  p.metrics["explore.search_s"] = search_s;
  p.metrics["explore.shrink_s"] = shrink_s;
  p.metrics["explore.shrink_replays_per_cex"] = ratio(replays, cex);
  p.metrics["explore.replay_us"] = mean(replay_us);
  p.metrics["explore.distinct_cex"] = static_cast<double>(seen.size());
  p.metrics["explore.shrunk_grants_mean"] = ratio(shrunk, cex);
  if (dfs) {
    p.metrics["explore.dfs_schedules"] = result.schedules;
    p.metrics["explore.dfs_pruned"] =
        static_cast<double>(result.pruned_prefixes);
  }

  // Ledger of the traced core. Inside explore.run the in-process runs are
  // split into runtime and the oracles by their measured per-run cost;
  // what the run spans leave of the search is the explorer's own loop.
  const double runs_in_run = static_cast<double>(count(run_spans,
                                                       "explore.schedule"));
  const double run_exec_s = sum(run_spans, "explore.schedule") * 1e-6;
  const double analysis_s =
      opts.check_races ? runs_in_run * find_races_us * 1e-6 : 0.0;
  const double tasks_s = cell.task ? runs_in_run * validate * 1e-6 : 0.0;
  p.ledger["experiment"] = cells_s + json_s;
  p.ledger["analysis"] = analysis_s;
  p.ledger["tasks"] = tasks_s;
  p.ledger["runtime"] = run_exec_s - analysis_s - tasks_s;
  if (opts.check_races) {
    p.ledger["history"] = std::max(
        0.0, p.ledger["runtime"] - runs_in_run * plain_us_per_run * 1e-6);
    p.ledger["runtime"] -= p.ledger["history"];
  }
  p.ledger["shrink"] = shrink_s;
  // Sharded, the search's remainder is the coordinator waiting on its
  // workers; in-process, it is the explorer's own loop.
  p.ledger[opts.shards > 0 ? "dist.worker_wait" : "explore"] =
      run_s - run_exec_s - shrink_s - p.ledger["dist"];
  p.metrics["trace.overhead_x"] = ratio(core, untraced);
  p.metrics["trace.unattributed_frac"] =
      ratio(core - (cells_s + run_s + json_s), core);
  p.ledger["unattributed"] = core - (cells_s + run_s + json_s);
  p.ledger["core"] = core;
  return p;
}

// ---------------------------------------------------------------- grid

Pass grid_pass(const std::vector<Command>& cmds, TraceLog& log) {
  struct Built {
    Experiment e;
    bool chain;
    std::string title;
  };
  std::vector<Built> built;
  for (const Command& c : cmds) {
    const Args a = parse_args(c);
    built.push_back(Built{build_experiment(c, a),
                          a.value_or("mode", "") == "chain", c.scenario});
  }
  Pass p;

  // Untraced reference, bracketing the traced core as in explore_pass.
  auto untraced_once = [&] {
    set_tracing_enabled(false);
    const Clock::time_point t = Clock::now();
    for (const Built& b : built) {
      BatchOptions batch;
      batch.title = b.title;
      const std::string doc = run_batch(b.e.cells(), batch).to_json().dump();
      (void)doc;
    }
    set_tracing_enabled(true);
    return seconds_since(t);
  };
  double untraced = untraced_once();

  log.cut();
  metrics_registry().reset();
  double cells_s = 0.0, batch_s = 0.0, json_s = 0.0, grid_batch_s = 0.0;
  std::vector<Report> reports;
  std::vector<std::vector<ExperimentCell>> grids;
  const Clock::time_point t0 = Clock::now();
  for (const Built& b : built) {
    std::vector<ExperimentCell> cells;
    cells_s += timed("experiment.cells_build", "experiment", -1,
                     [&] { cells = b.e.cells(); });
    Report r;
    BatchOptions batch;
    batch.title = b.title;
    const double s = timed("experiment.run_batch", "experiment", -1,
                           [&] { r = run_batch(cells, batch); });
    batch_s += s;
    if (!b.chain) grid_batch_s += s;
    std::string doc;
    json_s += timed("experiment.report_json", "experiment", -1,
                    [&] { doc = r.to_json().dump(); });
    p.reports.push(Json::parse(doc));
    reports.push_back(std::move(r));
    grids.push_back(std::move(cells));
  }
  const double core = seconds_since(t0);
  log.cut();
  const MetricsSnapshot counters = metrics_registry().snapshot();
  untraced = (untraced + untraced_once()) / 2.0;

  double runs = 0.0, steps = 0.0, exec_ms = 0.0, grid_exec_ms = 0.0,
         grid_steps = 0.0, grid_cells = 0.0;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    for (const RunRecord& r : reports[i].records) {
      runs += 1.0;
      steps += static_cast<double>(r.steps);
      exec_ms += r.wall_ms;
      if (!built[i].chain) {
        grid_exec_ms += r.wall_ms;
        grid_steps += static_cast<double>(r.steps);
        grid_cells += 1.0;
      }
      if (!r.error.empty()) ++p.errors;
    }
  }
  p.executions = static_cast<std::int64_t>(runs);

  // Engine probes: cells run one at a time, outside any pool.
  std::vector<double> sim_us, hop_us, validate_us;
  for (std::size_t i = 0; i < grids.size(); ++i) {
    const bool chain = built[i].chain;
    const std::size_t n =
        chain ? grids[i].size()
              : std::min<std::size_t>(kEngineSample, grids[i].size());
    for (std::size_t k = 0; k < n; ++k) {
      const ExperimentCell& c = grids[i][k];
      const double s = timed(chain ? "engine.chain_hop" : "engine.sim_cell",
                             "core", c.cell_index, [&] { (void)run_cell(c); });
      (chain ? hop_us : sim_us).push_back(s * 1e6);
    }
    for (const RunRecord& r : reports[i].records) {
      const ExperimentCell& c = grids[i][static_cast<std::size_t>(
          std::max(0, r.cell_index))];
      if (!c.task) continue;
      std::string why;
      validate_us.push_back(1e6 * timed("tasks.validate", "tasks",
                                        r.cell_index, [&] {
        (void)c.task->validate(r.inputs, r.decisions, &why);
      }));
    }
  }
  log.cut();

  const int pool = std::max(1, static_cast<int>(
                                   std::thread::hardware_concurrency()));
  const double pool_threads = std::min<double>(pool, grid_cells);
  p.metrics["runtime.exec_us_per_step"] = ratio(exec_ms * 1e3, steps);
  runtime_metrics(p, counters, runs, steps);
  p.metrics["engine.us_per_sim_cell"] = mean(sim_us);
  p.metrics["engine.us_per_chain_hop"] = mean(hop_us);
  p.metrics["engine.steps_per_cell"] = ratio(grid_steps, grid_cells);
  p.metrics["experiment.cells_build_s"] = cells_s;
  p.metrics["experiment.report_json_s"] = json_s;
  p.metrics["experiment.pool_idle_frac"] =
      std::max(0.0, 1.0 - ratio(grid_exec_ms * 1e-3,
                                pool_threads * grid_batch_s));
  p.metrics["tasks.validate_us"] = mean(validate_us);

  const double tasks_s = runs * mean(validate_us) * 1e-6;
  p.ledger["experiment"] = cells_s + json_s;
  p.ledger["tasks"] = tasks_s;
  // Pool threads run cells concurrently, so the runtime's share of the
  // batch wall is its busy time spread over the threads that ran it.
  p.ledger["runtime"] = ratio(exec_ms * 1e-3, pool_threads);
  p.ledger["experiment.pool"] = batch_s - p.ledger["runtime"] - tasks_s;
  p.metrics["trace.overhead_x"] = ratio(core, untraced);
  p.metrics["trace.unattributed_frac"] =
      ratio(core - (cells_s + batch_s + json_s), core);
  p.ledger["unattributed"] = core - (cells_s + batch_s + json_s);
  p.ledger["core"] = core;
  return p;
}

// ---------------------------------------------------------------- main

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << "\n";
  out.flush();
  if (!out.good()) throw ProtocolError("cannot write '" + path + "'");
}

int layers_main(int argc, char** argv) {
  std::string trace_out, report_out;
  int i = 1;
  for (; i < argc && std::string(argv[i]) != "--"; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw ProtocolError(flag + " needs a value");
    if (flag == "--trace-out") {
      trace_out = argv[++i];
    } else if (flag == "--report-out") {
      report_out = argv[++i];
    } else {
      throw ProtocolError("unknown flag '" + flag + "'");
    }
  }
  std::vector<Command> cmds;
  for (++i; i < argc; ++i) {
    const std::string tok = argv[i];
    if (tok == "---") continue;
    if (cmds.empty() || std::string(argv[i - 1]) == "---") {
      if (tok != "explore" && tok != "run") {
        throw ProtocolError("command must start with explore|run, got '" +
                            tok + "'");
      }
      if (i + 1 >= argc) throw ProtocolError(tok + " needs a scenario");
      cmds.push_back(Command{tok == "explore", argv[++i], {}});
      continue;
    }
    cmds.back().argv.push_back(tok);
  }
  if (cmds.empty() || trace_out.empty() || report_out.empty()) {
    throw ProtocolError(
        "usage: perfbench_layers --trace-out T --report-out R -- "
        "explore|run <scenario> <flags> [--- run ...]");
  }
  if (cmds.front().explore && cmds.size() != 1) {
    throw ProtocolError("an explore workload is exactly one command");
  }

  TraceLog log;
  Pass p = cmds.front().explore ? explore_pass(cmds.front(), log)
                                : grid_pass(cmds, log);
  set_tracing_enabled(false);
  write_file(trace_out, log.document().dump());
  write_file(report_out, p.reports.dump());

  Json metrics = Json::object();
  for (const auto& [name, value] : p.metrics) metrics.set(name, value);
  Json ledger = Json::object();
  for (const auto& [layer, s] : p.ledger) ledger.set(layer, s);
  Json out = Json::object();
  out.set("metrics", std::move(metrics))
      .set("ledger", std::move(ledger))
      .set("facts", std::move(p.facts))
      .set("executions", p.executions)
      .set("errors", p.errors);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace
}  // namespace mpcn

int main(int argc, char** argv) {
  try {
    return mpcn::layers_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_layers: %s\n", e.what());
    return 2;
  }
}
