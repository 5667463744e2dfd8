#include "src/cli/cli.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/cli/args.h"
#include "src/common/errors.h"
#include "src/common/parse.h"
#include "src/dist/shard.h"
#include "src/experiment/batch_runner.h"
#include "src/experiment/diff.h"
#include "src/experiment/experiment.h"
#include "src/experiment/record.h"
#include "src/experiment/registry.h"
#include "src/explore/explorer.h"
#include "src/history/history.h"
#include "src/obs/events.h"
#include "src/obs/metrics.h"
#include "src/obs/spans.h"

namespace mpcn {

namespace {

const char kUsage[] =
    "usage: mpcn <command> [args]\n"
    "\n"
    "commands:\n"
    "  list [--json]                enumerate registered scenarios (name,\n"
    "                               axis constraints, description)\n"
    "  run <scenario> --in n,t,x    expand and run an experiment grid\n"
    "                               (exit 1 when a cell is not ok)\n"
    "  explore <scenario> --in ...  adversarial schedule search on one\n"
    "                               cell (exit 0 clean, 1 on a verdict\n"
    "                               violation, 3 when the race oracle\n"
    "                               fires, 4 when every violation needed\n"
    "                               an injected crash)\n"
    "  events <log.jsonl> [--json]  summarize an --events flight-recorder\n"
    "                               log: per-worker lifelines, requeue\n"
    "                               chains, violation timeline\n"
    "  diff <a.json> <b.json>       compare two reports (exit 1 on\n"
    "                               regressions: steps, verdicts, races,\n"
    "                               crash violations)\n"
    "\n"
    "run flags:\n"
    "  --in n,t,x        target model (required)\n"
    "  --source n,t,x    source model the algorithm is built for\n"
    "                    (default: --in)\n"
    "  --mode M          direct|simulated|chain|colored (default: direct\n"
    "                    when source == target, else simulated)\n"
    "  --seeds SPEC      \"5\", \"1..8\" or \"1,3,9\" (default: 1)\n"
    "  --mem LIST        primitive,afek (default: primitive)\n"
    "  --steps N         per-cell step limit (scheduled steps; a\n"
    "                    simulator's local waits take none)\n"
    "  --wall MS         per-cell wall-clock limit in ms\n"
    "  --crash-p P       per-step hazard crash probability (seeded per\n"
    "                    cell; budget = --crash-max or the model's t)\n"
    "  --crash-max M     hazard crash budget, at most each cell's t\n"
    "  --inputs LIST     integer input pool, e.g. \"0,1,2\" (default:\n"
    "                    process index)\n"
    "  --shards K        distribute over K forked workers, the one way\n"
    "                    to use more cores (default: 0 = in-process,\n"
    "                    one cell after another on one thread)\n"
    "  --json PATH       write the report JSON (\"-\" = stdout)\n"
    "  --no-timing       exclude wall-clock fields from the JSON so\n"
    "                    reports compare byte-identical\n"
    "  --fork-workers    accepted and ignored: shard workers are always\n"
    "                    forked\n"
    "  --title S         report title (default: scenario name)\n"
    "  --metrics PATH    write a telemetry snapshot JSON (process +\n"
    "                    per-worker + merged counters; sidecar-only,\n"
    "                    report bytes unchanged)\n"
    "  --trace PATH      record scoped spans and write Chrome\n"
    "                    trace-event JSON (loads in Perfetto); sharded\n"
    "                    runs harvest worker span rings at shutdown and\n"
    "                    write one merged multi-process document\n"
    "  --events PATH     append-only JSONL flight recorder: worker\n"
    "                    spawn/death/respawn/backoff, cell dispatch/\n"
    "                    requeue, heartbeat gaps, violations, shrinks\n"
    "                    (summarize with `mpcn events PATH`)\n"
    "  --telemetry-ms N  sharded: stream worker telemetry (metrics delta\n"
    "                    + heartbeat seq) every N ms and after each cell\n"
    "  --stale-ms MS     sharded: write off and respawn a worker not\n"
    "                    heard from for MS ms, busy OR idle (catches\n"
    "                    between-cells freezes the per-cell watchdog\n"
    "                    cannot see); needs --telemetry-ms\n"
    "  --health PATH     sharded: write the per-slot worker health table\n"
    "                    JSON (heartbeats, cells served, write-offs,\n"
    "                    folded telemetry)\n"
    "  --progress        stderr heartbeat: cells done, rate, ETA\n"
    "                    (suppressed when stderr is not a TTY unless\n"
    "                    MPCN_PROGRESS=1; interval via MPCN_PROGRESS_MS)\n"
    "\n"
    "explore flags (plus --in/--source/--mode/--mem/--steps/--wall/\n"
    "--inputs, --shards/--fork-workers and the sidecars --metrics/--trace/\n"
    "--events/--telemetry-ms/--stale-ms/--health/--progress as for run;\n"
    "a search counts schedules where a grid counts cells, and --shards\n"
    "ships them in ranges, random|pct only and without --check-lin):\n"
    "  --policy P        random|pct|dfs (default: pct)\n"
    "  --budget N        max schedules to try (default: 200)\n"
    "  --seed S          base seed; schedule i uses S+i (default: 1)\n"
    "  --max-violations M  stop after M violations (default 1; 0 = all)\n"
    "  --pct-depth D     PCT priority-change depth (default: 3)\n"
    "  --horizon K       PCT step horizon (default: probe the cell)\n"
    "  --bound B         DFS preemption bound (default: 2)\n"
    "  --crash-budget T  search the (schedule x crash) product: the\n"
    "                    policy may crash up to T <= t processes at\n"
    "                    grant points (dfs enumerates placements;\n"
    "                    random/pct sample them; default: 0 =\n"
    "                    schedule-only)\n"
    "  --crash-rate P    per-grant crash probability for random/pct\n"
    "                    product sampling (default: 0.1)\n"
    "  --check-lin       also check direct-run histories against the\n"
    "                    snapshot sequential spec (in-process only)\n"
    "  --check-races     run the happens-before race oracle over every\n"
    "                    schedule (direct mode; shards fine; exit 3 when\n"
    "                    a race is found)\n"
    "  --no-shrink       keep violating traces unshrunk\n"
    "  --shrink-budget R max candidates judged per shrink, including\n"
    "                    duplicates judged without a replay (default:\n"
    "                    400)\n"
    "  --record PATH     write the first schedule's observed trace JSON\n"
    "  --replay PATH     run exactly one scripted schedule from PATH\n"
    "                    (combines with --record to re-emit the observed\n"
    "                    trace for byte-identity checks)\n"
    "  --json PATH       write the explore report JSON (\"-\" = stdout)\n";

Report load_report(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ProtocolError("cannot open report file '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return Report::from_json(Json::parse(text.str()));
}

int cmd_list(int argc, char** argv) {
  Args args(argc, argv, 2, {}, {"json"});
  if (args.has("json")) {
    // Machine-readable registry: what explore tooling enumerates to pick
    // targets (name + axis constraints + whether a task oracle exists).
    Json arr = Json::array();
    for (const Scenario& s : scenario_registry()) {
      Json j = Json::object();
      j.set("name", s.name)
          .set("axis", s.axis)
          .set("colored", s.colored)
          .set("has_task", s.make_task != nullptr)
          .set("description", s.description);
      arr.push(std::move(j));
    }
    std::printf("%s\n", arr.dump(2).c_str());
    return 0;
  }
  std::printf("%-24s %-12s %-8s %s\n", "name", "axis", "kind",
              "description");
  for (const Scenario& s : scenario_registry()) {
    const char* kind =
        s.colored ? "colored" : (s.make_task ? "task" : "workload");
    std::printf("%-24s %-12s %-8s %s\n", s.name.c_str(), s.axis.c_str(),
                kind, s.description.c_str());
  }
  return 0;
}

void write_json_file(const std::string& path, const Json& j) {
  std::ofstream out(path);
  if (!out) throw ProtocolError("cannot open '" + path + "'");
  out << j.dump(2) << "\n";
  out.flush();
  if (!out.good()) throw ProtocolError("write to '" + path + "' failed");
}

// --json PATH for run, explore and diff: "-" prints the document to
// stdout and moves the summary line to stderr, keeping stdout
// machine-readable. Returns where the summary goes.
FILE* write_json_output(const std::string& path, const Json& doc) {
  if (path == "-") {
    std::printf("%s\n", doc.dump(2).c_str());
    return stderr;
  }
  write_json_file(path, doc);
  return stdout;
}

// The --metrics document, shared by run and explore:
//   {"process": <coordinator snapshot>,
//    "workers": [<one snapshot per surviving shard worker>, ...],
//    "merged":  <process + sum of workers>}
// merged is recomputed here by MetricsSnapshot::merge, so pool-wide
// counters always equal the sum of their parts — the property the
// telemetry tests pin.
void write_metrics_file(const std::string& path,
                        const std::vector<MetricsSnapshot>& workers) {
  const MetricsSnapshot process = metrics_registry().snapshot();
  Json doc = Json::object();
  doc.set("process", process.to_json());
  Json warr = Json::array();
  MetricsSnapshot merged = process;
  for (const MetricsSnapshot& w : workers) {
    warr.push(w.to_json());
    merged.merge(w);
  }
  doc.set("workers", std::move(warr));
  doc.set("merged", merged.to_json());
  write_json_file(path, doc);
}

// The --health document: one entry per worker slot, straight off the
// coordinator's WorkerHealth table. Sharded runs only (in-process runs
// write an empty array — there are no worker slots to report on).
void write_health_file(const std::string& path,
                       const std::vector<WorkerHealth>& health) {
  Json arr = Json::array();
  for (const WorkerHealth& h : health) {
    Json j = Json::object();
    j.set("slot", h.slot)
        .set("heartbeats", h.heartbeats)
        .set("last_seq", h.last_seq)
        .set("cells_served", h.cells_served)
        .set("last_heard_age_ms", h.last_heard_age_ms)
        .set("respawns", h.respawns)
        .set("written_off", h.written_off)
        .set("write_off_reason", h.write_off_reason)
        .set("telemetry", h.telemetry.to_json());
    arr.push(std::move(j));
  }
  write_json_file(path, arr);
}

// --trace: single-process runs dump the local span ring as before;
// sharded runs merge the coordinator's ring (pid 1) with every harvested
// worker ring (pid = slot + 2) into one Perfetto-loadable document.
void write_trace_file(const std::string& path,
                      const std::vector<ProcessTrace>& workers,
                      bool sharded) {
  if (!sharded) {
    write_json_file(path, dump_trace_json());
    return;
  }
  std::vector<ProcessTrace> procs;
  procs.reserve(workers.size() + 1);
  ProcessTrace coord;
  coord.pid = 1;
  coord.name = "coordinator";
  coord.doc = dump_trace_json();
  procs.push_back(std::move(coord));
  for (const ProcessTrace& w : workers) procs.push_back(w);
  write_json_file(path, merge_trace_docs(procs));
}

// Args for run and explore: the command's own flags plus the cell and
// backend flags the two share.
Args cell_command_args(int argc, char** argv,
                       std::vector<std::string> value_flags,
                       std::vector<std::string> bool_flags) {
  for (const char* f : {"in", "source", "mode", "steps", "wall", "inputs",
                        "json", "shards", "metrics", "trace",
                        "events", "telemetry-ms", "stale-ms", "health"}) {
    value_flags.push_back(f);
  }
  for (const char* f : {"fork-workers", "progress"}) bool_flags.push_back(f);
  return Args(argc, argv, 2, std::move(value_flags), std::move(bool_flags));
}

// The cell flags run and explore share: the scenario, --in / --source /
// --mode, --steps / --wall and --inputs. Only run walks a chain, which
// expands to one cell per hop.
Experiment parse_cell_flags(const Args& args, const std::string& command) {
  if (args.positional().size() != 1) {
    throw ProtocolError(command +
                        " needs exactly one scenario name (see `mpcn list`)");
  }
  const ModelSpec target = parse_model_spec(args.require("in"));
  const ModelSpec source = args.has("source")
                               ? parse_model_spec(args.require("source"))
                               : target;
  Experiment e = Experiment::named(args.positional()[0], source);

  const bool run = command == "run";
  const std::string mode =
      args.value_or("mode", source == target ? "direct" : "simulated");
  if (mode == "direct") {
    if (!(source == target)) {
      throw ProtocolError(
          "--mode direct runs in the source model; --in and --source "
          "must match (or drop --source)");
    }
    e.direct();
  } else if (mode == "simulated") {
    e.in(target);
  } else if (mode == "colored") {
    e.colored_in(target);
  } else if (run && mode == "chain") {
    e.through_chain_to(target);
  } else if (run) {
    throw ProtocolError("unknown --mode '" + mode +
                        "' (want direct|simulated|chain|colored)");
  } else {
    throw ProtocolError("explore --mode must be direct|simulated|colored "
                        "(chains expand to many cells; explore drives one)");
  }

  // A limit of 0 stops every run before its first step: each cell would
  // time out, a verdict on the flag rather than on the scenario.
  const auto limit = [](const char* flag, const std::string& text) {
    const std::uint64_t v = parse_u64(text);
    if (v < 1) {
      throw ProtocolError(std::string("--") + flag + " needs a value >= 1");
    }
    return v;
  };
  if (const auto v = args.value("steps")) e.step_limit(limit("steps", *v));
  if (const auto v = args.value("wall")) {
    e.wall_limit(std::chrono::milliseconds(limit("wall", *v)));
  }
  if (const auto v = args.value("inputs")) {
    // A plain comma split, not parse_name_axis: input pools legitimately
    // repeat values (all processes proposing 7 is the classic agreement
    // case).
    std::vector<Value> pool;
    for (const std::string& tok : split(*v, ',')) {
      pool.push_back(Value(parse_i64(tok)));
    }
    e.input_pool(std::move(pool));
  } else {
    // Process index as input: well-defined for every hop width of a
    // chain, and a valid proposal for every registered task.
    e.inputs_fn([](const ModelSpec& m) {
      std::vector<Value> in;
      in.reserve(static_cast<std::size_t>(m.n));
      for (int i = 0; i < m.n; ++i) in.push_back(Value(i));
      return in;
    });
  }
  return e;
}

// The backend and sidecar flags run and explore share. The constructor
// reads --shards, --progress, --telemetry-ms, --stale-ms and
// MPCN_WORKER_STOP_AFTER into the caller's settings (--fork-workers is
// accepted and selects nothing: workers are always forked, and existing
// command lines, perfbench's among them, still pass it), and
// opens the --events log before the run so spawn events land; finish()
// writes --metrics, --trace and --health after the run, then closes the
// log. A sharded run's settings point into this object, which must
// outlive the run and stay where it is.
class BackendFlags {
 public:
  BackendFlags(const Args& args, ShardSettings& settings) : args_(args) {
    if (const auto v = args.value("shards")) settings.shards = parse_int(*v);
    sharded_ = settings.shards > 0;
    settings.progress = args.has("progress");
    if (const auto v = args.value("telemetry-ms")) {
      settings.telemetry_interval = std::chrono::milliseconds(parse_u64(*v));
    }
    if (const auto v = args.value("stale-ms")) {
      if (settings.telemetry_interval.count() <= 0) {
        throw ProtocolError("--stale-ms needs --telemetry-ms (an unarmed "
                            "worker is rightfully silent between cells)");
      }
      settings.heartbeat_stale_after =
          std::chrono::milliseconds(parse_u64(*v));
    }
    // "2" or "2,0,0": slot i raises SIGSTOP on receiving its list[i]-th
    // job (a grid cell for run, a whole range of schedules for explore),
    // before serving it — the hook that freezes a worker in a real
    // sharded CLI run to watch the heartbeat-staleness write-off fire.
    if (const char* env = std::getenv("MPCN_WORKER_STOP_AFTER")) {
      for (const std::string& tok : split(env, ',')) {
        settings.worker_stop_after.push_back(parse_int(tok));
      }
    }
    if (const auto path = args.value("events")) {
      if (!open_event_log(*path)) {
        throw ProtocolError("cannot open '" + *path + "' for --events");
      }
    }
    if (args.has("trace")) set_tracing_enabled(true);
    if (sharded_) {
      if (args.has("metrics")) settings.worker_metrics = &worker_metrics_;
      if (args.has("trace")) settings.worker_traces = &worker_traces_;
      if (args.has("health")) settings.health = &health_;
    }
  }
  BackendFlags(const BackendFlags&) = delete;
  BackendFlags& operator=(const BackendFlags&) = delete;

  void finish() const {
    if (const auto path = args_.value("metrics")) {
      write_metrics_file(*path, worker_metrics_);
    }
    if (const auto path = args_.value("trace")) {
      write_trace_file(*path, worker_traces_, sharded_);
    }
    if (const auto path = args_.value("health")) {
      write_health_file(*path, health_);
    }
    close_event_log();
  }

 private:
  const Args& args_;
  bool sharded_ = false;
  std::vector<MetricsSnapshot> worker_metrics_;
  std::vector<ProcessTrace> worker_traces_;
  std::vector<WorkerHealth> health_;
};

int cmd_run(int argc, char** argv) {
  const Args args = cell_command_args(
      argc, argv, {"seeds", "mem", "crash-p", "crash-max", "title"},
      {"no-timing"});
  Experiment e = parse_cell_flags(args, "run");

  e.seed_list(parse_u64_axis(args.value_or("seeds", "1")));

  std::vector<MemKind> mems;
  for (const std::string& name :
       parse_name_axis(args.value_or("mem", "primitive"))) {
    mems.push_back(mem_kind_from_string(name));
  }
  e.mems(std::move(mems));

  if (args.has("crash-p")) {
    const double p = parse_double(args.require("crash-p"));
    const int max_crashes =
        args.has("crash-max") ? parse_int(args.require("crash-max")) : -1;
    // Experiment::cells() calls this with each cell's own model, so every
    // chain hop is checked against its own t. A run with more than t
    // crashes is outside the model: its timeouts are not violations.
    e.crashes([p, max_crashes](const ModelSpec& m, std::uint64_t seed) {
      if (max_crashes > m.t) {
        throw ProtocolError("--crash-max " + std::to_string(max_crashes) +
                            " exceeds t = " + std::to_string(m.t) + " of " +
                            m.to_string());
      }
      return CrashPlan::hazard(p, max_crashes < 0 ? m.t : max_crashes, seed);
    });
  } else if (args.has("crash-max")) {
    throw ProtocolError("--crash-max needs --crash-p");
  }

  BatchOptions batch;
  batch.title = args.value_or("title", args.positional()[0]);
  BackendFlags backend(args, batch);
  const Report report = e.run_all(batch);
  backend.finish();

  FILE* summary_out = stdout;
  const std::string json_path = args.value_or("json", "");
  if (!json_path.empty()) {
    summary_out = write_json_output(json_path,
                                    report.to_json(!args.has("no-timing")));
  }
  std::fprintf(summary_out, "%s\n", report.summary().c_str());

  // A cell that is not ok (an error, a timeout, an invalid decision or an
  // undecided correct process) fails the run.
  if (report.all_ok()) return 0;
  int errored = 0;
  for (const RunRecord& r : report.records) {
    if (!r.error.empty()) ++errored;
  }
  std::fflush(stdout);  // the summary first, in a log that merges both
  std::fprintf(stderr, "%d cell(s) not ok, %d of them with errors\n",
               report.failed_count(), errored);
  return 1;
}

ScheduleTrace load_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ProtocolError("cannot open trace file '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return ScheduleTrace::from_json(Json::parse(text.str()));
}

int cmd_explore(int argc, char** argv) {
  const Args args = cell_command_args(
      argc, argv,
      {"mem", "policy", "budget", "seed", "max-violations", "pct-depth",
       "horizon", "bound", "crash-budget", "crash-rate", "shrink-budget",
       "record", "replay"},
      {"check-lin", "check-races", "no-shrink"});
  Experiment e = parse_cell_flags(args, "explore");
  const std::uint64_t base_seed = parse_u64(args.value_or("seed", "1"));
  e.seed(base_seed);
  e.mem(mem_kind_from_string(args.value_or("mem", "primitive")));
  const std::vector<ExperimentCell> grid = e.cells();
  if (grid.size() != 1) {
    throw ProtocolError("explore drives exactly one cell; the flags "
                        "expanded to " +
                        std::to_string(grid.size()));
  }
  ExperimentCell cell = grid.front();

  std::shared_ptr<const SequentialSpec> spec;
  if (args.has("check-lin")) {
    if (cell.mode != ExecutionMode::kDirect) {
      throw ProtocolError("--check-lin observes direct-mode memory "
                          "histories; use --mode direct");
    }
    spec = std::make_shared<const SnapshotSpec>(cell.target.n);
  }
  const bool check_races = args.has("check-races");
  if (check_races && cell.mode != ExecutionMode::kDirect) {
    throw ProtocolError("--check-races observes direct-mode memory "
                        "histories; use --mode direct");
  }

  // ---- replay mode: one scripted schedule, verdict, optional re-record.
  if (args.has("replay")) {
    const ScheduleTrace trace = load_trace(args.require("replay"));
    auto history = spec ? std::make_shared<HistoryRecorder>() : nullptr;
    cell.history = history;
    cell.check_races = check_races;
    const RunRecord rec = replay_trace(cell, trace);
    const OracleVerdict v = judge(rec, spec, history);
    if (v.spec_skipped) {
      // A silent pass over the checker's cap would be a false 'ok' from
      // the very oracle the user asked for.
      std::fprintf(stderr,
                   "warning: --check-lin skipped (%zu events exceed the "
                   "%zu-operation checker cap)\n",
                   history->events().size(), kMaxLinearizableOps);
    }
    if (const auto path = args.value("record")) {
      if (!rec.schedule_trace) {
        throw ProtocolError("replay produced no schedule trace");
      }
      write_json_file(*path, rec.schedule_trace->to_json());
    }
    std::printf("replay: %s (%llu steps, digest %s)%s\n",
                v.race ? "RACE"
                       : (v.violated ? (v.crashed ? "CRASH VIOLATION"
                                                  : "VIOLATION")
                                     : "ok"),
                static_cast<unsigned long long>(rec.steps),
                rec.schedule_digest.c_str(),
                v.why.empty() ? "" : ("\n  " + v.why).c_str());
    if (rec.races_checked) {
      std::printf("races: %zu report(s)\n", rec.race_reports.size());
    }
    if (v.race) return 3;
    if (v.violated) return v.crashed ? 4 : 1;
    return 0;
  }

  // ---- search mode.
  ExploreOptions opts;
  opts.policy = explore_policy_from_string(args.value_or("policy", "pct"));
  opts.seed = base_seed;
  opts.budget = parse_int(args.value_or("budget", "200"));
  opts.max_violations = parse_int(args.value_or("max-violations", "1"));
  opts.pct_depth = parse_int(args.value_or("pct-depth", "3"));
  if (args.has("horizon")) {
    opts.pct_horizon = parse_u64(args.require("horizon"));
  }
  opts.dfs_preemption_bound = parse_int(args.value_or("bound", "2"));
  opts.crash_budget = parse_int(args.value_or("crash-budget", "0"));
  if (args.has("crash-rate")) {
    if (opts.crash_budget < 1) {
      throw ProtocolError("--crash-rate needs --crash-budget");
    }
    opts.crash_rate = parse_double(args.require("crash-rate"));
  }
  opts.shrink_violations = !args.has("no-shrink");
  opts.shrink_budget = parse_int(args.value_or("shrink-budget", "400"));
  opts.spec = spec;
  opts.check_races = check_races;
  BackendFlags backend(args, opts);
  const ExploreResult result = explore(cell, opts);
  backend.finish();

  if (const auto path = args.value("record")) {
    write_json_file(*path, result.first_trace.to_json());
  }
  FILE* summary_out = stdout;
  const std::string json_path = args.value_or("json", "");
  if (!json_path.empty()) {
    summary_out = write_json_output(json_path, result.to_json());
  }
  std::fprintf(summary_out, "%s\n", result.summary().c_str());
  if (result.race_found()) return 3;
  if (!result.found()) return 0;
  // Every violation needed the fault adversary: schedule-only search at
  // the same budget would have stayed clean — a distinct outcome.
  return result.crash_only() ? 4 : 1;
}

// `mpcn events LOG`: summarize a --events flight-recorder log.
//
// The log is append-only JSONL written by one process (coordinator +
// explorer) with a monotonic shared clock, so a single sequential pass
// reconstructs everything: per-worker lifelines (spawn → death →
// respawn chains, with reasons), per-cell requeue chains, and the
// violation/shrink timeline. Malformed lines are counted, not fatal —
// a crashed run's torn last line must not make its log unreadable.
int cmd_events(int argc, char** argv) {
  Args args(argc, argv, 2, {}, {"json"});
  if (args.positional().size() != 1) {
    throw ProtocolError(
        "events needs exactly one log file (written by --events)");
  }
  std::ifstream in(args.positional()[0]);
  if (!in) {
    throw ProtocolError("cannot open '" + args.positional()[0] + "'");
  }

  struct SlotInfo {
    std::vector<std::string> lifeline;
    std::int64_t dispatched = 0;
    std::int64_t requeued = 0;
    std::int64_t gaps = 0;
  };
  std::map<std::int64_t, SlotInfo> slots;
  std::map<std::int64_t, std::vector<std::string>> cell_chains;
  std::vector<std::string> timeline;
  std::map<std::string, std::int64_t> counts;
  std::int64_t total = 0, malformed = 0;
  std::int64_t t0 = -1, t_last = 0;

  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    Json j;
    try {
      j = Json::parse(line);
      if (!j.is_object()) throw JsonError("not an object");
    } catch (const JsonError&) {
      ++malformed;
      continue;
    }
    const Json* tsf = j.find("ts_us");
    const Json* typef = j.find("type");
    if (tsf == nullptr || !tsf->is_int() || typef == nullptr ||
        !typef->is_string()) {
      ++malformed;
      continue;
    }
    ++total;
    const std::int64_t ts = tsf->as_int();
    const std::string& type = typef->as_string();
    if (t0 < 0) t0 = ts;
    t_last = ts;
    ++counts[type];
    const std::int64_t at_ms = (ts - t0) / 1000;
    auto num = [&j](const char* key) -> std::int64_t {
      const Json* f = j.find(key);
      return (f != nullptr && f->is_int()) ? f->as_int() : -1;
    };
    auto str = [&j](const char* key) -> std::string {
      const Json* f = j.find(key);
      return (f != nullptr && f->is_string()) ? f->as_string() : "";
    };
    auto stamp = [at_ms](std::string s) {
      return s + " @" + std::to_string(at_ms) + "ms";
    };

    if (type == "worker_spawn") {
      slots[num("slot")].lifeline.push_back(
          stamp("spawn pid=" + std::to_string(num("pid"))));
    } else if (type == "worker_death") {
      slots[num("slot")].lifeline.push_back(
          stamp("death (" + str("reason") + ")"));
    } else if (type == "worker_respawn") {
      slots[num("slot")].lifeline.push_back(
          stamp("respawn pid=" + std::to_string(num("pid")) + " attempt=" +
                std::to_string(num("attempt"))));
    } else if (type == "worker_backoff") {
      slots[num("slot")].lifeline.push_back(
          stamp("backoff " + std::to_string(num("delay_ms")) + "ms"));
    } else if (type == "worker_shutdown") {
      slots[num("slot")].lifeline.push_back(
          stamp("shutdown cells_served=" +
                std::to_string(num("cells_served"))));
    } else if (type == "heartbeat_gap") {
      SlotInfo& s = slots[num("slot")];
      ++s.gaps;
      s.lifeline.push_back(
          stamp("heartbeat gap " + std::to_string(num("age_ms")) + "ms"));
    } else if (type == "cell_dispatch") {
      ++slots[num("slot")].dispatched;
      cell_chains[num("cell_index")].push_back(
          stamp("slot " + std::to_string(num("slot"))));
    } else if (type == "cell_requeue") {
      ++slots[num("slot")].requeued;
      cell_chains[num("cell_index")].push_back(
          stamp("requeued from slot " + std::to_string(num("slot"))));
    } else if (type == "violation_found" || type == "race_found" ||
               type == "crash_violation_found") {
      std::string entry = type + " schedule=" + std::to_string(
                              num("schedule"));
      const std::string why = str("why");
      if (!why.empty()) entry += " (" + why + ")";
      timeline.push_back(stamp(std::move(entry)));
    } else if (type == "shrink_begin") {
      timeline.push_back(stamp(
          "shrink_begin schedule=" + std::to_string(num("schedule")) +
          " trace_len=" + std::to_string(num("trace_len"))));
    } else if (type == "shrink_end") {
      timeline.push_back(stamp(
          "shrink_end schedule=" + std::to_string(num("schedule")) +
          " shrunk_len=" + std::to_string(num("shrunk_len")) + " replays=" +
          std::to_string(num("replays")) +
          (num("verified") == 1 ? " verified" : " UNVERIFIED")));
    }
    // Unknown types count toward `counts` but render nowhere: the log
    // schema may grow and old binaries must still summarize new logs.
  }

  const std::int64_t span_ms = t0 < 0 ? 0 : (t_last - t0) / 1000;

  if (args.has("json")) {
    Json doc = Json::object();
    doc.set("events", total).set("malformed", malformed).set("span_ms",
                                                             span_ms);
    Json jcounts = Json::object();
    for (const auto& [type, n] : counts) jcounts.set(type, n);
    doc.set("counts", std::move(jcounts));
    Json jworkers = Json::array();
    for (const auto& [slot, info] : slots) {
      Json w = Json::object();
      w.set("slot", slot)
          .set("dispatched", info.dispatched)
          .set("requeued", info.requeued)
          .set("heartbeat_gaps", info.gaps);
      Json life = Json::array();
      for (const std::string& entry : info.lifeline) life.push(entry);
      w.set("lifeline", std::move(life));
      jworkers.push(std::move(w));
    }
    doc.set("workers", std::move(jworkers));
    Json jchains = Json::object();
    for (const auto& [cell, chain] : cell_chains) {
      if (chain.size() < 2) continue;  // dispatched once, never requeued
      Json arr = Json::array();
      for (const std::string& entry : chain) arr.push(entry);
      jchains.set(std::to_string(cell), std::move(arr));
    }
    doc.set("requeue_chains", std::move(jchains));
    Json jtimeline = Json::array();
    for (const std::string& entry : timeline) jtimeline.push(entry);
    doc.set("timeline", std::move(jtimeline));
    std::printf("%s\n", doc.dump(2).c_str());
    return 0;
  }

  std::printf("events: %lld record(s), %lld malformed, span %lld ms\n",
              static_cast<long long>(total),
              static_cast<long long>(malformed),
              static_cast<long long>(span_ms));
  for (const auto& [slot, info] : slots) {
    std::printf("worker %lld: %lld dispatched, %lld requeued, %lld "
                "heartbeat gap(s)\n",
                static_cast<long long>(slot),
                static_cast<long long>(info.dispatched),
                static_cast<long long>(info.requeued),
                static_cast<long long>(info.gaps));
    for (const std::string& entry : info.lifeline) {
      std::printf("  %s\n", entry.c_str());
    }
  }
  bool any_chain = false;
  for (const auto& [cell, chain] : cell_chains) {
    if (chain.size() < 2) continue;
    if (!any_chain) {
      std::printf("requeue chains:\n");
      any_chain = true;
    }
    std::string joined;
    for (const std::string& entry : chain) {
      if (!joined.empty()) joined += " -> ";
      joined += entry;
    }
    std::printf("  cell %lld: %s\n", static_cast<long long>(cell),
                joined.c_str());
  }
  if (!timeline.empty()) {
    std::printf("violation timeline:\n");
    for (const std::string& entry : timeline) {
      std::printf("  %s\n", entry.c_str());
    }
  }
  return 0;
}

int cmd_diff(int argc, char** argv) {
  Args args(argc, argv, 2, {"json"}, {});
  if (args.positional().size() != 2) {
    throw ProtocolError("diff needs exactly two report files");
  }
  const Report a = load_report(args.positional()[0]);
  const Report b = load_report(args.positional()[1]);
  const ReportDiff diff = diff_reports(a, b);

  FILE* summary_out = stdout;
  if (const auto path = args.value("json")) {
    summary_out = write_json_output(*path, diff.to_json());
  }
  std::fprintf(summary_out, "A: %s\nB: %s\n%s\n", a.summary().c_str(),
               b.summary().c_str(), diff.summary().c_str());
  return diff.has_regressions() ? 1 : 0;
}

}  // namespace

int cli_main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  const std::string command = argv[1];
  try {
    if (command == "list") return cmd_list(argc, argv);
    if (command == "run") return cmd_run(argc, argv);
    if (command == "explore") return cmd_explore(argc, argv);
    if (command == "events") return cmd_events(argc, argv);
    if (command == "diff") return cmd_diff(argc, argv);
    if (command == "help" || command == "--help" || command == "-h") {
      std::printf("%s", kUsage);
      return 0;
    }
    std::fprintf(stderr, "unknown command '%s'\n\n%s", command.c_str(),
                 kUsage);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpcn %s: %s\n", command.c_str(), e.what());
    return 2;
  }
}

}  // namespace mpcn
