#!/usr/bin/env python3
"""The mpcn benchmark: four workloads, end-to-end metrics and a per-layer ledger.

Run from the repository root:

  python3 perfbench/run.py --workload explore_churn --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all            # every workload, both modes
  python3 perfbench/run.py --compare a.json b.json   # two --save'd result sets

--trace 0 times the `mpcn` CLI exactly as a user types it (tracing off) and
prints the end-to-end metrics; --trace 1 runs the workload in-process through
perfbench_layers, which wraps each call into a layer in a span, and prints the
per-layer metrics. Both check the workload's output by meaning (verdicts,
counts, replays), never by report bytes across commits. The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

The program is built from source into .bench_build/ (Release) on first use;
results, reports and the Perfetto trace go to .bench_out/. See README.md in
this directory for the workloads, the metrics and the held-out seed.
"""
import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ["explore_churn", "paper_grid", "dfs_crash_hunt", "sharded_hunt"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # claim PRs must also pass on this seed

CHURN_BUDGET = 500
GRID_SEEDS = 128
DFS_MIN_DISTINCT_CEX = 10  # the bound-1 product tree's distinct shrunk traces
SHARD_BUDGET = 5000

SETUP_REPS = 9  # one-unit invocations before the run, and
SETUP_PER_UNIT = 3  # after each unit; setup_s is the median of all
MIN_UNITS = 3  # a run times at least this many workload units
CMD_TIMEOUT_S = 150


def unit_seed(seed, k):
    """Base seed of unit k of a run. PCT schedule i runs under base + i, so
    bases are spaced wider than any budget: no two units share a schedule."""
    return seed * 1_000_003 + k * 10_007


def commands(workload, base, setup=False):
    """The mpcn CLI commands of one workload unit (argv without the binary).
    setup=True gives the same invocation with one unit of work."""
    if workload == "explore_churn":
        return [["explore", "snapshot_churn", "--in", "3,0,1", "--mem", "afek",
                 "--policy", "pct", "--check-races",
                 "--budget", str(1 if setup else CHURN_BUDGET),
                 "--seed", str(base)]]
    if workload == "paper_grid":
        last = base if setup else base + GRID_SEEDS - 1
        grid = ["run", "trivial_kset", "--source", "4,2,1", "--in", "8,5,3",
                "--mode", "simulated", "--seeds", f"{base}..{last}",
                "--crash-p", "0.001"]
        # The Figure 7 walk as the README runs it, at the CLI's default
        # seed: some seeds time out at the (5,2,1) hop with an uncrashed
        # process undecided (e.g. --seeds 107070370), a liveness failure of
        # the program that a benchmark unit must not step on.
        chain = ["run", "trivial_kset", "--source", "4,2,1", "--in", "5,2,1",
                 "--mode", "chain"]
        return [grid] if setup else [grid, chain]
    if workload == "dfs_crash_hunt":
        return [["explore", "safe_agreement_window", "--in", "2,1,1",
                 "--policy", "dfs", "--bound", "1", "--crash-budget", "1",
                 "--steps", "400", "--max-violations", "0",
                 "--budget", "1" if setup else "100000", "--seed", str(base)]]
    if workload == "sharded_hunt":
        return [["explore", "racy_register", "--in", "2,0,1", "--policy", "pct",
                 "--check-races", "--max-violations", "0", "--shards", "3",
                 "--fork-workers", "--budget", str(1 if setup else SHARD_BUDGET),
                 "--seed", str(base)]]
    raise ValueError(workload)


# Exit codes `mpcn explore` promises: 0 clean, 1 violation, 3 race, 4 all
# violations needed a crash.
EXPECTED_RC = {"explore_churn": {0}, "paper_grid": {0},
               "dfs_crash_hunt": {1, 4}, "sharded_hunt": {3}}


class CheckFailed(Exception):
    pass


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


# ------------------------------------------------------------------ build

def log_path(name):
    os.makedirs(OUT_DIR, exist_ok=True)
    return os.path.join(OUT_DIR, name)


def build():
    """Configure (once) and build mpcn + perfbench_layers in Release."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no src/ next to perfbench/; run from a full checkout")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "mpcn_cli", "perfbench_layers"])
    with open(log_path("build.log"), "w") as logf:
        for argv in steps:
            rc = subprocess.run(argv, stdout=logf, stderr=subprocess.STDOUT,
                                cwd=ROOT).returncode
            if rc != 0:
                sys.stderr.write(open(log_path("build.log")).read()[-4000:])
                sys.exit(f"perfbench: build step failed: {' '.join(argv)}")
    return (os.path.join(BUILD_DIR, "mpcn"),
            os.path.join(BUILD_DIR, "perfbench_layers"))


# ---------------------------------------------------------------- context

def cmake_cache(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def first_line(argv):
    try:
        out = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                             timeout=30)
        return out.stdout.splitlines()[0].strip() if out.returncode == 0 else ""
    except (OSError, IndexError, subprocess.TimeoutExpired):
        return ""


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def context(mpcn):
    """Who produced a result set: host, build and source identity."""
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f
                        if l.startswith("model name")), "")
    except OSError:
        pass
    wait = os.environ.get("MPCN_WAIT_STRATEGY", "")
    if not wait:
        probe = subprocess.run([mpcn, "run", "snapshot_churn", "--in", "2,0,1",
                                "--json", "-"], capture_output=True, text=True,
                               cwd=ROOT, timeout=60)
        try:
            rec = json.loads(probe.stdout)["records"][0]
            wait = rec.get("wait_strategy", "none")
        except (ValueError, KeyError, IndexError):
            wait = "unknown"
    sha = first_line(["git", "-C", ROOT, "rev-parse", "HEAD"])
    dirty = None
    if sha:
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                 "--untracked-files=no"], capture_output=True,
                                text=True)
        dirty = bool(status.stdout.strip())
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "compiler": first_line([compiler, "--version"]) if compiler else "",
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "git_sha": sha or "unknown",
        "git_dirty": dirty,
        "source_digest": source_digest(),
        "wait_strategy": wait,
    }


# Fields that must match for two result sets to be comparable. The git sha
# and source digest name the commits being compared, so they may differ.
HOST_KEYS = ["nproc", "cpu_model", "compiler", "build_type", "wait_strategy"]


# --------------------------------------------------------------- processes

def run_cmd(argv, tag):
    """Run one process to completion; returns (rc, wall_s, cpu_s, rss_mb).
    cpu and rss cover the whole process tree the command reaped (forked
    shard workers included)."""
    out = open(log_path(tag + ".out"), "w")
    err = open(log_path(tag + ".err"), "w")
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT)
    timer = threading.Timer(CMD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        out.close()
        err.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def load_json(path):
    with open(path) as f:
        return json.load(f)


# ------------------------------------------------------------------ checks

def check_explore(workload, rep):
    """Semantic checks of one `mpcn explore` report."""
    vs = rep["violation_details"]
    if workload == "explore_churn":
        require(rep["schedules"] == CHURN_BUDGET,
                f"explore_churn ran {rep['schedules']}/{CHURN_BUDGET} schedules")
        require(rep["violations"] == 0 and not rep["race_found"]
                and rep["race_reports"] == 0,
                "explore_churn must be clean (0 violations, 0 races)")
    elif workload == "dfs_crash_hunt":
        require(rep["exhausted"], "dfs_crash_hunt did not exhaust its tree")
        require(rep["crash_found"], "dfs_crash_hunt reported no crash violation")
        distinct = len({v["shrunk_digest"] for v in vs})
        require(distinct >= DFS_MIN_DISTINCT_CEX,
                f"dfs_crash_hunt lost bugs: {distinct} distinct counterexamples"
                f" < {DFS_MIN_DISTINCT_CEX}")
    elif workload == "sharded_hunt":
        require(rep["schedules"] == SHARD_BUDGET,
                f"sharded_hunt ran {rep['schedules']}/{SHARD_BUDGET} schedules")
        require(rep["race_found"] and vs, "sharded_hunt found no race")
    for v in vs:
        require(v["shrunk_verified"],
                f"{workload}: unverified shrink of schedule {v['schedule_index']}")
        require(not v["record"].get("error"),
                f"{workload}: schedule {v['schedule_index']} errored")


def check_grid(argv, rep):
    """Every cell of one `mpcn run` report is ok; returns how many cells a
    hazard crash landed in."""
    recs = rep["records"]
    require("chain" not in argv or len(recs) == 3,
            f"chain walk has {len(recs)} hops, want 3")
    for r in recs:
        require(r.get("ok") and not r.get("error"),
                f"paper_grid cell {r['cell_index']} (seed {r['seed']}) failed:"
                f" {r.get('error') or r.get('why') or 'undecided or timed out'}")
    return sum(1 for r in recs if r.get("crash_points"))


# ---------------------------------------------------------- end to end

def quantile(values, q):
    """q-th decile cut point (statistics.quantiles); the median of 1 value."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def run_unit(mpcn, workload, base, tag, setup=False):
    """Run one unit's commands; returns its measurement and reports."""
    unit = {"wall": 0.0, "cpu": 0.0, "rss": 0.0, "executions": 0,
            "failed": 0, "cell_ms": [], "crashed_cells": 0, "reports": []}
    for i, argv in enumerate(commands(workload, base, setup)):
        report = log_path(f"{tag}.{i}.json")
        extra = ["--json", report]
        if workload == "sharded_hunt" and not setup:
            extra += ["--metrics", log_path(f"{tag}.metrics.json")]
        rc, wall, cpu, rss = run_cmd([mpcn] + argv + extra, f"{tag}.{i}")
        unit["wall"] += wall
        unit["cpu"] += cpu
        unit["rss"] = max(unit["rss"], rss)
        if setup:
            require(rc in (0, 1, 3, 4), f"{workload} setup exited {rc}")
            continue
        require(rc in EXPECTED_RC[workload],
                f"{workload} exited {rc}, want {sorted(EXPECTED_RC[workload])}")
        rep = load_json(report)
        unit["reports"].append(report)
        if argv[0] == "run":
            unit["crashed_cells"] += check_grid(argv, rep)
            unit["executions"] += len(rep["records"])
            unit["cell_ms"] += [r["wall_ms"] for r in rep["records"]]
        else:
            check_explore(workload, rep)
            unit["executions"] += rep["schedules"]
            unit["failed"] += sum(1 for v in rep["violation_details"]
                                  if not v["shrunk_verified"]
                                  or v["record"].get("error"))
    if workload == "sharded_hunt" and not setup:
        merged = load_json(log_path(f"{tag}.metrics.json"))["merged"]["counters"]
        unit["failed"] += (merged.get("shard.cells_requeued", 0)
                           + merged.get("shard.fallback_cells", 0))
    return unit


def cross_checks(mpcn, workload, unit, base):
    """Once per run: replays of every distinct counterexample (dfs) and the
    sharded report against the in-process one of the same commit."""
    argv = commands(workload, base)[0]
    if workload == "dfs_crash_hunt":
        rep = load_json(unit["reports"][0])
        traces = {v["shrunk_digest"]: v["shrunk_trace"]
                  for v in rep["violation_details"]}
        for n, (digest, trace) in enumerate(sorted(traces.items())):
            path = log_path(f"replay.{n}.json")
            with open(path, "w") as f:
                json.dump(trace, f)
            rc, *_ = run_cmd([mpcn] + argv + ["--replay", path], f"replay.{n}")
            out = open(log_path(f"replay.{n}.out")).read()
            require(rc in (1, 4) and "VIOLATION" in out,
                    f"shrunk counterexample {digest} did not fail again on replay")
    if workload == "sharded_hunt":
        local = [a for a in argv if a not in ("--fork-workers",)]
        i = local.index("--shards")
        del local[i:i + 2]
        path = log_path("inproc.json")
        rc, *_ = run_cmd([mpcn] + local + ["--json", path], "inproc")
        require(rc == 3, f"in-process racy_register exited {rc}")
        with open(path, "rb") as a, open(unit["reports"][0], "rb") as b:
            require(a.read() == b.read(),
                    "sharded report differs from the in-process report")


def run_e2e(mpcn, workload, seed, seconds):
    def setup_once():
        return run_unit(mpcn, workload, unit_seed(seed, 0), "setup",
                        setup=True)

    setup = [setup_once() for _ in range(SETUP_REPS)]
    run_unit(mpcn, workload, unit_seed(seed, 0), "warmup")  # caches, page-ins
    units = []
    deadline = time.perf_counter() + seconds
    k = 1
    while len(units) < MIN_UNITS or time.perf_counter() < deadline:
        # Unit 1's reports feed the cross-checks; later units share a tag.
        units.append(run_unit(mpcn, workload, unit_seed(seed, k),
                              f"unit{min(k, 2)}"))
        # Set-up is a few ms; sampling it between units as well spreads its
        # samples over the same machine states the units saw.
        setup += [setup_once() for _ in range(SETUP_PER_UNIT)]
        k += 1
    cross_checks(mpcn, workload, units[0], unit_seed(seed, 1))
    if workload == "paper_grid":
        require(sum(u["crashed_cells"] for u in units) > 0,
                "paper_grid: no cell realized a hazard crash")
    # Every bounded timing is CPU time of the command's process tree. On a
    # shared host, wall time also holds the time the hypervisor hands to
    # other guests (steal): between runs it moved 30-115% where CPU time
    # moved 4-11%. The wall-clock figures are reported alongside, unbounded.
    per_exec_ms = [1000.0 * u["cpu"] / u["executions"] for u in units]
    metrics = {
        "schedules_per_cpu_s": statistics.median(u["executions"] / u["cpu"]
                                                 for u in units),
        "cell_p90_ms": quantile(per_exec_ms, 9),
        "cpu_s": statistics.median(u["cpu"] for u in units),
        "setup_s": statistics.median(s["cpu"] for s in setup),
        "peak_rss_mb": max(u["rss"] for u in units),
    }
    samples = {
        "units": len(units), "setups": len(setup),
        "wall_s": statistics.median(u["wall"] for u in units),
        "schedules_per_wall_s": statistics.median(u["executions"] / u["wall"]
                                                  for u in units),
        "setup_wall_s": statistics.median(s["wall"] for s in setup)}
    if workload == "paper_grid":
        cells = [ms for u in units for ms in u["cell_ms"]]
        samples.update(cells=len(cells),
                       cell_wall_p50_ms=quantile(cells, 5),
                       cell_wall_p90_ms=quantile(cells, 9))
    attempted = sum(u["executions"] for u in units)
    failed = sum(u["failed"] for u in units)
    return metrics, attempted, failed, samples, {}


# ---------------------------------------------------------------- traced

def run_traced(layers, workload, seed, seconds):
    """Repeated perfbench_layers passes; the median of each metric."""
    cmds = []
    for argv in commands(workload, unit_seed(seed, 1)):
        if cmds:
            cmds.append("---")
        cmds += argv
    passes = []
    deadline = time.perf_counter() + seconds
    trace_path = log_path(f"{workload}.trace.json")
    while not passes or time.perf_counter() < deadline:
        report = log_path("layers.reports.json")
        rc, *_ = run_cmd([layers, "--trace-out", trace_path, "--report-out",
                          report, "--"] + cmds, "layers")
        require(rc == 0, "perfbench_layers failed: "
                + open(log_path("layers.err")).read()[-2000:])
        out = json.loads(open(log_path("layers.out")).read().splitlines()[-1])
        reports = load_json(report)
        if workload == "paper_grid":
            crashed = sum(check_grid(argv, rep) for argv, rep in
                          zip(commands(workload, unit_seed(seed, 1)), reports))
            require(crashed > 0, "paper_grid: no cell realized a hazard crash")
        else:
            check_explore(workload, reports[0])
        facts = out["facts"]
        require(facts.get("replays_failed_again") == facts.get("distinct_cex"),
                "a shrunk counterexample did not fail again under replay_trace")
        require(facts.get("first_replay_clean", True),
                "replaying a clean schedule produced a violation")
        require(facts.get("sharded_matches_inproc", True),
                "sharded search report differs from the in-process one")
        passes.append(out)
    # Every per-layer metric of BENCHMARK.json is reported; a layer the
    # workload bypasses reads 0.
    metrics = {n: statistics.median(p["metrics"].get(n, 0.0) for p in passes)
               for n in units_for(1)}
    ledger = {k: statistics.median(p["ledger"].get(k, 0.0) for p in passes)
              for k in passes[0]["ledger"]}
    samples = {"passes": len(passes), "trace": os.path.relpath(trace_path, ROOT)}
    attempted = sum(p["executions"] for p in passes)
    failed = sum(p["errors"] for p in passes)
    return metrics, attempted, failed, samples, ledger


# ----------------------------------------------------------------- output

def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def units_for(trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m for m in spec()[key]}


def print_ledger(ledger):
    core = ledger.get("core", 0.0)
    if core <= 0:
        return
    print(f"ledger (share of the traced core, {core:.3f} s):")
    for layer, s in sorted(ledger.items(), key=lambda kv: -kv[1]):
        if layer != "core" and s != 0.0:
            print(f"  {layer:<18} {s:9.4f} s  {100.0 * s / core:6.1f} %")


def measure(workload, seed, seconds, trace, mpcn, layers):
    if trace:
        return run_traced(layers, workload, seed, seconds)
    return run_e2e(mpcn, workload, seed, seconds)


def compare(path_a, path_b):
    """Medians of two --save'd result sets, refused unless host and build
    match and both are Release builds."""
    a, b = load_json(path_a), load_json(path_b)
    for key in HOST_KEYS:
        if a["context"].get(key) != b["context"].get(key):
            sys.exit(f"refusing to compare: context '{key}' differs:\n"
                     f"  {a['context'].get(key)!r}\n  {b['context'].get(key)!r}")
    if a["context"]["build_type"] != "Release":
        sys.exit(f"refusing to compare a {a['context']['build_type']!r} build;"
                 " timings need a Release build")
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        sys.exit("refusing to compare different workloads or trace modes")
    bounds = {m["name"]: m for m in spec()["end_to_end"]}
    print(f"{a['workload']}: A={a['context']['git_sha'][:12]} "
          f"B={b['context']['git_sha'][:12]}")
    worse_any = False
    for name, va in a["metrics"].items():
        vb = b["metrics"][name]
        m = bounds.get(name)
        change = (vb - va) / va if va else 0.0
        worse = m and (change if m["better"] == "lower" else -change)
        flag = ""
        if m and worse > m["bound"]:
            flag, worse_any = "  WORSE than bound", True
        print(f"  {name:<32} {va:14.6g} -> {vb:14.6g}  {100 * change:+7.2f} %{flag}")
    return 1 if worse_any else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; claims must"
                    f" also hold on the held-out seed {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--save", help="write the result set with its context")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload is required")

    mpcn, layers = build()
    ctx = context(mpcn)
    print("context: " + json.dumps(ctx))
    if ctx["build_type"] != "Release":
        print(f"WARNING: {ctx['build_type']!r} build; timings not comparable")

    runs = ([(w, t) for w in WORKLOADS for t in (0, 1)]
            if args.workload == "all" else [(args.workload, args.trace)])
    results, attempted, failed = {}, 0, 0
    for workload, trace in runs:
        try:
            metrics, att, fail, samples, ledger = measure(
                workload, args.seed, args.seconds, trace, mpcn, layers)
        except CheckFailed as e:
            print(f"CHECK FAILED [{workload}]: {e}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                              "metrics": {}}))
            return 1
        units = units_for(trace)
        print(f"{workload} (seed {args.seed}, trace {trace}): "
              f"{att} attempted, {fail} failed, {json.dumps(samples)}")
        for name, value in metrics.items():
            print(f"  {name:<32} {value:14.6g} {units[name]['unit']}")
        print_ledger(ledger)
        if args.save:
            with open(args.save if len(runs) == 1 else
                      f"{args.save}.{workload}.{trace}.json", "w") as f:
                json.dump({"context": ctx, "workload": workload,
                           "seed": args.seed, "seconds": args.seconds,
                           "trace": trace, "metrics": metrics,
                           "ledger": ledger, "samples": samples}, f, indent=2)
        attempted += att
        failed += fail
        # One workload keeps plain names; `all` prefixes them.
        prefix = "" if len(runs) == 1 else f"{workload}/"
        results.update({prefix + n: {"value": v, "unit": units[n]["unit"]}
                        for n, v in metrics.items()})
    print(json.dumps({"correct": True, "attempted": max(1, attempted),
                      "failed": failed, "metrics": results}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
