// Tests: src/obs — the telemetry sidecar. Counter snapshots' JSON
// round-trip and order-independent merging, span capture, and the
// headline invariant: report bytes are identical with instrumentation
// exported or not, across the in-process and sharded backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/cli/cli.h"
#include "src/common/json.h"
#include "src/obs/metrics.h"
#include "src/obs/spans.h"

namespace mpcn {
namespace {

// Run cli_main on a shell-style argv, capturing stdout (and swallowing
// stderr noise such as --progress heartbeats).
int run_cli(std::vector<std::string> argv_s, std::string* out = nullptr) {
  std::vector<char*> argv;
  argv.reserve(argv_s.size());
  for (std::string& a : argv_s) argv.push_back(a.data());
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const int code = cli_main(static_cast<int>(argv.size()), argv.data());
  const std::string captured = testing::internal::GetCapturedStdout();
  testing::internal::GetCapturedStderr();
  if (out) *out = captured;
  return code;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

// ------------------------------------------------------------- snapshots

MetricsSnapshot sample_snapshot(std::uint64_t scale) {
  MetricsSnapshot s;
  s.counters["explore.schedules"] = 10 * scale;
  s.counters["arena.bytes"] = scale;
  return s;
}

TEST(MetricsSnapshot, JsonRoundTripsByteIdentically) {
  const MetricsSnapshot s = sample_snapshot(3);
  const std::string first = s.to_json().dump();
  // The sidecar schema: counters are the only metric kind.
  EXPECT_EQ(first, "{\"counters\":{\"arena.bytes\":3,"
                   "\"explore.schedules\":30}}");
  const MetricsSnapshot back = MetricsSnapshot::from_json(s.to_json());
  EXPECT_EQ(back.to_json().dump(), first);
  // Empty snapshot round-trips too.
  const MetricsSnapshot empty;
  EXPECT_EQ(empty.to_json().dump(), "{\"counters\":{}}");
  EXPECT_EQ(MetricsSnapshot::from_json(empty.to_json()).to_json().dump(),
            empty.to_json().dump());
  EXPECT_TRUE(empty.empty());
}

TEST(MetricsSnapshot, MergeIsCommutativeAndAssociative) {
  // Distinct key sets and overlapping keys: the awkward merge inputs.
  std::vector<MetricsSnapshot> parts = {sample_snapshot(1),
                                        sample_snapshot(4),
                                        sample_snapshot(2)};
  parts[1].counters["shard.cells_dispatched"] = 9;  // only in one part

  // Reference: left-fold in the given order.
  MetricsSnapshot ref;
  for (const MetricsSnapshot& p : parts) ref.merge(p);
  const std::string want = ref.to_json().dump();

  // Every permutation of arrival order lands on the same totals.
  std::vector<std::size_t> idx = {0, 1, 2};
  std::sort(idx.begin(), idx.end());
  do {
    MetricsSnapshot m;
    for (const std::size_t i : idx) m.merge(parts[i]);
    EXPECT_EQ(m.to_json().dump(), want);
  } while (std::next_permutation(idx.begin(), idx.end()));

  // Associativity: (a+b)+c == a+(b+c).
  MetricsSnapshot ab = parts[0];
  ab.merge(parts[1]);
  ab.merge(parts[2]);
  MetricsSnapshot bc = parts[1];
  bc.merge(parts[2]);
  MetricsSnapshot a_bc = parts[0];
  a_bc.merge(bc);
  EXPECT_EQ(ab.to_json().dump(), a_bc.to_json().dump());

  // Merged totals are the field-wise sums.
  MetricsSnapshot m;
  for (const MetricsSnapshot& p : parts) m.merge(p);
  EXPECT_EQ(m.counters["explore.schedules"], 10u * (1 + 4 + 2));
  EXPECT_EQ(m.counters["shard.cells_dispatched"], 9u);
}

TEST(MetricsRegistry, SnapshotResetAndStableReferences) {
  MetricsRegistry reg;
  Counter& c = reg.counter("test.counter");
  c.add(5);

  MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("test.counter"), 5u);

  // reset() zeroes values but keeps objects: cached references stay
  // valid, and the metric catalog survives in later snapshots.
  reg.reset();
  c.add(2);  // through the pre-reset reference
  snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("test.counter"), 2u);
  // Same name resolves to the same object.
  EXPECT_EQ(&reg.counter("test.counter"), &c);
}

TEST(MetricsRegistry, DeltaJsonMatchesSnapshotDeltaSince) {
  // The heartbeat fast path (delta_json) must emit byte-for-byte what
  // the reference pipeline — snapshot(), delta_since(), to_json() —
  // would have: same saturation and zero-dropping.
  MetricsRegistry reg;
  reg.counter("a.count").add(5);
  reg.counter("a.idle").add(3);

  MetricsSnapshot prev_ref;       // reference pipeline's baseline
  MetricsSnapshot prev_fast;      // fast path's in-place baseline
  std::string out;

  // Beat 1: everything moved since the (empty) baseline.
  MetricsSnapshot snap = reg.snapshot();
  std::string want = snap.delta_since(prev_ref).to_json().dump();
  reg.delta_json(prev_fast, out);
  EXPECT_EQ(out, want);
  prev_ref = snap;

  // Beat 2: nothing moved — delta is empty, zero rows dropped.
  reg.delta_json(prev_fast, out);
  EXPECT_EQ(out, reg.snapshot().delta_since(prev_ref).to_json().dump());
  EXPECT_TRUE(MetricsSnapshot::from_json(Json::parse(out)).empty());

  // Beat 3: one counter moves, the other does not (dropped).
  reg.counter("a.count").add(1);
  snap = reg.snapshot();
  reg.delta_json(prev_fast, out);
  EXPECT_EQ(out, snap.delta_since(prev_ref).to_json().dump());
  prev_ref = snap;

  // Beat 4: a reset makes current < baseline — counters saturate at
  // zero instead of wrapping.
  reg.reset();
  reg.counter("a.count").add(7);  // 7 > pre-reset total 6: diff is 1
  snap = reg.snapshot();
  reg.delta_json(prev_fast, out);
  EXPECT_EQ(out, snap.delta_since(prev_ref).to_json().dump());

  // And every emission parses back through the wire-side decoder. The
  // idle counter (0 < pre-reset 3) saturated to zero — dropped.
  MetricsSnapshot parsed = MetricsSnapshot::from_json(Json::parse(out));
  EXPECT_EQ(parsed.counters.at("a.count"), 1u);
  EXPECT_EQ(parsed.counters.count("a.idle"), 0u);
}

// ----------------------------------------------------------------- spans

TEST(Spans, CapturesIntervalsOnlyWhenEnabled) {
  reset_trace();
  set_tracing_enabled(false);
  { ScopedSpan off("obs_test.off", "test"); }
  set_tracing_enabled(true);
  { ScopedSpan on("obs_test.on", "test"); }
  record_span("obs_test.manual", "test", trace_now_us(), 7);
  set_tracing_enabled(false);

  const Json doc = dump_trace_json();
  const Json& events = doc.at("traceEvents");
  std::size_t on_count = 0, off_count = 0, manual_count = 0;
  for (const Json& e : events.items()) {
    const std::string name = e.at("name").as_string();
    if (name == "obs_test.on") ++on_count;
    if (name == "obs_test.off") ++off_count;
    if (name == "obs_test.manual") ++manual_count;
    EXPECT_EQ(e.at("ph").as_string(), "X");
    EXPECT_EQ(e.at("pid").as_int(), 1);
    EXPECT_GE(e.at("tid").as_int(), 1);
  }
  EXPECT_EQ(on_count, 1u);
  EXPECT_EQ(off_count, 0u);
  EXPECT_EQ(manual_count, 1u);
  reset_trace();
}

// ------------------------------------------- the sidecar-only invariant

// Report bytes must be identical with telemetry exported or not — the
// headline invariant of this layer, pinned per backend.
TEST(Sidecar, RunReportBytesIdenticalWithMetricsOn) {
  TempFile plain("obs_run_plain.json");
  TempFile instrumented("obs_run_instr.json");
  TempFile metrics("obs_run_metrics.json");
  TempFile trace("obs_run_trace.json");
  const std::vector<std::string> base = {
      "mpcn", "run", "snapshot_churn", "--in", "3,0,1",
      "--seeds", "1..2", "--no-timing"};

  std::vector<std::string> argv = base;
  argv.insert(argv.end(), {"--json", plain.path});
  ASSERT_EQ(run_cli(argv), 0);

  argv = base;
  argv.insert(argv.end(),
              {"--json", instrumented.path, "--metrics", metrics.path,
               "--trace", trace.path, "--progress"});
  ASSERT_EQ(run_cli(argv), 0);

  const std::string plain_text = slurp(plain.path);
  ASSERT_FALSE(plain_text.empty());
  EXPECT_EQ(plain_text, slurp(instrumented.path));

  // The sidecar files themselves are well-formed.
  const Json mdoc = Json::parse(slurp(metrics.path));
  EXPECT_TRUE(mdoc.find("process") != nullptr);
  EXPECT_TRUE(mdoc.find("workers") != nullptr);
  EXPECT_TRUE(mdoc.find("merged") != nullptr);
  const Json tdoc = Json::parse(slurp(trace.path));
  EXPECT_TRUE(tdoc.find("traceEvents") != nullptr);
  set_tracing_enabled(false);
  reset_trace();
}

TEST(Sidecar, ShardedBackendStaysByteIdenticalToo) {
  TempFile plain("obs_backend_plain.json");
  TempFile sharded("obs_backend_shard.json");
  TempFile metrics_s("obs_backend_metrics_s.json");
  const std::vector<std::string> base = {
      "mpcn", "run", "snapshot_churn", "--in", "3,0,1",
      "--seeds", "1..4", "--no-timing"};

  std::vector<std::string> argv = base;
  argv.insert(argv.end(), {"--json", plain.path});
  ASSERT_EQ(run_cli(argv), 0);

  // Fork-mode workers: the test binary cannot exec itself as `mpcn`.
  argv = base;
  argv.insert(argv.end(),
              {"--shards", "2", "--fork-workers", "--json", sharded.path,
               "--metrics", metrics_s.path});
  ASSERT_EQ(run_cli(argv), 0);

  const std::string plain_text = slurp(plain.path);
  ASSERT_FALSE(plain_text.empty());
  EXPECT_EQ(plain_text, slurp(sharded.path));
}

// The seeded-bug exhibit, instrumented or not: the same exit code (PCT
// seed 1 finds the bug inside budget 300), byte-identical reports,
// counters that count the search and its shrink, and a well-formed
// Chrome trace of complete ("X") events with schedule and shrink spans.
TEST(Sidecar, ExploreJsonBytesIdenticalWithMetricsOn) {
  TempFile plain("obs_explore_plain.json");
  TempFile instrumented("obs_explore_instr.json");
  TempFile metrics("obs_explore_metrics.json");
  TempFile trace("obs_explore_trace.json");
  const std::vector<std::string> base = {
      "mpcn", "explore", "racy_register", "--in", "2,0,1",
      "--policy", "pct", "--budget", "300", "--seed", "1"};

  std::vector<std::string> argv = base;
  argv.insert(argv.end(), {"--json", plain.path});
  ASSERT_EQ(run_cli(argv), 1);

  metrics_registry().reset();
  argv = base;
  argv.insert(argv.end(),
              {"--json", instrumented.path, "--metrics", metrics.path,
               "--trace", trace.path, "--progress"});
  EXPECT_EQ(run_cli(argv), 1);

  const std::string plain_text = slurp(plain.path);
  ASSERT_FALSE(plain_text.empty());
  EXPECT_EQ(plain_text, slurp(instrumented.path));

  // The instrumented run actually counted its work...
  const Json mdoc = Json::parse(slurp(metrics.path));
  const MetricsSnapshot merged =
      MetricsSnapshot::from_json(mdoc.at("merged"));
  EXPECT_GE(merged.counters.at("explore.schedules"), 1u);
  EXPECT_GE(merged.counters.at("explore.steps"), 1u);
  EXPECT_GE(merged.counters.at("explore.violations"), 1u);
  EXPECT_GE(merged.counters.at("explore.shrink_replays"), 1u);
  // Real shrink replays: at least the reproduction, at most one per
  // candidate judged.
  EXPECT_GE(merged.counters.at("explore.shrink_runs"), 1u);
  EXPECT_LE(merged.counters.at("explore.shrink_runs"),
            merged.counters.at("explore.shrink_replays"));
  // ...and traced its schedules and its shrink.
  const Json tdoc = Json::parse(slurp(trace.path));
  const Json& events = tdoc.at("traceEvents");
  ASSERT_FALSE(events.items().empty());
  std::set<std::string> names;
  for (const Json& e : events.items()) {
    for (const char* key : {"name", "cat", "ph", "ts", "dur", "pid", "tid"}) {
      EXPECT_NE(e.find(key), nullptr) << key << " missing: " << e.dump();
    }
    EXPECT_EQ(e.at("ph").as_string(), "X") << e.dump();
    names.insert(e.at("name").as_string());
  }
  EXPECT_EQ(names.count("explore.schedule"), 1u);
  EXPECT_EQ(names.count("explore.shrink"), 1u);
  set_tracing_enabled(false);
  reset_trace();
}

// The crash-window exhibit: a (schedule x crash) product search whose
// every violation needs a crash exits 4, and --metrics counts them.
TEST(Sidecar, CrashSearchCountsCrashViolations) {
  TempFile metrics("obs_crash_metrics.json");
  metrics_registry().reset();
  ASSERT_EQ(run_cli({"mpcn", "explore", "safe_agreement_window", "--in",
                     "2,1,1", "--policy", "dfs", "--bound", "0", "--budget",
                     "200", "--steps", "400", "--crash-budget", "1",
                     "--metrics", metrics.path}),
            4);
  const MetricsSnapshot merged = MetricsSnapshot::from_json(
      Json::parse(slurp(metrics.path)).at("merged"));
  EXPECT_GE(merged.counters.at("explore.crash_violations"), 1u);
}

// The acceptance property: a sharded explore produces one pool-wide
// snapshot whose counters equal process + sum of per-worker snapshots.
TEST(Sidecar, ShardedMetricsMergeToTheSumOfTheirParts) {
  TempFile report("obs_shard_report.json");
  TempFile metrics("obs_shard_metrics.json");
  metrics_registry().reset();
  ASSERT_EQ(run_cli({"mpcn", "explore", "snapshot_churn", "--in", "2,0,1",
                     "--policy", "random", "--budget", "6", "--seed", "3",
                     "--shards", "2", "--fork-workers",
                     "--json", report.path, "--metrics", metrics.path}),
            0);

  const Json doc = Json::parse(slurp(metrics.path));
  const MetricsSnapshot process =
      MetricsSnapshot::from_json(doc.at("process"));
  const Json& workers = doc.at("workers");
  ASSERT_EQ(workers.items().size(), 2u);  // both workers shipped one

  // Recompute the merge independently, field-wise, and compare against
  // the published pool-wide snapshot.
  MetricsSnapshot expect = process;
  std::uint64_t worker_cells = 0;
  for (const Json& w : workers.items()) {
    const MetricsSnapshot ws = MetricsSnapshot::from_json(w);
    const auto it = ws.counters.find("worker.cells_served");
    if (it != ws.counters.end()) worker_cells += it->second;
    expect.merge(ws);
  }
  const MetricsSnapshot merged =
      MetricsSnapshot::from_json(doc.at("merged"));
  EXPECT_EQ(merged.to_json().dump(), expect.to_json().dump());

  // The workers did the cell running, and the pool saw them do it.
  EXPECT_GE(worker_cells, 1u);
  EXPECT_EQ(merged.counters.at("worker.cells_served"), worker_cells);
  EXPECT_GE(merged.counters.at("shard.cells_dispatched"), worker_cells);
}

}  // namespace
}  // namespace mpcn
