// Tests: src/cli — argument parsing and the mpcn subcommands, driven
// in-process through cli_main (the binary is a one-line shell over it).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/cli/args.h"
#include "src/cli/cli.h"
#include "src/common/errors.h"
#include "src/experiment/record.h"
#include "src/experiment/registry.h"
#include "src/obs/progress.h"
#include "src/obs/spans.h"

namespace mpcn {
namespace {

// Run cli_main on a shell-style argv, capturing stdout.
int run_cli(std::vector<std::string> argv_s, std::string* out = nullptr) {
  std::vector<char*> argv;
  argv.reserve(argv_s.size());
  for (std::string& a : argv_s) argv.push_back(a.data());
  testing::internal::CaptureStdout();
  const int code = cli_main(static_cast<int>(argv.size()), argv.data());
  const std::string captured = testing::internal::GetCapturedStdout();
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

// Write one JSON value to `path`, as --record would.
void write_json(const std::string& path, const Json& j) {
  std::ofstream out(path);
  out << j.dump(2) << "\n";
}

// The sharded commands the sidecar tests drive: a 12-schedule explore
// over three fork-mode workers (twelve one-schedule ranges) and a
// four-seed grid over two.
std::vector<std::string> sharded_explore(const std::string& json) {
  return {"mpcn",     "explore", "snapshot_churn", "--in",   "3,0,1",
          "--inputs", "10,11,12", "--budget",      "12",     "--seed",
          "1",        "--shards", "3",             "--fork-workers",
          "--json",   json};
}

std::vector<std::string> sharded_run(const std::string& json) {
  return {"mpcn",   "run",          "snapshot_churn", "--in",
          "3,0,1",  "--inputs",     "10,11,12",       "--seeds",
          "1..4",   "--shards",     "2",              "--fork-workers",
          "--json", json,           "--no-timing"};
}

std::vector<std::string> with_flags(std::vector<std::string> argv,
                                    const std::vector<std::string>& more) {
  argv.insert(argv.end(), more.begin(), more.end());
  return argv;
}

// worker_spawn events per slot in an --events log.
std::map<std::int64_t, int> spawns_per_slot(const std::string& path) {
  std::map<std::int64_t, int> spawns;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const Json e = Json::parse(line);
    if (e.at("type").as_string() == "worker_spawn") {
      ++spawns[e.at("slot").as_int()];
    }
  }
  return spawns;
}

TEST(Args, FlagSyntaxAndPositionals) {
  const char* argv_c[] = {"mpcn", "run",    "snapshot_churn", "--in",
                          "3,0,1", "--seeds=1..4", "--no-timing"};
  char** argv = const_cast<char**>(argv_c);
  Args args(7, argv, 2, {"in", "seeds"}, {"no-timing"});
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "snapshot_churn");
  EXPECT_EQ(args.require("in"), "3,0,1");
  EXPECT_EQ(args.require("seeds"), "1..4");
  EXPECT_TRUE(args.has("no-timing"));
  EXPECT_FALSE(args.has("json"));
  EXPECT_EQ(args.value_or("json", "fallback"), "fallback");
}

TEST(Args, RejectsMalformedInvocations) {
  const char* unknown_c[] = {"mpcn", "run", "--bogus", "1"};
  char** unknown = const_cast<char**>(unknown_c);
  EXPECT_THROW(Args(4, unknown, 2, {"in"}, {}), ProtocolError);

  const char* dangling_c[] = {"mpcn", "run", "--in"};
  char** dangling = const_cast<char**>(dangling_c);
  EXPECT_THROW(Args(3, dangling, 2, {"in"}, {}), ProtocolError);

  const char* boolval_c[] = {"mpcn", "run", "--no-timing=yes"};
  char** boolval = const_cast<char**>(boolval_c);
  EXPECT_THROW(Args(3, boolval, 2, {}, {"no-timing"}), ProtocolError);

  const char* missing_c[] = {"mpcn", "run"};
  char** missing = const_cast<char**>(missing_c);
  const Args args(2, missing, 2, {"in"}, {});
  EXPECT_THROW(args.require("in"), ProtocolError);

  // A repeated value flag is a contradictory invocation, not last-wins.
  const char* twice_c[] = {"mpcn", "run", "--in", "3,0,1", "--in", "4,0,1"};
  char** twice = const_cast<char**>(twice_c);
  EXPECT_THROW(Args(6, twice, 2, {"in"}, {}), ProtocolError);
}

TEST(Args, ParseModelSpec) {
  const ModelSpec m = parse_model_spec("8,5,3");
  EXPECT_EQ(m, (ModelSpec{8, 5, 3}));
  EXPECT_THROW(parse_model_spec("8,5"), ProtocolError);
  EXPECT_THROW(parse_model_spec("8,5,3,1"), ProtocolError);
  EXPECT_THROW(parse_model_spec("a,b,c"), ProtocolError);
  EXPECT_THROW(parse_model_spec("3,9,1"), ProtocolError);  // t >= n
}

TEST(Cli, UsageAndUnknownCommands) {
  EXPECT_EQ(run_cli({"mpcn"}), 2);
  EXPECT_EQ(run_cli({"mpcn", "frobnicate"}), 2);
  std::string out;
  EXPECT_EQ(run_cli({"mpcn", "help"}, &out), 0);
  EXPECT_NE(out.find("run <scenario>"), std::string::npos);
  // Shard workers are forked, so there is no worker command to exec.
  EXPECT_EQ(run_cli({"mpcn", "worker"}), 2);
  EXPECT_EQ(run_cli({"mpcn", "--help"}, &out), 0);
  EXPECT_NE(out.find("explore <scenario>"), std::string::npos);
  EXPECT_EQ(out.find("\n  worker "), std::string::npos) << out;
}

TEST(Cli, ListEnumeratesRegistryWithAxisColumns) {
  std::string out;
  ASSERT_EQ(run_cli({"mpcn", "list"}, &out), 0);
  EXPECT_NE(out.find("snapshot_churn"), std::string::npos);
  EXPECT_NE(out.find("trivial_kset"), std::string::npos);
  EXPECT_NE(out.find("colored"), std::string::npos);
  EXPECT_NE(out.find("axis"), std::string::npos);
  EXPECT_NE(out.find("x=1 t=0 n>=2"), std::string::npos);  // racy_register
}

TEST(Cli, ListJsonIsMachineReadable) {
  std::string out;
  ASSERT_EQ(run_cli({"mpcn", "list", "--json"}, &out), 0);
  const Json arr = Json::parse(out);
  ASSERT_TRUE(arr.is_array());
  ASSERT_EQ(arr.size(), scenario_registry().size());
  bool saw_racy = false;
  for (const Json& j : arr.items()) {
    EXPECT_TRUE(j.find("name") && j.find("axis") && j.find("colored") &&
                j.find("has_task") && j.find("description"));
    if (j.at("name").as_string() == "racy_register") {
      saw_racy = true;
      EXPECT_EQ(j.at("axis").as_string(), "x=1 t=0 n>=2");
      EXPECT_TRUE(j.at("has_task").as_bool());
      EXPECT_FALSE(j.at("colored").as_bool());
    }
  }
  EXPECT_TRUE(saw_racy);
}

TEST(Cli, ExploreFindsSeededBugAndWritesReport) {
  TempFile json("cli_explore_report.json");
  TempFile sharded("cli_explore_report_shards.json");
  TempFile shrunk("cli_explore_shrunk.json");
  // A budget-200 search of the exhibit, its report written to `report`.
  const auto search = [](const std::vector<std::string>& flags,
                         const std::string& report) {
    return run_cli(with_flags({"mpcn", "explore", "racy_register", "--in",
                               "2,0,1", "--budget", "200", "--json", report},
                              flags));
  };
  // Exit 1 signals "violation found" (parallel to diff's regressions).
  ASSERT_EQ(search({"--policy", "pct", "--seed", "1"}, json.path), 1);
  const Json report = Json::parse(slurp(json.path));
  EXPECT_TRUE(report.at("found").as_bool());
  EXPECT_EQ(report.at("policy").as_string(), "pct");
  const Json& v = report.at("violation_details").at(0);
  EXPECT_TRUE(v.at("shrunk_verified").as_bool());
  EXPECT_LE(v.at("shrunk_len").as_int(), 14);
  EXPECT_NE(v.at("why").as_string().find("validity"), std::string::npos)
      << v.at("why").dump();

  // The shrunk counterexample fails again on replay.
  write_json(shrunk.path, v.at("shrunk_trace"));
  std::string out;
  EXPECT_EQ(run_cli({"mpcn", "explore", "racy_register", "--in", "2,0,1",
                     "--replay", shrunk.path},
                    &out),
            1)
      << out;

  // Two fork-mode shard workers write the in-process report byte for
  // byte, on the failing search and on a clean one.
  const std::vector<std::string> shards = {"--shards", "2",
                                           "--fork-workers"};
  ASSERT_EQ(search(with_flags({"--policy", "pct", "--seed", "1"}, shards),
                   sharded.path),
            1);
  EXPECT_EQ(slurp(json.path), slurp(sharded.path));
  ASSERT_EQ(search({"--policy", "random", "--seed", "7"}, json.path), 0);
  ASSERT_EQ(search(with_flags({"--policy", "random", "--seed", "7"}, shards),
                   sharded.path),
            0);
  EXPECT_EQ(slurp(json.path), slurp(sharded.path));
  EXPECT_FALSE(slurp(json.path).empty());
}

TEST(Cli, ExploreCleanScenarioExitsZero) {
  std::string out;
  ASSERT_EQ(run_cli({"mpcn", "explore", "snapshot_churn", "--in", "2,0,1",
                     "--policy", "random", "--budget", "3"},
                    &out),
            0);
}

TEST(Cli, ExploreSummarySaysWhenLinChecksWereSkipped) {
  // Every Afek history of this cell is longer than the linearizability
  // checker's cap, so none of the 21 schedules nor the PCT probe was
  // judged against the spec. The exit code and --json stay those of a
  // clean search; the summary line says what was not checked.
  std::string out;
  ASSERT_EQ(run_cli({"mpcn", "explore", "snapshot_churn", "--in", "3,0,1",
                     "--mem", "afek", "--policy", "pct", "--budget", "21",
                     "--check-lin"},
                    &out),
            0);
  EXPECT_NE(out.find("pct: 21 schedule(s), no violations, 22 lin check(s) "
                     "skipped (history over 64 ops)\n"),
            std::string::npos)
      << out;
}

TEST(Cli, ExploreRejectsCrashBudgetAboveT) {
  // racy_register's model ASM(2,0,1) tolerates no crash at all.
  EXPECT_EQ(run_cli({"mpcn", "explore", "racy_register", "--in", "2,0,1",
                     "--budget", "3", "--crash-budget", "1"}),
            2);
}

TEST(Cli, IntegerFlagsAboveIntMaxAreRejected) {
  // Cast to int, 2^32 + 1 would wrap to crash budget 1 and 2^32 to
  // bound 0, both silently legal.
  EXPECT_EQ(run_cli({"mpcn", "explore", "safe_agreement_window", "--in",
                     "2,1,1", "--policy", "dfs", "--bound", "1",
                     "--crash-budget", "4294967297", "--steps", "400",
                     "--budget", "5"}),
            2);
  EXPECT_EQ(run_cli({"mpcn", "explore", "safe_agreement_window", "--in",
                     "2,1,1", "--policy", "dfs", "--bound", "4294967296",
                     "--crash-budget", "1", "--steps", "400", "--budget",
                     "5"}),
            2);
}

TEST(Cli, ExploreRecordReplayRoundTripsByteIdentically) {
  TempFile t1("cli_trace_1.json");
  TempFile t2("cli_trace_2.json");
  ASSERT_EQ(run_cli({"mpcn", "explore", "racy_register", "--in", "2,0,1",
                     "--policy", "random", "--budget", "1", "--seed", "7",
                     "--record", t1.path}),
            0);
  std::string out;
  ASSERT_EQ(run_cli({"mpcn", "explore", "racy_register", "--in", "2,0,1",
                     "--replay", t1.path, "--record", t2.path},
                    &out),
            0);
  EXPECT_NE(out.find("replay: ok"), std::string::npos) << out;
  EXPECT_EQ(slurp(t1.path), slurp(t2.path));
  EXPECT_FALSE(slurp(t1.path).empty());
}

TEST(Cli, RunRejectsBadInvocations) {
  EXPECT_EQ(run_cli({"mpcn", "run"}), 2);  // no scenario
  EXPECT_EQ(run_cli({"mpcn", "run", "no_such", "--in", "3,0,1"}), 2);
  EXPECT_EQ(run_cli({"mpcn", "run", "snapshot_churn"}), 2);  // no --in
  EXPECT_EQ(run_cli({"mpcn", "run", "snapshot_churn", "--in", "3,0,1",
                     "--seeds", "4..1"}),
            2);
  EXPECT_EQ(run_cli({"mpcn", "run", "snapshot_churn", "--in", "3,0,1",
                     "--mode", "direct", "--source", "4,0,1"}),
            2);
  EXPECT_EQ(run_cli({"mpcn", "run", "snapshot_churn", "--in", "3,0,1",
                     "--crash-max", "1"}),
            2);  // --crash-max without --crash-p
  EXPECT_EQ(run_cli({"mpcn", "run", "trivial_kset", "--in", "4,1,1",
                     "--crash-p", "0.5", "--crash-max", "3", "--seeds",
                     "1..3"}),
            2);  // three crashes are outside ASM(4,1,1)
}

// A limit no run can meet is a usage error, not a verdict: a zero step
// or wall limit would time every run out, and PCT needs at least one
// priority level, in-process or sharded.
TEST(Cli, LimitsNoRunCanMeetAreUsageErrors) {
  const std::vector<std::string> search = {
      "mpcn", "explore", "snapshot_churn", "--in", "3,0,1", "--budget", "5"};
  EXPECT_EQ(run_cli(with_flags(search, {"--steps", "0"})), 2);
  EXPECT_EQ(run_cli(with_flags(search, {"--wall", "0"})), 2);
  EXPECT_EQ(run_cli(with_flags(search, {"--pct-depth", "0"})), 2);
  EXPECT_EQ(
      run_cli(with_flags(search, {"--pct-depth", "0", "--shards", "2"})), 2);
  EXPECT_EQ(run_cli({"mpcn", "run", "snapshot_churn", "--in", "3,0,1",
                     "--seeds", "1..4", "--wall", "0"}),
            2);
}

// `run` fails when a cell is not ok, not only when one raised an error:
// five steps time the churn cell out. The summary line still prints.
TEST(Cli, RunExitsOneWhenACellIsNotOk) {
  std::string out;
  EXPECT_EQ(run_cli({"mpcn", "run", "snapshot_churn", "--in", "3,0,1",
                     "--steps", "5"},
                    &out),
            1);
  EXPECT_NE(out.find("0/1 cells ok"), std::string::npos) << out;
  EXPECT_EQ(run_cli({"mpcn", "run", "snapshot_churn", "--in", "3,0,1",
                     "--seeds", "1..2"},
                    &out),
            0);
  EXPECT_NE(out.find("2/2 cells ok"), std::string::npos) << out;
}

// In-process, over two workers, and with the --fork-workers flag that
// selects nothing: the same report bytes.
TEST(Cli, RunShardedMatchesInProcessAndDiffsClean) {
  TempFile local("cli_test_local.json");
  TempFile shard("cli_test_shard.json");
  TempFile fork("cli_test_fork.json");
  const auto grid = [](const std::string& json) {
    return std::vector<std::string>{
        "mpcn",    "run",    "snapshot_churn", "--in",       "3,0,1",
        "--seeds", "1..4",   "--json",         json,         "--no-timing"};
  };
  ASSERT_EQ(run_cli(grid(local.path)), 0);
  ASSERT_EQ(run_cli(with_flags(grid(shard.path), {"--shards", "2"})), 0);
  ASSERT_EQ(run_cli(with_flags(grid(fork.path),
                               {"--shards", "2", "--fork-workers"})),
            0);
  const std::string local_text = slurp(local.path);
  ASSERT_FALSE(local_text.empty());
  EXPECT_EQ(local_text, slurp(shard.path));
  EXPECT_EQ(local_text, slurp(fork.path));

  std::string out;
  EXPECT_EQ(run_cli({"mpcn", "diff", local.path, shard.path}, &out), 0);
  EXPECT_NE(out.find("no regressions"), std::string::npos);
}

// An in-process run or search never starts a second thread, and
// --shards is the one way to use more cores: --threads is an unknown
// flag, a usage error with or without --shards.
TEST(Cli, ThreadsIsAnUnknownFlag) {
  for (const char* n : {"1", "2"}) {
    EXPECT_EQ(run_cli({"mpcn", "run", "snapshot_churn", "--in", "3,0,1",
                       "--seeds", "1..2", "--threads", n}),
              2);
    EXPECT_EQ(run_cli({"mpcn", "explore", "racy_register", "--in", "2,0,1",
                       "--budget", "10", "--threads", n}),
              2);
  }
  EXPECT_EQ(run_cli({"mpcn", "run", "snapshot_churn", "--in", "3,0,1",
                     "--seeds", "1..2", "--shards", "2", "--fork-workers",
                     "--threads", "2"}),
            2);
}

// The Figure 7 equivalence chains, one cell per hop: every hop of every
// chain solves its task, and every record carries the keys report
// tooling reads.
TEST(Cli, Figure7ChainsSolveEveryHop) {
  const std::vector<std::vector<std::string>> chains = {
      {"trivial_kset", "4,1,1", "5,3,2"},
      {"group_kset", "4,2,2", "6,1,1"},
      {"trivial_kset", "6,2,1", "7,5,2"}};
  std::int64_t ok = 0;
  std::int64_t cells = 0;
  for (const std::vector<std::string>& c : chains) {
    SCOPED_TRACE(c[0] + " " + c[1] + " -> " + c[2]);
    std::string out;
    ASSERT_EQ(run_cli({"mpcn", "run", c[0], "--source", c[1], "--in", c[2],
                       "--mode", "chain", "--no-timing", "--json", "-"},
                      &out),
              0);
    const Json report = Json::parse(out);
    const std::int64_t n = report.at("cells").as_int();
    EXPECT_GT(n, 0);
    EXPECT_EQ(report.at("ok").as_int(), n);
    EXPECT_EQ(static_cast<std::int64_t>(report.at("records").size()), n);
    for (const Json& rec : report.at("records").items()) {
      for (const char* key :
           {"scenario", "mode", "target", "seed", "steps", "ok"}) {
        EXPECT_NE(rec.find(key), nullptr) << key;
      }
      ASSERT_NE(rec.find("scheduler"), nullptr);
      EXPECT_EQ(rec.at("scheduler").as_string(), "lockstep");
    }
    ok += report.at("ok").as_int();
    cells += n;
  }
  EXPECT_EQ(ok, 12);
  EXPECT_EQ(cells, 12);
}

TEST(Cli, DiffFlagsInjectedStepRegression) {
  TempFile a("cli_test_diff_a.json");
  TempFile b("cli_test_diff_b.json");
  ASSERT_EQ(run_cli({"mpcn", "run", "snapshot_churn", "--in", "3,0,1",
                     "--seeds", "1..2", "--json", a.path, "--no-timing"}),
            0);
  // Inject a step-count regression into a copy of the report.
  Report doctored = Report::from_json(Json::parse(slurp(a.path)));
  ASSERT_FALSE(doctored.records.empty());
  doctored.records[0].steps += 100;
  {
    std::ofstream out(b.path);
    out << doctored.to_json(false).dump(2) << "\n";
  }
  std::string out;
  EXPECT_EQ(run_cli({"mpcn", "diff", a.path, b.path}, &out), 1);
  EXPECT_NE(out.find("STEP REGRESSION"), std::string::npos);
  EXPECT_EQ(out.find("no regressions"), std::string::npos);
}

TEST(Cli, DiffRefusesAReportOfAnotherScheduler) {
  // Every run is lock-step. A record of another scheduler (a report of
  // the removed free mode) describes a run this build cannot reproduce,
  // so it is refused, and `mpcn diff` exits 2 instead of pairing it with
  // a lock-step run.
  TempFile a("cli_test_sched_a.json");
  TempFile b("cli_test_sched_b.json");
  ASSERT_EQ(run_cli({"mpcn", "run", "snapshot_churn", "--in", "3,0,1",
                     "--json", a.path, "--no-timing"}),
            0);
  std::string text = slurp(a.path);
  const std::string lockstep = "\"scheduler\": \"lockstep\"";
  const std::size_t at = text.find(lockstep);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, lockstep.size(), "\"scheduler\": \"free\"");
  {
    std::ofstream out(b.path);
    out << text;
  }
  EXPECT_THROW(Report::from_json(Json::parse(text)), ProtocolError);
  EXPECT_EQ(run_cli({"mpcn", "diff", a.path, b.path}), 2);
  EXPECT_EQ(run_cli({"mpcn", "diff", a.path, a.path}), 0);
}

TEST(Cli, DiffRejectsMissingFiles) {
  EXPECT_EQ(run_cli({"mpcn", "diff", "no_such_a.json", "no_such_b.json"}),
            2);
  EXPECT_EQ(run_cli({"mpcn", "diff", "only_one.json"}), 2);
}

TEST(Cli, InputPoolsMayRepeatValues) {
  // All processes proposing the same value is the classic agreement
  // case; the pool parser must not dedupe.
  std::string out;
  ASSERT_EQ(run_cli({"mpcn", "run", "snapshot_churn", "--in", "3,0,1",
                     "--inputs", "7,7,7", "--json", "-", "--no-timing"},
                    &out),
            0);
  const Report rep = Report::from_json(Json::parse(out));
  ASSERT_EQ(rep.records.size(), 1u);
  EXPECT_EQ(rep.records[0].inputs,
            (std::vector<Value>{Value(7), Value(7), Value(7)}));
}

TEST(Cli, SeedListAxisAndJsonToStdout) {
  std::string out;
  ASSERT_EQ(run_cli({"mpcn", "run", "snapshot_churn", "--in", "3,0,1",
                     "--seeds", "2,5", "--json", "-", "--no-timing"},
                    &out),
            0);
  const Report rep = Report::from_json(Json::parse(out));
  ASSERT_EQ(rep.records.size(), 2u);
  EXPECT_EQ(rep.records[0].seed, 2u);
  EXPECT_EQ(rep.records[1].seed, 5u);
  EXPECT_EQ(rep.records[0].cell_index, 0);
  EXPECT_EQ(rep.records[1].cell_index, 1);
}

// Clean scenarios stay silent under the race oracle: 300 seeded
// schedules each exit 0, the benchmark's Afek churn cell under PCT too.
TEST(Cli, ExploreCleanScenariosExitZeroWithRaceChecks) {
  const std::vector<std::vector<std::string>> cells = {
      {"step_churn", "--in", "3,0,1", "--policy", "random"},
      {"snapshot_churn", "--in", "3,0,1", "--policy", "random"},
      {"trivial_kset", "--in", "3,1,1", "--policy", "random"},
      {"snapshot_churn", "--in", "3,0,1", "--mem", "afek", "--policy",
       "pct"},
  };
  for (const std::vector<std::string>& cell : cells) {
    std::string out;
    EXPECT_EQ(run_cli(with_flags(with_flags({"mpcn", "explore"}, cell),
                                 {"--budget", "300", "--seed", "7",
                                  "--check-races"}),
                      &out),
              0)
        << cell.front() << ": " << out;
    EXPECT_NE(out.find(": 300 schedule(s), no violations"),
              std::string::npos)
        << out;
  }
}

// A race exits 3, on search and on replay of its shrunk trace: bounded
// DFS at preemption bound 1 finds racy_register's torn pair write.
TEST(Cli, ExploreRaceExitsThreeOnSearchAndReplay) {
  TempFile report("cli_race_report.json");
  TempFile shrunk("cli_race_shrunk.json");
  ASSERT_EQ(run_cli({"mpcn", "explore", "racy_register", "--in", "2,0,1",
                     "--policy", "dfs", "--bound", "1", "--budget", "200",
                     "--check-races", "--json", report.path}),
            3);
  const Json result = Json::parse(slurp(report.path));
  EXPECT_TRUE(result.at("race_found").as_bool());
  EXPECT_GE(result.at("race_reports").as_int(), 1);
  const Json& v = result.at("violation_details").at(0);
  EXPECT_TRUE(v.at("race").as_bool());
  EXPECT_TRUE(v.at("shrunk_verified").as_bool());
  const Json& race = v.at("record").at("race_reports").at(0);
  EXPECT_EQ(race.at("kind").as_string(), "torn_window");
  EXPECT_NE(race.at("why").as_string().find("torn window"),
            std::string::npos);
  EXPECT_FALSE(race.at("schedule_digest").as_string().empty());

  write_json(shrunk.path, v.at("shrunk_trace"));
  std::string out;
  EXPECT_EQ(run_cli({"mpcn", "explore", "racy_register", "--in", "2,0,1",
                     "--check-races", "--replay", shrunk.path},
                    &out),
            3);
  EXPECT_NE(out.find("replay: RACE"), std::string::npos) << out;
}

// A violation that needs an injected crash exits 4, on search and on
// replay: safe_agreement_window is clean under every crash-free
// schedule, and livelocks when a crash strands a claim mid-window.
TEST(Cli, ExploreCrashOnlyViolationExitsFourOnSearchAndReplay) {
  TempFile report("cli_crash_report.json");
  TempFile shrunk("cli_crash_shrunk.json");
  ASSERT_EQ(run_cli({"mpcn", "explore", "safe_agreement_window", "--in",
                     "2,1,1", "--policy", "dfs", "--bound", "0", "--budget",
                     "200", "--steps", "400", "--crash-budget", "1",
                     "--json", report.path}),
            4);
  const Json result = Json::parse(slurp(report.path));
  EXPECT_TRUE(result.at("crash_found").as_bool());
  EXPECT_TRUE(result.at("crash_only").as_bool());
  const Json& v = result.at("violation_details").at(0);
  EXPECT_TRUE(v.at("crashed").as_bool());
  EXPECT_TRUE(v.at("shrunk_verified").as_bool());
  const Json& rec = v.at("record");
  EXPECT_EQ(rec.at("crash_plan").at("kind").as_string(), "explored");
  EXPECT_EQ(rec.at("crash_points").size(), 1u);
  EXPECT_TRUE(rec.at("timed_out").as_bool());

  write_json(shrunk.path, v.at("shrunk_trace"));
  std::string out;
  EXPECT_EQ(run_cli({"mpcn", "explore", "safe_agreement_window", "--in",
                     "2,1,1", "--steps", "400", "--replay", shrunk.path},
                    &out),
            4);
  EXPECT_NE(out.find("replay: CRASH VIOLATION"), std::string::npos) << out;
  // The replay says why, in the search's words.
  EXPECT_NE(out.find("timed out (liveness)"), std::string::npos) << out;
}

// --progress follows the TTY rule on the sharded backend too: under a
// redirected stderr (ctest, CI logs) it prints nothing, like the
// in-process backends.
TEST(Cli, ShardedProgressIsSilentWhenStderrIsNotATty) {
  TempFile json("cli_progress.json");
  testing::internal::CaptureStderr();
  const int code = run_cli(with_flags(sharded_run(json.path), {"--progress"}));
  const std::string err = testing::internal::GetCapturedStderr();
  ASSERT_EQ(code, 0);
  EXPECT_EQ(err.find("[shard]"), std::string::npos) << err;
  if (!progress_allowed()) {
    EXPECT_EQ(err.find(" cells ("), std::string::npos) << err;
  }
}

// Every sidecar on (streaming heartbeats, merged trace, flight recorder,
// metrics, health table) leaves the report bytes of a sharded explore
// and a sharded run unchanged; every slot heartbeats and logs its spawn.
TEST(Cli, ShardedSidecarsLeaveReportBytesUnchanged) {
  TempFile plain("cli_sidecar_plain.json");
  TempFile on("cli_sidecar_on.json");
  TempFile events("cli_sidecar_events.jsonl");
  TempFile health("cli_sidecar_health.json");
  TempFile metrics("cli_sidecar_metrics.json");
  TempFile trace("cli_sidecar_trace.json");
  const std::vector<std::string> sidecars = {
      "--telemetry-ms", "25",           "--events", events.path,
      "--health",       health.path,    "--metrics", metrics.path,
      "--trace",        trace.path};

  ASSERT_EQ(run_cli(sharded_explore(plain.path)), 0);
  ASSERT_EQ(run_cli(with_flags(sharded_explore(on.path), sidecars)), 0);
  set_tracing_enabled(false);
  EXPECT_FALSE(slurp(plain.path).empty());
  EXPECT_EQ(slurp(plain.path), slurp(on.path));
  const Json slots = Json::parse(slurp(health.path));
  ASSERT_EQ(slots.size(), 3u);
  for (const Json& h : slots.items()) {
    EXPECT_GE(h.at("heartbeats").as_int(), 1) << h.dump();
    EXPECT_FALSE(h.at("written_off").as_bool()) << h.dump();
  }
  EXPECT_EQ(spawns_per_slot(events.path),
            (std::map<std::int64_t, int>{{0, 1}, {1, 1}, {2, 1}}));

  ASSERT_EQ(run_cli(sharded_run(plain.path)), 0);
  ASSERT_EQ(run_cli(with_flags(sharded_run(on.path), sidecars)), 0);
  set_tracing_enabled(false);
  EXPECT_EQ(slurp(plain.path), slurp(on.path));
  EXPECT_EQ(Json::parse(slurp(health.path)).size(), 2u);
  EXPECT_EQ(spawns_per_slot(events.path),
            (std::map<std::int64_t, int>{{0, 1}, {1, 1}}));
}

// MPCN_WORKER_STOP_AFTER freezes slot 0 on receiving its first job,
// before serving it. Only heartbeat age can notice: the slot is written
// off as stale, its range reruns on the live slot 1, and the report
// bytes do not change.
TEST(Cli, FrozenWorkerIsWrittenOffAsStaleWithReportUnchanged) {
  TempFile plain("cli_stale_plain.json");
  TempFile stopped("cli_stale_stopped.json");
  TempFile health("cli_stale_health.json");
  const auto search = [](const std::string& json) {
    return std::vector<std::string>{
        "mpcn",     "explore", "snapshot_churn", "--in",     "3,0,1",
        "--inputs", "10,11,12", "--budget",      "2",        "--seed",
        "1",        "--shards", "2",             "--json",   json};
  };
  ASSERT_EQ(run_cli(search(plain.path)), 0);
  ::setenv("MPCN_WORKER_STOP_AFTER", "1,0", 1);
  const int code = run_cli(with_flags(
      search(stopped.path),
      {"--telemetry-ms", "25", "--stale-ms", "500", "--health", health.path}));
  ::unsetenv("MPCN_WORKER_STOP_AFTER");
  ASSERT_EQ(code, 0);
  EXPECT_EQ(slurp(plain.path), slurp(stopped.path));
  const Json slots = Json::parse(slurp(health.path));
  const Json& slot0 = slots.at(0);
  EXPECT_TRUE(slot0.at("written_off").as_bool()) << slot0.dump();
  EXPECT_EQ(slot0.at("write_off_reason").as_string(), "heartbeat stale");
  EXPECT_FALSE(slots.at(1).at("written_off").as_bool()) << slots.dump();
}

// A staleness threshold without the heartbeat it measures is a usage
// error: an unarmed worker is rightfully silent between jobs.
TEST(Cli, StaleMsWithoutTelemetryMsIsAUsageError) {
  EXPECT_EQ(run_cli(with_flags(sharded_explore("cli_stale_usage.json"),
                               {"--stale-ms", "500"})),
            2);
  EXPECT_EQ(run_cli(with_flags(sharded_run("cli_stale_usage.json"),
                               {"--stale-ms", "500"})),
            2);
}

}  // namespace
}  // namespace mpcn
