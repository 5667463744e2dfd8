// Tests: src/cli — argument parsing and the mpcn subcommands, driven
// in-process through cli_main (the binary is a one-line shell over it).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/cli/args.h"
#include "src/cli/cli.h"
#include "src/common/errors.h"
#include "src/experiment/record.h"
#include "src/experiment/registry.h"

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
  std::string out;
  // Exit 1 signals "violation found" (parallel to diff's regressions).
  ASSERT_EQ(run_cli({"mpcn", "explore", "racy_register", "--in", "2,0,1",
                     "--policy", "pct", "--budget", "200", "--seed", "1",
                     "--json", json.path},
                    &out),
            1);
  const Json report = Json::parse(slurp(json.path));
  EXPECT_TRUE(report.at("found").as_bool());
  EXPECT_EQ(report.at("policy").as_string(), "pct");
  const Json& v = report.at("violation_details").at(0);
  EXPECT_TRUE(v.at("shrunk_verified").as_bool());
  EXPECT_LE(v.at("shrunk_len").as_int(), 14);
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
}

TEST(Cli, RunShardedMatchesInProcessAndDiffsClean) {
  TempFile local("cli_test_local.json");
  TempFile shard("cli_test_shard.json");
  ASSERT_EQ(run_cli({"mpcn", "run", "snapshot_churn", "--in", "3,0,1",
                     "--seeds", "1..4", "--json", local.path,
                     "--no-timing"}),
            0);
  // Fork-mode workers: the test binary cannot exec itself as `mpcn`.
  ASSERT_EQ(run_cli({"mpcn", "run", "snapshot_churn", "--in", "3,0,1",
                     "--seeds", "1..4", "--shards", "2", "--fork-workers",
                     "--json", shard.path, "--no-timing"}),
            0);
  const std::string local_text = slurp(local.path);
  ASSERT_FALSE(local_text.empty());
  EXPECT_EQ(local_text, slurp(shard.path));

  std::string out;
  EXPECT_EQ(run_cli({"mpcn", "diff", local.path, shard.path}, &out), 0);
  EXPECT_NE(out.find("no regressions"), std::string::npos);
}

// --threads sizes the in-process pool; a shard worker runs its cells on
// one thread, so asking for both is a usage error, not a silent no-op.
TEST(Cli, ThreadsAboveOneWithShardsIsAUsageError) {
  EXPECT_EQ(run_cli({"mpcn", "run", "snapshot_churn", "--in", "3,0,1",
                     "--seeds", "1..2", "--shards", "2", "--fork-workers",
                     "--threads", "2"}),
            2);
  EXPECT_EQ(run_cli({"mpcn", "explore", "racy_register", "--in", "2,0,1",
                     "--budget", "10", "--shards", "2", "--fork-workers",
                     "--threads", "4"}),
            2);
  // One thread is what a shard worker runs anyway.
  EXPECT_EQ(run_cli({"mpcn", "run", "snapshot_churn", "--in", "3,0,1",
                     "--seeds", "1..2", "--shards", "2", "--fork-workers",
                     "--threads", "1", "--no-timing"}),
            0);
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

}  // namespace
}  // namespace mpcn
