// Tests: src/experiment/diff — report comparison and regression
// detection behind `mpcn diff`.
#include <gtest/gtest.h>

#include "src/experiment/diff.h"

namespace mpcn {
namespace {

RunRecord record(std::uint64_t seed, std::uint64_t steps,
                 const std::string& error = "") {
  RunRecord r;
  r.scenario = "snapshot_churn";
  r.cell_index = static_cast<int>(seed) - 1;
  r.mode = ExecutionMode::kDirect;
  r.source = ModelSpec{3, 0, 1};
  r.target = ModelSpec{3, 0, 1};
  r.seed = seed;
  r.decisions = {std::optional<Value>(Value(1))};
  r.crashed = {false};
  r.steps = steps;
  r.wall_ms = 1.0;
  r.error = error;
  return r;
}

Report report(std::vector<RunRecord> records) {
  Report rep;
  rep.title = "snapshot_churn";
  rep.records = std::move(records);
  return rep;
}

TEST(Diff, IdenticalReportsHaveNoRegressions) {
  const Report a = report({record(1, 100), record(2, 200)});
  const ReportDiff d = diff_reports(a, a);
  EXPECT_EQ(d.matched, 2);
  EXPECT_TRUE(d.changed.empty());
  EXPECT_TRUE(d.only_a.empty());
  EXPECT_TRUE(d.only_b.empty());
  EXPECT_FALSE(d.has_regressions());
  EXPECT_NE(d.summary().find("no regressions"), std::string::npos);
}

TEST(Diff, StepRegressionIsFlagged) {
  const Report a = report({record(1, 100), record(2, 200)});
  const Report b = report({record(1, 100), record(2, 260)});
  const ReportDiff d = diff_reports(a, b);
  EXPECT_EQ(d.matched, 2);
  EXPECT_EQ(d.step_regressions, 1);
  ASSERT_EQ(d.changed.size(), 1u);
  EXPECT_EQ(d.changed[0].steps_a, 200u);
  EXPECT_EQ(d.changed[0].steps_b, 260u);
  EXPECT_TRUE(d.has_regressions());
  EXPECT_NE(d.summary().find("STEP REGRESSION"), std::string::npos);
  EXPECT_EQ(d.summary().find("no regressions"), std::string::npos);
}

TEST(Diff, StepImprovementIsNotARegression) {
  const Report a = report({record(1, 100)});
  const Report b = report({record(1, 80)});
  const ReportDiff d = diff_reports(a, b);
  EXPECT_EQ(d.step_improvements, 1);
  EXPECT_EQ(d.step_regressions, 0);
  EXPECT_FALSE(d.has_regressions());
  EXPECT_NE(d.summary().find("no regressions"), std::string::npos);
  EXPECT_NE(d.summary().find("improvement"), std::string::npos);
}

TEST(Diff, VerdictRegressionIsFlagged) {
  const Report a = report({record(1, 100)});
  const Report b = report({record(1, 100, "engine exploded")});
  const ReportDiff d = diff_reports(a, b);
  EXPECT_EQ(d.verdict_regressions, 1);
  EXPECT_TRUE(d.has_regressions());
  EXPECT_NE(d.summary().find("VERDICT REGRESSION"), std::string::npos);
}

TEST(Diff, VerdictFixIsNotARegression) {
  const Report a = report({record(1, 100, "was broken")});
  const Report b = report({record(1, 100)});
  const ReportDiff d = diff_reports(a, b);
  EXPECT_EQ(d.verdict_fixes, 1);
  EXPECT_FALSE(d.has_regressions());
}

TEST(Diff, CrashViolationRegressionIsFlagged) {
  // Both runs time out, but only B's failure involved a crash: the
  // verdict is unchanged and the crash delta alone regresses the diff.
  RunRecord stuck = record(1, 400);
  stuck.decisions = {std::nullopt, std::nullopt};
  stuck.crashed = {false, false};
  stuck.timed_out = true;
  RunRecord crashed = stuck;
  crashed.crashed = {true, false};
  const ReportDiff d = diff_reports(report({stuck}), report({crashed}));
  EXPECT_EQ(d.verdict_regressions, 0);
  EXPECT_EQ(d.crash_regressions, 1);
  EXPECT_TRUE(d.has_regressions());
  EXPECT_NE(d.summary().find("CRASH REGRESSION"), std::string::npos);
  const ReportDiff fixed = diff_reports(report({crashed}), report({stuck}));
  EXPECT_EQ(fixed.crash_fixes, 1);
  EXPECT_FALSE(fixed.has_regressions());
}

TEST(Diff, UnmatchedCellsLandInOnlyLists) {
  const Report a = report({record(1, 100), record(2, 200)});
  const Report b = report({record(2, 200), record(3, 300)});
  const ReportDiff d = diff_reports(a, b);
  EXPECT_EQ(d.matched, 1);
  ASSERT_EQ(d.only_a.size(), 1u);
  ASSERT_EQ(d.only_b.size(), 1u);
  EXPECT_NE(d.only_a[0].find("seed1"), std::string::npos);
  EXPECT_NE(d.only_b[0].find("seed3"), std::string::npos);
  EXPECT_FALSE(d.has_regressions());
}

TEST(Diff, DuplicateIdentitiesPairUpInOrder) {
  // Two records with the same identity (e.g. a repeated cell): first
  // pairs with first, second with second, no spurious only-in lists.
  const Report a = report({record(1, 100), record(1, 110)});
  const Report b = report({record(1, 100), record(1, 140)});
  const ReportDiff d = diff_reports(a, b);
  EXPECT_EQ(d.matched, 2);
  EXPECT_TRUE(d.only_a.empty());
  EXPECT_TRUE(d.only_b.empty());
  EXPECT_EQ(d.step_regressions, 1);  // 110 -> 140
}

TEST(Diff, IdentityDistinguishesEveryAxis) {
  RunRecord base = record(1, 100);
  RunRecord other = base;
  other.mem = MemKind::kAfek;
  const ReportDiff d = diff_reports(report({base}), report({other}));
  EXPECT_EQ(d.matched, 0);
  EXPECT_EQ(d.only_a.size(), 1u);
  EXPECT_EQ(d.only_b.size(), 1u);
}

TEST(Diff, ThreadedRuntimeHandoffLabelIsIgnored) {
  // Reports of the threaded lock-step runtime label every record with
  // its wait strategy. Against the same report without the label, every
  // record pairs up and nothing regresses; merging the two drops the
  // labeled copies as exact duplicates.
  const Report plain = report({record(1, 100), record(2, 200)});
  Json labeled_records = Json::array();
  for (const RunRecord& r : plain.records) {
    Json j = r.to_json();
    EXPECT_EQ(j.find("wait_strategy"), nullptr);
    j.set("wait_strategy", "condvar");
    labeled_records.push(std::move(j));
  }
  Json doc = Json::object();
  doc.set("title", plain.title).set("records", std::move(labeled_records));
  const Report labeled = Report::from_json(doc);

  const ReportDiff d = diff_reports(labeled, plain);
  EXPECT_EQ(d.matched, 2);
  EXPECT_TRUE(d.changed.empty());
  EXPECT_TRUE(d.only_a.empty());
  EXPECT_TRUE(d.only_b.empty());
  EXPECT_FALSE(d.has_regressions());
  EXPECT_NE(d.summary().find("no regressions"), std::string::npos);

  const Report merged = Report::merge({labeled, plain});
  EXPECT_EQ(merged.to_json(false).dump(), plain.to_json(false).dump());
}

TEST(Diff, JsonShapeIsStable) {
  const Report a = report({record(1, 100)});
  const Report b = report({record(1, 120)});
  const Json j = diff_reports(a, b).to_json();
  EXPECT_EQ(j.at("matched").as_int(), 1);
  EXPECT_EQ(j.at("step_regressions").as_int(), 1);
  EXPECT_TRUE(j.at("has_regressions").as_bool());
  EXPECT_EQ(j.at("changed").size(), 1u);
  EXPECT_EQ(j.at("changed").at(std::size_t{0}).at("steps_b").as_int(), 120);
}

}  // namespace
}  // namespace mpcn
