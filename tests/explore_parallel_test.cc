// Tests: the parallel in-process exploration engine (explorer.cc).
//
// The contract under test is byte-identity: `explore` with threads = N
// must produce the SAME report JSON, violations, shrunk traces and
// exit-code-determining flags as the serial run, for every policy and
// oracle combination — parallelism is a wall-clock lever, never a
// semantics lever.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/experiment/experiment.h"
#include "src/explore/explorer.h"

namespace mpcn {
namespace {

std::vector<Value> index_inputs(const ModelSpec& m) {
  std::vector<Value> in;
  for (int i = 0; i < m.n; ++i) in.push_back(Value(i));
  return in;
}

ExperimentCell named_cell(const std::string& scenario, const ModelSpec& m,
                          std::uint64_t seed, MemKind mem) {
  Experiment e = Experiment::named(scenario, m);
  e.direct().seed(seed).mem(mem).inputs_fn(index_inputs);
  return e.cells().front();
}

// Everything observable about a search result, timing excluded: the full
// JSON (records included), the summary line, the recorded first trace,
// and the flags the CLI turns into exit codes.
std::string observable(const ExploreResult& r) {
  return r.to_json(/*include_traces=*/true).dump(2) + "\n" + r.summary() +
         "\nfirst_trace=" + r.first_trace.digest() +
         "\nfound=" + std::to_string(r.found()) +
         "\nrace=" + std::to_string(r.race_found());
}

void expect_parallel_matches_serial(const std::string& scenario,
                                    ExplorePolicy policy, MemKind mem,
                                    bool check_races, int budget,
                                    int max_violations = 1) {
  ExperimentCell cell = named_cell(scenario, ModelSpec{2, 0, 1}, 1, mem);

  ExploreOptions opts;
  opts.policy = policy;
  opts.seed = 1;
  opts.budget = budget;
  opts.max_violations = max_violations;
  opts.check_races = check_races;

  opts.threads = 0;
  const std::string serial = observable(explore(cell, opts));

  for (int threads : {1, 2, 8}) {
    opts.threads = threads;
    EXPECT_EQ(observable(explore(cell, opts)), serial)
        << scenario << " policy=" << to_string(policy)
        << " mem=" << static_cast<int>(mem) << " races=" << check_races
        << " threads=" << threads;
  }
}

// ------------------------------------------------- byte-identity matrix

TEST(ParallelExplore, RandomMatchesSerialBothMemAxes) {
  // Seeded-random sampling misses the racy_register bug at this budget:
  // the clean-search accounting (schedules, steps, first trace) must
  // merge identically.
  expect_parallel_matches_serial("racy_register", ExplorePolicy::kSeededRandom,
                                 MemKind::kPrimitive, false, 50);
  expect_parallel_matches_serial("racy_register", ExplorePolicy::kSeededRandom,
                                 MemKind::kAfek, false, 25);
}

TEST(ParallelExplore, RandomMatchesSerialWithRaceOracle) {
  expect_parallel_matches_serial("racy_register", ExplorePolicy::kSeededRandom,
                                 MemKind::kPrimitive, true, 50);
  expect_parallel_matches_serial("racy_register", ExplorePolicy::kSeededRandom,
                                 MemKind::kAfek, true, 25);
}

TEST(ParallelExplore, PctMatchesSerialBothMemAxes) {
  // PCT finds the torn write inside this budget on the primitive axis,
  // so this case pins violation acceptance order, shrunk traces and
  // shrink replay counts across the merge, not just clean accounting.
  expect_parallel_matches_serial("racy_register", ExplorePolicy::kPct,
                                 MemKind::kPrimitive, false, 100);
  expect_parallel_matches_serial("racy_register", ExplorePolicy::kPct,
                                 MemKind::kAfek, false, 25);
}

TEST(ParallelExplore, PctMatchesSerialWithRaceOracle) {
  expect_parallel_matches_serial("racy_register", ExplorePolicy::kPct,
                                 MemKind::kPrimitive, true, 100);
  expect_parallel_matches_serial("racy_register", ExplorePolicy::kPct,
                                 MemKind::kAfek, true, 25);
}

TEST(ParallelExplore, CollectAllViolationsMatchesSerial) {
  // max_violations = 0 disables the early-stop cutoff entirely: every
  // schedule in the budget runs and every violation merges in order.
  expect_parallel_matches_serial("racy_register", ExplorePolicy::kPct,
                                 MemKind::kPrimitive, true, 120,
                                 /*max_violations=*/0);
}

TEST(ParallelExplore, BoundedDfsFallsBackToSerial) {
  // DFS carries its search tree across runs: threads > 1 is documented
  // to fall back to the serial engine, so the result is identical and
  // the systematic search still finds the bug.
  ExperimentCell cell = named_cell("racy_register", ModelSpec{2, 0, 1}, 1,
                                   MemKind::kPrimitive);
  ExploreOptions opts;
  opts.policy = ExplorePolicy::kBoundedDfs;
  opts.budget = 60;

  opts.threads = 0;
  const ExploreResult serial = explore(cell, opts);
  opts.threads = 8;
  const ExploreResult threaded = explore(cell, opts);
  EXPECT_EQ(observable(threaded), observable(serial));
  EXPECT_TRUE(serial.found());
}

}  // namespace
}  // namespace mpcn
