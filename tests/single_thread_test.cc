// Tests: an in-process grid and an in-process search never start a
// second OS thread — run_batch runs its cells in a plain loop, explore()
// its schedules one after another, and the --progress meter prints from
// the caller's loop. glibc clears __libc_single_threaded when a process
// first creates a thread and never sets it again, so this suite must
// stay its own executable (its own process) with nothing else in it.
#include <gtest/gtest.h>
#include <sys/single_threaded.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/experiment/batch_runner.h"
#include "src/experiment/experiment.h"
#include "src/explore/explorer.h"

namespace mpcn {
namespace {

std::vector<Value> index_inputs(const ModelSpec& m) {
  std::vector<Value> in;
  for (int i = 0; i < m.n; ++i) in.push_back(Value(i));
  return in;
}

TEST(SingleThread, GridAndSearchWithProgressStartNoThread) {
  // Force the heartbeat through the captured stderr, one line per tick at
  // most every millisecond; the meter reads both once per process.
  ASSERT_EQ(::setenv("MPCN_PROGRESS", "1", 1), 0);
  ASSERT_EQ(::setenv("MPCN_PROGRESS_MS", "1", 1), 0);
  ASSERT_NE(static_cast<int>(__libc_single_threaded), 0)
      << "a thread ran before the test";
  testing::internal::CaptureStderr();

  Experiment grid = Experiment::named("snapshot_churn", ModelSpec{3, 0, 1});
  grid.direct().inputs_fn(index_inputs).seeds(1, 8);
  BatchOptions batch;
  batch.progress = true;
  const Report report = run_batch(grid.cells(), batch);

  Experiment one = Experiment::named("snapshot_churn", ModelSpec{3, 0, 1});
  one.direct().inputs_fn(index_inputs).seed(1);
  ExploreOptions search;
  search.policy = ExplorePolicy::kPct;
  search.budget = 50;
  search.check_races = true;
  search.progress = true;
  const ExploreResult result = explore(one.cells().front(), search);

  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(static_cast<int>(__libc_single_threaded), 0)
      << "run_batch or explore started a thread";
  ASSERT_EQ(report.records.size(), 8u);
  EXPECT_TRUE(report.all_ok());
  EXPECT_EQ(result.schedules, 50);
  EXPECT_FALSE(result.found());
  EXPECT_NE(err.find("[batch] 8/8 cells"), std::string::npos) << err;
  EXPECT_NE(err.find("[explore] 50/50 schedules"), std::string::npos) << err;
}

}  // namespace
}  // namespace mpcn
