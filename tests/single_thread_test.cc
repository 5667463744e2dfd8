// Tests: no process starts a second OS thread — run_batch runs its cells
// in a plain loop, explore() its schedules one after another, the
// --progress meter prints from the caller's loop, and a shard worker
// with streaming telemetry armed beats from its own loop. glibc clears
// __libc_single_threaded when a process first creates a thread and never
// sets it again, so this suite must stay its own executable (its own
// process) with nothing else in it.
#include <gtest/gtest.h>
#include <sys/single_threaded.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/dist/shard.h"
#include "src/dist/wire.h"
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

// The worker's heartbeat makes no thread either: it beats on arming,
// from the lock-step controller's clock reads inside a run, and after
// each job. The cell is a propose-trap stall (a 0-resilient source
// simulated in ASM(4, 1, 1) with a crash inside INPUT/0's propose) that
// runs to its step limit, 100,000 grants and well past the 1 ms
// interval. A StringLineIO never makes the idle loop wait, so every beat
// between the arm beat and the result line came from inside the run.
TEST(SingleThread, TelemetryArmedWorkerBeatsFromItsOwnThread) {
  ASSERT_NE(static_cast<int>(__libc_single_threaded), 0)
      << "a thread ran before the test";
  Experiment stall = Experiment::named("trivial_kset", ModelSpec{4, 0, 1});
  stall.in(ModelSpec{4, 1, 1})
      .inputs(index_inputs(ModelSpec{4, 0, 1}))
      .seed(1)
      .crashes(CrashPlan::propose_trap({"INPUT/0"}, 1, 2))
      .step_limit(100'000)
      .check_legality(false);
  const CellSpec spec = CellSpec::from_cell(stall.cells().front());
  StringLineIO io({telemetry_request_line(1), cell_line(0, spec),
                   shutdown_line()});
  run_worker_loop(io);
  EXPECT_NE(static_cast<int>(__libc_single_threaded), 0)
      << "the telemetry-armed worker started a thread";

  // hello, the arm beat (seq 0), in-run beats, the result, the after-job
  // beat.
  const std::vector<std::string>& lines = io.written();
  ASSERT_GE(lines.size(), 4u);
  EXPECT_EQ(parse_wire_line(lines[0]).type, WireMessage::Type::kHello);
  std::size_t result = 0;
  std::int64_t next_seq = 0;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const WireMessage msg = parse_wire_line(lines[i]);
    if (msg.type == WireMessage::Type::kResult) {
      ASSERT_EQ(result, 0u) << "two results";
      result = i;
      ASSERT_TRUE(msg.record.has_value());
      EXPECT_TRUE(msg.record->timed_out) << "the trap must stall";
      continue;
    }
    ASSERT_EQ(msg.type, WireMessage::Type::kTelemetry) << lines[i];
    EXPECT_EQ(msg.telemetry_seq, next_seq++);
  }
  ASSERT_NE(result, 0u) << "no result line";
  EXPECT_GE(result, 3u) << "no beat between the arm beat and the result";
  EXPECT_EQ(result + 2, lines.size()) << "one after-job beat ends the wire";
}

}  // namespace
}  // namespace mpcn
