// Unit + property tests: src/registers, src/snapshot.
//
// The property suites run the Afek construction under many seeded
// lock-step schedules and check every recorded history against the
// snapshot sequential specification with the Wing&Gong checker.
#include <gtest/gtest.h>

#include <memory>

#include "src/common/errors.h"
#include "src/history/history.h"
#include "src/history/linearizability.h"
#include "src/registers/atomic_register.h"
#include "src/runtime/execution.h"
#include "src/snapshot/afek_snapshot.h"
#include "src/snapshot/primitive_snapshot.h"

namespace mpcn {
namespace {

ExecutionOptions lockstep(std::uint64_t seed, std::uint64_t limit = 300000) {
  ExecutionOptions o;
  o.seed = seed;
  o.step_limit = limit;
  return o;
}

std::vector<Value> int_inputs(int n) {
  std::vector<Value> v;
  for (int i = 0; i < n; ++i) v.push_back(Value(i));
  return v;
}

TEST(AtomicRegister, InitialValueIsNil) {
  AtomicRegister r;
  EXPECT_TRUE(r.peek().is_nil());
}

TEST(AtomicRegister, WriteThenRead) {
  auto reg = std::make_shared<AtomicRegister>();
  std::vector<Program> p{[reg](ProcessContext& ctx) {
    reg->write(ctx, Value(9));
    EXPECT_EQ(reg->read(ctx).as_int(), 9);
    ctx.decide(Value(0));
  }};
  run_execution(std::move(p), {Value(0)}, lockstep(1));
}

TEST(RegisterArray, IndependentCells) {
  auto arr = std::make_shared<RegisterArray>(3);
  std::vector<Program> p{[arr](ProcessContext& ctx) {
    arr->write(ctx, 0, Value(1));
    arr->write(ctx, 2, Value(3));
    EXPECT_EQ(arr->read(ctx, 0).as_int(), 1);
    EXPECT_TRUE(arr->read(ctx, 1).is_nil());
    EXPECT_EQ(arr->read(ctx, 2).as_int(), 3);
    ctx.decide(Value(0));
  }};
  run_execution(std::move(p), {Value(0)}, lockstep(2));
}

// --- PrimitiveSnapshot ---

TEST(PrimitiveSnapshot, OwnershipEnforced) {
  auto snap = std::make_shared<PrimitiveSnapshot>(2);
  std::vector<Program> p{
      [snap](ProcessContext& ctx) {
        EXPECT_THROW(snap->write(ctx, 1, Value(5)), ProtocolError);
        snap->write(ctx, 0, Value(5));
        ctx.decide(Value(0));
      },
      [](ProcessContext& ctx) { ctx.decide(Value(0)); }};
  run_execution(std::move(p), int_inputs(2), lockstep(3));
}

TEST(PrimitiveSnapshot, OwnershipCheckCanBeDisabled) {
  auto snap = std::make_shared<PrimitiveSnapshot>(2, false);
  std::vector<Program> p{[snap](ProcessContext& ctx) {
    snap->write(ctx, 1, Value(5));
    EXPECT_EQ(snap->snapshot(ctx)[1].as_int(), 5);
    ctx.decide(Value(0));
  }};
  run_execution(std::move(p), {Value(0)}, lockstep(4));
}

TEST(PrimitiveSnapshot, IndexRangeChecked) {
  auto snap = std::make_shared<PrimitiveSnapshot>(2, false);
  std::vector<Program> p{[snap](ProcessContext& ctx) {
    EXPECT_THROW(snap->write(ctx, 2, Value(1)), ProtocolError);
    EXPECT_THROW(snap->write(ctx, -1, Value(1)), ProtocolError);
    ctx.decide(Value(0));
  }};
  run_execution(std::move(p), {Value(0)}, lockstep(5));
}

TEST(PrimitiveSnapshot, SnapshotSeesAllPriorWrites) {
  auto snap = std::make_shared<PrimitiveSnapshot>(3, false);
  std::vector<Program> p{[snap](ProcessContext& ctx) {
    snap->write(ctx, 0, Value(10));
    snap->write(ctx, 1, Value(11));
    snap->write(ctx, 2, Value(12));
    const std::vector<Value> s = snap->snapshot(ctx);
    EXPECT_EQ(s[0].as_int(), 10);
    EXPECT_EQ(s[1].as_int(), 11);
    EXPECT_EQ(s[2].as_int(), 12);
    ctx.decide(Value(0));
  }};
  run_execution(std::move(p), {Value(0)}, lockstep(6));
}

// --- shared harness for concurrent snapshot histories ---

// Runs `writers` processes doing `rounds` writes each plus one scanner
// process doing `rounds` snapshots, against the given snapshot object;
// records a history and checks linearizability.
void run_snapshot_history_check(std::shared_ptr<SnapshotObject> snap,
                                int writers, int rounds, std::uint64_t seed) {
  auto rec = std::make_shared<HistoryRecorder>();
  const int n = writers + 1;
  std::vector<Program> p;
  for (int w = 0; w < writers; ++w) {
    p.push_back([snap, rec, w, rounds](ProcessContext& ctx) {
      for (int r = 0; r < rounds; ++r) {
        const Value v = Value(w * 1000 + r);
        const std::uint64_t inv = ctx.backend().controller().steps();
        snap->write(ctx, w, v);
        const std::uint64_t res = ctx.backend().controller().steps();
        rec->record(Event{ctx.tid(), EventOp::kWrite, w, v, {}, inv, res});
      }
      ctx.decide(Value(0));
    });
  }
  p.push_back([snap, rec, rounds](ProcessContext& ctx) {
    for (int r = 0; r < rounds; ++r) {
      const std::uint64_t inv = ctx.backend().controller().steps();
      const std::vector<Value> view = snap->snapshot(ctx);
      const std::uint64_t res = ctx.backend().controller().steps();
      rec->record(
          Event{ctx.tid(), EventOp::kSnapshot, -1, Value(), view, inv, res});
    }
    ctx.decide(Value(0));
  });
  Outcome out = run_execution(std::move(p), int_inputs(n), lockstep(seed));
  ASSERT_FALSE(out.timed_out);
  SnapshotSpec spec(writers);
  EXPECT_TRUE(is_linearizable(rec->events(), spec))
      << "history not linearizable, seed " << seed;
}

class AfekSnapshotLinearizability
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AfekSnapshotLinearizability, HistoryIsLinearizable) {
  const std::uint64_t seed = GetParam();
  auto snap = std::make_shared<AfekSnapshot>(3, /*check_ownership=*/false);
  run_snapshot_history_check(snap, 3, 4, seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AfekSnapshotLinearizability,
                         ::testing::Range<std::uint64_t>(1, 41));

class PrimitiveSnapshotLinearizability
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrimitiveSnapshotLinearizability, HistoryIsLinearizable) {
  const std::uint64_t seed = GetParam();
  auto snap =
      std::make_shared<PrimitiveSnapshot>(3, /*check_ownership=*/false);
  run_snapshot_history_check(snap, 3, 5, seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrimitiveSnapshotLinearizability,
                         ::testing::Range<std::uint64_t>(1, 21));

// --- Afek-specific behaviour ---

TEST(AfekSnapshot, SequentialWriteSnapshotAgree) {
  auto snap = std::make_shared<AfekSnapshot>(2, false);
  std::vector<Program> p{[snap](ProcessContext& ctx) {
    snap->write(ctx, 0, Value(1));
    snap->write(ctx, 1, Value(2));
    auto s = snap->snapshot(ctx);
    EXPECT_EQ(s[0].as_int(), 1);
    EXPECT_EQ(s[1].as_int(), 2);
    snap->write(ctx, 0, Value(3));
    s = snap->snapshot(ctx);
    EXPECT_EQ(s[0].as_int(), 3);
    ctx.decide(Value(0));
  }};
  run_execution(std::move(p), {Value(0)}, lockstep(7));
}

TEST(AfekSnapshot, OwnershipEnforced) {
  auto snap = std::make_shared<AfekSnapshot>(2, true);
  std::vector<Program> p{
      [snap](ProcessContext& ctx) {
        EXPECT_THROW(snap->write(ctx, 1, Value(1)), ProtocolError);
        ctx.decide(Value(0));
      },
      [](ProcessContext& ctx) { ctx.decide(Value(0)); }};
  run_execution(std::move(p), int_inputs(2), lockstep(8));
}

TEST(AfekSnapshot, BorrowedScansHappenUnderContention) {
  // With continuous writers, some scans must terminate by borrowing an
  // embedded view — that's the helping mechanism in action.
  auto snap = std::make_shared<AfekSnapshot>(2, /*check_ownership=*/false);
  std::vector<Program> p;
  for (int w = 0; w < 2; ++w) {
    p.push_back([snap, w](ProcessContext& ctx) {
      for (int r = 0; r < 60; ++r) snap->write(ctx, w, Value(r));
      ctx.decide(Value(0));
    });
  }
  p.push_back([snap](ProcessContext& ctx) {
    for (int r = 0; r < 30; ++r) (void)snap->snapshot(ctx);
    ctx.decide(Value(0));
  });
  Outcome out = run_execution(std::move(p), int_inputs(3), lockstep(9));
  ASSERT_FALSE(out.timed_out);
  EXPECT_GT(snap->total_collects(), 0u);
  // Not every seed forces borrowing, but the counters must be coherent.
  EXPECT_LE(snap->borrowed_scans(), snap->total_collects());
}

TEST(AfekSnapshot, WaitFreeBoundOnCollects) {
  // A single scan among n writers needs at most n+2 collects. Run many
  // scans under heavy write contention and check the average is small.
  const int kWriters = 3;
  auto snap =
      std::make_shared<AfekSnapshot>(kWriters + 1, /*check_ownership=*/false);
  const int kScans = 20;
  std::vector<Program> p;
  for (int w = 0; w < kWriters; ++w) {
    p.push_back([snap, w](ProcessContext& ctx) {
      for (int r = 0; r < 200; ++r) snap->write(ctx, w, Value(r));
      ctx.decide(Value(0));
    });
  }
  p.push_back([snap](ProcessContext& ctx) {
    for (int r = 0; r < kScans; ++r) (void)snap->snapshot(ctx);
    ctx.decide(Value(0));
  });
  Outcome out = run_execution(std::move(p), int_inputs(kWriters + 1),
                              lockstep(10, 2'000'000));
  ASSERT_FALSE(out.timed_out);
  // Each embedded scan inside a write also counts; the global bound is
  // collects <= (ops) * (n+2).
  const std::uint64_t ops = kWriters * 200 + kScans;
  EXPECT_LE(snap->total_collects(), ops * (kWriters + 1 + 2));
}

// --- counter pinning: the COW payload representation must not change the
// --- algorithm's step structure ---

// A writer running alone never observes movement: every scan is a clean
// double collect. Exact counter arithmetic pins that write = scan + read
// + write and snapshot = scan, with no extra collects hidden anywhere.
TEST(AfekSnapshot, CountersPinnedSequential) {
  const int kWrites = 6, kScans = 5;
  auto snap = std::make_shared<AfekSnapshot>(4, /*check_ownership=*/false);
  std::vector<Program> p{[snap](ProcessContext& ctx) {
    for (int r = 0; r < kWrites; ++r) snap->write(ctx, 0, Value(r));
    for (int r = 0; r < kScans; ++r) (void)snap->snapshot(ctx);
    ctx.decide(Value(0));
  }};
  Outcome out = run_execution(std::move(p), {Value(0)}, lockstep(1));
  ASSERT_FALSE(out.timed_out);
  EXPECT_EQ(snap->total_collects(), 2u * (kWrites + kScans));
  EXPECT_EQ(snap->borrowed_scans(), 0u);
}

// Under a seeded lock-step schedule the whole interleaving is a pure
// function of the seed, so the collect/borrow counters are exact. These
// values were measured against the pre-COW deep-copy Value as well: the
// representation change moved zero collects and zero borrows.
TEST(AfekSnapshot, CountersPinnedSeededLockstep) {
  auto snap = std::make_shared<AfekSnapshot>(3, /*check_ownership=*/false);
  std::vector<Program> p;
  for (int w = 0; w < 2; ++w) {
    p.push_back([snap, w](ProcessContext& ctx) {
      for (int r = 0; r < 25; ++r) snap->write(ctx, w, Value(r));
      ctx.decide(Value(0));
    });
  }
  p.push_back([snap](ProcessContext& ctx) {
    for (int r = 0; r < 10; ++r) (void)snap->snapshot(ctx);
    ctx.decide(Value(0));
  });
  Outcome out = run_execution(std::move(p), int_inputs(3), lockstep(9));
  ASSERT_FALSE(out.timed_out);
  EXPECT_EQ(snap->total_collects(), 146u);
  EXPECT_EQ(snap->borrowed_scans(), 5u);
}

// --- every process writes and scans ---

class AfekSnapshotOwnEntry : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(AfekSnapshotOwnEntry, NeverRunsBackwards) {
  auto snap = std::make_shared<AfekSnapshot>(4, /*check_ownership=*/false);
  std::vector<Program> p;
  for (int w = 0; w < 4; ++w) {
    p.push_back([snap, w](ProcessContext& ctx) {
      for (int r = 0; r < 100; ++r) {
        snap->write(ctx, w, Value(w * 1000 + r));
        const std::vector<Value> s = snap->snapshot(ctx);
        // Own entry must never run backwards.
        if (!s[static_cast<std::size_t>(w)].is_nil()) {
          EXPECT_LE(s[static_cast<std::size_t>(w)].as_int(), w * 1000 + r);
          EXPECT_GE(s[static_cast<std::size_t>(w)].as_int(), w * 1000);
        }
      }
      ctx.decide(Value(0));
    });
  }
  Outcome out = run_execution(std::move(p), int_inputs(4),
                              lockstep(GetParam()));
  EXPECT_EQ(out.decided_count(), 4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AfekSnapshotOwnEntry,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace mpcn
