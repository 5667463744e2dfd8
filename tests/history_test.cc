// Unit tests: src/history — the linearizability checker itself (including
// known non-linearizable histories: the checker must reject them), and
// the recorder's buffer reuse and allocation contract across schedules.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "src/common/errors.h"
#include "src/history/history.h"
#include "src/history/linearizability.h"

namespace mpcn {
namespace {

// Blocks handed out by the global operator new below, for the allocation
// contract of HistoryRecorder.ResetCycleKeepsOneBuffer.
std::size_t g_news = 0;

}  // namespace
}  // namespace mpcn

void* operator new(std::size_t size) {
  ++mpcn::g_news;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace mpcn {
namespace {

Event write_ev(int pid, int cell, Value v, std::uint64_t inv,
               std::uint64_t res) {
  return Event{ThreadId{pid, 0}, EventOp::kWrite, cell, std::move(v), {},
               inv, res};
}

Event snap_ev(int pid, std::vector<Value> view, std::uint64_t inv,
              std::uint64_t res) {
  return Event{ThreadId{pid, 0}, EventOp::kSnapshot, -1, Value(),
               std::move(view), inv, res};
}

TEST(Linearizability, EmptyHistoryIsLinearizable) {
  EXPECT_TRUE(is_linearizable({}, SnapshotSpec(2)));
}

TEST(Linearizability, SequentialWriteSnapshot) {
  const std::vector<Event> h{
      write_ev(0, 0, Value(7), 1, 2),
      snap_ev(0, {Value(7), Value::nil()}, 3, 4),
  };
  EXPECT_TRUE(is_linearizable(h, SnapshotSpec(2)));
}

TEST(Linearizability, StaleSnapshotRejected) {
  // Write completes strictly before the snapshot starts, but the snapshot
  // misses it: not linearizable.
  const std::vector<Event> h{
      write_ev(0, 0, Value(7), 1, 2),
      snap_ev(1, {Value::nil(), Value::nil()}, 3, 4),
  };
  EXPECT_FALSE(is_linearizable(h, SnapshotSpec(2)));
}

TEST(Linearizability, ConcurrentSnapshotMayMissWrite) {
  // Snapshot overlaps the write: both views are acceptable.
  const std::vector<Event> miss{
      write_ev(0, 0, Value(7), 1, 5),
      snap_ev(1, {Value::nil(), Value::nil()}, 2, 4),
  };
  EXPECT_TRUE(is_linearizable(miss, SnapshotSpec(2)));
  const std::vector<Event> hit{
      write_ev(0, 0, Value(7), 1, 5),
      snap_ev(1, {Value(7), Value::nil()}, 2, 4),
  };
  EXPECT_TRUE(is_linearizable(hit, SnapshotSpec(2)));
}

TEST(Linearizability, SnapshotsMustBeMutuallyConsistent) {
  // Two snapshots that each see one of two concurrent writes but not the
  // other ("split reads") cannot both linearize.
  const std::vector<Event> h{
      write_ev(0, 0, Value(1), 1, 10),
      write_ev(1, 1, Value(2), 1, 10),
      snap_ev(2, {Value(1), Value::nil()}, 2, 9),
      snap_ev(3, {Value::nil(), Value(2)}, 2, 9),
  };
  EXPECT_FALSE(is_linearizable(h, SnapshotSpec(2)));
}

// A width-1 snapshot is a register: a write to cell 0 writes it, and a
// one-wide view reads it.

TEST(Linearizability, RegisterReadMustReturnLatest) {
  const std::vector<Event> ok{
      write_ev(0, 0, Value(5), 1, 2),
      snap_ev(1, {Value(5)}, 3, 4),
  };
  EXPECT_TRUE(is_linearizable(ok, SnapshotSpec(1)));
  const std::vector<Event> bad{
      write_ev(0, 0, Value(5), 1, 2),
      snap_ev(1, {Value(9)}, 3, 4),
  };
  EXPECT_FALSE(is_linearizable(bad, SnapshotSpec(1)));
}

TEST(Linearizability, RegisterNewOldInversionRejected) {
  // read(new) completing before read(old) starts, with both writes done:
  // the classic new/old inversion is not linearizable.
  const std::vector<Event> h{
      write_ev(0, 0, Value(1), 1, 2),
      write_ev(0, 0, Value(2), 3, 4),
      snap_ev(1, {Value(2)}, 5, 6),
      snap_ev(2, {Value(1)}, 7, 8),
  };
  EXPECT_FALSE(is_linearizable(h, SnapshotSpec(1)));
}

TEST(Linearizability, ConcurrentReadsMayReorder) {
  // The same values are fine when the reads overlap the second write.
  const std::vector<Event> h{
      write_ev(0, 0, Value(1), 1, 2),
      write_ev(0, 0, Value(2), 3, 10),
      snap_ev(1, {Value(2)}, 4, 9),
      snap_ev(2, {Value(1)}, 4, 9),
  };
  EXPECT_TRUE(is_linearizable(h, SnapshotSpec(1)));
}

TEST(Linearizability, TooLargeHistoryThrows) {
  std::vector<Event> h;
  for (int i = 0; i < 65; ++i) {
    h.push_back(write_ev(0, 0, Value(i), 2 * i, 2 * i + 1));
  }
  EXPECT_THROW(is_linearizable(h, SnapshotSpec(1)), ProtocolError);
}

TEST(HistoryRecorder, ResetCycleKeepsOneBuffer) {
  HistoryRecorder rec;
  auto fill = [&rec] {
    for (int i = 0; i < 64; ++i) {
      rec.record(write_ev(i % 3, i, Value(i * 2), static_cast<std::uint64_t>(i),
                          static_cast<std::uint64_t>(i) + 1));
    }
  };
  fill();
  EXPECT_EQ(rec.size(), 64u);
  EXPECT_EQ(rec.events()[63].cell, 63);

  // The explorer's per-schedule cycle: reset, then refill the same
  // buffer in place.
  rec.reset();
  EXPECT_EQ(rec.size(), 0u);
  const std::size_t capacity = rec.events().capacity();
  const Event* data = rec.events().data();
  EXPECT_GE(capacity, 64u);
  for (int cycle = 0; cycle < 20; ++cycle) {
    fill();
    ASSERT_EQ(rec.size(), 64u);
    rec.reset();
    EXPECT_EQ(rec.events().capacity(), capacity) << "cycle " << cycle;
    EXPECT_EQ(rec.events().data(), data) << "cycle " << cycle;
  }

  // Recorded into the warm buffer the way direct mode records them, an
  // int-valued write allocates nothing and a snapshot at most its view.
  const ThreadId q1{1, 0};
  const Value written(42);
  const std::vector<Value> view{Value(1), written, Value::nil()};
  std::size_t before = g_news;
  rec.record(Event{q1, EventOp::kWrite, 1, written, {}, 1, 2});
  EXPECT_EQ(g_news - before, 0u) << "heap blocks per recorded write";
  before = g_news;
  rec.record(Event{q1, EventOp::kSnapshot, -1, Value(), view, 3, 4});
  EXPECT_LE(g_news - before, 1u) << "heap blocks per recorded snapshot";
  EXPECT_EQ(rec.events().data(), data);
}

}  // namespace
}  // namespace mpcn
