// Unit tests: src/history — the linearizability checker itself (including
// known non-linearizable histories: the checker must reject them), and
// the recorder's buffer reuse across schedules.
#include <gtest/gtest.h>

#include "src/common/errors.h"
#include "src/history/history.h"
#include "src/history/linearizability.h"

namespace mpcn {
namespace {

Event ev(int pid, std::string op, Value arg, Value ret, std::uint64_t inv,
         std::uint64_t res) {
  return Event{ThreadId{pid, 0}, std::move(op), std::move(arg),
               std::move(ret), inv, res};
}

Value view(std::initializer_list<Value> vs) { return Value(Value::List(vs)); }

TEST(Linearizability, EmptyHistoryIsLinearizable) {
  EXPECT_TRUE(is_linearizable({}, SnapshotSpec(2)));
}

TEST(Linearizability, SequentialWriteSnapshot) {
  std::vector<Event> h{
      ev(0, "write", Value::pair(Value(0), Value(7)), Value::nil(), 1, 2),
      ev(0, "snapshot", Value::nil(), view({Value(7), Value("nil")}), 3, 4),
  };
  // SnapshotSpec serializes cells via to_string; nil cells print as "nil",
  // so the expected view uses the string "nil" only through to_string
  // equality — build it properly instead:
  h[1].ret = view({Value(7), Value::nil()});
  EXPECT_TRUE(is_linearizable(h, SnapshotSpec(2)));
}

TEST(Linearizability, StaleSnapshotRejected) {
  // Write completes strictly before the snapshot starts, but the snapshot
  // misses it: not linearizable.
  std::vector<Event> h{
      ev(0, "write", Value::pair(Value(0), Value(7)), Value::nil(), 1, 2),
      ev(1, "snapshot", Value::nil(), view({Value::nil(), Value::nil()}), 3,
         4),
  };
  EXPECT_FALSE(is_linearizable(h, SnapshotSpec(2)));
}

TEST(Linearizability, ConcurrentSnapshotMayMissWrite) {
  // Snapshot overlaps the write: both views are acceptable.
  std::vector<Event> miss{
      ev(0, "write", Value::pair(Value(0), Value(7)), Value::nil(), 1, 5),
      ev(1, "snapshot", Value::nil(), view({Value::nil(), Value::nil()}), 2,
         4),
  };
  EXPECT_TRUE(is_linearizable(miss, SnapshotSpec(2)));
  std::vector<Event> hit{
      ev(0, "write", Value::pair(Value(0), Value(7)), Value::nil(), 1, 5),
      ev(1, "snapshot", Value::nil(), view({Value(7), Value::nil()}), 2, 4),
  };
  EXPECT_TRUE(is_linearizable(hit, SnapshotSpec(2)));
}

TEST(Linearizability, SnapshotsMustBeMutuallyConsistent) {
  // Two snapshots that each see one of two concurrent writes but not the
  // other ("split reads") cannot both linearize.
  std::vector<Event> h{
      ev(0, "write", Value::pair(Value(0), Value(1)), Value::nil(), 1, 10),
      ev(1, "write", Value::pair(Value(1), Value(2)), Value::nil(), 1, 10),
      ev(2, "snapshot", Value::nil(), view({Value(1), Value::nil()}), 2, 9),
      ev(3, "snapshot", Value::nil(), view({Value::nil(), Value(2)}), 2, 9),
  };
  EXPECT_FALSE(is_linearizable(h, SnapshotSpec(2)));
}

TEST(Linearizability, RegisterReadMustReturnLatest) {
  std::vector<Event> ok{
      ev(0, "write", Value(5), Value::nil(), 1, 2),
      ev(1, "read", Value::nil(), Value(5), 3, 4),
  };
  EXPECT_TRUE(is_linearizable(ok, RegisterSpec()));
  std::vector<Event> bad{
      ev(0, "write", Value(5), Value::nil(), 1, 2),
      ev(1, "read", Value::nil(), Value(9), 3, 4),
  };
  EXPECT_FALSE(is_linearizable(bad, RegisterSpec()));
}

TEST(Linearizability, RegisterNewOldInversionRejected) {
  // read(new) completing before read(old) starts, with both writes done:
  // the classic new/old inversion is not linearizable.
  std::vector<Event> h{
      ev(0, "write", Value(1), Value::nil(), 1, 2),
      ev(0, "write", Value(2), Value::nil(), 3, 4),
      ev(1, "read", Value::nil(), Value(2), 5, 6),
      ev(2, "read", Value::nil(), Value(1), 7, 8),
  };
  EXPECT_FALSE(is_linearizable(h, RegisterSpec()));
}

TEST(Linearizability, ConcurrentReadsMayReorder) {
  // The same values are fine when the reads overlap the second write.
  std::vector<Event> h{
      ev(0, "write", Value(1), Value::nil(), 1, 2),
      ev(0, "write", Value(2), Value::nil(), 3, 10),
      ev(1, "read", Value::nil(), Value(2), 4, 9),
      ev(2, "read", Value::nil(), Value(1), 4, 9),
  };
  EXPECT_TRUE(is_linearizable(h, RegisterSpec()));
}

TEST(Linearizability, TooLargeHistoryThrows) {
  std::vector<Event> h;
  for (int i = 0; i < 65; ++i) {
    h.push_back(ev(0, "write", Value(i), Value::nil(), 2 * i, 2 * i + 1));
  }
  EXPECT_THROW(is_linearizable(h, RegisterSpec()), ProtocolError);
}

TEST(HistoryRecorder, ResetCycleKeepsOneBuffer) {
  HistoryRecorder rec;
  auto fill = [&rec] {
    for (int i = 0; i < 64; ++i) {
      rec.record(Event{ThreadId{i % 3, 0}, "write",
                       Value::pair(Value(i), Value(i * 2)), Value::nil(),
                       static_cast<std::uint64_t>(i),
                       static_cast<std::uint64_t>(i) + 1});
    }
  };
  fill();
  EXPECT_EQ(rec.size(), 64u);
  EXPECT_EQ(rec.events()[63].arg.at(0).as_int(), 63);

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
}

}  // namespace
}  // namespace mpcn
