// Unit tests: src/history — the linearizability checker itself (including
// known non-linearizable histories: the checker must reject them).
#include <gtest/gtest.h>

#include "src/common/errors.h"
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

}  // namespace
}  // namespace mpcn
