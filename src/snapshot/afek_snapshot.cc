#include "src/snapshot/afek_snapshot.h"

#include "src/common/errors.h"

namespace mpcn {

namespace {

// Cell layout: [value, seq, view-list]. The view stored with a write is the
// scan embedded in that write (empty until the first write). `view` is a
// list Value shared with the scan that produced it: embedding it is a
// refcount bump, not an O(n) copy.
Value make_cell(const Value& value, std::int64_t seq, const Value& view) {
  Value::ListBuilder b(3);
  b.push_back(value);
  b.push_back(Value(seq));
  b.push_back(view);
  return b.build();
}

Value initial_view(int width) {
  return Value(Value::List(static_cast<std::size_t>(width)));
}

}  // namespace

AfekSnapshot::AfekSnapshot(int width, bool check_ownership)
    : width_(width),
      check_ownership_(check_ownership),
      cells_(width, make_cell(Value::nil(), 0, initial_view(width))) {}

AfekSnapshot::Collect AfekSnapshot::collect(ProcessContext& ctx) {
  Collect c;
  c.seq.reserve(static_cast<std::size_t>(width_));
  c.value.reserve(static_cast<std::size_t>(width_));
  c.view.reserve(static_cast<std::size_t>(width_));
  for (int j = 0; j < width_; ++j) {
    const Value cell = cells_.read(ctx, j);  // one step per register read
    c.value.push_back(cell.at(0));
    c.seq.push_back(cell.at(1).as_int());
    c.view.push_back(cell.at(2));
  }
  ++collects_;
  return c;
}

Value AfekSnapshot::scan(ProcessContext& ctx) {
  std::vector<int> moved(static_cast<std::size_t>(width_), 0);
  Collect a = collect(ctx);
  for (;;) {
    Collect b = collect(ctx);
    bool clean = true;
    for (int j = 0; j < width_; ++j) {
      if (a.seq[static_cast<std::size_t>(j)] !=
          b.seq[static_cast<std::size_t>(j)]) {
        clean = false;
        if (++moved[static_cast<std::size_t>(j)] >= 2) {
          // j completed a full scan inside our interval; borrow its view —
          // the stored list is returned as-is (a refcount bump).
          ++borrowed_;
          return b.view[static_cast<std::size_t>(j)];
        }
      }
    }
    if (clean) return Value(std::move(b.value));  // successful double collect
    a = std::move(b);
  }
}

void AfekSnapshot::write(ProcessContext& ctx, int index, const Value& v) {
  if (index < 0 || index >= width_) {
    throw ProtocolError("AfekSnapshot write index out of range");
  }
  if (check_ownership_ && index != ctx.pid()) {
    throw ProtocolError("AfekSnapshot entry not owned by writer");
  }
  const Value view = scan(ctx);
  const Value old = cells_.read(ctx, index);
  cells_.write(ctx, index, make_cell(v, old.at(1).as_int() + 1, view));
}

std::vector<Value> AfekSnapshot::snapshot(ProcessContext& ctx) {
  return scan(ctx).take_list();
}

}  // namespace mpcn
