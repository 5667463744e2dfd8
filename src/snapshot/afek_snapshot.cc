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

// The fields of a collected cell. They take it by const reference: the
// non-const Value::at() would clone the payload the register still shares.
const Value& value_of(const Value& cell) { return cell.at(0); }
std::int64_t seq_of(const Value& cell) { return cell.at(1).as_int(); }
const Value& view_of(const Value& cell) { return cell.at(2); }

}  // namespace

AfekSnapshot::AfekSnapshot(int width, bool check_ownership)
    : width_(width),
      check_ownership_(check_ownership),
      cells_(width, make_cell(Value::nil(), 0, initial_view(width))) {}

void AfekSnapshot::collect(ProcessContext& ctx, std::vector<Value>& out) {
  for (int j = 0; j < width_; ++j) {
    out[static_cast<std::size_t>(j)] = cells_.read(ctx, j);
  }
  ++collects_;
}

Value AfekSnapshot::scan(ProcessContext& ctx) {
  const auto w = static_cast<std::size_t>(width_);
  std::vector<int> moved(w, 0);
  // `prev` holds the previous collect and `cur` the latest one; they swap
  // buffers after every failed double collect.
  std::vector<Value> prev(w);
  std::vector<Value> cur(w);
  collect(ctx, prev);
  for (;;) {
    collect(ctx, cur);
    bool clean = true;
    for (std::size_t j = 0; j < w; ++j) {
      if (seq_of(prev[j]) != seq_of(cur[j])) {
        clean = false;
        if (++moved[j] >= 2) {
          // j completed a full scan inside our interval; borrow its view —
          // the stored list is returned as-is (a refcount bump).
          ++borrowed_;
          return view_of(cur[j]);
        }
      }
    }
    if (clean) {
      // A successful double collect. The spent `prev` buffer becomes the
      // returned list.
      for (std::size_t j = 0; j < w; ++j) prev[j] = value_of(cur[j]);
      return Value(std::move(prev));
    }
    prev.swap(cur);
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
  cells_.write(ctx, index, make_cell(v, seq_of(old) + 1, view));
}

std::vector<Value> AfekSnapshot::snapshot(ProcessContext& ctx) {
  return scan(ctx).take_list();
}

}  // namespace mpcn
