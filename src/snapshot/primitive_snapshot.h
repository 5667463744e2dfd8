// PrimitiveSnapshot: the snapshot object as a model primitive — one atomic
// step per write / snapshot. See snapshot_object.h.
#pragma once

#include "src/snapshot/snapshot_object.h"

namespace mpcn {

class PrimitiveSnapshot : public SnapshotObject {
 public:
  // check_ownership: enforce the single-writer discipline (entry j is
  // writable only by the process with pid == j). Simulator child threads
  // share their simulator's pid, so the engine keeps checking on.
  explicit PrimitiveSnapshot(int width, bool check_ownership = true,
                             Value initial = Value::nil());

  void write(ProcessContext& ctx, int index, const Value& v) override;
  std::vector<Value> snapshot(ProcessContext& ctx) override;
  int width() const override { return static_cast<int>(entries_.size()); }

  // One snapshot step that hands the entries to `reader` in place, under
  // the step, instead of copying them out; returns what `reader` returns.
  template <typename Read>
  auto read(ProcessContext& ctx, Read&& reader) {
    auto g = ctx.step();
    return reader(static_cast<const std::vector<Value>&>(entries_));
  }

 private:
  const bool check_ownership_;
  std::vector<Value> entries_;
};

}  // namespace mpcn
