#include "src/snapshot/primitive_snapshot.h"

#include "src/common/errors.h"

namespace mpcn {

PrimitiveSnapshot::PrimitiveSnapshot(int width, bool check_ownership,
                                     Value initial)
    : check_ownership_(check_ownership),
      entries_(static_cast<std::size_t>(width), std::move(initial)) {}

void PrimitiveSnapshot::write(ProcessContext& ctx, int index, const Value& v) {
  if (index < 0 || index >= width()) {
    throw ProtocolError("snapshot write index out of range");
  }
  if (check_ownership_ && index != ctx.pid()) {
    throw ProtocolError("snapshot entry " + std::to_string(index) +
                        " is not writable by process " +
                        std::to_string(ctx.pid()));
  }
  auto g = ctx.step();
  entries_[static_cast<std::size_t>(index)] = v;
}

std::vector<Value> PrimitiveSnapshot::snapshot(ProcessContext& ctx) {
  auto g = ctx.step();
  return entries_;
}

}  // namespace mpcn
