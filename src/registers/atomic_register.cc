#include "src/registers/atomic_register.h"

namespace mpcn {

Value AtomicRegister::read(ProcessContext& ctx) const {
  auto g = ctx.step();
  return value_;
}

void AtomicRegister::write(ProcessContext& ctx, Value v) {
  auto g = ctx.step();
  value_ = std::move(v);
}

Value AtomicRegister::peek() const { return value_; }

RegisterArray::RegisterArray(int width, Value initial) {
  for (int i = 0; i < width; ++i) cells_.emplace_back(initial);
}

Value RegisterArray::read(ProcessContext& ctx, int index) const {
  return cells_.at(static_cast<std::size_t>(index)).read(ctx);
}

void RegisterArray::write(ProcessContext& ctx, int index, Value v) {
  cells_.at(static_cast<std::size_t>(index)).write(ctx, std::move(v));
}

}  // namespace mpcn
