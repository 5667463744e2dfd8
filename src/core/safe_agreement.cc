#include "src/core/safe_agreement.h"

#include <optional>

#include "src/common/errors.h"

namespace mpcn {

SafeAgreement::SafeAgreement(int width)
    : width_(width),
      sm_(width, /*check_ownership=*/true,
          Value::pair(Value::nil(), Value(kMeaningless))),
      proposed_(static_cast<std::size_t>(width)),
      decided_(static_cast<std::size_t>(width)) {}

void SafeAgreement::propose(ProcessContext& ctx, const Value& v) {
  const ProcessId i = ctx.pid();
  if (i < 0 || i >= width_) {
    throw ProtocolError("SafeAgreement: pid out of width");
  }
  if (proposed_[static_cast<std::size_t>(i)]) {
    throw ProtocolError("SafeAgreement: sa_propose invoked twice");
  }
  proposed_[static_cast<std::size_t>(i)] = true;
  // (01) announce unstable value
  sm_.write(ctx, i, Value::pair(v, Value(kUnstable)));
  // (02) read the global state; (03) cancel if someone is already
  // stable, else stabilize
  const bool someone_stable = sm_.read(ctx, [](const std::vector<Value>& sm) {
    for (const Value& e : sm) {
      if (e.at(1).as_int() == kStable) return true;
    }
    return false;
  });
  sm_.write(ctx, i,
            Value::pair(v, Value(someone_stable ? kMeaningless : kStable)));
}

Value SafeAgreement::decide(ProcessContext& ctx) {
  const ProcessId i = ctx.pid();
  if (i < 0 || i >= width_ || !proposed_[static_cast<std::size_t>(i)]) {
    throw ProtocolError("SafeAgreement: sa_decide before sa_propose");
  }
  if (decided_[static_cast<std::size_t>(i)]) {
    throw ProtocolError("SafeAgreement: sa_decide invoked twice");
  }
  decided_[static_cast<std::size_t>(i)] = true;
  // (04) wait until no entry is unstable. Each snapshot is a model step,
  // so the wait is schedulable and a crashed decider unwinds here; each
  // spin reads SM in place under its step.
  bool settled = false;  // no entry is unstable
  std::optional<Value> res;
  while (!settled) {
    settled = sm_.read(ctx, [&res](const std::vector<Value>& sm) {
      for (const Value& e : sm) {
        if (e.at(1).as_int() == kUnstable) return false;
      }
      // (05) the stable value of the smallest simulator id
      for (const Value& e : sm) {
        if (e.at(1).as_int() == kStable) {
          res = e.at(0);
          break;
        }
      }
      return true;
    });
  }
  // The decider proposed before deciding, so a stable value must exist
  // ("there is at least one stable value in SM when it executes line
  // 05").
  if (!res) throw ProtocolError("SafeAgreement: no stable value at decide");
  return *res;
}

}  // namespace mpcn
