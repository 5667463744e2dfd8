#include "src/core/safe_agreement.h"

#include "src/common/errors.h"

namespace mpcn {

SafeAgreement::SafeAgreement(int width)
    : width_(width),
      sm_(width, /*check_ownership=*/true,
          Value::pair(Value::nil(), Value(kMeaningless))) {}

void SafeAgreement::propose(ProcessContext& ctx, const Value& v) {
  const ProcessId i = ctx.pid();
  if (i < 0 || i >= width_) {
    throw ProtocolError("SafeAgreement: pid out of width");
  }
  if (!proposed_.insert(i).second) {
    throw ProtocolError("SafeAgreement: sa_propose invoked twice");
  }
  // (01) announce unstable value
  sm_.write(ctx, i, Value::pair(v, Value(kUnstable)));
  // (02) read the global state
  const std::vector<Value> sm = sm_.snapshot(ctx);
  // (03) cancel if someone is already stable, else stabilize
  bool someone_stable = false;
  for (const Value& e : sm) {
    if (e.at(1).as_int() == kStable) {
      someone_stable = true;
      break;
    }
  }
  sm_.write(ctx, i,
            Value::pair(v, Value(someone_stable ? kMeaningless : kStable)));
}

Value SafeAgreement::decide(ProcessContext& ctx) {
  const ProcessId i = ctx.pid();
  if (!proposed_.count(i)) {
    throw ProtocolError("SafeAgreement: sa_decide before sa_propose");
  }
  if (!decided_.insert(i).second) {
    throw ProtocolError("SafeAgreement: sa_decide invoked twice");
  }
  // (04) wait until no entry is unstable. Each snapshot is a model step,
  // so the wait is schedulable and a crashed decider unwinds here.
  for (;;) {
    const std::vector<Value> sm = sm_.snapshot(ctx);
    bool any_unstable = false;
    for (const Value& e : sm) {
      if (e.at(1).as_int() == kUnstable) {
        any_unstable = true;
        break;
      }
    }
    if (!any_unstable) {
      // (05) the stable value of the smallest simulator id
      for (const Value& e : sm) {
        if (e.at(1).as_int() == kStable) return e.at(0);
      }
      // The decider proposed before deciding, so a stable value must
      // exist ("there is at least one stable value in SM when it
      // executes line 05").
      throw ProtocolError("SafeAgreement: no stable value at decide");
    }
  }
}

bool SafeAgreement::has_stable_value() const {
  const std::vector<Value> sm = sm_.peek();
  for (const Value& e : sm) {
    if (e.at(1).as_int() == kStable) return true;
  }
  return false;
}

}  // namespace mpcn
