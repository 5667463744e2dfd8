#include "src/objects/x_consensus.h"

#include "src/common/errors.h"

namespace mpcn {

XConsensus::XConsensus(std::set<ProcessId> ports) : ports_(std::move(ports)) {
  if (ports_.empty()) {
    throw ProtocolError("XConsensus needs at least one port");
  }
}

Value XConsensus::propose(ProcessContext& ctx, const Value& v) {
  if (!ports_.count(ctx.pid())) {
    throw ProtocolError("process " + std::to_string(ctx.pid()) +
                        " is not a port of this x-consensus object");
  }
  auto g = ctx.step();
  if (proposed_.count(ctx.pid())) {
    throw ProtocolError("x_cons_propose invoked twice by process " +
                        std::to_string(ctx.pid()));
  }
  proposed_.insert(ctx.pid());
  if (!decided_.has_value()) decided_ = v;  // the winning propose
  return *decided_;
}

bool XConsensus::has_decided() const { return decided_.has_value(); }

std::optional<Value> XConsensus::decided() const { return decided_; }

}  // namespace mpcn
