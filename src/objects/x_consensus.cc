#include "src/objects/x_consensus.h"

namespace mpcn {

Value XConsensus::propose(ProcessContext& ctx, const Value& v) {
  Port* port = nullptr;
  for (Port& p : ports_) {
    if (p.pid == ctx.pid()) {
      port = &p;
      break;
    }
  }
  if (!port) {
    throw ProtocolError("process " + std::to_string(ctx.pid()) +
                        " is not a port of this x-consensus object");
  }
  auto g = ctx.step();
  if (port->proposed) {
    throw ProtocolError("x_cons_propose invoked twice by process " +
                        std::to_string(ctx.pid()));
  }
  port->proposed = true;
  if (!decided_.has_value()) decided_ = v;  // the winning propose
  return *decided_;
}

}  // namespace mpcn
