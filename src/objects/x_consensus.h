// XConsensus: the paper's x_cons objects (Section 2.3).
//
// "the processes can access as many consensus objects with consensus
//  number x as they want, but a given object cannot be accessed by more
//  than x (statically defined) processes. ... A process p_i, allowed to
//  access x_cons[a], accesses it by invoking
//  x_cons[a].x_cons_propose(v)."
//
// The object is one-shot per port: each allowed process proposes at most
// once; every propose returns the single decided value (validity +
// agreement + wait-free termination for the caller).
//
// Implementation note (paper footnote 1): an object of consensus number x
// restricted to x ports is interchangeable with x-process consensus. We
// realize the object with one internal CAS cell — hardware consensus
// number infinity — and *enforce the port discipline at runtime*: the
// port restriction, not the cell, is what gives the model its power
// ceiling, and the enforcement makes illegal algorithms fail loudly
// instead of silently over-synchronizing.
#pragma once

#include <optional>
#include <set>

#include "src/common/value.h"
#include "src/runtime/process_context.h"

namespace mpcn {

class XConsensus {
 public:
  // `ports`: the statically defined set of process ids allowed to access
  // the object. The object's consensus power is |ports|.
  explicit XConsensus(std::set<ProcessId> ports);

  // Propose v; returns the decided value. Throws ProtocolError if the
  // caller is not an allowed port or proposes twice.
  Value propose(ProcessContext& ctx, const Value& v);

  int port_count() const { return static_cast<int>(ports_.size()); }
  const std::set<ProcessId>& ports() const { return ports_; }

  // Harness-side peeks.
  bool has_decided() const;
  std::optional<Value> decided() const;

 private:
  const std::set<ProcessId> ports_;
  std::optional<Value> decided_;
  std::set<ProcessId> proposed_;
};

}  // namespace mpcn
