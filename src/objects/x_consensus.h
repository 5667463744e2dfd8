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
//
// Each port and its one-shot mark share one entry of one vector, so
// creating an object allocates one block and a propose allocates none
// (x_safe_agreement.h creates these inside owner scans).
#pragma once

#include <iterator>
#include <optional>
#include <vector>

#include "src/common/errors.h"
#include "src/common/value.h"
#include "src/runtime/process_context.h"

namespace mpcn {

class XConsensus {
 public:
  // [first, last): the statically defined, distinct process ids allowed
  // to access the object (a std::set, or a SET_LIST row). The object's
  // consensus power is their count.
  template <typename It>
  XConsensus(It first, It last) {
    ports_.reserve(static_cast<std::size_t>(std::distance(first, last)));
    for (; first != last; ++first) ports_.push_back(Port{*first, false});
    if (ports_.empty()) {
      throw ProtocolError("XConsensus needs at least one port");
    }
  }

  // Propose v; returns the decided value. Throws ProtocolError if the
  // caller is not an allowed port or proposes twice.
  Value propose(ProcessContext& ctx, const Value& v);

  // Harness-side peeks.
  bool has_decided() const { return decided_.has_value(); }
  std::optional<Value> decided() const { return decided_; }

 private:
  struct Port {
    ProcessId pid;
    bool proposed;  // the one-shot mark
  };
  std::vector<Port> ports_;
  std::optional<Value> decided_;
};

}  // namespace mpcn
