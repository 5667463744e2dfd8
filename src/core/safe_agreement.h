// SafeAgreement: the safe_agreement object type (Section 3.1, Figure 1).
//
// The object at the core of the BG simulation. Implemented exactly as in
// Figure 1, on one snapshot object SM with one (value, level) entry per
// simulator:
//
//   sa_propose_i(v):
//     (01) SM[i] <- (v, 1)                      // unstable
//     (02) sm_i <- SM.snapshot()
//     (03) if exists x: sm_i[x].level = 2
//            then SM[i] <- (v, 0)               // cancel (meaningless)
//            else SM[i] <- (v, 2)               // stabilize
//   sa_decide_i():
//     (04) repeat sm_i <- SM.snapshot() until forall x: sm_i[x].level != 1
//     (05) x = min{ k | sm_i[k].level = 2 }; res <- sm_i[x].value
//     (06) return res
//
// Levels: 0 = meaningless, 1 = unstable, 2 = stable. The decided value is
// the stable value of the smallest simulator id, identical at every
// decider. A simulator that crashes *between* lines 01 and 03 leaves an
// eternally-unstable entry, blocking every decider: this is precisely the
// blocking granularity the BG simulation's mutex discipline relies on
// (Lemma 1).
#pragma once

#include <vector>

#include "src/core/agreement_factory.h"
#include "src/snapshot/primitive_snapshot.h"

namespace mpcn {

class SafeAgreement : public AgreementObject {
 public:
  // width = number of simulators that may access the object.
  explicit SafeAgreement(int width);

  void propose(ProcessContext& ctx, const Value& v) override;
  Value decide(ProcessContext& ctx) override;

 private:
  static constexpr std::int64_t kMeaningless = 0;
  static constexpr std::int64_t kUnstable = 1;
  static constexpr std::int64_t kStable = 2;

  const int width_;
  PrimitiveSnapshot sm_;  // SM[1..width], entries (value, level)

  // One-shot discipline (propose once, then decide once), per simulator.
  std::vector<bool> proposed_;
  std::vector<bool> decided_;
};

}  // namespace mpcn
