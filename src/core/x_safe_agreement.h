// XSafeAgreement: the x_safe_agreement object type (Section 4.2-4.3,
// Figure 6).
//
// The paper's key new object. Properties (Section 4.2): agreement and
// validity as usual, plus
//   Termination: if at most (x-1) processes crash while executing
//   x_sa_propose(), then any correct simulator that invokes x_sa_decide()
//   returns from that invocation.
//
// Construction (Figure 6), for N potential simulators:
//   * X_T&S:  an XCompete instance (x test&set objects) electing the
//     (dynamic) owners — the first x competitors (Figure 5);
//   * SET_LIST[1..m]: the m = C(N,x) subsets of simulators of size x, in
//     a fixed (lexicographic) order every owner scans identically;
//   * XCONS[1..m]: one x-consensus object per subset, accessible exactly
//     by that subset's members (port-enforced);
//   * X_SAFE_AG: an atomic register holding the decided value (nil = ⊥).
//
//   x_sa_propose_i(v):
//     (01) owner_i <- X_T&S.x_compete_i()
//     (02) if owner_i then
//     (03)   res <- v
//     (04)   for l from 1 to m do
//     (05)     if i in SET_LIST[l] then res <- XCONS[l].x_cons_propose(res)
//     (06)   end for
//     (07)   X_SAFE_AG <- res
//     (08) end if
//   x_sa_decide_i():
//     (09) wait (X_SAFE_AG != ⊥)
//     (10) return X_SAFE_AG
//
// Why it works (Theorem 2): some l* has owners ⊆ SET_LIST[l*]; the
// x-consensus object XCONS[l*] forces all owners onto one value v; from
// then on every owner proposes v to every later object it visits, and
// since only owners reach line 05, only v can be decided by those
// objects; hence every write at line 07 writes v.
//
// x = 1 degenerates to a one-owner object whose termination property
// matches Figure 1's safe_agreement — but its *implementation* uses
// test&set and consensus objects, which are NOT legal in ASM(N, t, 1);
// the engine uses SafeAgreement there instead (see make_agreement).
//
// The XCONS objects are materialized lazily: an owner only touches the
// C(N-1, x-1) subsets containing it, and most objects are never created.
// Lazy creation is a harness action (the formal model has the whole array
// up front in a fixed initial state).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/core/agreement_factory.h"
#include "src/core/x_compete.h"
#include "src/objects/x_consensus.h"
#include "src/registers/atomic_register.h"

namespace mpcn {

// Enumeration of size-x subsets of {0..n-1} in lexicographic order —
// SET_LIST. Exposed for tests.
std::vector<int> unrank_combination(int n, int x, std::int64_t rank);
std::int64_t rank_combination(int n, const std::vector<int>& subset);

// The pruned SET_LIST scan: the C(n-1, x-1) subsets that contain `member`,
// as (rank, members) pairs in ascending rank — i.e. the subsequence of the
// global lexicographic SET_LIST an owner actually visits. Skipping the
// C(n, x) - C(n-1, x-1) subsets that cannot contain the caller (and their
// per-subset unranking) is what keeps wide-x cells like ASM(12, 8, 5) from
// burning hundreds of millions of spin steps while owners scan.
std::vector<std::pair<std::int64_t, std::vector<int>>>
member_combination_scan(int n, int x, int member);

class XSafeAgreement : public AgreementObject {
 public:
  // Testing hook: called right after the ownership election with the
  // result; lets the white-box adversary (CrashPlan::propose_trap at
  // kOwnerElected) target exactly the owners.
  using CompeteHook = std::function<void(ProcessContext&, bool owner)>;

  // width = N simulators; x = the model's consensus number.
  XSafeAgreement(int width, int x, CompeteHook compete_hook = {});

  void propose(ProcessContext& ctx, const Value& v) override;
  Value decide(ProcessContext& ctx) override;

  // Harness-side introspection.
  bool has_decided_value() const;
  int owners_elected() const { return compete_.taken_count(); }
  std::int64_t consensus_objects_created() const;

 private:
  XConsensus& xcons_for(std::int64_t rank, const std::vector<int>& members);

  const int width_;
  const int x_;
  const CompeteHook compete_hook_;
  XCompete compete_;      // X_T&S
  AtomicRegister decided_register_;  // X_SAFE_AG

  std::map<std::int64_t, std::unique_ptr<XConsensus>> xcons_;

  // One-shot discipline per simulator.
  std::set<ProcessId> proposed_;
};

}  // namespace mpcn
