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
// the engine uses SafeAgreement there instead (see EngineShared).
//
// The XCONS objects are materialized lazily: an owner only touches the
// C(N-1, x-1) subsets containing it, and most objects are never created.
// Lazy creation is a harness action (the formal model has the whole array
// up front in a fixed initial state). SET_LIST and every simulator's
// pruned scan of it depend only on (N, x), so one SetList table serves
// every object of an engine (EngineShared builds it and hands it to each
// object it creates); an object built from (width, x) builds its own.
// XCONS is one flat table indexed by SET_LIST rank, sized C(N, x) on the
// object's first owner scan, whose entries are created on first visit.
// An owner propose thus allocates nothing for the objects it revisits,
// and one block for each XConsensus it creates.
//
// An elected owner is reported to its run's crash manager
// (CrashManager::on_owner_elected) right after line 01, so that the
// white-box adversary (CrashPlan::propose_trap at kOwnerElected) can
// crash exactly the owners before their first SET_LIST step.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/core/agreement_factory.h"
#include "src/core/x_compete.h"
#include "src/objects/x_consensus.h"
#include "src/registers/atomic_register.h"

namespace mpcn {

// SET_LIST for n simulators and consensus number x: the C(n, x) size-x
// subsets of {0..n-1} in lexicographic order, and each simulator's
// pruned scan — the ranks of the C(n-1, x-1) subsets that contain it, in
// ascending order, i.e. the subsequence of SET_LIST an owner visits.
// Skipping the subsets that cannot contain the caller is what keeps
// wide-x cells like ASM(12, 8, 5) from burning hundreds of millions of
// spin steps while owners scan.
class SetList {
 public:
  SetList(int n, int x);  // 1 <= x <= n

  // Ranks in one simulator's scan.
  struct Scan {
    const std::int64_t* first;
    const std::int64_t* last;
    const std::int64_t* begin() const { return first; }
    const std::int64_t* end() const { return last; }
  };

  int n() const { return n_; }
  int x() const { return x_; }
  std::int64_t size() const {
    return static_cast<std::int64_t>(members_.size()) / x_;
  }
  // SET_LIST[rank]: x ascending simulator ids.
  const ProcessId* members(std::int64_t rank) const {
    return members_.data() + rank * x_;
  }
  Scan scan(ProcessId member) const {
    const std::int64_t* row = scans_.data() + member * scan_length_;
    return Scan{row, row + scan_length_};
  }

 private:
  const int n_;
  const int x_;
  const std::int64_t scan_length_;   // C(n-1, x-1)
  std::vector<ProcessId> members_;   // size() rows of x
  std::vector<std::int64_t> scans_;  // n rows of scan_length_
};

class XSafeAgreement : public AgreementObject {
 public:
  // width = N simulators; x = the model's consensus number.
  XSafeAgreement(int width, int x);
  // N and x of a SET_LIST table shared with other objects.
  explicit XSafeAgreement(std::shared_ptr<const SetList> set_list);

  void propose(ProcessContext& ctx, const Value& v) override;
  Value decide(ProcessContext& ctx) override;

  // Harness-side introspection.
  bool has_decided_value() const;
  int owners_elected() const { return compete_.taken_count(); }
  std::int64_t consensus_objects_created() const;

 private:
  const std::shared_ptr<const SetList> set_list_;
  XCompete compete_;      // X_T&S
  AtomicRegister decided_register_;  // X_SAFE_AG

  // XCONS[rank]; empty until the first owner scan.
  std::vector<std::optional<XConsensus>> xcons_;

  // One-shot discipline per simulator.
  std::vector<bool> proposed_;
};

}  // namespace mpcn
