#include "src/core/x_safe_agreement.h"

#include <algorithm>
#include <numeric>

#include "src/common/errors.h"
#include "src/runtime/execution.h"

namespace mpcn {

SetList::SetList(int n, int x)
    : n_(n), x_(x), scan_length_(binomial(n - 1, x - 1)) {
  members_.reserve(static_cast<std::size_t>(binomial(n, x) * x));
  scans_.resize(static_cast<std::size_t>(n * scan_length_));
  // The next free slot of each simulator's scan row.
  std::vector<std::size_t> next(static_cast<std::size_t>(n));
  for (std::size_t e = 0; e < next.size(); ++e) {
    next[e] = e * static_cast<std::size_t>(scan_length_);
  }
  // Walk the subsets in lexicographic order: each lands in the scans of
  // its members, so every scan ascends.
  std::vector<ProcessId> subset(static_cast<std::size_t>(x));
  std::iota(subset.begin(), subset.end(), 0);
  for (std::int64_t rank = 0;; ++rank) {
    for (const ProcessId e : subset) {
      members_.push_back(e);
      scans_[next[static_cast<std::size_t>(e)]++] = rank;
    }
    // The next subset: bump the last element that can still grow and
    // restart the ones after it right above it.
    std::size_t i = subset.size();
    while (i > 0 && subset[i - 1] == n - x + static_cast<int>(i) - 1) --i;
    if (i == 0) return;
    ++subset[i - 1];
    for (; i < subset.size(); ++i) subset[i] = subset[i - 1] + 1;
  }
}

namespace {

std::shared_ptr<const SetList> checked_set_list(int width, int x) {
  if (x < 1 || x > width) {
    throw ProtocolError("XSafeAgreement needs 1 <= x <= width");
  }
  return std::make_shared<const SetList>(width, x);
}

}  // namespace

XSafeAgreement::XSafeAgreement(int width, int x)
    : XSafeAgreement(checked_set_list(width, x)) {}

XSafeAgreement::XSafeAgreement(std::shared_ptr<const SetList> set_list)
    : set_list_(std::move(set_list)),
      compete_(set_list_->x()),
      proposed_(static_cast<std::size_t>(set_list_->n())) {}

void XSafeAgreement::propose(ProcessContext& ctx, const Value& v) {
  const ProcessId i = ctx.pid();
  if (i < 0 || i >= set_list_->n()) {
    throw ProtocolError("XSafeAgreement: pid out of width");
  }
  if (proposed_[static_cast<std::size_t>(i)]) {
    throw ProtocolError("XSafeAgreement: x_sa_propose invoked twice");
  }
  proposed_[static_cast<std::size_t>(i)] = true;
  // (01) compete for ownership; (02/08) non-owners are done: >= x others
  // proposed.
  if (!compete_.compete(ctx)) return;
  ctx.backend().crashes().on_owner_elected(ctx.tid());
  // (03..06) scan SET_LIST in the fixed global order, funnelling res
  // through every x-consensus object whose subset contains i. The scan is
  // pruned to the C(width-1, x-1) subsets that CAN contain i — the visit
  // sequence (and hence the agreement argument of Theorem 2) is the same
  // subsequence of the global order the full scan would produce.
  const SetList& set_list = *set_list_;
  if (xcons_.empty()) {
    xcons_ = std::vector<std::optional<XConsensus>>(
        static_cast<std::size_t>(set_list.size()));
  }
  Value res = v;
  for (const std::int64_t rank : set_list.scan(i)) {
    std::optional<XConsensus>& xcons = xcons_[static_cast<std::size_t>(rank)];
    if (!xcons) {
      const ProcessId* members = set_list.members(rank);
      xcons.emplace(members, members + set_list.x());
    }
    res = xcons->propose(ctx, res);
  }
  // (07) publish the decided value
  decided_register_.write(ctx, res);
}

Value XSafeAgreement::decide(ProcessContext& ctx) {
  const ProcessId i = ctx.pid();
  if (i < 0 || i >= set_list_->n() || !proposed_[static_cast<std::size_t>(i)]) {
    throw ProtocolError("XSafeAgreement: x_sa_decide before propose");
  }
  // (09) wait (X_SAFE_AG != ⊥): each read is a schedulable model step.
  for (;;) {
    const Value v = decided_register_.read(ctx);
    if (!v.is_nil()) return v;  // (10)
  }
}

bool XSafeAgreement::has_decided_value() const {
  return !decided_register_.peek().is_nil();
}

std::int64_t XSafeAgreement::consensus_objects_created() const {
  return std::count_if(xcons_.begin(), xcons_.end(),
                       [](const auto& xcons) { return xcons.has_value(); });
}

}  // namespace mpcn
