#include "src/core/x_safe_agreement.h"

#include "src/common/errors.h"

namespace mpcn {

std::vector<int> unrank_combination(int n, int x, std::int64_t rank) {
  // Lexicographic unranking: choose elements left to right; skipping
  // first element e costs C(n - e - 1, x - 1) combinations.
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(x));
  int e = 0;
  for (int k = x; k > 0; --k) {
    for (;; ++e) {
      const std::int64_t block = binomial(n - e - 1, k - 1);
      if (rank < block) break;
      rank -= block;
    }
    out.push_back(e);
    ++e;
  }
  return out;
}

std::int64_t rank_combination(int n, const std::vector<int>& subset) {
  std::int64_t rank = 0;
  int prev = -1;
  int k = static_cast<int>(subset.size());
  for (int idx = 0; idx < k; ++idx) {
    for (int e = prev + 1; e < subset[static_cast<std::size_t>(idx)]; ++e) {
      rank += binomial(n - e - 1, k - idx - 1);
    }
    prev = subset[static_cast<std::size_t>(idx)];
  }
  return rank;
}

std::vector<std::pair<std::int64_t, std::vector<int>>>
member_combination_scan(int n, int x, int member) {
  std::vector<std::pair<std::int64_t, std::vector<int>>> out;
  if (x < 1 || x > n || member < 0 || member >= n) return out;
  std::vector<int> others;
  others.reserve(static_cast<std::size_t>(n - 1));
  for (int e = 0; e < n; ++e) {
    if (e != member) others.push_back(e);
  }
  const int k = x - 1;  // companions drawn from the n-1 other elements
  out.reserve(static_cast<std::size_t>(binomial(n - 1, k)));
  std::vector<int> idx(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) idx[static_cast<std::size_t>(i)] = i;
  for (;;) {
    std::vector<int> subset;
    subset.reserve(static_cast<std::size_t>(x));
    bool placed = false;
    for (int i = 0; i < k; ++i) {
      const int e = others[static_cast<std::size_t>(idx[static_cast<std::size_t>(i)])];
      if (!placed && member < e) {
        subset.push_back(member);
        placed = true;
      }
      subset.push_back(e);
    }
    if (!placed) subset.push_back(member);
    out.emplace_back(rank_combination(n, subset), std::move(subset));
    if (k == 0) break;
    // Next index-combination of `others` choose k, lexicographically.
    int i = k - 1;
    while (i >= 0 &&
           idx[static_cast<std::size_t>(i)] == (n - 1) - (k - i)) {
      --i;
    }
    if (i < 0) break;
    ++idx[static_cast<std::size_t>(i)];
    for (int j = i + 1; j < k; ++j) {
      idx[static_cast<std::size_t>(j)] = idx[static_cast<std::size_t>(j - 1)] + 1;
    }
  }
  // Lexicographic enumeration of the companions yields ascending global
  // ranks (inserting the fixed member preserves lexicographic order), so
  // no sort is needed; the contract — owners visit their subsequence of
  // SET_LIST in the global order — is pinned against the full filtered
  // scan by MemberCombinationScan.MatchesFilteredGlobalOrder.
  return out;
}

XSafeAgreement::XSafeAgreement(int width, int x, CompeteHook compete_hook)
    : width_(width),
      x_(x),
      compete_hook_(std::move(compete_hook)),
      compete_(x) {
  if (x < 1 || x > width) {
    throw ProtocolError("XSafeAgreement needs 1 <= x <= width");
  }
}

XConsensus& XSafeAgreement::xcons_for(std::int64_t rank,
                                      const std::vector<int>& members) {
  auto it = xcons_.find(rank);
  if (it == xcons_.end()) {
    std::set<ProcessId> ports(members.begin(), members.end());
    it = xcons_.emplace(rank, std::make_unique<XConsensus>(std::move(ports)))
             .first;
  }
  return *it->second;
}

void XSafeAgreement::propose(ProcessContext& ctx, const Value& v) {
  const ProcessId i = ctx.pid();
  if (i < 0 || i >= width_) {
    throw ProtocolError("XSafeAgreement: pid out of width");
  }
  if (!proposed_.insert(i).second) {
    throw ProtocolError("XSafeAgreement: x_sa_propose invoked twice");
  }
  // (01) compete for ownership
  const bool owner = compete_.compete(ctx);
  if (compete_hook_) compete_hook_(ctx, owner);
  if (!owner) return;  // (02/08) non-owners are done: >= x others proposed
  // (03..06) scan SET_LIST in the fixed global order, funnelling res
  // through every x-consensus object whose subset contains i. The scan is
  // pruned to the C(width-1, x-1) subsets that CAN contain i — the visit
  // sequence (and hence the agreement argument of Theorem 2) is the same
  // subsequence of the global order the full scan would produce, without
  // unranking the subsets that would be skipped anyway.
  Value res = v;
  for (const auto& [rank, members] : member_combination_scan(width_, x_, i)) {
    res = xcons_for(rank, members).propose(ctx, res);
  }
  // (07) publish the decided value
  decided_register_.write(ctx, res);
}

Value XSafeAgreement::decide(ProcessContext& ctx) {
  if (!proposed_.count(ctx.pid())) {
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
  return static_cast<std::int64_t>(xcons_.size());
}

}  // namespace mpcn
