// Identifiers and small arithmetic helpers shared across the library.
//
// Process ids are 0-based internally; the paper indexes processes 1..n.
// Comments referencing paper figures keep the paper's 1-based names
// (p_j for simulated processes, q_i for simulators).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace mpcn {

// Id of a model-level process (a simulator q_i or a directly-run process).
using ProcessId = int;

// A thread within a process's crash domain. Simulators fork one child
// thread per simulated process; the child shares the parent's ProcessId.
struct ThreadId {
  ProcessId pid = -1;
  int sub = 0;  // 0 = the process's own thread; >=1 = forked children

  bool operator==(const ThreadId& o) const {
    return pid == o.pid && sub == o.sub;
  }
  std::string to_string() const {
    return "q" + std::to_string(pid) +
           (sub == 0 ? std::string() : ("." + std::to_string(sub - 1)));
  }
};

inline bool operator<(const ThreadId& a, const ThreadId& b) {
  return a.pid != b.pid ? a.pid < b.pid : a.sub < b.sub;
}

// floor(a / b) for non-negative a, positive b — the paper's ⌊t/x⌋.
// Centralized so model arithmetic is never re-derived inline.
inline int floor_div(int a, int b) {
  if (a < 0 || b <= 0) {
    throw std::invalid_argument("floor_div requires a >= 0 and b > 0");
  }
  return a / b;
}

// C(n, k): number of size-k subsets of n elements — the paper's m in
// Section 4.3 (SET_LIST has one entry per size-x subset of simulators).
inline std::int64_t binomial(int n, int k) {
  if (k < 0 || n < 0 || k > n) return 0;
  if (k > n - k) k = n - k;
  std::int64_t r = 1;
  for (int i = 1; i <= k; ++i) {
    r = r * (n - k + i) / i;
  }
  return r;
}

}  // namespace mpcn
