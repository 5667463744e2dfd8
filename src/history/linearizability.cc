#include "src/history/linearizability.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "src/common/errors.h"

namespace mpcn {

std::string SnapshotSpec::initial_state() const {
  // State: the current array, serialized.
  std::ostringstream os;
  for (int i = 0; i < width_; ++i) os << "nil;";
  return os.str();
}

namespace {

std::vector<std::string> split_state(const std::string& s) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : s) {
    if (c == ';') {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  return parts;
}

std::string join_state(const std::vector<std::string>& parts) {
  std::string out;
  for (const auto& p : parts) {
    out += p;
    out += ';';
  }
  return out;
}

}  // namespace

std::optional<std::string> SnapshotSpec::apply(const std::string& state,
                                               const Event& e) const {
  std::vector<std::string> cells = split_state(state);
  if (e.op == EventOp::kWrite) {
    if (e.cell < 0 || e.cell >= width_) return std::nullopt;
    cells[static_cast<std::size_t>(e.cell)] = e.value.to_string();
    return join_state(cells);
  }
  if (e.view.size() != static_cast<std::size_t>(width_)) return std::nullopt;
  for (std::size_t i = 0; i < e.view.size(); ++i) {
    if (e.view[i].to_string() != cells[i]) return std::nullopt;
  }
  return state;  // reads do not change state
}

bool is_linearizable(const std::vector<Event>& history,
                     const SequentialSpec& spec) {
  const std::size_t n = history.size();
  if (n == 0) return true;
  if (n > kMaxLinearizableOps) {
    throw ProtocolError("linearizability checker limited to " +
                        std::to_string(kMaxLinearizableOps) + " operations");
  }

  // DFS over bitmask of linearized ops. A candidate op may linearize next
  // only if no un-linearized op responded before its invocation.
  std::unordered_set<std::string> failed;  // memo of dead (mask|state)

  struct Frame {
    std::uint64_t mask;
    std::string state;
  };
  std::vector<Frame> stack;
  stack.push_back({0, spec.initial_state()});

  const std::uint64_t full =
      (n == 64) ? ~0ull : ((1ull << n) - 1);

  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    if (f.mask == full) return true;

    const std::string key = std::to_string(f.mask) + "|" + f.state;
    if (failed.count(key)) continue;
    failed.insert(key);

    // Earliest response among pending ops bounds which ops can go next.
    std::uint64_t min_resp = ~0ull;
    for (std::size_t i = 0; i < n; ++i) {
      if (!(f.mask & (1ull << i))) {
        min_resp = std::min(min_resp, history[i].response_step);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (f.mask & (1ull << i)) continue;
      if (history[i].invoke_step > min_resp) continue;  // real-time violation
      auto next = spec.apply(f.state, history[i]);
      if (next) {
        stack.push_back({f.mask | (1ull << i), *next});
      }
    }
  }
  return false;
}

}  // namespace mpcn
