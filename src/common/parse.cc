#include "src/common/parse.h"

#include <algorithm>
#include <cctype>
#include <climits>
#include <cmath>
#include <set>

#include "src/common/errors.h"

namespace mpcn {

namespace {

// Expansion cap for range specs: large enough for any real grid axis,
// small enough that a typo fails instead of allocating gigabytes.
constexpr std::uint64_t kMaxAxisSize = 1u << 20;

bool all_digits(const std::string& s) {
  if (s.empty()) return false;
  return std::all_of(s.begin(), s.end(), [](unsigned char c) {
    return std::isdigit(c) != 0;
  });
}

}  // namespace

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::uint64_t parse_u64(const std::string& s) {
  const std::string t = trim(s);
  if (!all_digits(t)) {
    throw ProtocolError("expected an unsigned integer, got '" + s + "'");
  }
  std::uint64_t v = 0;
  for (char c : t) {
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) {
      throw ProtocolError("unsigned integer overflows 64 bits: '" + s + "'");
    }
    v = v * 10 + digit;
  }
  return v;
}

int parse_int(const std::string& s) {
  const std::uint64_t v = parse_u64(s);
  if (v > static_cast<std::uint64_t>(INT_MAX)) {
    throw ProtocolError("integer exceeds " + std::to_string(INT_MAX) +
                        ": '" + s + "'");
  }
  return static_cast<int>(v);
}

std::int64_t parse_i64(const std::string& s) {
  std::string t = trim(s);
  bool negative = false;
  if (!t.empty() && t[0] == '-') {
    negative = true;
    t.erase(0, 1);
  }
  const std::uint64_t mag = parse_u64(t);
  if (negative) {
    if (mag > static_cast<std::uint64_t>(INT64_MAX) + 1) {
      throw ProtocolError("integer overflows 64 bits: '" + s + "'");
    }
    return static_cast<std::int64_t>(0 - mag);
  }
  if (mag > static_cast<std::uint64_t>(INT64_MAX)) {
    throw ProtocolError("integer overflows 64 bits: '" + s + "'");
  }
  return static_cast<std::int64_t>(mag);
}

double parse_double(const std::string& s) {
  const std::string t = trim(s);
  if (t.empty()) throw ProtocolError("expected a number, got ''");
  // Plain decimal/scientific notation only: stod would also accept
  // "inf", "nan" and hex floats, which silently break downstream
  // probability math (a NaN crash probability is a no-op adversary).
  for (char c : t) {
    if (std::isdigit(static_cast<unsigned char>(c)) == 0 && c != '.' &&
        c != 'e' && c != 'E' && c != '+' && c != '-') {
      throw ProtocolError("expected a decimal number, got '" + s + "'");
    }
  }
  std::size_t consumed = 0;
  double v = 0;
  try {
    v = std::stod(t, &consumed);
  } catch (const std::exception&) {
    throw ProtocolError("expected a number, got '" + s + "'");
  }
  if (consumed != t.size()) {
    throw ProtocolError("trailing junk in number '" + s + "'");
  }
  if (!std::isfinite(v)) {
    throw ProtocolError("number '" + s + "' is not finite");
  }
  return v;
}

std::vector<std::uint64_t> parse_u64_axis(const std::string& s) {
  if (trim(s).empty()) {
    throw ProtocolError("empty axis spec (want e.g. \"5\", \"1..8\", \"3,5,9\")");
  }
  std::vector<std::uint64_t> out;
  std::set<std::uint64_t> dedup;
  for (const std::string& raw : split(s, ',')) {
    const std::string elem = trim(raw);
    if (elem.empty()) {
      throw ProtocolError("empty element in axis spec '" + s + "'");
    }
    const std::size_t dots = elem.find("..");
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    if (dots == std::string::npos) {
      lo = hi = parse_u64(elem);
    } else {
      const std::string lo_s = trim(elem.substr(0, dots));
      const std::string hi_s = trim(elem.substr(dots + 2));
      if (lo_s.empty() || hi_s.empty()) {
        throw ProtocolError("malformed range '" + elem +
                            "' in axis spec (want \"lo..hi\")");
      }
      lo = parse_u64(lo_s);
      hi = parse_u64(hi_s);
      if (hi < lo) {
        throw ProtocolError("reversed range '" + elem +
                            "' in axis spec (want lo <= hi)");
      }
    }
    // hi - lo (not hi - lo + 1, which wraps to 0 on the full u64 range)
    // keeps the cap check overflow-safe; the second test cannot
    // overflow once the first has passed.
    if (hi - lo >= kMaxAxisSize ||
        out.size() + (hi - lo) + 1 > kMaxAxisSize) {
      throw ProtocolError("axis spec '" + s + "' expands to more than " +
                          std::to_string(kMaxAxisSize) + " values");
    }
    for (std::uint64_t v = lo;; ++v) {
      if (!dedup.insert(v).second) {
        throw ProtocolError("duplicate value " + std::to_string(v) +
                            " in axis spec '" + s + "'");
      }
      out.push_back(v);
      if (v == hi) break;
    }
  }
  return out;
}

std::vector<std::string> parse_name_axis(const std::string& s) {
  if (trim(s).empty()) {
    throw ProtocolError("empty name list");
  }
  std::vector<std::string> out;
  for (const std::string& raw : split(s, ',')) {
    const std::string name = trim(raw);
    if (name.empty()) {
      throw ProtocolError("empty element in name list '" + s + "'");
    }
    if (std::find(out.begin(), out.end(), name) != out.end()) {
      throw ProtocolError("duplicate name '" + name + "' in list '" + s + "'");
    }
    out.push_back(name);
  }
  return out;
}

}  // namespace mpcn
