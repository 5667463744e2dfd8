// Small shared parsers for CLI flags and grid-axis specs.
//
// The Experiment grids are driven from strings in three places — the mpcn
// CLI (src/cli/), the bench binaries (bench/bench_util.h) and the CI
// scripts — and all of them need the same three parses:
//
//   * unsigned axis specs:  "5"        -> {5}
//                           "1..8"     -> {1,2,...,8}       (inclusive)
//                           "3,5,9"    -> {3,5,9}
//                           "1..3,7"   -> {1,2,3,7}         (mixable)
//   * name axes:            "condvar,spin_park" -> {"condvar","spin_park"}
//   * argv flag scanning:   --name value  and  --name=value
//
// Every malformed input throws ProtocolError with a message naming the
// offending token — string-addressable surfaces must fail loudly, never
// guess (same contract as the scenario registry).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace mpcn {

// Separator split; empty fields are preserved ("a,,b" -> {"a","","b"})
// so callers can reject them with a precise message.
std::vector<std::string> split(const std::string& s, char sep);

// Strip leading/trailing ASCII whitespace.
std::string trim(const std::string& s);

// Strict full-string decimal parses (no sign for u64, optional '-' for
// i64, no hex/whitespace/partial consumption). Throw ProtocolError.
std::uint64_t parse_u64(const std::string& s);
std::int64_t parse_i64(const std::string& s);
double parse_double(const std::string& s);

// parse_u64 for int-typed flags (counts, budgets, bounds): also rejects
// values above INT_MAX, which a cast would wrap (2^32 + 1 -> 1).
int parse_int(const std::string& s);

// Axis spec of unsigned values (see file comment). Order-preserving;
// duplicates and reversed ranges ("8..1") are rejected — a duplicate
// seed would silently double grid cells. Range size is capped so a typo
// like "1..1000000000" fails instead of expanding.
std::vector<std::uint64_t> parse_u64_axis(const std::string& s);

// Comma list of non-empty names, whitespace-trimmed, duplicates rejected.
std::vector<std::string> parse_name_axis(const std::string& s);

// ------------------------------------------------------- argv scanning
// Shared by bench_util.h and the CLI so flag syntax cannot drift between
// the two. `name` is given without dashes ("json" matches "--json").

// True if --name appears (with or without a value).
bool flag_present(int argc, char** argv, const std::string& name);

// The value of --name: "--name=v" always yields "v"; "--name v" yields
// "v" unless the next token starts with '-'. nullopt when the flag is
// absent or valueless.
std::optional<std::string> flag_value(int argc, char** argv,
                                      const std::string& name);

}  // namespace mpcn
