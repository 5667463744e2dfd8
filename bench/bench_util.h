// Shared helpers for the bench binaries.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/parse.h"
#include "src/common/value.h"
#include "src/experiment/record.h"
#include "src/runtime/execution.h"

namespace mpcn::benchutil {

inline ExecutionOptions free_mode(std::uint64_t step_limit = 50'000'000) {
  ExecutionOptions o;
  o.mode = SchedulerMode::kFree;
  o.step_limit = step_limit;
  return o;
}

inline std::vector<Value> int_inputs(int n, int base = 0) {
  std::vector<Value> v;
  v.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v.push_back(Value(base + i));
  return v;
}

// --json[=path] / --json path support for the table-style bench drivers:
// when present, the bench writes its Report as pretty-printed JSON to
// `path` (default: BENCH_<title>.json in the working directory) so runs
// are machine-readable. Returns the empty string when --json is absent.
inline std::string json_out_path(int argc, char** argv,
                                 const std::string& title) {
  if (!flag_present(argc, argv, "json")) return "";
  if (const auto v = flag_value(argc, argv, "json")) return *v;
  return "BENCH_" + title + ".json";
}

// Write `report` where --json asked for it (no-op without --json).
// Returns true on success or when no output was requested.
inline bool maybe_write_report(const Report& report, int argc, char** argv) {
  const std::string path = json_out_path(argc, argv, report.title);
  if (path.empty()) return true;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  out << report.to_json().dump(2) << "\n";
  out.flush();  // surface late write errors (full disk) before good()
  if (!out.good()) {
    std::fprintf(stderr, "write to %s failed\n", path.c_str());
    return false;
  }
  std::printf("\n[json report written to %s]\n", path.c_str());
  return true;
}

}  // namespace mpcn::benchutil
