#include "src/explore/trace.h"

#include <cstdio>

#include "src/common/errors.h"

namespace mpcn {

namespace {
constexpr std::uint64_t kFnvPrime = 1099511628211ull;
constexpr std::uint64_t kFnvPrime4 = kFnvPrime * kFnvPrime * kFnvPrime *
                                     kFnvPrime;  // mod 2^64
}  // namespace

std::string ScheduleTrace::digest() const {
  // FNV-1a 64 over the (pid, sub) int32 stream, little-endian bytes. The
  // three high bytes of a word below 256 are zero, and xor with zero is
  // a no-op, so its four byte rounds are exactly one xor and one
  // multiply by prime^4: one dependent multiply per word instead of four.
  // Wider words (pid -1, ids of 256 and up, crash marks) take the bytes.
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint32_t word) {
    if (word < 256) {
      h = (h ^ word) * kFnvPrime4;
      return;
    }
    for (int i = 0; i < 4; ++i) {
      h ^= (word >> (8 * i)) & 0xffu;
      h *= kFnvPrime;
    }
  };
  for (const ThreadId& t : grants) {
    mix(static_cast<std::uint32_t>(t.pid));
    mix(static_cast<std::uint32_t>(t.sub));
  }
  if (!crashes.empty()) {
    // Mixed only when present: a crash-free trace keeps its pre-crash
    // digest. The sentinel word separates "crash at grant 0" from a
    // schedule whose next grant happens to be thread (0,0).
    mix(0xc4a54ed5u);
    for (std::uint64_t c : crashes) {
      mix(static_cast<std::uint32_t>(c & 0xffffffffu));
      mix(static_cast<std::uint32_t>(c >> 32));
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf, 16);
}

Json ScheduleTrace::to_json() const {
  Json arr = Json::array();
  for (const ThreadId& t : grants) {
    Json pair = Json::array();
    pair.push(Json(t.pid)).push(Json(t.sub));
    arr.push(std::move(pair));
  }
  Json j = Json::object();
  j.set("grants", std::move(arr));
  if (!crashes.empty()) {
    Json marks = Json::array();
    for (std::uint64_t c : crashes) {
      marks.push(Json(static_cast<std::int64_t>(c)));
    }
    j.set("crashes", std::move(marks));
  }
  return j;
}

ScheduleTrace ScheduleTrace::from_json(const Json& j) {
  ScheduleTrace trace;
  const Json& grants = j.at("grants");
  trace.grants.reserve(grants.size());
  for (const Json& pair : grants.items()) {
    if (!pair.is_array() || pair.size() != 2) {
      throw ProtocolError("ScheduleTrace grant must be a [pid, sub] pair: " +
                          pair.dump());
    }
    ThreadId tid;
    tid.pid = static_cast<ProcessId>(pair.at(0).as_int());
    tid.sub = static_cast<int>(pair.at(1).as_int());
    trace.grants.push_back(tid);
  }
  if (const Json* marks = j.find("crashes")) {
    std::uint64_t prev = 0;
    bool first = true;
    for (const Json& c : marks->items()) {
      const std::int64_t idx = c.as_int();
      if (idx < 0 || static_cast<std::size_t>(idx) >= trace.grants.size()) {
        throw ProtocolError("ScheduleTrace crash mark " + std::to_string(idx) +
                            " is out of range for " +
                            std::to_string(trace.grants.size()) + " grants");
      }
      const std::uint64_t u = static_cast<std::uint64_t>(idx);
      if (!first && u <= prev) {
        throw ProtocolError("ScheduleTrace crash marks must be strictly "
                            "ascending");
      }
      trace.crashes.push_back(u);
      prev = u;
      first = false;
    }
  }
  return trace;
}

const char* to_string(SchedulePolicyKind kind) {
  switch (kind) {
    case SchedulePolicyKind::kDefault:
      return "default";
    case SchedulePolicyKind::kSeededRandom:
      return "random";
    case SchedulePolicyKind::kScripted:
      return "scripted";
    case SchedulePolicyKind::kPct:
      return "pct";
  }
  return "?";
}

SchedulePolicyKind schedule_policy_kind_from_string(const std::string& s) {
  if (s == "default") return SchedulePolicyKind::kDefault;
  if (s == "random") return SchedulePolicyKind::kSeededRandom;
  if (s == "scripted") return SchedulePolicyKind::kScripted;
  if (s == "pct") return SchedulePolicyKind::kPct;
  throw ProtocolError("unknown SchedulePolicyKind: '" + s +
                      "' (want default|random|scripted|pct)");
}

Json ScheduleSpec::to_json() const {
  Json j = Json::object();
  j.set("kind", to_string(kind));
  if (seed != 0) j.set("seed", static_cast<std::int64_t>(seed));
  if (kind == SchedulePolicyKind::kPct) {
    j.set("pct_depth", pct_depth)
        .set("pct_horizon", static_cast<std::int64_t>(pct_horizon));
  }
  if (kind == SchedulePolicyKind::kScripted) {
    j.set("script", script ? script->to_json() : Json::null());
  }
  return j;
}

ScheduleSpec ScheduleSpec::from_json(const Json& j) {
  ScheduleSpec spec;
  spec.kind = schedule_policy_kind_from_string(j.at("kind").as_string());
  if (const Json* s = j.find("seed")) {
    spec.seed = static_cast<std::uint64_t>(s->as_int());
  }
  if (const Json* d = j.find("pct_depth")) {
    spec.pct_depth = static_cast<int>(d->as_int());
  }
  if (const Json* h = j.find("pct_horizon")) {
    spec.pct_horizon = static_cast<std::uint64_t>(h->as_int());
  }
  if (const Json* s = j.find("script")) {
    if (!s->is_null()) {
      spec.script =
          std::make_shared<const ScheduleTrace>(ScheduleTrace::from_json(*s));
    }
  }
  if (spec.kind == SchedulePolicyKind::kScripted && !spec.script) {
    throw ProtocolError("scripted ScheduleSpec needs a script trace");
  }
  return spec;
}

bool ScheduleSpec::operator==(const ScheduleSpec& o) const {
  if (kind != o.kind || seed != o.seed || pct_depth != o.pct_depth ||
      pct_horizon != o.pct_horizon) {
    return false;
  }
  if (!script != !o.script) return false;
  return !script || *script == *o.script;
}

}  // namespace mpcn
