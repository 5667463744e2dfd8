#include "src/obs/metrics.h"

#include <cstdio>

namespace mpcn {

// ----------------------------------------------------------- snapshots

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
}

MetricsSnapshot MetricsSnapshot::delta_since(const MetricsSnapshot& prev) const {
  MetricsSnapshot d;
  for (const auto& [name, v] : counters) {
    auto it = prev.counters.find(name);
    std::uint64_t base = it == prev.counters.end() ? 0 : it->second;
    std::uint64_t diff = v > base ? v - base : 0;  // saturate across resets
    if (diff != 0) d.counters[name] = diff;
  }
  return d;
}

Json MetricsSnapshot::to_json() const {
  Json c = Json::object();
  for (const auto& [name, v] : counters) {
    c.set(name, static_cast<std::int64_t>(v));
  }
  Json j = Json::object();
  j.set("counters", std::move(c));
  return j;
}

MetricsSnapshot MetricsSnapshot::from_json(const Json& j) {
  MetricsSnapshot snap;
  for (const auto& [name, v] : j.at("counters").members()) {
    snap.counters[name] = static_cast<std::uint64_t>(v.as_int());
  }
  return snap;
}

// ------------------------------------------------------------ registry

Counter& MetricsRegistry::counter(const std::string& name) {
  return counters_[name];
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c.value();
  return snap;
}

namespace {

// Metric names are controlled [a-z0-9._:-] identifiers (every call site
// passes a literal), so keys need no escaping — but guard anyway: a name
// that would break JSON framing gets its offending bytes dropped rather
// than corrupting the wire line.
void append_key(std::string& out, const std::string& name) {
  out.push_back('"');
  for (char c : name) {
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
      continue;
    }
    out.push_back(c);
  }
  out.append("\":");
}

void append_int(std::string& out, std::int64_t v) {
  char buf[24];
  int n = std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out.append(buf, static_cast<std::size_t>(n));
}

}  // namespace

void MetricsRegistry::delta_json(MetricsSnapshot& prev,
                                 std::string& out) const {
  out.clear();
  out.append("{\"counters\":{");
  bool first = true;
  for (const auto& [name, c] : counters_) {
    const std::uint64_t v = c.value();
    std::uint64_t& base = prev.counters[name];
    const std::uint64_t diff = v > base ? v - base : 0;  // saturate
    base = v;
    if (diff == 0) continue;
    if (!first) out.push_back(',');
    first = false;
    append_key(out, name);
    append_int(out, static_cast<std::int64_t>(diff));
  }
  out.append("}}");
}

void MetricsRegistry::reset() {
  for (auto& [name, c] : counters_) c.reset();
}

MetricsRegistry& metrics_registry() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never dtor'd
  return *registry;
}

}  // namespace mpcn
