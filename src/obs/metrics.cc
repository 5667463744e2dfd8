#include "src/obs/metrics.h"

#include <algorithm>
#include <cstdio>

namespace mpcn {

// ----------------------------------------------------------- snapshots

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, v] : other.gauges) gauges[name] += v;
  for (const auto& [name, h] : other.histograms) {
    HistogramData& mine = histograms[name];
    mine.count += h.count;
    mine.sum += h.sum;
    if (mine.buckets.size() < h.buckets.size()) {
      mine.buckets.resize(h.buckets.size(), 0);
    }
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      mine.buckets[i] += h.buckets[i];
    }
  }
}

MetricsSnapshot MetricsSnapshot::delta_since(const MetricsSnapshot& prev) const {
  MetricsSnapshot d;
  for (const auto& [name, v] : counters) {
    auto it = prev.counters.find(name);
    std::uint64_t base = it == prev.counters.end() ? 0 : it->second;
    std::uint64_t diff = v > base ? v - base : 0;  // saturate across resets
    if (diff != 0) d.counters[name] = diff;
  }
  for (const auto& [name, v] : gauges) {
    auto it = prev.gauges.find(name);
    std::int64_t base = it == prev.gauges.end() ? 0 : it->second;
    if (v != base) d.gauges[name] = v - base;
  }
  for (const auto& [name, h] : histograms) {
    const HistogramData* base = nullptr;
    auto it = prev.histograms.find(name);
    if (it != prev.histograms.end()) base = &it->second;
    HistogramData dh;
    std::uint64_t bc = base ? base->count : 0;
    std::uint64_t bs = base ? base->sum : 0;
    dh.count = h.count > bc ? h.count - bc : 0;
    dh.sum = h.sum > bs ? h.sum - bs : 0;
    std::size_t last = 0;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      std::uint64_t bb =
          base && i < base->buckets.size() ? base->buckets[i] : 0;
      std::uint64_t diff = h.buckets[i] > bb ? h.buckets[i] - bb : 0;
      if (diff != 0) last = i + 1;
    }
    dh.buckets.reserve(last);
    for (std::size_t i = 0; i < last; ++i) {
      std::uint64_t bb =
          base && i < base->buckets.size() ? base->buckets[i] : 0;
      dh.buckets.push_back(h.buckets[i] > bb ? h.buckets[i] - bb : 0);
    }
    if (dh.count != 0 || dh.sum != 0 || !dh.buckets.empty()) {
      d.histograms[name] = std::move(dh);
    }
  }
  return d;
}

Json MetricsSnapshot::to_json() const {
  Json j = Json::object();
  Json c = Json::object();
  for (const auto& [name, v] : counters) {
    c.set(name, static_cast<std::int64_t>(v));
  }
  Json g = Json::object();
  for (const auto& [name, v] : gauges) g.set(name, v);
  Json h = Json::object();
  for (const auto& [name, data] : histograms) {
    Json one = Json::object();
    one.set("count", static_cast<std::int64_t>(data.count));
    one.set("sum", static_cast<std::int64_t>(data.sum));
    Json buckets = Json::array();
    for (std::uint64_t b : data.buckets) {
      buckets.push(static_cast<std::int64_t>(b));
    }
    one.set("buckets", std::move(buckets));
    h.set(name, std::move(one));
  }
  j.set("counters", std::move(c));
  j.set("gauges", std::move(g));
  j.set("histograms", std::move(h));
  return j;
}

MetricsSnapshot MetricsSnapshot::from_json(const Json& j) {
  MetricsSnapshot snap;
  for (const auto& [name, v] : j.at("counters").members()) {
    snap.counters[name] = static_cast<std::uint64_t>(v.as_int());
  }
  for (const auto& [name, v] : j.at("gauges").members()) {
    snap.gauges[name] = v.as_int();
  }
  for (const auto& [name, v] : j.at("histograms").members()) {
    HistogramData data;
    data.count = static_cast<std::uint64_t>(v.at("count").as_int());
    data.sum = static_cast<std::uint64_t>(v.at("sum").as_int());
    for (const Json& b : v.at("buckets").items()) {
      data.buckets.push_back(static_cast<std::uint64_t>(b.as_int()));
    }
    snap.histograms[name] = std::move(data);
  }
  return snap;
}

// ------------------------------------------------------------ registry

Counter& MetricsRegistry::counter(const std::string& name) {
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  return histograms_[name];
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c.value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g.value();
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramData data;
    data.count = h.count();
    data.sum = h.sum();
    std::size_t last = 0;
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      if (h.bucket(i) != 0) last = i + 1;
    }
    data.buckets.reserve(last);
    for (std::size_t i = 0; i < last; ++i) {
      data.buckets.push_back(h.bucket(i));
    }
    snap.histograms[name] = std::move(data);
  }
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
  out.append("},\"gauges\":{");
  first = true;
  for (const auto& [name, g] : gauges_) {
    const std::int64_t v = g.value();
    std::int64_t& base = prev.gauges[name];
    const std::int64_t diff = v - base;
    base = v;
    if (diff == 0) continue;
    if (!first) out.push_back(',');
    first = false;
    append_key(out, name);
    append_int(out, diff);
  }
  out.append("},\"histograms\":{");
  first = true;
  for (const auto& [name, h] : histograms_) {
    std::uint64_t cur[Histogram::kBuckets];
    std::uint64_t count = 0;
    std::size_t last = 0;
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      cur[i] = h.bucket(i);
      count += cur[i];
      if (cur[i] != 0) last = i + 1;
    }
    const std::uint64_t sum = h.sum();
    MetricsSnapshot::HistogramData& base = prev.histograms[name];
    const std::uint64_t dcount = count > base.count ? count - base.count : 0;
    const std::uint64_t dsum = sum > base.sum ? sum - base.sum : 0;
    std::size_t dlast = 0;
    for (std::size_t i = 0; i < last; ++i) {
      const std::uint64_t bb = i < base.buckets.size() ? base.buckets[i] : 0;
      if (cur[i] > bb) dlast = i + 1;
    }
    if (dcount != 0 || dsum != 0 || dlast != 0) {
      if (!first) out.push_back(',');
      first = false;
      append_key(out, name);
      out.append("{\"count\":");
      append_int(out, static_cast<std::int64_t>(dcount));
      out.append(",\"sum\":");
      append_int(out, static_cast<std::int64_t>(dsum));
      out.append(",\"buckets\":[");
      for (std::size_t i = 0; i < dlast; ++i) {
        const std::uint64_t bb = i < base.buckets.size() ? base.buckets[i] : 0;
        if (i != 0) out.push_back(',');
        append_int(out,
                   static_cast<std::int64_t>(cur[i] > bb ? cur[i] - bb : 0));
      }
      out.append("]}");
    }
    base.count = count;
    base.sum = sum;
    base.buckets.assign(cur, cur + last);
  }
  out.append("}}");
}

void MetricsRegistry::reset() {
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.reset();
  for (auto& [name, h] : histograms_) h.reset();
}

MetricsRegistry& metrics_registry() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never dtor'd
  return *registry;
}

}  // namespace mpcn
