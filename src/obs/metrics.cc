#include "obs/metrics.h"

#include <cinttypes>
#include <cstdio>

namespace pxml {
namespace obs {

namespace {

/// Returns the map entry for `name`, creating it on first touch. The
/// unique_ptr indirection keeps the returned reference stable across
/// rehashes/rebalances for the process lifetime.
template <typename Map>
auto& GetOrCreate(std::mutex& mu, Map& map, std::string_view name) {
  std::lock_guard<std::mutex> lock(mu);
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name),
                     std::make_unique<typename Map::mapped_type::element_type>())
             .first;
  }
  return *it->second;
}

void AppendJsonKey(std::string& out, const std::string& name) {
  // Metric names are dot/underscore identifiers chosen by this codebase;
  // nothing needs escaping beyond quoting.
  out += '"';
  out += name;
  out += "\":";
}

}  // namespace

Registry& Registry::Global() {
  static Registry* registry = new Registry();  // never destroyed
  return *registry;
}

Counter& Registry::GetCounter(std::string_view name) {
  return GetOrCreate(mu_, counters_, name);
}

Gauge& Registry::GetGauge(std::string_view name) {
  return GetOrCreate(mu_, gauges_, name);
}

Histogram& Registry::GetHistogram(std::string_view name) {
  return GetOrCreate(mu_, histograms_, name);
}

MetricsSnapshot Registry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramData data;
    data.count = h->count();
    data.sum = h->sum();
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      const std::uint64_t n = h->bucket(i);
      if (n != 0) data.buckets.emplace_back(i, n);
    }
    snap.histograms.emplace_back(name, std::move(data));
  }
  return snap;
}

double Histogram::Snapshot::Percentile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Clamp to the observed range. A snapshot racing the first Record can
  // see a bucket count before that Record's min/max update (min > max);
  // it then reports the unclamped bucket estimate.
  const auto clamp = [this](double v) {
    if (min > max) return v;
    if (v < static_cast<double>(min)) return static_cast<double>(min);
    if (v > static_cast<double>(max)) return static_cast<double>(max);
    return v;
  };
  const double target = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets[i] == 0) continue;
    const double before = static_cast<double>(cum);
    cum += buckets[i];
    if (static_cast<double>(cum) >= target) {
      const double lo = static_cast<double>(BucketLowerBound(i));
      const double hi = static_cast<double>(BucketUpperBound(i));
      const double frac = (target - before) / static_cast<double>(buckets[i]);
      return clamp(lo + frac * (hi - lo));
    }
  }
  // Unreachable when the bucket counts sum to `count`; a racing snapshot
  // can leave them short, in which case the top bucket's bound is the
  // honest answer.
  return clamp(static_cast<double>(BucketUpperBound(kBuckets - 1)));
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

std::int64_t MetricsSnapshot::gauge(std::string_view name) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return 0;
}

std::string MetricsSnapshot::ToText() const {
  std::string out;
  char buf[128];
  for (const auto& [name, v] : counters) {
    std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", v);
    out += name;
    out += buf;
  }
  for (const auto& [name, v] : gauges) {
    std::snprintf(buf, sizeof(buf), " %" PRId64 "\n", v);
    out += name;
    out += buf;
  }
  for (const auto& [name, h] : histograms) {
    std::snprintf(buf, sizeof(buf), "_count %" PRIu64 "\n", h.count);
    out += name;
    out += buf;
    std::snprintf(buf, sizeof(buf), "_sum %" PRIu64 "\n", h.sum);
    out += name;
    out += buf;
    for (const auto& [i, n] : h.buckets) {
      std::snprintf(buf, sizeof(buf), "_bucket[%" PRIu64 ",%" PRIu64 "] %" PRIu64 "\n",
                    Histogram::BucketLowerBound(i), Histogram::BucketUpperBound(i),
                    n);
      out += name;
      out += buf;
    }
  }
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  char buf[64];
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) out += ',';
    first = false;
    AppendJsonKey(out, name);
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    out += buf;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) out += ',';
    first = false;
    AppendJsonKey(out, name);
    std::snprintf(buf, sizeof(buf), "%" PRId64, v);
    out += buf;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out += ',';
    first = false;
    AppendJsonKey(out, name);
    std::snprintf(buf, sizeof(buf), "{\"count\":%" PRIu64 ",\"sum\":%" PRIu64
                  ",\"buckets\":[", h.count, h.sum);
    out += buf;
    bool first_bucket = true;
    for (const auto& [i, n] : h.buckets) {
      if (!first_bucket) out += ',';
      first_bucket = false;
      std::snprintf(buf, sizeof(buf), "{\"lo\":%" PRIu64 ",\"hi\":%" PRIu64
                    ",\"count\":%" PRIu64 "}",
                    Histogram::BucketLowerBound(i),
                    Histogram::BucketUpperBound(i), n);
      out += buf;
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

bool WriteGlobalMetrics(const std::string& path) {
  const MetricsSnapshot snap = Registry::Global().Snapshot();
  const bool json = path.size() >= 5 && path.rfind(".json") == path.size() - 5;
  const std::string body = json ? snap.ToJson() : snap.ToText();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  if (json) std::fputc('\n', f);
  std::fclose(f);
  return true;
}

}  // namespace obs
}  // namespace pxml
