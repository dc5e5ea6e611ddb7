#ifndef PXML_OBS_METRICS_H_
#define PXML_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pxml {
namespace obs {

/// A monotonic counter. Increments are relaxed atomic adds — the cheapest
/// instrumentation the hardware offers — so counters stay enabled
/// unconditionally on every hot path (DESIGN.md §10: only *tracing* is
/// gated; metrics are always on).
///
/// Memory-order contract: Add/value use memory_order_relaxed. Totals are
/// exact (fetch_add never loses increments); a value() read concurrent
/// with writers may lag by in-flight increments but is monotonically
/// consistent. Readers that need "all increments from phase X" must
/// synchronize with the writers through an external mechanism (a join,
/// the return of BatchExecutor::Run, a mutex) — exactly the discipline
/// the query engine already follows for its stats structs.
class Counter {
 public:
  void Add(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A last-writer-wins signed gauge (e.g. executor backlog, cache size,
/// live MVCC snapshots). Same relaxed contract as Counter.
class Gauge {
 public:
  void Set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  /// Up/down conveniences for gauges tracking a live population (paired
  /// with an Increment at creation and a Decrement at destruction, the
  /// gauge reads the population size).
  void Increment() { Add(1); }
  void Decrement() { Add(-1); }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// A fixed log2-bucket histogram for latency-like quantities (typically
/// nanoseconds). Value v lands in bucket bit_width(v): bucket 0 holds
/// exactly {0}, bucket i >= 1 holds [2^(i-1), 2^i). 65 buckets cover the
/// whole uint64 domain, so Record never branches on range and never
/// allocates. Count/sum/buckets/min/max are all relaxed atomics (see
/// Counter for the contract; min and max update by relaxed CAS loops); a
/// concurrent snapshot may observe a Record's bucket increment before its
/// sum increment — totals are exact once writers are quiesced.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  static std::size_t BucketIndex(std::uint64_t v) {
    return static_cast<std::size_t>(std::bit_width(v));
  }
  /// Smallest value of bucket i (0 for i == 0).
  static std::uint64_t BucketLowerBound(std::size_t i) {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }
  /// Largest value of bucket i (0 for i == 0, 2^i - 1 otherwise).
  static std::uint64_t BucketUpperBound(std::size_t i) {
    if (i == 0) return 0;
    if (i >= 64) return ~std::uint64_t{0};
    return (std::uint64_t{1} << i) - 1;
  }

  void Record(std::uint64_t v) {
    std::uint64_t lo = min_.load(std::memory_order_relaxed);
    while (v < lo &&
           !min_.compare_exchange_weak(lo, v, std::memory_order_relaxed)) {
    }
    std::uint64_t hi = max_.load(std::memory_order_relaxed);
    while (v > hi &&
           !max_.compare_exchange_weak(hi, v, std::memory_order_relaxed)) {
    }
    buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// A plain (non-atomic) copy of the histogram with percentile
  /// estimators. The estimate interpolates linearly inside the log2
  /// bucket holding the requested rank, so its error is bounded by the
  /// bucket width (a factor-of-2 resolution — the standard trade of
  /// allocation-free log-bucketed histograms), and is then clamped to the
  /// observed [min, max], so no quantile ever exceeds the largest sample.
  /// Exact invariants: Percentile is monotone in q, Percentile(0) is the
  /// observed minimum, Percentile(1) the observed maximum, and a
  /// histogram whose samples all share one bucket estimates within that
  /// bucket's [lo, hi].
  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    /// Smallest and largest recorded value (meaningful when count > 0).
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    std::array<std::uint64_t, kBuckets> buckets{};

    /// The value at quantile q in [0, 1] (0.0 when count == 0).
    double Percentile(double q) const;
    double P50() const { return Percentile(0.50); }
    double P90() const { return Percentile(0.90); }
    double P99() const { return Percentile(0.99); }
    double P999() const { return Percentile(0.999); }
  };

  /// Copies the live buckets (relaxed reads — see the class contract: a
  /// snapshot concurrent with writers may lag in-flight Records; totals
  /// are exact once writers are quiesced).
  Snapshot snapshot() const {
    Snapshot s;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      s.buckets[i] = bucket(i);
      s.count += s.buckets[i];
    }
    s.sum = sum();
    s.min = min_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
};

/// A point-in-time copy of every registered metric, exportable as text
/// (one `name value` line per counter/gauge, `name_bucket[lo,hi] count`
/// lines per histogram) or as JSON (the schema checked in at
/// bench/schema/metrics.schema.json).
struct MetricsSnapshot {
  struct HistogramData {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    /// (bucket index, count) for non-empty buckets only, ascending.
    std::vector<std::pair<std::size_t, std::uint64_t>> buckets;
  };

  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramData>> histograms;

  /// The counter's value, or 0 if absent (counters are created lazily on
  /// first touch, so "absent" and "never incremented" are equivalent).
  std::uint64_t counter(std::string_view name) const;
  /// The gauge's value, or 0 if absent (same lazy-creation equivalence).
  std::int64_t gauge(std::string_view name) const;

  std::string ToText() const;
  std::string ToJson() const;
};

/// The process-wide metrics registry. Metrics are registered statically:
/// a hot path keeps a function-local static reference
///
///   static Counter& ops = Registry::Global().GetCounter("pxml.x.ops");
///   ops.Add(n);
///
/// so the registry mutex is paid once per call site per process, and the
/// steady-state cost is a single relaxed atomic add. Names are
/// dot-separated (`pxml.<subsystem>.<metric>`); a name identifies one
/// metric for the process lifetime — GetCounter twice with the same name
/// returns the same object, and registered metrics are never removed
/// (references stay valid forever).
///
/// Registry counters are cumulative across every engine/cache
/// instance in the process; the per-query and per-batch stats structs
/// (EpsilonStats, ProjectionStats, BatchStats) remain the attribution
/// mechanism and are flushed into the registry at pass boundaries, so
/// registry deltas reconcile exactly with the legacy struct totals
/// (verified by `bench_frozen_kernels --check`).
class Registry {
 public:
  static Registry& Global();

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  MetricsSnapshot Snapshot() const;

 private:
  Registry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Writes Registry::Global().Snapshot() to `path`: ".json" suffix picks
/// the JSON export, anything else the text export. Returns false (with a
/// message on stderr) when the file cannot be written — callers in
/// benches exit non-zero on that.
bool WriteGlobalMetrics(const std::string& path);

}  // namespace obs
}  // namespace pxml

#endif  // PXML_OBS_METRICS_H_
