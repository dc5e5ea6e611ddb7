// Observability layer tests (DESIGN.md §10): histogram bucket geometry,
// registry snapshot consistency under concurrent writers, span-tree
// nesting/ordering (serial and from pool workers), the differential
// guarantee that attaching a TraceSession never changes query answers
// (bit-identical at 1/2/4/8 threads), and the two acceptance properties
// of the QueryProfile: its span tree covers >= 95% of measured wall
// time, and its per-query counters sum exactly to the legacy BatchStats
// totals.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/engine.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/query_generator.h"
#include "xml/writer.h"

namespace pxml {
namespace {

using obs::Histogram;
using obs::kNoSpan;
using obs::Registry;
using obs::TraceSession;
using obs::TraceSpan;

// ---------------------------------------------------------------------------
// Histogram bucket geometry

TEST(HistogramTest, BucketIndexIsBitWidth) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(7), 3u);
  EXPECT_EQ(Histogram::BucketIndex(8), 4u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11u);
  EXPECT_EQ(Histogram::BucketIndex(~std::uint64_t{0}),
            Histogram::kBuckets - 1);
}

TEST(HistogramTest, BucketBoundsAreContiguousAndSelfConsistent) {
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    const std::uint64_t lo = Histogram::BucketLowerBound(i);
    const std::uint64_t hi = Histogram::BucketUpperBound(i);
    EXPECT_LE(lo, hi) << "bucket " << i;
    // A bucket's own bounds must land back in that bucket...
    EXPECT_EQ(Histogram::BucketIndex(lo), i);
    EXPECT_EQ(Histogram::BucketIndex(hi), i);
    // ...and bucket i begins exactly one past where bucket i-1 ends.
    if (i >= 1) {
      EXPECT_EQ(lo, Histogram::BucketUpperBound(i - 1) + 1) << "bucket " << i;
    }
  }
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kBuckets - 1),
            ~std::uint64_t{0});
}

TEST(HistogramTest, RecordLandsInTheDocumentedBucket) {
  Histogram h;
  h.Record(0);
  h.Record(1);
  h.Record(2);
  h.Record(3);
  h.Record(1024);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1030u);
  EXPECT_EQ(h.bucket(0), 1u);  // {0}
  EXPECT_EQ(h.bucket(1), 1u);  // {1}
  EXPECT_EQ(h.bucket(2), 2u);  // [2, 3]
  EXPECT_EQ(h.bucket(11), 1u);  // [1024, 2047]
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) total += h.bucket(i);
  EXPECT_EQ(total, h.count());
}

// ---------------------------------------------------------------------------
// Snapshot percentile estimators

TEST(HistogramTest, EmptySnapshotPercentileIsZero) {
  Histogram h;
  EXPECT_EQ(h.snapshot().Percentile(0.5), 0.0);
  EXPECT_EQ(h.snapshot().P999(), 0.0);
}

TEST(HistogramTest, SingleBucketFillEstimatesWithinThatBucket) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(1000);  // bucket 10: [512, 1023]
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.sum, 100000u);
  for (double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const double v = s.Percentile(q);
    EXPECT_GE(v, 512.0) << "q=" << q;
    EXPECT_LE(v, 1023.0) << "q=" << q;
  }
  // Clamped to the observed range, not the bucket's upper bound.
  EXPECT_EQ(s.min, 1000u);
  EXPECT_EQ(s.max, 1000u);
  EXPECT_DOUBLE_EQ(s.Percentile(1.0), 1000.0);
}

TEST(HistogramTest, BimodalFillSeparatesMedianFromTail) {
  Histogram h;
  // 90 fast samples (exactly 1) and 10 slow ones (bucket [2^20, 2^21)):
  // the median must report the fast mode, p99/p99.9 the slow one.
  for (int i = 0; i < 90; ++i) h.Record(1);
  for (int i = 0; i < 10; ++i) h.Record(std::uint64_t{1} << 20);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.P50(), 1.0);  // bucket 1 holds exactly {1}
  EXPECT_GE(s.P99(), static_cast<double>(std::uint64_t{1} << 20));
  // The tail never exceeds the largest sample, though linear
  // interpolation inside [2^20, 2^21) would overshoot it.
  EXPECT_EQ(s.max, std::uint64_t{1} << 20);
  EXPECT_LE(s.P999(), static_cast<double>(s.max));
  EXPECT_DOUBLE_EQ(s.Percentile(0.0), 1.0);
  // Monotone in q.
  EXPECT_LE(s.P50(), s.P90());
  EXPECT_LE(s.P90(), s.P99());
  EXPECT_LE(s.P99(), s.P999());
}

TEST(HistogramTest, PercentileClampsOutOfRangeQuantiles) {
  Histogram h;
  h.Record(4);  // bucket 3: [4, 7]
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.Percentile(-1.0), s.Percentile(0.0));
  EXPECT_DOUBLE_EQ(s.Percentile(2.0), s.Percentile(1.0));
  EXPECT_GE(s.Percentile(0.0), 4.0);
  EXPECT_LE(s.Percentile(1.0), 7.0);
}

// ---------------------------------------------------------------------------
// Prometheus text exporter

TEST(ExporterTest, PrometheusTextFormat) {
  obs::MetricsSnapshot snap;
  snap.counters.emplace_back("pxml.test.ops", 7);
  snap.gauges.emplace_back("pxml.test.live", -3);
  obs::MetricsSnapshot::HistogramData h;
  h.count = 3;
  h.sum = 1026;
  h.buckets = {{1, 2}, {11, 1}};  // two samples of 1, one in [1024, 2047]
  snap.histograms.emplace_back("pxml.test.lat", h);

  const std::string text = obs::ToPrometheusText(snap);
  // Dots rewritten, TYPE comments present, plain samples for scalars.
  EXPECT_NE(text.find("# TYPE pxml_test_ops counter\npxml_test_ops 7\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE pxml_test_live gauge\npxml_test_live -3\n"),
            std::string::npos)
      << text;
  // Histogram: cumulative buckets with le = the bucket upper bound, the
  // mandatory +Inf bucket, then _sum and _count.
  EXPECT_NE(text.find("# TYPE pxml_test_lat histogram\n"), std::string::npos);
  EXPECT_NE(text.find("pxml_test_lat_bucket{le=\"1\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("pxml_test_lat_bucket{le=\"2047\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("pxml_test_lat_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("pxml_test_lat_sum 1026\n"), std::string::npos);
  EXPECT_NE(text.find("pxml_test_lat_count 3\n"), std::string::npos);
}

TEST(ExporterTest, PrometheusCountClampsToCumulativeBuckets) {
  // A snapshot racing writers can read the histogram count behind its
  // bucket sum; the exporter must keep +Inf == _count cumulative anyway.
  obs::MetricsSnapshot snap;
  obs::MetricsSnapshot::HistogramData h;
  h.count = 1;  // lagging
  h.sum = 2;
  h.buckets = {{1, 2}};
  snap.histograms.emplace_back("pxml.test.race", h);
  const std::string text = obs::ToPrometheusText(snap);
  EXPECT_NE(text.find("pxml_test_race_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("pxml_test_race_count 2\n"), std::string::npos) << text;
}

TEST(MetricsSnapshotTest, GaugeAccessor) {
  obs::Gauge& g = Registry::Global().GetGauge("test.obs.gauge_accessor");
  g.Set(41);
  g.Increment();
  const obs::MetricsSnapshot snap = Registry::Global().Snapshot();
  EXPECT_EQ(snap.gauge("test.obs.gauge_accessor"), 42);
  EXPECT_EQ(snap.gauge("test.obs.never_created"), 0);
}

// ---------------------------------------------------------------------------
// Registry snapshot consistency under concurrent writers

TEST(RegistryTest, SameNameReturnsSameMetric) {
  obs::Counter& a = Registry::Global().GetCounter("test.obs.same_name");
  obs::Counter& b = Registry::Global().GetCounter("test.obs.same_name");
  EXPECT_EQ(&a, &b);
}

TEST(RegistryTest, SnapshotsAreMonotonicAndExactAfterJoinUnderHammering) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  obs::Counter& counter = Registry::Global().GetCounter("test.obs.hammer");
  obs::Histogram& histo = Registry::Global().GetHistogram("test.obs.hammer_ns");
  const std::uint64_t counter0 = counter.value();
  const std::uint64_t histo_count0 = histo.count();
  const std::uint64_t histo_sum0 = histo.sum();

  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&counter, &histo, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter.Increment();
        histo.Record(static_cast<std::uint64_t>(t));
      }
    });
  }
  // Reader: concurrent snapshots may lag in-flight increments but must
  // be monotonically consistent and never overshoot the final total.
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const obs::MetricsSnapshot snap = Registry::Global().Snapshot();
      const std::uint64_t v = snap.counter("test.obs.hammer");
      EXPECT_GE(v, last);
      EXPECT_LE(v, counter0 + kThreads * kPerThread);
      last = v;
    }
  });
  for (auto& w : writers) w.join();
  done.store(true, std::memory_order_release);
  reader.join();

  // After the join (the external synchronization the memory-order
  // contract requires), totals are exact: relaxed fetch_add never loses
  // increments.
  EXPECT_EQ(counter.value() - counter0, kThreads * kPerThread);
  EXPECT_EQ(histo.count() - histo_count0, kThreads * kPerThread);
  EXPECT_EQ(histo.sum() - histo_sum0, kPerThread * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7));

  const obs::MetricsSnapshot snap = Registry::Global().Snapshot();
  EXPECT_EQ(snap.counter("test.obs.hammer") - counter0, kThreads * kPerThread);
  EXPECT_EQ(snap.counter("test.obs.never_touched"), 0u);
}

// ---------------------------------------------------------------------------
// Span-tree nesting and ordering

TEST(TraceTest, NestedSpansLinkParentAndNestIntervals) {
  TraceSession session;
  {
    TraceSpan outer(&session, "outer");
    outer.Arg("answer", std::uint64_t{42});
    {
      TraceSpan inner(&session, "inner");
      inner.Arg("kind", "leaf");
      TraceSpan innermost(&session, "innermost");
      EXPECT_EQ(innermost.index(), 2u);
    }
    TraceSpan sibling(&session, "sibling");
  }
  const auto& spans = session.spans();
  ASSERT_EQ(spans.size(), 4u);
  // Spans are recorded in open order.
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_STREQ(spans[1].name, "inner");
  EXPECT_STREQ(spans[2].name, "innermost");
  EXPECT_STREQ(spans[3].name, "sibling");
  // Parent linkage: the innermost span open on the same thread.
  EXPECT_EQ(spans[0].parent, kNoSpan);
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_EQ(spans[2].parent, 1u);
  EXPECT_EQ(spans[3].parent, 0u);
  for (const auto& s : spans) {
    EXPECT_TRUE(s.closed);
    EXPECT_EQ(s.tid, spans[0].tid);
  }
  // Child intervals nest inside their parents.
  for (std::uint32_t i = 1; i < spans.size(); ++i) {
    const auto& child = spans[i];
    const auto& parent = spans[child.parent];
    EXPECT_GE(child.start_ns, parent.start_ns);
    EXPECT_LE(child.start_ns + child.dur_ns, parent.start_ns + parent.dur_ns);
  }
  // Args were attached on close.
  ASSERT_EQ(spans[0].args.size(), 1u);
  EXPECT_STREQ(spans[0].args[0].key, "answer");
  EXPECT_EQ(spans[0].args[0].u, 42u);
  ASSERT_EQ(spans[1].args.size(), 1u);
  EXPECT_EQ(spans[1].args[0].s, "leaf");
  // ChildDurationNs sums direct children only.
  EXPECT_EQ(session.ChildDurationNs(kNoSpan), spans[0].dur_ns);
  EXPECT_EQ(session.ChildDurationNs(0), spans[1].dur_ns + spans[3].dur_ns);
  EXPECT_EQ(session.ChildDurationNs(1), spans[2].dur_ns);
}

TEST(TraceTest, SpanOnAnotherThreadBecomesItsOwnRoot) {
  TraceSession session;
  {
    TraceSpan outer(&session, "outer");
    std::thread worker([&session] {
      // No span is open on *this* thread, so the worker span is a root
      // on its own thread track (how trace viewers render it).
      TraceSpan span(&session, "worker");
    });
    worker.join();
  }
  const auto& spans = session.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_STREQ(spans[1].name, "worker");
  EXPECT_EQ(spans[1].parent, kNoSpan);
  EXPECT_NE(spans[1].tid, spans[0].tid);
}

TEST(TraceTest, ConcurrentSpansKeepPerThreadNestingInvariants) {
  TraceSession session;
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&session] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        TraceSpan outer(&session, "outer");
        TraceSpan inner(&session, "inner");
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto& spans = session.spans();
  ASSERT_EQ(spans.size(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread * 2);
  for (std::uint32_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    EXPECT_TRUE(s.closed);
    if (s.parent == kNoSpan) continue;
    // A parent is always opened before its child and on the same thread.
    ASSERT_LT(s.parent, i);
    EXPECT_EQ(spans[s.parent].tid, s.tid);
    EXPECT_STREQ(spans[s.parent].name, "outer");
    EXPECT_STREQ(s.name, "inner");
  }
}

TEST(TraceTest, NullSessionSpanIsInert) {
  TraceSpan span(nullptr, "never_recorded");
  EXPECT_FALSE(span.enabled());
  EXPECT_EQ(span.index(), kNoSpan);
  span.Arg("ignored", std::uint64_t{1});  // must not crash
}

// ---------------------------------------------------------------------------
// Engine integration: tracing is answer-neutral, spans cover the work,
// and QueryProfile counters reconcile with BatchStats.

ProbabilisticInstance MakeWorkloadInstance(std::uint64_t seed) {
  GeneratorConfig config;
  config.depth = 5;
  config.branching = 3;
  config.labeling = LabelingScheme::kSameLabels;
  config.seed = seed;
  config.with_leaf_values = true;
  auto generated = GenerateBalancedTree(config);
  EXPECT_TRUE(generated.ok()) << generated.status();
  return *std::move(generated);
}

std::vector<BatchQuery> MakeWorkloadQueries(const ProbabilisticInstance& inst,
                                            std::size_t count,
                                            std::uint64_t seed) {
  std::vector<BatchQuery> queries;
  Rng rng(seed);
  while (queries.size() < count) {
    auto cond = GenerateObjectSelection(inst, rng);
    EXPECT_TRUE(cond.ok()) << cond.status();
    switch (queries.size() % 4) {
      case 0:
        queries.push_back(BatchQuery::Point(cond->path, cond->object));
        break;
      case 1:
        queries.push_back(BatchQuery::Exists(cond->path));
        break;
      case 2:
        queries.push_back(BatchQuery::ValueEquals(
            cond->path, Value(queries.size() % 8 < 4 ? "v0" : "v1")));
        break;
      case 3:
        queries.push_back(BatchQuery::AncestorProjection(cond->path));
        break;
    }
  }
  return queries;
}

void ExpectAnswersBitIdentical(const std::vector<BatchAnswer>& a,
                               const std::vector<BatchAnswer>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].status.ok()) << a[i].status;
    ASSERT_TRUE(b[i].status.ok()) << b[i].status;
    EXPECT_EQ(std::memcmp(&a[i].probability, &b[i].probability,
                          sizeof(double)),
              0)
        << "query " << i << ": " << a[i].probability
        << " != " << b[i].probability;
    ASSERT_EQ(a[i].projection.has_value(), b[i].projection.has_value());
    if (a[i].projection.has_value()) {
      EXPECT_EQ(SerializePxml(*a[i].projection), SerializePxml(*b[i].projection))
          << "projection " << i;
    }
  }
}

TEST(ObsEngineTest, TracingNeverChangesAnswersAcrossThreadCounts) {
  const ProbabilisticInstance inst = MakeWorkloadInstance(20260806);
  const std::vector<BatchQuery> queries = MakeWorkloadQueries(inst, 64, 0xB5);

  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    BatchOptions opts;
    opts.threads = threads;

    QueryEngine untraced(inst, opts);
    auto plain = untraced.Run(queries);
    ASSERT_TRUE(plain.ok()) << plain.status();

    QueryEngine traced_engine(inst, opts);
    TraceSession session;
    auto traced = traced_engine.Run(queries, {}, nullptr, &session);
    ASSERT_TRUE(traced.ok()) << traced.status();

    ExpectAnswersBitIdentical(*plain, *traced);

    // The traced run actually recorded the batch: one root "batch" span
    // and a live span link in every profile.
    ASSERT_FALSE(session.spans().empty());
    EXPECT_STREQ(session.spans()[0].name, "batch");
    for (const auto& answer : *traced) {
      EXPECT_NE(answer.profile.span, kNoSpan);
      const auto& span = session.spans()[answer.profile.span];
      EXPECT_TRUE(span.closed);
      EXPECT_EQ(std::string(span.name).rfind("query:", 0), 0u)
          << span.name;
    }
    // The untraced answers carry no span link.
    for (const auto& answer : *plain) {
      EXPECT_EQ(answer.profile.span, kNoSpan);
    }
  }
}

TEST(ObsEngineTest, SpanTreeCoversMeasuredWallTime) {
  const ProbabilisticInstance inst = MakeWorkloadInstance(42);
  const std::vector<BatchQuery> queries = MakeWorkloadQueries(inst, 128, 0xC0);

  // Serial: every query does real ε/projection work, and every span
  // nests under the single "batch" root, so coverage is a
  // pure property of the instrumentation (no cross-thread tracks).
  BatchOptions opts;
  opts.threads = 1;
  QueryEngine engine(inst, opts);

  TraceSession session;
  BatchStats stats;
  auto answers = engine.Run(queries, {}, &stats, &session);
  ASSERT_TRUE(answers.ok()) << answers.status();

  const auto& spans = session.spans();
  ASSERT_FALSE(spans.empty());
  ASSERT_STREQ(spans[0].name, "batch");
  ASSERT_EQ(spans[0].parent, kNoSpan);

  // Acceptance: the per-query spans cover >= 95% of the batch span, and
  // the batch span covers >= 95% of the engine-measured wall time.
  const std::uint64_t batch_ns = spans[0].dur_ns;
  const std::uint64_t query_ns = session.ChildDurationNs(0);
  ASSERT_GT(batch_ns, 0u);
  EXPECT_GE(static_cast<double>(query_ns),
            0.95 * static_cast<double>(batch_ns))
      << "query spans cover " << query_ns << " of " << batch_ns << " ns";
  const double wall_ns = stats.wall_seconds * 1e9;
  EXPECT_GE(static_cast<double>(batch_ns), 0.95 * wall_ns)
      << "batch span covers " << batch_ns << " of " << wall_ns << " ns";

  // Every projection query's operator spans are present beneath it.
  for (const auto& answer : *answers) {
    if (!answer.projection.has_value()) continue;
    bool saw_locate = false, saw_update = false, saw_structure = false;
    for (const auto& s : spans) {
      if (s.parent != answer.profile.span) continue;
      saw_locate |= std::strcmp(s.name, "locate") == 0;
      saw_update |= std::strcmp(s.name, "update") == 0;
      saw_structure |= std::strcmp(s.name, "structure") == 0;
    }
    EXPECT_TRUE(saw_locate && saw_update && saw_structure)
        << "projection span " << answer.profile.span
        << " missing an operator child";
  }
}

TEST(ObsEngineTest, QueryProfilesSumExactlyToBatchStats) {
  const ProbabilisticInstance inst = MakeWorkloadInstance(7);
  const std::vector<BatchQuery> queries = MakeWorkloadQueries(inst, 96, 0xD1);

  for (std::size_t threads : {1u, 4u}) {
    BatchOptions opts;
    opts.threads = threads;
    QueryEngine engine(inst, opts);
    // Two passes on one engine: nothing a pass leaves behind may skew
    // the second pass's profiles.
    for (int pass = 0; pass < 2; ++pass) {
      BatchStats stats;
      auto answers = engine.Run(queries, {}, &stats);
      ASSERT_TRUE(answers.ok()) << answers.status();

      QueryProfile sum;
      for (const auto& answer : *answers) {
        ASSERT_TRUE(answer.status.ok()) << answer.status;
        const QueryProfile& p = answer.profile;
        sum.epsilon_recomputed += p.epsilon_recomputed;
        sum.frozen_passes += p.frozen_passes;
        sum.generic_passes += p.generic_passes;
        sum.opf_row_ops += p.opf_row_ops;
        sum.entries_materialized += p.entries_materialized;
        sum.bytes_allocated += p.bytes_allocated;
        // Per-profile internal consistency.
        EXPECT_GT(p.frozen_passes + p.generic_passes, 0u);
        if (p.generic_passes == 0) {
          EXPECT_STREQ(p.dispatch, "frozen");
          EXPECT_FALSE(p.kernel.empty());
        } else if (p.frozen_passes == 0) {
          EXPECT_STREQ(p.dispatch, "generic");
          EXPECT_TRUE(p.kernel.empty());
        } else {
          EXPECT_STREQ(p.dispatch, "mixed");
        }
        EXPECT_GT(p.wall_seconds, 0.0);
        EXPECT_NE(p.kind[0], '\0');
      }

      // The acceptance identity: the profiles and the BatchStats flush
      // from the same pass-local tallies, so the sums match *exactly* —
      // not approximately.
      EXPECT_EQ(sum.epsilon_recomputed, stats.epsilon_recomputed);
      EXPECT_EQ(sum.frozen_passes, stats.frozen_passes);
      EXPECT_EQ(sum.generic_passes, stats.generic_passes);
      EXPECT_EQ(sum.opf_row_ops, stats.opf_row_ops);
      EXPECT_EQ(sum.entries_materialized, stats.entries_materialized);
      EXPECT_EQ(sum.bytes_allocated, stats.bytes_allocated);
    }
  }
}

TEST(ObsEngineTest, ChromeTraceExportIsWellFormed) {
  const ProbabilisticInstance inst = MakeWorkloadInstance(3);
  const std::vector<BatchQuery> queries = MakeWorkloadQueries(inst, 8, 0xE7);
  QueryEngine engine(inst, BatchOptions{.threads = 1});

  TraceSession session;
  ASSERT_TRUE(engine.Run(queries, {}, nullptr, &session).ok());
  const std::string json = session.ToChromeTraceJson();
  // Structural smoke checks; the full schema validation runs in CI via
  // tools/validate_obs_json.py against bench/schema/.
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("query:"), std::string::npos);
  EXPECT_EQ(json.find("\"dur\":-"), std::string::npos);
}

}  // namespace
}  // namespace pxml
