// Flight recorder, slow-query log, and tail-sampling tests (DESIGN.md
// §13): seqlock ring correctness under concurrent writers and dumpers
// (the torn-read-rejection property the fence protocol guarantees),
// wrap-around semantics, the QueryKindName pin against BatchQuery::Kind,
// engine integration (one record per completion with the right flags and
// epoch, shed records on the fail-fast path, the inflight/backlog
// gauges), slow-query threshold edges (huge threshold retains nothing,
// 1ns retains everything with a full span tree, errors retain
// regardless, an explicit caller trace wins over sampling), and the
// differential guarantee that observability never changes answers
// (bit-identical at 1/2/4/8 threads with equal work counters).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/exporter.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/engine.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/query_generator.h"
#include "xml/writer.h"

namespace pxml {
namespace {

using obs::FlightRecord;
using obs::FlightRecorder;
using obs::SlowQueryEntry;
using obs::SlowQueryLog;

// ---------------------------------------------------------------------------
// Ring mechanics

TEST(FlightRecorderTest, KindNamesPinBatchQueryKindOrder) {
  // QueryKindName mirrors BatchQuery::Kind's declaration order without a
  // header dependency; this pin is what keeps the two from drifting.
  EXPECT_STREQ(
      obs::QueryKindName(static_cast<std::uint8_t>(BatchQuery::Kind::kPoint)),
      "point");
  EXPECT_STREQ(
      obs::QueryKindName(static_cast<std::uint8_t>(BatchQuery::Kind::kExists)),
      "exists");
  EXPECT_STREQ(
      obs::QueryKindName(static_cast<std::uint8_t>(BatchQuery::Kind::kValue)),
      "value");
  EXPECT_STREQ(obs::QueryKindName(
                   static_cast<std::uint8_t>(BatchQuery::Kind::kCondition)),
               "condition");
  EXPECT_STREQ(
      obs::QueryKindName(
          static_cast<std::uint8_t>(BatchQuery::Kind::kAncestorProject)),
      "ancestor_project");
  EXPECT_STREQ(obs::QueryKindName(250), "unknown");
}

TEST(FlightRecorderTest, RecordRoundTripsEveryField) {
  FlightRecorder rec(4);
  FlightRecord r;
  r.epoch = 7;
  r.fingerprint = 0xDEADBEEFCAFEF00Dull;
  r.wall_ns = 123456;
  r.row_ops = 789;
  r.status = static_cast<std::uint8_t>(StatusCode::kDeadlineExceeded);
  r.kind = static_cast<std::uint8_t>(BatchQuery::Kind::kAncestorProject);
  r.priority = -5;
  r.flags = obs::kRecordFrozen | obs::kRecordAdmitted;
  rec.Record(r);

  const std::vector<FlightRecord> dump = rec.Dump();
  ASSERT_EQ(dump.size(), 1u);
  EXPECT_EQ(dump[0].seq, 0u);
  EXPECT_EQ(dump[0].epoch, 7u);
  EXPECT_EQ(dump[0].fingerprint, 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(dump[0].wall_ns, 123456u);
  EXPECT_EQ(dump[0].row_ops, 789u);
  EXPECT_EQ(dump[0].status,
            static_cast<std::uint8_t>(StatusCode::kDeadlineExceeded));
  EXPECT_EQ(dump[0].kind,
            static_cast<std::uint8_t>(BatchQuery::Kind::kAncestorProject));
  EXPECT_EQ(dump[0].priority, -5);
  EXPECT_EQ(dump[0].flags, obs::kRecordFrozen | obs::kRecordAdmitted);
  EXPECT_EQ(rec.total_recorded(), 1u);

  const std::string json = rec.ToJson();
  EXPECT_NE(json.find("\"status\":\"DeadlineExceeded\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"kind\":\"ancestor_project\""), std::string::npos);
  EXPECT_NE(json.find("\"priority\":-5"), std::string::npos);
  EXPECT_NE(json.find("\"frozen\":true"), std::string::npos);
  EXPECT_NE(json.find("\"shed\":false"), std::string::npos);
}

TEST(FlightRecorderTest, CapacityZeroDisablesEntirely) {
  FlightRecorder rec(0);
  EXPECT_FALSE(rec.enabled());
  EXPECT_EQ(rec.capacity(), 0u);
  rec.Record(FlightRecord{});  // must be a no-op, not a crash
  EXPECT_EQ(rec.total_recorded(), 0u);
  EXPECT_TRUE(rec.Dump().empty());
  EXPECT_NE(rec.ToJson().find("\"records\":[]"), std::string::npos);
}

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(5).capacity(), 8u);
  EXPECT_EQ(FlightRecorder(8).capacity(), 8u);
  EXPECT_EQ(FlightRecorder(1).capacity(), 1u);
}

TEST(FlightRecorderTest, WrapAroundKeepsTheMostRecentRecords) {
  FlightRecorder rec(8);
  for (std::uint64_t i = 0; i < 100; ++i) {
    FlightRecord r;
    r.epoch = i;
    rec.Record(r);
  }
  EXPECT_EQ(rec.total_recorded(), 100u);
  const std::vector<FlightRecord> dump = rec.Dump();
  ASSERT_EQ(dump.size(), 8u);
  for (std::size_t i = 0; i < dump.size(); ++i) {
    // Oldest-first, seqs ascending, only the last `capacity` survive,
    // and each slot's payload matches its seq.
    EXPECT_EQ(dump[i].seq, 92 + i);
    EXPECT_EQ(dump[i].epoch, 92 + i);
  }
}

// The seqlock property: a dump racing 8 writers may skip records, but
// every record it returns is internally consistent — all payload words
// from the same Record call. Payloads are derived from one nonce so any
// cross-write tear is detectable.
TEST(FlightRecorderTest, ConcurrentWritersAndDumpersNeverTearRecords) {
  FlightRecorder rec(64);
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 4000;

  const auto expect_consistent = [](const FlightRecord& r) {
    const std::uint64_t x = r.epoch;
    return r.fingerprint == x * 0x9E3779B97F4A7C15ull &&
           r.wall_ns == ~x && r.row_ops == (x ^ 0xABCDEFull) &&
           r.status == static_cast<std::uint8_t>(x & 0x7) &&
           r.kind == static_cast<std::uint8_t>(x % 5) &&
           r.flags == static_cast<std::uint16_t>(x & 0xFFFF);
  };

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> seen{0};
  std::thread dumper([&] {
    // Checks stop *before* dumping so the final iteration scans the
    // quiesced ring — on a machine where the writers finish before this
    // thread is first scheduled, that last pass still sees records.
    bool done = false;
    while (!done) {
      done = stop.load(std::memory_order_acquire);
      for (const FlightRecord& r : rec.Dump()) {
        seen.fetch_add(1, std::memory_order_relaxed);
        if (!expect_consistent(r)) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t x =
            static_cast<std::uint64_t>(t) * kPerThread + i;
        FlightRecord r;
        r.epoch = x;
        r.fingerprint = x * 0x9E3779B97F4A7C15ull;
        r.wall_ns = ~x;
        r.row_ops = x ^ 0xABCDEFull;
        r.status = static_cast<std::uint8_t>(x & 0x7);
        r.kind = static_cast<std::uint8_t>(x % 5);
        r.flags = static_cast<std::uint16_t>(x & 0xFFFF);
        rec.Record(r);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  dumper.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(seen.load(), 0u);  // the dumper actually raced the writers
  EXPECT_EQ(rec.total_recorded(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);

  // Quiesced dump: exactly the last 64 seqs, ascending and consistent.
  const std::vector<FlightRecord> final_dump = rec.Dump();
  ASSERT_EQ(final_dump.size(), 64u);
  for (std::size_t i = 0; i < final_dump.size(); ++i) {
    EXPECT_EQ(final_dump[i].seq,
              static_cast<std::uint64_t>(kThreads) * kPerThread - 64 + i);
    EXPECT_TRUE(expect_consistent(final_dump[i])) << "seq " << i;
  }
}

TEST(SlowQueryLogTest, RetainBoundsEntriesAndStampsSeq) {
  SlowQueryLog log(32);
  for (int i = 0; i < 40; ++i) {
    SlowQueryEntry e;
    e.reason = "slow";
    log.Retain(std::move(e));
  }
  EXPECT_EQ(log.retained(), 40u);
  const std::vector<SlowQueryEntry> entries = log.Entries();
  ASSERT_EQ(entries.size(), 32u);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].seq, 8 + i);  // oldest 8 evicted, seqs ascending
  }
}

TEST(SlowQueryLogTest, ZeroCapacityLogCountsButKeepsNothing) {
  SlowQueryLog log(0);
  log.Retain(SlowQueryEntry{});
  EXPECT_EQ(log.retained(), 1u);
  EXPECT_TRUE(log.Entries().empty());
  EXPECT_NE(log.ToJson().find("\"entries\":[]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine integration

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
    ASSERT_EQ(a[i].status.code(), b[i].status.code()) << "query " << i;
    EXPECT_EQ(
        std::memcmp(&a[i].probability, &b[i].probability, sizeof(double)), 0)
        << "query " << i;
    ASSERT_EQ(a[i].projection.has_value(), b[i].projection.has_value());
    if (a[i].projection.has_value()) {
      EXPECT_EQ(SerializePxml(*a[i].projection),
                SerializePxml(*b[i].projection))
          << "projection " << i;
    }
  }
}

TEST(EngineRecorderTest, OneRecordPerCompletionWithFlagsAndEpoch) {
  const ProbabilisticInstance inst = MakeWorkloadInstance(20260810);
  const std::vector<BatchQuery> queries = MakeWorkloadQueries(inst, 16, 0xF1);

  BatchOptions opts;
  opts.threads = 1;
  QueryEngine engine(inst, opts);
  auto answers = engine.Run(queries);
  ASSERT_TRUE(answers.ok()) << answers.status();

  EXPECT_EQ(engine.flight_recorder().total_recorded(), queries.size());
  const std::vector<FlightRecord> dump = engine.flight_recorder().Dump();
  ASSERT_EQ(dump.size(), queries.size());
  for (std::size_t i = 0; i < dump.size(); ++i) {
    // The completion loop stamps records in batch order.
    EXPECT_EQ(dump[i].kind, static_cast<std::uint8_t>(queries[i].kind));
    EXPECT_EQ(dump[i].epoch, (*answers)[i].profile.epoch);
    EXPECT_EQ(dump[i].row_ops, (*answers)[i].profile.opf_row_ops);
    EXPECT_EQ(dump[i].status,
              static_cast<std::uint8_t>((*answers)[i].status.code()));
    EXPECT_NE(dump[i].flags & obs::kRecordAdmitted, 0) << i;
    EXPECT_EQ(dump[i].flags & obs::kRecordShed, 0) << i;
    EXPECT_EQ(dump[i].flags & obs::kRecordCached, 0) << i;
  }
}

TEST(EngineRecorderTest, AnswerCacheHitsCarryTheCachedFlag) {
  const ProbabilisticInstance inst = MakeWorkloadInstance(77);
  const std::vector<BatchQuery> queries = MakeWorkloadQueries(inst, 12, 0xAC);

  BatchOptions opts;
  opts.threads = 1;
  opts.answer_cache = true;
  QueryEngine engine(inst, opts);
  auto cold = engine.Run(queries);
  ASSERT_TRUE(cold.ok()) << cold.status();
  auto warm = engine.Run(queries);
  ASSERT_TRUE(warm.ok()) << warm.status();
  ExpectAnswersBitIdentical(*cold, *warm);

  const std::vector<FlightRecord> dump = engine.flight_recorder().Dump();
  ASSERT_EQ(dump.size(), 2 * queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(dump[i].flags & obs::kRecordCached, 0) << "cold " << i;
    EXPECT_NE(dump[queries.size() + i].flags & obs::kRecordCached, 0)
        << "warm " << i;
  }
}

TEST(EngineRecorderTest, FailFastPathWritesShedRecordsAndTripEntries) {
  const ProbabilisticInstance inst = MakeWorkloadInstance(99);
  const std::vector<BatchQuery> queries = MakeWorkloadQueries(inst, 8, 0x5D);

  BatchOptions opts;
  opts.threads = 1;
  opts.slow_query_ns = 3'600'000'000'000ull;  // sampling on
  QueryEngine engine(inst, opts);

  QueryRequest request;
  request.ExpireAfter(std::chrono::milliseconds(0));
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  auto answers = engine.Run(queries, request);
  ASSERT_TRUE(answers.ok()) << answers.status();
  for (const BatchAnswer& a : *answers) {
    EXPECT_EQ(a.status.code(), StatusCode::kDeadlineExceeded);
  }

  const std::vector<FlightRecord> dump = engine.flight_recorder().Dump();
  ASSERT_EQ(dump.size(), queries.size());
  for (const FlightRecord& r : dump) {
    EXPECT_NE(r.flags & obs::kRecordShed, 0);
    EXPECT_EQ(r.flags & obs::kRecordAdmitted, 0);
    EXPECT_EQ(r.status,
              static_cast<std::uint8_t>(StatusCode::kDeadlineExceeded));
    EXPECT_EQ(r.wall_ns, 0u);  // never dispatched
  }
  // Sampling classifies the trip and retains a trace-less entry.
  EXPECT_EQ(engine.slow_query_log().retained(), queries.size());
  for (const SlowQueryEntry& e : engine.slow_query_log().Entries()) {
    EXPECT_EQ(e.reason, "trip");
    EXPECT_EQ(e.dispatch, "shed");
    EXPECT_TRUE(e.trace_json.empty());
  }
}

TEST(EngineRecorderTest, SlowThresholdEdges) {
  const ProbabilisticInstance inst = MakeWorkloadInstance(123);
  const std::vector<BatchQuery> queries = MakeWorkloadQueries(inst, 16, 0xED);

  // A threshold nothing crosses: sampling runs, nothing is retained.
  {
    BatchOptions opts;
    opts.threads = 1;
    opts.slow_query_ns = 3'600'000'000'000ull;
    QueryEngine engine(inst, opts);
    auto answers = engine.Run(queries);
    ASSERT_TRUE(answers.ok()) << answers.status();
    EXPECT_EQ(engine.slow_query_log().retained(), 0u);
    EXPECT_EQ(engine.flight_recorder().total_recorded(), queries.size());
  }

  // A 1ns threshold: every query is retained with its full span tree,
  // and the recycled session never leaks a span index into the profile.
  {
    BatchOptions opts;
    opts.threads = 1;
    opts.slow_query_ns = 1;
    QueryEngine engine(inst, opts);
    auto answers = engine.Run(queries);
    ASSERT_TRUE(answers.ok()) << answers.status();
    EXPECT_EQ(engine.slow_query_log().retained(), queries.size());
    for (const BatchAnswer& a : *answers) {
      EXPECT_EQ(a.profile.span, obs::kNoSpan);
    }
    for (const SlowQueryEntry& e : engine.slow_query_log().Entries()) {
      EXPECT_EQ(e.reason, "slow");
      EXPECT_NE(e.trace_json.find("query:"), std::string::npos)
          << e.trace_json;
      EXPECT_FALSE(e.dispatch.empty());
    }
  }

  // Errors are retained regardless of the threshold.
  {
    BatchOptions opts;
    opts.threads = 1;
    opts.slow_query_ns = 3'600'000'000'000ull;
    QueryEngine engine(inst, opts);
    Rng rng(0xBAD);
    auto bad_path = GenerateAcceptedPath(inst, rng);
    ASSERT_TRUE(bad_path.ok()) << bad_path.status();
    PathExpression broken = *bad_path;
    broken.start = ObjectId{9999999};  // absent object: per-query error
    std::vector<BatchQuery> bad;
    bad.push_back(BatchQuery::Exists(broken));
    auto answers = engine.Run(bad);
    ASSERT_TRUE(answers.ok()) << answers.status();
    ASSERT_FALSE((*answers)[0].status.ok());
    ASSERT_EQ(engine.slow_query_log().retained(), 1u);
    const std::vector<SlowQueryEntry> entries =
        engine.slow_query_log().Entries();
    EXPECT_EQ(entries[0].reason, "error");
    EXPECT_EQ(entries[0].status,
              static_cast<std::uint8_t>((*answers)[0].status.code()));
  }
}

TEST(EngineRecorderTest, ExplicitCallerTraceWinsOverSampling) {
  const ProbabilisticInstance inst = MakeWorkloadInstance(321);
  const std::vector<BatchQuery> queries = MakeWorkloadQueries(inst, 8, 0xCA);

  BatchOptions opts;
  opts.threads = 1;
  opts.slow_query_ns = 1;  // would retain everything if sampling applied
  QueryEngine engine(inst, opts);
  obs::TraceSession session;
  auto answers = engine.Run(queries, {}, nullptr, &session);
  ASSERT_TRUE(answers.ok()) << answers.status();

  // The caller's session owns the span tree; the sampler stands down.
  EXPECT_EQ(engine.slow_query_log().retained(), 0u);
  for (const BatchAnswer& a : *answers) {
    EXPECT_NE(a.profile.span, obs::kNoSpan);
  }
  ASSERT_FALSE(session.spans().empty());
}

TEST(EngineRecorderTest, ObservabilityNeverChangesAnswersAcrossThreadCounts) {
  const ProbabilisticInstance inst = MakeWorkloadInstance(20260806);
  const std::vector<BatchQuery> queries = MakeWorkloadQueries(inst, 64, 0xB5);

  // Work counters are a function of the batch alone, so every thread
  // count must report the serial run's totals.
  BatchStats serial_stats;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    BatchOptions off_opts;
    off_opts.threads = threads;
    off_opts.flight_recorder_capacity = 0;
    off_opts.slow_query_ns = 0;
    QueryEngine off_engine(inst, off_opts);
    BatchStats off_stats;
    auto off = off_engine.Run(queries, {}, &off_stats);
    ASSERT_TRUE(off.ok()) << off.status();

    // Fully on, with a 1ns threshold so the retention path (the most
    // invasive part of sampling) runs for every query.
    BatchOptions on_opts = off_opts;
    on_opts.flight_recorder_capacity = FlightRecorder::kDefaultCapacity;
    on_opts.slow_query_ns = 1;
    QueryEngine on_engine(inst, on_opts);
    BatchStats on_stats;
    auto on = on_engine.Run(queries, {}, &on_stats);
    ASSERT_TRUE(on.ok()) << on.status();

    ExpectAnswersBitIdentical(*off, *on);
    EXPECT_EQ(off_stats.opf_row_ops, on_stats.opf_row_ops)
        << threads << " threads";
    if (threads == 1) serial_stats = off_stats;
    EXPECT_EQ(off_stats.opf_row_ops, serial_stats.opf_row_ops)
        << threads << " threads";
    EXPECT_EQ(off_stats.epsilon_recomputed, serial_stats.epsilon_recomputed)
        << threads << " threads";
    EXPECT_EQ(on_engine.flight_recorder().total_recorded(), queries.size());
    EXPECT_EQ(on_engine.slow_query_log().retained(), queries.size());
    EXPECT_FALSE(off_engine.flight_recorder().enabled());
  }
}

TEST(EngineRecorderTest, InflightGaugeDrainsAndGaugesExport) {
  const ProbabilisticInstance inst = MakeWorkloadInstance(555);
  const std::vector<BatchQuery> queries = MakeWorkloadQueries(inst, 8, 0x1F);

  BatchOptions opts;
  opts.threads = 2;
  QueryEngine engine(inst, opts);
  for (int i = 0; i < 3; ++i) {
    auto answers = engine.Run(queries);
    ASSERT_TRUE(answers.ok()) << answers.status();
  }

  // Quiesced: every admitted batch released its slot.
  const obs::MetricsSnapshot snap = obs::Registry::Global().Snapshot();
  EXPECT_EQ(snap.gauge("pxml.engine.inflight"), 0);
  EXPECT_EQ(engine.in_flight_batches(), 0u);
  // The backlog gauge was sampled at batch arrival (idle pool: 0).
  EXPECT_EQ(snap.gauge("pxml.engine.backlog"), 0);

  // Both gauges reach the pull exporter under their rewritten names.
  const std::string prom = obs::ToPrometheusText(snap);
  EXPECT_NE(prom.find("# TYPE pxml_engine_inflight gauge\n"),
            std::string::npos);
  EXPECT_NE(prom.find("pxml_engine_inflight 0\n"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE pxml_engine_backlog gauge\n"),
            std::string::npos);
}

TEST(EngineRecorderTest, DebugSnapshotBundlesAllFourSections) {
  const ProbabilisticInstance inst = MakeWorkloadInstance(888);
  const std::vector<BatchQuery> queries = MakeWorkloadQueries(inst, 8, 0xD5);

  BatchOptions opts;
  opts.threads = 1;
  opts.slow_query_ns = 1;
  QueryEngine engine(inst, opts);
  auto answers = engine.Run(queries);
  ASSERT_TRUE(answers.ok()) << answers.status();

  const std::string snapshot = engine.DebugSnapshot();
  EXPECT_EQ(snapshot.front(), '{');
  EXPECT_EQ(snapshot.back(), '}');
  EXPECT_NE(snapshot.find("\"engine\":{\"head_epoch\":"), std::string::npos);
  EXPECT_NE(snapshot.find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(snapshot.find("\"flight_recorder\":{\"capacity\":"),
            std::string::npos);
  EXPECT_NE(snapshot.find("\"slow_query_log\":{\"max_entries\":"),
            std::string::npos);
  // The forced-slow run left real content in both sections.
  EXPECT_NE(snapshot.find("\"reason\":\"slow\""), std::string::npos);
  EXPECT_NE(snapshot.find("\"admitted\":true"), std::string::npos);
}

}  // namespace
}  // namespace pxml
