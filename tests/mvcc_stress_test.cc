// MVCC stress and differential tests (DESIGN.md §7/§8): readers pin one
// committed epoch per batch and must answer bit-identically to a serial
// replay of the mutation-log prefix that epoch committed — under 1, 2, 4
// and 8 concurrent reader threads, with a single writer churning epochs
// through MutationGuard the whole time. The mutation log is pre-generated
// from seeds, so "replay prefix k" is exact: the same seeds regenerate
// the same OPF/VPF bit patterns. Small configurations are additionally
// anchored to the possible-worlds oracle. The whole binary is expected to
// be clean under ASAN/UBSAN/TSAN (the CI sanitizer matrix runs it).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "query/engine.h"
#include "query/point_queries.h"
#include "util/rng.h"
#include "world_testing.h"

namespace pxml {
namespace {

/// P(∃ path) through RunOne, with the answer's status as a Result.
Result<double> ExistsP(const QueryEngine& engine, const PathExpression& path,
                       const QueryRequest& request = {}) {
  BatchAnswer answer = engine.RunOne(BatchQuery::Exists(path), request);
  if (!answer.status.ok()) return answer.status;
  return answer.probability;
}

/// A uniform balanced tree over IndependentOpfs (the representation with
/// bit-identical frozen kernels, so cross-engine comparisons can demand
/// exact equality). Construction order is a function of (depth,
/// branching) only: two trees of the same shape assign the same ObjectIds.
ProbabilisticInstance MakeUniformTree(std::uint32_t depth,
                                      std::uint32_t branching,
                                      std::uint64_t seed) {
  ProbabilisticInstance inst;
  WeakInstance& weak = inst.mutable_weak();
  const LabelId c = weak.dict().InternLabel("c");
  auto type = weak.dict().DefineType("t", {Value("v0"), Value("v1")});
  EXPECT_TRUE(type.ok());
  Rng rng(seed);

  struct Node {
    ObjectId id;
    std::uint32_t level;
  };
  ObjectId next_name = 0;
  auto add_object = [&](void) {
    return weak.AddObject("n" + std::to_string(next_name++));
  };
  const ObjectId root = add_object();
  EXPECT_TRUE(weak.SetRoot(root).ok());
  std::vector<Node> queue{{root, 0}};
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const Node n = queue[i];
    if (n.level == depth) {
      const double p = 0.1 + 0.8 * rng.NextDouble();
      Vpf vpf;
      vpf.Set(Value("v0"), p);
      vpf.Set(Value("v1"), 1.0 - p);
      EXPECT_TRUE(weak.SetLeafType(n.id, *type).ok());
      EXPECT_TRUE(inst.SetVpf(n.id, std::move(vpf)).ok());
      continue;
    }
    auto opf = std::make_unique<IndependentOpf>();
    for (std::uint32_t b = 0; b < branching; ++b) {
      const ObjectId child = add_object();
      EXPECT_TRUE(weak.AddPotentialChild(n.id, c, child).ok());
      EXPECT_TRUE(opf->AddChild(child, 0.3 + 0.6 * rng.NextDouble()).ok());
      queue.push_back({child, n.level + 1});
    }
    EXPECT_TRUE(inst.SetOpf(n.id, std::move(opf)).ok());
  }
  return inst;
}

PathExpression FullDepthPath(const ProbabilisticInstance& inst,
                             std::uint32_t depth) {
  PathExpression p;
  p.start = inst.weak().root();
  const LabelId c = *inst.weak().dict().FindLabel("c");
  p.labels.assign(depth, c);
  return p;
}

/// One log entry = (victim, seed). The payload is *regenerated* from the
/// seed at apply time, so applying the same prefix to two copies of the
/// initial instance produces bit-identical ℘.
struct Mutation {
  ObjectId victim = kInvalidId;
  std::uint64_t seed = 0;
};

std::unique_ptr<Opf> OpfFromSeed(const ProbabilisticInstance& inst,
                                 ObjectId o, std::uint64_t seed) {
  Rng rng(seed);
  auto opf = std::make_unique<IndependentOpf>();
  for (ObjectId child : inst.weak().AllPotentialChildren(o)) {
    EXPECT_TRUE(opf->AddChild(child, 0.05 + 0.9 * rng.NextDouble()).ok());
  }
  return opf;
}

Vpf VpfFromSeed(std::uint64_t seed) {
  Rng rng(seed);
  const double p = 0.05 + 0.9 * rng.NextDouble();
  Vpf vpf;
  vpf.Set(Value("v0"), p);
  vpf.Set(Value("v1"), 1.0 - p);
  return vpf;
}

std::vector<Mutation> MakeMutationLog(const ProbabilisticInstance& inst,
                                      std::size_t n, std::uint64_t seed) {
  const std::vector<ObjectId> objects = inst.weak().Objects();
  Rng rng(seed);
  std::vector<Mutation> log(n);
  for (Mutation& m : log) {
    m.victim = objects[rng.NextBounded(objects.size())];
    m.seed = rng.NextU64();
  }
  return log;
}

Status ApplyMutation(QueryEngine::MutationGuard& guard,
                     const ProbabilisticInstance& shape, const Mutation& m) {
  return shape.weak().IsLeaf(m.victim)
             ? guard.UpdateVpf(m.victim, VpfFromSeed(m.seed))
             : guard.UpdateOpf(m.victim, OpfFromSeed(shape, m.victim, m.seed));
}

/// Replays the first `prefix` log entries onto a copy of `initial`.
ProbabilisticInstance ReplayPrefix(const ProbabilisticInstance& initial,
                                   const std::vector<Mutation>& log,
                                   std::size_t prefix) {
  ProbabilisticInstance inst = initial;
  for (std::size_t i = 0; i < prefix; ++i) {
    const Mutation& m = log[i];
    Status s = inst.weak().IsLeaf(m.victim)
                   ? inst.SetVpf(m.victim, VpfFromSeed(m.seed))
                   : inst.SetOpf(m.victim,
                                 OpfFromSeed(initial, m.victim, m.seed));
    EXPECT_TRUE(s.ok()) << s;
  }
  return inst;
}

/// (epoch, query index) -> probability bits, as recorded by a reader.
struct Observation {
  std::uint64_t epoch = 0;
  std::size_t query = 0;
  std::uint64_t bits = 0;
};

std::uint64_t Bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// ---------------------------------------------------------------------------
// The tentpole stress: concurrent readers vs a mutation-log writer

void RunStress(std::size_t reader_threads, std::size_t engine_threads) {
  const ProbabilisticInstance initial = MakeUniformTree(3, 2, 0xA11CE);
  constexpr std::size_t kMutations = 60;
  const std::vector<Mutation> log =
      MakeMutationLog(initial, kMutations, 0x5EED ^ reader_threads);

  BatchOptions opts;
  opts.threads = engine_threads;
  QueryEngine engine(initial, opts);

  const PathExpression path = FullDepthPath(initial, 3);
  const std::vector<BatchQuery> queries = {
      BatchQuery::Exists(path),
      BatchQuery::ValueEquals(path, Value("v0")),
      BatchQuery::Point(path, initial.weak().root()),
  };

  std::atomic<bool> done{false};
  std::vector<std::vector<Observation>> observations(reader_threads);
  std::vector<std::thread> readers;
  readers.reserve(reader_threads);
  for (std::size_t t = 0; t < reader_threads; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t last_epoch = 0;
      // do/while: at least one batch runs even if the writer finishes
      // before this reader starts (sanitizer runs skew startup heavily).
      do {
        auto batch = engine.Run(queries);
        ASSERT_TRUE(batch.ok()) << batch.status();
        for (std::size_t q = 0; q < batch->size(); ++q) {
          const BatchAnswer& ans = (*batch)[q];
          // Snapshot isolation: every answer succeeds — kStale is
          // impossible without require_latest.
          ASSERT_TRUE(ans.status.ok()) << ans.status;
          observations[t].push_back(
              {ans.profile.epoch, q, Bits(ans.probability)});
          // All answers of one batch come from one pinned epoch…
          EXPECT_EQ(ans.profile.epoch, (*batch)[0].profile.epoch);
          // …and epochs are monotone per reader.
          EXPECT_GE(ans.profile.epoch, last_epoch);
          last_epoch = ans.profile.epoch;
        }
        // require_latest answers are OK or kStale, never silently stale.
        QueryRequest latest;
        latest.require_latest = true;
        auto strict = engine.Run({queries[0]}, latest);
        ASSERT_TRUE(strict.ok()) << strict.status();
        ASSERT_TRUE((*strict)[0].status.ok() ||
                    (*strict)[0].status.code() == StatusCode::kStale)
            << (*strict)[0].status;
      } while (!done.load(std::memory_order_acquire));
    });
  }

  std::thread writer([&] {
    // One mutation per guard: committing log[i] publishes epoch i + 2
    // (epoch 1 is the initial snapshot), so an answer tagged epoch e is
    // the serial answer over prefix e - 1 of the log.
    for (const Mutation& m : log) {
      QueryEngine::MutationGuard guard = engine.BeginMutations();
      Status s = ApplyMutation(guard, initial, m);
      EXPECT_TRUE(s.ok()) << s;
    }
    done.store(true, std::memory_order_release);
  });

  writer.join();
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(engine.head_epoch(), kMutations + 1);

  // Differential check: every recorded answer must be bit-identical to a
  // fresh serial engine over the corresponding committed prefix.
  std::map<std::uint64_t, std::vector<BatchAnswer>> reference;
  for (const std::vector<Observation>& obs : observations) {
    for (const Observation& o : obs) {
      ASSERT_GE(o.epoch, 1u);
      ASSERT_LE(o.epoch, kMutations + 1);
      auto it = reference.find(o.epoch);
      if (it == reference.end()) {
        BatchOptions serial;
        serial.threads = 1;
        QueryEngine replay(ReplayPrefix(initial, log, o.epoch - 1), serial);
        auto expected = replay.Run(queries);
        ASSERT_TRUE(expected.ok()) << expected.status();
        it = reference.emplace(o.epoch, std::move(*expected)).first;
      }
      const BatchAnswer& want = it->second[o.query];
      ASSERT_TRUE(want.status.ok()) << want.status;
      EXPECT_EQ(o.bits, Bits(want.probability))
          << "epoch " << o.epoch << " query " << o.query << " diverged from "
          << "serial replay of the first " << (o.epoch - 1) << " mutations";
    }
  }
}

TEST(MvccStressTest, ReadersMatchSerialReplayWith1Reader) { RunStress(1, 2); }
TEST(MvccStressTest, ReadersMatchSerialReplayWith2Readers) { RunStress(2, 2); }
TEST(MvccStressTest, ReadersMatchSerialReplayWith4Readers) { RunStress(4, 2); }
TEST(MvccStressTest, ReadersMatchSerialReplayWith8Readers) { RunStress(8, 1); }

// ---------------------------------------------------------------------------
// Small-configuration differential against the possible-worlds oracle

TEST(MvccStressTest, EpochAnswersMatchWorldsOracle) {
  const ProbabilisticInstance initial = MakeUniformTree(2, 2, 0x0DDC0DE);
  const std::vector<Mutation> log = MakeMutationLog(initial, 8, 0xFACADE);
  const PathExpression path = FullDepthPath(initial, 2);

  BatchOptions opts;
  opts.threads = 2;
  QueryEngine engine(initial, opts);

  for (std::size_t prefix = 0; prefix <= log.size(); ++prefix) {
    if (prefix > 0) {
      QueryEngine::MutationGuard guard = engine.BeginMutations();
      ASSERT_TRUE(ApplyMutation(guard, initial, log[prefix - 1]).ok());
    }
    auto batch = engine.Run({BatchQuery::Exists(path),
                             BatchQuery::ValueEquals(path, Value("v1"))});
    ASSERT_TRUE(batch.ok()) << batch.status();
    EXPECT_EQ((*batch)[0].profile.epoch, prefix + 1);

    const ProbabilisticInstance replayed = ReplayPrefix(initial, log, prefix);
    auto oracle_exists = ExistsQueryViaWorlds(replayed, path);
    ASSERT_TRUE(oracle_exists.ok()) << oracle_exists.status();
    EXPECT_NEAR((*batch)[0].probability, *oracle_exists, 1e-9)
        << "prefix " << prefix;
    auto oracle_value = ValueQueryViaWorlds(replayed, path, Value("v1"));
    ASSERT_TRUE(oracle_value.ok()) << oracle_value.status();
    EXPECT_NEAR((*batch)[1].probability, *oracle_value, 1e-9)
        << "prefix " << prefix;
  }
}

// ---------------------------------------------------------------------------
// An in-flight batch keeps its pinned epoch across a concurrent commit

TEST(MvccStressTest, PinnedEpochSurvivesConcurrentPublish) {
  const ProbabilisticInstance initial = MakeUniformTree(3, 2, 0x7EA);
  BatchOptions opts;
  opts.threads = 2;
  QueryEngine engine(initial, opts);
  const PathExpression path = FullDepthPath(initial, 3);

  auto before = ExistsP(engine, path);
  ASSERT_TRUE(before.ok()) << before.status();

  // Open a guard, mutate, and — while the guard is still open — read
  // from another thread. The reader must pin epoch 1 and answer exactly
  // the pre-mutation value even though the commit lands right after.
  std::uint64_t reader_bits = 0;
  std::uint64_t reader_epoch = 0;
  {
    QueryEngine::MutationGuard guard = engine.BeginMutations();
    Rng rng(0xB0B);
    const ObjectId root = initial.weak().root();
    ASSERT_TRUE(
        guard.UpdateOpf(root, OpfFromSeed(initial, root, rng.NextU64())).ok());
    std::thread reader([&] {
      auto batch = engine.Run({BatchQuery::Exists(path)});
      ASSERT_TRUE(batch.ok()) << batch.status();
      ASSERT_TRUE((*batch)[0].status.ok()) << (*batch)[0].status;
      reader_bits = Bits((*batch)[0].probability);
      reader_epoch = (*batch)[0].profile.epoch;
    });
    reader.join();
  }
  EXPECT_EQ(reader_epoch, 1u);
  EXPECT_EQ(reader_bits, Bits(*before));
  EXPECT_EQ(engine.head_epoch(), 2u);

  // And the committed epoch is actually different.
  auto after = ExistsP(engine, path);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_NE(Bits(*after), Bits(*before));
}

}  // namespace
}  // namespace pxml
