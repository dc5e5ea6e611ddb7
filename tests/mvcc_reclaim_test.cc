// Epoch-reclamation regression tests: retired snapshots (the instance
// copy *and* its FrozenInstance) must be freed as soon as the last pin
// drops — the MVCC layer holds no hidden epoch list, so a long-running
// engine that churns mutations must not accumulate memory. Observability
// is the proof: pxml.engine.live_snapshots is a live-population gauge
// (+1 per Epoch constructed, -1 per Epoch destroyed), and
// pxml.engine.epochs_retired counts destructions, so
//   published - retired == live
// at every quiescent point, and live returns to its pre-engine baseline
// when the engine dies; every destruction also times its release into
// pxml.engine.epoch_reclaim_ns. The binary runs under the ASAN/UBSAN/TSAN CI
// matrix, which turns any actually-leaked epoch into a hard failure too.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "query/engine.h"
#include "util/rng.h"

namespace pxml {
namespace {

/// P(∃ path) through RunOne, with the answer's status as a Result.
Result<double> ExistsP(const QueryEngine& engine, const PathExpression& path,
                       const QueryRequest& request = {}) {
  BatchAnswer answer = engine.RunOne(BatchQuery::Exists(path), request);
  if (!answer.status.ok()) return answer.status;
  return answer.probability;
}

ProbabilisticInstance MakeChain(std::uint32_t depth, std::uint64_t seed) {
  ProbabilisticInstance inst;
  WeakInstance& weak = inst.mutable_weak();
  const LabelId c = weak.dict().InternLabel("c");
  Rng rng(seed);
  ObjectId parent = weak.AddObject("n0");
  EXPECT_TRUE(weak.SetRoot(parent).ok());
  for (std::uint32_t d = 1; d <= depth; ++d) {
    const ObjectId child = weak.AddObject("n" + std::to_string(d));
    EXPECT_TRUE(weak.AddPotentialChild(parent, c, child).ok());
    auto opf = std::make_unique<IndependentOpf>();
    EXPECT_TRUE(opf->AddChild(child, 0.2 + 0.7 * rng.NextDouble()).ok());
    EXPECT_TRUE(inst.SetOpf(parent, std::move(opf)).ok());
    parent = child;
  }
  return inst;
}

std::unique_ptr<Opf> FreshOpf(const ProbabilisticInstance& inst, ObjectId o,
                              Rng& rng) {
  auto opf = std::make_unique<IndependentOpf>();
  for (ObjectId child : inst.weak().AllPotentialChildren(o)) {
    EXPECT_TRUE(opf->AddChild(child, 0.05 + 0.9 * rng.NextDouble()).ok());
  }
  return opf;
}

std::int64_t LiveSnapshots() {
  return obs::Registry::Global()
      .GetGauge("pxml.engine.live_snapshots")
      .value();
}

std::uint64_t EpochsRetired() {
  return obs::Registry::Global()
      .GetCounter("pxml.engine.epochs_retired")
      .value();
}

std::uint64_t EpochsPublished() {
  return obs::Registry::Global()
      .GetCounter("pxml.engine.epochs_published")
      .value();
}

std::uint64_t EpochReclaims() {
  return obs::Registry::Global()
      .GetHistogram("pxml.engine.epoch_reclaim_ns")
      .count();
}

TEST(MvccReclaimTest, ChurnedEpochsAreReclaimedEagerly) {
  const std::int64_t baseline_live = LiveSnapshots();
  const std::uint64_t baseline_retired = EpochsRetired();
  const std::uint64_t baseline_published = EpochsPublished();
  const std::uint64_t baseline_reclaims = EpochReclaims();

  constexpr int kChurn = 50;
  {
    const ProbabilisticInstance inst = MakeChain(6, 0xC0FFEE);
    QueryEngine engine(inst, BatchOptions{.threads = 1});
    PathExpression path;
    path.start = inst.weak().root();
    path.labels.assign(6, *inst.weak().dict().FindLabel("c"));

    Rng rng(0x11EA);
    const ObjectId root = inst.weak().root();
    for (int i = 0; i < kChurn; ++i) {
      ASSERT_TRUE(engine.UpdateOpf(root, FreshOpf(inst, root, rng)).ok());
      auto p = ExistsP(engine, path);
      ASSERT_TRUE(p.ok()) << p.status();
      // No reader pins an old epoch here, so each publish retires its
      // predecessor immediately: exactly one epoch alive per engine, no
      // matter how many mutations have committed.
      EXPECT_EQ(LiveSnapshots(), baseline_live + 1) << "iteration " << i;
    }

    // Every superseded epoch (all but the current head) was destroyed.
    EXPECT_EQ(EpochsPublished() - baseline_published,
              static_cast<std::uint64_t>(kChurn) + 1);
    EXPECT_EQ(EpochsRetired() - baseline_retired,
              static_cast<std::uint64_t>(kChurn));
  }

  // Engine destroyed: the head epoch goes too, and the live-population
  // gauge is back at its pre-engine baseline. published - retired == live
  // reconciles exactly.
  EXPECT_EQ(LiveSnapshots(), baseline_live);
  EXPECT_EQ(EpochsPublished() - baseline_published,
            EpochsRetired() - baseline_retired);
  EXPECT_EQ(EpochReclaims() - baseline_reclaims,
            EpochsRetired() - baseline_retired);
}

TEST(MvccReclaimTest, AbandonedGuardPublishesNothing) {
  const std::uint64_t baseline_published = EpochsPublished();
  const ProbabilisticInstance inst = MakeChain(3, 0xAB);
  QueryEngine engine(inst, BatchOptions{.threads = 1});
  const std::uint64_t after_ctor = EpochsPublished();
  EXPECT_EQ(after_ctor - baseline_published, 1u);

  {
    QueryEngine::MutationGuard guard = engine.BeginMutations();
    // No mutation applied: the working copy is discarded, not published.
  }
  EXPECT_EQ(EpochsPublished(), after_ctor);
  EXPECT_EQ(engine.head_epoch(), 1u);

  {
    QueryEngine::MutationGuard guard = engine.BeginMutations();
    // A failed mutation leaves the working copy pristine too.
    EXPECT_FALSE(guard.UpdateVpf(9999, Vpf{}).ok());
  }
  EXPECT_EQ(EpochsPublished(), after_ctor);
  EXPECT_EQ(engine.head_epoch(), 1u);
}

TEST(MvccReclaimTest, PinnedEpochDefersReclamationUntilRelease) {
  const std::int64_t baseline_live = LiveSnapshots();
  const ProbabilisticInstance inst = MakeChain(4, 0x9e);
  QueryEngine engine(inst, BatchOptions{.threads = 1});
  PathExpression path;
  path.start = inst.weak().root();
  path.labels.assign(4, *inst.weak().dict().FindLabel("c"));

  // instance() hands out a reference into the head epoch; the documented
  // lifetime is "until the next mutation commits". Holding a MutationGuard
  // open while reading is the supported way to pin: the epoch stays alive
  // (gauge +1 engine head only) and is retired at the commit that
  // supersedes it.
  EXPECT_EQ(LiveSnapshots(), baseline_live + 1);
  Rng rng(0x51);
  const ObjectId root = inst.weak().root();
  {
    QueryEngine::MutationGuard guard = engine.BeginMutations();
    ASSERT_TRUE(guard.UpdateOpf(root, FreshOpf(inst, root, rng)).ok());
    // Working copy exists but is not an epoch: the gauge is unchanged
    // until the destructor publishes.
    EXPECT_EQ(LiveSnapshots(), baseline_live + 1);
  }
  // Publish retired epoch 1 and installed epoch 2: still exactly one live.
  EXPECT_EQ(LiveSnapshots(), baseline_live + 1);
  EXPECT_EQ(engine.head_epoch(), 2u);
  auto p = ExistsP(engine, path);
  ASSERT_TRUE(p.ok()) << p.status();
}

}  // namespace
}  // namespace pxml
