// Property-based tests: on randomly generated tree instances (the §7.1
// workload at miniature scale), every efficient algorithm must agree with
// the possible-worlds oracle, coherence must hold, and serialization must
// round-trip. Parameterized over tree shape, labeling scheme and seed.
#include <gtest/gtest.h>

#include <tuple>

#include "algebra/projection.h"
#include "algebra/projection_global.h"
#include "algebra/selection.h"
#include "algebra/selection_global.h"
#include "bayes/network.h"
#include "core/semantics.h"
#include "core/validation.h"
#include "query/engine.h"
#include "query/point_queries.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workload/generator.h"
#include "workload/query_generator.h"
#include "world_testing.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace pxml {
namespace {

/// Reference configuration: no frozen kernels — bit-exact generic
/// evaluation on every run.
BatchOptions Generic(BatchOptions options) {
  options.frozen = false;
  return options;
}

using Param = std::tuple<std::uint32_t /*depth*/, std::uint32_t /*branch*/,
                         LabelingScheme, std::uint64_t /*seed*/>;

class RandomTreeTest : public ::testing::TestWithParam<Param> {
 protected:
  ProbabilisticInstance MakeInstance(bool with_values) const {
    GeneratorConfig config;
    config.depth = std::get<0>(GetParam());
    config.branching = std::get<1>(GetParam());
    config.labeling = std::get<2>(GetParam());
    config.seed = std::get<3>(GetParam());
    config.labels_per_level = 2;
    config.with_leaf_values = with_values;
    auto inst = GenerateBalancedTree(config);
    EXPECT_TRUE(inst.ok()) << inst.status();
    return std::move(inst).ValueOrDie();
  }

  Rng QueryRng() const { return Rng(std::get<3>(GetParam()) ^ 0xABCDEF); }
};

TEST_P(RandomTreeTest, CoherenceTheorem1) {
  ProbabilisticInstance inst = MakeInstance(/*with_values=*/false);
  auto worlds = EnumerateWorlds(inst);
  ASSERT_TRUE(worlds.ok()) << worlds.status();
  double sum = 0;
  for (const World& w : *worlds) sum += w.prob;
  EXPECT_NEAR(sum, 1.0, 1e-7);
}

TEST_P(RandomTreeTest, AncestorProjectionMatchesOracle) {
  ProbabilisticInstance inst = MakeInstance(/*with_values=*/false);
  Rng rng = QueryRng();
  auto worlds = EnumerateWorlds(inst);
  ASSERT_TRUE(worlds.ok());
  for (int i = 0; i < 3; ++i) {
    auto path = GenerateAcceptedPath(inst, rng);
    ASSERT_TRUE(path.ok());
    auto oracle = ProjectWorlds(*worlds, *path);
    ASSERT_TRUE(oracle.ok());
    auto efficient = AncestorProject(inst, *path);
    ASSERT_TRUE(efficient.ok()) << efficient.status();
    testing::ExpectInstanceMatchesWorlds(*efficient, *oracle, 1e-7);
  }
}

TEST_P(RandomTreeTest, SelectionMatchesOracle) {
  ProbabilisticInstance inst = MakeInstance(/*with_values=*/false);
  Rng rng = QueryRng();
  auto worlds = EnumerateWorlds(inst);
  ASSERT_TRUE(worlds.ok());
  for (int i = 0; i < 3; ++i) {
    auto cond = GenerateObjectSelection(inst, rng);
    ASSERT_TRUE(cond.ok());
    auto oracle = SelectWorlds(*worlds, *cond);
    if (!oracle.ok()) continue;  // condition may have ~zero mass
    SelectionStats stats;
    auto efficient = Select(inst, *cond, &stats);
    ASSERT_TRUE(efficient.ok()) << efficient.status();
    testing::ExpectInstanceMatchesWorlds(*efficient, *oracle, 1e-7);
    // The normalization constant equals the point-query probability.
    auto point = PointQuery(inst, cond->path, cond->object);
    ASSERT_TRUE(point.ok());
    EXPECT_NEAR(stats.condition_prob, *point, 1e-9);
  }
}

TEST_P(RandomTreeTest, PointAndExistsQueriesMatchOracle) {
  ProbabilisticInstance inst = MakeInstance(/*with_values=*/false);
  Rng rng = QueryRng();
  for (int i = 0; i < 3; ++i) {
    auto cond = GenerateObjectSelection(inst, rng);
    ASSERT_TRUE(cond.ok());
    auto fast = PointQuery(inst, cond->path, cond->object);
    auto slow = PointQueryViaWorlds(inst, cond->path, cond->object);
    ASSERT_TRUE(fast.ok()) << fast.status();
    ASSERT_TRUE(slow.ok());
    EXPECT_NEAR(*fast, *slow, 1e-7);
    auto efast = ExistsQuery(inst, cond->path);
    auto eslow = ExistsQueryViaWorlds(inst, cond->path);
    ASSERT_TRUE(efast.ok());
    ASSERT_TRUE(eslow.ok());
    EXPECT_NEAR(*efast, *eslow, 1e-7);
    EXPECT_GE(*efast + 1e-9, *fast);  // exists dominates any single point
  }
}

TEST_P(RandomTreeTest, BayesNetAgreesOnPresence) {
  ProbabilisticInstance inst = MakeInstance(/*with_values=*/false);
  auto net = BayesNet::Compile(inst);
  ASSERT_TRUE(net.ok()) << net.status();
  Rng rng = QueryRng();
  for (int i = 0; i < 3; ++i) {
    auto cond = GenerateObjectSelection(inst, rng);
    ASSERT_TRUE(cond.ok());
    auto eps = PointQuery(inst, cond->path, cond->object);
    auto bn = net->ProbPresent(cond->object);
    ASSERT_TRUE(eps.ok());
    ASSERT_TRUE(bn.ok());
    // In a generated tree every object is reachable by exactly one label
    // path, so presence == path satisfaction.
    EXPECT_NEAR(*eps, *bn, 1e-7);
  }
}

// Differential harness: the same random workload evaluated three ways —
// serial operators (threads = 1), the parallel batch engine at 2/4/8
// threads, and the possible-worlds oracle. Parallel answers must be
// bit-identical to the serial ones (determinism by construction), and the
// serial ones must match the oracle up to tolerance. Each thread count
// runs the batch twice to catch scheduling-dependent nondeterminism.
TEST_P(RandomTreeTest, BatchEngineMatchesSerialAndOracle) {
  ProbabilisticInstance inst = MakeInstance(/*with_values=*/false);
  auto worlds = EnumerateWorlds(inst);
  ASSERT_TRUE(worlds.ok()) << worlds.status();

  Rng rng = QueryRng();
  std::vector<BatchQuery> queries;
  std::vector<SelectionCondition> conds;
  for (int i = 0; i < 3; ++i) {
    auto cond = GenerateObjectSelection(inst, rng);
    ASSERT_TRUE(cond.ok());
    conds.push_back(*cond);
    queries.push_back(BatchQuery::Point(cond->path, cond->object));
    queries.push_back(BatchQuery::Exists(cond->path));
    queries.push_back(BatchQuery::AncestorProjection(cond->path));
  }

  BatchOptions serial_options;
  serial_options.threads = 1;
  QueryEngine serial(inst, Generic(serial_options));
  auto serial_answers = serial.Run(queries);
  ASSERT_TRUE(serial_answers.ok()) << serial_answers.status();

  // Leg 1: serial batch answers agree with the possible-worlds oracle.
  for (std::size_t i = 0; i < conds.size(); ++i) {
    const BatchAnswer& point = (*serial_answers)[3 * i];
    const BatchAnswer& exists = (*serial_answers)[3 * i + 1];
    const BatchAnswer& projected = (*serial_answers)[3 * i + 2];
    ASSERT_TRUE(point.status.ok()) << point.status;
    ASSERT_TRUE(exists.status.ok()) << exists.status;
    ASSERT_TRUE(projected.status.ok()) << projected.status;
    auto point_oracle =
        PointQueryViaWorlds(inst, conds[i].path, conds[i].object);
    ASSERT_TRUE(point_oracle.ok());
    EXPECT_NEAR(point.probability, *point_oracle, 1e-7);
    auto exists_oracle = ExistsQueryViaWorlds(inst, conds[i].path);
    ASSERT_TRUE(exists_oracle.ok());
    EXPECT_NEAR(exists.probability, *exists_oracle, 1e-7);
    auto projection_oracle = ProjectWorlds(*worlds, conds[i].path);
    ASSERT_TRUE(projection_oracle.ok());
    ASSERT_TRUE(projected.projection.has_value());
    testing::ExpectInstanceMatchesWorlds(*projected.projection,
                                         *projection_oracle, 1e-7);
  }

  // Leg 2: parallel engines are bit-identical to serial at every thread
  // count, across repeated runs of the same engine (fresh schedules).
  for (std::size_t threads : {2u, 4u, 8u}) {
    BatchOptions options;
    options.threads = threads;
    QueryEngine engine(inst, Generic(options));
    for (int repeat = 0; repeat < 2; ++repeat) {
      auto answers = engine.Run(queries);
      ASSERT_TRUE(answers.ok()) << answers.status();
      ASSERT_EQ(answers->size(), serial_answers->size());
      for (std::size_t i = 0; i < answers->size(); ++i) {
        const BatchAnswer& got = (*answers)[i];
        const BatchAnswer& want = (*serial_answers)[i];
        EXPECT_EQ(got.status.code(), want.status.code())
            << "threads=" << threads << " repeat=" << repeat << " query " << i;
        EXPECT_EQ(got.probability, want.probability)
            << "threads=" << threads << " repeat=" << repeat << " query " << i;
        ASSERT_EQ(got.projection.has_value(), want.projection.has_value());
        if (got.projection.has_value()) {
          EXPECT_EQ(SerializePxml(*got.projection),
                    SerializePxml(*want.projection))
              << "threads=" << threads << " repeat=" << repeat << " query "
              << i;
        }
      }
    }
  }
}

TEST_P(RandomTreeTest, SerializationRoundTrips) {
  ProbabilisticInstance inst = MakeInstance(/*with_values=*/true);
  auto parsed = ParsePxml(SerializePxml(inst));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(ValidateProbabilisticInstance(*parsed).ok());
  auto expected = EnumerateWorlds(inst);
  ASSERT_TRUE(expected.ok()) << expected.status();
  testing::ExpectInstanceMatchesWorlds(*parsed, *expected, 1e-7);
}

TEST_P(RandomTreeTest, ValuedInstancesStayCoherent) {
  ProbabilisticInstance inst = MakeInstance(/*with_values=*/true);
  EXPECT_TRUE(ValidateProbabilisticInstance(inst).ok());
  auto worlds = EnumerateWorlds(inst);
  ASSERT_TRUE(worlds.ok());
  double sum = 0;
  for (const World& w : *worlds) sum += w.prob;
  EXPECT_NEAR(sum, 1.0, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RandomTreeTest,
    ::testing::Values(
        // depth, branching, labeling, seed — kept small enough that the
        // possible-worlds oracle stays tractable.
        Param{2, 2, LabelingScheme::kSameLabels, 1},
        Param{2, 2, LabelingScheme::kFullyRandom, 2},
        Param{2, 3, LabelingScheme::kSameLabels, 3},
        Param{2, 3, LabelingScheme::kFullyRandom, 4},
        Param{3, 2, LabelingScheme::kSameLabels, 5},
        Param{3, 2, LabelingScheme::kFullyRandom, 6},
        Param{2, 2, LabelingScheme::kSameLabels, 7},
        Param{2, 2, LabelingScheme::kFullyRandom, 8}),
    [](const ::testing::TestParamInfo<Param>& info) {
      return StrCat(
          "d", std::get<0>(info.param), "b", std::get<1>(info.param),
          std::get<2>(info.param) == LabelingScheme::kSameLabels ? "SL"
                                                                 : "FR",
          "s", std::get<3>(info.param));
    });

}  // namespace
}  // namespace pxml
