#include <gtest/gtest.h>

#include <set>

#include "core/validation.h"
#include "fixtures.h"
#include "workload/generator.h"
#include "workload/query_generator.h"
#include "xml/writer.h"

namespace pxml {
namespace {

TEST(GeneratorTest, ObjectCountFormula) {
  EXPECT_EQ(BalancedTreeObjectCount(0, 2), 1u);
  EXPECT_EQ(BalancedTreeObjectCount(2, 2), 7u);
  EXPECT_EQ(BalancedTreeObjectCount(3, 2), 15u);
  EXPECT_EQ(BalancedTreeObjectCount(3, 4), 85u);
  // The paper's largest configuration: depth 6, branching 8 would exceed
  // 100k; depth 9 branching 2 is 1023.
  EXPECT_EQ(BalancedTreeObjectCount(9, 2), 1023u);
}

TEST(GeneratorTest, ProducesBalancedTreeOfRightSize) {
  GeneratorConfig config;
  config.depth = 3;
  config.branching = 3;
  config.seed = 1;
  auto inst = GenerateBalancedTree(config);
  ASSERT_TRUE(inst.ok()) << inst.status();
  EXPECT_EQ(inst->weak().num_objects(), BalancedTreeObjectCount(3, 3));
  EXPECT_TRUE(CheckWeakTree(inst->weak()).ok());
}

TEST(GeneratorTest, OpfEntryCountIs2ToTheB) {
  GeneratorConfig config;
  config.depth = 2;
  config.branching = 4;
  auto inst = GenerateBalancedTree(config);
  ASSERT_TRUE(inst.ok());
  // Non-leaves: 1 + 4 = 5, each with 2^4 = 16 entries.
  EXPECT_EQ(inst->TotalOpfEntries(), 5u * 16u);
}

TEST(GeneratorTest, GeneratedInstanceIsValid) {
  for (LabelingScheme scheme :
       {LabelingScheme::kSameLabels, LabelingScheme::kFullyRandom}) {
    GeneratorConfig config;
    config.depth = 3;
    config.branching = 3;
    config.labeling = scheme;
    config.seed = 7;
    auto inst = GenerateBalancedTree(config);
    ASSERT_TRUE(inst.ok());
    EXPECT_TRUE(ValidateProbabilisticInstance(*inst).ok());
  }
}

TEST(GeneratorTest, SameLabelsSchemeUsesOneLabelPerParent) {
  GeneratorConfig config;
  config.depth = 2;
  config.branching = 4;
  config.labeling = LabelingScheme::kSameLabels;
  config.labels_per_level = 3;
  auto inst = GenerateBalancedTree(config);
  ASSERT_TRUE(inst.ok());
  for (ObjectId o : inst->weak().Objects()) {
    if (!inst->weak().IsLeaf(o)) {
      EXPECT_EQ(inst->weak().LabelsOf(o).size(), 1u);
    }
  }
}

TEST(GeneratorTest, FullyRandomSchemeUsesSeveralLabels) {
  GeneratorConfig config;
  config.depth = 2;
  config.branching = 8;
  config.labeling = LabelingScheme::kFullyRandom;
  config.labels_per_level = 2;
  config.seed = 3;
  auto inst = GenerateBalancedTree(config);
  ASSERT_TRUE(inst.ok());
  bool some_parent_has_two_labels = false;
  for (ObjectId o : inst->weak().Objects()) {
    if (!inst->weak().IsLeaf(o) && inst->weak().LabelsOf(o).size() > 1) {
      some_parent_has_two_labels = true;
    }
  }
  EXPECT_TRUE(some_parent_has_two_labels);
}

TEST(GeneratorTest, DeterministicForEqualSeeds) {
  GeneratorConfig config;
  config.depth = 3;
  config.branching = 2;
  config.seed = 11;
  auto a = GenerateBalancedTree(config);
  auto b = GenerateBalancedTree(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(SerializePxml(*a), SerializePxml(*b));
  config.seed = 12;
  auto c = GenerateBalancedTree(config);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(SerializePxml(*a), SerializePxml(*c));
}

TEST(GeneratorTest, LeafValuesOptional) {
  GeneratorConfig config;
  config.depth = 2;
  config.branching = 2;
  config.with_leaf_values = true;
  config.leaf_domain_size = 3;
  auto inst = GenerateBalancedTree(config);
  ASSERT_TRUE(inst.ok());
  std::size_t leaves_with_vpf = 0;
  for (ObjectId o : inst->weak().Objects()) {
    if (inst->weak().IsLeaf(o)) {
      EXPECT_NE(inst->GetVpf(o), nullptr);
      ++leaves_with_vpf;
    }
  }
  EXPECT_EQ(leaves_with_vpf, 4u);
  EXPECT_TRUE(ValidateProbabilisticInstance(*inst).ok());
}

TEST(GeneratorTest, RejectsBadConfigs) {
  GeneratorConfig config;
  config.branching = 0;
  EXPECT_FALSE(GenerateBalancedTree(config).ok());
  config.branching = 30;
  EXPECT_FALSE(GenerateBalancedTree(config).ok());
  config.branching = 2;
  config.labels_per_level = 0;
  EXPECT_FALSE(GenerateBalancedTree(config).ok());
}

// -------------------------------------------------------- query generation

TEST(QueryGeneratorTest, AcceptedPathsMatchSomething) {
  GeneratorConfig config;
  config.depth = 4;
  config.branching = 2;
  config.labeling = LabelingScheme::kFullyRandom;
  config.seed = 5;
  auto inst = GenerateBalancedTree(config);
  ASSERT_TRUE(inst.ok());
  Rng rng(99);
  for (int i = 0; i < 20; ++i) {
    auto path = GenerateAcceptedPath(*inst, rng);
    ASSERT_TRUE(path.ok()) << path.status();
    // Length equals the instance depth (§7.1).
    EXPECT_EQ(path->length(), 4u);
    auto layers = PrunedWeakPathLayers(inst->weak(), *path);
    ASSERT_TRUE(layers.ok());
    EXPECT_FALSE(layers->back().empty());
  }
}

TEST(QueryGeneratorTest, SelectionTargetsSatisfyThePath) {
  GeneratorConfig config;
  config.depth = 3;
  config.branching = 3;
  config.labeling = LabelingScheme::kSameLabels;
  config.seed = 2;
  auto inst = GenerateBalancedTree(config);
  ASSERT_TRUE(inst.ok());
  Rng rng(123);
  for (int i = 0; i < 20; ++i) {
    auto cond = GenerateObjectSelection(*inst, rng);
    ASSERT_TRUE(cond.ok()) << cond.status();
    auto layers = PrunedWeakPathLayers(inst->weak(), cond->path);
    ASSERT_TRUE(layers.ok());
    EXPECT_TRUE(layers->back().Contains(cond->object));
  }
}

TEST(QueryGeneratorTest, FailsOnEdgelessInstance) {
  ProbabilisticInstance inst;
  inst.mutable_weak().AddObject("r");
  ASSERT_TRUE(inst.mutable_weak().SetRoot(*inst.dict().FindObject("r")).ok());
  Rng rng(1);
  EXPECT_FALSE(GenerateAcceptedPath(inst, rng).ok());
}

}  // namespace
}  // namespace pxml
