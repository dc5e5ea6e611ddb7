#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/potential_children.h"
#include "core/validation.h"
#include "core/weak_instance.h"
#include "fixtures.h"
#include "graph/algorithms.h"
#include "workload/generator.h"

namespace pxml {
namespace {

using testing::MakeBibliographicInstance;

// ------------------------------------------------------------ WeakInstance

TEST(WeakInstanceTest, LchAndLabels) {
  ProbabilisticInstance inst = MakeBibliographicInstance();
  const WeakInstance& weak = inst.weak();
  const Dictionary& dict = weak.dict();
  ObjectId b1 = *dict.FindObject("B1");
  LabelId author = *dict.FindLabel("author");
  LabelId title = *dict.FindLabel("title");
  EXPECT_EQ(weak.Lch(b1, author).size(), 2u);
  EXPECT_EQ(weak.Lch(b1, title).size(), 1u);
  EXPECT_EQ(weak.LabelsOf(b1).size(), 2u);
  EXPECT_EQ(weak.AllPotentialChildren(b1).size(), 3u);
  EXPECT_TRUE(weak.Lch(b1, *dict.FindLabel("book")).empty());
}

TEST(WeakInstanceTest, ChildLabelIsUniquePerPair) {
  ProbabilisticInstance inst = MakeBibliographicInstance();
  const WeakInstance& weak = inst.weak();
  const Dictionary& dict = weak.dict();
  ObjectId b1 = *dict.FindObject("B1");
  ObjectId t1 = *dict.FindObject("T1");
  EXPECT_EQ(weak.ChildLabel(b1, t1), *dict.FindLabel("title"));
  EXPECT_FALSE(weak.ChildLabel(t1, b1).has_value());
}

TEST(WeakInstanceTest, LeavesAreLchFree) {
  ProbabilisticInstance inst = MakeBibliographicInstance();
  const WeakInstance& weak = inst.weak();
  EXPECT_TRUE(weak.IsLeaf(*weak.dict().FindObject("T1")));
  EXPECT_FALSE(weak.IsLeaf(*weak.dict().FindObject("A1")));
}

TEST(WeakInstanceTest, WeakInstanceGraphHasLchEdges) {
  ProbabilisticInstance inst = MakeBibliographicInstance();
  auto graph = WeakInstanceGraph(inst.weak());
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_objects(), 11u);
  EXPECT_EQ(graph->num_edges(), 15u);
  EXPECT_TRUE(IsAcyclic(*graph));
}

TEST(WeakInstanceTest, CardMaxZeroDropsGraphEdges) {
  WeakInstance weak;
  ObjectId r = weak.AddObject("r");
  ObjectId x = weak.AddObject("x");
  LabelId l = weak.dict().InternLabel("l");
  ASSERT_TRUE(weak.SetRoot(r).ok());
  ASSERT_TRUE(weak.AddPotentialChild(r, l, x).ok());
  ASSERT_TRUE(weak.SetCard(r, l, IntInterval(0, 0)).ok());
  auto graph = WeakInstanceGraph(weak);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_edges(), 0u);
}

TEST(WeakInstanceTest, AcyclicityCheck) {
  WeakInstance weak;
  ObjectId a = weak.AddObject("a");
  ObjectId b = weak.AddObject("b");
  LabelId l = weak.dict().InternLabel("l");
  ASSERT_TRUE(weak.SetRoot(a).ok());
  ASSERT_TRUE(weak.AddPotentialChild(a, l, b).ok());
  EXPECT_TRUE(CheckAcyclic(weak).ok());
  ASSERT_TRUE(weak.AddPotentialChild(b, l, a).ok());
  EXPECT_FALSE(CheckAcyclic(weak).ok());
}

TEST(WeakInstanceTest, TreeCheck) {
  ProbabilisticInstance bib = MakeBibliographicInstance();
  EXPECT_FALSE(CheckWeakTree(bib.weak()).ok());  // A1/A2 share I1 etc.
  ProbabilisticInstance small = testing::MakeSmallTreeInstance();
  EXPECT_TRUE(CheckWeakTree(small.weak()).ok());
}

TEST(WeakInstanceTest, WeakPathLayers) {
  ProbabilisticInstance inst = MakeBibliographicInstance();
  const WeakInstance& weak = inst.weak();
  const Dictionary& dict = weak.dict();
  PathExpression p;
  p.start = weak.root();
  p.labels = {*dict.FindLabel("book"), *dict.FindLabel("title")};
  auto layers = PrunedWeakPathLayers(weak, p);
  ASSERT_TRUE(layers.ok());
  // Only B1 and B3 can have titles.
  EXPECT_EQ((*layers)[1].size(), 2u);
  EXPECT_FALSE((*layers)[1].Contains(*dict.FindObject("B2")));
  EXPECT_EQ((*layers)[2].size(), 2u);
}

// ------------------------------------------------------- PotentialChildren

TEST(PotentialChildrenTest, PLRespectsCardinality) {
  ProbabilisticInstance inst = MakeBibliographicInstance();
  const WeakInstance& weak = inst.weak();
  const Dictionary& dict = weak.dict();
  ObjectId b1 = *dict.FindObject("B1");
  LabelId author = *dict.FindLabel("author");
  // card(B1, author) = [1,2], lch = {A1, A2}: PL = {{A1},{A2},{A1,A2}}
  auto pl = PotentialLabelChildSets(weak, b1, author);
  ASSERT_TRUE(pl.ok());
  EXPECT_EQ(pl->size(), 3u);
}

TEST(PotentialChildrenTest, PCIsCrossProductOfLabels) {
  ProbabilisticInstance inst = MakeBibliographicInstance();
  const WeakInstance& weak = inst.weak();
  const Dictionary& dict = weak.dict();
  ObjectId b1 = *dict.FindObject("B1");
  // authors: 3 choices x titles: {} or {T1} = 6 sets (Figure 2's PC(B1)).
  auto pc = PotentialChildSets(weak, b1);
  ASSERT_TRUE(pc.ok());
  EXPECT_EQ(pc->size(), 6u);
  for (const IdSet& c : *pc) {
    EXPECT_TRUE(IsPotentialChildSet(weak, b1, c));
  }
  auto count = CountPotentialChildSets(weak, b1);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 6u);
}

TEST(PotentialChildrenTest, RootPCMatchesFigure2) {
  ProbabilisticInstance inst = MakeBibliographicInstance();
  const WeakInstance& weak = inst.weak();
  ObjectId r = weak.root();
  // card(R, book) = [2,3] over 3 books: C(3,2)+C(3,3) = 4 sets.
  auto pc = PotentialChildSets(weak, r);
  ASSERT_TRUE(pc.ok());
  EXPECT_EQ(pc->size(), 4u);
}

TEST(PotentialChildrenTest, MembershipRejectsForeignAndOversized) {
  ProbabilisticInstance inst = MakeBibliographicInstance();
  const WeakInstance& weak = inst.weak();
  const Dictionary& dict = weak.dict();
  ObjectId r = weak.root();
  ObjectId b1 = *dict.FindObject("B1");
  ObjectId t1 = *dict.FindObject("T1");
  EXPECT_FALSE(IsPotentialChildSet(weak, r, IdSet{b1}));       // card.min=2
  EXPECT_FALSE(IsPotentialChildSet(weak, r, IdSet{b1, t1}));   // T1 foreign
  EXPECT_FALSE(IsPotentialChildSet(weak, b1, IdSet{t1}));      // 0 authors
}

TEST(PotentialChildrenTest, EmptyPLWhenMinExceedsLch) {
  WeakInstance weak;
  ObjectId r = weak.AddObject("r");
  ObjectId x = weak.AddObject("x");
  LabelId l = weak.dict().InternLabel("l");
  ASSERT_TRUE(weak.SetRoot(r).ok());
  ASSERT_TRUE(weak.AddPotentialChild(r, l, x).ok());
  ASSERT_TRUE(weak.SetCard(r, l, IntInterval(2, 3)).ok());
  auto pl = PotentialLabelChildSets(weak, r, l);
  ASSERT_TRUE(pl.ok());
  EXPECT_TRUE(pl->empty());
  auto pc = PotentialChildSets(weak, r);
  ASSERT_TRUE(pc.ok());
  EXPECT_TRUE(pc->empty());
}

TEST(PotentialChildrenTest, LeafHasSingletonEmptyPC) {
  ProbabilisticInstance inst = MakeBibliographicInstance();
  auto pc = PotentialChildSets(inst.weak(),
                               *inst.dict().FindObject("T1"));
  ASSERT_TRUE(pc.ok());
  ASSERT_EQ(pc->size(), 1u);
  EXPECT_TRUE((*pc)[0].empty());
}

// --------------------------------------------------------------- Instance

TEST(ProbabilisticInstanceTest, CopyIsCopyOnWriteOverLocalInterpretation) {
  ProbabilisticInstance a = MakeBibliographicInstance();
  ProbabilisticInstance b = a;
  ObjectId r = a.weak().root();
  // The copy aliases every OPF/VPF (cheap snapshot for MVCC publishing)…
  EXPECT_EQ(a.GetOpf(r), b.GetOpf(r));
  EXPECT_EQ(a.TotalOpfEntries(), b.TotalOpfEntries());
  // …but replacing a function on the copy never reaches back into the
  // original: SetOpf swaps the shared pointer, it does not mutate the
  // shared immutable object.
  const Opf* original_root_opf = a.GetOpf(r);
  auto replacement = std::make_unique<ExplicitOpf>(
      dynamic_cast<const ExplicitOpf&>(*b.GetOpf(r)));
  ASSERT_TRUE(b.SetOpf(r, std::move(replacement)).ok());
  EXPECT_EQ(a.GetOpf(r), original_root_opf);
  EXPECT_NE(a.GetOpf(r), b.GetOpf(r));
  EXPECT_EQ(a.GetOpf(r)->NumEntries(), b.GetOpf(r)->NumEntries());
}

TEST(ProbabilisticInstanceTest, TotalOpfEntriesCounts) {
  ProbabilisticInstance inst = MakeBibliographicInstance();
  // 4 + 6 + 3 + 1 + 2 + 2 + 1 = 19 rows across the seven OPFs.
  EXPECT_EQ(inst.TotalOpfEntries(), 19u);
}

TEST(ProbabilisticInstanceTest, SetOpfRejectsUnknownObject) {
  ProbabilisticInstance inst;
  EXPECT_FALSE(inst.SetOpf(3, std::make_unique<ExplicitOpf>()).ok());
}

// ---------------------------------------------------------------- Sharing

constexpr std::size_t kChunk = ProbabilisticInstance::kChunkSize;

/// A b=4, d=5 balanced tree (1,365 objects, ids 0..1364 in three ℘
/// chunks) with typed leaves, so both tables span chunk boundaries.
ProbabilisticInstance MakeWideInstance() {
  GeneratorConfig config;
  config.depth = 5;
  config.branching = 4;
  config.opf_style = OpfStyle::kIndependent;
  config.with_leaf_values = true;
  auto inst = GenerateBalancedTree(config);
  EXPECT_TRUE(inst.ok()) << inst.status();
  return std::move(inst).ValueOrDie();
}

/// W as text (objects, names, lch sets, card, leaf data) plus the
/// dictionary sizes, which also catch names interned without an object.
std::string StructureOf(const ProbabilisticInstance& inst) {
  return inst.weak().ToString() + " names=" +
         std::to_string(inst.dict().num_objects()) + " labels=" +
         std::to_string(inst.dict().num_labels());
}

Vpf TwoPointVpf(double p) {
  Vpf vpf;
  vpf.Set(Value("x"), p);
  vpf.Set(Value("y"), 1.0 - p);
  return vpf;
}

TEST(ProbabilisticInstanceSharingTest, CopySharesWeakInstance) {
  const ProbabilisticInstance source = MakeWideInstance();
  const ProbabilisticInstance copy = source;
  EXPECT_EQ(&copy.weak(), &source.weak());
  EXPECT_EQ(&copy.dict(), &source.dict());
  EXPECT_EQ(copy.structure_version(), source.structure_version());
}

TEST(ProbabilisticInstanceSharingTest, StructuralEditUnsharesWeakInstance) {
  // Edit through the copy, then with the roles swapped through the
  // source: the side not edited keeps its structure either way.
  for (const bool edit_copy : {true, false}) {
    SCOPED_TRACE(edit_copy ? "edit the copy" : "edit the source");
    ProbabilisticInstance source = MakeWideInstance();
    ProbabilisticInstance copy = source;
    ProbabilisticInstance& edited = edit_copy ? copy : source;
    const ProbabilisticInstance& other = edit_copy ? source : copy;
    const std::string structure = StructureOf(other);
    const std::vector<ObjectId> objects = other.weak().Objects();
    const std::uint64_t structure_version = other.structure_version();
    const WeakInstance* shared = &other.weak();

    WeakInstance& weak = edited.weak();
    const ObjectId root = weak.root();
    const ObjectId extra = weak.AddObject("extra");
    const LabelId label = weak.dict().InternLabel("extra_label");
    ASSERT_TRUE(weak.AddPotentialChild(root, label, extra).ok());

    EXPECT_NE(&std::as_const(edited).weak(), &other.weak());
    EXPECT_EQ(&other.weak(), shared);
    EXPECT_EQ(StructureOf(other), structure);
    EXPECT_EQ(other.weak().Objects(), objects);
    EXPECT_FALSE(other.dict().FindObject("extra").has_value());
    EXPECT_EQ(other.structure_version(), structure_version);
    EXPECT_GT(edited.structure_version(), structure_version);
    EXPECT_TRUE(std::as_const(edited).weak().Present(extra));
    EXPECT_EQ(std::as_const(edited).weak().Lch(root, label).size(), 1u);
  }
}

TEST(ProbabilisticInstanceSharingTest, SetOnCopyLeavesSourceTablesUnchanged) {
  const ProbabilisticInstance source = MakeWideInstance();
  ASSERT_GT(source.weak().num_objects(), 2 * kChunk);
  const std::size_t probe = 8 * kChunk;  // well past both tables' end
  std::vector<const Opf*> opfs(probe);
  std::vector<const Vpf*> vpfs(probe);
  for (ObjectId o = 0; o < probe; ++o) {
    opfs[o] = source.GetOpf(o);
    vpfs[o] = source.GetVpf(o);
  }
  const std::size_t rows = source.TotalOpfEntries();
  auto expect_source_unchanged = [&](const char* when) {
    for (ObjectId o = 0; o < probe; ++o) {
      EXPECT_EQ(source.GetOpf(o), opfs[o]) << when << ": OPF of " << o;
      EXPECT_EQ(source.GetVpf(o), vpfs[o]) << when << ": VPF of " << o;
    }
    EXPECT_EQ(source.TotalOpfEntries(), rows) << when;
  };

  // The last slot of chunk 0, the first of chunk 1 and the last of
  // chunk 1; twice each, so the second write lands in an unshared chunk.
  ProbabilisticInstance copy = source;
  const std::vector<ObjectId> written = {kChunk - 1, kChunk, 2 * kChunk - 1};
  for (int round = 0; round < 2; ++round) {
    for (ObjectId o : written) {
      auto opf = std::make_unique<IndependentOpf>();
      ASSERT_TRUE(copy.SetOpf(o, std::move(opf)).ok());
      ASSERT_TRUE(copy.SetVpf(o, TwoPointVpf(0.25 * (round + 1))).ok());
      EXPECT_NE(copy.GetOpf(o), opfs[o]);
      EXPECT_NE(copy.GetVpf(o), vpfs[o]);
      EXPECT_EQ(copy.GetVpf(o)->Prob(Value("x")), 0.25 * (round + 1));
    }
  }
  expect_source_unchanged("after chunk-boundary writes");
  // Every slot the copy did not write still aliases the source's entry.
  for (ObjectId o = 0; o < probe; ++o) {
    if (std::find(written.begin(), written.end(), o) != written.end()) {
      continue;
    }
    EXPECT_EQ(copy.GetOpf(o), opfs[o]) << o;
    EXPECT_EQ(copy.GetVpf(o), vpfs[o]) << o;
  }

  // Past the table's end: grow the copy's W until an object lands beyond
  // every allocated chunk, then install ℘ there.
  WeakInstance& weak = copy.weak();
  ObjectId far = kInvalidId;
  for (int i = 0; far == kInvalidId || far < 4 * kChunk; ++i) {
    far = weak.AddObject("grown" + std::to_string(i));
  }
  ASSERT_TRUE(copy.SetOpf(far, std::make_unique<IndependentOpf>()).ok());
  ASSERT_TRUE(copy.SetVpf(far, TwoPointVpf(0.5)).ok());
  EXPECT_NE(copy.GetOpf(far), nullptr);
  EXPECT_NE(copy.GetVpf(far), nullptr);
  EXPECT_EQ(copy.GetOpf(far + 1), nullptr);
  expect_source_unchanged("after a write past the table's end");
}

TEST(ProbabilisticInstanceSharingTest, MovedFromInstanceIsValidAndEmpty) {
  ProbabilisticInstance source = MakeBibliographicInstance();
  const ObjectId root = source.weak().root();
  ProbabilisticInstance moved = std::move(source);
  EXPECT_EQ(moved.TotalOpfEntries(), 19u);
  EXPECT_NE(moved.GetOpf(root), nullptr);

  // Deliberate use after move: the source is a valid, empty instance.
  const ProbabilisticInstance& empty = source;
  EXPECT_EQ(empty.weak().num_objects(), 0u);
  EXPECT_FALSE(empty.weak().HasRoot());
  EXPECT_EQ(empty.dict().num_objects(), 0u);
  EXPECT_EQ(empty.GetOpf(root), nullptr);
  EXPECT_EQ(empty.GetVpf(root), nullptr);
  EXPECT_EQ(empty.TotalOpfEntries(), 0u);
  EXPECT_FALSE(source.SetOpf(root, std::make_unique<IndependentOpf>()).ok());

  // …and it builds up again like a default-constructed one.
  const ObjectId r = source.weak().AddObject("r");
  ASSERT_TRUE(source.weak().SetRoot(r).ok());
  ASSERT_TRUE(source.SetVpf(r, TwoPointVpf(0.5)).ok());
  EXPECT_NE(source.GetVpf(r), nullptr);
  EXPECT_EQ(empty.weak().num_objects(), 1u);

  // Move assignment leaves the same kind of empty instance behind.
  ProbabilisticInstance target;
  target = std::move(moved);
  EXPECT_EQ(target.TotalOpfEntries(), 19u);
  const ProbabilisticInstance& emptied = moved;
  EXPECT_EQ(emptied.weak().num_objects(), 0u);
  EXPECT_EQ(emptied.TotalOpfEntries(), 0u);
}

TEST(ProbabilisticInstanceSharingTest, ReadersRaceCopyEditAndDrop) {
  // Readers walk the shared W and ℘ of `source` while the main thread
  // repeatedly copies it, edits the copy's structure and ℘, and drops
  // the copy. Meant for the TSAN build: the copies' clones and releases
  // must never write what the readers read.
  const ProbabilisticInstance source = MakeWideInstance();
  const std::string structure = StructureOf(source);
  const std::size_t rows = source.TotalOpfEntries();
  std::atomic<bool> done{false};
  std::atomic<int> started{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      started.fetch_add(1, std::memory_order_acq_rel);
      do {
        std::size_t seen_rows = 0;
        std::size_t seen_vpfs = 0;
        for (ObjectId o : source.weak().Objects()) {
          if (const Opf* opf = source.GetOpf(o)) {
            seen_rows += opf->NumEntries();
          }
          if (source.GetVpf(o) != nullptr) ++seen_vpfs;
        }
        if (seen_rows != rows || seen_vpfs == 0 ||
            StructureOf(source) != structure) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      } while (!done.load(std::memory_order_acquire));
    });
  }
  while (started.load(std::memory_order_acquire) < 2) {
    std::this_thread::yield();
  }
  for (int i = 0; i < 20; ++i) {
    ProbabilisticInstance copy = source;
    WeakInstance& weak = copy.weak();
    const ObjectId extra = weak.AddObject("extra");
    // EXPECT, not ASSERT: an early return would skip the joins below.
    EXPECT_TRUE(
        weak.AddPotentialChild(weak.root(), weak.dict().InternLabel("e"),
                               extra)
            .ok());
    for (ObjectId o : {ObjectId{1}, ObjectId(kChunk), ObjectId(2 * kChunk)}) {
      EXPECT_TRUE(copy.SetOpf(o, std::make_unique<IndependentOpf>()).ok());
      EXPECT_TRUE(copy.SetVpf(o, TwoPointVpf(0.5)).ok());
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(StructureOf(source), structure);
  EXPECT_EQ(source.TotalOpfEntries(), rows);
}

// ------------------------------------------------------------- Validation

TEST(ValidationTest, Figure2InstanceIsValid) {
  ProbabilisticInstance inst = MakeBibliographicInstance();
  EXPECT_TRUE(ValidateProbabilisticInstance(inst).ok());
  EXPECT_TRUE(ValidateWeakInstance(inst.weak()).ok());
}

TEST(ValidationTest, FullyTypedInstanceIsValid) {
  EXPECT_TRUE(ValidateProbabilisticInstance(
                  testing::MakeFullyTypedBibliographicInstance())
                  .ok());
}

TEST(ValidationTest, DetectsOpfMassOffByOne) {
  ProbabilisticInstance inst = MakeBibliographicInstance();
  auto opf = std::make_unique<ExplicitOpf>();
  ObjectId b3 = *inst.dict().FindObject("B3");
  ObjectId a3 = *inst.dict().FindObject("A3");
  ObjectId t2 = *inst.dict().FindObject("T2");
  opf->Set(IdSet{a3, t2}, 0.9);  // should be 1.0
  ASSERT_TRUE(inst.SetOpf(b3, std::move(opf)).ok());
  EXPECT_FALSE(ValidateProbabilisticInstance(inst).ok());
}

TEST(ValidationTest, DetectsSupportOutsidePC) {
  ProbabilisticInstance inst = MakeBibliographicInstance();
  ObjectId b3 = *inst.dict().FindObject("B3");
  ObjectId a3 = *inst.dict().FindObject("A3");
  auto opf = std::make_unique<ExplicitOpf>();
  // Missing the mandatory title child (card [1,1]).
  opf->Set(IdSet{a3}, 1.0);
  ASSERT_TRUE(inst.SetOpf(b3, std::move(opf)).ok());
  Status s = ValidateProbabilisticInstance(inst);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(ValidationTest, DetectsMissingOpf) {
  ProbabilisticInstance inst;
  WeakInstance& weak = inst.weak();
  ObjectId r = weak.AddObject("r");
  ObjectId x = weak.AddObject("x");
  LabelId l = weak.dict().InternLabel("l");
  ASSERT_TRUE(weak.SetRoot(r).ok());
  ASSERT_TRUE(weak.AddPotentialChild(r, l, x).ok());
  EXPECT_FALSE(ValidateProbabilisticInstance(inst).ok());
  ValidationOptions lax;
  lax.require_complete_interpretation = false;
  EXPECT_TRUE(ValidateProbabilisticInstance(inst, lax).ok());
}

TEST(ValidationTest, DetectsOverlappingLchFamilies) {
  ProbabilisticInstance inst;
  WeakInstance& weak = inst.weak();
  ObjectId r = weak.AddObject("r");
  ObjectId x = weak.AddObject("x");
  LabelId a = weak.dict().InternLabel("a");
  LabelId b = weak.dict().InternLabel("b");
  ASSERT_TRUE(weak.SetRoot(r).ok());
  ASSERT_TRUE(weak.AddPotentialChild(r, a, x).ok());
  ASSERT_TRUE(weak.AddPotentialChild(r, b, x).ok());
  EXPECT_FALSE(ValidateWeakInstance(weak).ok());
}

TEST(ValidationTest, DetectsUnsatisfiableCard) {
  ProbabilisticInstance inst;
  WeakInstance& weak = inst.weak();
  ObjectId r = weak.AddObject("r");
  ObjectId x = weak.AddObject("x");
  LabelId l = weak.dict().InternLabel("l");
  ASSERT_TRUE(weak.SetRoot(r).ok());
  ASSERT_TRUE(weak.AddPotentialChild(r, l, x).ok());
  ASSERT_TRUE(weak.SetCard(r, l, IntInterval(5, 9)).ok());
  EXPECT_FALSE(ValidateWeakInstance(weak).ok());
}

TEST(ValidationTest, DetectsCycle) {
  ProbabilisticInstance inst;
  WeakInstance& weak = inst.weak();
  ObjectId a = weak.AddObject("a");
  ObjectId b = weak.AddObject("b");
  LabelId l = weak.dict().InternLabel("l");
  ASSERT_TRUE(weak.SetRoot(a).ok());
  ASSERT_TRUE(weak.AddPotentialChild(a, l, b).ok());
  ASSERT_TRUE(weak.AddPotentialChild(b, l, a).ok());
  EXPECT_FALSE(ValidateWeakInstance(weak).ok());
}

}  // namespace
}  // namespace pxml
