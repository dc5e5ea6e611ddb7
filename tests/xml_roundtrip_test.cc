// XML round-trip *property* tests: random instances -> SerializePxml ->
// ParsePxml -> structurally identical instance with bit-identical ℘.
// xml_test.cc checks round-trips through the possible-worlds distribution
// (semantic equality up to tolerance); this suite checks the stronger
// syntactic contract the writer/parser documents — %.17g probabilities
// reparse to the *same double bits*, compact OPFs come back in their
// native representation (not re-expanded tables), and ids round-trip
// because objects serialize in id order. Covers the per-label and
// interval (IPXML) representations the distribution-based tests skip.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "interval/interval_model.h"
#include "workload/generator.h"
#include "xml/interval_io.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace pxml {
namespace {

std::uint64_t Bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

void ExpectBitEqual(double a, double b, const std::string& what) {
  EXPECT_EQ(Bits(a), Bits(b)) << what << ": " << a << " vs " << b;
}

/// Resolves `a`-side label `l` into `b`'s dictionary by name. Label *ids*
/// deliberately do not round-trip: the format mentions labels only where
/// they are used, so labels interned but never attached to an edge vanish
/// and the survivors may renumber. Names are the identity.
LabelId MappedLabel(const WeakInstance& a, const WeakInstance& b, LabelId l) {
  std::optional<LabelId> bl = b.dict().FindLabel(a.dict().LabelName(l));
  EXPECT_TRUE(bl.has_value()) << "label '" << a.dict().LabelName(l)
                              << "' missing after round trip";
  return bl.value_or(static_cast<LabelId>(-1));
}

/// Structure: same objects (by id *and* name — objects serialize in id
/// order, so ids do round-trip), same labeled edges (labels matched by
/// name), same cardinalities, same leaf types/witnesses.
void ExpectSameStructure(const WeakInstance& a, const WeakInstance& b) {
  ASSERT_EQ(a.num_objects(), b.num_objects());
  EXPECT_EQ(a.root(), b.root());
  ASSERT_EQ(a.dict().num_types(), b.dict().num_types());
  for (TypeId t = 0; t < a.dict().num_types(); ++t) {
    EXPECT_EQ(a.dict().TypeName(t), b.dict().TypeName(t));
    EXPECT_EQ(a.dict().TypeDomain(t), b.dict().TypeDomain(t));
  }
  for (ObjectId o : a.Objects()) {
    ASSERT_TRUE(b.Present(o)) << "object " << o;
    EXPECT_EQ(a.dict().ObjectName(o), b.dict().ObjectName(o));
    const std::vector<LabelId> la = a.LabelsOf(o);
    ASSERT_EQ(la.size(), b.LabelsOf(o).size()) << "labels of " << o;
    for (LabelId l : la) {
      const LabelId bl = MappedLabel(a, b, l);
      EXPECT_EQ(a.Lch(o, l), b.Lch(o, bl))
          << "lch(" << o << ", " << a.dict().LabelName(l) << ")";
      EXPECT_EQ(a.Card(o, l).min(), b.Card(o, bl).min());
      EXPECT_EQ(a.Card(o, l).max(), b.Card(o, bl).max());
    }
    EXPECT_EQ(a.TypeOf(o), b.TypeOf(o)) << "type of " << o;
    EXPECT_EQ(a.ValueOf(o), b.ValueOf(o)) << "witness of " << o;
  }
}

/// ℘: same representation per object and bit-identical stored numbers,
/// compared through the representation-specific (non-materializing) API.
void ExpectSameInterpretation(const ProbabilisticInstance& a,
                              const ProbabilisticInstance& b) {
  for (ObjectId o : a.weak().Objects()) {
    const Opf* oa = a.GetOpf(o);
    const Opf* ob = b.GetOpf(o);
    ASSERT_EQ(oa == nullptr, ob == nullptr) << "opf presence at " << o;
    if (oa != nullptr) {
      ASSERT_EQ(oa->RepresentationName(), ob->RepresentationName())
          << "representation at " << o;
      if (const auto* ea = dynamic_cast<const ExplicitOpf*>(oa)) {
        const auto* eb = dynamic_cast<const ExplicitOpf*>(ob);
        ASSERT_EQ(ea->rows().size(), eb->rows().size());
        for (std::size_t r = 0; r < ea->rows().size(); ++r) {
          EXPECT_EQ(ea->rows()[r].child_set, eb->rows()[r].child_set);
          ExpectBitEqual(ea->rows()[r].prob, eb->rows()[r].prob,
                         "explicit row at object " + std::to_string(o));
        }
      } else if (const auto* ia = dynamic_cast<const IndependentOpf*>(oa)) {
        const auto* ib = dynamic_cast<const IndependentOpf*>(ob);
        ASSERT_EQ(ia->children().size(), ib->children().size());
        for (std::size_t r = 0; r < ia->children().size(); ++r) {
          EXPECT_EQ(ia->children()[r].first, ib->children()[r].first);
          ExpectBitEqual(ia->children()[r].second, ib->children()[r].second,
                         "independent child at object " + std::to_string(o));
        }
      } else if (const auto* pa =
                     dynamic_cast<const PerLabelProductOpf*>(oa)) {
        const auto* pb = dynamic_cast<const PerLabelProductOpf*>(ob);
        const auto fa = pa->factor_views();
        const auto fb = pb->factor_views();
        ASSERT_EQ(fa.size(), fb.size());
        for (std::size_t f = 0; f < fa.size(); ++f) {
          EXPECT_EQ(MappedLabel(a.weak(), b.weak(), fa[f].first), fb[f].first)
              << "factor label at " << o;
          ASSERT_EQ(fa[f].second->rows().size(), fb[f].second->rows().size());
          for (std::size_t r = 0; r < fa[f].second->rows().size(); ++r) {
            EXPECT_EQ(fa[f].second->rows()[r].child_set,
                      fb[f].second->rows()[r].child_set);
            ExpectBitEqual(fa[f].second->rows()[r].prob,
                           fb[f].second->rows()[r].prob,
                           "per-label row at object " + std::to_string(o));
          }
        }
      } else {
        ADD_FAILURE() << "unknown OPF representation at " << o;
      }
    }
    const Vpf* va = a.GetVpf(o);
    const Vpf* vb = b.GetVpf(o);
    ASSERT_EQ(va == nullptr, vb == nullptr) << "vpf presence at " << o;
    if (va != nullptr) {
      ASSERT_EQ(va->Entries().size(), vb->Entries().size());
      for (std::size_t r = 0; r < va->Entries().size(); ++r) {
        EXPECT_EQ(va->Entries()[r].value, vb->Entries()[r].value);
        ExpectBitEqual(va->Entries()[r].prob, vb->Entries()[r].prob,
                       "vpf row at object " + std::to_string(o));
      }
    }
  }
}

void ExpectRoundTrips(const ProbabilisticInstance& inst) {
  const std::string xml = SerializePxml(inst);
  auto parsed = ParsePxml(xml);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << xml;
  ExpectSameStructure(inst.weak(), parsed->weak());
  ExpectSameInterpretation(inst, *parsed);
  // One round trip canonicalizes label numbering (unused labels drop,
  // survivors renumber in document order); after that, serialization is
  // a fixed point — reparse and reserialize changes nothing.
  const std::string xml2 = SerializePxml(*parsed);
  auto reparsed = ParsePxml(xml2);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(SerializePxml(*reparsed), xml2);
}

// ---------------------------------------------------------------------------
// Random balanced trees across every OPF representation

TEST(XmlRoundTripPropertyTest, ExplicitTablesRoundTripBitExactly) {
  for (std::uint64_t seed : {1u, 17u, 5309u}) {
    GeneratorConfig config;
    config.depth = 3;
    config.branching = 3;
    config.opf_style = OpfStyle::kExplicitTable;
    config.labeling = LabelingScheme::kFullyRandom;
    config.labels_per_level = 3;
    config.seed = seed;
    config.with_leaf_values = true;
    config.leaf_domain_size = 3;
    auto generated = GenerateBalancedTree(config);
    ASSERT_TRUE(generated.ok()) << generated.status();
    ExpectRoundTrips(*generated);
  }
}

TEST(XmlRoundTripPropertyTest, IndependentOpfsRoundTripNatively) {
  for (std::uint64_t seed : {2u, 23u, 8086u}) {
    GeneratorConfig config;
    config.depth = 4;
    config.branching = 2;
    config.opf_style = OpfStyle::kIndependent;
    config.seed = seed;
    config.with_leaf_values = true;
    auto generated = GenerateBalancedTree(config);
    ASSERT_TRUE(generated.ok()) << generated.status();
    ExpectRoundTrips(*generated);
  }
}

TEST(XmlRoundTripPropertyTest, PerLabelProductsRoundTripNatively) {
  // The representation xml_test's distribution checks largely skip:
  // factors must come back as factors with the same label partition.
  for (std::uint64_t seed : {3u, 29u, 31337u}) {
    GeneratorConfig config;
    config.depth = 3;
    config.branching = 4;
    config.opf_style = OpfStyle::kPerLabelProduct;
    config.labels_per_level = 2;
    config.seed = seed;
    config.with_leaf_values = true;
    auto generated = GenerateBalancedTree(config);
    ASSERT_TRUE(generated.ok()) << generated.status();
    ExpectRoundTrips(*generated);
  }
}

TEST(XmlRoundTripPropertyTest, RandomDagsRoundTrip) {
  // DAG-shaped weak instances: shared children, cardinality intervals.
  for (std::uint64_t seed : {4u, 37u, 424242u}) {
    DagConfig config;
    config.num_objects = 12;
    config.num_labels = 3;
    config.edge_density = 0.4;
    config.seed = seed;
    config.with_leaf_values = true;
    auto generated = GenerateRandomDag(config);
    ASSERT_TRUE(generated.ok()) << generated.status();
    ExpectRoundTrips(*generated);
  }
}

// ---------------------------------------------------------------------------
// Interval (IPXML) round-trips

void ExpectIntervalRoundTrips(const IntervalInstance& inst) {
  const std::string xml = SerializeIntervalPxml(inst);
  auto parsed = ParseIntervalPxml(xml);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << xml;
  ExpectSameStructure(inst.weak(), parsed->weak());
  for (ObjectId o : inst.weak().Objects()) {
    const IntervalOpf* oa = inst.GetOpf(o);
    const IntervalOpf* ob = parsed->GetOpf(o);
    ASSERT_EQ(oa == nullptr, ob == nullptr) << "iopf presence at " << o;
    if (oa != nullptr) {
      ASSERT_EQ(oa->Entries().size(), ob->Entries().size());
      for (std::size_t r = 0; r < oa->Entries().size(); ++r) {
        EXPECT_EQ(oa->Entries()[r].child_set, ob->Entries()[r].child_set);
        ExpectBitEqual(oa->Entries()[r].prob.lo(), ob->Entries()[r].prob.lo(),
                       "iopf lo at object " + std::to_string(o));
        ExpectBitEqual(oa->Entries()[r].prob.hi(), ob->Entries()[r].prob.hi(),
                       "iopf hi at object " + std::to_string(o));
      }
    }
    const IntervalVpf* va = inst.GetVpf(o);
    const IntervalVpf* vb = parsed->GetVpf(o);
    ASSERT_EQ(va == nullptr, vb == nullptr) << "ivpf presence at " << o;
    if (va != nullptr) {
      ASSERT_EQ(va->Entries().size(), vb->Entries().size());
      for (std::size_t r = 0; r < va->Entries().size(); ++r) {
        EXPECT_EQ(va->Entries()[r].value, vb->Entries()[r].value);
        ExpectBitEqual(va->Entries()[r].prob.lo(), vb->Entries()[r].prob.lo(),
                       "ivpf lo at object " + std::to_string(o));
        ExpectBitEqual(va->Entries()[r].prob.hi(), vb->Entries()[r].prob.hi(),
                       "ivpf hi at object " + std::to_string(o));
      }
    }
  }
  const std::string xml2 = SerializeIntervalPxml(*parsed);
  auto reparsed = ParseIntervalPxml(xml2);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(SerializeIntervalPxml(*reparsed), xml2);
}

TEST(XmlRoundTripPropertyTest, WidenedIntervalInstancesRoundTrip) {
  for (std::uint64_t seed : {5u, 41u, 90210u}) {
    GeneratorConfig config;
    config.depth = 3;
    config.branching = 2;
    config.seed = seed;
    config.with_leaf_values = true;
    auto point = GenerateBalancedTree(config);
    ASSERT_TRUE(point.ok()) << point.status();
    auto widened = IntervalInstance::Widen(*point, 0.05);
    ASSERT_TRUE(widened.ok()) << widened.status();
    ExpectIntervalRoundTrips(*widened);
  }
}

TEST(XmlRoundTripPropertyTest, IntervalDoubleValuesRoundTrip) {
  // Both formats print typed values through one routine at full
  // precision, so two doubles that agree to six digits stay two distinct
  // domain values (and the same bits) after an IPXML round trip.
  IntervalInstance inst;
  WeakInstance& weak = inst.weak();
  const ObjectId r = weak.AddObject("r");
  const ObjectId c = weak.AddObject("c");
  ASSERT_TRUE(weak.SetRoot(r).ok());
  ASSERT_TRUE(weak.AddPotentialChild(r, weak.dict().InternLabel("l"), c).ok());
  auto type =
      weak.dict().DefineType("t", {Value(0.1234567), Value(0.1234568)});
  ASSERT_TRUE(type.ok()) << type.status();
  ASSERT_TRUE(weak.SetLeafType(c, *type).ok());
  IntervalOpf opf;
  opf.Set(IdSet{c}, *IntervalProb::Make(0.25, 0.75));
  opf.Set(IdSet(), *IntervalProb::Make(0.25, 0.75));
  ASSERT_TRUE(inst.SetOpf(r, std::move(opf)).ok());
  IntervalVpf vpf;
  vpf.Set(Value(0.1234567), *IntervalProb::Make(0.5, 0.5));
  vpf.Set(Value(0.1234568), *IntervalProb::Make(0.5, 0.5));
  ASSERT_TRUE(inst.SetVpf(c, std::move(vpf)).ok());
  ExpectIntervalRoundTrips(inst);
}

TEST(XmlRoundTripPropertyTest, DegenerateIntervalInstancesRoundTrip) {
  GeneratorConfig config;
  config.depth = 2;
  config.branching = 3;
  config.opf_style = OpfStyle::kExplicitTable;
  config.seed = 6;
  config.with_leaf_values = true;
  auto point = GenerateBalancedTree(config);
  ASSERT_TRUE(point.ok()) << point.status();
  auto degenerate = IntervalInstance::FromPoint(*point);
  ASSERT_TRUE(degenerate.ok()) << degenerate.status();
  ExpectIntervalRoundTrips(*degenerate);
}

}  // namespace
}  // namespace pxml
