#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#ifdef __linux__
#include <unistd.h>
#endif

#include "core/semantics.h"
#include "core/validation.h"
#include "fixtures.h"
#include "interval/interval_model.h"
#include "protdb/conversion.h"
#include "protdb/protdb.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/paper_instances.h"
#include "world_testing.h"
#include "xml/interval_io.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace pxml {
namespace {

using testing::MakeChainInstance;
using testing::MakeFullyTypedBibliographicInstance;
using testing::MakeSmallTreeInstance;
using testing::MakeTreeBibliographicInstance;

void ExpectRoundTrip(const ProbabilisticInstance& inst) {
  std::string text = SerializePxml(inst);
  auto parsed = ParsePxml(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << text;
  EXPECT_EQ(parsed->weak().num_objects(), inst.weak().num_objects());
  EXPECT_EQ(parsed->dict().ObjectName(parsed->weak().root()),
            inst.dict().ObjectName(inst.weak().root()));
  // The parsed instance defines the same distribution.
  auto expected = EnumerateWorlds(inst);
  ASSERT_TRUE(expected.ok());
  auto actual = EnumerateWorlds(*parsed);
  ASSERT_TRUE(actual.ok());
  // Fingerprints use ids; ids round-trip because objects serialize in id
  // order and re-intern in document order.
  testing::ExpectSameDistribution(*actual, *expected);
}

/// 64-bit FNV-1a over the serialized bytes.
std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

ProbabilisticInstance GenerateTree(OpfStyle style, std::uint64_t seed) {
  GeneratorConfig config;
  config.depth = 3;
  config.branching = 3;
  config.opf_style = style;
  config.labeling = LabelingScheme::kFullyRandom;
  config.labels_per_level = 2;
  config.seed = seed;
  config.with_leaf_values = true;
  config.leaf_domain_size = 3;
  auto generated = GenerateBalancedTree(config);
  EXPECT_TRUE(generated.ok()) << generated.status();
  return std::move(generated).ValueOrDie();
}

/// A per-label tree whose objects cycle through all three OPF
/// representations: per-label kept, independent marginals, and the
/// materialized explicit table.
ProbabilisticInstance MixedRepresentationTree() {
  ProbabilisticInstance inst = GenerateTree(OpfStyle::kPerLabelProduct, 9);
  for (ObjectId o : inst.weak().Objects()) {
    const Opf* opf = inst.GetOpf(o);
    if (opf == nullptr || o % 3 == 0) continue;
    std::unique_ptr<Opf> replacement;
    if (o % 3 == 1) {
      auto independent = std::make_unique<IndependentOpf>();
      for (ObjectId c : opf->ChildUniverse()) {
        EXPECT_TRUE(independent->AddChild(c, opf->MarginalChildProb(c)).ok());
      }
      replacement = std::move(independent);
    } else {
      replacement = std::make_unique<ExplicitOpf>(
          ExplicitOpf::FromEntries(opf->Entries()));
    }
    EXPECT_TRUE(inst.SetOpf(o, std::move(replacement)).ok());
  }
  return inst;
}

TEST(XmlTest, SerializedBytesMatchGoldenDigests) {
  // The written bytes are part of the format's contract: these digests
  // were taken from the writer before its streaming rewrite and must not
  // move.
  EXPECT_EQ(Fnv1a(SerializePxml(GenerateTree(OpfStyle::kExplicitTable, 3))),
            0xa4c025e0755d23c6ull);
  EXPECT_EQ(Fnv1a(SerializePxml(GenerateTree(OpfStyle::kIndependent, 5))),
            0x8cb89e8d008e7b22ull);
  EXPECT_EQ(
      Fnv1a(SerializePxml(GenerateTree(OpfStyle::kPerLabelProduct, 7))),
      0x54ff056994dae89aull);
  EXPECT_EQ(Fnv1a(SerializePxml(MixedRepresentationTree())),
            0xf858e87f58ff6d19ull);
  auto figure2 = MakeFigure2Instance();
  ASSERT_TRUE(figure2.ok()) << figure2.status();
  EXPECT_EQ(Fnv1a(SerializePxml(*figure2)), 0x99f86aa5b99984b4ull);
  auto shipped = ReadPxmlFile(PXML_DATA_DIR "/figure2.pxml");
  ASSERT_TRUE(shipped.ok()) << shipped.status();
  EXPECT_EQ(Fnv1a(SerializePxml(*shipped)), 0xd194b167ad2b31a7ull);
  auto widened =
      IntervalInstance::Widen(GenerateTree(OpfStyle::kExplicitTable, 11), 0.05);
  ASSERT_TRUE(widened.ok()) << widened.status();
  EXPECT_EQ(Fnv1a(SerializeIntervalPxml(*widened)), 0x3f5d4717c5e627e6ull);
}

/// Names in id order: the objects, labels and types of `dict`.
std::vector<std::string> ObjectNames(const Dictionary& dict) {
  std::vector<std::string> out;
  for (ObjectId o = 0; o < dict.num_objects(); ++o) {
    out.push_back(dict.ObjectName(o));
  }
  return out;
}
std::vector<std::string> LabelNames(const Dictionary& dict) {
  std::vector<std::string> out;
  for (LabelId l = 0; l < dict.num_labels(); ++l) {
    out.push_back(dict.LabelName(l));
  }
  return out;
}
std::vector<std::string> TypeNames(const Dictionary& dict) {
  std::vector<std::string> out;
  for (TypeId t = 0; t < dict.num_types(); ++t) {
    out.push_back(dict.TypeName(t));
  }
  return out;
}

TEST(XmlTest, ObjectIdsFollowDocumentOrder) {
  // Objects number in <object> document order, even when an lch names
  // an object that comes later; types number in <type> order wherever
  // <types> stands; labels number in <lch> document order.
  auto forward = ParsePxml(
      "<pxml root=\"r\">\n"
      " <object id=\"r\"><lch label=\"b\">y x</lch>"
      "<opf><row p=\"0.25\">x</row><row p=\"0.75\">y x</row></opf></object>\n"
      " <object id=\"y\" type=\"t\"><vpf><val k=\"s\" p=\"1\">v</val></vpf>"
      "</object>\n"
      " <object id=\"x\"><lch label=\"a\">z</lch>"
      "<opf rep=\"independent\"><child p=\"0.5\">z</child></opf></object>\n"
      " <object id=\"z\" type=\"u\"><witness k=\"i\">2</witness></object>\n"
      " <types><type name=\"u\"><val k=\"i\">1</val><val k=\"i\">2</val>"
      "</type><type name=\"t\"><val k=\"s\">v</val></type></types>\n"
      "</pxml>\n");
  ASSERT_TRUE(forward.ok()) << forward.status();
  const ProbabilisticInstance& inst = *forward;
  const Dictionary& dict = inst.dict();
  EXPECT_EQ(ObjectNames(dict), (std::vector<std::string>{"r", "y", "x", "z"}));
  EXPECT_EQ(LabelNames(dict), (std::vector<std::string>{"b", "a"}));
  EXPECT_EQ(TypeNames(dict), (std::vector<std::string>{"u", "t"}));
  EXPECT_EQ(inst.weak().root(), 0u);
  EXPECT_EQ(inst.weak().Lch(0, 0), (IdSet{1, 2}));
  EXPECT_EQ(inst.weak().Lch(2, 1), (IdSet{3}));
  EXPECT_EQ(inst.weak().TypeOf(1), std::optional<TypeId>(1));
  EXPECT_EQ(inst.weak().ValueOf(3),
            std::optional<Value>(Value(std::int64_t{2})));
  const auto* rows = dynamic_cast<const ExplicitOpf*>(inst.GetOpf(0));
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->rows().size(), 2u);
  EXPECT_EQ(rows->rows()[0].child_set, (IdSet{1, 2}));
  EXPECT_EQ(rows->rows()[1].child_set, (IdSet{2}));

  // The same rule on a generated DAG: objects keep their ids, labels
  // number by first use over objects in id order, types by id.
  for (std::uint64_t seed : {8u, 51u}) {
    DagConfig config;
    config.num_objects = 40;
    config.num_labels = 4;
    config.edge_density = 0.3;
    config.seed = seed;
    config.with_leaf_values = true;
    auto dag = GenerateRandomDag(config);
    ASSERT_TRUE(dag.ok()) << dag.status();
    auto parsed = ParsePxml(SerializePxml(*dag));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(ObjectNames(parsed->dict()), ObjectNames(dag->dict()));
    std::vector<std::string> labels;
    for (ObjectId o : dag->weak().Objects()) {
      for (LabelId l : dag->weak().LabelsOf(o)) {
        const std::string& name = dag->dict().LabelName(l);
        if (std::find(labels.begin(), labels.end(), name) == labels.end()) {
          labels.push_back(name);
        }
      }
    }
    EXPECT_EQ(LabelNames(parsed->dict()), labels);
    EXPECT_EQ(TypeNames(parsed->dict()), TypeNames(dag->dict()));
  }
}

TEST(XmlTest, RoundTripsFixtures) {
  ExpectRoundTrip(MakeChainInstance());
  ExpectRoundTrip(MakeSmallTreeInstance());
  ExpectRoundTrip(MakeTreeBibliographicInstance());
  ExpectRoundTrip(MakeFullyTypedBibliographicInstance());
}

TEST(XmlTest, RoundTripsCompactRepresentations) {
  ProtdbDocument doc;
  auto root = doc.CreateRoot("r");
  ASSERT_TRUE(root.ok());
  auto a = doc.AddChild(*root, "x", "a", 0.5);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(doc.AddChild(*root, "y", "b", 0.25).ok());
  ASSERT_TRUE(doc.AddChild(*a, "z", "c", 0.75).ok());
  for (OpfRepresentation rep :
       {OpfRepresentation::kIndependent, OpfRepresentation::kPerLabel}) {
    auto inst = FromProtdb(doc, rep);
    ASSERT_TRUE(inst.ok());
    std::string text = SerializePxml(*inst);
    auto parsed = ParsePxml(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << text;
    // Representation is preserved, not flattened to a table.
    EXPECT_EQ(parsed->GetOpf(parsed->weak().root())->RepresentationName(),
              inst->GetOpf(inst->weak().root())->RepresentationName());
    auto expected = EnumerateWorlds(*inst);
    ASSERT_TRUE(expected.ok());
    testing::ExpectInstanceMatchesWorlds(*parsed, *expected);
  }
}

TEST(XmlTest, ParsedInstanceValidates) {
  auto parsed = ParsePxml(SerializePxml(MakeTreeBibliographicInstance()));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(ValidateProbabilisticInstance(*parsed).ok());
}

TEST(XmlTest, EscapingRoundTrips) {
  ProbabilisticInstance inst;
  WeakInstance& weak = inst.mutable_weak();
  ObjectId r = weak.AddObject("r<&>\"x");
  ObjectId c = weak.AddObject("child&co");
  LabelId l = weak.dict().InternLabel("has<it>");
  ASSERT_TRUE(weak.SetRoot(r).ok());
  ASSERT_TRUE(weak.AddPotentialChild(r, l, c).ok());
  auto opf = std::make_unique<ExplicitOpf>();
  opf->Set(IdSet{c}, 1.0);
  ASSERT_TRUE(inst.SetOpf(r, std::move(opf)).ok());
  auto type = weak.dict().DefineType("t&t", {Value("a<b"), Value("c>d")});
  ASSERT_TRUE(type.ok());
  ASSERT_TRUE(weak.SetLeafValue(c, *type, Value("a<b")).ok());
  Vpf vpf;
  vpf.Set(Value("a<b"), 0.5);
  vpf.Set(Value("c>d"), 0.5);
  ASSERT_TRUE(inst.SetVpf(c, std::move(vpf)).ok());

  auto parsed = ParsePxml(SerializePxml(inst));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->dict().FindObject("r<&>\"x").has_value());
  EXPECT_EQ(*parsed->weak().ValueOf(*parsed->dict().FindObject("child&co")),
            Value("a<b"));
}

TEST(XmlTest, ProbabilitiesRoundTripExactly) {
  ProbabilisticInstance inst = MakeChainInstance();
  // Use an awkward probability.
  ObjectId x = *inst.dict().FindObject("x");
  ObjectId y = *inst.dict().FindObject("y");
  auto opf = std::make_unique<ExplicitOpf>();
  opf->Set(IdSet{y}, 1.0 / 3.0);
  opf->Set(IdSet(), 2.0 / 3.0);
  ASSERT_TRUE(inst.SetOpf(x, std::move(opf)).ok());
  auto parsed = ParsePxml(SerializePxml(inst));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetOpf(*parsed->dict().FindObject("x"))
                ->Prob(IdSet{*parsed->dict().FindObject("y")}),
            1.0 / 3.0);
}

TEST(XmlTest, FileRoundTrip) {
  ProbabilisticInstance inst = MakeSmallTreeInstance();
  std::string path = ::testing::TempDir() + "/pxml_roundtrip.pxml";
  ASSERT_TRUE(WritePxmlFile(inst, path).ok());
  auto parsed = ReadPxmlFile(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->weak().num_objects(), inst.weak().num_objects());
  EXPECT_FALSE(ReadPxmlFile("/nonexistent/path.pxml").ok());
}

TEST(XmlTest, ReadingADirectoryIsAnError) {
  // A directory opens for reading but has no bytes. A seek to its end
  // can report any size (ext4 reports its hash tree's end), so that must
  // not size the read buffer.
  EXPECT_FALSE(ReadPxmlFile(PXML_DATA_DIR).ok());
  EXPECT_FALSE(ReadIntervalPxmlFile(PXML_DATA_DIR).ok());
}

#ifdef __linux__
/// `read` on a /proc/self/fd path that names a pipe holding `text`, whose
/// write end is closed. `text` must fit the pipe's buffer.
template <class Read>
auto ReadThroughPipe(const std::string& text, Read read) {
  int fds[2] = {-1, -1};
  EXPECT_EQ(pipe(fds), 0);
  EXPECT_EQ(write(fds[1], text.data(), text.size()),
            static_cast<ssize_t>(text.size()));
  close(fds[1]);
  auto result = read("/proc/self/fd/" + std::to_string(fds[0]));
  close(fds[0]);
  return result;
}

TEST(XmlTest, FileReadersTakeAPipe) {
  // A pipe has no size to read up front (ReadPxmlFile("/dev/stdin"), or a
  // shell's <(zcat f.pxml.gz)); both readers must still read it whole.
  auto figure2 = MakeFigure2Instance();
  ASSERT_TRUE(figure2.ok()) << figure2.status();
  const std::string pxml = SerializePxml(*figure2);
  auto widened = IntervalInstance::Widen(MakeSmallTreeInstance(), 0.05);
  ASSERT_TRUE(widened.ok()) << widened.status();
  const std::string ipxml = SerializeIntervalPxml(*widened);
  ASSERT_LE(pxml.size(), 4096u);  // PIPE_BUF: a pipe holds at least this
  ASSERT_LE(ipxml.size(), 4096u);
  auto parsed = ReadThroughPipe(
      pxml, [](const std::string& path) { return ReadPxmlFile(path); });
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(SerializePxml(*parsed), pxml);
  auto parsed_interval = ReadThroughPipe(ipxml, [](const std::string& path) {
    return ReadIntervalPxmlFile(path);
  });
  ASSERT_TRUE(parsed_interval.ok()) << parsed_interval.status();
  EXPECT_EQ(SerializeIntervalPxml(*parsed_interval), ipxml);
}
#endif  // __linux__

TEST(XmlTest, ParseErrorsAreDiagnosed) {
  EXPECT_EQ(ParsePxml("").status().code(), StatusCode::kParseError);
  EXPECT_EQ(ParsePxml("<pxml root=\"r\">").status().code(),
            StatusCode::kParseError);  // unterminated
  EXPECT_EQ(ParsePxml("<wrong></wrong>").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParsePxml("<pxml></pxml>").status().code(),
            StatusCode::kParseError);  // no root attribute
  EXPECT_EQ(
      ParsePxml("<pxml root=\"r\"><object id=\"r\"><lch>x</lch></object>"
                "</pxml>")
          .status()
          .code(),
      StatusCode::kParseError);  // lch without label
  EXPECT_EQ(
      ParsePxml("<pxml root=\"q\"><object id=\"r\"/></pxml>").status().code(),
      StatusCode::kParseError);  // root not an object
  // A row probability must be a finite number in [0, 1] (up to kProbEps).
  auto with_row_prob = [](const std::string& p) {
    return "<pxml root=\"r\"><object id=\"r\">"
           "<lch label=\"a\" min=\"0\" max=\"1\">c</lch>"
           "<opf rep=\"explicit\"><row p=\"0.5\"></row>"
           "<row p=\"" + p + "\">c</row></opf></object>"
           "<object id=\"c\"/></pxml>";
  };
  ASSERT_TRUE(ParsePxml(with_row_prob("0.5")).ok())
      << ParsePxml(with_row_prob("0.5")).status();
  for (const char* bad : {"nan", "inf", "-0.5", "1e300"}) {
    EXPECT_EQ(ParsePxml(with_row_prob(bad)).status().code(),
              StatusCode::kParseError)
        << "p=" << bad;
  }
  // What the reader cannot take whole is an error that names its element:
  // numbers with trailing text, cardinalities that are not unsigned
  // decimals below 2^32, integers outside int64, booleans other than
  // true/false, and elements inside an element that holds text.
  auto expect_error_naming = [](const std::string& text,
                                const std::string& element) {
    Status s = ParsePxml(text).status();
    EXPECT_EQ(s.code(), StatusCode::kParseError) << text;
    EXPECT_NE(s.message().find("<" + element + ">"), std::string::npos)
        << s << "\n" << text;
  };
  for (const char* bad : {"0.5abc", "0.5 0.3", " 0.5", "+0.5"}) {
    expect_error_naming(with_row_prob(bad), "row");
  }
  auto with_card = [](const std::string& attrs) {
    return "<pxml root=\"r\"><object id=\"r\"><lch label=\"a\" " + attrs +
           ">c</lch></object><object id=\"c\"/></pxml>";
  };
  ASSERT_TRUE(ParsePxml(with_card("min=\"1\" max=\"2\"")).ok());
  for (const char* bad :
       {"min=\"abc\"", "min=\"1x\" max=\"2junk\"", "min=\"1\" max=\"2junk\"",
        "min=\"-1\"", "max=\"99999999999\"", "max=\"4294967296\""}) {
    expect_error_naming(with_card(bad), "lch");
  }
  auto with_witness = [](const std::string& kind, const std::string& text) {
    return "<pxml root=\"r\"><types><type name=\"t\"><val k=\"" + kind +
           "\">" + text + "</val></type></types><object id=\"r\" type=\"t\">"
           "<witness k=\"" + kind + "\">" + text + "</witness></object></pxml>";
  };
  ASSERT_TRUE(ParsePxml(with_witness("i", "-12")).ok());
  ASSERT_TRUE(ParsePxml(with_witness("d", "0.5")).ok());
  ASSERT_TRUE(ParsePxml(with_witness("b", "false")).ok());
  for (const auto& [kind, bad] :
       std::vector<std::pair<std::string, std::string>>{
           {"i", "12abc"},
           {"i", "99999999999999999999"},
           {"i", "+12"},
           {"d", "0.5xyz"},
           {"b", "yes"},
           {"b", "1"}}) {
    expect_error_naming(with_witness(kind, bad), "val");
  }
  const std::string lch_with = "<pxml root=\"r\"><object id=\"r\">"
                               "<lch label=\"a\">A<x/>B</lch></object>"
                               "<object id=\"A\"/><object id=\"B\"/>"
                               "<object id=\"AB\"/></pxml>";
  expect_error_naming(lch_with, "lch");
  std::string lch_nested = lch_with;
  lch_nested.replace(lch_nested.find("A<x/>B"), 6, "A<x>B</x>");
  expect_error_naming(lch_nested, "lch");
  std::string row_nested = with_row_prob("0.5");
  row_nested.replace(row_nested.find(">c</row>"), 8, ">c<x/></row>");
  expect_error_naming(row_nested, "row");
  expect_error_naming(
      "<pxml root=\"r\"><object id=\"r\"><lch label=\"a\">c</lch>"
      "<opf rep=\"independent\"><child p=\"1\">c<x/></child></opf></object>"
      "<object id=\"c\"/></pxml>",
      "child");
  std::string val_nested = with_witness("s", "v");
  val_nested.replace(val_nested.find(">v</val>"), 8, ">v<x/></val>");
  expect_error_naming(val_nested, "val");
  std::string witness_nested = with_witness("s", "v");
  witness_nested.replace(witness_nested.find(">v</witness>"), 12,
                         "><x>v</x></witness>");
  expect_error_naming(witness_nested, "witness");
}

TEST(XmlTest, DeeplyNestedInputIsAParseError) {
  // Nesting far past anything PXML or IPXML uses must come back as a
  // ParseError from both readers, not exhaust the stack.
  constexpr std::size_t kDepth = 1000000;
  std::string text;
  text.reserve(kDepth * 7);
  for (std::size_t i = 0; i < kDepth; ++i) text += "<a>";
  for (std::size_t i = 0; i < kDepth; ++i) text += "</a>";
  EXPECT_EQ(ParsePxml(text).status().code(), StatusCode::kParseError);
  EXPECT_EQ(ParseIntervalPxml(text).status().code(), StatusCode::kParseError);
}

TEST(XmlTest, DepthCapStopsNestingInsideAnObject) {
  // Inside a valid document element and object, so that both readers'
  // first pass skips into the nesting: the depth cap must stop it there,
  // where Skip would otherwise recurse once per level.
  constexpr std::size_t kDepth = 1000000;
  std::string nested;
  nested.reserve(kDepth * 7);
  for (std::size_t i = 0; i < kDepth; ++i) nested += "<a>";
  for (std::size_t i = 0; i < kDepth; ++i) nested += "</a>";
  for (const std::string tag : {"pxml", "ipxml"}) {
    const std::string text = "<" + tag + " root=\"r\"><object id=\"r\">" +
                             nested + "</object></" + tag + ">";
    const Status s = tag == "pxml" ? ParsePxml(text).status()
                                   : ParseIntervalPxml(text).status();
    EXPECT_EQ(s.code(), StatusCode::kParseError) << tag;
    EXPECT_NE(s.message().find("nested deeper than 64 levels"),
              std::string::npos)
        << s;
  }
}

TEST(XmlTest, TruncatedDocumentsNeverCrash) {
  // Fuzz-lite: every prefix of a valid document must parse to an error
  // or a valid instance, never crash or hang.
  std::string text = SerializePxml(MakeTreeBibliographicInstance());
  for (std::size_t len = 0; len < text.size();
       len += std::max<std::size_t>(1, text.size() / 97)) {
    auto result = ParsePxml(text.substr(0, len));
    if (result.ok()) {
      // Prefixes that happen to parse must still be structurally sane.
      EXPECT_TRUE(result->weak().HasRoot());
    }
  }
}

TEST(XmlTest, MutatedDocumentsNeverCrash) {
  std::string text = SerializePxml(testing::MakeChainInstance());
  for (std::size_t i = 0; i < text.size(); i += 7) {
    std::string mutated = text;
    mutated[i] = '?';
    ParsePxml(mutated).ok();  // must terminate without crashing
    mutated[i] = '<';
    ParsePxml(mutated).ok();
    mutated[i] = '"';
    ParsePxml(mutated).ok();
  }
  SUCCEED();
}

/// A document whose root names `n` children in one <lch>; with
/// `shared_child`, each of them also names one child that all share.
std::string WideDocument(int n, bool shared_child) {
  std::string doc = "<pxml root=\"R\">\n<object id=\"R\"><lch label=\"a\">";
  for (int i = 0; i < n; ++i) {
    if (i > 0) doc += ' ';
    doc += "c" + std::to_string(i);
  }
  doc += "</lch></object>\n";
  for (int i = 0; i < n; ++i) {
    doc += "<object id=\"c" + std::to_string(i) + "\">";
    if (shared_child) doc += "<lch label=\"b\">s</lch>";
    doc += "</object>\n";
  }
  if (shared_child) doc += "<object id=\"s\"/>\n";
  return doc + "</pxml>\n";
}

TEST(XmlTest, WideLchAndSharedChildParseInLinearTime) {
  // One <lch> naming n children, and n objects sharing one child, both
  // used to cost O(n^2) to read: 4x the objects took 10-13x as long.
  const auto best_of_three = [](const std::string& doc) {
    double best = 0.0;
    for (int run = 0; run < 3; ++run) {
      const auto t0 = std::chrono::steady_clock::now();
      auto parsed = ParsePxml(doc);
      const double s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
      EXPECT_TRUE(parsed.ok()) << parsed.status();
      best = run == 0 ? s : std::min(best, s);
    }
    return best;
  };
  for (const bool shared_child : {false, true}) {
    const double small = best_of_three(WideDocument(20000, shared_child));
    const double large = best_of_three(WideDocument(80000, shared_child));
    EXPECT_LT(large, 8.0 * small)
        << (shared_child ? "shared child" : "wide lch") << ": "
        << small * 1e3 << " ms for 20,000 objects, " << large * 1e3
        << " ms for 80,000";
  }
  auto shared = ParsePxml(WideDocument(3, true));
  ASSERT_TRUE(shared.ok()) << shared.status();
  const ObjectId s = *shared->dict().FindObject("s");
  EXPECT_EQ(shared->weak().PotentialParents(s).size(), 3u);
}

TEST(XmlTest, SeededMutationsNeverCrash) {
  // Hostile inputs for both readers: seeded byte-span inserts, deletes and
  // duplications, replacements of one byte with markup or a digit, and
  // truncations of generated documents. Each must come back as a Status,
  // ok or not, never as a crash, a hang or a sanitizer report.
  GeneratorConfig config;
  config.depth = 2;
  config.branching = 2;
  config.labeling = LabelingScheme::kFullyRandom;
  config.seed = 21;
  config.with_leaf_values = true;
  auto point = GenerateBalancedTree(config);
  ASSERT_TRUE(point.ok()) << point.status();
  auto interval = IntervalInstance::Widen(*point, 0.05);
  ASSERT_TRUE(interval.ok()) << interval.status();
  const std::string pxml = SerializePxml(*point);
  const std::string ipxml = SerializeIntervalPxml(*interval);
  Rng rng(0x5eed);
  const auto mutate = [&rng](std::string text) {
    const std::size_t at = rng.NextBounded(text.size() + 1);
    const std::size_t span = 1 + rng.NextBounded(16);
    switch (rng.NextBounded(5)) {
      case 0:  // insert random bytes
        for (std::size_t i = 0; i < span; ++i) {
          text.insert(text.begin() + at,
                      static_cast<char>(rng.NextBounded(256)));
        }
        break;
      case 1:  // delete a span
        text.erase(at, span);
        break;
      case 2:  // duplicate a span
        text.insert(at, text.substr(at, span));
        break;
      case 3:  // replace one byte with markup or a digit
        if (at < text.size()) {
          text[at] = "<>\"&/=0123456789"[rng.NextBounded(16)];
        }
        break;
      default:  // truncate
        text.resize(at);
    }
    return text;
  };
  constexpr int kMutationsPerReader = 10000;
  int rejected = 0;
  for (int i = 0; i < kMutationsPerReader; ++i) {
    auto parsed = ParsePxml(mutate(pxml));
    if (parsed.ok()) {
      EXPECT_TRUE(parsed->weak().HasRoot());
    } else {
      ++rejected;
    }
    auto parsed_interval = ParseIntervalPxml(mutate(ipxml));
    if (parsed_interval.ok()) {
      EXPECT_TRUE(parsed_interval->weak().HasRoot());
    } else {
      ++rejected;
    }
  }
  // Most mutations break the document; the ones that survive changed a
  // digit or whitespace.
  EXPECT_GT(rejected, kMutationsPerReader);
}

TEST(XmlTest, MismatchedTagsRejected) {
  Status s = ParsePxml("<pxml root=\"r\"><object id=\"r\"></pxml></pxml>")
                 .status();
  EXPECT_EQ(s.code(), StatusCode::kParseError);
}

TEST(XmlTest, UnknownOpfRepresentationRejected) {
  Status s = ParsePxml(
                 "<pxml root=\"r\"><object id=\"r\">"
                 "<opf rep=\"quantum\"></opf></object></pxml>")
                 .status();
  EXPECT_EQ(s.code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace pxml
