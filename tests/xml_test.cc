#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/semantics.h"
#include "core/validation.h"
#include "fixtures.h"
#include "protdb/conversion.h"
#include "protdb/protdb.h"
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
  WeakInstance& weak = inst.weak();
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
