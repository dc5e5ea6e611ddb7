// Quickstart: build the paper's Figure-2 probabilistic instance, check it,
// enumerate its possible worlds, and reproduce Example 4.1's probability.
//
// Run:  ./quickstart
#include <cstdio>
#include <memory>

#include "core/probabilistic_instance.h"
#include "core/semantics.h"
#include "core/validation.h"
#include "query/point_queries.h"
#include "xml/writer.h"

namespace {

using namespace pxml;  // NOLINT — example brevity

/// Dies with a message on error — examples keep error plumbing minimal.
void Check(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T Unwrap(Result<T> result) {
  Check(result.status());
  return std::move(result).ValueOrDie();
}

/// The probabilistic instance of Figure 2 (T1's VPF reconstructed so that
/// Example 4.1 yields P(S1) = 0.00448).
ProbabilisticInstance BuildFigure2() {
  ProbabilisticInstance inst;
  WeakInstance& weak = inst.mutable_weak();
  Dictionary& dict = weak.dict();

  // Objects and labels.
  ObjectId r = weak.AddObject("R");
  ObjectId b1 = weak.AddObject("B1");
  ObjectId b2 = weak.AddObject("B2");
  ObjectId b3 = weak.AddObject("B3");
  ObjectId t1 = weak.AddObject("T1");
  ObjectId t2 = weak.AddObject("T2");
  ObjectId a1 = weak.AddObject("A1");
  ObjectId a2 = weak.AddObject("A2");
  ObjectId a3 = weak.AddObject("A3");
  ObjectId i1 = weak.AddObject("I1");
  ObjectId i2 = weak.AddObject("I2");
  Check(weak.SetRoot(r));
  LabelId book = dict.InternLabel("book");
  LabelId title = dict.InternLabel("title");
  LabelId author = dict.InternLabel("author");
  LabelId institution = dict.InternLabel("institution");

  // lch — who *may* be whose child (Def 3.4).
  Check(weak.AddPotentialChild(r, book, b1));
  Check(weak.AddPotentialChild(r, book, b2));
  Check(weak.AddPotentialChild(r, book, b3));
  Check(weak.AddPotentialChild(b1, title, t1));
  Check(weak.AddPotentialChild(b1, author, a1));
  Check(weak.AddPotentialChild(b1, author, a2));
  Check(weak.AddPotentialChild(b2, author, a1));
  Check(weak.AddPotentialChild(b2, author, a2));
  Check(weak.AddPotentialChild(b2, author, a3));
  Check(weak.AddPotentialChild(b3, title, t2));
  Check(weak.AddPotentialChild(b3, author, a3));
  Check(weak.AddPotentialChild(a1, institution, i1));
  Check(weak.AddPotentialChild(a2, institution, i1));
  Check(weak.AddPotentialChild(a2, institution, i2));
  Check(weak.AddPotentialChild(a3, institution, i2));

  // Cardinality constraints.
  Check(weak.SetCard(r, book, IntInterval(2, 3)));
  Check(weak.SetCard(b1, author, IntInterval(1, 2)));
  Check(weak.SetCard(b1, title, IntInterval(0, 1)));
  Check(weak.SetCard(b2, author, IntInterval(2, 2)));
  Check(weak.SetCard(b3, author, IntInterval(1, 1)));
  Check(weak.SetCard(b3, title, IntInterval(1, 1)));
  Check(weak.SetCard(a1, institution, IntInterval(0, 1)));
  Check(weak.SetCard(a2, institution, IntInterval(1, 1)));
  Check(weak.SetCard(a3, institution, IntInterval(1, 1)));

  // OPFs — distributions over potential child sets (Figure 2's tables).
  auto opf = std::make_unique<ExplicitOpf>();
  opf->Set(IdSet{b1, b2}, 0.2);
  opf->Set(IdSet{b1, b3}, 0.2);
  opf->Set(IdSet{b2, b3}, 0.2);
  opf->Set(IdSet{b1, b2, b3}, 0.4);
  Check(inst.SetOpf(r, std::move(opf)));

  opf = std::make_unique<ExplicitOpf>();
  opf->Set(IdSet{a1}, 0.3);
  opf->Set(IdSet{a1, t1}, 0.35);
  opf->Set(IdSet{a2}, 0.1);
  opf->Set(IdSet{a2, t1}, 0.15);
  opf->Set(IdSet{a1, a2}, 0.05);
  opf->Set(IdSet{a1, a2, t1}, 0.05);
  Check(inst.SetOpf(b1, std::move(opf)));

  opf = std::make_unique<ExplicitOpf>();
  opf->Set(IdSet{a1, a2}, 0.4);
  opf->Set(IdSet{a1, a3}, 0.4);
  opf->Set(IdSet{a2, a3}, 0.2);
  Check(inst.SetOpf(b2, std::move(opf)));

  opf = std::make_unique<ExplicitOpf>();
  opf->Set(IdSet{a3, t2}, 1.0);
  Check(inst.SetOpf(b3, std::move(opf)));

  opf = std::make_unique<ExplicitOpf>();
  opf->Set(IdSet{i1}, 0.8);
  opf->Set(IdSet(), 0.2);
  Check(inst.SetOpf(a1, std::move(opf)));

  opf = std::make_unique<ExplicitOpf>();
  opf->Set(IdSet{i1}, 0.5);
  opf->Set(IdSet{i2}, 0.5);
  Check(inst.SetOpf(a2, std::move(opf)));

  opf = std::make_unique<ExplicitOpf>();
  opf->Set(IdSet{i2}, 1.0);
  Check(inst.SetOpf(a3, std::move(opf)));

  // T1 is a typed leaf with a value distribution.
  TypeId title_type =
      Unwrap(dict.DefineType("title-type", {Value("VQDB"), Value("Lore")}));
  Check(weak.SetLeafType(t1, title_type));
  Vpf vpf;
  vpf.Set(Value("VQDB"), 0.4);
  vpf.Set(Value("Lore"), 0.6);
  Check(inst.SetVpf(t1, std::move(vpf)));
  return inst;
}

}  // namespace

int main() {
  ProbabilisticInstance inst = BuildFigure2();
  Check(ValidateProbabilisticInstance(inst));
  std::printf("Figure 2 instance: %zu objects, %zu OPF rows\n",
              inst.weak().num_objects(), inst.TotalOpfEntries());

  // Global semantics: enumerate all compatible worlds (Theorem 1 says
  // their probabilities sum to 1).
  std::vector<World> worlds = Unwrap(EnumerateWorlds(inst));
  double mass = 0;
  for (const World& w : worlds) mass += w.prob;
  std::printf("possible worlds: %zu (total probability %.6f)\n",
              worlds.size(), mass);

  // Example 4.1: the probability of the particular world S1.
  const Dictionary& dict = inst.dict();
  SemistructuredInstance s1;
  s1.SetDictionary(dict);
  for (const char* name : {"R", "B1", "B2", "T1", "A1", "A2", "I1"}) {
    Check(s1.AddObjectById(*dict.FindObject(name)));
  }
  Check(s1.SetRoot(*dict.FindObject("R")));
  auto edge = [&](const char* a, const char* l, const char* b) {
    Check(s1.AddEdge(*dict.FindObject(a), *dict.FindLabel(l),
                     *dict.FindObject(b)));
  };
  edge("R", "book", "B1");
  edge("R", "book", "B2");
  edge("B1", "author", "A1");
  edge("B1", "title", "T1");
  edge("B2", "author", "A1");
  edge("B2", "author", "A2");
  edge("A1", "institution", "I1");
  edge("A2", "institution", "I1");
  Check(s1.SetLeafValue(*dict.FindObject("T1"), *dict.FindType("title-type"),
                        Value("VQDB")));
  double p_s1 = Unwrap(WorldProbability(inst, s1));
  std::printf("P(S1) = %.5f   (Example 4.1 reports 0.00448)\n", p_s1);

  // A point query on the DAG route: via world enumeration.
  PathExpression p;
  p.start = inst.weak().root();
  p.labels = {*dict.FindLabel("book"), *dict.FindLabel("author")};
  double p_a1 = Unwrap(PointQueryViaWorlds(inst, p, *dict.FindObject("A1")));
  std::printf("P(A1 in R.book.author) = %.5f\n", p_a1);

  // Persist the instance in the PXML text format.
  std::string serialized = SerializePxml(inst);
  std::printf("serialized instance: %zu bytes of PXML text\n",
              serialized.size());
  return 0;
}
