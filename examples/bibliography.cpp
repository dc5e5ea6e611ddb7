// The four motivating scenarios of the paper's Section 2, end to end, on
// a tree-shaped bibliographic instance, using the query language and the
// efficient Section-6 operators.
//
// Run:  ./bibliography
#include <cstdio>
#include <memory>

#include "algebra/cartesian_product.h"
#include "core/probabilistic_instance.h"
#include "core/validation.h"
#include "query/parser.h"
#include "query/point_queries.h"
#include "xml/writer.h"

namespace {

using namespace pxml;  // NOLINT — example brevity

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

/// A citation index over one research area, built as if by an extraction
/// pipeline that is unsure which books/authors it really saw.
ProbabilisticInstance BuildIndex(const char* suffix, std::uint64_t flavor) {
  ProbabilisticInstance inst;
  WeakInstance& weak = inst.mutable_weak();
  Dictionary& dict = weak.dict();
  auto name = [&](const char* base) { return std::string(base) + suffix; };

  ObjectId r = weak.AddObject(name("R"));
  ObjectId b1 = weak.AddObject(name("B1"));
  ObjectId b2 = weak.AddObject(name("B2"));
  ObjectId t1 = weak.AddObject(name("T1"));
  ObjectId a1 = weak.AddObject(name("A1"));
  ObjectId a2 = weak.AddObject(name("A2"));
  ObjectId a3 = weak.AddObject(name("A3"));
  Check(weak.SetRoot(r));
  LabelId book = dict.InternLabel("book");
  LabelId title = dict.InternLabel("title");
  LabelId author = dict.InternLabel("author");

  Check(weak.AddPotentialChild(r, book, b1));
  Check(weak.AddPotentialChild(r, book, b2));
  Check(weak.AddPotentialChild(b1, title, t1));
  Check(weak.AddPotentialChild(b1, author, a1));
  Check(weak.AddPotentialChild(b1, author, a2));
  Check(weak.AddPotentialChild(b2, author, a3));
  Check(weak.SetCard(r, book, IntInterval(1, 2)));
  Check(weak.SetCard(b1, author, IntInterval(1, 2)));
  Check(weak.SetCard(b1, title, IntInterval(0, 1)));
  Check(weak.SetCard(b2, author, IntInterval(1, 1)));

  double f = 0.05 * static_cast<double>(flavor % 3);
  auto opf = std::make_unique<ExplicitOpf>();
  opf->Set(IdSet{b1}, 0.3 - f);
  opf->Set(IdSet{b2}, 0.2);
  opf->Set(IdSet{b1, b2}, 0.5 + f);
  Check(inst.SetOpf(r, std::move(opf)));

  opf = std::make_unique<ExplicitOpf>();
  opf->Set(IdSet{a1}, 0.25);
  opf->Set(IdSet{a1, t1}, 0.3);
  opf->Set(IdSet{a2}, 0.1);
  opf->Set(IdSet{a2, t1}, 0.15);
  opf->Set(IdSet{a1, a2}, 0.1);
  opf->Set(IdSet{a1, a2, t1}, 0.1);
  Check(inst.SetOpf(b1, std::move(opf)));

  opf = std::make_unique<ExplicitOpf>();
  opf->Set(IdSet{a3}, 1.0);
  Check(inst.SetOpf(b2, std::move(opf)));

  TypeId title_type = Unwrap(dict.DefineType(
      "title-type", {Value("VQDB"), Value("Lore")}));
  Check(weak.SetLeafType(t1, title_type));
  Vpf vpf;
  vpf.Set(Value("VQDB"), 0.4);
  vpf.Set(Value("Lore"), 0.6);
  Check(inst.SetVpf(t1, std::move(vpf)));
  return inst;
}

void RunAndReport(const ProbabilisticInstance& inst, const char* text) {
  Query q = Unwrap(ParseQuery(inst.dict(), text));
  QueryOutput out = Unwrap(ExecuteQuery(inst, q));
  if (out.probability.has_value()) {
    std::printf("  %-42s -> %.6f\n", text, *out.probability);
  } else {
    std::printf("  %-42s -> instance with %zu objects\n", text,
                out.instance->weak().num_objects());
  }
}

}  // namespace

int main() {
  ProbabilisticInstance inst = BuildIndex("", 0);
  Check(ValidateProbabilisticInstance(inst));

  std::printf("Scenario 1: authors of all books, keeping probabilities\n");
  Query project = Unwrap(ParseQuery(inst.dict(), "project R.book.author"));
  ProbabilisticInstance authors =
      *Unwrap(ExecuteQuery(inst, project)).instance;
  std::printf("  projected instance has %zu objects (from %zu)\n",
              authors.weak().num_objects(), inst.weak().num_objects());
  RunAndReport(authors, "prob R.book.author = A1");

  std::printf("\nScenario 2: now we KNOW book B1 exists\n");
  Query select = Unwrap(ParseQuery(inst.dict(), "select R.book = B1"));
  ProbabilisticInstance updated =
      *Unwrap(ExecuteQuery(inst, select)).instance;
  RunAndReport(inst, "prob R.book = B1");
  RunAndReport(updated, "prob R.book = B1");
  RunAndReport(inst, "prob R.book = B2");
  RunAndReport(updated, "prob R.book = B2");

  std::printf("\nScenario 3: combine two areas into one index\n");
  ProbabilisticInstance other = BuildIndex("_ai", 1);
  ProbabilisticInstance combined =
      Unwrap(CartesianProduct(inst, other, "Bib"));
  Check(ValidateProbabilisticInstance(combined));
  std::printf("  combined instance: %zu objects rooted at 'Bib'\n",
              combined.weak().num_objects());
  RunAndReport(combined, "prob Bib.book = B1");
  RunAndReport(combined, "prob Bib.book = B1_ai");
  RunAndReport(combined, "prob exists Bib.book.title");

  std::printf("\nScenario 4: probability a particular author exists\n");
  RunAndReport(inst, "prob R.book.author = A1");
  RunAndReport(inst, "prob R.book.author = A3");
  RunAndReport(inst, "prob exists R.book.author");
  RunAndReport(inst, "prob val(R.book.title) = \"VQDB\"");

  std::printf("\nThe updated instance of Scenario 2, serialized:\n%s",
              SerializePxml(updated).c_str());
  return 0;
}
