// Workload table and input generation: the instance, its PXML text, and
// the op streams, all derived from the seed before any timing starts.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "e2e.h"
#include "query/point_queries.h"
#include "util/strings.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace pxml {
namespace e2e {

namespace {

[[noreturn]] void Die(const char* what, const Status& status) {
  std::fprintf(stderr, "pxml_e2e: %s: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

/// `style` is the OPF representation the instance is served in; see
/// MakeInputs for how its structure is generated.
GeneratorConfig Instance(OpfStyle style, std::uint32_t branching,
                         std::uint32_t depth, bool leaf_values) {
  GeneratorConfig config;
  config.opf_style = style;
  config.branching = branching;
  config.depth = depth;
  config.with_leaf_values = leaf_values;
  return config;
}

// Sizes were picked so that one run of every workload fits a few seconds
// of set-up plus the measured seconds, and so that a run takes at least
// 100 latency samples, i.e. 10 beyond p90 (README.md).
std::vector<Spec> BuildSpecs() {
  const GeneratorConfig unique_reads =
      Instance(OpfStyle::kExplicitTable, 4, 8, /*leaf_values=*/false);
  const GeneratorConfig per_label =
      Instance(OpfStyle::kPerLabelProduct, 4, 8, /*leaf_values=*/true);
  const GeneratorConfig fig7 =
      Instance(OpfStyle::kExplicitTable, 8, 4, /*leaf_values=*/false);
  return {
      // name, instance, traffic, readers, writer_is_foreground, threads,
      // warmup, max_requests_per_s
      {"read_unique", unique_reads, Traffic::kSingleReads, 2, false, 1, 2000,
       20000},
      {"read_hot_batch", per_label, Traffic::kBatches, 1, false, 2, 100, 1000},
      {"project_fig7", fig7, Traffic::kProject, 1, false, 1, 40, 2000},
      {"select_fig7", fig7, Traffic::kSelect, 1, false, 1, 10, 2000},
      {"mixed_rw_read", per_label, Traffic::kReadWrite, 2, false, 1, 500,
       20000},
      {"mixed_rw_commit", per_label, Traffic::kReadWrite, 2, true, 1, 500,
       20000},
  };
}

/// The generator's leaf domain value v<index>.
Value LeafValue(std::uint8_t index) {
  return Value(StrCat("v", static_cast<unsigned>(index)));
}

/// One random op of `kind`, its target reached by a full-depth descent.
Op RandomOp(OpKind kind, const Tree& tree, Rng& rng) {
  Op op;
  op.kind = kind;
  op.target = tree.Descend(rng, tree.height());
  switch (kind) {
    case OpKind::kValue:
      // The generated leaf domain is {v0, v1}.
      op.aux = static_cast<std::uint8_t>(rng.NextBounded(2));
      break;
    case OpKind::kCondition: {
      const std::uint64_t n = tree.FamilySize(op.target);
      const std::uint64_t lo = rng.NextInRange(1, n);
      const std::uint64_t hi = rng.NextInRange(lo, n);
      op.aux = static_cast<std::uint8_t>((lo << 4) | hi);
      break;
    }
    case OpKind::kCommit:
      op.p = 0.05 + 0.9 * rng.NextDouble();
      break;
    default:
      break;
  }
  return op;
}

std::vector<Op> ReaderStream(const Spec& spec, const Tree& tree, Rng& rng,
                             std::size_t requests) {
  std::vector<Op> ops;
  switch (spec.traffic) {
    case Traffic::kSingleReads:
      // Point and condition queries, 1:1.
      for (std::size_t i = 0; i < requests; ++i) {
        ops.push_back(RandomOp(i % 2 == 0 ? OpKind::kPoint
                                          : OpKind::kCondition,
                               tree, rng));
      }
      break;
    case Traffic::kReadWrite:
      for (std::size_t i = 0; i < requests; ++i) {
        ops.push_back(
            RandomOp(static_cast<OpKind>(i % 4), tree, rng));
      }
      break;
    case Traffic::kBatches: {
      // Batch slot i asks a query of kind i % 4; 90% of slots draw from
      // a fixed hot set of 64 queries (16 per kind), the rest are fresh.
      std::vector<Op> hot;
      for (std::size_t i = 0; i < kBatchSize; ++i) {
        hot.push_back(RandomOp(static_cast<OpKind>(i % 4), tree, rng));
      }
      for (std::size_t b = 0; b < requests; ++b) {
        for (std::size_t i = 0; i < kBatchSize; ++i) {
          const std::size_t kind = i % 4;
          if (rng.NextDouble() < 0.9) {
            ops.push_back(hot[kind + 4 * rng.NextBounded(kBatchSize / 4)]);
          } else {
            ops.push_back(RandomOp(static_cast<OpKind>(kind), tree, rng));
          }
        }
      }
      break;
    }
    case Traffic::kProject:
    case Traffic::kSelect: {
      const OpKind kind = spec.traffic == Traffic::kProject ? OpKind::kProject
                                                            : OpKind::kSelect;
      for (std::size_t i = 0; i < requests; ++i) {
        ops.push_back(RandomOp(kind, tree, rng));
      }
      break;
    }
  }
  return ops;
}

}  // namespace

Tree::Tree(const ProbabilisticInstance& instance) {
  const WeakInstance& weak = instance.weak();
  const std::size_t n = weak.dict().num_objects();
  root_ = weak.root();
  parent_.assign(n, kInvalidId);
  label_.assign(n, kInvalidId);
  families_.resize(n);
  std::vector<std::pair<ObjectId, std::uint32_t>> stack{{root_, 0}};
  while (!stack.empty()) {
    const auto [o, depth] = stack.back();
    stack.pop_back();
    height_ = std::max(height_, depth);
    for (LabelId l : weak.LabelsOf(o)) {
      Family family{l, {}};
      for (ObjectId child : weak.Lch(o, l)) {
        parent_[child] = o;
        label_[child] = l;
        family.children.push_back(child);
        stack.emplace_back(child, depth + 1);
      }
      families_[o].push_back(std::move(family));
    }
  }
}

PathExpression Tree::PathTo(ObjectId o) const {
  PathExpression path;
  path.start = root_;
  for (ObjectId cur = o; cur != root_; cur = parent_[cur]) {
    path.labels.push_back(label_[cur]);
  }
  std::reverse(path.labels.begin(), path.labels.end());
  return path;
}

std::size_t Tree::FamilySize(ObjectId child) const {
  for (const Family& family : families_[parent_[child]]) {
    if (family.label == label_[child]) return family.children.size();
  }
  return 0;
}

ObjectId Tree::Descend(Rng& rng, std::uint32_t levels) const {
  ObjectId o = root_;
  for (std::uint32_t i = 0; i < levels && !families_[o].empty(); ++i) {
    const Family& family = families_[o][rng.NextBounded(families_[o].size())];
    o = family.children[rng.NextBounded(family.children.size())];
  }
  return o;
}

BatchQuery MakeQuery(const Tree& tree, const Op& op) {
  switch (op.kind) {
    case OpKind::kPoint:
      return BatchQuery::Point(tree.PathTo(op.target), op.target);
    case OpKind::kExists:
      return BatchQuery::Exists(tree.PathTo(op.target));
    case OpKind::kValue:
      return BatchQuery::ValueEquals(tree.PathTo(op.target),
                                     LeafValue(op.aux));
    case OpKind::kCondition:
      return BatchQuery::Condition(SelectionCondition::CardinalityIn(
          tree.PathTo(tree.Parent(op.target)), tree.LabelInto(op.target),
          IntInterval(op.aux >> 4, op.aux & 15)));
    case OpKind::kProject:
      return BatchQuery::AncestorProjection(tree.PathTo(op.target));
    case OpKind::kSelect:
    case OpKind::kCommit:
      break;
  }
  std::fprintf(stderr, "pxml_e2e: op kind %d is not a query\n",
               static_cast<int>(op.kind));
  std::abort();
}

SelectionCondition MakeSelection(const Tree& tree, const Op& op) {
  return SelectionCondition::ObjectEquals(tree.PathTo(op.target), op.target);
}

Vpf MakeVpf(const Op& op) {
  Vpf vpf;
  vpf.Set(LeafValue(0), op.p);
  vpf.Set(LeafValue(1), 1.0 - op.p);
  return vpf;
}

Result<double> ReferenceAnswer(const ProbabilisticInstance& instance,
                               const BatchQuery& query) {
  switch (query.kind) {
    case BatchQuery::Kind::kPoint:
      return PointQuery(instance, query.path, query.object);
    case BatchQuery::Kind::kExists:
      return ExistsQuery(instance, query.path);
    case BatchQuery::Kind::kValue:
      return ValueQuery(instance, query.path, query.value);
    case BatchQuery::Kind::kCondition:
      return ConditionProbability(instance, query.condition);
    case BatchQuery::Kind::kAncestorProject:
      break;
  }
  return Status::InvalidArgument("not a probability query");
}

const std::vector<Spec>& AllSpecs() {
  static const std::vector<Spec> specs = BuildSpecs();
  return specs;
}

const Spec* FindSpec(const std::string& name) {
  for (const Spec& spec : AllSpecs()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

Inputs MakeInputs(const Spec& spec, std::uint64_t seed, double seconds,
                  bool smoke) {
  // Every instance has the per-label generator's structure: each level's
  // two labels are dealt round-robin over an object's children, so a path
  // of length k matches (b/2)^k objects whatever the seed, and only the
  // probabilities are random. With the §7.1 SL/FR labelings the matched
  // sets, and with them the cost of every query, swing with a handful of
  // top-level label draws, which no run length averages out. An explicit
  // instance gets each per-label OPF expanded into its full 2^b-row table.
  GeneratorConfig config = spec.instance;
  config.opf_style = OpfStyle::kPerLabelProduct;
  config.seed = seed;
  if (smoke) config.depth = std::max<std::uint32_t>(2, config.depth / 2);
  Inputs in;
  {
    Result<ProbabilisticInstance> generated = GenerateBalancedTree(config);
    if (!generated.ok()) Die("generate", generated.status());
    if (spec.instance.opf_style == OpfStyle::kExplicitTable) {
      for (ObjectId o : std::as_const(*generated).weak().Objects()) {
        const Opf* opf = generated->GetOpf(o);
        if (opf == nullptr) continue;
        const Status set = generated->SetOpf(
            o, std::make_unique<ExplicitOpf>(
                   ExplicitOpf::FromEntries(opf->Entries())));
        if (!set.ok()) Die("expand OPF", set);
      }
    }
    in.text = SerializePxml(*generated);
    in.objects = generated->weak().num_objects();
    in.opf_rows = generated->TotalOpfEntries();
  }
  switch (spec.instance.opf_style) {
    case OpfStyle::kExplicitTable:
      in.representation = "explicit";
      break;
    case OpfStyle::kIndependent:
      in.representation = "independent";
      break;
    case OpfStyle::kPerLabelProduct:
      in.representation = "per-label";
      break;
  }
  // Ops name objects by the ids ParsePxml assigns, so they are generated
  // on a parse of the text itself (parsing is deterministic, so the
  // program under test sees the same ids).
  {
    Result<ProbabilisticInstance> parsed = ParsePxml(in.text);
    if (!parsed.ok()) Die("parse", parsed.status());
    in.tree = std::make_unique<Tree>(*parsed);
  }
  // Streams hold the set-up op, the warm-up, and the measured phase at up
  // to max_requests_per_s per client; a client that runs out stops early
  // and the run counts it as failed.
  const std::size_t measured =
      smoke ? kSmokeRequests
            : static_cast<std::size_t>(
                  std::ceil(spec.max_requests_per_s * seconds));
  Rng master(seed ^ 0xE2E5EEDull);
  for (std::size_t c = 0; c < spec.readers; ++c) {
    Rng rng = master.Fork();
    in.streams.push_back(
        ReaderStream(spec, *in.tree, rng, 1 + spec.warmup + measured));
  }
  if (spec.has_writer()) {
    Rng rng = master.Fork();
    std::vector<Op> commits;
    for (std::size_t i = 0; i < kWriterWarmup + measured; ++i) {
      commits.push_back(RandomOp(OpKind::kCommit, *in.tree, rng));
    }
    in.streams.push_back(std::move(commits));
  }
  return in;
}

}  // namespace e2e
}  // namespace pxml
