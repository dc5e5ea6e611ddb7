#include "workload/generator.h"

#include "core/potential_children.h"

#include <deque>

#include "util/rng.h"
#include "util/strings.h"

namespace pxml {

std::size_t BalancedTreeObjectCount(std::uint32_t depth,
                                    std::uint32_t branching) {
  std::size_t count = 0;
  std::size_t level = 1;
  for (std::uint32_t d = 0; d <= depth; ++d) {
    count += level;
    level *= branching;
  }
  return count;
}

Result<ProbabilisticInstance> GenerateBalancedTree(
    const GeneratorConfig& config) {
  if (config.branching == 0 || config.branching > 20) {
    return Status::InvalidArgument(
        "branching factor must be in [1, 20] (OPFs have 2^b entries)");
  }
  if (config.labels_per_level == 0) {
    return Status::InvalidArgument("labels_per_level must be positive");
  }
  Rng rng(config.seed);
  ProbabilisticInstance out;
  WeakInstance& weak = out.mutable_weak();
  Dictionary& dict = weak.dict();

  // Level l uses labels "L<l>_<k>".
  std::vector<std::vector<LabelId>> level_labels(config.depth);
  for (std::uint32_t d = 0; d < config.depth; ++d) {
    for (std::uint32_t k = 0; k < config.labels_per_level; ++k) {
      level_labels[d].push_back(
          dict.InternLabel(StrCat("L", d, "_", k)));
    }
  }
  TypeId leaf_type = 0;
  if (config.with_leaf_values) {
    std::vector<Value> domain;
    for (std::uint32_t i = 0; i < config.leaf_domain_size; ++i) {
      domain.emplace_back(StrCat("v", i));
    }
    PXML_ASSIGN_OR_RETURN(leaf_type,
                          dict.DefineType("leaf-type", std::move(domain)));
  }

  ObjectId root = weak.AddObject("r");
  PXML_RETURN_IF_ERROR(weak.SetRoot(root));

  struct Pending {
    ObjectId object;
    std::uint32_t depth;
  };
  std::deque<Pending> queue{{root, 0}};
  std::size_t counter = 0;
  const std::size_t subsets = std::size_t{1} << config.branching;

  while (!queue.empty()) {
    Pending cur = queue.front();
    queue.pop_front();
    if (cur.depth == config.depth) {
      // Leaf.
      if (config.with_leaf_values) {
        PXML_RETURN_IF_ERROR(weak.SetLeafType(cur.object, leaf_type));
        Vpf vpf;
        std::vector<double> probs = rng.NextSimplex(config.leaf_domain_size);
        for (std::uint32_t i = 0; i < config.leaf_domain_size; ++i) {
          vpf.Set(Value(StrCat("v", i)), probs[i]);
        }
        PXML_RETURN_IF_ERROR(out.SetVpf(cur.object, std::move(vpf)));
      }
      continue;
    }
    // Children with labels per the labeling scheme. The per-label-product
    // style overrides the scheme with a round-robin assignment so every
    // label family is a genuine factor universe.
    const std::vector<LabelId>& alphabet = level_labels[cur.depth];
    const bool per_label = config.opf_style == OpfStyle::kPerLabelProduct;
    LabelId shared = alphabet[rng.NextBounded(alphabet.size())];
    std::vector<ObjectId> children;
    std::vector<LabelId> child_labels;
    children.reserve(config.branching);
    child_labels.reserve(config.branching);
    for (std::uint32_t i = 0; i < config.branching; ++i) {
      ObjectId child = weak.AddObject(StrCat("o", ++counter));
      LabelId label;
      if (per_label) {
        label = alphabet[i % alphabet.size()];
      } else {
        label = config.labeling == LabelingScheme::kSameLabels
                    ? shared
                    : alphabet[rng.NextBounded(alphabet.size())];
      }
      PXML_RETURN_IF_ERROR(weak.AddPotentialChild(cur.object, label, child));
      children.push_back(child);
      child_labels.push_back(label);
      queue.push_back(Pending{child, cur.depth + 1});
    }
    switch (config.opf_style) {
      case OpfStyle::kExplicitTable: {
        // Random explicit OPF over all 2^b subsets (no cardinality
        // constraints, per §7.1).
        std::vector<double> probs = rng.NextSimplex(subsets);
        std::vector<OpfEntry> rows;
        rows.reserve(subsets);
        for (std::size_t mask = 0; mask < subsets; ++mask) {
          std::vector<std::uint32_t> members;
          for (std::uint32_t b = 0; b < config.branching; ++b) {
            if (mask & (std::size_t{1} << b)) members.push_back(children[b]);
          }
          rows.push_back(OpfEntry{IdSet(std::move(members)), probs[mask]});
        }
        PXML_RETURN_IF_ERROR(out.SetOpf(
            cur.object, std::make_unique<ExplicitOpf>(
                            ExplicitOpf::FromEntries(std::move(rows)))));
        break;
      }
      case OpfStyle::kIndependent: {
        auto opf = std::make_unique<IndependentOpf>();
        for (ObjectId child : children) {
          PXML_RETURN_IF_ERROR(opf->AddChild(child, rng.NextDouble()));
        }
        PXML_RETURN_IF_ERROR(out.SetOpf(cur.object, std::move(opf)));
        break;
      }
      case OpfStyle::kPerLabelProduct: {
        auto opf = std::make_unique<PerLabelProductOpf>();
        for (LabelId label : alphabet) {
          std::vector<ObjectId> mine;
          for (std::uint32_t i = 0; i < config.branching; ++i) {
            if (child_labels[i] == label) mine.push_back(children[i]);
          }
          if (mine.empty()) continue;
          const std::size_t fsubsets = std::size_t{1} << mine.size();
          std::vector<double> probs = rng.NextSimplex(fsubsets);
          std::vector<OpfEntry> rows;
          rows.reserve(fsubsets);
          for (std::size_t mask = 0; mask < fsubsets; ++mask) {
            std::vector<std::uint32_t> members;
            for (std::size_t b = 0; b < mine.size(); ++b) {
              if (mask & (std::size_t{1} << b)) members.push_back(mine[b]);
            }
            rows.push_back(OpfEntry{IdSet(std::move(members)), probs[mask]});
          }
          PXML_RETURN_IF_ERROR(opf->AddLabelFactor(
              label, ExplicitOpf::FromEntries(std::move(rows))));
        }
        PXML_RETURN_IF_ERROR(out.SetOpf(cur.object, std::move(opf)));
        break;
      }
    }
  }
  return out;
}

Result<ProbabilisticInstance> GenerateRandomDag(const DagConfig& config) {
  if (config.num_objects == 0 || config.num_labels == 0 ||
      config.max_children_per_label == 0) {
    return Status::InvalidArgument("DagConfig fields must be positive");
  }
  Rng rng(config.seed);
  ProbabilisticInstance out;
  WeakInstance& weak = out.mutable_weak();
  Dictionary& dict = weak.dict();

  std::vector<LabelId> labels;
  for (std::uint32_t k = 0; k < config.num_labels; ++k) {
    labels.push_back(dict.InternLabel(StrCat("l", k)));
  }
  std::vector<ObjectId> objects;
  for (std::uint32_t i = 0; i < config.num_objects; ++i) {
    objects.push_back(weak.AddObject(StrCat("n", i)));
  }
  PXML_RETURN_IF_ERROR(weak.SetRoot(objects[0]));

  // Edges strictly forward in index order keep the graph acyclic. One
  // label per (parent, child) pair keeps per-parent lch families
  // disjoint.
  std::vector<std::vector<std::uint32_t>> lch_size(
      config.num_objects, std::vector<std::uint32_t>(config.num_labels, 0));
  auto try_add = [&](std::uint32_t i, std::uint32_t j) -> bool {
    std::uint32_t k =
        static_cast<std::uint32_t>(rng.NextBounded(config.num_labels));
    if (lch_size[i][k] >= config.max_children_per_label) return false;
    if (!weak.AddPotentialChild(objects[i], labels[k], objects[j]).ok()) {
      return false;
    }
    ++lch_size[i][k];
    return true;
  };
  for (std::uint32_t j = 1; j < config.num_objects; ++j) {
    bool has_parent = false;
    for (std::uint32_t i = 0; i < j; ++i) {
      if (rng.NextDouble() < config.edge_density && try_add(i, j)) {
        has_parent = true;
      }
    }
    while (!has_parent) {
      has_parent = try_add(
          static_cast<std::uint32_t>(rng.NextBounded(j)), j);
    }
  }

  // Random satisfiable cardinalities, then a random OPF over PC(o).
  for (ObjectId o : weak.Objects()) {
    if (weak.IsLeaf(o)) {
      if (config.with_leaf_values) {
        std::vector<Value> domain;
        for (std::uint32_t i = 0; i < config.leaf_domain_size; ++i) {
          domain.emplace_back(StrCat("v", i));
        }
        auto type = dict.FindType("dag-leaf");
        TypeId t;
        if (type.has_value()) {
          t = *type;
        } else {
          PXML_ASSIGN_OR_RETURN(
              t, dict.DefineType("dag-leaf", std::move(domain)));
        }
        PXML_RETURN_IF_ERROR(weak.SetLeafType(o, t));
        Vpf vpf;
        std::vector<double> probs = rng.NextSimplex(config.leaf_domain_size);
        for (std::uint32_t i = 0; i < config.leaf_domain_size; ++i) {
          vpf.Set(Value(StrCat("v", i)), probs[i]);
        }
        PXML_RETURN_IF_ERROR(out.SetVpf(o, std::move(vpf)));
      }
      continue;
    }
    for (LabelId l : weak.LabelsOf(o)) {
      std::uint32_t n = static_cast<std::uint32_t>(weak.Lch(o, l).size());
      std::uint32_t lo =
          static_cast<std::uint32_t>(rng.NextBounded(2)) % (n + 1);
      std::uint32_t hi = static_cast<std::uint32_t>(
          rng.NextInRange(lo, n));
      PXML_RETURN_IF_ERROR(weak.SetCard(o, l, IntInterval(lo, hi)));
    }
    PXML_ASSIGN_OR_RETURN(std::vector<IdSet> pc, PotentialChildSets(weak, o));
    if (pc.empty()) {
      return Status::Internal("generated object with empty PC");
    }
    std::vector<double> probs = rng.NextSimplex(pc.size());
    std::vector<OpfEntry> rows;
    rows.reserve(pc.size());
    for (std::size_t i = 0; i < pc.size(); ++i) {
      rows.push_back(OpfEntry{std::move(pc[i]), probs[i]});
    }
    PXML_RETURN_IF_ERROR(out.SetOpf(
        o, std::make_unique<ExplicitOpf>(
               ExplicitOpf::FromEntries(std::move(rows)))));
  }
  return out;
}

}  // namespace pxml
