#ifndef PXML_QUERY_FROZEN_EVAL_H_
#define PXML_QUERY_FROZEN_EVAL_H_

#include <cstdint>
#include <span>

#include "core/probabilistic_instance.h"
#include "query/frozen.h"
#include "util/status.h"
#include "util/strings.h"

namespace pxml::frozen_internal {

/// Evaluates o's compiled kernel: the retained-membership test is
/// `mark[j] != 0` and child ε values come from the pass's `eps` array
/// (indexed by ObjectId). kLeaf/kMissing is the pass's per-object error.
///
/// This is the scalar reference every backend in query/kernel_batch.h is
/// measured against: the scalar backend calls it directly (bit-identity
/// with pre-vectorization answers by construction), the vector backends
/// call it for explicit kernels and fall back to it for per-label
/// kernels whose factors exceed the vectorization width.
inline Status EvalFrozenKernel(const FrozenInstance& frozen,
                               const ProbabilisticInstance& instance,
                               ObjectId o, LabelId l,
                               const std::uint8_t* mark, const double* eps,
                               double& e_out, std::uint64_t& ops_out) {
  const FrozenInstance::Kernel& k = frozen.kernel(o);
  double e = 0.0;
  std::uint64_t ops = 0;
  switch (k.kind) {
    case FrozenOpfKind::kLeaf:
    case FrozenOpfKind::kMissing:
      return Status::FailedPrecondition(StrCat(
          "non-leaf '", instance.dict().ObjectName(o), "' has no OPF"));
    case FrozenOpfKind::kExplicit: {
      for (std::uint32_t r = k.begin; r < k.end; ++r) {
        const double p = frozen.row_prob(r);
        if (p <= 0.0) continue;
        const std::span<const ObjectId> rc = frozen.row_children(r);
        ops += 1 + rc.size();
        double none = 1.0;
        for (ObjectId j : rc) {
          if (mark[j]) none *= 1.0 - eps[j];
        }
        e += p * (1.0 - none);
      }
      break;
    }
    case FrozenOpfKind::kIndependent: {
      const std::span<const ObjectId> ic = frozen.ind_children(k);
      const std::span<const double> ip = frozen.ind_probs(k);
      ops += ic.size();
      double none = 1.0;
      for (std::size_t i = 0; i < ic.size(); ++i) {
        if (mark[ic[i]]) none *= 1.0 - ip[i] * eps[ic[i]];
      }
      e = 1.0 - none;
      break;
    }
    case FrozenOpfKind::kPerLabel: {
      // Factored recurrence (DESIGN.md §9): only the on-path label's
      // factor sees retained children; every other factor contributes
      // its precomputed mass. Σ_l 2^{b_l} instead of Π_l 2^{b_l}.
      double mass_all = 1.0;
      double survive_all = 1.0;
      for (const FrozenInstance::Factor& f : frozen.factors(k)) {
        ops += 1;
        mass_all *= f.mass;
        if (f.label != l) {
          survive_all *= f.mass;
          continue;
        }
        double sum = 0.0;
        for (std::uint32_t r = f.row_begin; r < f.row_end; ++r) {
          const double p = frozen.row_prob(r);
          if (p <= 0.0) continue;
          const std::span<const ObjectId> rc = frozen.row_children(r);
          ops += 1 + rc.size();
          double none = 1.0;
          for (ObjectId j : rc) {
            if (mark[j]) none *= 1.0 - eps[j];
          }
          sum += p * none;
        }
        survive_all *= sum;
      }
      e = mass_all - survive_all;
      break;
    }
  }
  e_out = e;
  ops_out = ops;
  return Status::Ok();
}

}  // namespace pxml::frozen_internal

#endif  // PXML_QUERY_FROZEN_EVAL_H_
