#ifndef PXML_QUERY_KERNEL_BATCH_IMPL_H_
#define PXML_QUERY_KERNEL_BATCH_IMPL_H_

#include <cassert>
#include <cstdint>
#include <span>

#include "query/frozen_eval.h"
#include "query/kernel_batch.h"
#include "util/simd.h"

/// The templated kernel bodies behind query/kernel_batch.h, instantiated
/// once per lane policy: ScalarLanes and Sse2Lanes in kernel_batch.cc,
/// Avx2Lanes in kernel_batch_avx2.cc (the only TU built with -mavx2 —
/// and deliberately *without* -mfma, so the compiler cannot contract any
/// multiply-add and every backend rounds 1 − p·ε twice, identically).
namespace pxml::kernel_batch {

/// Per-thread scratch for the vector kernels: the term buffer of the
/// independent kernel and the 2^{b_l} subset-product table of the
/// per-label kernel. Defined in kernel_batch.cc.
struct BatchScratch {
  simd::AlignedVector<double> terms;
  simd::AlignedVector<double> none;
};
BatchScratch& LocalBatchScratch();

/// One kernel under lane policy P. Bit-identity relies on the pass
/// invariant that eps[j] == +0.0 for every unmarked child j (the pass
/// zero-fills eps and only pruned-layer objects are ever written), so
/// dropping the scalar path's mark test only introduces exact ×1.0 /
/// +0.0 terms — see the contract table in kernel_batch.h.
template <typename P>
Status EvalOneT(const FrozenInstance& frozen,
                const ProbabilisticInstance& instance, ObjectId o, LabelId l,
                const std::uint8_t* mark, const double* eps, double& e_out,
                std::uint64_t& ops_out) {
  assert(reinterpret_cast<std::uintptr_t>(eps) % 64 == 0 &&
         "ε array must come from a 64-byte-aligned arena");
  const FrozenInstance::Kernel& k = frozen.kernel(o);
  switch (k.kind) {
    case FrozenOpfKind::kLeaf:
    case FrozenOpfKind::kMissing:
    case FrozenOpfKind::kExplicit:
      // Errors and the explicit row walk (whose inner product does not
      // vectorize across rows of varying width) stay on the reference.
      return frozen_internal::EvalFrozenKernel(frozen, instance, o, l, mark,
                                              eps, e_out, ops_out);
    case FrozenOpfKind::kIndependent: {
      const std::span<const ObjectId> ic = frozen.ind_children(k);
      const std::span<const double> ip = frozen.ind_probs(k);
      const std::size_t nb = ic.size();
      BatchScratch& bs = LocalBatchScratch();
      if (bs.terms.size() < nb) bs.terms.resize(nb);
      double* terms = bs.terms.data();
      // Lane-parallel term precompute, then a sequential ascending
      // product — the scalar accumulation order, hence bit-identical.
      P::Terms(ip.data(), ic.data(), eps, terms, nb);
      double none = 1.0;
      for (std::size_t i = 0; i < nb; ++i) none *= terms[i];
      e_out = 1.0 - none;
      ops_out = nb;
      return Status::Ok();
    }
    case FrozenOpfKind::kPerLabel: {
      const std::span<const FrozenInstance::Factor> fs = frozen.factors(k);
      const FrozenInstance::Factor* on = nullptr;
      for (const FrozenInstance::Factor& f : fs) {
        if (f.label == l) {
          on = &f;
          break;
        }
      }
      if (on == nullptr) {
        // No on-path factor: the scalar recurrence's mass_all and
        // survive_all products are the same sequence of multiplies, so
        // its ε is exactly +0.0.
        e_out = 0.0;
        ops_out = fs.size();
        return Status::Ok();
      }
      if (!on->vec) {
        // Universe wider than the subset table allows — whole-kernel
        // scalar fallback (identical ops accounting by construction).
        return frozen_internal::EvalFrozenKernel(frozen, instance, o, l,
                                                mark, eps, e_out, ops_out);
      }
      const std::span<const ObjectId> uni = frozen.children(o, l);
      const std::size_t bits = on->bits;
      BatchScratch& bs = LocalBatchScratch();
      if (bs.terms.size() < bits) bs.terms.resize(bits);
      const std::size_t table_size = std::size_t{1} << bits;
      if (bs.none.size() < table_size) bs.none.resize(table_size);
      double* q = bs.terms.data();
      for (std::size_t b = 0; b < bits; ++b) q[b] = 1.0 - eps[uni[b]];
      double* none = bs.none.data();
      none[0] = 1.0;
      for (std::size_t b = 0; b < bits; ++b) {
        P::ScaleHalf(none, std::size_t{1} << b, q[b]);
      }
      const double* rp = frozen.row_prob_data() + on->row_begin;
      const std::size_t rows = on->row_end - on->row_begin;
      // Dense factors (identity row masks — Factor::dense) skip the
      // gather; Dot keeps MaskedDot's lane and combine order, so the
      // result is bit-identical either way.
      const double s =
          on->dense ? P::Dot(rp, none, rows)
                    : P::MaskedDot(rp, frozen.row_mask_data() + on->row_begin,
                                   rows, none);
      e_out = frozen.per_label_mass_all(o) - on->excl_mass * s;
      ops_out = fs.size() + on->on_ops;
      return Status::Ok();
    }
  }
  return frozen_internal::EvalFrozenKernel(frozen, instance, o, l, mark, eps,
                                          e_out, ops_out);
}

/// The subset-weight expansion behind Evaluators::expand — see
/// kernel_batch.h for the bit-identity argument.
template <typename P>
void ExpandT(const double* q, std::size_t bits, double* acc) {
  acc[0] = 1.0;
  for (std::size_t b = 0; b < bits; ++b) {
    P::Split(acc, std::size_t{1} << b, q[b], 1.0 - q[b]);
  }
}

}  // namespace pxml::kernel_batch

#endif  // PXML_QUERY_KERNEL_BATCH_IMPL_H_
