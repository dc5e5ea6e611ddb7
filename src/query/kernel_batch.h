#ifndef PXML_QUERY_KERNEL_BATCH_H_
#define PXML_QUERY_KERNEL_BATCH_H_

#include <cstddef>
#include <cstdint>

#include "core/probabilistic_instance.h"
#include "query/frozen.h"
#include "util/simd.h"
#include "util/status.h"

/// Runtime-dispatched kernel evaluation over a FrozenInstance
/// (DESIGN.md §14). Select() resolves the lane backend once per pass;
/// the returned function pointers evaluate one compiled kernel against a
/// full child-ε array, with the same accounting (`ops`) and the same
/// error statuses as the scalar reference in query/frozen_eval.h.
///
/// Agreement contract, gated in bench_frozen_kernels --check and
/// tests/simd_kernel_test.cc:
///   * scalar backend: IS the reference (its KernelFn is
///     frozen_internal::EvalFrozenKernel) — bit-identical to
///     pre-vectorization answers by construction;
///   * explicit kernels: every backend routes them to the reference
///     (their 2^b·b row walk does not vectorize across the row product)
///     — bit-identical;
///   * independent kernels: per kernel, the vector backends precompute
///     the terms 1 − p_i·ε_i with lane arithmetic (one multiply, one
///     subtract per element — the exact scalar operation sequence) and
///     then multiply the terms in ascending order — bit-identical;
///   * per-label kernels: the vector backends use the Freeze-time subset
///     tables (FrozenInstance::Factor) and the documented MaskedDot
///     reduction order — equal to scalar within ulp-scale rounding,
///     covered by the existing ≤1e-12 agreement gate;
///   * `ops` accounting is reproduced exactly from the Freeze-time
///     tables, so work counters are dispatch-neutral across backends.
namespace pxml::kernel_batch {

/// Evaluates o's kernel for path label `l`: retained-membership from
/// `mark`, child ε values from `eps` (indexed by ObjectId). Both arrays
/// must cover frozen.num_ids(); the ε-propagation scratch arrays are
/// 64-byte aligned, asserted in debug builds.
using KernelFn = Status (*)(const FrozenInstance& frozen,
                            const ProbabilisticInstance& instance, ObjectId o,
                            LabelId l, const std::uint8_t* mark,
                            const double* eps, double& e_out,
                            std::uint64_t& ops_out);

/// The subset-product expansion acc[m] = Π_b (m & 1<<b ? q[b] : 1−q[b])
/// for m in [0, 2^bits), by tensor doubling in ascending bit order —
/// per element the exact multiply sequence of the naive per-mask loop,
/// so the expansion is bit-identical to it under every backend.
using ExpandFn = void (*)(const double* q, std::size_t bits, double* acc);

struct Evaluators {
  simd::Backend backend = simd::Backend::kScalar;
  KernelFn eval_one = nullptr;
  ExpandFn expand = nullptr;
};

/// Resolves the evaluator table for simd::ActiveBackend(). Cheap (one
/// atomic load + switch); callers on a hot pass should still resolve
/// once per pass so a concurrent SetBackend cannot split one pass across
/// backends.
Evaluators Select();

}  // namespace pxml::kernel_batch

#endif  // PXML_QUERY_KERNEL_BATCH_H_
