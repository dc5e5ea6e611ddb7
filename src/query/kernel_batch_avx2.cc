// The AVX2 translation unit: the only file built with -mavx2 (and
// without -mfma — see kernel_batch_impl.h for why contraction would
// break the cross-backend bit-identity contract). Nothing here executes
// unless the one-time cpuid probe in util/simd.cc reported AVX2, so an
// AVX2-less host never reaches a VEX-encoded instruction.
#include "query/kernel_batch_impl.h"

#if !defined(__AVX2__)
#error "kernel_batch_avx2.cc must be compiled with -mavx2"
#endif

namespace pxml::kernel_batch {

Status EvalOneAvx2(const FrozenInstance& frozen,
                   const ProbabilisticInstance& instance, ObjectId o,
                   LabelId l, const std::uint8_t* mark, const double* eps,
                   double& e_out, std::uint64_t& ops_out) {
  return EvalOneT<simd::Avx2Lanes>(frozen, instance, o, l, mark, eps, e_out,
                                   ops_out);
}

void ExpandAvx2(const double* q, std::size_t bits, double* acc) {
  ExpandT<simd::Avx2Lanes>(q, bits, acc);
}

}  // namespace pxml::kernel_batch
