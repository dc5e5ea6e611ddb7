#include "query/kernel_batch.h"

#include "query/kernel_batch_impl.h"

namespace pxml::kernel_batch {

BatchScratch& LocalBatchScratch() {
  thread_local BatchScratch scratch;
  return scratch;
}

namespace {

void ExpandScalar(const double* q, std::size_t bits, double* acc) {
  ExpandT<simd::ScalarLanes>(q, bits, acc);
}

#if defined(__SSE2__)
Status EvalOneSse2(const FrozenInstance& frozen,
                   const ProbabilisticInstance& instance, ObjectId o,
                   LabelId l, const std::uint8_t* mark, const double* eps,
                   double& e_out, std::uint64_t& ops_out) {
  return EvalOneT<simd::Sse2Lanes>(frozen, instance, o, l, mark, eps, e_out,
                                   ops_out);
}

void ExpandSse2(const double* q, std::size_t bits, double* acc) {
  ExpandT<simd::Sse2Lanes>(q, bits, acc);
}
#endif  // __SSE2__

}  // namespace

#if defined(PXML_HAVE_KERNEL_AVX2)
// Defined in kernel_batch_avx2.cc (the -mavx2 translation unit).
Status EvalOneAvx2(const FrozenInstance& frozen,
                   const ProbabilisticInstance& instance, ObjectId o,
                   LabelId l, const std::uint8_t* mark, const double* eps,
                   double& e_out, std::uint64_t& ops_out);
void ExpandAvx2(const double* q, std::size_t bits, double* acc);
#endif

Evaluators Select() {
  switch (simd::ActiveBackend()) {
    case simd::Backend::kAvx2:
#if defined(PXML_HAVE_KERNEL_AVX2)
      return {simd::Backend::kAvx2, &EvalOneAvx2, &ExpandAvx2};
#else
      [[fallthrough]];
#endif
    case simd::Backend::kSse2:
#if defined(__SSE2__)
      return {simd::Backend::kSse2, &EvalOneSse2, &ExpandSse2};
#else
      [[fallthrough]];
#endif
    case simd::Backend::kScalar:
      break;
  }
  return {simd::Backend::kScalar, &frozen_internal::EvalFrozenKernel,
          &ExpandScalar};
}

}  // namespace pxml::kernel_batch
