#ifndef PXML_UTIL_SIMD_H_
#define PXML_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__AVX2__)
#include <immintrin.h>
#endif

/// Portable double-precision lane abstraction for the frozen ε kernels
/// (DESIGN.md §14). The backends share one reduction-order contract:
///
///   * element-wise primitives (Terms, Split) perform exactly one
///     multiply (or one multiply and one subtract) per element, in the
///     same per-element order as the scalar loop — they are bit-identical
///     to scalar regardless of lane width;
///   * the dot-product primitive (MaskedDot) accumulates lane l over the
///     rows r ≡ l (mod W) of the full-width prefix, combines lane sums as
///     ((s0 + s1) + (s2 + s3)) for W = 4 and (s0 + s1) for W = 2, then
///     adds the tail rows in ascending order — a fixed, documented order
///     that differs from the scalar left-to-right sum by ulp-scale
///     rounding only (the ≤1e-12 agreement contract).
///
/// None of the vector translation units are compiled with -mfma (and the
/// kernels use explicit mul/add intrinsics), so no backend ever fuses a
/// multiply-add: 1 − p·ε rounds twice everywhere, which is what keeps the
/// independent kernel bit-identical across backends.
namespace pxml::simd {

enum class Backend : std::uint8_t { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

const char* BackendName(Backend b);

/// Doubles per vector register: 1 / 2 / 4.
constexpr std::size_t LaneWidth(Backend b) {
  return b == Backend::kAvx2 ? 4 : b == Backend::kSse2 ? 2 : 1;
}

/// True iff PXML_FORCE_SCALAR is set (non-empty and not "0") in the
/// environment. Read once; flipping the variable mid-process has no
/// effect.
bool ForcedScalar();

/// The widest backend this process can execute: the one-time cpuid probe
/// intersected with what was compiled in (kScalar on non-x86 builds).
Backend DetectedBackend();

/// The backend new kernel evaluations dispatch through. Initialized once
/// to DetectedBackend() — or kScalar under PXML_FORCE_SCALAR.
Backend ActiveBackend();

/// Requests a backend switch (benchmarks/tests; `--simd=` flag). Returns
/// true and switches iff `b` is executable here; under PXML_FORCE_SCALAR
/// it is a no-op that only reports success for kScalar.
bool SetBackend(Backend b);

/// Minimal aligned allocator: every allocation starts on an `Align`-byte
/// boundary, so vector loads/stores on the arena are aligned and two
/// arenas never share a cache line (the EpsilonScratch false-sharing
/// guarantee for pooled leases on sibling workers).
template <typename T, std::size_t Align = 64>
class AlignedAllocator {
 public:
  using value_type = T;
  static_assert((Align & (Align - 1)) == 0, "Align must be a power of two");
  static_assert(Align >= alignof(T), "Align must satisfy T's alignment");

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Align)));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(Align));
  }

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return false;
  }
};

template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T, 64>>;

// ---------------------------------------------------------------------------
// Lane policies. Each provides the same primitives; the templated
// kernel bodies in query/kernel_batch_impl.h are instantiated once per
// policy. Memory operands use unaligned loads/stores (free when the
// pointer happens to be aligned), so the primitives also work on caller
// buffers that predate the aligned arenas.
// ---------------------------------------------------------------------------

/// Scalar reference policy (also the only policy on non-x86 builds).
struct ScalarLanes {
  /// out[i] = 1 − p[i]·eps[idx[i]] for i in [0, n).
  static void Terms(const double* p, const std::uint32_t* idx,
                    const double* eps, double* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = 1.0 - p[i] * eps[idx[i]];
  }

  /// The subset-product doubling step: for m in [0, half),
  /// base[half + m] = base[m]·q then base[m] ·= nq — each element sees
  /// exactly one multiply, so the full doubling reproduces the scalar
  /// ascending-bit product bit-for-bit.
  static void Split(double* base, std::size_t half, double q, double nq) {
    for (std::size_t m = 0; m < half; ++m) {
      base[half + m] = base[m] * q;
      base[m] = base[m] * nq;
    }
  }

  /// Members-only doubling: base[half + m] = base[m]·q, lower half
  /// untouched (the ε subset table, where absent children contribute 1).
  static void ScaleHalf(double* base, std::size_t half, double q) {
    for (std::size_t m = 0; m < half; ++m) base[half + m] = base[m] * q;
  }

  /// Σ_r p[r]·table[mask[r]], scalar left-to-right.
  static double MaskedDot(const double* p, const std::uint32_t* mask,
                          std::size_t n, const double* table) {
    double s = 0.0;
    for (std::size_t r = 0; r < n; ++r) s += p[r] * table[mask[r]];
    return s;
  }

  /// MaskedDot with the identity mask (dense factors, where row r's
  /// subset-table slot is r): contiguous loads replace the gather. Every
  /// backend keeps its MaskedDot lane assignment and combine order, so
  /// Dot is bit-identical to MaskedDot over an identity mask.
  static double Dot(const double* p, const double* t, std::size_t n) {
    double s = 0.0;
    for (std::size_t r = 0; r < n; ++r) s += p[r] * t[r];
    return s;
  }
};

#if defined(__SSE2__)
/// SSE2 policy (x86-64 baseline). No gather instruction: index loads are
/// scalar, the arithmetic is 2-wide.
struct Sse2Lanes {
  static void Terms(const double* p, const std::uint32_t* idx,
                    const double* eps, double* out, std::size_t n) {
    const __m128d ones = _mm_set1_pd(1.0);
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      const __m128d e = _mm_set_pd(eps[idx[i + 1]], eps[idx[i]]);
      const __m128d pv = _mm_loadu_pd(p + i);
      _mm_storeu_pd(out + i, _mm_sub_pd(ones, _mm_mul_pd(pv, e)));
    }
    for (; i < n; ++i) out[i] = 1.0 - p[i] * eps[idx[i]];
  }

  static void Split(double* base, std::size_t half, double q, double nq) {
    if (half < 2) {
      ScalarLanes::Split(base, half, q, nq);
      return;
    }
    const __m128d qv = _mm_set1_pd(q);
    const __m128d nqv = _mm_set1_pd(nq);
    for (std::size_t m = 0; m < half; m += 2) {
      const __m128d b = _mm_loadu_pd(base + m);
      _mm_storeu_pd(base + half + m, _mm_mul_pd(b, qv));
      _mm_storeu_pd(base + m, _mm_mul_pd(b, nqv));
    }
  }

  static void ScaleHalf(double* base, std::size_t half, double q) {
    if (half < 2) {
      ScalarLanes::ScaleHalf(base, half, q);
      return;
    }
    const __m128d qv = _mm_set1_pd(q);
    for (std::size_t m = 0; m < half; m += 2) {
      _mm_storeu_pd(base + half + m,
                    _mm_mul_pd(_mm_loadu_pd(base + m), qv));
    }
  }

  static double MaskedDot(const double* p, const std::uint32_t* mask,
                          std::size_t n, const double* table) {
    __m128d acc = _mm_setzero_pd();
    std::size_t r = 0;
    for (; r + 2 <= n; r += 2) {
      const __m128d t = _mm_set_pd(table[mask[r + 1]], table[mask[r]]);
      const __m128d pv = _mm_loadu_pd(p + r);
      acc = _mm_add_pd(acc, _mm_mul_pd(pv, t));
    }
    double lanes[2];
    _mm_storeu_pd(lanes, acc);
    double s = lanes[0] + lanes[1];
    for (; r < n; ++r) s += p[r] * table[mask[r]];
    return s;
  }

  static double Dot(const double* p, const double* t, std::size_t n) {
    __m128d acc = _mm_setzero_pd();
    std::size_t r = 0;
    for (; r + 2 <= n; r += 2) {
      acc = _mm_add_pd(acc,
                       _mm_mul_pd(_mm_loadu_pd(p + r), _mm_loadu_pd(t + r)));
    }
    double lanes[2];
    _mm_storeu_pd(lanes, acc);
    double s = lanes[0] + lanes[1];
    for (; r < n; ++r) s += p[r] * t[r];
    return s;
  }
};
#endif  // __SSE2__

#if defined(__AVX2__)
/// AVX2 policy (compiled only into query/kernel_batch_avx2.cc, which is
/// built with -mavx2 and dispatched to only after the cpuid probe).
struct Avx2Lanes {
  static void Terms(const double* p, const std::uint32_t* idx,
                    const double* eps, double* out, std::size_t n) {
    const __m256d ones = _mm256_set1_pd(1.0);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m128i vidx =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + i));
      const __m256d e = _mm256_i32gather_pd(eps, vidx, 8);
      const __m256d pv = _mm256_loadu_pd(p + i);
      _mm256_storeu_pd(out + i, _mm256_sub_pd(ones, _mm256_mul_pd(pv, e)));
    }
    for (; i < n; ++i) out[i] = 1.0 - p[i] * eps[idx[i]];
  }

  static void Split(double* base, std::size_t half, double q, double nq) {
    if (half < 4) {
      ScalarLanes::Split(base, half, q, nq);
      return;
    }
    const __m256d qv = _mm256_set1_pd(q);
    const __m256d nqv = _mm256_set1_pd(nq);
    for (std::size_t m = 0; m < half; m += 4) {
      const __m256d b = _mm256_loadu_pd(base + m);
      _mm256_storeu_pd(base + half + m, _mm256_mul_pd(b, qv));
      _mm256_storeu_pd(base + m, _mm256_mul_pd(b, nqv));
    }
  }

  static void ScaleHalf(double* base, std::size_t half, double q) {
    if (half < 4) {
      ScalarLanes::ScaleHalf(base, half, q);
      return;
    }
    const __m256d qv = _mm256_set1_pd(q);
    for (std::size_t m = 0; m < half; m += 4) {
      _mm256_storeu_pd(base + half + m,
                       _mm256_mul_pd(_mm256_loadu_pd(base + m), qv));
    }
  }

  static double MaskedDot(const double* p, const std::uint32_t* mask,
                          std::size_t n, const double* table) {
    __m256d acc = _mm256_setzero_pd();
    std::size_t r = 0;
    for (; r + 4 <= n; r += 4) {
      const __m128i m =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(mask + r));
      const __m256d t = _mm256_i32gather_pd(table, m, 8);
      const __m256d pv = _mm256_loadu_pd(p + r);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(pv, t));
    }
    double lanes[4];
    _mm256_storeu_pd(lanes, acc);
    double s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for (; r < n; ++r) s += p[r] * table[mask[r]];
    return s;
  }

  static double Dot(const double* p, const double* t, std::size_t n) {
    __m256d acc = _mm256_setzero_pd();
    std::size_t r = 0;
    for (; r + 4 <= n; r += 4) {
      acc = _mm256_add_pd(
          acc, _mm256_mul_pd(_mm256_loadu_pd(p + r), _mm256_loadu_pd(t + r)));
    }
    double lanes[4];
    _mm256_storeu_pd(lanes, acc);
    double s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for (; r < n; ++r) s += p[r] * t[r];
    return s;
  }
};
#endif  // __AVX2__

}  // namespace pxml::simd

#endif  // PXML_UTIL_SIMD_H_
