#ifndef HC2L_COMMON_SIMD_H_
#define HC2L_COMMON_SIMD_H_

/// Portable min-plus kernel: the HC2L query inner loop (Eq. 7) reduced to
///
///   MinPlus(a, b, len) = min_i sat32(a[i] + b[i]),   i in [0, len)
///
/// where sat32 is the unsigned 32-bit *saturating* sum. Saturation is what
/// makes a 32-bit vector kernel sound: label entries are either finite
/// distances (< 2^31, enforced at encode time) or the kUnreachableLabel
/// sentinel (UINT32_MAX). A finite+finite sum fits in 32 bits exactly; any
/// sum involving a sentinel saturates to UINT32_MAX instead of wrapping past
/// it, so "unreachable" can never masquerade as a short distance. The caller
/// maps a result >= UINT32_MAX back to kInfDist.
///
/// Every path reads exactly a[0, len) and b[0, len), never a lane past the
/// end, so label arrays can be packed back to back in their arena with no
/// padding. An array of at least one vector is covered by the vector that
/// ends at len plus whole vectors from 0, which overlap it when len is not
/// a multiple of the width (min is idempotent, so no tail loop or branch);
/// a shorter array takes an AVX2 masked load or, on the 4-lane paths, the
/// scalar loop.
///
/// Dispatch is at compile time: AVX2 > SSE2 (with an SSE4.1 refinement) >
/// NEON > scalar. All paths are bit-identical to MinPlusScalar — the scalar
/// reference stays available on every platform for differential testing.

#include <cstddef>
#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#define HC2L_SIMD_AVX2 1
#elif defined(__SSE2__) || (defined(_M_X64) && !defined(_M_ARM64EC))
#include <emmintrin.h>
#if defined(__SSE4_1__)
#include <smmintrin.h>
#endif
#define HC2L_SIMD_SSE2 1
#elif (defined(__ARM_NEON) || defined(__ARM_NEON__)) && defined(__aarch64__)
// AArch64 only: the kernel uses vminvq_u32, absent from 32-bit NEON.
#include <arm_neon.h>
#define HC2L_SIMD_NEON 1
#endif

namespace hc2l {
namespace simd {

/// Name of the compiled-in kernel, for benchmark/CLI reporting.
#if defined(HC2L_SIMD_AVX2)
inline constexpr const char* kKernelName = "avx2";
#elif defined(HC2L_SIMD_SSE2) && defined(__SSE4_1__)
inline constexpr const char* kKernelName = "sse4.1";
#elif defined(HC2L_SIMD_SSE2)
inline constexpr const char* kKernelName = "sse2";
#elif defined(HC2L_SIMD_NEON)
inline constexpr const char* kKernelName = "neon";
#else
inline constexpr const char* kKernelName = "scalar";
#endif

/// Hints the prefetcher at the cache line holding p (read, high locality).
inline void PrefetchRead(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0, 3);
#else
  (void)p;
#endif
}

/// Prefetches up to `bytes` of the array at p, one hint per 64-byte line,
/// capped at 4 lines (beyond that the hardware streamer takes over).
inline void PrefetchArray(const void* p, size_t bytes) {
  const auto* c = static_cast<const char*>(p);
  const size_t lines = bytes == 0 ? 1 : (bytes + 63) / 64;
  for (size_t i = 0; i < (lines < 4 ? lines : 4); ++i) {
    PrefetchRead(c + i * 64);
  }
}

/// Unsigned 32-bit saturating sum.
inline uint32_t SatAdd32(uint32_t a, uint32_t b) {
  const uint32_t sum = a + b;
  return sum < a ? UINT32_MAX : sum;
}

/// Scalar reference kernel. Returns UINT32_MAX for len == 0.
inline uint32_t MinPlusScalar(const uint32_t* a, const uint32_t* b,
                              size_t len) {
  uint32_t best = UINT32_MAX;
  for (size_t i = 0; i < len; ++i) {
    const uint32_t sum = SatAdd32(a[i], b[i]);
    if (sum < best) best = sum;
  }
  return best;
}

#if defined(HC2L_SIMD_AVX2)

namespace internal {

/// Horizontal unsigned min over 8 lanes.
inline uint32_t HorizontalMin(__m256i v) {
  __m128i m = _mm_min_epu32(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  m = _mm_min_epu32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(1, 0, 3, 2)));
  m = _mm_min_epu32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(2, 3, 0, 1)));
  return static_cast<uint32_t>(_mm_cvtsi128_si32(m));
}

/// Lane-wise unsigned saturating sum: min(a, ~b) + b. If a <= ~b the sum
/// cannot wrap; otherwise it clamps to exactly ~b + b = UINT32_MAX.
inline __m256i SatAddLanes(__m256i a, __m256i b) {
  const __m256i not_b = _mm256_xor_si256(b, _mm256_set1_epi32(-1));
  return _mm256_add_epi32(_mm256_min_epu32(a, not_b), b);
}

/// Saturating sums of the 8 lanes starting at entry i.
inline __m256i SumAt(const uint32_t* a, const uint32_t* b, size_t i) {
  return SatAddLanes(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
}

}  // namespace internal

inline uint32_t MinPlus(const uint32_t* a, const uint32_t* b, size_t len) {
  if (len < 8) {
    if (len == 0) return UINT32_MAX;
    // Lanes [len, 8) are masked off: not read (no fault even at the end of
    // a page) and loaded as 0. OR-ing the inverted mask makes their sums
    // the sentinel, so they never win the min.
    const __m256i mask =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(len)),
                           _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    const __m256i va =
        _mm256_maskload_epi32(reinterpret_cast<const int*>(a), mask);
    const __m256i vb =
        _mm256_maskload_epi32(reinterpret_cast<const int*>(b), mask);
    return internal::HorizontalMin(
        _mm256_or_si256(internal::SatAddLanes(va, vb),
                        _mm256_xor_si256(mask, _mm256_set1_epi32(-1))));
  }
  // Start from the vector that ends exactly at len; the whole vectors from
  // 0 cover the rest, overlapping it when len % 8 != 0.
  __m256i best = internal::SumAt(a, b, len - 8);
  for (size_t i = 0; i + 8 < len; i += 8) {
    best = _mm256_min_epu32(best, internal::SumAt(a, b, i));
  }
  return internal::HorizontalMin(best);
}

#elif defined(HC2L_SIMD_SSE2)

namespace internal {

inline __m128i MinU32(__m128i x, __m128i y) {
#if defined(__SSE4_1__)
  return _mm_min_epu32(x, y);
#else
  // SSE2 has no unsigned 32-bit min: bias by 2^31 and compare signed.
  const __m128i bias = _mm_set1_epi32(static_cast<int>(0x80000000u));
  const __m128i gt =
      _mm_cmpgt_epi32(_mm_xor_si128(x, bias), _mm_xor_si128(y, bias));
  return _mm_or_si128(_mm_and_si128(gt, y), _mm_andnot_si128(gt, x));
#endif
}

inline uint32_t HorizontalMin(__m128i v) {
  v = MinU32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
  v = MinU32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1)));
  return static_cast<uint32_t>(_mm_cvtsi128_si32(v));
}

inline __m128i SatAddLanes(__m128i a, __m128i b) {
  const __m128i not_b = _mm_xor_si128(b, _mm_set1_epi32(-1));
  return _mm_add_epi32(MinU32(a, not_b), b);
}

/// Saturating sums of the 4 lanes starting at entry i.
inline __m128i SumAt(const uint32_t* a, const uint32_t* b, size_t i) {
  return SatAddLanes(_mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)),
                     _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)));
}

}  // namespace internal

inline uint32_t MinPlus(const uint32_t* a, const uint32_t* b, size_t len) {
  if (len < 4) return MinPlusScalar(a, b, len);
  // As on AVX2: the vector ending at len, then whole vectors from 0.
  __m128i best = internal::SumAt(a, b, len - 4);
  for (size_t i = 0; i + 4 < len; i += 4) {
    best = internal::MinU32(best, internal::SumAt(a, b, i));
  }
  return internal::HorizontalMin(best);
}

#elif defined(HC2L_SIMD_NEON)

inline uint32_t MinPlus(const uint32_t* a, const uint32_t* b, size_t len) {
  if (len < 4) return MinPlusScalar(a, b, len);
  // vqaddq_u32 is the native unsigned saturating sum.
  const auto sum_at = [a, b](size_t i) {
    return vqaddq_u32(vld1q_u32(a + i), vld1q_u32(b + i));
  };
  // As on AVX2: the vector ending at len, then whole vectors from 0.
  uint32x4_t best = sum_at(len - 4);
  for (size_t i = 0; i + 4 < len; i += 4) best = vminq_u32(best, sum_at(i));
  return vminvq_u32(best);
}

#else

inline uint32_t MinPlus(const uint32_t* a, const uint32_t* b, size_t len) {
  return MinPlusScalar(a, b, len);
}

#endif

}  // namespace simd
}  // namespace hc2l

#endif  // HC2L_COMMON_SIMD_H_
