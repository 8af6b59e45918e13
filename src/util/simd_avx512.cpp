// AVX-512 kernel implementations (64 u8 / 32 u16 lanes per vector).
//
// Requires both avx512f (foundation, 512-bit integer ops, 32-bit gathers)
// and avx512bw (byte/word min/max and mask-register compares → __mmask64);
// the runtime CPUID probe in simd.cpp checks the same pair before this
// fill is ever consulted. Compiled with -mavx512f -mavx512bw for this
// translation unit only; everywhere the toolchain can't do that, the stub
// at the bottom reports the level unavailable.
//
// Same exactness contract as the AVX2 TU — all-integer, bit-identical to
// the scalar references. The mask registers actually simplify several
// kernels relative to AVX2: strict-< and unsigned-> exist directly as
// compare predicates (no min/max identity games), and the argmin/index
// emission loops walk a __mmask64 with count-trailing-zeros in ascending
// lane order, preserving the scalar write order.
#include <cstdint>

#include "util/simd_detail.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__x86_64__)

#include <immintrin.h>

#include <algorithm>
#include <bit>

namespace bncg::simd {
namespace {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;

inline __m512i loadu(const void* p) { return _mm512_loadu_si512(p); }
inline void storeu(void* p, __m512i v) { _mm512_storeu_si512(p, v); }

inline u8 hmax_epu8_512(__m512i v) {
  __m256i a = _mm256_max_epu8(_mm512_castsi512_si256(v), _mm512_extracti64x4_epi64(v, 1));
  __m128i m = _mm_max_epu8(_mm256_castsi256_si128(a), _mm256_extracti128_si256(a, 1));
  m = _mm_max_epu8(m, _mm_srli_si128(m, 8));
  m = _mm_max_epu8(m, _mm_srli_si128(m, 4));
  m = _mm_max_epu8(m, _mm_srli_si128(m, 2));
  m = _mm_max_epu8(m, _mm_srli_si128(m, 1));
  return static_cast<u8>(_mm_cvtsi128_si32(m));
}

inline u16 hmax_epu16_512(__m512i v) {
  __m256i a = _mm256_max_epu16(_mm512_castsi512_si256(v), _mm512_extracti64x4_epi64(v, 1));
  __m128i m = _mm_max_epu16(_mm256_castsi256_si128(a), _mm256_extracti128_si256(a, 1));
  m = _mm_max_epu16(m, _mm_srli_si128(m, 8));
  m = _mm_max_epu16(m, _mm_srli_si128(m, 4));
  m = _mm_max_epu16(m, _mm_srli_si128(m, 2));
  return static_cast<u16>(_mm_cvtsi128_si32(m));
}

inline __m512i widen_sum_epi32_512(__m512i acc, __m512i t) {
  const __m512i zero = _mm512_setzero_si512();
  return _mm512_add_epi32(
      acc, _mm512_add_epi32(_mm512_unpacklo_epi16(t, zero), _mm512_unpackhi_epi16(t, zero)));
}

// ------------------------------------------------------------ u8 kernels

u64 combine_sum_u8(const u8* m, const u8* c, u32 n, u8 inf) {
  const __m512i zero = _mm512_setzero_si512();
  __m512i acc = zero;
  __m512i worst = zero;
  u32 y = 0;
  for (; y + 64 <= n; y += 64) {
    const __m512i t = _mm512_min_epu8(loadu(m + y), loadu(c + y));
    worst = _mm512_max_epu8(worst, t);
    acc = _mm512_add_epi64(acc, _mm512_sad_epu8(t, zero));
  }
  u32 sum = static_cast<u32>(_mm512_reduce_add_epi64(acc));
  u8 w = hmax_epu8_512(worst);
  for (; y < n; ++y) {
    const u8 t = std::min(m[y], c[y]);
    sum += t;
    w = std::max(w, t);
  }
  if (w >= inf) return kInfCostResult;
  return u64{sum} + (n - 1);
}

u64 combine_max_u8(const u8* m, const u8* c, u32 n, u8 inf) {
  __m512i worst = _mm512_setzero_si512();
  u32 y = 0;
  for (; y + 64 <= n; y += 64) {
    worst = _mm512_max_epu8(worst, _mm512_min_epu8(loadu(m + y), loadu(c + y)));
  }
  u8 w = hmax_epu8_512(worst);
  for (; y < n; ++y) w = std::max(w, std::min(m[y], c[y]));
  return w >= inf ? kInfCostResult : u64{1} + w;
}

u64 deletion_ecc_u8(const u8* m, u32 n, u8 inf) {
  __m512i worst = _mm512_setzero_si512();
  u32 y = 0;
  for (; y + 64 <= n; y += 64) worst = _mm512_max_epu8(worst, loadu(m + y));
  u8 w = hmax_epu8_512(worst);
  for (; y < n; ++y) w = std::max(w, m[y]);
  return w >= inf ? kInfCostResult : u64{1} + w;
}

void scan_min_update_u8(u8* min1, u8* min2, u32* argmin, const u8* row, u32 z, u32 n) {
  u32 y = 0;
  for (; y + 64 <= n; y += 64) {
    const __m512i val = loadu(row + y);
    const __m512i m1 = loadu(min1 + y);
    const __m512i m2 = loadu(min2 + y);
    storeu(min1 + y, _mm512_min_epu8(m1, val));
    storeu(min2 + y, _mm512_min_epu8(m2, _mm512_max_epu8(m1, val)));
    u64 bits = _mm512_cmplt_epu8_mask(val, m1);  // strict <, scalar tie-break
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      argmin[y + static_cast<u32>(b)] = z;
    }
  }
  for (; y < n; ++y) {
    const u8 val = row[y];
    if (val < min1[y]) {
      min2[y] = min1[y];
      min1[y] = val;
      argmin[y] = z;
    } else if (val < min2[y]) {
      min2[y] = val;
    }
  }
}

void select_mrow_u8(u8* m, const u8* min1, const u8* min2, const u32* argmin, u32 w, u32 n) {
  const __m512i wv = _mm512_set1_epi32(static_cast<int>(w));
  u32 y = 0;
  for (; y + 64 <= n; y += 64) {
    __mmask64 mask = 0;
    for (u32 j = 0; j < 4; ++j) {
      const __mmask16 mj = _mm512_cmpeq_epi32_mask(loadu(argmin + y + 16 * j), wv);
      mask |= static_cast<u64>(mj) << (16 * j);
    }
    storeu(m + y, _mm512_mask_blend_epi8(mask, loadu(min1 + y), loadu(min2 + y)));
  }
  for (; y < n; ++y) m[y] = argmin[y] == w ? min2[y] : min1[y];
}

void row_sum_max_u8(const u8* row, u32 n, u32* sum, u8* mx) {
  const __m512i zero = _mm512_setzero_si512();
  __m512i acc = zero;
  __m512i worst = zero;
  u32 y = 0;
  for (; y + 64 <= n; y += 64) {
    const __m512i t = loadu(row + y);
    worst = _mm512_max_epu8(worst, t);
    acc = _mm512_add_epi64(acc, _mm512_sad_epu8(t, zero));
  }
  u32 s = static_cast<u32>(_mm512_reduce_add_epi64(acc));
  u8 w = hmax_epu8_512(worst);
  for (; y < n; ++y) {
    s += row[y];
    w = std::max(w, row[y]);
  }
  *sum = s;
  *mx = w;
}

u32 collect_above_u8(const u8* vals, u32 n, std::int32_t cap, u32 skip, u32* out) {
  u32 count = 0;
  if (cap < 0) {
    for (u32 y = 0; y < n; ++y) {
      out[count] = y;
      count += static_cast<u32>(y != skip);
    }
    return count;
  }
  if (cap >= 0xFF) return 0;
  const __m512i capv = _mm512_set1_epi8(static_cast<char>(static_cast<u8>(cap)));
  u32 y = 0;
  for (; y + 64 <= n; y += 64) {
    u64 bits = _mm512_cmpgt_epu8_mask(loadu(vals + y), capv);
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      const u32 idx = y + static_cast<u32>(b);
      out[count] = idx;
      count += static_cast<u32>(idx != skip);
    }
  }
  for (; y < n; ++y) {
    if (y != skip && static_cast<std::int32_t>(vals[y]) > cap) out[count++] = y;
  }
  return count;
}

u32 collect_below_u8(const u8* vals, u32 n, std::int32_t cap, u32 skip, u32* out) {
  u32 count = 0;
  if (cap <= 0) return 0;
  if (cap > 0xFF) {
    for (u32 y = 0; y < n; ++y) {
      out[count] = y;
      count += static_cast<u32>(y != skip);
    }
    return count;
  }
  const __m512i capv = _mm512_set1_epi8(static_cast<char>(static_cast<u8>(cap)));
  u32 y = 0;
  for (; y + 64 <= n; y += 64) {
    u64 bits = _mm512_cmplt_epu8_mask(loadu(vals + y), capv);
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      const u32 idx = y + static_cast<u32>(b);
      out[count] = idx;
      count += static_cast<u32>(idx != skip);
    }
  }
  for (; y < n; ++y) {
    if (y != skip && static_cast<std::int32_t>(vals[y]) < cap) out[count++] = y;
  }
  return count;
}

bool keep_within_u8(u64* alive, const u8* row, u32 n, std::int32_t cap) {
  const u32 words = (n + 63) / 64;
  if (cap < 0) {
    std::fill(alive, alive + words, u64{0});
    return false;
  }
  const __m512i capv = _mm512_set1_epi8(static_cast<char>(std::min<std::int32_t>(cap, 0xFF)));
  u64 any = 0;
  for (u32 j = 0; j < words; ++j) {
    if (alive[j] == 0) continue;
    const u32 y = j * 64;
    const __mmask64 lanes = n - y >= 64 ? ~u64{0} : (u64{1} << (n - y)) - 1;
    alive[j] &= _mm512_mask_cmple_epu8_mask(lanes, _mm512_maskz_loadu_epi8(lanes, row + y), capv);
    any |= alive[j];
  }
  return any != 0;
}

void min_fold_u8(u8* dst, const u8* row, u32 n) {
  u32 y = 0;
  for (; y + 64 <= n; y += 64) {
    storeu(dst + y, _mm512_min_epu8(loadu(dst + y), loadu(row + y)));
  }
  for (; y < n; ++y) dst[y] = std::min(dst[y], row[y]);
}

u32 collect_absdiff_gt1_u8(const u8* ru, const u8* rv, u32 n, u32* out) {
  const __m512i one = _mm512_set1_epi8(1);
  u32 count = 0;
  u32 y = 0;
  for (; y + 64 <= n; y += 64) {
    const __m512i a = loadu(ru + y);
    const __m512i b = loadu(rv + y);
    const __m512i d = _mm512_or_si512(_mm512_subs_epu8(a, b), _mm512_subs_epu8(b, a));
    u64 bits = _mm512_cmpgt_epu8_mask(d, one);
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      bits &= bits - 1;
      out[count++] = y + static_cast<u32>(bit);
    }
  }
  for (; y < n; ++y) {
    const u8 du = ru[y];
    const u8 dv = rv[y];
    if ((du > dv ? du - dv : dv - du) > 1) out[count++] = y;
  }
  return count;
}

// ----------------------------------------------------------- u16 kernels

u64 combine_sum_u16(const u16* m, const u16* c, u32 n, u16 inf) {
  __m512i acc = _mm512_setzero_si512();
  __m512i worst = _mm512_setzero_si512();
  u32 y = 0;
  for (; y + 32 <= n; y += 32) {
    const __m512i t = _mm512_min_epu16(loadu(m + y), loadu(c + y));
    worst = _mm512_max_epu16(worst, t);
    acc = widen_sum_epi32_512(acc, t);
  }
  u32 sum = static_cast<u32>(_mm512_reduce_add_epi32(acc));
  u16 w = hmax_epu16_512(worst);
  for (; y < n; ++y) {
    const u16 t = std::min(m[y], c[y]);
    sum += t;
    w = std::max(w, t);
  }
  if (w >= inf) return kInfCostResult;
  return u64{sum} + (n - 1);
}

u64 combine_max_u16(const u16* m, const u16* c, u32 n, u16 inf) {
  __m512i worst = _mm512_setzero_si512();
  u32 y = 0;
  for (; y + 32 <= n; y += 32) {
    worst = _mm512_max_epu16(worst, _mm512_min_epu16(loadu(m + y), loadu(c + y)));
  }
  u16 w = hmax_epu16_512(worst);
  for (; y < n; ++y) w = std::max(w, std::min(m[y], c[y]));
  return w >= inf ? kInfCostResult : u64{1} + w;
}

u64 deletion_ecc_u16(const u16* m, u32 n, u16 inf) {
  __m512i worst = _mm512_setzero_si512();
  u32 y = 0;
  for (; y + 32 <= n; y += 32) worst = _mm512_max_epu16(worst, loadu(m + y));
  u16 w = hmax_epu16_512(worst);
  for (; y < n; ++y) w = std::max(w, m[y]);
  return w >= inf ? kInfCostResult : u64{1} + w;
}

void scan_min_update_u16(u16* min1, u16* min2, u32* argmin, const u16* row, u32 z, u32 n) {
  u32 y = 0;
  for (; y + 32 <= n; y += 32) {
    const __m512i val = loadu(row + y);
    const __m512i m1 = loadu(min1 + y);
    const __m512i m2 = loadu(min2 + y);
    storeu(min1 + y, _mm512_min_epu16(m1, val));
    storeu(min2 + y, _mm512_min_epu16(m2, _mm512_max_epu16(m1, val)));
    u32 bits = _mm512_cmplt_epu16_mask(val, m1);
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      argmin[y + static_cast<u32>(b)] = z;
    }
  }
  for (; y < n; ++y) {
    const u16 val = row[y];
    if (val < min1[y]) {
      min2[y] = min1[y];
      min1[y] = val;
      argmin[y] = z;
    } else if (val < min2[y]) {
      min2[y] = val;
    }
  }
}

void select_mrow_u16(u16* m, const u16* min1, const u16* min2, const u32* argmin, u32 w, u32 n) {
  const __m512i wv = _mm512_set1_epi32(static_cast<int>(w));
  u32 y = 0;
  for (; y + 32 <= n; y += 32) {
    const __mmask16 lo = _mm512_cmpeq_epi32_mask(loadu(argmin + y), wv);
    const __mmask16 hi = _mm512_cmpeq_epi32_mask(loadu(argmin + y + 16), wv);
    const __mmask32 mask = static_cast<__mmask32>(lo) | (static_cast<__mmask32>(hi) << 16);
    storeu(m + y, _mm512_mask_blend_epi16(mask, loadu(min1 + y), loadu(min2 + y)));
  }
  for (; y < n; ++y) m[y] = argmin[y] == w ? min2[y] : min1[y];
}

void row_sum_max_u16(const u16* row, u32 n, u32* sum, u16* mx) {
  __m512i acc = _mm512_setzero_si512();
  __m512i worst = _mm512_setzero_si512();
  u32 y = 0;
  for (; y + 32 <= n; y += 32) {
    const __m512i t = loadu(row + y);
    worst = _mm512_max_epu16(worst, t);
    acc = widen_sum_epi32_512(acc, t);
  }
  u32 s = static_cast<u32>(_mm512_reduce_add_epi32(acc));
  u16 w = hmax_epu16_512(worst);
  for (; y < n; ++y) {
    s += row[y];
    w = std::max(w, row[y]);
  }
  *sum = s;
  *mx = w;
}

u32 collect_above_u16(const u16* vals, u32 n, std::int32_t cap, u32 skip, u32* out) {
  u32 count = 0;
  if (cap < 0) {
    for (u32 y = 0; y < n; ++y) {
      out[count] = y;
      count += static_cast<u32>(y != skip);
    }
    return count;
  }
  if (cap >= 0xFFFF) return 0;
  const __m512i capv = _mm512_set1_epi16(static_cast<short>(static_cast<u16>(cap)));
  u32 y = 0;
  for (; y + 32 <= n; y += 32) {
    u32 bits = _mm512_cmpgt_epu16_mask(loadu(vals + y), capv);
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      const u32 idx = y + static_cast<u32>(b);
      out[count] = idx;
      count += static_cast<u32>(idx != skip);
    }
  }
  for (; y < n; ++y) {
    if (y != skip && static_cast<std::int32_t>(vals[y]) > cap) out[count++] = y;
  }
  return count;
}

u32 collect_below_u16(const u16* vals, u32 n, std::int32_t cap, u32 skip, u32* out) {
  u32 count = 0;
  if (cap <= 0) return 0;
  if (cap > 0xFFFF) {
    for (u32 y = 0; y < n; ++y) {
      out[count] = y;
      count += static_cast<u32>(y != skip);
    }
    return count;
  }
  const __m512i capv = _mm512_set1_epi16(static_cast<short>(static_cast<u16>(cap)));
  u32 y = 0;
  for (; y + 32 <= n; y += 32) {
    u32 bits = _mm512_cmplt_epu16_mask(loadu(vals + y), capv);
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      const u32 idx = y + static_cast<u32>(b);
      out[count] = idx;
      count += static_cast<u32>(idx != skip);
    }
  }
  for (; y < n; ++y) {
    if (y != skip && static_cast<std::int32_t>(vals[y]) < cap) out[count++] = y;
  }
  return count;
}

bool keep_within_u16(u64* alive, const u16* row, u32 n, std::int32_t cap) {
  const u32 words = (n + 63) / 64;
  if (cap < 0) {
    std::fill(alive, alive + words, u64{0});
    return false;
  }
  const __m512i capv =
      _mm512_set1_epi16(static_cast<short>(std::min<std::int32_t>(cap, 0xFFFF)));
  // One 32-lane compare per half word; the lane masks keep the tail loads in
  // bounds.
  const auto half = [&](u32 y) -> u64 {
    const __mmask32 lanes = y >= n ? 0 : n - y >= 32 ? ~u32{0} : (u32{1} << (n - y)) - 1;
    return _mm512_mask_cmple_epu16_mask(lanes, _mm512_maskz_loadu_epi16(lanes, row + y), capv);
  };
  u64 any = 0;
  for (u32 j = 0; j < words; ++j) {
    if (alive[j] == 0) continue;
    alive[j] &= half(j * 64) | half(j * 64 + 32) << 32;
    any |= alive[j];
  }
  return any != 0;
}

void min_fold_u16(u16* dst, const u16* row, u32 n) {
  u32 y = 0;
  for (; y + 32 <= n; y += 32) {
    storeu(dst + y, _mm512_min_epu16(loadu(dst + y), loadu(row + y)));
  }
  for (; y < n; ++y) dst[y] = std::min(dst[y], row[y]);
}

u32 collect_absdiff_gt1_u16(const u16* ru, const u16* rv, u32 n, u32* out) {
  const __m512i one = _mm512_set1_epi16(1);
  u32 count = 0;
  u32 y = 0;
  for (; y + 32 <= n; y += 32) {
    const __m512i a = loadu(ru + y);
    const __m512i b = loadu(rv + y);
    const __m512i d = _mm512_or_si512(_mm512_subs_epu16(a, b), _mm512_subs_epu16(b, a));
    u32 bits = _mm512_cmpgt_epu16_mask(d, one);
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      bits &= bits - 1;
      out[count++] = y + static_cast<u32>(bit);
    }
  }
  for (; y < n; ++y) {
    const u16 du = ru[y];
    const u16 dv = rv[y];
    if ((du > dv ? du - dv : dv - du) > 1) out[count++] = y;
  }
  return count;
}

// ----------------------------------------------------------- word kernels

u64 or_gather_avx512(const u64* words, const u32* idx, std::size_t count) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256i vi = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + i));
    acc = _mm512_or_si512(acc, _mm512_i32gather_epi64(vi, words, 8));
  }
  u64 word = static_cast<u64>(_mm512_reduce_or_epi64(acc));
  for (; i < count; ++i) word |= words[idx[i]];
  return word;
}

}  // namespace

namespace detail {

bool fill_avx512(Kernels<u8>& k8, Kernels<u16>& k16, WordKernels& kw) {
  k8.combine_sum = &combine_sum_u8;
  k8.combine_max = &combine_max_u8;
  k8.deletion_ecc = &deletion_ecc_u8;
  k8.scan_min_update = &scan_min_update_u8;
  k8.select_mrow = &select_mrow_u8;
  k8.row_sum_max = &row_sum_max_u8;
  k8.collect_above = &collect_above_u8;
  k8.collect_below = &collect_below_u8;
  k8.keep_within = &keep_within_u8;
  k8.min_fold = &min_fold_u8;
  k8.collect_absdiff_gt1 = &collect_absdiff_gt1_u8;

  k16.combine_sum = &combine_sum_u16;
  k16.combine_max = &combine_max_u16;
  k16.deletion_ecc = &deletion_ecc_u16;
  k16.scan_min_update = &scan_min_update_u16;
  k16.select_mrow = &select_mrow_u16;
  k16.row_sum_max = &row_sum_max_u16;
  k16.collect_above = &collect_above_u16;
  k16.collect_below = &collect_below_u16;
  k16.keep_within = &keep_within_u16;
  k16.min_fold = &min_fold_u16;
  k16.collect_absdiff_gt1 = &collect_absdiff_gt1_u16;

  kw.or_gather = &or_gather_avx512;
  return true;
}

}  // namespace detail
}  // namespace bncg::simd

#else  // toolchain or target without AVX-512 F+BW

namespace bncg::simd::detail {

bool fill_avx512(Kernels<std::uint8_t>&, Kernels<std::uint16_t>&, WordKernels&) { return false; }

}  // namespace bncg::simd::detail

#endif
