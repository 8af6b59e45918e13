// AVX2 kernel implementations (32 u8 / 16 u16 lanes per vector).
//
// Compiled with -mavx2 for this translation unit only (see CMakeLists.txt);
// the dispatch core calls detail::fill_avx2 strictly after a runtime CPUID
// check, so no AVX2 instruction executes on a CPU without it. On targets
// where the compiler cannot build AVX2 at all, the fallback stub at the
// bottom reports the level unavailable and the tables stay scalar.
//
// Exactness notes, kernel by kernel, against the scalar references in
// simd.cpp (all-integer arithmetic — every equivalence is exact, not
// approximate):
//  * combine_sum/row_sum_max accumulate u8 via _mm256_sad_epu8 (exact u64
//    partial sums) and u16 via zero-extended u32 lanes; both reduce mod 2^32
//    exactly like the scalar uint32 accumulator (which cannot overflow for
//    u8/u16 values at n < 65535 anyway).
//  * scan_min_update computes min1' = min(min1, val) and
//    min2' = min(min2, max(min1, val)) — with min1 ≤ min2 these reproduce
//    the scalar's branch cascade exactly — and derives the strict-< "val
//    beat min1" mask as min1' != min1, updating argmin only at set mask
//    bits in ascending lane order (the scalar write order).
//  * unsigned compares are synthesized from min/max identities
//    (a > b ⇔ max(a, b) != b), since AVX2 has no unsigned compare-gt.
//  * addition_row adds in the element width (wrap mod 2^width), matching
//    the scalar static_cast<Dist> exactly.
//  * the collect_* filters emit indices in ascending order via
//    movemask + count-trailing-zeros, preserving the scalar's output order;
//    keep_within tests v ≤ cap as min(v, cap) == v, and its u16 body packs
//    two compares to bytes before the movemask.
#include <cstdint>

#include "util/simd_detail.hpp"

#if defined(__AVX2__) && defined(__x86_64__)

#include <immintrin.h>

#include <algorithm>
#include <bit>

namespace bncg::simd {
namespace {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;

inline __m256i loadu(const void* p) {
  return _mm256_loadu_si256(static_cast<const __m256i*>(p));
}
inline void storeu(void* p, __m256i v) { _mm256_storeu_si256(static_cast<__m256i*>(p), v); }

inline u64 hsum_epi64(__m256i v) {
  const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  return static_cast<u64>(_mm_cvtsi128_si64(s)) +
         static_cast<u64>(_mm_extract_epi64(s, 1));
}

inline u32 hsum_epi32(__m256i v) {
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi32(s, _mm_srli_si128(s, 8));
  s = _mm_add_epi32(s, _mm_srli_si128(s, 4));
  return static_cast<u32>(_mm_cvtsi128_si32(s));
}

inline u8 hmax_epu8(__m256i v) {
  __m128i m = _mm_max_epu8(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  m = _mm_max_epu8(m, _mm_srli_si128(m, 8));
  m = _mm_max_epu8(m, _mm_srli_si128(m, 4));
  m = _mm_max_epu8(m, _mm_srli_si128(m, 2));
  m = _mm_max_epu8(m, _mm_srli_si128(m, 1));
  return static_cast<u8>(_mm_cvtsi128_si32(m));
}

inline u16 hmax_epu16(__m256i v) {
  __m128i m = _mm_max_epu16(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  m = _mm_max_epu16(m, _mm_srli_si128(m, 8));
  m = _mm_max_epu16(m, _mm_srli_si128(m, 4));
  m = _mm_max_epu16(m, _mm_srli_si128(m, 2));
  return static_cast<u16>(_mm_cvtsi128_si32(m));
}

// ------------------------------------------------------------ u8 kernels

u64 combine_sum_u8(const u8* m, const u8* c, u32 n, u8 inf) {
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  __m256i worst = zero;
  u32 y = 0;
  for (; y + 32 <= n; y += 32) {
    const __m256i t = _mm256_min_epu8(loadu(m + y), loadu(c + y));
    worst = _mm256_max_epu8(worst, t);
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(t, zero));
  }
  u32 sum = static_cast<u32>(hsum_epi64(acc));
  u8 w = hmax_epu8(worst);
  for (; y < n; ++y) {
    const u8 t = std::min(m[y], c[y]);
    sum += t;
    w = std::max(w, t);
  }
  if (w >= inf) return kInfCostResult;
  return u64{sum} + (n - 1);
}

u64 combine_max_u8(const u8* m, const u8* c, u32 n, u8 inf) {
  __m256i worst = _mm256_setzero_si256();
  u32 y = 0;
  for (; y + 32 <= n; y += 32) {
    worst = _mm256_max_epu8(worst, _mm256_min_epu8(loadu(m + y), loadu(c + y)));
  }
  u8 w = hmax_epu8(worst);
  for (; y < n; ++y) w = std::max(w, std::min(m[y], c[y]));
  return w >= inf ? kInfCostResult : u64{1} + w;
}

u64 deletion_ecc_u8(const u8* m, u32 n, u8 inf) {
  __m256i worst = _mm256_setzero_si256();
  u32 y = 0;
  for (; y + 32 <= n; y += 32) worst = _mm256_max_epu8(worst, loadu(m + y));
  u8 w = hmax_epu8(worst);
  for (; y < n; ++y) w = std::max(w, m[y]);
  return w >= inf ? kInfCostResult : u64{1} + w;
}

void scan_min_update_u8(u8* min1, u8* min2, u32* argmin, const u8* row, u32 z, u32 n) {
  u32 y = 0;
  for (; y + 32 <= n; y += 32) {
    const __m256i val = loadu(row + y);
    const __m256i m1 = loadu(min1 + y);
    const __m256i m2 = loadu(min2 + y);
    const __m256i nm1 = _mm256_min_epu8(m1, val);
    storeu(min1 + y, nm1);
    storeu(min2 + y, _mm256_min_epu8(m2, _mm256_max_epu8(m1, val)));
    u32 bits = ~static_cast<u32>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(nm1, m1)));
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
  const __m256i wv = _mm256_set1_epi32(static_cast<int>(w));
  const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  u32 y = 0;
  for (; y + 32 <= n; y += 32) {
    const __m256i a0 = _mm256_cmpeq_epi32(loadu(argmin + y), wv);
    const __m256i a1 = _mm256_cmpeq_epi32(loadu(argmin + y + 8), wv);
    const __m256i a2 = _mm256_cmpeq_epi32(loadu(argmin + y + 16), wv);
    const __m256i a3 = _mm256_cmpeq_epi32(loadu(argmin + y + 24), wv);
    __m256i mask = _mm256_packs_epi16(_mm256_packs_epi32(a0, a1), _mm256_packs_epi32(a2, a3));
    mask = _mm256_permutevar8x32_epi32(mask, order);
    storeu(m + y, _mm256_blendv_epi8(loadu(min1 + y), loadu(min2 + y), mask));
  }
  for (; y < n; ++y) m[y] = argmin[y] == w ? min2[y] : min1[y];
}

void r1_add_u8(u32* r1, u8 m1, const u8* row, u32 n) {
  const __m256i m1v = _mm256_set1_epi32(static_cast<int>(m1));
  const __m256i zero = _mm256_setzero_si256();
  u32 y = 0;
  for (; y + 8 <= n; y += 8) {
    const __m256i r =
        _mm256_cvtepu8_epi32(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(row + y)));
    const __m256i d = _mm256_max_epi32(_mm256_sub_epi32(m1v, r), zero);
    storeu(r1 + y, _mm256_add_epi32(loadu(r1 + y), d));
  }
  for (; y < n; ++y) r1[y] += static_cast<u32>(m1 > row[y] ? m1 - row[y] : 0);
}

void r1_sub_u8(u32* r1, u8 m1, const u8* row, u32 n) {
  const __m256i m1v = _mm256_set1_epi32(static_cast<int>(m1));
  const __m256i zero = _mm256_setzero_si256();
  u32 y = 0;
  for (; y + 8 <= n; y += 8) {
    const __m256i r =
        _mm256_cvtepu8_epi32(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(row + y)));
    const __m256i d = _mm256_max_epi32(_mm256_sub_epi32(m1v, r), zero);
    storeu(r1 + y, _mm256_sub_epi32(loadu(r1 + y), d));
  }
  for (; y < n; ++y) r1[y] -= static_cast<u32>(m1 > row[y] ? m1 - row[y] : 0);
}

void addition_row_u8(const u8* src, u8* dst, const u8* ru, const u8* rv, u8 au, u8 av, u32 n,
                     u8 inf) {
  const __m256i auv = _mm256_set1_epi8(static_cast<char>(au));
  const __m256i avv = _mm256_set1_epi8(static_cast<char>(av));
  const __m256i infv = _mm256_set1_epi8(static_cast<char>(inf));
  u32 y = 0;
  for (; y + 32 <= n; y += 32) {
    const __m256i t1 = _mm256_add_epi8(auv, loadu(rv + y));
    const __m256i t2 = _mm256_add_epi8(avv, loadu(ru + y));
    const __m256i nd = _mm256_min_epu8(loadu(src + y), _mm256_min_epu8(t1, t2));
    storeu(dst + y, _mm256_min_epu8(nd, infv));
  }
  for (; y < n; ++y) {
    const u8 t1 = static_cast<u8>(au + rv[y]);
    const u8 t2 = static_cast<u8>(av + ru[y]);
    dst[y] = std::min(std::min(src[y], std::min(t1, t2)), inf);
  }
}

void row_sum_max_u8(const u8* row, u32 n, u32* sum, u8* mx) {
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  __m256i worst = zero;
  u32 y = 0;
  for (; y + 32 <= n; y += 32) {
    const __m256i t = loadu(row + y);
    worst = _mm256_max_epu8(worst, t);
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(t, zero));
  }
  u32 s = static_cast<u32>(hsum_epi64(acc));
  u8 w = hmax_epu8(worst);
  for (; y < n; ++y) {
    s += row[y];
    w = std::max(w, row[y]);
  }
  *sum = s;
  *mx = w;
}

void finite_max2_u8(const u8* ru, const u8* rv, u32 n, u8 inf, u8* ecc_u, u8* ecc_v) {
  const __m256i infv = _mm256_set1_epi8(static_cast<char>(inf));
  __m256i eu = _mm256_setzero_si256();
  __m256i ev = _mm256_setzero_si256();
  u32 y = 0;
  for (; y + 32 <= n; y += 32) {
    const __m256i du = loadu(ru + y);
    const __m256i dv = loadu(rv + y);
    // d >= inf ⇔ max(d, inf) == d; zero those lanes before the max fold.
    eu = _mm256_max_epu8(eu, _mm256_andnot_si256(_mm256_cmpeq_epi8(_mm256_max_epu8(du, infv), du), du));
    ev = _mm256_max_epu8(ev, _mm256_andnot_si256(_mm256_cmpeq_epi8(_mm256_max_epu8(dv, infv), dv), dv));
  }
  u8 mu = hmax_epu8(eu);
  u8 mv = hmax_epu8(ev);
  for (; y < n; ++y) {
    mu = std::max(mu, ru[y] >= inf ? u8{0} : ru[y]);
    mv = std::max(mv, rv[y] >= inf ? u8{0} : rv[y]);
  }
  *ecc_u = mu;
  *ecc_v = mv;
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
  if (cap >= 0xFF) return 0;  // u8 values never exceed the cap
  const __m256i capv = _mm256_set1_epi8(static_cast<char>(static_cast<u8>(cap)));
  u32 y = 0;
  for (; y + 32 <= n; y += 32) {
    const __m256i v = loadu(vals + y);
    // v > cap ⇔ max(v, cap) != cap
    u32 bits = ~static_cast<u32>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(_mm256_max_epu8(v, capv), capv)));
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
  if (cap <= 0) return 0;  // u8 values are never negative
  if (cap > 0xFF) {
    for (u32 y = 0; y < n; ++y) {
      out[count] = y;
      count += static_cast<u32>(y != skip);
    }
    return count;
  }
  // v < cap ⇔ v <= cap−1 ⇔ max(v, cap−1) == cap−1.
  const __m256i capv = _mm256_set1_epi8(static_cast<char>(static_cast<u8>(cap - 1)));
  u32 y = 0;
  for (; y + 32 <= n; y += 32) {
    const __m256i v = loadu(vals + y);
    u32 bits =
        static_cast<u32>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(_mm256_max_epu8(v, capv), capv)));
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

/// Bits of the 32 lanes at p with p[i] ≤ cap: min(v, cap) == v.
inline u64 within32_u8(const u8* p, __m256i capv) {
  const __m256i v = loadu(p);
  return static_cast<u32>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(_mm256_min_epu8(v, capv), v)));
}

bool keep_within_u8(u64* alive, const u8* row, u32 n, std::int32_t cap) {
  const u32 words = (n + 63) / 64;
  if (cap < 0) {
    std::fill(alive, alive + words, u64{0});
    return false;
  }
  const u8 c = static_cast<u8>(std::min<std::int32_t>(cap, 0xFF));
  const __m256i capv = _mm256_set1_epi8(static_cast<char>(c));
  u64 any = 0;
  for (u32 j = 0; j < words; ++j) {
    if (alive[j] == 0) continue;
    const u32 y = j * 64;
    u64 bits = 0;
    if (n - y >= 64) {
      bits = within32_u8(row + y, capv) | within32_u8(row + y + 32, capv) << 32;
    } else {
      for (u32 i = 0; y + i < n; ++i) bits |= u64{row[y + i] <= c} << i;
    }
    alive[j] &= bits;
    any |= alive[j];
  }
  return any != 0;
}

void min_fold_u8(u8* dst, const u8* row, u32 n) {
  u32 y = 0;
  for (; y + 32 <= n; y += 32) {
    storeu(dst + y, _mm256_min_epu8(loadu(dst + y), loadu(row + y)));
  }
  for (; y < n; ++y) dst[y] = std::min(dst[y], row[y]);
}

u32 collect_absdiff_eq1_u8(const u8* ru, const u8* rv, u32 n, u32* out) {
  const __m256i one = _mm256_set1_epi8(1);
  u32 count = 0;
  u32 y = 0;
  for (; y + 32 <= n; y += 32) {
    const __m256i a = loadu(ru + y);
    const __m256i b = loadu(rv + y);
    const __m256i d = _mm256_or_si256(_mm256_subs_epu8(a, b), _mm256_subs_epu8(b, a));
    u32 bits = static_cast<u32>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(d, one)));
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      bits &= bits - 1;
      out[count++] = y + static_cast<u32>(bit);
    }
  }
  for (; y < n; ++y) {
    const u8 du = ru[y];
    const u8 dv = rv[y];
    if ((du > dv ? du - dv : dv - du) == 1) out[count++] = y;
  }
  return count;
}

u32 collect_absdiff_gt1_u8(const u8* ru, const u8* rv, u32 n, u32* out) {
  const __m256i one = _mm256_set1_epi8(1);
  u32 count = 0;
  u32 y = 0;
  for (; y + 32 <= n; y += 32) {
    const __m256i a = loadu(ru + y);
    const __m256i b = loadu(rv + y);
    const __m256i d = _mm256_or_si256(_mm256_subs_epu8(a, b), _mm256_subs_epu8(b, a));
    // d > 1 ⇔ max(d, 1) != 1
    u32 bits = ~static_cast<u32>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(_mm256_max_epu8(d, one), one)));
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

inline __m256i widen_sum_epi32(__m256i acc, __m256i t) {
  const __m256i zero = _mm256_setzero_si256();
  return _mm256_add_epi32(
      acc, _mm256_add_epi32(_mm256_unpacklo_epi16(t, zero), _mm256_unpackhi_epi16(t, zero)));
}

u64 combine_sum_u16(const u16* m, const u16* c, u32 n, u16 inf) {
  __m256i acc = _mm256_setzero_si256();
  __m256i worst = _mm256_setzero_si256();
  u32 y = 0;
  for (; y + 16 <= n; y += 16) {
    const __m256i t = _mm256_min_epu16(loadu(m + y), loadu(c + y));
    worst = _mm256_max_epu16(worst, t);
    acc = widen_sum_epi32(acc, t);
  }
  u32 sum = hsum_epi32(acc);
  u16 w = hmax_epu16(worst);
  for (; y < n; ++y) {
    const u16 t = std::min(m[y], c[y]);
    sum += t;
    w = std::max(w, t);
  }
  if (w >= inf) return kInfCostResult;
  return u64{sum} + (n - 1);
}

u64 combine_max_u16(const u16* m, const u16* c, u32 n, u16 inf) {
  __m256i worst = _mm256_setzero_si256();
  u32 y = 0;
  for (; y + 16 <= n; y += 16) {
    worst = _mm256_max_epu16(worst, _mm256_min_epu16(loadu(m + y), loadu(c + y)));
  }
  u16 w = hmax_epu16(worst);
  for (; y < n; ++y) w = std::max(w, std::min(m[y], c[y]));
  return w >= inf ? kInfCostResult : u64{1} + w;
}

u64 deletion_ecc_u16(const u16* m, u32 n, u16 inf) {
  __m256i worst = _mm256_setzero_si256();
  u32 y = 0;
  for (; y + 16 <= n; y += 16) worst = _mm256_max_epu16(worst, loadu(m + y));
  u16 w = hmax_epu16(worst);
  for (; y < n; ++y) w = std::max(w, m[y]);
  return w >= inf ? kInfCostResult : u64{1} + w;
}

void scan_min_update_u16(u16* min1, u16* min2, u32* argmin, const u16* row, u32 z, u32 n) {
  u32 y = 0;
  for (; y + 16 <= n; y += 16) {
    const __m256i val = loadu(row + y);
    const __m256i m1 = loadu(min1 + y);
    const __m256i m2 = loadu(min2 + y);
    const __m256i nm1 = _mm256_min_epu16(m1, val);
    storeu(min1 + y, nm1);
    storeu(min2 + y, _mm256_min_epu16(m2, _mm256_max_epu16(m1, val)));
    u32 bits =
        ~static_cast<u32>(_mm256_movemask_epi8(_mm256_cmpeq_epi16(nm1, m1))) & 0x55555555u;
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      argmin[y + static_cast<u32>(b >> 1)] = z;
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
  const __m256i wv = _mm256_set1_epi32(static_cast<int>(w));
  u32 y = 0;
  for (; y + 16 <= n; y += 16) {
    const __m256i a0 = _mm256_cmpeq_epi32(loadu(argmin + y), wv);
    const __m256i a1 = _mm256_cmpeq_epi32(loadu(argmin + y + 8), wv);
    __m256i mask = _mm256_packs_epi32(a0, a1);
    mask = _mm256_permute4x64_epi64(mask, _MM_SHUFFLE(3, 1, 2, 0));
    storeu(m + y, _mm256_blendv_epi8(loadu(min1 + y), loadu(min2 + y), mask));
  }
  for (; y < n; ++y) m[y] = argmin[y] == w ? min2[y] : min1[y];
}

void r1_add_u16(u32* r1, u16 m1, const u16* row, u32 n) {
  const __m256i m1v = _mm256_set1_epi32(static_cast<int>(m1));
  const __m256i zero = _mm256_setzero_si256();
  u32 y = 0;
  for (; y + 8 <= n; y += 8) {
    const __m256i r =
        _mm256_cvtepu16_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(row + y)));
    const __m256i d = _mm256_max_epi32(_mm256_sub_epi32(m1v, r), zero);
    storeu(r1 + y, _mm256_add_epi32(loadu(r1 + y), d));
  }
  for (; y < n; ++y) r1[y] += static_cast<u32>(m1 > row[y] ? m1 - row[y] : 0);
}

void r1_sub_u16(u32* r1, u16 m1, const u16* row, u32 n) {
  const __m256i m1v = _mm256_set1_epi32(static_cast<int>(m1));
  const __m256i zero = _mm256_setzero_si256();
  u32 y = 0;
  for (; y + 8 <= n; y += 8) {
    const __m256i r =
        _mm256_cvtepu16_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(row + y)));
    const __m256i d = _mm256_max_epi32(_mm256_sub_epi32(m1v, r), zero);
    storeu(r1 + y, _mm256_sub_epi32(loadu(r1 + y), d));
  }
  for (; y < n; ++y) r1[y] -= static_cast<u32>(m1 > row[y] ? m1 - row[y] : 0);
}

void addition_row_u16(const u16* src, u16* dst, const u16* ru, const u16* rv, u16 au, u16 av,
                      u32 n, u16 inf) {
  const __m256i auv = _mm256_set1_epi16(static_cast<short>(au));
  const __m256i avv = _mm256_set1_epi16(static_cast<short>(av));
  const __m256i infv = _mm256_set1_epi16(static_cast<short>(inf));
  u32 y = 0;
  for (; y + 16 <= n; y += 16) {
    const __m256i t1 = _mm256_add_epi16(auv, loadu(rv + y));
    const __m256i t2 = _mm256_add_epi16(avv, loadu(ru + y));
    const __m256i nd = _mm256_min_epu16(loadu(src + y), _mm256_min_epu16(t1, t2));
    storeu(dst + y, _mm256_min_epu16(nd, infv));
  }
  for (; y < n; ++y) {
    const u16 t1 = static_cast<u16>(au + rv[y]);
    const u16 t2 = static_cast<u16>(av + ru[y]);
    dst[y] = std::min(std::min(src[y], std::min(t1, t2)), inf);
  }
}

void row_sum_max_u16(const u16* row, u32 n, u32* sum, u16* mx) {
  __m256i acc = _mm256_setzero_si256();
  __m256i worst = _mm256_setzero_si256();
  u32 y = 0;
  for (; y + 16 <= n; y += 16) {
    const __m256i t = loadu(row + y);
    worst = _mm256_max_epu16(worst, t);
    acc = widen_sum_epi32(acc, t);
  }
  u32 s = hsum_epi32(acc);
  u16 w = hmax_epu16(worst);
  for (; y < n; ++y) {
    s += row[y];
    w = std::max(w, row[y]);
  }
  *sum = s;
  *mx = w;
}

void finite_max2_u16(const u16* ru, const u16* rv, u32 n, u16 inf, u16* ecc_u, u16* ecc_v) {
  const __m256i infv = _mm256_set1_epi16(static_cast<short>(inf));
  __m256i eu = _mm256_setzero_si256();
  __m256i ev = _mm256_setzero_si256();
  u32 y = 0;
  for (; y + 16 <= n; y += 16) {
    const __m256i du = loadu(ru + y);
    const __m256i dv = loadu(rv + y);
    eu = _mm256_max_epu16(
        eu, _mm256_andnot_si256(_mm256_cmpeq_epi16(_mm256_max_epu16(du, infv), du), du));
    ev = _mm256_max_epu16(
        ev, _mm256_andnot_si256(_mm256_cmpeq_epi16(_mm256_max_epu16(dv, infv), dv), dv));
  }
  u16 mu = hmax_epu16(eu);
  u16 mv = hmax_epu16(ev);
  for (; y < n; ++y) {
    mu = std::max(mu, ru[y] >= inf ? u16{0} : ru[y]);
    mv = std::max(mv, rv[y] >= inf ? u16{0} : rv[y]);
  }
  *ecc_u = mu;
  *ecc_v = mv;
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
  const __m256i capv = _mm256_set1_epi16(static_cast<short>(static_cast<u16>(cap)));
  u32 y = 0;
  for (; y + 16 <= n; y += 16) {
    const __m256i v = loadu(vals + y);
    u32 bits = ~static_cast<u32>(_mm256_movemask_epi8(
                   _mm256_cmpeq_epi16(_mm256_max_epu16(v, capv), capv))) &
               0x55555555u;
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      const u32 idx = y + static_cast<u32>(b >> 1);
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
  const __m256i capv = _mm256_set1_epi16(static_cast<short>(static_cast<u16>(cap - 1)));
  u32 y = 0;
  for (; y + 16 <= n; y += 16) {
    const __m256i v = loadu(vals + y);
    u32 bits = static_cast<u32>(_mm256_movemask_epi8(
                   _mm256_cmpeq_epi16(_mm256_max_epu16(v, capv), capv))) &
               0x55555555u;
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      const u32 idx = y + static_cast<u32>(b >> 1);
      out[count] = idx;
      count += static_cast<u32>(idx != skip);
    }
  }
  for (; y < n; ++y) {
    if (y != skip && static_cast<std::int32_t>(vals[y]) < cap) out[count++] = y;
  }
  return count;
}

/// Bits of the 32 lanes at p with p[i] ≤ cap. packs interleaves the two
/// 16-lane compares by 128-bit half; the permute restores lane order.
inline u64 within32_u16(const u16* p, __m256i capv) {
  const __m256i a = loadu(p);
  const __m256i b = loadu(p + 16);
  const __m256i ka = _mm256_cmpeq_epi16(_mm256_min_epu16(a, capv), a);
  const __m256i kb = _mm256_cmpeq_epi16(_mm256_min_epu16(b, capv), b);
  const __m256i packed = _mm256_permute4x64_epi64(_mm256_packs_epi16(ka, kb), 0xD8);
  return static_cast<u32>(_mm256_movemask_epi8(packed));
}

bool keep_within_u16(u64* alive, const u16* row, u32 n, std::int32_t cap) {
  const u32 words = (n + 63) / 64;
  if (cap < 0) {
    std::fill(alive, alive + words, u64{0});
    return false;
  }
  const u16 c = static_cast<u16>(std::min<std::int32_t>(cap, 0xFFFF));
  const __m256i capv = _mm256_set1_epi16(static_cast<short>(c));
  u64 any = 0;
  for (u32 j = 0; j < words; ++j) {
    if (alive[j] == 0) continue;
    const u32 y = j * 64;
    u64 bits = 0;
    if (n - y >= 64) {
      bits = within32_u16(row + y, capv) | within32_u16(row + y + 32, capv) << 32;
    } else {
      for (u32 i = 0; y + i < n; ++i) bits |= u64{row[y + i] <= c} << i;
    }
    alive[j] &= bits;
    any |= alive[j];
  }
  return any != 0;
}

void min_fold_u16(u16* dst, const u16* row, u32 n) {
  u32 y = 0;
  for (; y + 16 <= n; y += 16) {
    storeu(dst + y, _mm256_min_epu16(loadu(dst + y), loadu(row + y)));
  }
  for (; y < n; ++y) dst[y] = std::min(dst[y], row[y]);
}

u32 collect_absdiff_eq1_u16(const u16* ru, const u16* rv, u32 n, u32* out) {
  const __m256i one = _mm256_set1_epi16(1);
  u32 count = 0;
  u32 y = 0;
  for (; y + 16 <= n; y += 16) {
    const __m256i a = loadu(ru + y);
    const __m256i b = loadu(rv + y);
    const __m256i d = _mm256_or_si256(_mm256_subs_epu16(a, b), _mm256_subs_epu16(b, a));
    u32 bits = static_cast<u32>(_mm256_movemask_epi8(_mm256_cmpeq_epi16(d, one))) & 0x55555555u;
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      bits &= bits - 1;
      out[count++] = y + static_cast<u32>(bit >> 1);
    }
  }
  for (; y < n; ++y) {
    const u16 du = ru[y];
    const u16 dv = rv[y];
    if ((du > dv ? du - dv : dv - du) == 1) out[count++] = y;
  }
  return count;
}

u32 collect_absdiff_gt1_u16(const u16* ru, const u16* rv, u32 n, u32* out) {
  const __m256i one = _mm256_set1_epi16(1);
  u32 count = 0;
  u32 y = 0;
  for (; y + 16 <= n; y += 16) {
    const __m256i a = loadu(ru + y);
    const __m256i b = loadu(rv + y);
    const __m256i d = _mm256_or_si256(_mm256_subs_epu16(a, b), _mm256_subs_epu16(b, a));
    u32 bits = ~static_cast<u32>(_mm256_movemask_epi8(
                   _mm256_cmpeq_epi16(_mm256_max_epu16(d, one), one))) &
               0x55555555u;
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      bits &= bits - 1;
      out[count++] = y + static_cast<u32>(bit >> 1);
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

u64 or_gather_avx2(const u64* words, const u32* idx, std::size_t count) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m128i vi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + i));
    acc = _mm256_or_si256(
        acc, _mm256_i32gather_epi64(reinterpret_cast<const long long*>(words), vi, 8));
  }
  const __m128i r = _mm_or_si128(_mm256_castsi256_si128(acc), _mm256_extracti128_si256(acc, 1));
  u64 word = static_cast<u64>(_mm_cvtsi128_si64(r)) | static_cast<u64>(_mm_extract_epi64(r, 1));
  for (; i < count; ++i) word |= words[idx[i]];
  return word;
}

}  // namespace

namespace detail {

bool fill_avx2(Kernels<u8>& k8, Kernels<u16>& k16, WordKernels& kw) {
  k8.combine_sum = &combine_sum_u8;
  k8.combine_max = &combine_max_u8;
  k8.deletion_ecc = &deletion_ecc_u8;
  k8.scan_min_update = &scan_min_update_u8;
  k8.select_mrow = &select_mrow_u8;
  k8.r1_add = &r1_add_u8;
  k8.r1_sub = &r1_sub_u8;
  k8.addition_row = &addition_row_u8;
  k8.row_sum_max = &row_sum_max_u8;
  k8.finite_max2 = &finite_max2_u8;
  k8.collect_above = &collect_above_u8;
  k8.collect_below = &collect_below_u8;
  k8.keep_within = &keep_within_u8;
  k8.min_fold = &min_fold_u8;
  k8.collect_absdiff_eq1 = &collect_absdiff_eq1_u8;
  k8.collect_absdiff_gt1 = &collect_absdiff_gt1_u8;

  k16.combine_sum = &combine_sum_u16;
  k16.combine_max = &combine_max_u16;
  k16.deletion_ecc = &deletion_ecc_u16;
  k16.scan_min_update = &scan_min_update_u16;
  k16.select_mrow = &select_mrow_u16;
  k16.r1_add = &r1_add_u16;
  k16.r1_sub = &r1_sub_u16;
  k16.addition_row = &addition_row_u16;
  k16.row_sum_max = &row_sum_max_u16;
  k16.finite_max2 = &finite_max2_u16;
  k16.collect_above = &collect_above_u16;
  k16.collect_below = &collect_below_u16;
  k16.keep_within = &keep_within_u16;
  k16.min_fold = &min_fold_u16;
  k16.collect_absdiff_eq1 = &collect_absdiff_eq1_u16;
  k16.collect_absdiff_gt1 = &collect_absdiff_gt1_u16;

  kw.or_gather = &or_gather_avx2;
  return true;
}

}  // namespace detail
}  // namespace bncg::simd

#else  // compiler or target without AVX2

namespace bncg::simd::detail {

bool fill_avx2(Kernels<std::uint8_t>&, Kernels<std::uint16_t>&, WordKernels&) { return false; }

}  // namespace bncg::simd::detail

#endif
