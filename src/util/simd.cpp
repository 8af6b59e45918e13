// Dispatch core: the scalar reference kernels (the exactness baseline every
// other level is fuzzed against) and the runtime level selection.
#include "util/simd.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "util/simd_detail.hpp"

namespace bncg {

namespace simd {
namespace {

// ------------------------------------------------------- scalar reference
//
// These are the semantics. They intentionally mirror the original loop
// bodies in core/swap_engine.cpp and core/search_state.cpp (including the
// uint32 wraparound accumulator of combine_sum and the strict-< tie-breaks),
// and the compiler is free to auto-vectorize them at the portable baseline
// ISA — "scalar" names the dispatch level, not a promise of one lane.

template <typename Dist>
std::uint64_t combine_sum_scalar(const Dist* m, const Dist* c, std::uint32_t n, Dist inf) {
  std::uint32_t sum = 0;
  Dist worst = 0;
  for (std::uint32_t y = 0; y < n; ++y) {
    const Dist t = std::min(m[y], c[y]);
    sum += t;
    worst = std::max(worst, t);
  }
  if (worst >= inf) return kInfCostResult;
  return std::uint64_t{sum} + (n - 1);
}

template <typename Dist>
std::uint64_t combine_max_scalar(const Dist* m, const Dist* c, std::uint32_t n, Dist inf) {
  Dist worst = 0;
  for (std::uint32_t y = 0; y < n; ++y) worst = std::max(worst, std::min(m[y], c[y]));
  return worst >= inf ? kInfCostResult : std::uint64_t{1} + worst;
}

template <typename Dist>
std::uint64_t deletion_ecc_scalar(const Dist* m, std::uint32_t n, Dist inf) {
  Dist worst = 0;
  for (std::uint32_t y = 0; y < n; ++y) worst = std::max(worst, m[y]);
  return worst >= inf ? kInfCostResult : std::uint64_t{1} + worst;
}

template <typename Dist>
void scan_min_update_scalar(Dist* min1, Dist* min2, std::uint32_t* argmin, const Dist* row,
                            std::uint32_t z, std::uint32_t n) {
  for (std::uint32_t y = 0; y < n; ++y) {
    const Dist val = row[y];
    if (val < min1[y]) {
      min2[y] = min1[y];
      min1[y] = val;
      argmin[y] = z;
    } else if (val < min2[y]) {
      min2[y] = val;
    }
  }
}

template <typename Dist>
void select_mrow_scalar(Dist* m, const Dist* min1, const Dist* min2, const std::uint32_t* argmin,
                        std::uint32_t w, std::uint32_t n) {
  for (std::uint32_t y = 0; y < n; ++y) m[y] = argmin[y] == w ? min2[y] : min1[y];
}

template <typename Dist>
void r1_add_scalar(std::uint32_t* r1, Dist m1, const Dist* row, std::uint32_t n) {
  for (std::uint32_t y = 0; y < n; ++y) {
    r1[y] += static_cast<std::uint32_t>(m1 > row[y] ? m1 - row[y] : 0);
  }
}

template <typename Dist>
void r1_sub_scalar(std::uint32_t* r1, Dist m1, const Dist* row, std::uint32_t n) {
  for (std::uint32_t y = 0; y < n; ++y) {
    r1[y] -= static_cast<std::uint32_t>(m1 > row[y] ? m1 - row[y] : 0);
  }
}

template <typename Dist>
void addition_row_scalar(const Dist* src, Dist* dst, const Dist* ru, const Dist* rv, Dist au,
                         Dist av, std::uint32_t n, Dist inf) {
  for (std::uint32_t y = 0; y < n; ++y) {
    const Dist t1 = static_cast<Dist>(au + rv[y]);
    const Dist t2 = static_cast<Dist>(av + ru[y]);
    const Dist nd = std::min(src[y], std::min(t1, t2));
    dst[y] = std::min(nd, inf);
  }
}

template <typename Dist>
void row_sum_max_scalar(const Dist* row, std::uint32_t n, std::uint32_t* sum, Dist* mx) {
  std::uint32_t s = 0;
  Dist m = 0;
  for (std::uint32_t y = 0; y < n; ++y) {
    s += row[y];
    m = std::max(m, row[y]);
  }
  *sum = s;
  *mx = m;
}

template <typename Dist>
void finite_max2_scalar(const Dist* ru, const Dist* rv, std::uint32_t n, Dist inf, Dist* ecc_u,
                        Dist* ecc_v) {
  Dist eu = 0;
  Dist ev = 0;
  for (std::uint32_t y = 0; y < n; ++y) {
    const Dist du = ru[y];
    const Dist dv = rv[y];
    eu = std::max(eu, du >= inf ? Dist{0} : du);
    ev = std::max(ev, dv >= inf ? Dist{0} : dv);
  }
  *ecc_u = eu;
  *ecc_v = ev;
}

template <typename Dist>
std::uint32_t collect_above_scalar(const Dist* vals, std::uint32_t n, std::int32_t cap,
                                   std::uint32_t skip, std::uint32_t* out) {
  std::uint32_t count = 0;
  for (std::uint32_t y = 0; y < n; ++y) {
    if (y != skip && static_cast<std::int32_t>(vals[y]) > cap) out[count++] = y;
  }
  return count;
}

template <typename Dist>
std::uint32_t collect_below_scalar(const Dist* vals, std::uint32_t n, std::int32_t cap,
                                   std::uint32_t skip, std::uint32_t* out) {
  std::uint32_t count = 0;
  for (std::uint32_t y = 0; y < n; ++y) {
    if (y != skip && static_cast<std::int32_t>(vals[y]) < cap) out[count++] = y;
  }
  return count;
}

/// Bit i set iff row[i] ≤ c, for the 64 entries at `row`, for any c with
/// c + 1 < H, the lanes' top bit (every u8 engine cap, and every finite u16
/// one): SWAR over eight bytes at a time, x > c ⇔ top(x | ((x | H) − (c + 1))),
/// where no lane borrows from the next. One multiply gathers the lane flags.
template <typename Dist>
std::uint64_t within_word_swar(const Dist* row, Dist c) {
  constexpr unsigned kLaneBits = 8 * sizeof(Dist);
  constexpr unsigned kLanes = 8 / sizeof(Dist);
  constexpr std::uint64_t kOnes = sizeof(Dist) == 1 ? 0x0101010101010101 : 0x0001000100010001;
  constexpr std::uint64_t kHigh = kOnes << (kLaneBits - 1);
  // Lane i's flag, at bit i·kLaneBits, lands on bit 64 − kLaneBits + i;
  // every other product lands below that range or above bit 63.
  constexpr std::uint64_t kGather = sizeof(Dist) == 1 ? 0x0102040810204080 : 0x0001000200040008;
  const std::uint64_t above = kOnes * (c + 1u);
  std::uint64_t out = 0;
  for (unsigned k = 0; k < 64 / kLanes; ++k) {
    std::uint64_t x;
    std::memcpy(&x, row + k * kLanes, sizeof x);
    const std::uint64_t le = ~(x | ((x | kHigh) - above)) & kHigh;
    out |= ((le >> (kLaneBits - 1)) * kGather >> (64 - kLaneBits)) << (k * kLanes);
  }
  return out;
}

template <typename Dist>
bool keep_within_scalar(std::uint64_t* alive, const Dist* row, std::uint32_t n,
                        std::int32_t cap) {
  const std::uint32_t words = (n + 63) / 64;
  if (cap < 0) {
    std::fill(alive, alive + words, std::uint64_t{0});
    return false;
  }
  const Dist c = static_cast<Dist>(std::min<std::int32_t>(cap, Dist(~Dist{0})));
  // The tail word, caps at or above the top bit (u16 with old cost ∞: cap
  // 0xFFFE) and big-endian hosts take the plain loop.
  const bool swar = std::endian::native == std::endian::little &&
                    cap + 1 < (1 << (8 * sizeof(Dist) - 1));
  std::uint64_t any = 0;
  for (std::uint32_t j = 0; j < words; ++j) {
    if (alive[j] == 0) continue;
    const Dist* r = row + std::size_t{j} * 64;
    std::uint64_t bits = 0;
    if (swar && std::size_t{j} * 64 + 64 <= n) {
      bits = within_word_swar(r, c);
    } else {
      for (std::uint32_t i = 0; j * 64 + i < n && i < 64; ++i) {
        bits |= std::uint64_t{r[i] <= c} << i;
      }
    }
    alive[j] &= bits;
    any |= alive[j];
  }
  return any != 0;
}

template <typename Dist>
void min_fold_scalar(Dist* dst, const Dist* row, std::uint32_t n) {
  for (std::uint32_t y = 0; y < n; ++y) dst[y] = std::min(dst[y], row[y]);
}

template <typename Dist>
std::uint32_t collect_absdiff_eq1_scalar(const Dist* ru, const Dist* rv, std::uint32_t n,
                                         std::uint32_t* out) {
  std::uint32_t count = 0;
  for (std::uint32_t y = 0; y < n; ++y) {
    const Dist du = ru[y];
    const Dist dv = rv[y];
    if ((du > dv ? du - dv : dv - du) == 1) out[count++] = y;
  }
  return count;
}

template <typename Dist>
std::uint32_t collect_absdiff_gt1_scalar(const Dist* ru, const Dist* rv, std::uint32_t n,
                                         std::uint32_t* out) {
  std::uint32_t count = 0;
  for (std::uint32_t y = 0; y < n; ++y) {
    const Dist du = ru[y];
    const Dist dv = rv[y];
    if ((du > dv ? du - dv : dv - du) > 1) out[count++] = y;
  }
  return count;
}

std::uint64_t or_gather_scalar(const std::uint64_t* words, const std::uint32_t* idx,
                               std::size_t count) {
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < count; ++i) word |= words[idx[i]];
  return word;
}

template <typename Dist>
void fill_scalar(Kernels<Dist>& k) {
  k.combine_sum = &combine_sum_scalar<Dist>;
  k.combine_max = &combine_max_scalar<Dist>;
  k.deletion_ecc = &deletion_ecc_scalar<Dist>;
  k.scan_min_update = &scan_min_update_scalar<Dist>;
  k.select_mrow = &select_mrow_scalar<Dist>;
  k.r1_add = &r1_add_scalar<Dist>;
  k.r1_sub = &r1_sub_scalar<Dist>;
  k.addition_row = &addition_row_scalar<Dist>;
  k.row_sum_max = &row_sum_max_scalar<Dist>;
  k.finite_max2 = &finite_max2_scalar<Dist>;
  k.collect_above = &collect_above_scalar<Dist>;
  k.collect_below = &collect_below_scalar<Dist>;
  k.keep_within = &keep_within_scalar<Dist>;
  k.min_fold = &min_fold_scalar<Dist>;
  k.collect_absdiff_eq1 = &collect_absdiff_eq1_scalar<Dist>;
  k.collect_absdiff_gt1 = &collect_absdiff_gt1_scalar<Dist>;
}

// --------------------------------------------------------------- dispatch

/// True iff the running CPU can execute the level's instructions. Compiled
/// availability is probed separately (detail::fill_* return false when their
/// TU was built without the ISA).
bool cpu_supports(SimdLevel level) noexcept {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  switch (level) {
    case SimdLevel::Scalar:
      return true;
    case SimdLevel::Avx2:
      return __builtin_cpu_supports("avx2") != 0;
    case SimdLevel::Avx512:
      return __builtin_cpu_supports("avx512f") != 0 && __builtin_cpu_supports("avx512bw") != 0;
  }
  return false;
#else
  return level == SimdLevel::Scalar;
#endif
}

SimdLevel requested_level(SimdLevel fallback) noexcept {
  const char* env = std::getenv("BNCG_SIMD");
  if (env == nullptr || *env == '\0') return fallback;
  const std::string_view v{env};
  if (v == "scalar" || v == "0") return SimdLevel::Scalar;
  if (v == "avx2") return SimdLevel::Avx2;
  if (v == "avx512") return SimdLevel::Avx512;
  return fallback;  // "auto" and anything unrecognized
}

struct Dispatch {
  Kernels<std::uint8_t> k8{};
  Kernels<std::uint16_t> k16{};
  WordKernels kw{};
  SimdLevel max_level = SimdLevel::Scalar;
  SimdLevel active = SimdLevel::Scalar;

  Dispatch() {
    // Probe what this binary + CPU pair can actually run: each fill both
    // installs the level and reports whether it exists at all.
    install(SimdLevel::Avx512);  // installs scalar..avx512, computes max_level
    install(requested_level(max_level));
  }

  /// Rebuilds the tables at min(level, max_level): scalar first, then each
  /// lower-or-equal ISA overwrites what it implements.
  void install(SimdLevel level) noexcept {
    fill_scalar(k8);
    fill_scalar(k16);
    kw.or_gather = &or_gather_scalar;
    active = SimdLevel::Scalar;
    if (level >= SimdLevel::Avx2 && cpu_supports(SimdLevel::Avx2) &&
        detail::fill_avx2(k8, k16, kw)) {
      active = SimdLevel::Avx2;
      max_level = std::max(max_level, SimdLevel::Avx2);
    }
    if (level >= SimdLevel::Avx512 && cpu_supports(SimdLevel::Avx512) &&
        detail::fill_avx512(k8, k16, kw)) {
      active = SimdLevel::Avx512;
      max_level = std::max(max_level, SimdLevel::Avx512);
    }
  }
};

Dispatch& dispatch() noexcept {
  static Dispatch d;
  return d;
}

}  // namespace

const Kernels<std::uint8_t>& k8() noexcept { return dispatch().k8; }
const Kernels<std::uint16_t>& k16() noexcept { return dispatch().k16; }
const WordKernels& words() noexcept { return dispatch().kw; }

}  // namespace simd

const char* simd_level_name(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::Scalar:
      return "scalar";
    case SimdLevel::Avx2:
      return "avx2";
    case SimdLevel::Avx512:
      return "avx512";
  }
  return "unknown";
}

SimdLevel simd_max_level() noexcept { return simd::dispatch().max_level; }

SimdLevel simd_active_level() noexcept { return simd::dispatch().active; }

SimdLevel simd_set_level(SimdLevel level) noexcept {
  simd::dispatch().install(std::min(level, simd_max_level()));
  return simd_active_level();
}

}  // namespace bncg
