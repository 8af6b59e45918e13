// Runtime-dispatched SIMD kernels and 64-byte-aligned storage.
//
// The scan-table maintenance loops (elementwise min1/min2/argmin updates,
// far-set filters), the per-candidate combine reductions and the far test
// are the measured hot loops of the delta engine (core/swap_engine). They
// were scalar loops auto-vectorized at the baseline ISA; this header gives
// them explicit AVX2 (and guarded AVX-512) implementations selected once at
// runtime by CPUID, with the plain scalar build remaining the portable
// fallback — and, through BNCG_SIMD, a first-class runtime choice so CI can
// pin each path.
//
// Exactness contract: every kernel is pure integer arithmetic with the exact
// wrap/compare semantics of the scalar reference next to it in simd.cpp, so
// all dispatch levels produce bit-identical outputs — the differential fuzz
// suite (tests/test_simd_parity.cpp) holds each level against the scalar
// table on random, unaligned-tail, and all-infinity inputs. Nothing here may
// be "approximately" faster: certificates, witnesses, and anneal
// trajectories must not depend on the CPU the binary lands on.
//
// Dispatch model: one function-pointer table per distance width (u8/u16 —
// the width-adaptive encodings of graph/dist_width.hpp) plus one for the
// 64-bit BFS frontier words. Tables are filled scalar-first, then each
// compiled-and-supported level overwrites the entries it implements, so a
// level never needs to provide every kernel. `BNCG_SIMD=scalar|avx2|avx512|
// auto` caps the level at startup; simd_set_level() re-caps it at runtime
// for tests and benchmarks (single-threaded callers only).
//
// Alignment: AlignedVec allocates on 64-byte boundaries so matrix rows of
// power-of-two n start cache-line- (and at n ≥ 64 vector-) aligned. The
// kernels themselves use unaligned loads — required anyway for arbitrary n
// and mid-row tails — so alignment is a throughput hint, never a contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace bncg {

/// Dispatch tiers, ordered: a level implies every lower one is available.
enum class SimdLevel : std::uint8_t { Scalar = 0, Avx2 = 1, Avx512 = 2 };

/// "scalar" / "avx2" / "avx512" — the BNCG_SIMD vocabulary, also what the
/// bench provenance stamps record.
[[nodiscard]] const char* simd_level_name(SimdLevel level) noexcept;

/// Highest level both compiled into this binary and supported by this CPU.
[[nodiscard]] SimdLevel simd_max_level() noexcept;

/// Level the dispatch tables currently point at: min(BNCG_SIMD, max level)
/// until simd_set_level() says otherwise.
[[nodiscard]] SimdLevel simd_active_level() noexcept;

/// Re-points the dispatch tables at `level` (clamped to simd_max_level());
/// returns the level actually installed. Test/bench hook — swaps function
/// pointers non-atomically, so call it only while no kernel runs.
SimdLevel simd_set_level(SimdLevel level) noexcept;

/// Minimal C++17 aligned-new allocator (64-byte default: one cache line,
/// one AVX-512 vector). Interchangeable across all value types per the
/// allocator requirements; vectors using it are distinct types from
/// std::vector<T>, which is deliberate — hot-path slabs opt in explicitly.
template <typename T, std::size_t Align = 64>
struct AlignedAllocator {
  using value_type = T;
  static_assert(Align >= alignof(T) && (Align & (Align - 1)) == 0,
                "alignment must be a power of two covering alignof(T)");

  /// Explicit rebind: the non-type Align parameter defeats the library's
  /// automatic first-argument replacement.
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t count) {
    return static_cast<T*>(::operator new(count * sizeof(T), std::align_val_t{Align}));
  }
  void deallocate(T* p, std::size_t count) noexcept {
    ::operator delete(p, count * sizeof(T), std::align_val_t{Align});
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U, Align>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const AlignedAllocator<U, Align>&) const noexcept {
    return false;
  }
};

/// 64-byte-aligned vector — the storage type of every distance slab, scan
/// table, and SIMD-scanned scratch row in the engines.
template <typename T>
using AlignedVec = std::vector<T, AlignedAllocator<T>>;

namespace simd {

/// The kernels' "cost is infinite" return — bit-identical to core's
/// kInfCost (asserted at the call sites) without util/ depending on core/.
inline constexpr std::uint64_t kInfCostResult = ~std::uint64_t{0};

/// Width-typed kernel table. Semantics are specified against the scalar
/// reference implementations in simd.cpp; `Dist` is uint8_t or uint16_t and
/// `inf` is whatever capped-infinity sentinel the caller's encoding uses
/// (kSearchInf8/kSearchInf16, or the engine's 0xFFFF at u16) — kernels never
/// assume a particular sentinel, only `value >= inf` ⇔ "unreachable".
template <typename Dist>
struct Kernels {
  /// (n−1) + Σ_y min(m[y], c[y]) with uint32 wraparound accumulation, or
  /// kInfCostResult when max_y min(m[y], c[y]) >= inf. The post-swap
  /// sum-model combine.
  std::uint64_t (*combine_sum)(const Dist* m, const Dist* c, std::uint32_t n, Dist inf);
  /// 1 + max_y min(m[y], c[y]), or kInfCostResult at the sentinel.
  std::uint64_t (*combine_max)(const Dist* m, const Dist* c, std::uint32_t n, Dist inf);
  /// 1 + max_y m[y], or kInfCostResult at the sentinel.
  std::uint64_t (*deletion_ecc)(const Dist* m, std::uint32_t n, Dist inf);

  /// Folds neighbor z's distance row into the elementwise scan tables:
  /// per y, val = row[y]; val < min1[y] shifts min1→min2 and takes argmin=z;
  /// else val < min2[y] replaces min2. Strict '<' both places — the FIRST
  /// neighbor in fold order owns ties, which is what makes every dispatch
  /// level (and the engine/naive oracles) agree on argmin witnesses.
  void (*scan_min_update)(Dist* min1, Dist* min2, std::uint32_t* argmin, const Dist* row,
                          std::uint32_t z, std::uint32_t n);
  /// m[y] = (argmin[y] == w) ? min2[y] : min1[y] — materializes M^w.
  void (*select_mrow)(Dist* m, const Dist* min1, const Dist* min2, const std::uint32_t* argmin,
                      std::uint32_t w, std::uint32_t n);
  /// *sum = Σ row[y] (uint32 wraparound), *mx = max_y row[y].
  void (*row_sum_max)(const Dist* row, std::uint32_t n, std::uint32_t* sum, Dist* mx);
  /// Far-set filter: appends (ascending) every y with y != skip and
  /// int32(vals[y]) > cap to out, returns the count. cap may be negative
  /// (everything passes) or exceed the Dist range (nothing does). out must
  /// hold n entries.
  std::uint32_t (*collect_above)(const Dist* vals, std::uint32_t n, std::int32_t cap,
                                 std::uint32_t skip, std::uint32_t* out);
  /// Cover-candidate filter (the dual of collect_above): appends (ascending)
  /// every y with y != skip and int32(vals[y]) < cap to out, returns the
  /// count. Scanning a far vertex's distance row with cap = ecc − 1 yields
  /// exactly the endpoints whose insertion would relieve that vertex.
  std::uint32_t (*collect_below)(const Dist* vals, std::uint32_t n, std::int32_t cap,
                                 std::uint32_t skip, std::uint32_t* out);
  /// Far test, one far row at a time: `alive` is a bitset over 0..n−1 (bit
  /// y % 64 of word y / 64). Every non-zero word is ANDed with the bits of
  /// {y < n : int32(row[y]) ≤ cap}, so bits at y ≥ n clear too; zero words
  /// are not read. Returns whether any bit is left. cap may be negative
  /// (nothing passes) or exceed the Dist range (everything below n does).
  /// With `row` the far vertex u's row of a symmetric distance matrix, this
  /// is the column test d(c, u) ≤ cap for every candidate c at once.
  bool (*keep_within)(std::uint64_t* alive, const Dist* row, std::uint32_t n, std::int32_t cap);
  /// dst[y] = min(dst[y], row[y]) — one leg of the k-way min fold behind the
  /// k-move deviation identity d'(v,x) = 1 + min_i d_{G−v}(w_i, x). Callers
  /// fold rows in ascending endpoint order (DESIGN.md §14); the fold is
  /// order-independent in value but the documented order is the contract the
  /// witness tie-break proofs lean on.
  void (*min_fold)(Dist* dst, const Dist* row, std::uint32_t n);
  /// Every y with |ru[y] − rv[y]| > 1 — over min1/min2, the columns
  /// graph/masked_repair's settle_second_min starts from.
  std::uint32_t (*collect_absdiff_gt1)(const Dist* ru, const Dist* rv, std::uint32_t n,
                                       std::uint32_t* out);
};

/// Kernels over the bit-parallel BFS's 64-bit frontier words.
struct WordKernels {
  /// OR-reduction of a gathered index set: words[idx[0]] | … — the pull
  /// step's neighbor gather for vertices of degree ≥ 8 (shorter lists are
  /// gathered inline; DESIGN.md §5).
  std::uint64_t (*or_gather)(const std::uint64_t* words, const std::uint32_t* idx,
                             std::size_t count);
};

[[nodiscard]] const Kernels<std::uint8_t>& k8() noexcept;
[[nodiscard]] const Kernels<std::uint16_t>& k16() noexcept;
[[nodiscard]] const WordKernels& words() noexcept;

/// Width-generic accessor: simd::kernels<Dist>() inside the templated scan
/// bodies. Grab the reference once per function, not per row.
template <typename Dist>
[[nodiscard]] inline const Kernels<Dist>& kernels() noexcept {
  if constexpr (sizeof(Dist) == 1) {
    return k8();
  } else {
    return k16();
  }
}

}  // namespace simd
}  // namespace bncg
