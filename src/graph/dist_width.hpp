// Width-adaptive capped-infinity distance encodings.
//
// Almost every instance the engines actually certify or search has diameter
// far below the 16-bit cap, so the n² (engine scratch) and n³ (search-state
// cache) distance slabs waste half their memory bandwidth carrying zero
// bits. The hot kernels (graph/bfs_batch, core/swap_engine,
// core/search_state) are therefore templated on a distance storage type
// `Dist ∈ {u8, u16}` with a *capped* infinity per width:
//
//   kSearchInf8  = 0x3F    finite range 0..61  (diameter < 62 instances)
//   kSearchInf16 = 0x3FFF  finite range 0..16381
//
// The caps are chosen so the addition identity's two chained adds
// (≤ 2·kInf + 1) cannot wrap the storage type — 127 < 2⁸ and 2¹⁵ < 2¹⁶ —
// which keeps every streaming update kernel branch-free add/min in the
// narrow type (and twice as wide per SIMD lane at u8).
//
// The largest representable *finite* distance is kInf − 2, not kInf − 1:
// the search state's row-invalidation tests read |d(x,u) − d(x,v)| on
// capped values, and a finite distance of exactly kInf − 1 next to a capped
// ∞ would alias the "differ by ≤ 1 ⇒ row unchanged" shortcut. Traversals
// that would write a finite distance > kInf − 2 report *saturation* instead
// of writing a lie; u8 consumers then fall back (engine: redo the agent at
// u16) or promote (search state: rebuild the whole cache at u16 — exact,
// because every cached structure is a pure function of the current graph).
//
// u16 never saturates under the existing n ≤ kSearchInf16 − 1 preconditions,
// so the wide instantiation is bit-for-bit the pre-width behavior.
#pragma once

#include <cstdint>
#include <exception>

namespace bncg {

/// Runtime distance storage width of a kernel instantiation.
enum class DistWidth : std::uint8_t { U8, U16 };

/// How width-adaptive components pick their storage width.
///  * Auto     — probe a cheap diameter bound, start narrow when it fits;
///  * ForceU8  — start narrow regardless (still falls back / promotes on
///               saturation: exactness always wins over the preference);
///  * ForceU16 — skip the narrow path entirely (the pre-width behavior).
enum class WidthPolicy : std::uint8_t { Auto, ForceU8, ForceU16 };

/// Capped infinity of the 8-bit encoding (finite distances ≤ 0x3D = 61).
inline constexpr std::uint8_t kSearchInf8 = 0x3F;

/// Capped infinity of the 16-bit encoding (finite distances ≤ 16381).
inline constexpr std::uint16_t kSearchInf16 = 0x3FFF;

/// kSearchInf8 / kSearchInf16 selected by storage type.
template <typename Dist>
inline constexpr Dist kSearchInfFor = Dist{};
template <>
inline constexpr std::uint8_t kSearchInfFor<std::uint8_t> = kSearchInf8;
template <>
inline constexpr std::uint16_t kSearchInfFor<std::uint16_t> = kSearchInf16;

/// Largest finite distance the width may store (see the header comment for
/// why the slot at kInf − 1 is deliberately left unused).
template <typename Dist>
inline constexpr Dist kMaxFiniteFor = static_cast<Dist>(kSearchInfFor<Dist> - 2);

[[nodiscard]] constexpr const char* dist_width_name(DistWidth w) noexcept {
  return w == DistWidth::U8 ? "u8" : "u16";
}

/// Control-flow signal of the narrow encodings: a traversal met a finite
/// distance the width cannot represent. Thrown by the u8 search state (the
/// facade catches it and promotes to u16) and never escapes the public API.
struct WidthSaturated final : std::exception {
  [[nodiscard]] const char* what() const noexcept override {
    return "bncg: finite distance exceeds the narrow capped-infinity encoding";
  }
};

}  // namespace bncg
