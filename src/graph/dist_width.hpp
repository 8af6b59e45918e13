// Width-adaptive capped-infinity distance encodings.
//
// Almost every instance the engine actually certifies or searches has
// diameter far below the 16-bit cap, so the n² distance slab would waste
// half its memory bandwidth carrying zero bits. The hot kernels
// (graph/bfs_batch, graph/row_cache, graph/masked_repair, core/swap_engine)
// are therefore templated on a distance storage type `Dist ∈ {u8, u16}`
// with a *capped* infinity per width:
//
//   kSearchInf8  = 0x3F    finite range 0..61  (diameter < 62 instances)
//   kSearchInf16 = 0x3FFF  finite range 0..16381
//
// Both caps leave headroom above 2·kInf + 1 in the storage type, so a
// chained add of two capped values cannot wrap. The largest representable
// *finite* distance is kInf − 2, one slot short of the cap; the slot stays
// unused so the fallback boundary, and with it every width_fallbacks count,
// is unchanged. Traversals that would write a finite distance > kInf − 2
// report *saturation* instead of writing a lie, and the engine redoes the
// agent at u16 (the dense engine's u16 encoding is the full 0xFFFF
// sentinel, see core/swap_engine.cpp).
//
// u16 never saturates under the existing n ≤ kSearchInf16 − 1 preconditions,
// so the wide instantiation is bit-for-bit the pre-width behavior.
#pragma once

#include <cstdint>

namespace bncg {

/// Runtime distance storage width of a kernel instantiation.
enum class DistWidth : std::uint8_t { U8, U16 };

/// How width-adaptive components pick their storage width.
///  * Auto     — probe a cheap diameter bound, start narrow when it fits;
///  * ForceU8  — start narrow regardless (still falls back on saturation:
///               exactness always wins over the preference);
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

}  // namespace bncg
