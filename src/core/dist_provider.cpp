#include "core/dist_provider.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace bncg {

std::uint64_t parse_mem_bytes(const std::string& text) {
  if (text.empty()) throw std::invalid_argument("memory budget: empty value");
  std::size_t i = 0;
  std::uint64_t value = 0;
  while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i])) != 0) {
    const std::uint64_t digit = static_cast<std::uint64_t>(text[i] - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      throw std::invalid_argument("memory budget overflows 64 bits: " + text);
    }
    value = value * 10 + digit;
    ++i;
  }
  if (i == 0) throw std::invalid_argument("memory budget must start with digits: " + text);
  std::uint64_t scale = 1;
  if (i < text.size()) {
    switch (std::toupper(static_cast<unsigned char>(text[i]))) {
      case 'K': scale = std::uint64_t{1} << 10; break;
      case 'M': scale = std::uint64_t{1} << 20; break;
      case 'G': scale = std::uint64_t{1} << 30; break;
      default: throw std::invalid_argument("memory budget suffix must be K/M/G: " + text);
    }
    ++i;
    if (i != text.size()) throw std::invalid_argument("trailing junk in memory budget: " + text);
    if (value > std::numeric_limits<std::uint64_t>::max() / scale) {
      throw std::invalid_argument("memory budget overflows 64 bits: " + text);
    }
  }
  return value * scale;
}

std::uint64_t env_mem_budget() {
  static const std::uint64_t parsed = [] {
    const char* raw = std::getenv("BNCG_MEM_BUDGET");
    if (raw == nullptr || raw[0] == '\0') return std::uint64_t{0};
    return parse_mem_bytes(raw);
  }();
  return parsed;
}

std::uint64_t resolved_mem_budget(const ResourceConfig& config) {
  return config.mem_budget != 0 ? config.mem_budget : env_mem_budget();
}

WidthAndBudgetPolicy::WidthAndBudgetPolicy(const ResourceConfig& config, unsigned lanes)
    : width_(config.width), total_budget_(resolved_mem_budget(config)) {
  if (lanes == 0) lanes = ThreadPool::global().size();
  if (lanes == 0) lanes = 1;
  // Never let integer division alias a tiny share with "unlimited" (0); a
  // 1-byte share fails loudly in RowCache::configure instead.
  lane_budget_ = total_budget_ == 0 ? 0 : std::max<std::uint64_t>(1, total_budget_ / lanes);
}

bool WidthAndBudgetPolicy::probe_prefers_u8(const CsrGraph& csr, BatchBfsWorkspace& ws) const {
  if (width_ == WidthPolicy::ForceU8) return true;
  if (width_ == WidthPolicy::ForceU16) return false;
  const Vertex n = csr.num_vertices();
  if (n == 0) return true;
  // One u16 traversal from vertex 0; works at any n because the capped fill
  // reports saturation instead of wrapping. A saturating probe means even
  // the u16 scans cannot encode this instance — let the scan itself fail
  // with its own diagnostic; here it simply rules out u8.
  std::vector<std::uint16_t> row(n);
  const Vertex src[1] = {0};
  if (!bfs_batch_capped<std::uint16_t>(csr, std::span<const Vertex>(src, 1), MaskedEdge{},
                                       row.data(), n, ws, kNoVertex, kInfDist16,
                                       std::uint16_t{kInfDist16 - 1})) {
    return false;
  }
  std::uint32_t ecc = 0;
  bool spans = true;
  for (Vertex x = 0; x < n; ++x) {
    if (row[x] == kInfDist16) {
      spans = false;
      break;
    }
    ecc = std::max<std::uint32_t>(ecc, row[x]);
  }
  // Masked sweeps can exceed the 2·ecc bound — the per-agent u16 fallback
  // absorbs those exactly.
  return spans && 2 * ecc <= kMaxFiniteFor<std::uint8_t>;
}

bool WidthAndBudgetPolicy::dense_fits(Vertex n, DistWidth w) const noexcept {
  if (n >= kInfDist16) return false;  // dense scans use 16-bit-id traversals
  if (lane_budget_ == 0) return true;
  const std::uint64_t bytes =
      std::uint64_t{n} * n * (w == DistWidth::U8 ? sizeof(std::uint8_t) : sizeof(std::uint16_t));
  return bytes <= lane_budget_;
}

}  // namespace bncg
