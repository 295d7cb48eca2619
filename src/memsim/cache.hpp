// Set-associative cache with true-LRU replacement.
//
// Models the KNL L2 (the last-level cache on that part — the level whose
// misses PEBS samples in the paper). Each set keeps its recency order in
// one 64-bit word: a 4-bit way id per way, least-recent way in the low
// nibble. The simulated access streams miss almost every time (measured
// miss ratio 0.96-1.00 across the bundled apps), so the victim choice is
// the hot operation; with the word it is a pop and a push, not a scan of
// the set. Associativity is therefore capped at kMaxWays = 16.
#pragma once

#include <cstdint>
#include <vector>

#include "memsim/address.hpp"

namespace hmem::memsim {

struct CacheConfig {
  std::uint64_t size_bytes = 1ULL << 20;
  std::uint32_t line_bytes = 64;
  std::uint32_t ways = 16;
};

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

  double miss_rate() const {
    return accesses > 0 ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
  }
};

class Cache {
 public:
  /// Tag value marking an invalid way. Real tags are line addresses
  /// (addr >> log2(line_bytes)), so no simulated address reaches it.
  static constexpr Address kInvalidTag = ~Address{0};
  /// Either half of kInvalidTag: every dword of an empty set's tag row.
  static constexpr std::uint32_t kInvalidTagHalf = ~std::uint32_t{0};

  /// Most ways a recency word can order (16 nibbles of 4 bits).
  static constexpr std::uint32_t kMaxWays = 16;

  // ---- recency word: shared by access() and the compiled kernels ----

  /// Order of an empty set: ways 0, 1, ..., ways-1 from least recent up,
  /// so empty ways are filled lowest id first.
  static constexpr std::uint64_t initial_order(std::uint32_t ways) {
    std::uint64_t order = 0;
    for (std::uint32_t w = 0; w < ways; ++w) {
      order |= std::uint64_t{w} << (4 * w);
    }
    return order;
  }

  /// Miss: pops the least-recent way and pushes it as the most recent.
  /// Returns the victim way. `top_shift` is 4 * (ways - 1).
  static std::uint32_t evict(std::uint64_t& order, std::uint32_t top_shift) {
    const std::uint64_t victim = order & 0xF;
    order = (order >> 4) | (victim << top_shift);
    return static_cast<std::uint32_t>(victim);
  }

  /// Hit on `way`: splices its nibble out and pushes it as the most recent.
  /// A zero nibble in order ^ (way * 0x11..1) marks the way's position; the
  /// nibbles above ways-1 are zero too, but the lowest zero is always the
  /// real one, and the borrow trick below flags the lowest exactly.
  static void touch(std::uint64_t& order, std::uint32_t way,
                    std::uint32_t top_shift) {
    constexpr std::uint64_t kOnes = 0x1111111111111111ULL;
    constexpr std::uint64_t kHighs = 0x8888888888888888ULL;
    const std::uint64_t x = order ^ (way * kOnes);
    const std::uint64_t zero = (x - kOnes) & ~x & kHighs;
    // The lowest flag is bit 3 of the way's nibble; below it, the mask of
    // the less recent nibbles.
    const std::uint64_t below = ((zero & (0 - zero)) >> 3) - 1;
    order = (order & below) | ((order >> 4) & ~below) |
            (std::uint64_t{way} << top_shift);
  }

  // ---- tag rows: shared by access() and the compiled kernels ----
  //
  // A set's row is 2 * ways dwords (8 bytes a way, as one Address each
  // would take): the ways' low tag dwords first, then their high dwords.
  // A probe then compares only low halves, four ways to a 16-byte vector
  // compare in the native kernel, and confirms a candidate against its
  // high half.

  /// The tag way `w` of `row` holds.
  static Address way_tag(const std::uint32_t* row, std::uint32_t ways,
                         std::uint32_t w) {
    return (Address{row[ways + w]} << 32) | row[w];
  }

  /// Installs `tag` in way `w` of `row`.
  static void set_way_tag(std::uint32_t* row, std::uint32_t ways,
                          std::uint32_t w, Address tag) {
    row[w] = static_cast<std::uint32_t>(tag);
    row[ways + w] = static_cast<std::uint32_t>(tag >> 32);
  }

  /// The lowest way of `row` holding `tag`, or `ways` when none does. A
  /// tag is in at most one way, and an invalid way holds kInvalidTag, which
  /// no real address produces, so no validity check is needed.
  static std::uint32_t find_way(const std::uint32_t* row, std::uint32_t ways,
                                Address tag) {
    const auto lo = static_cast<std::uint32_t>(tag);
    const auto hi = static_cast<std::uint32_t>(tag >> 32);
    for (std::uint32_t w = 0; w < ways; ++w) {
      if (row[w] == lo && row[ways + w] == hi) return w;
    }
    return ways;
  }

  explicit Cache(const CacheConfig& config);

  /// Simulates one access; returns true on hit. Misses install the line,
  /// evicting the LRU way when the set is full.
  bool access(Address addr);

  /// Probe without modifying state (no LRU update, no fill).
  bool contains(Address addr) const;

  void flush();

  const CacheConfig& config() const { return config_; }
  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CacheStats{}; }

  std::uint64_t num_sets() const { return sets_; }

  /// Raw way-state view for compiled access kernels (engine/kernel): the
  /// set/tag shift+mask constants and the tag/recency arrays, so a kernel
  /// can bake the index math and mutate the cache in place. A kernel
  /// driving the cache through this view must replicate access() exactly
  /// (touch on a hit, evict on a miss, both tag halves stored) — the
  /// differential tests assert it does. Hit/miss counters are
  /// interpreter-maintained only; kernels leave stats() untouched.
  struct Tables {
    /// One row of 2 * ways dwords per set, set s at tags + 2 * ways * s:
    /// the ways' low tag dwords, then their high dwords (way_tag).
    std::uint32_t* tags = nullptr;
    std::uint64_t* order = nullptr;  ///< one recency word per set
    std::uint32_t ways = 0;
    std::uint32_t line_shift = 0;
    std::uint64_t set_mask = 0;
  };
  Tables tables() {
    return Tables{tags_.data(), order_.data(), config_.ways, line_shift_,
                  set_mask_};
  }

  /// Line-address tag of addr: the line index, addr >> log2(line_bytes).
  Address tag_of(Address addr) const { return addr >> line_shift_; }
  /// Set index of addr (line_bytes and sets_ are powers of two, so this is
  /// a shift and a mask — no division on the per-access path).
  std::uint64_t set_of(Address addr) const {
    return tag_of(addr) & set_mask_;
  }

 private:
  CacheConfig config_;
  std::uint64_t sets_;
  std::uint32_t line_shift_;  ///< log2(line_bytes)
  std::uint64_t set_mask_;    ///< sets_ - 1
  std::uint32_t top_shift_;   ///< 4 * (ways - 1): the most-recent nibble
  std::vector<std::uint32_t> tags_;   ///< sets_ rows of 2 * ways dwords
  std::vector<std::uint64_t> order_;  ///< recency word per set
  CacheStats stats_;
};

}  // namespace hmem::memsim
