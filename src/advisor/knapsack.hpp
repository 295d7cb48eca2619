// Knapsack solvers for object placement.
//
// The paper frames placement as a relaxation of the 0/1 multiple knapsack
// problem and ships two greedy, linear-cost relaxations because the exact
// pseudo-polynomial DP "has proven to be impractical":
//  * Misses(t%)  — descending LLC misses; an optional threshold t filters
//    out objects contributing less than t% of the total misses ("preventing
//    that rarely referenced objects ... are promoted to fast-memory").
//  * Density     — descending misses/footprint ratio.
// We additionally implement the exact DP as a correctness oracle and for the
// ablation bench that quantifies what the relaxations give up.
//
// All solvers charge page-rounded footprints against the capacity, matching
// the paper's "memory page granularity".
#pragma once

#include <cstdint>
#include <vector>

#include "advisor/object_info.hpp"

namespace hmem::advisor {

/// Indices (into the input vector) of the selected objects, in selection
/// order, plus the summed footprint and profit of the selection.
struct Selection {
  std::vector<std::size_t> chosen;
  std::uint64_t footprint_bytes = 0;
  std::uint64_t profit_misses = 0;
};

/// Greedy by descending misses. Objects whose misses are strictly below
/// threshold_pct% of the total miss count are never promoted. Objects that
/// do not fit in the remaining budget are skipped (later, smaller objects
/// may still fit).
Selection greedy_misses(const std::vector<ObjectInfo>& objects,
                        std::uint64_t capacity_bytes,
                        double threshold_pct = 0.0);

/// Greedy by descending misses-per-byte density.
Selection greedy_density(const std::vector<ObjectInfo>& objects,
                         std::uint64_t capacity_bytes);

/// Exact 0/1 knapsack via dynamic programming at page granularity.
/// O(n * capacity_pages) time and memory — the "impractical" baseline; the
/// caller must keep capacity_pages within kExactMaxPages (HmemAdvisor
/// rejects larger tiers as a configuration error).
inline constexpr std::uint64_t kExactMaxPages = 1ULL << 22;
Selection exact_knapsack(const std::vector<ObjectInfo>& objects,
                         std::uint64_t capacity_bytes);

}  // namespace hmem::advisor
