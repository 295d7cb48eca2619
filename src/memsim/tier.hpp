// Memory-tier model.
//
// A tier is defined by capacity, idle latency and a two-parameter bandwidth
// curve: per-core achievable bandwidth (limited by outstanding-miss buffers)
// and an aggregate peak. min(cores * per_core, peak) reproduces the shape of
// the paper's Figure 1: DDR saturates around 90 GB/s after a handful of
// cores while flat MCDRAM keeps scaling to ~480 GB/s.
//
// A machine owns an *ordered list* of tiers ("each memory subsystem is
// defined by a given size and a relative performance ... ensuring that we
// can extend this mechanism in the future for different memory
// architectures"). Tiers are identified by their index in that list — the
// stable TierIndex used throughout memsim, the engine and the runtime — and
// by a human-readable name; the old two-value DDR/MCDRAM enum is gone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "memsim/address.hpp"

namespace hmem::memsim {

/// Stable identifier of a tier: its index in the machine's tier list.
using TierIndex = std::size_t;

struct TierSpec {
  std::string name;
  std::uint64_t capacity_bytes = 0;
  double latency_ns = 0.0;        ///< idle load-to-use latency
  double per_core_bw_gbs = 0.0;   ///< bandwidth one core can extract
  double peak_bw_gbs = 0.0;       ///< aggregate saturation bandwidth
  /// Relative performance weight used by the advisor's memory spec to order
  /// knapsacks (higher = faster tier, filled first).
  double relative_performance = 1.0;
  /// Start of the tier's simulated physical range (flat mode). Zero means
  /// "unassigned"; assign_tier_bases lays the tiers out.
  Address base = 0;
};

/// Achievable bandwidth (GB/s) with `cores` cores streaming concurrently.
double effective_bandwidth_gbs(const TierSpec& spec, int cores);

/// Assigns each tier a disjoint physical range: the first tier starts at
/// kTierFirstBase and every subsequent tier starts at the next
/// kTierBaseAlign boundary past the previous tier's end (the alignment gap
/// doubles as a guard band — out-of-range bugs trip range checks instead of
/// aliasing). For the KNL pair this reproduces the historical layout:
/// DDR at 4 GiB, MCDRAM at 256 GiB. Tiers with a non-zero base are left
/// untouched.
void assign_tier_bases(std::vector<TierSpec>& tiers);

}  // namespace hmem::memsim
