#include "advisor/advisor.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "common/assert.hpp"
#include "common/error.hpp"
#include "common/units.hpp"
#include "memsim/address.hpp"

namespace hmem::advisor {

const char* strategy_name(Strategy strategy) {
  switch (strategy) {
    case Strategy::kMisses:
      return "misses";
    case Strategy::kDensity:
      return "density";
    case Strategy::kExact:
      return "exact";
  }
  return "?";
}

std::optional<Strategy> parse_strategy(const std::string& name) {
  if (name == "misses") return Strategy::kMisses;
  if (name == "density") return Strategy::kDensity;
  if (name == "exact") return Strategy::kExact;
  return std::nullopt;
}

std::optional<std::size_t> Placement::tier_of(callstack::SiteId site) const {
  for (std::size_t t = 0; t + 1 < tiers.size(); ++t) {
    for (const auto& obj : tiers[t].objects) {
      if (obj.site == site) return t;
    }
  }
  return std::nullopt;
}

HmemAdvisor::HmemAdvisor(MemorySpec spec, Options options)
    : spec_(std::move(spec)), options_(options) {
  HMEM_ASSERT(spec_.tier_count() >= 1);
  // Options come from flags and sweep INI files: what the knapsack solvers
  // cannot take is a configuration error here, not an abort mid-solve.
  if (!(options_.threshold_pct >= 0.0 && options_.threshold_pct <= 100.0)) {
    throw ConfigError("Misses(t%) threshold must be within [0, 100], got " +
                      std::to_string(options_.threshold_pct));
  }
  if (options_.strategy != Strategy::kExact) return;
  // The exact solver runs on every non-fallback tier, on the virtual budget
  // and, for static recommendations, on the fastest tier even when it is
  // the only one.
  const auto& tiers = spec_.tiers();
  std::uint64_t largest =
      std::max(tiers.front().capacity_bytes, options_.virtual_budget_bytes);
  for (std::size_t t = 0; t + 1 < tiers.size(); ++t) {
    largest = std::max(largest, tiers[t].capacity_bytes);
  }
  if (largest / memsim::kPageBytes > kExactMaxPages) {
    throw ConfigError("the exact strategy cannot solve a " +
                      format_bytes(largest) + " tier (at most " +
                      format_bytes(kExactMaxPages * memsim::kPageBytes) +
                      "); use a greedy strategy");
  }
}

Selection HmemAdvisor::run_strategy(const std::vector<ObjectInfo>& objects,
                                    std::uint64_t budget) const {
  switch (options_.strategy) {
    case Strategy::kMisses:
      return greedy_misses(objects, budget, options_.threshold_pct);
    case Strategy::kDensity:
      return greedy_density(objects, budget);
    case Strategy::kExact:
      return exact_knapsack(objects, budget);
  }
  return {};
}

Placement HmemAdvisor::advise(const std::vector<ObjectInfo>& objects) const {
  Placement placement;
  placement.strategy = options_.strategy;
  placement.threshold_pct = options_.threshold_pct;

  // Split the profile: only dynamic objects are placeable by the runtime.
  std::vector<ObjectInfo> pool;
  std::vector<ObjectInfo> static_pool;
  pool.reserve(objects.size());
  for (const auto& obj : objects) {
    (obj.is_dynamic ? pool : static_pool).push_back(obj);
  }

  const auto& tiers = spec_.tiers();
  for (std::size_t t = 0; t < tiers.size(); ++t) {
    TierPlacement tp;
    tp.tier_name = tiers[t].name;
    tp.budget_bytes = tiers[t].capacity_bytes;

    const bool is_fallback = (t + 1 == tiers.size());
    if (is_fallback) {
      // Everything left belongs to the slowest tier.
      tp.objects = pool;
      for (const auto& obj : tp.objects) {
        tp.footprint_bytes += obj.footprint_bytes();
        tp.profit_misses += obj.llc_misses;
      }
      placement.tiers.push_back(std::move(tp));
      break;
    }

    std::uint64_t selection_budget = tiers[t].capacity_bytes;
    if (t == 0 && options_.virtual_budget_bytes > 0) {
      selection_budget = options_.virtual_budget_bytes;
    }
    const Selection sel = run_strategy(pool, selection_budget);
    tp.footprint_bytes = sel.footprint_bytes;
    tp.profit_misses = sel.profit_misses;

    std::vector<bool> taken(pool.size(), false);
    for (const std::size_t i : sel.chosen) {
      taken[i] = true;
      tp.objects.push_back(pool[i]);
    }
    std::vector<ObjectInfo> rest;
    rest.reserve(pool.size() - sel.chosen.size());
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (!taken[i]) rest.push_back(pool[i]);
    }
    pool = std::move(rest);
    placement.tiers.push_back(std::move(tp));
  }

  // Surface static objects the strategy would have promoted into the fast
  // tier, so a developer can migrate them in source.
  if (!static_pool.empty()) {
    const Selection sel =
        run_strategy(static_pool, spec_.fastest().capacity_bytes);
    for (const std::size_t i : sel.chosen) {
      placement.static_recommendations.push_back(static_pool[i]);
    }
  }

  // Size pre-filter bounds over every non-fallback selection: with more
  // than two tiers the runtime promotes into each of them, so the filter
  // must not reject a middle-tier object.
  std::uint64_t lb = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t ub = 0;
  for (std::size_t t = 0; t + 1 < placement.tiers.size(); ++t) {
    for (const auto& obj : placement.tiers[t].objects) {
      lb = std::min(lb, obj.max_size_bytes);
      ub = std::max(ub, obj.max_size_bytes);
    }
  }
  if (ub == 0) lb = 0;  // nothing selected
  placement.lb_size = lb;
  placement.ub_size = ub;
  placement.enforced_fast_budget_bytes = spec_.fastest().capacity_bytes;
  return placement;
}

}  // namespace hmem::advisor
