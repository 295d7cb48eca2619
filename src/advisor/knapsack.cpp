#include "advisor/knapsack.hpp"

#include <algorithm>
#include <numeric>

#include "common/assert.hpp"
#include "memsim/address.hpp"

namespace hmem::advisor {

double ObjectInfo::density() const {
  const std::uint64_t fp = footprint_bytes();
  return fp > 0 ? static_cast<double>(llc_misses) / static_cast<double>(fp)
                : 0.0;
}

std::uint64_t ObjectInfo::footprint_bytes() const {
  return memsim::round_up_pages(max_size_bytes);
}

namespace {

/// Shared greedy core: walk indices in the given priority order, take what
/// fits. Ties in the comparator are broken by original index so results are
/// deterministic regardless of input order.
Selection greedy_take(const std::vector<ObjectInfo>& objects,
                      std::vector<std::size_t> order,
                      std::uint64_t capacity_bytes) {
  Selection sel;
  for (const std::size_t i : order) {
    const std::uint64_t fp = objects[i].footprint_bytes();
    if (fp == 0) continue;  // never-observed object: nothing to place
    if (sel.footprint_bytes + fp > capacity_bytes) continue;
    sel.chosen.push_back(i);
    sel.footprint_bytes += fp;
    sel.profit_misses += objects[i].llc_misses;
  }
  return sel;
}

}  // namespace

Selection greedy_misses(const std::vector<ObjectInfo>& objects,
                        std::uint64_t capacity_bytes, double threshold_pct) {
  HMEM_ASSERT(threshold_pct >= 0.0 && threshold_pct <= 100.0);
  std::uint64_t total_misses = 0;
  for (const auto& o : objects) total_misses += o.llc_misses;
  const double cutoff =
      static_cast<double>(total_misses) * threshold_pct / 100.0;

  std::vector<std::size_t> order;
  order.reserve(objects.size());
  for (std::size_t i = 0; i < objects.size(); ++i) {
    if (objects[i].llc_misses == 0) continue;
    if (static_cast<double>(objects[i].llc_misses) < cutoff) continue;
    order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (objects[a].llc_misses != objects[b].llc_misses)
      return objects[a].llc_misses > objects[b].llc_misses;
    return a < b;
  });
  return greedy_take(objects, std::move(order), capacity_bytes);
}

Selection greedy_density(const std::vector<ObjectInfo>& objects,
                         std::uint64_t capacity_bytes) {
  std::vector<std::size_t> order;
  order.reserve(objects.size());
  for (std::size_t i = 0; i < objects.size(); ++i) {
    if (objects[i].llc_misses == 0) continue;
    order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double da = objects[a].density();
    const double db = objects[b].density();
    if (da != db) return da > db;
    return a < b;
  });
  return greedy_take(objects, std::move(order), capacity_bytes);
}

Selection exact_knapsack(const std::vector<ObjectInfo>& objects,
                         std::uint64_t capacity_bytes) {
  const std::uint64_t cap_pages = capacity_bytes / memsim::kPageBytes;
  // Guard against accidentally invoking the pseudo-polynomial DP with a
  // budget that would allocate gigabytes of DP table — the exact scenario
  // the paper calls impractical.
  HMEM_ASSERT_MSG(cap_pages <= kExactMaxPages,
                  "exact knapsack capacity too large; use a greedy strategy");
  const std::size_t n = objects.size();
  const auto width = static_cast<std::size_t>(cap_pages) + 1;

  // dp[c] = best profit using a prefix of objects within c pages;
  // take[i * width + c] records the decision for backtracking.
  std::vector<std::uint64_t> dp(width, 0);
  std::vector<std::uint8_t> take(n * width, 0);

  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t w =
        objects[i].footprint_bytes() / memsim::kPageBytes;
    const std::uint64_t p = objects[i].llc_misses;
    if (w == 0 || w > cap_pages || p == 0) continue;
    for (std::size_t c = width; c-- > static_cast<std::size_t>(w);) {
      const std::uint64_t candidate = dp[c - static_cast<std::size_t>(w)] + p;
      if (candidate > dp[c]) {
        dp[c] = candidate;
        take[i * width + c] = 1;
      }
    }
  }

  Selection sel;
  sel.profit_misses = dp[width - 1];
  // Backtrack to recover the chosen set.
  std::size_t c = width - 1;
  for (std::size_t i = n; i-- > 0;) {
    if (take[i * width + c] == 0) continue;
    sel.chosen.push_back(i);
    sel.footprint_bytes += objects[i].footprint_bytes();
    c -= static_cast<std::size_t>(objects[i].footprint_bytes() /
                                  memsim::kPageBytes);
  }
  std::reverse(sel.chosen.begin(), sel.chosen.end());
  return sel;
}

}  // namespace hmem::advisor
