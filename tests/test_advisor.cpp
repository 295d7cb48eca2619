// Tests for hmem_advisor: knapsack strategies, the exact-DP oracle, the
// multi-tier cascade, and the placement-report round trip.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <utility>

#include "advisor/advisor.hpp"
#include "advisor/knapsack.hpp"
#include "advisor/memory_spec.hpp"
#include "advisor/placement_report.hpp"
#include "common/prng.hpp"
#include "common/units.hpp"
#include "engine/pipeline.hpp"
#include "memsim/machine.hpp"

namespace hmem::advisor {
namespace {

ObjectInfo obj(const std::string& name, std::uint64_t size,
               std::uint64_t misses, bool dynamic = true) {
  static callstack::SiteId next_site = 0;
  ObjectInfo o;
  o.site = next_site++;
  o.name = name;
  o.max_size_bytes = size;
  o.llc_misses = misses;
  o.is_dynamic = dynamic;
  callstack::CodeLocation loc{"app.x", "alloc_" + name, 1};
  o.stack.frames.push_back(loc);
  return o;
}

// ------------------------------------------------------------ greedies ----

TEST(GreedyMisses, PicksDescendingAndSkipsOversized) {
  const std::vector<ObjectInfo> objects = {
      obj("big", 3 * memsim::kPageBytes, 100),
      obj("mid", 2 * memsim::kPageBytes, 60),
      obj("small", 1 * memsim::kPageBytes, 50),
  };
  const auto sel = greedy_misses(objects, 3 * memsim::kPageBytes);
  // big (100) fills the budget; mid doesn't fit; small doesn't either
  // (3 pages used of 3).
  ASSERT_EQ(sel.chosen.size(), 1u);
  EXPECT_EQ(sel.chosen[0], 0u);
  EXPECT_EQ(sel.profit_misses, 100u);
}

TEST(GreedyMisses, LaterSmallerObjectFitsResidual) {
  const std::vector<ObjectInfo> objects = {
      obj("a", 2 * memsim::kPageBytes, 100),
      obj("b", 3 * memsim::kPageBytes, 90),
      obj("c", 1 * memsim::kPageBytes, 10),
  };
  const auto sel = greedy_misses(objects, 3 * memsim::kPageBytes);
  // a (2 pages) then b skipped (3 > 1 left), then c fits.
  ASSERT_EQ(sel.chosen.size(), 2u);
  EXPECT_EQ(sel.chosen[0], 0u);
  EXPECT_EQ(sel.chosen[1], 2u);
}

TEST(GreedyMisses, ThresholdFiltersRarelyReferenced) {
  const std::vector<ObjectInfo> objects = {
      obj("hot", memsim::kPageBytes, 960),
      obj("warm", memsim::kPageBytes, 30),
      obj("cold", memsim::kPageBytes, 10),
  };
  // Total = 1000. 5% threshold cuts warm (3%) and cold (1%).
  const auto sel5 = greedy_misses(objects, 100 * memsim::kPageBytes, 5.0);
  ASSERT_EQ(sel5.chosen.size(), 1u);
  EXPECT_EQ(sel5.chosen[0], 0u);
  const auto sel0 = greedy_misses(objects, 100 * memsim::kPageBytes, 0.0);
  EXPECT_EQ(sel0.chosen.size(), 3u);
  const auto sel2 = greedy_misses(objects, 100 * memsim::kPageBytes, 2.0);
  EXPECT_EQ(sel2.chosen.size(), 2u);
}

TEST(GreedyMisses, ZeroMissObjectsNeverPromoted) {
  const std::vector<ObjectInfo> objects = {obj("dead", 4096, 0)};
  EXPECT_TRUE(greedy_misses(objects, 1 << 20).chosen.empty());
  EXPECT_TRUE(greedy_density(objects, 1 << 20).chosen.empty());
}

TEST(GreedyDensity, PrefersMissesPerByte) {
  const std::vector<ObjectInfo> objects = {
      obj("bulky", 100 * memsim::kPageBytes, 1000),  // 10/page
      obj("dense", 1 * memsim::kPageBytes, 500),     // 500/page
      obj("mid", 10 * memsim::kPageBytes, 2000),     // 200/page
  };
  const auto sel = greedy_density(objects, 11 * memsim::kPageBytes);
  ASSERT_EQ(sel.chosen.size(), 2u);
  EXPECT_EQ(sel.chosen[0], 1u);  // dense first
  EXPECT_EQ(sel.chosen[1], 2u);  // then mid; bulky does not fit
}

TEST(Greedy, PageGranularityCharging) {
  // 1-byte object is charged a full page.
  const std::vector<ObjectInfo> objects = {obj("tiny", 1, 10),
                                           obj("tiny2", 1, 9)};
  const auto sel = greedy_misses(objects, memsim::kPageBytes);
  ASSERT_EQ(sel.chosen.size(), 1u);
  EXPECT_EQ(sel.footprint_bytes, memsim::kPageBytes);
}

// ------------------------------------------------------------ exact DP ----

std::uint64_t brute_force_best(const std::vector<ObjectInfo>& objects,
                               std::uint64_t capacity) {
  const std::size_t n = objects.size();
  std::uint64_t best = 0;
  for (std::size_t mask = 0; mask < (1ULL << n); ++mask) {
    std::uint64_t weight = 0, profit = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (1ULL << i)) {
        weight += objects[i].footprint_bytes();
        profit += objects[i].llc_misses;
      }
    }
    if (weight <= capacity) best = std::max(best, profit);
  }
  return best;
}

class ExactKnapsackProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ExactKnapsackProperty, MatchesBruteForceAndBeatsGreedy) {
  Xoshiro256 rng(GetParam());
  std::vector<ObjectInfo> objects;
  for (int i = 0; i < 12; ++i) {
    // Two-step concat: `"o" + std::to_string(i)` trips GCC 12's -Wrestrict
    // false positive (libstdc++ PR105329) when inlined.
    std::string name = "o";
    name += std::to_string(i);
    objects.push_back(obj(name,
                          (1 + rng.below(8)) * memsim::kPageBytes,
                          1 + rng.below(1000)));
  }
  const std::uint64_t capacity = (5 + rng.below(20)) * memsim::kPageBytes;
  const auto exact = exact_knapsack(objects, capacity);
  EXPECT_EQ(exact.profit_misses, brute_force_best(objects, capacity));
  EXPECT_LE(exact.footprint_bytes, capacity);
  // The optimum dominates both greedy relaxations.
  EXPECT_GE(exact.profit_misses,
            greedy_misses(objects, capacity).profit_misses);
  EXPECT_GE(exact.profit_misses,
            greedy_density(objects, capacity).profit_misses);
  // Selection internally consistent.
  std::uint64_t fp = 0, profit = 0;
  for (auto i : exact.chosen) {
    fp += objects[i].footprint_bytes();
    profit += objects[i].llc_misses;
  }
  EXPECT_EQ(fp, exact.footprint_bytes);
  EXPECT_EQ(profit, exact.profit_misses);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactKnapsackProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// --------------------------------------------------------- memory spec ----

TEST(MemorySpec, FromConfigSortsByPerformance) {
  const auto cfg = Config::parse(
      "[tier ddr]\ncapacity = 96G\nrelative_performance = 1\n"
      "[tier mcdram]\ncapacity = 16G\nrelative_performance = 5\n");
  const auto spec = MemorySpec::from_config(cfg);
  ASSERT_EQ(spec.tier_count(), 2u);
  EXPECT_EQ(spec.fastest().name, "mcdram");
  EXPECT_EQ(spec.fastest().capacity_bytes, 16ULL * kGiB);
  EXPECT_EQ(spec.slowest().name, "ddr");
}

TEST(MemorySpec, FromConfigRejectsNoTiers) {
  EXPECT_THROW(MemorySpec::from_config(Config::parse("")),
               std::runtime_error);
  EXPECT_THROW(
      MemorySpec::from_config(Config::parse("[runtime]\nfoo = 1\n")),
      std::runtime_error);
}

TEST(MemorySpec, FromConfigRejectsDuplicateTierNames) {
  // "[tier hbm]" and "[tier  hbm]" are distinct sections that trim to the
  // same tier name — a silent duplicate before the hardening.
  EXPECT_THROW(MemorySpec::from_config(Config::parse(
                   "[tier hbm]\ncapacity = 1G\n"
                   "[tier  hbm]\ncapacity = 2G\n")),
               std::runtime_error);
}

TEST(MemorySpec, FromConfigRejectsZeroCapacity) {
  EXPECT_THROW(
      MemorySpec::from_config(Config::parse("[tier ddr]\ncapacity = 0\n")),
      std::runtime_error);
  EXPECT_THROW(MemorySpec::from_config(
                   Config::parse("[tier ddr]\nrelative_performance = 2\n")),
               std::runtime_error);  // capacity missing entirely
}

TEST(MemorySpec, FromConfigRejectsNonPositivePerformance) {
  EXPECT_THROW(MemorySpec::from_config(Config::parse(
                   "[tier ddr]\ncapacity = 1G\n"
                   "relative_performance = 0\n")),
               std::runtime_error);
  EXPECT_THROW(MemorySpec::from_config(Config::parse(
                   "[tier ddr]\ncapacity = 1G\n"
                   "relative_performance = -1.5\n")),
               std::runtime_error);
}

TEST(MemorySpec, ConfigTextRoundTrip) {
  const auto spec = MemorySpec::two_tier(256ULL << 20, 96ULL * kGiB);
  const auto again =
      MemorySpec::from_config(Config::parse(spec.to_config_text()));
  EXPECT_EQ(again.fastest().capacity_bytes, 256ULL << 20);
  EXPECT_EQ(again.slowest().capacity_bytes, 96ULL * kGiB);
}

// -------------------------------------------------------------- advisor ----

TEST(Advisor, CascadesAcrossTiersFastFirst) {
  const std::vector<ObjectInfo> objects = {
      obj("hot", 2 * memsim::kPageBytes, 100),
      obj("warm", 2 * memsim::kPageBytes, 50),
      obj("cold", 2 * memsim::kPageBytes, 1),
  };
  MemorySpec spec({TierBudget{"hbm", 2 * memsim::kPageBytes, 5.0},
                   TierBudget{"ddr", 1ULL << 30, 1.0}});
  HmemAdvisor adv(spec, Options{});
  const auto placement = adv.advise(objects);
  ASSERT_EQ(placement.tiers.size(), 2u);
  ASSERT_EQ(placement.tiers[0].objects.size(), 1u);
  EXPECT_EQ(placement.tiers[0].objects[0].name, "hot");
  EXPECT_EQ(placement.tiers[1].objects.size(), 2u);  // fallback holds rest
}

TEST(Advisor, ThreeTierCascade) {
  const std::vector<ObjectInfo> objects = {
      obj("a", memsim::kPageBytes, 100), obj("b", memsim::kPageBytes, 90),
      obj("c", memsim::kPageBytes, 80), obj("d", memsim::kPageBytes, 70)};
  MemorySpec spec({TierBudget{"hbm", memsim::kPageBytes, 5.0},
                   TierBudget{"ddr", memsim::kPageBytes, 2.0},
                   TierBudget{"pmem", 1ULL << 30, 1.0}});
  HmemAdvisor adv(spec, Options{});
  const auto placement = adv.advise(objects);
  ASSERT_EQ(placement.tiers.size(), 3u);
  EXPECT_EQ(placement.tiers[0].objects[0].name, "a");
  EXPECT_EQ(placement.tiers[1].objects[0].name, "b");
  EXPECT_EQ(placement.tiers[2].objects.size(), 2u);
  EXPECT_EQ(placement.tier_of(objects[1].site).value_or(99), 1u);
}

TEST(Advisor, MiddleTierFillsAndOverflowCascadesToSlowest) {
  // Middle tier holds exactly two pages: once "b" and "c" fill it, "d" and
  // "e" must cascade past it into the unbounded slowest tier.
  const std::vector<ObjectInfo> objects = {
      obj("a", memsim::kPageBytes, 100), obj("b", memsim::kPageBytes, 90),
      obj("c", memsim::kPageBytes, 80), obj("d", memsim::kPageBytes, 70),
      obj("e", memsim::kPageBytes, 60)};
  MemorySpec spec({TierBudget{"hbm", memsim::kPageBytes, 6.0},
                   TierBudget{"ddr", 2 * memsim::kPageBytes, 3.0},
                   TierBudget{"pmem", 1ULL << 30, 1.0}});
  HmemAdvisor adv(spec, Options{});
  const auto placement = adv.advise(objects);
  ASSERT_EQ(placement.tiers.size(), 3u);
  ASSERT_EQ(placement.tiers[0].objects.size(), 1u);
  EXPECT_EQ(placement.tiers[0].objects[0].name, "a");
  ASSERT_EQ(placement.tiers[1].objects.size(), 2u);  // middle tier full
  EXPECT_EQ(placement.tiers[1].objects[0].name, "b");
  EXPECT_EQ(placement.tiers[1].objects[1].name, "c");
  EXPECT_EQ(placement.tiers[1].footprint_bytes, 2 * memsim::kPageBytes);
  ASSERT_EQ(placement.tiers[2].objects.size(), 2u);  // overflow cascaded
  EXPECT_EQ(placement.tiers[2].objects[0].name, "d");
  EXPECT_EQ(placement.tiers[2].objects[1].name, "e");
  // The size pre-filter must span the middle tier's selections too.
  EXPECT_EQ(placement.lb_size, memsim::kPageBytes);
  EXPECT_EQ(placement.ub_size, memsim::kPageBytes);
  // Report round-trip preserves all three tiers.
  const auto parsed = read_placement_report(write_placement_report(placement));
  ASSERT_EQ(parsed.tiers.size(), 3u);
  EXPECT_EQ(parsed.tiers[1].objects.size(), 2u);
  EXPECT_EQ(parsed.tiers[1].budget_bytes, 2 * memsim::kPageBytes);
}

TEST(Advisor, StaticObjectsReportedNotPlaced) {
  const std::vector<ObjectInfo> objects = {
      obj("dyn", memsim::kPageBytes, 10),
      obj("stat", memsim::kPageBytes, 1000, /*dynamic=*/false),
  };
  HmemAdvisor adv(MemorySpec::two_tier(1ULL << 20, 1ULL << 30), Options{});
  const auto placement = adv.advise(objects);
  ASSERT_EQ(placement.tiers[0].objects.size(), 1u);
  EXPECT_EQ(placement.tiers[0].objects[0].name, "dyn");
  ASSERT_EQ(placement.static_recommendations.size(), 1u);
  EXPECT_EQ(placement.static_recommendations[0].name, "stat");
}

TEST(Advisor, LbUbSizeBounds) {
  const std::vector<ObjectInfo> objects = {
      obj("small", 5000, 100), obj("large", 200000, 90),
      obj("unselected", 1ULL << 30, 80)};
  HmemAdvisor adv(MemorySpec::two_tier(1ULL << 20, 1ULL << 40), Options{});
  const auto placement = adv.advise(objects);
  EXPECT_EQ(placement.lb_size, 5000u);
  EXPECT_EQ(placement.ub_size, 200000u);
}

TEST(Advisor, EmptySelectionZeroBounds) {
  HmemAdvisor adv(MemorySpec::two_tier(1ULL << 20, 1ULL << 30), Options{});
  const auto placement = adv.advise({});
  EXPECT_EQ(placement.lb_size, 0u);
  EXPECT_EQ(placement.ub_size, 0u);
  EXPECT_TRUE(placement.tiers[0].objects.empty());
}

TEST(Advisor, VirtualBudgetSelectsMoreButEnforcesReal) {
  // Two 3-page objects, real budget 4 pages: only one selectable normally.
  const std::vector<ObjectInfo> objects = {
      obj("a", 3 * memsim::kPageBytes, 100),
      obj("b", 3 * memsim::kPageBytes, 90),
  };
  Options opts;
  opts.virtual_budget_bytes = 8 * memsim::kPageBytes;
  HmemAdvisor adv(
      MemorySpec::two_tier(4 * memsim::kPageBytes, 1ULL << 30), opts);
  const auto placement = adv.advise(objects);
  EXPECT_EQ(placement.tiers[0].objects.size(), 2u);  // both selected
  EXPECT_EQ(placement.enforced_fast_budget_bytes,
            4 * memsim::kPageBytes);  // runtime still limited
}

TEST(Advisor, ClampedMachineBudgetIsEnforcedOnSinglePlacementPath) {
  // hmem_advise --machine clamps an over-ask fast budget once, before
  // either output path (single placement or --per-phase) builds its spec,
  // so the clamp warning applies to both — this pins the single-placement
  // guarantee: the placement enforces the fastest tier's capacity, never
  // the raw ask.
  const auto node = memsim::MachineConfig::knl7250(memsim::MemMode::kFlat);
  const std::uint64_t capacity =
      node.tiers[node.fastest_tier()].capacity_bytes;

  bool clamped = false;
  const std::uint64_t usable =
      engine::clamp_fast_budget(node, capacity * 4, 1, &clamped);
  EXPECT_TRUE(clamped);
  EXPECT_EQ(usable, capacity);

  const MemorySpec spec = engine::machine_memory_spec(node, usable, 1);
  EXPECT_EQ(spec.fastest().capacity_bytes, capacity);
  const HmemAdvisor adv(spec, Options{});
  const Placement placement =
      adv.advise({obj("hot", 8 * memsim::kPageBytes, 100)});
  EXPECT_EQ(placement.enforced_fast_budget_bytes, capacity);

  // A budget the machine can host passes through untouched.
  clamped = true;
  EXPECT_EQ(engine::clamp_fast_budget(node, capacity / 2, 1, &clamped),
            capacity / 2);
  EXPECT_FALSE(clamped);
}

TEST(Advisor, StrategyNamesRoundTrip) {
  for (auto s : {Strategy::kMisses, Strategy::kDensity, Strategy::kExact}) {
    EXPECT_EQ(parse_strategy(strategy_name(s)).value(), s);
  }
  EXPECT_FALSE(parse_strategy("bogus").has_value());
}

// ----------------------------------------------------- placement report ----

TEST(PlacementReport, RoundTrip) {
  const std::vector<ObjectInfo> objects = {
      obj("hot", 123456, 999), obj("warm", 4096, 100),
      obj("stat", 777, 5000, false)};
  Options opts;
  opts.strategy = Strategy::kDensity;
  HmemAdvisor adv(MemorySpec::two_tier(1ULL << 20, 1ULL << 30), opts);
  const auto placement = adv.advise(objects);
  const auto text = write_placement_report(placement);
  const auto parsed = read_placement_report(text);

  EXPECT_EQ(parsed.strategy, Strategy::kDensity);
  EXPECT_EQ(parsed.lb_size, placement.lb_size);
  EXPECT_EQ(parsed.ub_size, placement.ub_size);
  EXPECT_EQ(parsed.enforced_fast_budget_bytes,
            placement.enforced_fast_budget_bytes);
  ASSERT_EQ(parsed.tiers.size(), placement.tiers.size());
  ASSERT_EQ(parsed.tiers[0].objects.size(),
            placement.tiers[0].objects.size());
  EXPECT_EQ(parsed.tiers[0].objects[0].name,
            placement.tiers[0].objects[0].name);
  EXPECT_EQ(parsed.tiers[0].objects[0].stack,
            placement.tiers[0].objects[0].stack);
  ASSERT_EQ(parsed.static_recommendations.size(), 1u);
  EXPECT_EQ(parsed.static_recommendations[0].name, "stat");
  EXPECT_FALSE(parsed.static_recommendations[0].is_dynamic);
}

TEST(PlacementReport, MalformedInputsThrow) {
  EXPECT_THROW(read_placement_report(""), std::runtime_error);
  EXPECT_THROW(read_placement_report("name | 1 | 2 | app.x!f:1\n"),
               std::runtime_error);  // object before any tier header
  EXPECT_THROW(read_placement_report("[tier x]\n"), std::runtime_error)
      << "tier header without budget";
  EXPECT_THROW(
      read_placement_report("[tier x budget=100]\nname | z | 2 | app.x!f:1\n"),
      std::runtime_error);
}

// runtime_key holds exactly what auto-hbwmalloc reads: every field it
// reads moves the key, every field it ignores leaves the key alone.
TEST(PlacementReport, RuntimeKeyCoversExactlyWhatTheRuntimeReads) {
  Placement base;
  base.tiers.resize(3);
  base.tiers[0].tier_name = "hbm";
  base.tiers[0].budget_bytes = 1 << 20;
  base.tiers[0].objects = {obj("a", 4096, 10), obj("b", 8192, 20)};
  base.tiers[1].tier_name = "ddr";
  base.tiers[1].budget_bytes = 1 << 24;
  base.tiers[1].objects = {obj("c", 4096, 5)};
  base.tiers[2].tier_name = "pmem";
  base.tiers[2].budget_bytes = 1 << 30;
  base.tiers[2].objects = {obj("d", 4096, 1)};
  base.static_recommendations = {obj("s", 777, 5000, false)};
  base.lb_size = 4096;
  base.ub_size = 8192;
  base.enforced_fast_budget_bytes = 1 << 19;
  base.strategy = Strategy::kMisses;
  base.threshold_pct = 1.0;
  const std::string key = runtime_key(base);
  EXPECT_EQ(runtime_key(read_placement_report(write_placement_report(base))),
            key);

  const std::vector<std::pair<const char*, std::function<void(Placement&)>>>
      read = {
          {"tier count", [](Placement& p) { p.tiers.pop_back(); }},
          {"fast budget", [](Placement& p) { p.tiers[0].budget_bytes += 1; }},
          {"middle budget",
           [](Placement& p) { p.tiers[1].budget_bytes += 1; }},
          {"fallback budget",
           [](Placement& p) { p.tiers[2].budget_bytes += 1; }},
          {"object added",
           [](Placement& p) { p.tiers[1].objects.push_back(obj("e", 1, 1)); }},
          {"object order",
           [](Placement& p) {
             std::swap(p.tiers[0].objects[0], p.tiers[0].objects[1]);
           }},
          {"object moved to another tier",
           [](Placement& p) {
             p.tiers[1].objects.push_back(p.tiers[0].objects.back());
             p.tiers[0].objects.pop_back();
           }},
          {"frame module",
           [](Placement& p) {
             p.tiers[0].objects[0].stack.frames[0].module += "_";
           }},
          {"frame function",
           [](Placement& p) {
             p.tiers[0].objects[0].stack.frames[0].function += "_";
           }},
          {"frame line",
           [](Placement& p) { p.tiers[1].objects[0].stack.frames[0].line = 9; }},
          {"frame depth",
           [](Placement& p) {
             p.tiers[0].objects[0].stack.frames.push_back(
                 p.tiers[0].objects[0].stack.frames[0]);
           }},
          {"enforced fast budget",
           [](Placement& p) { p.enforced_fast_budget_bytes += 1; }},
          {"lb_size", [](Placement& p) { p.lb_size += 1; }},
          {"ub_size", [](Placement& p) { p.ub_size += 1; }},
      };
  for (const auto& [what, mutate] : read) {
    Placement p = base;
    mutate(p);
    EXPECT_NE(runtime_key(p), key) << what;
  }

  const std::vector<std::pair<const char*, std::function<void(Placement&)>>>
      ignored = {
          {"strategy", [](Placement& p) { p.strategy = Strategy::kDensity; }},
          {"threshold_pct", [](Placement& p) { p.threshold_pct = 5.0; }},
          {"static recommendations",
           [](Placement& p) { p.static_recommendations.clear(); }},
          {"tier name", [](Placement& p) { p.tiers[0].tier_name += "_"; }},
          {"object name",
           [](Placement& p) { p.tiers[0].objects[0].name += "_"; }},
          {"llc misses",
           [](Placement& p) { p.tiers[0].objects[0].llc_misses = 1; }},
          {"max size",
           [](Placement& p) { p.tiers[1].objects[0].max_size_bytes = 1; }},
          {"fallback tier objects",
           [](Placement& p) { p.tiers[2].objects.clear(); }},
      };
  for (const auto& [what, mutate] : ignored) {
    Placement p = base;
    mutate(p);
    EXPECT_EQ(runtime_key(p), key) << what;
  }
}

TEST(PlacementReport, IsHumanReadable) {
  // The format must carry the object name, size, misses and call-stack in
  // clear text (the paper's rationale for a human-readable report).
  const std::vector<ObjectInfo> objects = {obj("my_matrix", 4096, 42)};
  HmemAdvisor adv(MemorySpec::two_tier(1ULL << 20, 1ULL << 30), Options{});
  const auto text = write_placement_report(adv.advise(objects));
  EXPECT_NE(text.find("my_matrix"), std::string::npos);
  EXPECT_NE(text.find("4096"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
  EXPECT_NE(text.find("alloc_my_matrix"), std::string::npos);
}

}  // namespace
}  // namespace hmem::advisor
