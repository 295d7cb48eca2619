// Tests for the phase-aware placement subsystem: per-phase profiles out of
// the aggregator, PhaseAdvisor schedules and their migration diffs, the
// schedule report round trip, runtime retargeting (FCFS cascade), and the
// engine's dynamic condition — including the two acceptance properties:
// bit-identity with the static framework on single-phase workloads and a
// dFOM win on phase-shifting ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "advisor/phase_advisor.hpp"
#include "advisor/placement_report.hpp"
#include "advisor/schedule_report.hpp"
#include "alloc/allocators.hpp"
#include "analysis/aggregator.hpp"
#include "apps/workloads.hpp"
#include "common/units.hpp"
#include "engine/experiment.hpp"
#include "engine/pipeline.hpp"
#include "engine/sweep.hpp"
#include "runtime/policy.hpp"

namespace hmem {
namespace {

using advisor::ObjectInfo;
using advisor::PhaseObjects;

ObjectInfo obj(const std::string& name, std::uint64_t size,
               std::uint64_t misses, bool dynamic = true) {
  ObjectInfo o;
  o.name = name;
  o.max_size_bytes = size;
  o.llc_misses = misses;
  o.is_dynamic = dynamic;
  o.stack.frames.push_back(
      callstack::CodeLocation{"app.x", "alloc_" + name, 1});
  return o;
}

// ------------------------------------------------------------ advisor ----

TEST(PhaseAdvisor, SinglePhaseScheduleEqualsStaticPlacement) {
  const std::vector<ObjectInfo> objects = {
      obj("hot", 4 * kMiB, 1000),
      obj("warm", 4 * kMiB, 100),
      obj("cold", 64 * kMiB, 10),
  };
  const advisor::MemorySpec spec =
      advisor::MemorySpec::two_tier(8 * kMiB, 1 * kGiB);
  const advisor::Options options;

  const advisor::HmemAdvisor static_adv(spec, options);
  const advisor::Placement static_placement = static_adv.advise(objects);

  const advisor::PhaseAdvisor phase_adv(spec, options);
  const advisor::PlacementSchedule schedule =
      phase_adv.advise({PhaseObjects{"only_phase", objects}});

  ASSERT_EQ(schedule.phases.size(), 1u);
  EXPECT_EQ(advisor::write_placement_report(schedule.phases[0].placement),
            advisor::write_placement_report(static_placement));
  ASSERT_EQ(schedule.migrations.size(), 1u);
  EXPECT_TRUE(schedule.migrations[0].empty());
  EXPECT_EQ(schedule.migration_bytes_per_cycle(), 0u);
}

TEST(PhaseAdvisor, MigrationDiffDemotionsBeforePromotions) {
  // Budget fits exactly one of the two alternating hot objects.
  const std::vector<ObjectInfo> phase_a = {
      obj("ping", 4 * kMiB, 1000),
      obj("pong", 4 * kMiB, 10),
  };
  const std::vector<ObjectInfo> phase_b = {
      obj("ping", 4 * kMiB, 10),
      obj("pong", 4 * kMiB, 1000),
  };
  const advisor::MemorySpec spec =
      advisor::MemorySpec::two_tier(5 * kMiB, 1 * kGiB);
  const advisor::PhaseAdvisor phase_adv(spec, {});
  const advisor::PlacementSchedule schedule = phase_adv.advise(
      {PhaseObjects{"a", phase_a}, PhaseObjects{"b", phase_b}});

  ASSERT_EQ(schedule.phases.size(), 2u);
  ASSERT_EQ(schedule.migrations.size(), 2u);
  // Entering b from a: ping demotes (listed first), pong promotes.
  ASSERT_EQ(schedule.migrations[1].size(), 2u);
  EXPECT_EQ(schedule.migrations[1][0].object_name, "ping");
  EXPECT_TRUE(schedule.migrations[1][0].is_demotion());
  EXPECT_EQ(schedule.migrations[1][0].from_tier, 0u);
  EXPECT_EQ(schedule.migrations[1][0].to_tier, 1u);
  EXPECT_EQ(schedule.migrations[1][1].object_name, "pong");
  EXPECT_FALSE(schedule.migrations[1][1].is_demotion());
  // Wrap-around entering a from b: the mirror image.
  ASSERT_EQ(schedule.migrations[0].size(), 2u);
  EXPECT_EQ(schedule.migrations[0][0].object_name, "pong");
  EXPECT_TRUE(schedule.migrations[0][0].is_demotion());
  EXPECT_EQ(schedule.migrations[0][1].object_name, "ping");
  EXPECT_EQ(schedule.migration_bytes_per_cycle(), 4u * 4 * kMiB);
}

TEST(PhaseAdvisor, StaticObjectsNeverMigrate) {
  const std::vector<ObjectInfo> phase_a = {
      obj("fixed", 4 * kMiB, 1000, /*dynamic=*/false),
      obj("dyn", 4 * kMiB, 500),
  };
  const std::vector<ObjectInfo> phase_b = {
      obj("fixed", 4 * kMiB, 1, /*dynamic=*/false),
      obj("dyn", 4 * kMiB, 1),
  };
  const advisor::MemorySpec spec =
      advisor::MemorySpec::two_tier(5 * kMiB, 1 * kGiB);
  const advisor::PhaseAdvisor phase_adv(spec, {});
  const advisor::PlacementSchedule schedule = phase_adv.advise(
      {PhaseObjects{"a", phase_a}, PhaseObjects{"b", phase_b}});
  for (const auto& list : schedule.migrations) {
    for (const auto& m : list) EXPECT_NE(m.object_name, "fixed");
  }
}

TEST(ScheduleReport, RoundTripIsIdentical) {
  const std::vector<ObjectInfo> phase_a = {obj("ping", 4 * kMiB, 1000),
                                           obj("pong", 4 * kMiB, 10)};
  const std::vector<ObjectInfo> phase_b = {obj("ping", 4 * kMiB, 10),
                                           obj("pong", 4 * kMiB, 1000)};
  const advisor::MemorySpec spec =
      advisor::MemorySpec::two_tier(5 * kMiB, 1 * kGiB);
  const advisor::PhaseAdvisor phase_adv(spec, {});
  const advisor::PlacementSchedule schedule = phase_adv.advise(
      {PhaseObjects{"a", phase_a}, PhaseObjects{"b", phase_b}});

  const std::string text = advisor::write_schedule_report(schedule);
  EXPECT_TRUE(advisor::is_schedule_report(text));
  const advisor::PlacementSchedule parsed =
      advisor::read_schedule_report(text);
  EXPECT_EQ(advisor::write_schedule_report(parsed), text);
  ASSERT_EQ(parsed.phases.size(), 2u);
  EXPECT_EQ(parsed.phases[0].phase, "a");
  EXPECT_EQ(parsed.migrations[1].size(), 2u);  // recomputed on read

  // A plain placement report is not a schedule.
  EXPECT_FALSE(advisor::is_schedule_report(
      advisor::write_placement_report(schedule.phases[0].placement)));
  EXPECT_THROW(advisor::read_schedule_report("garbage"), std::runtime_error);
}

// --------------------------------------------------------- aggregator ----

TEST(PhaseProfiles, SinglePhaseSliceEqualsWholeRunProfile) {
  apps::AppSpec app = apps::app_by_name("hpcg");
  app.iterations = 3;
  app.accesses_per_iteration = 4000;
  engine::RunOptions options;
  options.profile = true;
  options.sampler.period = 2000;
  const engine::RunResult run = engine::run_app(app, options);
  const analysis::AggregateResult report =
      analysis::aggregate_trace(*run.trace, *run.sites);

  ASSERT_EQ(report.phases.size(), 1u);
  EXPECT_EQ(report.phases[0].name, "cg_iteration");
  ASSERT_EQ(report.phases[0].objects.size(), report.objects.size());
  for (std::size_t i = 0; i < report.objects.size(); ++i) {
    EXPECT_EQ(report.phases[0].objects[i].site, report.objects[i].site);
    EXPECT_EQ(report.phases[0].objects[i].llc_misses,
              report.objects[i].llc_misses);
    EXPECT_EQ(report.phases[0].objects[i].max_size_bytes,
              report.objects[i].max_size_bytes);
  }
}

TEST(PhaseProfiles, MissesSliceByPhaseAndSumToWholeRun) {
  apps::AppSpec app = apps::app_by_name("transient");
  app.iterations = 4;
  app.accesses_per_iteration = 6000;
  engine::RunOptions options;
  options.profile = true;
  options.sampler.period = 1500;
  const engine::RunResult run = engine::run_app(app, options);
  const analysis::AggregateResult report =
      analysis::aggregate_trace(*run.trace, *run.sites);

  ASSERT_EQ(report.phases.size(), 3u);
  EXPECT_EQ(report.phases[0].name, "build");
  EXPECT_EQ(report.phases[1].name, "solve");
  EXPECT_EQ(report.phases[2].name, "refine");

  auto misses_of = [](const std::vector<ObjectInfo>& objects,
                      const std::string& name) -> std::uint64_t {
    for (const auto& o : objects) {
      if (o.name == name) return o.llc_misses;
    }
    return 0;
  };
  // Each transient is hot in exactly its own phase, untouched elsewhere.
  EXPECT_GT(misses_of(report.phases[0].objects, "work_build"), 0u);
  EXPECT_EQ(misses_of(report.phases[0].objects, "work_solve"), 0u);
  EXPECT_GT(misses_of(report.phases[1].objects, "work_solve"), 0u);
  EXPECT_EQ(misses_of(report.phases[1].objects, "work_refine"), 0u);
  EXPECT_GT(misses_of(report.phases[2].objects, "work_refine"), 0u);
  // Per-phase misses partition the whole-run misses per object.
  for (const auto& whole : report.objects) {
    std::uint64_t sum = 0;
    for (const auto& phase : report.phases) {
      sum += misses_of(phase.objects, whole.name);
    }
    EXPECT_EQ(sum, whole.llc_misses) << whole.name;
  }
}

// ------------------------------------------------------------ runtime ----

TEST(Retarget, CascadesFcfsWhenTargetTierIsFull) {
  // Three tiny tiers: fast (1 MiB), mid (4 MiB), slow fallback.
  alloc::MemkindAllocator fast(1ULL << 30, 1 * kMiB);
  alloc::MemkindAllocator mid(2ULL << 30, 4 * kMiB);
  alloc::PosixAllocator slow(3ULL << 30, 64 * kMiB);
  runtime::NumactlPolicy policy({&fast, &mid, &slow});

  // Fill the fast tier completely.
  const auto filler = fast.allocate(1 * kMiB);
  ASSERT_TRUE(filler.has_value());

  const auto victim = slow.allocate(2 * kMiB);
  ASSERT_TRUE(victim.has_value());

  // Retarget into the full fast tier: must cascade FCFS into mid.
  const runtime::AllocOutcome moved = policy.retarget(*victim, 0);
  ASSERT_NE(moved.addr, 0u);
  EXPECT_EQ(moved.tier, 1u);
  EXPECT_TRUE(mid.owns(moved.addr));
  EXPECT_FALSE(slow.owns(moved.addr) && slow.allocation_size(moved.addr));

  // Retargeting to where it already lives is a free no-op.
  const runtime::AllocOutcome stay = policy.retarget(moved.addr, 1);
  EXPECT_EQ(stay.addr, moved.addr);
  EXPECT_EQ(stay.tier, 1u);
  EXPECT_EQ(stay.cost_ns, 0.0);

  // Demotion to the fallback always succeeds.
  const runtime::AllocOutcome demoted = policy.retarget(moved.addr, 2);
  ASSERT_NE(demoted.addr, 0u);
  EXPECT_EQ(demoted.tier, 2u);
  EXPECT_TRUE(slow.owns(demoted.addr));
}

// --------------------------------------------- auto-hbwmalloc retarget ----

callstack::SymbolicCallStack stack_of(const std::string& fn) {
  callstack::SymbolicCallStack s;
  s.frames.push_back(callstack::CodeLocation{"app.x", fn, 1});
  s.frames.push_back(callstack::CodeLocation{"app.x", "main", 2});
  return s;
}

struct HbwFixture {
  explicit HbwFixture(std::vector<ObjectInfo> selected,
                      std::uint64_t budget,
                      std::uint64_t hbw_capacity = 1ULL << 30)
      : posix(0x100000000ULL, 1ULL << 30),
        hbw(0x4000000000ULL, hbw_capacity) {
    modules.add_module("app.x", 0x400000, 1 << 20);
    modules.randomize_slides(1234);
    placement.tiers.push_back(advisor::TierPlacement{
        "mcdram", budget, std::move(selected), 0, 0});
    placement.tiers.push_back(
        advisor::TierPlacement{"ddr", 1ULL << 40, {}, 0, 0});
    std::uint64_t lb = ~0ULL, ub = 0;
    for (const auto& o : placement.tiers[0].objects) {
      lb = std::min(lb, o.max_size_bytes);
      ub = std::max(ub, o.max_size_bytes);
    }
    placement.lb_size = ub == 0 ? 0 : lb;
    placement.ub_size = ub;
    placement.enforced_fast_budget_bytes = budget;
    unwinder = std::make_unique<callstack::Unwinder>(modules);
    translator = std::make_unique<callstack::Translator>(modules);
    lib = std::make_unique<runtime::AutoHbwMalloc>(
        placement, posix, hbw, *unwinder, *translator);
  }

  alloc::PosixAllocator posix;
  alloc::MemkindAllocator hbw;
  callstack::ModuleMap modules;
  advisor::Placement placement;
  std::unique_ptr<callstack::Unwinder> unwinder;
  std::unique_ptr<callstack::Translator> translator;
  std::unique_ptr<runtime::AutoHbwMalloc> lib;
};

ObjectInfo selected(const std::string& name, std::uint64_t size) {
  ObjectInfo o = obj(name, size, 1000);
  o.stack = stack_of("alloc_" + name);
  return o;
}

TEST(AutoHbwRetarget, MoveKeepsAccountingAndFreeRoutingCoherent) {
  HbwFixture f({selected("a", kMiB)}, 4 * kMiB);
  const auto out = f.lib->allocate(kMiB, stack_of("alloc_a"));
  ASSERT_TRUE(out.promoted);
  EXPECT_EQ(f.lib->stats().fast_bytes_in_use, kMiB);

  // Demote to the default tier: fast accounting drains.
  const auto demoted = f.lib->retarget(out.addr, 1);
  ASSERT_NE(demoted.addr, 0u);
  EXPECT_EQ(demoted.tier, 1u);
  EXPECT_TRUE(f.posix.owns(demoted.addr));
  EXPECT_EQ(f.lib->stats().fast_bytes_in_use, 0u);

  // Promote back: accounting refills, migration counters tick.
  const auto promoted = f.lib->retarget(demoted.addr, 0);
  ASSERT_NE(promoted.addr, 0u);
  EXPECT_EQ(promoted.tier, 0u);
  EXPECT_TRUE(f.hbw.owns(promoted.addr));
  EXPECT_EQ(f.lib->stats().fast_bytes_in_use, kMiB);
  EXPECT_EQ(f.lib->stats().migrations, 2u);
  EXPECT_EQ(f.lib->stats().migrated_bytes, 2 * kMiB);

  // The matching free is routed via the (updated) region annotation.
  EXPECT_GT(f.lib->deallocate(promoted.addr), 0.0);
  EXPECT_EQ(f.lib->stats().fast_bytes_in_use, 0u);
}

TEST(AutoHbwRetarget, OverBudgetPromotionFallsBackWithoutMoving) {
  // The advisor budget (not just physical capacity) gates migration
  // promotions, exactly as it gates allocation-time promotions.
  HbwFixture f({selected("a", kMiB)}, kMiB);
  const auto fast = f.lib->allocate(kMiB, stack_of("alloc_a"));
  ASSERT_TRUE(fast.promoted);  // budget now exhausted

  const auto slow = f.lib->allocate(kMiB, stack_of("alloc_other"));
  ASSERT_FALSE(slow.promoted);
  const auto attempt = f.lib->retarget(slow.addr, 0);
  EXPECT_EQ(attempt.addr, slow.addr);  // cascaded home: stayed put
  EXPECT_EQ(attempt.tier, 1u);
  EXPECT_EQ(f.lib->stats().migrations, 0u);
}

TEST(AutoHbwSetPlacement, SwapsSelectionKeepsLiveAccounting) {
  HbwFixture f({selected("a", kMiB)}, 4 * kMiB);
  const auto a = f.lib->allocate(kMiB, stack_of("alloc_a"));
  ASSERT_TRUE(a.promoted);

  // Next phase selects b instead of a.
  advisor::Placement next = f.placement;
  next.tiers[0].objects = {selected("b", kMiB)};
  f.lib->set_placement(next);

  const auto a2 = f.lib->allocate(kMiB, stack_of("alloc_a"));
  EXPECT_FALSE(a2.promoted);
  const auto b = f.lib->allocate(kMiB, stack_of("alloc_b"));
  EXPECT_TRUE(b.promoted);
  // a's live region still counts against the fast tier until it moves out.
  EXPECT_EQ(f.lib->stats().fast_bytes_in_use, 2 * kMiB);
  EXPECT_GT(f.lib->deallocate(a.addr), 0.0);
  EXPECT_EQ(f.lib->stats().fast_bytes_in_use, kMiB);
}

// ------------------------------------------------------------- engine ----

apps::AppSpec shrunk(apps::AppSpec app, std::uint64_t iterations = 4,
                     std::uint64_t accesses = 4000) {
  app.iterations = std::min(app.iterations, iterations);
  app.accesses_per_iteration =
      std::min(app.accesses_per_iteration, accesses);
  return app;
}

void expect_same_autohbw_stats(const runtime::AutoHbwStats& a,
                               const runtime::AutoHbwStats& b) {
  EXPECT_EQ(a.intercepted_allocs, b.intercepted_allocs);
  EXPECT_EQ(a.size_filtered_out, b.size_filtered_out);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_EQ(a.matched, b.matched);
  EXPECT_EQ(a.promoted, b.promoted);
  EXPECT_EQ(a.budget_rejections, b.budget_rejections);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.migrated_bytes, b.migrated_bytes);
  EXPECT_EQ(a.fast_bytes_in_use, b.fast_bytes_in_use);
  EXPECT_EQ(a.fast_hwm, b.fast_hwm);
  EXPECT_EQ(a.any_overflow, b.any_overflow);
  EXPECT_EQ(a.tier_bytes_in_use, b.tier_bytes_in_use);
  EXPECT_EQ(a.tier_hwm, b.tier_hwm);
  EXPECT_EQ(a.tier_promoted, b.tier_promoted);
  EXPECT_EQ(a.tier_budget_rejections, b.tier_budget_rejections);
}

// Every RunResult field but the condition name. The stage-1 artefacts are
// null on production runs.
void expect_same_run(const engine::RunResult& a, const engine::RunResult& b) {
  EXPECT_EQ(a.app, b.app);
  EXPECT_EQ(a.fom_unit, b.fom_unit);
  EXPECT_EQ(a.fom, b.fom);  // bit-identical, not approximately
  EXPECT_EQ(a.time_s, b.time_s);
  EXPECT_EQ(a.fast_hwm_bytes, b.fast_hwm_bytes);
  EXPECT_EQ(a.total_hwm_bytes, b.total_hwm_bytes);
  ASSERT_EQ(a.tier_traffic.size(), b.tier_traffic.size());
  for (std::size_t t = 0; t < a.tier_traffic.size(); ++t) {
    EXPECT_EQ(a.tier_traffic[t].name, b.tier_traffic[t].name);
    EXPECT_EQ(a.tier_traffic[t].bytes, b.tier_traffic[t].bytes);
    EXPECT_EQ(a.tier_traffic[t].migration_bytes,
              b.tier_traffic[t].migration_bytes);
  }
  EXPECT_EQ(a.achieved_bw_gbs, b.achieved_bw_gbs);
  EXPECT_EQ(a.migration_bytes, b.migration_bytes);
  EXPECT_EQ(a.migration_count, b.migration_count);
  EXPECT_EQ(a.migration_cost_s, b.migration_cost_s);
  EXPECT_EQ(a.llc_misses, b.llc_misses);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.monitoring_overhead, b.monitoring_overhead);
  EXPECT_EQ(a.alloc_calls, b.alloc_calls);
  EXPECT_EQ(a.allocs_per_second, b.allocs_per_second);
  EXPECT_EQ(a.interposition_overhead_ns, b.interposition_overhead_ns);
  EXPECT_EQ(a.trace, nullptr);
  EXPECT_EQ(b.trace, nullptr);
  EXPECT_EQ(a.sites, nullptr);
  EXPECT_EQ(b.sites, nullptr);
  ASSERT_TRUE(a.autohbw.has_value());
  ASSERT_TRUE(b.autohbw.has_value());
  expect_same_autohbw_stats(*a.autohbw, *b.autohbw);
}

/// The run options run_pipeline simulates a dynamic run under.
engine::RunOptions dynamic_options(const engine::PipelineOptions& options,
                                   const advisor::PlacementSchedule& schedule) {
  engine::RunOptions o;
  o.condition = engine::Condition::kDynamic;
  o.schedule = &schedule;
  o.runtime_options = options.runtime_options;
  o.seed = options.production_seed;
  o.node = options.node;
  o.kernel = options.kernel;
  return o;
}

// The contract the sweep's run memo and run_pipeline rely on
// (engine::schedule_transitions): a kDynamic run on a one-phase schedule is
// the kFramework run on that phase's placement, on every RunResult field
// but the condition name. Every single-phase bundled app, shrunk, on knl at
// the two ends of its paper budget ladder (bt's is the node-wide OpenMP
// one). Both runs are simulated here: run_pipeline serves its dynamic run
// from the framework run, so it cannot witness the contract itself.
TEST(DynamicCondition, BitIdenticalToFrameworkOnSinglePhaseWorkload) {
  for (const char* name :
       {"bt", "cgpop", "gtc-p", "hpcg", "maxw-dgtd", "minife"}) {
    const apps::AppSpec app = shrunk(apps::app_by_name(name));
    const std::vector<std::uint64_t> ladder = engine::default_budgets(app);
    for (const std::uint64_t budget : {ladder.front(), ladder.back()}) {
      SCOPED_TRACE(std::string(name) + " @ " + format_bytes(budget));
      engine::PipelineOptions options;
      options.per_phase = true;
      options.sampler.period = 4000;
      options.fast_budget_per_rank = budget;
      const engine::PipelineResult result = engine::run_pipeline(app, options);
      ASSERT_EQ(result.schedule.phases.size(), 1u);

      engine::RunOptions fw;
      fw.condition = engine::Condition::kFramework;
      fw.placement = &result.schedule.phases.front().placement;
      fw.runtime_options = options.runtime_options;
      fw.seed = options.production_seed;
      fw.node = options.node;
      fw.kernel = options.kernel;
      const engine::RunResult s = engine::run_app(app, fw);
      const engine::RunResult d =
          engine::run_app(app, dynamic_options(options, result.schedule));

      // The advised one-phase placement is the static one, so the sweep's
      // static leg already holds this run.
      EXPECT_EQ(advisor::runtime_key(result.schedule.phases.front().placement),
                advisor::runtime_key(result.placement));
      EXPECT_EQ(result.production_run.fom, d.fom);

      EXPECT_EQ(s.condition, "framework");
      EXPECT_EQ(d.condition, "dynamic");
      expect_same_run(s, d);
      EXPECT_EQ(d.migration_bytes, 0u);
      EXPECT_EQ(d.migration_count, 0u);
      EXPECT_EQ(d.migration_cost_s, 0.0);
      for (const engine::TierTraffic& traffic : d.tier_traffic) {
        EXPECT_EQ(traffic.migration_bytes, 0u);
      }

      // And run_pipeline's copy is that run.
      EXPECT_TRUE(result.dynamic_from_framework);
      EXPECT_EQ(result.dynamic_run.condition, "dynamic");
      expect_same_run(result.dynamic_run, d);
    }
  }
}

// The skip decision itself, on a single-phase app's advised schedule: only
// a schedule that never transitions and keeps the static placement's
// runtime key is served from the framework run.
TEST(Pipeline, DynamicRunIsFrameworkRunOnlyForAnUnchangedStaticPlacement) {
  const apps::AppSpec app = shrunk(apps::app_by_name("hpcg"));
  engine::PipelineOptions options;
  options.per_phase = true;
  options.sampler.period = 4000;
  const engine::PipelineResult result = engine::run_pipeline(app, options);
  ASSERT_EQ(result.schedule.phases.size(), 1u);
  const advisor::Placement& framework = result.placement;

  // A one-phase schedule with the framework placement's key: served.
  EXPECT_TRUE(engine::dynamic_run_is_framework_run(
      dynamic_options(options, result.schedule), framework));

  // One object dropped from the fast tier: a different placement.
  advisor::PlacementSchedule dropped = result.schedule;
  std::vector<advisor::ObjectInfo>& fast =
      dropped.phases.front().placement.tiers.front().objects;
  ASSERT_FALSE(fast.empty());
  fast.pop_back();
  EXPECT_FALSE(engine::dynamic_run_is_framework_run(
      dynamic_options(options, dropped), framework));

  // Two phases whose placements share the key: the run still transitions
  // (each boundary re-applies the placement), so it is simulated.
  advisor::PlacementSchedule two = result.schedule;
  two.phases.push_back(two.phases.front());
  two.phases.back().phase += "-again";
  EXPECT_FALSE(engine::dynamic_run_is_framework_run(
      dynamic_options(options, two), framework));

  // A hook may grow the schedule mid-run.
  engine::RunOptions hooked = dynamic_options(options, result.schedule);
  hooked.advisor_hook = [](const std::string&, std::uint64_t) {
    return static_cast<const advisor::PlacementSchedule*>(nullptr);
  };
  EXPECT_FALSE(engine::dynamic_run_is_framework_run(hooked, framework));
}

// run_pipeline's dynamic run, served or simulated, equals a direct kDynamic
// run_app on the advised schedule, for every bundled app at perfbench's
// fast-tier budget (96 MiB) and at 256 MiB. Exactly the six single-phase
// apps are served from the framework run.
TEST(Pipeline, DynamicRunEqualsDirectDynamicRunOnEveryApp) {
  const std::vector<std::string> single_phase = {
      "bt", "cgpop", "gtc-p", "hpcg", "maxw-dgtd", "minife"};
  std::vector<apps::AppSpec> bundled = apps::all_apps();
  for (apps::AppSpec& app : apps::phase_shift_apps()) bundled.push_back(app);
  ASSERT_EQ(bundled.size(), 10u);
  for (const apps::AppSpec& full : bundled) {
    const apps::AppSpec app = shrunk(full);
    for (const std::uint64_t budget : {96ULL << 20, 256ULL << 20}) {
      SCOPED_TRACE(app.name + " @ " + format_bytes(budget));
      engine::PipelineOptions options;
      options.per_phase = true;
      options.sampler.period = 4000;
      options.fast_budget_per_rank = budget;
      const engine::PipelineResult result = engine::run_pipeline(app, options);
      const bool one_phase =
          std::find(single_phase.begin(), single_phase.end(), app.name) !=
          single_phase.end();
      EXPECT_EQ(result.dynamic_from_framework, one_phase);

      const engine::RunResult direct =
          engine::run_app(app, dynamic_options(options, result.schedule));
      EXPECT_EQ(result.dynamic_run.condition, "dynamic");
      expect_same_run(result.dynamic_run, direct);
    }
  }
}

TEST(DynamicCondition, BeatsStaticDfomOnChurnUnderKnl) {
  // The acceptance scenario: the two alternating 64 MiB hot arrays do not
  // both fit a 96 MiB/rank budget, so the static placement leaves one slow
  // forever while the schedule time-multiplexes the fast tier.
  apps::AppSpec app = apps::app_by_name("churn");
  app.iterations = 8;  // per-iteration structure is what matters

  engine::PipelineOptions options;
  options.per_phase = true;
  options.fast_budget_per_rank = 96 * kMiB;
  const engine::PipelineResult result = engine::run_pipeline(app, options);

  engine::RunOptions ddr;
  ddr.condition = engine::Condition::kDdr;
  ddr.seed = options.production_seed;
  const engine::RunResult ddr_run = engine::run_app(app, ddr);

  const double static_dfom = engine::dfom_per_mb(
      result.production_run.fom, ddr_run.fom, options.fast_budget_per_rank);
  const double dynamic_dfom = engine::dfom_per_mb(
      result.dynamic_run.fom, ddr_run.fom, options.fast_budget_per_rank);
  EXPECT_GT(dynamic_dfom, static_dfom);
  EXPECT_GT(result.dynamic_run.fom, result.production_run.fom);

  // Migration traffic is real, per tier, and charged to simulated time.
  EXPECT_GT(result.dynamic_run.migration_bytes, 0u);
  EXPECT_GT(result.dynamic_run.migration_count, 0u);
  EXPECT_GT(result.dynamic_run.migration_cost_s, 0.0);
  std::uint64_t per_tier_migration = 0;
  for (const auto& t : result.dynamic_run.tier_traffic) {
    EXPECT_GE(t.bytes, t.migration_bytes);
    per_tier_migration += t.migration_bytes;
  }
  // Every move is one source-tier read plus one destination-tier write.
  EXPECT_EQ(per_tier_migration, 2 * result.dynamic_run.migration_bytes);
  EXPECT_EQ(result.production_run.migration_bytes, 0u);
}

TEST(DynamicCondition, FreedTransientsAreSkippedNotMigrated) {
  // The transient workload's hot sets are phase-scoped: by the time a
  // boundary's migration list mentions them they are either freed (demotion
  // side) or not yet allocated (promotion side). The win comes purely from
  // allocation-time routing; the engine must skip the dead objects.
  apps::AppSpec app = apps::app_by_name("transient");
  app.iterations = 6;

  engine::PipelineOptions options;
  options.per_phase = true;
  options.fast_budget_per_rank = 96 * kMiB;
  const engine::PipelineResult result = engine::run_pipeline(app, options);

  ASSERT_EQ(result.schedule.phases.size(), 3u);
  // The schedule's diff does list the transient swaps...
  EXPECT_GT(result.schedule.migration_bytes_per_cycle(), 0u);
  // ...but nothing is live to move at the boundaries.
  EXPECT_EQ(result.dynamic_run.migration_bytes, 0u);
  EXPECT_GT(result.dynamic_run.fom, result.production_run.fom);
}

TEST(ClampFastBudget, ClampsToFastestTierCapacity) {
  const memsim::MachineConfig node =
      memsim::MachineConfig::knl7250(memsim::MemMode::kFlat);
  bool clamped = false;
  EXPECT_EQ(engine::clamp_fast_budget(node, 256 * kMiB, 1, &clamped),
            256 * kMiB);
  EXPECT_FALSE(clamped);
  EXPECT_EQ(engine::clamp_fast_budget(node, 64ULL * kGiB, 1, &clamped),
            16ULL * kGiB);
  EXPECT_TRUE(clamped);
}

TEST(ClampFastBudget, ClampsToOneRanksShare) {
  // 64 ranks share knl's 16 GiB MCDRAM: 256 MiB each, the top of the
  // paper's MPI budget ladder, which therefore passes through unclamped.
  const memsim::MachineConfig node =
      memsim::MachineConfig::knl7250(memsim::MemMode::kFlat);
  bool clamped = true;
  EXPECT_EQ(engine::clamp_fast_budget(node, 256 * kMiB, 64, &clamped),
            256 * kMiB);
  EXPECT_FALSE(clamped);
  EXPECT_EQ(engine::clamp_fast_budget(node, 1ULL * kGiB, 64, &clamped),
            256 * kMiB);
  EXPECT_TRUE(clamped);
}

}  // namespace
}  // namespace hmem
