// Tests for the execution engine, the four-stage pipeline and the
// experiment driver.
#include <gtest/gtest.h>

#include "apps/workloads.hpp"
#include "common/units.hpp"
#include "engine/experiment.hpp"
#include "engine/pipeline.hpp"

namespace hmem::engine {
namespace {

/// Small, fast app with one clearly-hot object for engine-level checks.
apps::AppSpec tiny_app() {
  apps::AppSpec app;
  app.name = "tiny";
  app.fom_unit = "it/s";
  app.ranks = 4;
  app.threads_per_rank = 8;
  app.iterations = 10;
  app.accesses_per_iteration = 4000;
  app.access_scale = 100.0;
  app.work_per_iteration = 1.0;
  app.stack_bytes = 1ULL << 20;
  app.objects = {
      apps::ObjectSpec{.name = "hot", .size_bytes = 8ULL << 20,
                       .pattern = apps::AccessPattern::kRandom},
      apps::ObjectSpec{.name = "cold", .size_bytes = 64ULL << 20,
                       .pattern = apps::AccessPattern::kStream},
      apps::ObjectSpec{.name = "tables", .size_bytes = 1ULL << 20,
                       .pattern = apps::AccessPattern::kRandom,
                       .is_static = true},
  };
  apps::PhaseSpec phase;
  phase.name = "main";
  phase.object_weights = {0.7, 0.2, 0.05};
  phase.stack_weight = 0.05;
  phase.insts_per_access = 20.0;
  app.phases = {phase};
  return app;
}

TEST(RunApp, DeterministicForSameSeed) {
  const auto app = tiny_app();
  RunOptions opts;
  const auto a = run_app(app, opts);
  const auto b = run_app(app, opts);
  EXPECT_DOUBLE_EQ(a.fom, b.fom);
  EXPECT_EQ(a.llc_misses, b.llc_misses);
  EXPECT_EQ(a.slow_bytes(), b.slow_bytes());
}

TEST(RunApp, DdrBaselineTouchesNoMcdram) {
  RunOptions opts;
  opts.condition = Condition::kDdr;
  const auto r = run_app(tiny_app(), opts);
  ASSERT_EQ(r.tier_traffic.size(), 2u);  // knl: MCDRAM fast, DDR slow
  EXPECT_EQ(r.tier_traffic.front().name, "MCDRAM");
  EXPECT_EQ(r.tier_traffic.back().name, "DDR");
  EXPECT_EQ(r.fast_bytes(), 0u);
  EXPECT_EQ(r.fast_hwm_bytes, 0u);
  EXPECT_GT(r.slow_bytes(), 0u);
  EXPECT_GT(r.fom, 0.0);
}

TEST(RunApp, NumactlPromotesAndSpeedsUp) {
  RunOptions ddr_opts;
  const auto ddr = run_app(tiny_app(), ddr_opts);
  RunOptions numactl_opts;
  numactl_opts.condition = Condition::kNumactl;
  const auto numactl = run_app(tiny_app(), numactl_opts);
  // tiny app fits the per-rank MCDRAM share entirely -> clear speedup.
  EXPECT_GT(numactl.fom, ddr.fom * 1.1);
  EXPECT_GT(numactl.fast_hwm_bytes, 0u);
  EXPECT_GT(numactl.fast_bytes(), 0u);
}

TEST(RunApp, CacheModeBetweenDdrAndFlat) {
  RunOptions opts;
  const auto ddr = run_app(tiny_app(), opts);
  opts.condition = Condition::kCacheMode;
  const auto cache = run_app(tiny_app(), opts);
  opts.condition = Condition::kNumactl;
  const auto flat = run_app(tiny_app(), opts);
  EXPECT_GT(cache.fom, ddr.fom);
  EXPECT_LT(cache.fom, flat.fom * 1.02);
}

TEST(RunApp, ProfiledRunProducesArtifacts) {
  RunOptions opts;
  opts.profile = true;
  opts.sampler.period = 1000;  // dense sampling for a short run
  const auto r = run_app(tiny_app(), opts);
  ASSERT_NE(r.trace, nullptr);
  ASSERT_NE(r.sites, nullptr);
  EXPECT_GT(r.samples, 0u);
  EXPECT_GT(r.monitoring_overhead, 0.0);
  EXPECT_LT(r.monitoring_overhead, 0.6);  // dense sampling, tiny run
  EXPECT_EQ(r.sites->size(), 3u);  // hot, cold, tables
  EXPECT_GT(r.trace->size(), 0u);
}

TEST(RunApp, FrameworkPromotesSelectedObjectOnly) {
  // Hand-build a placement selecting only "hot".
  const auto app = tiny_app();
  advisor::Placement placement;
  advisor::TierPlacement fast;
  fast.tier_name = "mcdram";
  fast.budget_bytes = 16ULL << 20;
  advisor::ObjectInfo hot;
  hot.name = "hot";
  hot.max_size_bytes = 8ULL << 20;
  hot.llc_misses = 1000;
  hot.stack = app.alloc_stack(0);
  fast.objects.push_back(hot);
  placement.tiers.push_back(fast);
  placement.tiers.push_back(advisor::TierPlacement{"ddr", 1ULL << 40, {},
                                                   0, 0});
  placement.lb_size = 8ULL << 20;
  placement.ub_size = 8ULL << 20;
  placement.enforced_fast_budget_bytes = 16ULL << 20;

  RunOptions opts;
  opts.condition = Condition::kFramework;
  opts.placement = &placement;
  const auto r = run_app(app, opts);
  ASSERT_TRUE(r.autohbw.has_value());
  EXPECT_EQ(r.autohbw->promoted, 1u);
  EXPECT_EQ(r.fast_hwm_bytes, 8ULL << 20);
  EXPECT_GT(r.fast_bytes(), 0u);

  RunOptions ddr_opts;
  const auto ddr = run_app(app, ddr_opts);
  EXPECT_GT(r.fom, ddr.fom);  // promoting the hot object pays off
}

TEST(Pipeline, EndToEndImprovesOnDdr) {
  PipelineOptions opts;
  opts.fast_budget_per_rank = 16ULL << 20;
  opts.sampler.period = 2000;
  const auto result = run_pipeline(tiny_app(), opts);
  // Stage 2 found the objects and attributed misses.
  ASSERT_GE(result.report.objects.size(), 2u);
  EXPECT_EQ(result.report.objects[0].name, "hot");  // most misses first
  // Stage 3 selected the hot object.
  ASSERT_FALSE(result.placement.fast().objects.empty());
  EXPECT_EQ(result.placement.fast().objects[0].name, "hot");
  // Report text is parseable and the production run beats the profile run
  // (which itself carries monitoring overhead on top of DDR placement).
  EXPECT_FALSE(result.placement_report_text.empty());
  EXPECT_GT(result.production_run.fom, result.profile_run.fom);
}

TEST(Pipeline, MultiRankShardsMergeIntoOneReport) {
  PipelineOptions single;
  single.fast_budget_per_rank = 16ULL << 20;
  single.sampler.period = 2000;
  PipelineOptions sharded = single;
  sharded.profile_ranks = 3;
  const auto one = run_pipeline(tiny_app(), single);
  const auto multi = run_pipeline(tiny_app(), sharded);

  // One profiled execution per rank, each serialized as a non-empty shard,
  // all events flowing through the merged aggregation.
  ASSERT_EQ(multi.rank_profile_runs.size(), 3u);
  ASSERT_EQ(multi.shard_bytes.size(), 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_GT(multi.shard_bytes[r], 0u);
    EXPECT_GT(multi.rank_profile_runs[r].samples, 0u);
    // Streamed runs never buffer the trace.
    EXPECT_EQ(multi.rank_profile_runs[r].trace, nullptr);
  }
  EXPECT_GT(multi.merged_events, 0u);

  // The merged report covers the same objects as the single-rank one, with
  // roughly 3 ranks' worth of samples, and stage 3/4 still work: the hot
  // object is selected and the production run beats the profiled one.
  ASSERT_EQ(multi.report.objects.size(), one.report.objects.size());
  EXPECT_EQ(multi.report.objects[0].name, "hot");
  EXPECT_GT(multi.report.total_samples, one.report.total_samples * 2);
  ASSERT_FALSE(multi.placement.fast().objects.empty());
  EXPECT_EQ(multi.placement.fast().objects[0].name, "hot");
  EXPECT_GT(multi.production_run.fom, multi.profile_run.fom);
}

TEST(Pipeline, MultiRankTextShardsMatchBinaryShards) {
  // The shard format must not change the aggregation at all.
  PipelineOptions binary;
  binary.fast_budget_per_rank = 16ULL << 20;
  binary.sampler.period = 2000;
  binary.profile_ranks = 2;
  PipelineOptions text = binary;
  text.shard_format = trace::TraceFormat::kText;
  const auto from_binary = run_pipeline(tiny_app(), binary);
  const auto from_text = run_pipeline(tiny_app(), text);
  EXPECT_EQ(from_binary.merged_events, from_text.merged_events);
  ASSERT_EQ(from_binary.report.objects.size(),
            from_text.report.objects.size());
  for (std::size_t i = 0; i < from_binary.report.objects.size(); ++i) {
    EXPECT_EQ(from_binary.report.objects[i].name,
              from_text.report.objects[i].name);
    EXPECT_EQ(from_binary.report.objects[i].llc_misses,
              from_text.report.objects[i].llc_misses);
    EXPECT_EQ(from_binary.report.objects[i].max_size_bytes,
              from_text.report.objects[i].max_size_bytes);
  }
  // Binary shards are materially smaller than text ones.
  EXPECT_LT(from_binary.shard_bytes[0], from_text.shard_bytes[0]);
}

TEST(Pipeline, ProductionRunUsesDifferentAslrImage) {
  PipelineOptions opts;
  opts.fast_budget_per_rank = 16ULL << 20;
  opts.sampler.period = 2000;
  opts.profile_seed = 1;
  opts.production_seed = 999;  // different ASLR slides
  const auto result = run_pipeline(tiny_app(), opts);
  // Promotion still works because matching is symbolic, not raw-address.
  ASSERT_TRUE(result.production_run.autohbw.has_value());
  EXPECT_GT(result.production_run.autohbw->promoted, 0u);
}

TEST(Experiment, DfomMetricMatchesDefinition) {
  EXPECT_DOUBLE_EQ(dfom_per_mb(150.0, 100.0, 100ULL << 20), 0.5);
  EXPECT_DOUBLE_EQ(dfom_per_mb(100.0, 100.0, 256ULL << 20), 0.0);
  EXPECT_LT(dfom_per_mb(90.0, 100.0, 256ULL << 20), 0.0);
}

TEST(Experiment, PaperStrategiesAndBudgets) {
  const auto strategies = paper_strategies();
  ASSERT_EQ(strategies.size(), 4u);
  EXPECT_EQ(strategies[0].label, "Density");
  EXPECT_EQ(strategies[3].label, "Misses(5%)");
  EXPECT_DOUBLE_EQ(strategies[3].options.threshold_pct, 5.0);
  const auto budgets = paper_budgets_mpi();
  ASSERT_EQ(budgets.size(), 4u);
  EXPECT_EQ(budgets.front(), 32ULL << 20);
  EXPECT_EQ(budgets.back(), 256ULL << 20);
  EXPECT_EQ(paper_budgets_openmp().back(), 16ULL << 30);
}

TEST(Experiment, Fig4RunnerProducesFullGrid) {
  PipelineOptions base;
  base.sampler.period = 2000;
  Fig4Runner runner(tiny_app(), base);
  const std::vector<std::uint64_t> budgets = {4ULL << 20, 16ULL << 20};
  const auto strategies = paper_strategies();
  const auto row = runner.run(budgets, strategies);
  EXPECT_EQ(row.cells.size(), budgets.size() * strategies.size());
  EXPECT_GT(row.ddr.fom, 0.0);
  EXPECT_GT(row.numactl.fom, row.ddr.fom);
  // Larger budget never hurts for this single-hot-object app.
  for (const auto& s : strategies) {
    EXPECT_GE(row.cell(s.label, 16ULL << 20).fom,
              row.cell(s.label, 4ULL << 20).fom * 0.99);
  }
  // Formatting includes every strategy label and the baselines.
  const auto text = format_fig4_row(row, budgets, strategies);
  for (const auto& s : strategies) {
    EXPECT_NE(text.find(s.label), std::string::npos);
  }
  EXPECT_NE(text.find("DDR="), std::string::npos);
  const auto csv = fig4_row_to_csv(row);
  EXPECT_NE(csv.find("baseline"), std::string::npos);
  EXPECT_NE(csv.find("framework"), std::string::npos);
}

TEST(StreamTriad, BandwidthOrderingMatchesFigure1) {
  // At high core counts: flat MCDRAM > cache mode > DDR.
  const auto app = apps::make_stream_triad(68);
  RunOptions opts;
  const auto ddr = run_app(app, opts);
  opts.condition = Condition::kCacheMode;
  const auto cache = run_app(app, opts);
  opts.condition = Condition::kNumactl;
  const auto flat = run_app(app, opts);
  EXPECT_GT(flat.achieved_bw_gbs, 400.0);
  EXPECT_LT(ddr.achieved_bw_gbs, 100.0);
  EXPECT_GT(cache.achieved_bw_gbs, ddr.achieved_bw_gbs * 1.5);
  EXPECT_LT(cache.achieved_bw_gbs, flat.achieved_bw_gbs);
}

TEST(StreamTriad, DdrSaturatesWithCores) {
  const auto bw = [](int cores) {
    RunOptions opts;
    return run_app(apps::make_stream_triad(cores), opts).achieved_bw_gbs;
  };
  const double one = bw(1);
  const double sixteen = bw(16);
  const double sixtyeight = bw(68);
  EXPECT_GT(sixteen, one * 8);          // scales at low counts
  EXPECT_NEAR(sixtyeight, sixteen, 5);  // saturated past ~16 cores
}

// ------------------------------------------------------------- N tiers ----

/// Three-tier machine scaled so tiny workloads hit its capacity edges:
/// 16 MiB HBM (fastest), 10 MiB DDR (middle), 256 MiB PMEM (fallback).
memsim::MachineConfig three_tier_node() {
  memsim::MachineConfig node =
      memsim::MachineConfig::test_node3(memsim::MemMode::kFlat);
  node.tiers[0].capacity_bytes = 256ULL << 20;  // PMEM
  node.tiers[1].capacity_bytes = 10ULL << 20;   // DDR
  node.tiers[2].capacity_bytes = 16ULL << 20;   // HBM
  return node;
}

/// Single-rank app whose objects straddle the three-tier node's budgets:
/// "a" (2 MiB, hottest) fits the HBM budget, "b" (6 MiB, warm) only the
/// middle tier, "c" (30 MiB, cold) nothing but the fallback.
apps::AppSpec three_tier_app() {
  apps::AppSpec app;
  app.name = "tritier";
  app.fom_unit = "it/s";
  app.ranks = 1;
  app.threads_per_rank = 4;
  app.iterations = 10;
  app.accesses_per_iteration = 4000;
  app.access_scale = 100.0;
  app.work_per_iteration = 1.0;
  app.stack_bytes = 1ULL << 20;
  app.objects = {
      apps::ObjectSpec{.name = "a", .size_bytes = 2ULL << 20,
                       .pattern = apps::AccessPattern::kRandom},
      apps::ObjectSpec{.name = "b", .size_bytes = 6ULL << 20,
                       .pattern = apps::AccessPattern::kRandom},
      apps::ObjectSpec{.name = "c", .size_bytes = 30ULL << 20,
                       .pattern = apps::AccessPattern::kStream},
  };
  apps::PhaseSpec phase;
  phase.name = "main";
  phase.object_weights = {0.6, 0.3, 0.08};
  phase.stack_weight = 0.02;
  phase.insts_per_access = 20.0;
  app.phases = {phase};
  return app;
}

TEST(ThreeTier, PipelineCascadesAcrossAllTiers) {
  // End-to-end profile -> advise -> run on a three-tier preset-style node:
  // the knapsack cascade must spread the objects across all three tiers
  // and the runtime must promote into *both* non-fallback tiers.
  PipelineOptions opts;
  opts.node = three_tier_node();
  opts.fast_budget_per_rank = 4ULL << 20;
  opts.sampler.period = 2000;
  const auto result = run_pipeline(three_tier_app(), opts);

  ASSERT_EQ(result.placement.tiers.size(), 3u);
  ASSERT_EQ(result.placement.tiers[0].objects.size(), 1u);
  EXPECT_EQ(result.placement.tiers[0].objects[0].name, "a");
  ASSERT_EQ(result.placement.tiers[1].objects.size(), 1u);  // overflow
  EXPECT_EQ(result.placement.tiers[1].objects[0].name, "b");
  ASSERT_EQ(result.placement.tiers[2].objects.size(), 1u);  // fallback
  EXPECT_EQ(result.placement.tiers[2].objects[0].name, "c");

  // The production run promoted into both the HBM and the DDR tier.
  ASSERT_TRUE(result.production_run.autohbw.has_value());
  const auto& stats = *result.production_run.autohbw;
  ASSERT_EQ(stats.tier_promoted.size(), 2u);
  EXPECT_GE(stats.tier_promoted[0], 1u);
  EXPECT_GE(stats.tier_promoted[1], 1u);
  EXPECT_EQ(stats.promoted, stats.tier_promoted[0] + stats.tier_promoted[1]);

  // Traffic lands on all three tiers (fast -> slow order in the result).
  ASSERT_EQ(result.production_run.tier_traffic.size(), 3u);
  EXPECT_EQ(result.production_run.tier_traffic[0].name, "HBM");
  EXPECT_EQ(result.production_run.tier_traffic[1].name, "DDR");
  EXPECT_EQ(result.production_run.tier_traffic[2].name, "PMEM");
  for (const auto& traffic : result.production_run.tier_traffic) {
    EXPECT_GT(traffic.bytes, 0u) << traffic.name;
  }

  // Spreading the hot data off the 300 ns PMEM pays off vs everything-slow.
  RunOptions ddr_opts;
  ddr_opts.node = opts.node;
  const auto slow_only = run_app(three_tier_app(), ddr_opts);
  EXPECT_GT(result.production_run.fom, slow_only.fom * 1.2);
}

TEST(ThreeTier, NumactlCascadesFcfsAcrossTiers) {
  // FCFS preference order on three tiers: the 16 MiB HBM takes what fits
  // first, the rest spills to DDR, then PMEM.
  RunOptions opts;
  opts.node = three_tier_node();
  opts.condition = Condition::kNumactl;
  const auto r = run_app(three_tier_app(), opts);
  EXPECT_GT(r.fast_hwm_bytes, 0u);
  ASSERT_EQ(r.tier_traffic.size(), 3u);
  EXPECT_GT(r.tier_traffic[0].bytes, 0u);  // HBM saw traffic

  RunOptions slow_opts;
  slow_opts.node = opts.node;
  const auto slow_only = run_app(three_tier_app(), slow_opts);
  EXPECT_GT(r.fom, slow_only.fom);
}

TEST(ThreeTier, HandBuiltConfigWithoutBasesRoutesCorrectly) {
  // A caller-supplied node whose tiers were never laid out (all bases
  // zero) must still route traffic per tier: run_app assigns the bases
  // before building allocators, so the Machine and the allocators agree.
  memsim::MachineConfig node = three_tier_node();
  for (auto& tier : node.tiers) tier.base = 0;
  RunOptions opts;
  opts.node = node;
  opts.condition = Condition::kNumactl;
  const auto r = run_app(three_tier_app(), opts);
  EXPECT_GT(r.fast_bytes(), 0u);  // HBM saw traffic, not just the fallback
  EXPECT_GT(r.fast_hwm_bytes, 0u);
}

TEST(ThreeTier, CacheModeFrontsFastestOverSlowest) {
  RunOptions opts;
  opts.node = three_tier_node();
  opts.condition = Condition::kCacheMode;
  const auto cache = run_app(three_tier_app(), opts);
  RunOptions slow_opts;
  slow_opts.node = opts.node;
  const auto slow_only = run_app(three_tier_app(), slow_opts);
  // HBM fronting PMEM beats everything-in-PMEM.
  EXPECT_GT(cache.fom, slow_only.fom);
  EXPECT_GT(cache.fast_bytes(), 0u);  // fill + hit traffic on the front
  EXPECT_GT(cache.slow_bytes(), 0u);  // misses served by the backing tier
  // The middle tier is neither front nor backing.
  ASSERT_EQ(cache.tier_traffic.size(), 3u);
  EXPECT_EQ(cache.tier_traffic[1].name, "DDR");
  EXPECT_EQ(cache.tier_traffic[1].bytes, 0u);
}

TEST(ThreeTier, CacheModeBacksOntoFirstOfTiedSlowestTiers) {
  // PMEM (tier 0) and DDR (tier 1) tie for slowest. The backing tier is
  // the first tied one, PMEM, even though the performance order ends on
  // DDR; both are big enough that either choice would run.
  memsim::MachineConfig node = three_tier_node();
  node.tiers[1].relative_performance = node.tiers[0].relative_performance;
  node.tiers[1].capacity_bytes = node.tiers[0].capacity_bytes;
  RunOptions opts;
  opts.node = node;
  opts.condition = Condition::kCacheMode;
  const auto r = run_app(three_tier_app(), opts);
  // Performance order, fastest first: HBM, then the tied PMEM and DDR.
  ASSERT_EQ(r.tier_traffic.size(), 3u);
  ASSERT_EQ(r.tier_traffic[1].name, "PMEM");
  ASSERT_EQ(r.tier_traffic[2].name, "DDR");
  EXPECT_GT(r.tier_traffic[0].bytes, 0u);  // HBM, the front
  EXPECT_GT(r.tier_traffic[1].bytes, 0u);  // PMEM, the backing
  EXPECT_EQ(r.tier_traffic[2].bytes, 0u);
}

TEST(ConditionNames, Stable) {
  EXPECT_STREQ(condition_name(Condition::kDdr), "ddr");
  EXPECT_STREQ(condition_name(Condition::kNumactl), "numactl");
  EXPECT_STREQ(condition_name(Condition::kAutoHbw), "autohbw");
  EXPECT_STREQ(condition_name(Condition::kCacheMode), "cache");
  EXPECT_STREQ(condition_name(Condition::kFramework), "framework");
}

}  // namespace
}  // namespace hmem::engine
