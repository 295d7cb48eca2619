// Cross-module integration tests: the full four-stage framework on the
// paper's workloads, checking the headline behaviours the evaluation
// section reports (who wins where, and why).
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/aggregator.hpp"
#include "apps/workloads.hpp"
#include "common/units.hpp"
#include "engine/experiment.hpp"
#include "engine/pipeline.hpp"
#include "trace/tracefile.hpp"

namespace hmem::engine {
namespace {

RunResult run_condition(const apps::AppSpec& app, Condition condition) {
  RunOptions opts;
  opts.condition = condition;
  return run_app(app, opts);
}

TEST(Integration, HpcgFrameworkBeatsEveryBaseline) {
  // Paper: "Our framework provides best results for HPCG", ~+79% over DDR
  // and ~+25% over the second best (cache mode).
  const auto app = apps::app_by_name("hpcg");
  PipelineOptions base;
  base.fast_budget_per_rank = 256ULL << 20;
  base.advisor.strategy = advisor::Strategy::kMisses;
  base.advisor.threshold_pct = 5.0;
  const auto pipeline = run_pipeline(app, base);

  const auto ddr = run_condition(app, Condition::kDdr);
  const auto cache = run_condition(app, Condition::kCacheMode);
  const auto numactl = run_condition(app, Condition::kNumactl);

  const double framework = pipeline.production_run.fom;
  EXPECT_GT(framework, ddr.fom * 1.5);    // large gain over DDR
  EXPECT_GT(framework, cache.fom * 1.1);  // clearly above cache mode
  EXPECT_GT(cache.fom, numactl.fom);      // cache is HPCG's second best
}

TEST(Integration, HpcgTopTwoObjectsCarryTheGain) {
  // Paper: "the fastest cases of HPCG ... reach their maximum performance by
  // placing 2 ... data objects into fast memory".
  const auto app = apps::app_by_name("hpcg");
  PipelineOptions base;
  base.fast_budget_per_rank = 256ULL << 20;
  base.advisor.threshold_pct = 5.0;
  const auto pipeline = run_pipeline(app, base);
  EXPECT_LE(pipeline.placement.fast().objects.size(), 3u);
  EXPECT_GE(pipeline.placement.fast().objects.size(), 1u);
}

TEST(Integration, LuleshCacheModeWins) {
  // Paper: cache mode is superior for Lulesh; autohbw *hurts* (-8%).
  const auto app = apps::app_by_name("lulesh");
  const auto ddr = run_condition(app, Condition::kDdr);
  const auto cache = run_condition(app, Condition::kCacheMode);
  const auto autohbw = run_condition(app, Condition::kAutoHbw);

  PipelineOptions base;
  base.fast_budget_per_rank = 256ULL << 20;
  base.advisor.strategy = advisor::Strategy::kDensity;
  const auto pipeline = run_pipeline(app, base);

  EXPECT_GT(cache.fom, ddr.fom * 1.2);
  EXPECT_GT(cache.fom, pipeline.production_run.fom);  // cache beats framework
  EXPECT_LT(autohbw.fom, ddr.fom * 1.01);  // autohbw at or below DDR
}

TEST(Integration, LuleshVirtualBudgetMitigation) {
  // Paper: pretending 512 MiB while enforcing 256 MiB shortens the gap —
  // the advisor's static-address-space assumption under-commits on
  // phase-scoped transients.
  const auto app = apps::app_by_name("lulesh");
  PipelineOptions plain;
  plain.fast_budget_per_rank = 256ULL << 20;
  plain.advisor.strategy = advisor::Strategy::kDensity;
  const auto without = run_pipeline(app, plain);

  PipelineOptions mitigated = plain;
  mitigated.advisor.virtual_budget_bytes = 512ULL << 20;
  const auto with = run_pipeline(app, mitigated);

  EXPECT_GT(with.production_run.fom, without.production_run.fom * 0.98);
  // The virtual budget must select at least as many objects.
  EXPECT_GE(with.placement.fast().objects.size(),
            without.placement.fast().objects.size());
}

TEST(Integration, BtNumactlWinsBecauseItFits) {
  // Paper: BT's working set fits MCDRAM, so numactl -p 1 carries statics
  // and stack too and wins marginally.
  const auto app = apps::app_by_name("bt");
  const auto ddr = run_condition(app, Condition::kDdr);
  const auto numactl = run_condition(app, Condition::kNumactl);
  const auto cache = run_condition(app, Condition::kCacheMode);
  EXPECT_GT(numactl.fom, ddr.fom * 2.5);  // huge gain: everything promoted
  EXPECT_GT(numactl.fom, cache.fom);      // flat beats cache mode
}

TEST(Integration, CgpopFlatAcrossBudgets) {
  // Paper: CGPOP's critical set already fits at 32 MiB/rank, "so adding
  // more memory does not provide any benefit".
  const auto app = apps::app_by_name("cgpop");
  PipelineOptions base;
  base.advisor.strategy = advisor::Strategy::kMisses;
  std::vector<double> foms;
  for (const std::uint64_t budget : {32ULL << 20, 256ULL << 20}) {
    PipelineOptions opts = base;
    opts.fast_budget_per_rank = budget;
    foms.push_back(run_pipeline(app, opts).production_run.fom);
  }
  EXPECT_NEAR(foms[0], foms[1], foms[0] * 0.03);
}

TEST(Integration, SnapStackTrafficKeepsFrameworkBehindNumactl) {
  // Paper: SNAP's outer_src_calc spills registers to the stack; the
  // framework cannot promote stack data, numactl can.
  const auto app = apps::app_by_name("snap");
  const auto numactl = run_condition(app, Condition::kNumactl);
  PipelineOptions base;
  base.fast_budget_per_rank = 256ULL << 20;
  const auto pipeline = run_pipeline(app, base);
  EXPECT_GT(numactl.fom, pipeline.production_run.fom);
  // And the profile shows unattributed (stack) samples.
  EXPECT_GT(pipeline.report.unattributed_fraction(), 0.1);
}

TEST(Integration, SnapDensityHwmAnomaly) {
  // Paper: with 256 MiB budgets the density strategy promotes the small
  // chunks and the large flux buffer no longer fits: far less MCDRAM used
  // than under the misses strategy.
  const auto app = apps::app_by_name("snap");
  PipelineOptions base;
  base.fast_budget_per_rank = 256ULL << 20;

  PipelineOptions density = base;
  density.advisor.strategy = advisor::Strategy::kDensity;
  const auto density_run = run_pipeline(app, density);

  PipelineOptions misses = base;
  misses.advisor.strategy = advisor::Strategy::kMisses;
  const auto misses_run = run_pipeline(app, misses);

  EXPECT_LT(density_run.production_run.fast_hwm_bytes, 100ULL << 20);
  EXPECT_GT(misses_run.production_run.fast_hwm_bytes, 150ULL << 20);
}

TEST(Integration, GtcpDensityBeatsMissesAtSmallBudgets) {
  // Paper: GTC-P is one of the cases where the density strategy behaves
  // better (small dense grid arrays vs large particle arrays).
  const auto app = apps::app_by_name("gtc-p");
  PipelineOptions base;
  base.fast_budget_per_rank = 128ULL << 20;
  PipelineOptions density = base;
  density.advisor.strategy = advisor::Strategy::kDensity;
  PipelineOptions misses = base;
  misses.advisor.strategy = advisor::Strategy::kMisses;
  EXPECT_GT(run_pipeline(app, density).production_run.fom,
            run_pipeline(app, misses).production_run.fom * 1.05);
}

TEST(Integration, MaxwCacheSlightlySuperior) {
  const auto app = apps::app_by_name("maxw-dgtd");
  const auto cache = run_condition(app, Condition::kCacheMode);
  PipelineOptions base;
  base.fast_budget_per_rank = 256ULL << 20;
  base.advisor.threshold_pct = 5.0;
  const auto pipeline = run_pipeline(app, base);
  EXPECT_GT(cache.fom, pipeline.production_run.fom * 0.99);
  EXPECT_LT(cache.fom, pipeline.production_run.fom * 1.15);  // "slightly"
}

TEST(Integration, TraceFileRoundTripPreservesAggregation) {
  // Serialise the stage-1 trace to text, read it back, and verify stage 2
  // produces identical per-object statistics.
  const auto app = apps::app_by_name("minife");
  RunOptions opts;
  opts.profile = true;
  const auto profiled = run_app(app, opts);
  ASSERT_NE(profiled.trace, nullptr);

  std::ostringstream os;
  trace::write_trace(os, *profiled.sites, *profiled.trace);
  callstack::SiteDb sites2;
  trace::TraceBuffer buf2;
  std::istringstream is(os.str());
  trace::read_trace(is, sites2, buf2);

  const auto direct = analysis::aggregate_trace(*profiled.trace,
                                                *profiled.sites);
  const auto roundtrip = analysis::aggregate_trace(buf2, sites2);
  ASSERT_EQ(direct.objects.size(), roundtrip.objects.size());
  for (std::size_t i = 0; i < direct.objects.size(); ++i) {
    EXPECT_EQ(direct.objects[i].name, roundtrip.objects[i].name);
    EXPECT_EQ(direct.objects[i].llc_misses, roundtrip.objects[i].llc_misses);
    EXPECT_EQ(direct.objects[i].max_size_bytes,
              roundtrip.objects[i].max_size_bytes);
  }
}

TEST(Integration, MonitoringOverheadStaysSmall) {
  // Table I: monitoring overhead between 0.15% and 4.1%.
  for (const auto& app :
       {apps::app_by_name("hpcg"), apps::app_by_name("snap")}) {
    RunOptions opts;
    opts.profile = true;
    const auto r = run_app(app, opts);
    EXPECT_GT(r.monitoring_overhead, 0.0) << app.name;
    EXPECT_LT(r.monitoring_overhead, 0.06) << app.name;
  }
}

TEST(Integration, StaticRecommendationsSurfaceForCgpop) {
  // CGPOP's remaining statics should appear as advisory output (they can
  // only be migrated by editing the code).
  const auto app = apps::app_by_name("cgpop");
  PipelineOptions base;
  base.fast_budget_per_rank = 256ULL << 20;
  const auto pipeline = run_pipeline(app, base);
  bool found = false;
  for (const auto& rec : pipeline.placement.static_recommendations) {
    if (rec.name == "halo_tables") found = true;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace hmem::engine
