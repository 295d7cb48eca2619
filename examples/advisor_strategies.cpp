// Comparing hmem_advisor's selection strategies on one profile.
//
// Profiles GTC-P once, then asks the advisor for placements under the
// Density and Misses(t%) strategies across the paper's budget sweep,
// showing how the selections (and their achieved performance) diverge —
// GTC-P is the paper's example of the density strategy winning.
//
// Build & run:  ./example_advisor_strategies
#include <cstdio>

#include "analysis/aggregator.hpp"
#include "apps/workloads.hpp"
#include "engine/execution.hpp"

int main() {
  using namespace hmem;
  const apps::AppSpec app = apps::app_by_name("gtc-p");

  // Stage 1 + 2 once: one profile serves every advisor configuration.
  engine::RunOptions profile_opts;
  profile_opts.profile = true;
  const auto profile = engine::run_app(app, profile_opts);
  const auto report =
      analysis::aggregate_trace(*profile.trace, *profile.sites);

  const auto ddr = [&] {
    engine::RunOptions opts;
    return engine::run_app(app, opts);
  }();
  std::printf("GTC-P, DDR reference: %.4f %s\n\n", ddr.fom,
              ddr.fom_unit.c_str());

  const std::uint64_t ddr_share = 96ULL << 30 >> 6;  // 96 GiB / 64 ranks
  for (const std::uint64_t budget : {64ULL << 20, 128ULL << 20,
                                     256ULL << 20}) {
    std::printf("budget %3llu MiB/rank:\n",
                static_cast<unsigned long long>(budget >> 20));
    for (const auto strategy :
         {advisor::Strategy::kDensity, advisor::Strategy::kMisses}) {
      advisor::Options adv_opts;
      adv_opts.strategy = strategy;
      advisor::HmemAdvisor adv(advisor::MemorySpec::two_tier(budget,
                                                             ddr_share),
                               adv_opts);
      const auto placement = adv.advise(report.objects);

      engine::RunOptions run_opts;
      run_opts.condition = engine::Condition::kFramework;
      run_opts.placement = &placement;
      const auto run = engine::run_app(app, run_opts);

      std::printf("  %-8s -> %.4f %s (%+5.1f%%), selected:",
                  advisor::strategy_name(strategy), run.fom,
                  run.fom_unit.c_str(), (run.fom / ddr.fom - 1.0) * 100.0);
      for (const auto& obj : placement.fast().objects) {
        std::printf(" %s", obj.name.c_str());
      }
      std::printf("\n");
    }
  }
  std::printf(
      "\nnote how the misses strategy spends small budgets on the big\n"
      "particle array while density packs the dense grid arrays first.\n");
  return 0;
}
