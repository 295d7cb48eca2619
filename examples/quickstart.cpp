// Quickstart: the complete four-stage framework on one of the paper's
// workloads, in ~30 lines of user code.
//
//   stage 1  profile the application (Extrae substitute: allocation
//            instrumentation + PEBS sampling of LLC misses);
//   stage 2  aggregate the trace into per-object miss/size statistics
//            (Paramedir substitute);
//   stage 3  compute the MCDRAM placement for a budget (hmem_advisor);
//   stage 4  re-run with auto-hbwmalloc honouring the placement.
//
// Build & run:  ./example_quickstart
#include <cstdio>

#include "apps/workloads.hpp"
#include "engine/pipeline.hpp"

int main() {
  using namespace hmem;

  // The application under study: the paper's HPCG signature (64 ranks x 4
  // threads on the simulated Xeon Phi 7250).
  const apps::AppSpec app = apps::app_by_name("hpcg");

  // One call drives all four stages. 256 MiB of MCDRAM per rank, the
  // Misses(5%) selection strategy.
  engine::PipelineOptions options;
  options.fast_budget_per_rank = 256ULL << 20;
  options.advisor.strategy = advisor::Strategy::kMisses;
  options.advisor.threshold_pct = 5.0;
  const engine::PipelineResult result = engine::run_pipeline(app, options);

  // Stage-2 output: the objects Paramedir found, hottest first.
  std::printf("objects by sampled LLC misses:\n");
  for (const auto& obj : result.report.objects) {
    std::printf("  %-16s %10.1f MiB  %12llu misses%s\n", obj.name.c_str(),
                static_cast<double>(obj.max_size_bytes) / (1 << 20),
                static_cast<unsigned long long>(obj.llc_misses),
                obj.is_dynamic ? "" : "  [static]");
  }

  // Stage-3 output: the human-readable placement report auto-hbwmalloc
  // consumes (and a developer could apply by hand instead).
  std::printf("\nplacement report:\n%s\n",
              result.placement_report_text.c_str());

  // Stage 4 vs the DDR reference.
  engine::RunOptions ddr;
  const auto baseline = engine::run_app(app, ddr);
  std::printf("DDR baseline : %8.2f %s\n", baseline.fom,
              baseline.fom_unit.c_str());
  std::printf("framework    : %8.2f %s  (%.1f%% faster)\n",
              result.production_run.fom, result.production_run.fom_unit.c_str(),
              (result.production_run.fom / baseline.fom - 1.0) * 100.0);
  std::printf("MCDRAM HWM   : %8.1f MiB/rank\n",
              static_cast<double>(result.production_run.fast_hwm_bytes) /
                  (1 << 20));
  return 0;
}
