// Folding analysis: reconstructing a workload's time evolution from
// coarse-grained samples (the technique behind the paper's Figure 5).
//
// Profiles SNAP, folds one main iteration into time bins, and prints the
// three-panel view: dominant routine, sampled address range, and MIPS per
// bin. With data placed by the framework, the outer_src_calc routine shows
// a clear MIPS dip (its register spills hit the DDR-resident stack).
//
// Build & run:  ./example_folding_analysis
#include <cstdio>

#include "analysis/folding.hpp"
#include "apps/workloads.hpp"
#include "engine/pipeline.hpp"

int main() {
  using namespace hmem;
  const apps::AppSpec app = apps::app_by_name("snap");

  // Stages 1-3 to obtain a placement, then a profiled stage-4 run.
  engine::PipelineOptions popts;
  popts.fast_budget_per_rank = 256ULL << 20;
  const auto pipeline = engine::run_pipeline(app, popts);
  const auto placement =
      advisor::read_placement_report(pipeline.placement_report_text);

  engine::RunOptions opts;
  opts.condition = engine::Condition::kFramework;
  opts.placement = &placement;
  opts.profile = true;
  opts.sampler.period = 8000;
  const auto run = engine::run_app(app, opts);

  // Fold one mid-run iteration (between two consecutive octsweep begins).
  double t0 = 0, t1 = run.time_s * 1e9;
  int seen = 0;
  for (const auto& ev : run.trace->events()) {
    if (const auto* ph = std::get_if<trace::PhaseEvent>(&ev)) {
      if (ph->begin && ph->name == "octsweep") {
        if (++seen == 10) t0 = ph->time_ns;
        if (seen == 11) {
          t1 = ph->time_ns;
          break;
        }
      }
    }
  }
  const auto folding = analysis::fold(*run.trace, t0, t1, 12);

  std::printf("%4s %-16s %8s %10s\n", "bin", "routine", "samples", "MIPS");
  for (std::size_t b = 0; b < folding.bins.size(); ++b) {
    const auto& bin = folding.bins[b];
    std::printf("%4zu %-16s %8llu %10.0f\n", b, bin.dominant_phase.c_str(),
                static_cast<unsigned long long>(bin.sample_count), bin.mips);
  }
  std::printf("\nCSV form:\n%s", analysis::folding_to_csv(folding).c_str());
  return 0;
}
