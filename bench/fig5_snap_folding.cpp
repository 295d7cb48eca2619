// Figure 5: performance evolution of SNAP's main iteration under the
// framework placement — routine executed, addresses referenced, and MIPS
// over time (the Folding view).
//
// Paper shape to hold: the MIPS rate drops while outer_src_calc executes,
// because its register spills hit the stack, which the framework cannot
// promote (under numactl -p 1 the dip disappears — also shown).
#include <cstdio>

#include "analysis/folding.hpp"
#include "apps/workloads.hpp"
#include "engine/pipeline.hpp"

using namespace hmem;

namespace {

analysis::FoldingResult folded_run(engine::Condition condition,
                                   const advisor::Placement* placement) {
  const auto app = apps::app_by_name("snap");
  engine::RunOptions opts;
  opts.condition = condition;
  opts.placement = placement;
  opts.profile = true;
  opts.sampler.period = 8000;  // denser sampling for a readable figure
  const auto run = engine::run_app(app, opts);
  // Fold exactly one main iteration (the paper folds the main iteration,
  // not the whole run): window = [20th octsweep begin, 21st).
  double t0 = 0, t1 = run.time_s * 1e9;
  int seen = 0;
  for (const auto& ev : run.trace->events()) {
    if (const auto* ph = std::get_if<trace::PhaseEvent>(&ev)) {
      if (ph->begin && ph->name == "octsweep") {
        ++seen;
        if (seen == 20) t0 = ph->time_ns;
        if (seen == 21) {
          t1 = ph->time_ns;
          break;
        }
      }
    }
  }
  return analysis::fold(*run.trace, t0, t1, 16);
}

double phase_mips(const analysis::FoldingResult& folding,
                  const std::string& phase) {
  double sum = 0;
  int n = 0;
  for (const auto& bin : folding.bins) {
    if (bin.dominant_phase == phase && bin.mips > 0) {
      sum += bin.mips;
      ++n;
    }
  }
  return n > 0 ? sum / n : 0;
}

}  // namespace

int main() {
  // Build a framework placement (stages 1-3), then fold a profiled
  // framework run versus a profiled numactl run.
  const auto app = apps::app_by_name("snap");
  engine::PipelineOptions popts;
  popts.fast_budget_per_rank = 256ULL << 20;
  const auto pipeline = engine::run_pipeline(app, popts);
  const auto parsed =
      advisor::read_placement_report(pipeline.placement_report_text);

  const auto framework = folded_run(engine::Condition::kFramework, &parsed);
  const auto numactl = folded_run(engine::Condition::kNumactl, nullptr);

  std::printf("Figure 5 — SNAP folding under the framework placement\n");
  std::printf("%s\n", analysis::folding_to_csv(framework).c_str());

  const double fw_sweep = phase_mips(framework, "octsweep");
  const double fw_outer = phase_mips(framework, "outer_src_calc");
  const double nu_sweep = phase_mips(numactl, "octsweep");
  const double nu_outer = phase_mips(numactl, "outer_src_calc");
  std::printf("mean MIPS by routine:\n");
  std::printf("  framework: octsweep=%.0f outer_src_calc=%.0f (dip %.2fx)\n",
              fw_sweep, fw_outer, fw_sweep / fw_outer);
  std::printf("  numactl:   octsweep=%.0f outer_src_calc=%.0f (dip %.2fx)\n",
              nu_sweep, nu_outer, nu_sweep / nu_outer);
  std::printf(
      "paper shape: outer_src_calc MIPS dips under the framework (stack "
      "spills stay in DDR) but not under numactl.\n");
  return 0;
}
