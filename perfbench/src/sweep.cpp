// `sweep` workload: one op builds a fresh SweepEngine over one app's slice
// of the paper grid — knl × {ddr, cache} baselines × the paper's four
// strategies × the app's budget ladder, plus one dynamic cell per budget —
// and runs it. A round of nine ops covers the grid of
// `hmem_sweep --strategies paper --dynamic --baselines ddr,cache` over the
// bundled apps except bt (see kLeftOut).
//
// Every op starts cold: hmem_sweep users pay for stage-1 profiles and
// kernel compiles on every invocation, and reusing one engine would turn
// every later pass into 100% cache hits.
//
// Each app is scaled to the same number of simulated accesses per pass
// (before its cost scale), which keeps op costs comparable across apps.
#include <algorithm>
#include <cstdio>

#include "bench.hpp"
#include "engine/experiment.hpp"
#include "engine/sweep.hpp"

namespace perfbench {
namespace {

using namespace hmem;

/// Simulated accesses per pass before the per-app cost scale.
constexpr std::uint64_t kAccessesPerPass = 2'500'000;
/// bt runs on one rank, so its objects are node-sized, and every run_app
/// spends ~6.5 ms building their per-line tables before the first access.
/// Its 39 runs per pass (six budgets) then cost twice any other app's pass
/// even at one iteration, and a tenth of the ops in one slow cluster would
/// pin op_p90_ms to its edge.
constexpr const char* kLeftOut = "bt";

/// Passes run serially (one worker, inline on the client thread). On a
/// host whose vCPUs are shared with other tenants, a pass that keeps
/// several workers busy waits on whichever vCPU the host descheduled.
/// Measured on a 4-vCPU VM with ~50% steal: pass p50 spread 25-34%
/// between runs at 4 and 2 workers, 7% serially.
constexpr int kWorkers = 1;
constexpr std::uint64_t kSmokeAccessesPerPass = 400'000;
const CostScale kScale = {
    {"hpcg", 1.115}, {"lulesh", 0.96}, {"minife", 1.261},
    {"cgpop", 1.074}, {"snap", 1.198}, {"maxw-dgtd", 1.018},
    {"gtc-p", 1.028}, {"churn", 1.013}, {"transient", 0.966},
};

/// run_app calls one pass over an app makes: the shared stage-1 profile,
/// one per baseline or framework cell, two per dynamic cell.
std::uint64_t runs_per_pass(const engine::SweepEngine& engine) {
  std::uint64_t runs = engine.stats().profile_misses;
  for (const engine::SweepCell& cell : engine.cells()) {
    runs += cell.kind == engine::CellKind::kDynamic ? 2 : 1;
  }
  return runs;
}

class SweepWorkload final : public Workload {
 public:
  explicit SweepWorkload(const WorkloadConfig& config) : config_(config) {}

  const char* work_unit() const override { return "cells"; }

  void setup() override {
    node_ = memsim::MachineConfig::knl7250(memsim::MemMode::kFlat);
    for (apps::AppSpec& app : bundled_apps()) {
      if (app.name != kLeftOut) apps_.push_back(std::move(app));
    }
    for (apps::AppSpec& app : apps_) {
      check_fits(app, node_);
      // Profile + 2 baselines + 4 strategies and one dynamic cell (two
      // runs) per budget.
      const std::uint64_t runs = 3 + 6 * engine::default_budgets(app).size();
      const double base = static_cast<double>(
          config_.smoke ? kSmokeAccessesPerPass : kAccessesPerPass);
      scale_to_accesses(
          app, static_cast<std::uint64_t>(base * cost_scale(kScale, app.name)) /
                   runs);
    }
  }

  std::size_t inputs() const override { return apps_.size(); }
  std::string input_name(std::size_t input) const override {
    return apps_[input].name;
  }

  OpResult run(std::size_t input, Tracer* tracer) override {
    std::unique_ptr<engine::SweepEngine> engine;
    {
      SpanScope span(tracer, "sweep.construct");
      engine = std::make_unique<engine::SweepEngine>(spec_for(input));
    }
    std::vector<engine::SweepOutcome> outcomes;
    {
      SpanScope span(tracer, "sweep.run");
      outcomes = engine->run();
    }
    const engine::SweepSpec& grid = engine->spec();
    const engine::SweepStats& stats = engine->stats();
    const apps::AppSpec& app = grid.apps.front();
    if (tracer != nullptr) {
      traced_.accesses += static_cast<double>(runs_per_pass(*engine)) *
                          static_cast<double>(app.iterations) *
                          static_cast<double>(app.accesses_per_iteration);
      traced_.profile_hits += stats.profile_hits;
      traced_.profile_lookups += stats.profile_hits + stats.profile_misses;
      traced_.program_hits += stats.program_hits;
      traced_.program_lookups += stats.program_hits + stats.program_misses;
      traced_.arena_peak =
          std::max(traced_.arena_peak, stats.arena_peak_cell_bytes);
    }

    // The hmem_sweep result CSV, minus the app column (one app per op).
    std::string csv;
    for (const engine::SweepOutcome& outcome : outcomes) {
      const engine::SweepCell& cell = outcome.cell;
      const engine::SweepCellResult& r = outcome.result;
      std::string detail;
      if (cell.kind == engine::CellKind::kBaseline) {
        detail = engine::condition_name(cell.baseline);
      } else if (cell.kind == engine::CellKind::kFramework) {
        detail = grid.strategies[cell.strategy].label;
      }
      char buf[320];
      std::snprintf(buf, sizeof(buf), "%zu,%s,%s,%llu,%s,%llu,%d,%s,%zu,%llu,%s\n",
                    cell.index, engine::cell_kind_name(cell.kind),
                    detail.c_str(),
                    static_cast<unsigned long long>(cell.budget_bytes),
                    bits(r.fom).c_str(),
                    static_cast<unsigned long long>(r.fast_hwm_bytes),
                    r.any_overflow ? 1 : 0, bits(r.static_fom).c_str(),
                    r.phases,
                    static_cast<unsigned long long>(r.migration_bytes),
                    bits(r.migration_cost_s).c_str());
      csv += buf;
    }
    return {fnv1a(csv), static_cast<double>(stats.cells_computed)};
  }

  void per_layer(const Tracer& tracer, Metrics& out) const override {
    const std::vector<double> pass_s = span_durations(tracer, "sweep.run", 1e9);
    double total_s = 0;
    for (const double s : pass_s) total_s += s;
    out["sweep.pass_s"] = {median(pass_s), "s",
                           "p50 of " + std::to_string(pass_s.size()) +
                               " passes"};
    const auto ratio = [](std::uint64_t hits, std::uint64_t lookups) {
      return lookups > 0 ? static_cast<double>(hits) /
                               static_cast<double>(lookups)
                         : 0.0;
    };
    out["sweep.profile_hit_rate"] = {
        ratio(traced_.profile_hits, traced_.profile_lookups), "ratio",
        std::to_string(traced_.profile_hits) + " hits / " +
            std::to_string(traced_.profile_lookups) + " lookups"};
    out["sweep.program_hit_rate"] = {
        ratio(traced_.program_hits, traced_.program_lookups), "ratio",
        std::to_string(traced_.program_hits) + " hits / " +
            std::to_string(traced_.program_lookups) + " lookups"};
    out["sweep.arena_peak_cell_bytes"] = {
        static_cast<double>(traced_.arena_peak), "bytes", "max over passes"};
    out["engine.accesses_per_s"] = {
        total_s > 0 ? traced_.accesses / total_s : 0, "1/s",
        "simulated accesses / sweep.run s"};
  }

  std::string context() const override {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "\"machine\": \"%s\", \"workers\": %d, "
                  "\"accesses_per_pass\": %llu, \"kernel\": {\"profile\": "
                  "\"%s\", \"framework\": \"%s\", \"dynamic\": \"%s\", "
                  "\"cache\": \"%s\"}",
                  node_.name.c_str(), kWorkers,
                  static_cast<unsigned long long>(
                      config_.smoke ? kSmokeAccessesPerPass
                                    : kAccessesPerPass),
                  resolved_kernel(false, true).c_str(),
                  resolved_kernel(false, false).c_str(),
                  resolved_kernel(false, false).c_str(),
                  resolved_kernel(true, false).c_str());
    return buf;
  }

 private:
  engine::SweepSpec spec_for(std::size_t input) const {
    engine::SweepSpec spec;
    spec.apps = {apps_[input]};
    spec.machines = {node_};
    spec.baselines = {engine::Condition::kDdr, engine::Condition::kCacheMode};
    spec.strategies = engine::paper_strategies();
    spec.dynamic_cells = true;
    spec.base.kernel = kKernel;
    spec.base.profile_seed = profile_seed(config_.seed);
    spec.base.production_seed = production_seed(config_.seed);
    spec.jobs = kWorkers;
    return spec;
  }

  struct Traced {
    double accesses = 0;
    std::uint64_t profile_hits = 0;
    std::uint64_t profile_lookups = 0;
    std::uint64_t program_hits = 0;
    std::uint64_t program_lookups = 0;
    std::size_t arena_peak = 0;
  };

  WorkloadConfig config_;
  memsim::MachineConfig node_;
  std::vector<apps::AppSpec> apps_;
  Traced traced_;
};

}  // namespace

std::unique_ptr<Workload> make_sweep(const WorkloadConfig& config) {
  return std::make_unique<SweepWorkload>(config);
}

}  // namespace perfbench
