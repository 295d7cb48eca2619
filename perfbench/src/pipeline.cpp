// `pipeline` workload: one op is engine::run_pipeline(app, per_phase) on
// the knl preset — profile run, aggregation, static and per-phase advise,
// framework and dynamic production runs. Every bundled app is scaled so
// each of its three run_app calls simulates the same number of accesses,
// which keeps op costs comparable across apps.
#include <cstdio>

#include "advisor/advisor.hpp"
#include "advisor/phase_advisor.hpp"
#include "advisor/placement_report.hpp"
#include "advisor/schedule_report.hpp"
#include "analysis/aggregator.hpp"
#include "bench.hpp"
#include "engine/pipeline.hpp"

namespace perfbench {
namespace {

using namespace hmem;

/// Simulated accesses per run_app call before the per-app cost scale.
constexpr std::uint64_t kAccessesPerRun = 550'000;
constexpr std::uint64_t kSmokeAccessesPerRun = 20'000;
const CostScale kScale = {
    {"hpcg", 1.085}, {"lulesh", 0.905}, {"bt", 0.752},
    {"minife", 1.109}, {"cgpop", 1.007}, {"snap", 1.061},
    {"maxw-dgtd", 0.879}, {"gtc-p", 1.005}, {"churn", 1.012},
    {"transient", 0.992},
};

/// Per-rank fast-tier budget: small enough that the phase-shifting apps'
/// hot sets do not all fit at once, so the dynamic runs migrate.
constexpr std::uint64_t kFastBudget = 96ULL << 20;

/// Simulated statistics of one op; every field repeats exactly per input.
struct PipelineCounts {
  std::uint64_t migrations = 0;
  std::uint64_t samples = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t intercepted = 0;
  std::uint64_t matched = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
};

std::string run_digest_text(const engine::RunResult& r) {
  std::string text = r.condition;
  text += ' ';
  text += bits(r.fom);
  text += ' ';
  text += bits(r.time_s);
  text += ' ';
  text += std::to_string(r.llc_misses);
  text += ' ';
  text += std::to_string(r.samples);
  text += ' ';
  text += std::to_string(r.migration_count);
  text += ' ';
  text += std::to_string(r.migration_bytes);
  text += ' ';
  text += std::to_string(r.fast_hwm_bytes);
  text += '\n';
  return text;
}

class PipelineWorkload final : public Workload {
 public:
  explicit PipelineWorkload(const WorkloadConfig& config) : config_(config) {}

  const char* work_unit() const override { return "simulated accesses"; }

  void setup() override {
    options_.node = memsim::MachineConfig::knl7250(memsim::MemMode::kFlat);
    options_.per_phase = true;
    options_.fast_budget_per_rank = kFastBudget;
    options_.kernel = kKernel;
    options_.profile_seed = profile_seed(config_.seed);
    options_.production_seed = production_seed(config_.seed);
    apps_ = bundled_apps();
    for (apps::AppSpec& app : apps_) {
      const double base = static_cast<double>(
          config_.smoke ? kSmokeAccessesPerRun : kAccessesPerRun);
      scale_to_accesses(app, static_cast<std::uint64_t>(
                                 base * cost_scale(kScale, app.name)));
      check_fits(app, options_.node);
    }
    counts_.assign(apps_.size(), PipelineCounts{});
  }

  std::size_t inputs() const override { return apps_.size(); }
  std::string input_name(std::size_t input) const override {
    return apps_[input].name;
  }

  OpResult run(std::size_t input, Tracer* tracer) override {
    const apps::AppSpec& app = apps_[input];
    const engine::PipelineResult r =
        tracer != nullptr ? traced_pipeline(app, tracer)
                          : engine::run_pipeline(app, options_);
    PipelineCounts& c = counts_[input];
    c.migrations = r.dynamic_run.migration_count;
    c.samples = r.profile_run.samples;
    c.trace_events = r.profile_run.trace ? r.profile_run.trace->size() : 0;
    if (r.production_run.autohbw) {
      const runtime::AutoHbwStats& s = *r.production_run.autohbw;
      c.intercepted = s.intercepted_allocs;
      c.matched = s.matched;
      c.cache_hits = s.cache_hits;
      c.cache_lookups = s.cache_hits + s.cache_misses;
    }

    std::string text = run_digest_text(r.profile_run) +
                       run_digest_text(r.production_run) +
                       run_digest_text(r.dynamic_run);
    text += std::to_string(c.trace_events) + ' ' +
            std::to_string(c.intercepted) + ' ' + std::to_string(c.matched) +
            '\n';
    const double accesses = 3.0 * static_cast<double>(app.iterations) *
                            static_cast<double>(app.accesses_per_iteration);
    if (tracer != nullptr) {
      traced_accesses_ += accesses;
      traced_events_ += static_cast<double>(c.trace_events);
    }
    return {fnv1a(r.schedule_report_text,
                  fnv1a(r.placement_report_text, fnv1a(text))),
            accesses};
  }

  void per_layer(const Tracer& tracer, Metrics& out) const override {
    const auto p50 = [&](const char* span) {
      return median(span_durations(tracer, span, 1e6));
    };
    const std::size_t runs =
        span_durations(tracer, "engine.run_app.profile", 1).size();
    const std::string per_run = "p50 of " + std::to_string(runs) + " runs";
    out["engine.profile_run_ms"] = {p50("engine.run_app.profile"), "ms",
                                    per_run};
    out["engine.framework_run_ms"] = {p50("engine.run_app.framework"), "ms",
                                      per_run};
    out["engine.dynamic_run_ms"] = {p50("engine.run_app.dynamic"), "ms",
                                    per_run};
    double run_s = 0;
    for (const char* span : {"engine.run_app.profile",
                             "engine.run_app.framework",
                             "engine.run_app.dynamic"}) {
      for (const double s : span_durations(tracer, span, 1e9)) run_s += s;
    }
    out["engine.accesses_per_s"] = {run_s > 0 ? traced_accesses_ / run_s : 0,
                                    "1/s", "simulated accesses / run_app s"};

    PipelineCounts sum;
    for (const PipelineCounts& c : counts_) {
      sum.migrations += c.migrations;
      sum.samples += c.samples;
      sum.trace_events += c.trace_events;
      sum.intercepted += c.intercepted;
      sum.matched += c.matched;
      sum.cache_hits += c.cache_hits;
      sum.cache_lookups += c.cache_lookups;
    }
    const double n = static_cast<double>(counts_.size());
    const std::string per_app =
        "mean over " + std::to_string(counts_.size()) + " apps, one op each";
    out["engine.migrations"] = {static_cast<double>(sum.migrations) / n,
                                "count", per_app};
    out["profiler.samples"] = {static_cast<double>(sum.samples) / n, "count",
                               per_app};
    out["trace.events"] = {static_cast<double>(sum.trace_events) / n, "count",
                           per_app};
    out["runtime.match_ratio"] = {
        sum.intercepted > 0 ? static_cast<double>(sum.matched) /
                                  static_cast<double>(sum.intercepted)
                            : 0,
        "ratio",
        std::to_string(sum.matched) + " matched / " +
            std::to_string(sum.intercepted) + " intercepted"};
    out["runtime.cache_hit_ratio"] = {
        sum.cache_lookups > 0 ? static_cast<double>(sum.cache_hits) /
                                    static_cast<double>(sum.cache_lookups)
                              : 0,
        "ratio",
        std::to_string(sum.cache_hits) + " hits / " +
            std::to_string(sum.cache_lookups) + " lookups"};

    const auto per_op = [&](const char* span) {
      const std::vector<double> v = per_op_total_ms(tracer, span);
      return Metric{median(v), "ms",
                    "p50 per op of " + std::to_string(v.size()) + " ops"};
    };
    out["analysis.aggregate_ms"] = per_op("analysis.aggregate");
    double aggregate_s = 0;
    for (const double s : span_durations(tracer, "analysis.aggregate", 1e9)) {
      aggregate_s += s;
    }
    out["analysis.events_per_s"] = {
        aggregate_s > 0 ? traced_events_ / aggregate_s : 0, "1/s",
        "trace events / analysis.aggregate s"};
    out["advisor.solve_ms"] = per_op("advisor.solve");
    out["advisor.phase_solve_ms"] = per_op("advisor.phase_solve");
    out["advisor.report_ms"] = per_op("advisor.report");
  }

  std::string context() const override {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"machine\": \"%s\", \"accesses_per_run\": %llu, "
                  "\"kernel\": {\"profile\": \"%s\", \"framework\": \"%s\", "
                  "\"dynamic\": \"%s\"}",
                  options_.node.name.c_str(),
                  static_cast<unsigned long long>(
                      config_.smoke ? kSmokeAccessesPerRun : kAccessesPerRun),
                  resolved_kernel(false, true).c_str(),
                  resolved_kernel(false, false).c_str(),
                  resolved_kernel(false, false).c_str());
    return buf;
  }

 private:
  /// run_pipeline's single-shard path, stage by stage under spans. Must
  /// reproduce its results bit for bit (the op digest checks it), so the
  /// breakdown measures the same program as the untraced ops.
  engine::PipelineResult traced_pipeline(const apps::AppSpec& app,
                                         Tracer* tracer) const {
    engine::PipelineResult result;
    {
      SpanScope span(tracer, "engine.run_app.profile");
      engine::RunOptions po;
      po.condition = engine::Condition::kDdr;
      po.profile = true;
      po.sampler = options_.sampler;
      po.min_alloc_bytes = options_.min_alloc_bytes;
      po.seed = options_.profile_seed;
      po.node = options_.node;
      po.kernel = options_.kernel;
      result.profile_run = engine::run_app(app, po);
    }
    {
      SpanScope span(tracer, "analysis.aggregate");
      result.report = analysis::aggregate_trace(*result.profile_run.trace,
                                                *result.profile_run.sites);
    }
    const advisor::MemorySpec spec = engine::machine_memory_spec(
        options_.node, options_.fast_budget_per_rank, app.ranks);
    {
      SpanScope span(tracer, "advisor.solve");
      advisor::HmemAdvisor adv(spec, options_.advisor);
      result.placement = adv.advise(result.report.objects);
    }
    advisor::Placement parsed;
    {
      SpanScope span(tracer, "advisor.report");
      result.placement_report_text =
          advisor::write_placement_report(result.placement);
      parsed = advisor::read_placement_report(result.placement_report_text);
    }
    {
      SpanScope span(tracer, "engine.run_app.framework");
      engine::RunOptions o;
      o.condition = engine::Condition::kFramework;
      o.placement = &parsed;
      o.runtime_options = options_.runtime_options;
      o.seed = options_.production_seed;
      o.node = options_.node;
      o.kernel = options_.kernel;
      result.production_run = engine::run_app(app, o);
    }
    {
      SpanScope span(tracer, "advisor.phase_solve");
      advisor::PhaseAdvisor adv(spec, options_.advisor);
      result.schedule = adv.advise(result.report.phases);
    }
    advisor::PlacementSchedule parsed_schedule;
    {
      SpanScope span(tracer, "advisor.report");
      result.schedule_report_text =
          advisor::write_schedule_report(result.schedule);
      parsed_schedule =
          advisor::read_schedule_report(result.schedule_report_text);
    }
    {
      SpanScope span(tracer, "engine.run_app.dynamic");
      engine::RunOptions o;
      o.condition = engine::Condition::kDynamic;
      o.schedule = &parsed_schedule;
      o.runtime_options = options_.runtime_options;
      o.seed = options_.production_seed;
      o.node = options_.node;
      o.kernel = options_.kernel;
      result.dynamic_run = engine::run_app(app, o);
    }
    return result;
  }

  WorkloadConfig config_;
  engine::PipelineOptions options_;
  std::vector<apps::AppSpec> apps_;
  std::vector<PipelineCounts> counts_;
  double traced_accesses_ = 0;
  double traced_events_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_pipeline(const WorkloadConfig& config) {
  return std::make_unique<PipelineWorkload>(config);
}

}  // namespace perfbench
