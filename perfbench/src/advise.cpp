// `advise` and `stream` workloads: stages 2 and 3 over in-memory binary
// trace shards, profiled in setup on the three-tier hbm-ddr-pmem preset.
//
//   advise — the default batch hmem_advise path: open the shards, k-way
//            MergeTraceReader, AggregateVisitor, HmemAdvisor and
//            PhaseAdvisor across the 3-tier cascade, both report texts.
//   stream — the same shards through IncrementalAggregator with an
//            IncrementalAdvisor refresh every kRefreshEvery events and a
//            final converged refresh; its reports must equal advise's.
//
// Rank counts (and then iterations) are picked per app so every op merges
// about kTargetEvents events: op costs stay comparable across apps.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "advisor/advisor.hpp"
#include "advisor/incremental_advisor.hpp"
#include "advisor/phase_advisor.hpp"
#include "advisor/placement_report.hpp"
#include "advisor/schedule_report.hpp"
#include "analysis/aggregator.hpp"
#include "analysis/incremental.hpp"
#include "bench.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "engine/pipeline.hpp"
#include "trace/merge.hpp"

namespace perfbench {
namespace {

using namespace hmem;

/// Merged events per op before the per-app cost scale.
constexpr std::uint64_t kTargetEvents = 40'000;
constexpr std::uint64_t kSmokeTargetEvents = 4'000;
const CostScale kScale = {
    {"hpcg", 1.021},  {"lulesh", 0.789},    {"bt", 1.434},
    {"minife", 0.948}, {"cgpop", 0.963},    {"snap", 0.869},
    {"maxw-dgtd", 0.862}, {"gtc-p", 0.967}, {"churn", 1.383},
    {"transient", 1.284},
};
constexpr int kMinRanks = 2;   // every op is a real k-way merge
constexpr int kMaxRanks = 16;
constexpr std::uint64_t kRefreshEvery = 1024;
/// Events pulled from the merge per traced span (batch path).
constexpr std::size_t kChunkEvents = 4096;
/// Per-rank fast-tier budget, as `hmem_advise ... 256M --machine`.
constexpr std::uint64_t kFastBudget = 256ULL << 20;

/// One app's recorded profile: its shards and their geometry.
struct Recording {
  std::string app;
  int ranks = 0;
  std::uint64_t events = 0;
  std::vector<std::string> shards;
};

class AdviseWorkload final : public Workload {
 public:
  AdviseWorkload(const WorkloadConfig& config, bool stream)
      : config_(config), stream_(stream) {}

  const char* work_unit() const override { return "merged trace events"; }

  void setup() override {
    node_ = memsim::MachineConfig::hbm_ddr_pmem(memsim::MemMode::kFlat);
    spec_ = engine::machine_memory_spec(node_, kFastBudget, /*ranks=*/1);
    const std::vector<apps::AppSpec> apps = bundled_apps();
    recordings_.assign(apps.size(), Recording{});
    // Apps are profiled concurrently. Every shard is a pure function of
    // (app, rank count, rank, seed), so the worker count changes no byte.
    parallel_for(config_.jobs, apps.size(),
                 [&](std::size_t i) { recordings_[i] = record(apps[i]); });
    stats_.assign(recordings_.size(), StreamStats{});
  }

  std::size_t inputs() const override { return recordings_.size(); }
  std::string input_name(std::size_t input) const override {
    return recordings_[input].app;
  }

  OpResult run(std::size_t input, Tracer* tracer) override {
    return stream_ ? run_stream(input, tracer) : run_batch(input, tracer);
  }

  std::optional<std::uint64_t> oracle(std::size_t input) override {
    if (!stream_) return std::nullopt;
    return run_batch(input, nullptr).digest;
  }

  void per_layer(const Tracer& tracer, Metrics& out) const override {
    const auto per_op = [&](const char* span) {
      const std::vector<double> v = per_op_total_ms(tracer, span);
      return Metric{median(v), "ms",
                    "p50 per op of " + std::to_string(v.size()) + " ops"};
    };
    out["trace.decode_merge_ms"] = per_op("trace.decode_merge");
    const char* analysis_span =
        stream_ ? "analysis.ingest" : "analysis.aggregate";
    double analysis_s = 0;
    for (const double s : span_durations(tracer, analysis_span, 1e9)) {
      analysis_s += s;
    }
    out["analysis.events_per_s"] = {
        analysis_s > 0 ? static_cast<double>(traced_events_) / analysis_s : 0,
        "1/s",
        std::to_string(traced_events_) + " events / " + analysis_span + " s"};
    if (!stream_) {
      out["analysis.aggregate_ms"] = per_op("analysis.aggregate");
      out["advisor.solve_ms"] = per_op("advisor.solve");
      out["advisor.phase_solve_ms"] = per_op("advisor.phase_solve");
      out["advisor.report_ms"] = per_op("advisor.report");
      return;
    }
    out["analysis.ingest_ms"] = per_op("analysis.ingest");
    out["advisor.report_ms"] = per_op("advisor.report");
    const std::vector<double> refresh_us =
        span_durations(tracer, "advisor.refresh", 1e3);
    const std::string n = "of " + std::to_string(refresh_us.size()) +
                          " refreshes";
    out["advisor.refresh_p50_us"] = {percentile(refresh_us, 0.5), "us",
                                     "p50 " + n};
    out["advisor.refresh_p95_us"] = {percentile(refresh_us, 0.95), "us",
                                     "p95 " + n};
    std::uint64_t resolves = 0;
    std::uint64_t refreshes = 0;
    for (const StreamStats& s : stats_) {
      resolves += s.resolves;
      refreshes += s.refreshes;
    }
    out["advisor.resolves_per_refresh"] = {
        refreshes > 0 ? static_cast<double>(resolves) /
                            static_cast<double>(refreshes)
                      : 0,
        "ratio",
        std::to_string(resolves) + " knapsacks / " +
            std::to_string(refreshes) + " refreshes, one op per app"};
  }

  std::string context() const override {
    std::uint64_t lo = ~0ULL;
    std::uint64_t hi = 0;
    std::string ranks;
    for (const Recording& r : recordings_) {
      lo = std::min(lo, r.events);
      hi = std::max(hi, r.events);
      ranks += (ranks.empty() ? "" : ", ") + ("\"" + r.app + "\": ") +
               std::to_string(r.ranks);
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"machine\": \"%s\", \"events_per_op\": [%llu, %llu], "
                  "\"kernel\": {\"profile\": \"%s\"}, ",
                  node_.name.c_str(), static_cast<unsigned long long>(lo),
                  static_cast<unsigned long long>(hi),
                  resolved_kernel(false, true).c_str());
    return buf + ("\"ranks\": {" + ranks + "}");
  }

 private:
  struct StreamStats {
    std::uint64_t resolves = 0;
    std::uint64_t refreshes = 0;
  };

  /// Profiles rank `r` of `app` (at app.ranks ranks) into a binary shard,
  /// exactly as run_pipeline's sharded stage 1 does.
  std::string profile_rank(const apps::AppSpec& app, int r,
                           std::uint64_t* events) const {
    const engine::PipelineOptions defaults;  // sampler, allocation filter
    callstack::SiteDb sites;
    std::ostringstream shard;
    const auto writer =
        trace::make_trace_writer(shard, sites, trace::TraceFormat::kBinary);
    engine::RunOptions po;
    po.condition = engine::Condition::kDdr;
    po.profile = true;
    po.sampler = defaults.sampler;
    po.min_alloc_bytes = defaults.min_alloc_bytes;
    po.seed = profile_seed(config_.seed) +
              static_cast<std::uint64_t>(r) * engine::kRankSeedStride;
    po.node = node_;
    po.kernel = kKernel;
    po.sites = &sites;
    po.trace_sink = writer.get();
    engine::run_app(app, po);
    writer->finish();
    *events = writer->events_written();
    return std::move(shard).str();
  }

  /// Picks ranks, then iterations, so the app's shards hold about the
  /// target event count, and records them. Each probe profiles rank 0
  /// only; the per-rank LLC share depends on the rank count, so the
  /// iteration count is fitted at the final rank count.
  Recording record(apps::AppSpec app) const {
    const std::uint64_t target = static_cast<std::uint64_t>(
        static_cast<double>(config_.smoke ? kSmokeTargetEvents
                                          : kTargetEvents) *
        cost_scale(kScale, app.name));
    const int fit = max_fitting_ranks(app, node_, kMaxRanks);
    if (fit < kMinRanks) {
      throw ResourceError("app " + app.name + " does not fit " + node_.name +
                          " at " + std::to_string(kMinRanks) + " ranks");
    }
    std::uint64_t probe = 0;
    if (config_.smoke) {
      app.iterations = std::min<std::uint64_t>(app.iterations, 4);
    }
    app.ranks = std::min(4, fit);
    profile_rank(app, 0, &probe);
    app.ranks = std::clamp(
        static_cast<int>(std::lround(static_cast<double>(target) /
                                     static_cast<double>(std::max<std::uint64_t>(
                                         probe, 1)))),
        kMinRanks, fit);
    profile_rank(app, 0, &probe);
    const double per_iteration =
        static_cast<double>(std::max<std::uint64_t>(probe, 1)) /
        static_cast<double>(app.iterations);
    app.iterations = std::max<std::uint64_t>(
        2, static_cast<std::uint64_t>(std::llround(
               static_cast<double>(target) /
               (per_iteration * static_cast<double>(app.ranks)))));
    check_fits(app, node_);

    Recording rec;
    rec.app = app.name;
    rec.ranks = app.ranks;
    for (int r = 0; r < app.ranks; ++r) {
      std::uint64_t events = 0;
      rec.shards.push_back(profile_rank(app, r, &events));
      rec.events += events;
    }
    return rec;
  }

  /// The merged event stream over one recording's shards, as hmem_advise's
  /// ReplayReader builds it (per-shard address rebasing, shared SiteDb).
  struct Merged {
    callstack::SiteDb sites;
    std::vector<std::unique_ptr<std::istringstream>> streams;
    std::unique_ptr<trace::MergeTraceReader> reader;
  };

  static void open(const Recording& rec, Merged& m) {
    std::vector<std::unique_ptr<trace::TraceReader>> readers;
    for (std::size_t r = 0; r < rec.shards.size(); ++r) {
      m.streams.push_back(std::make_unique<std::istringstream>(rec.shards[r]));
      readers.push_back(std::make_unique<trace::OffsetTraceReader>(
          trace::open_trace_reader(*m.streams.back(), m.sites),
          static_cast<trace::Address>(r) * trace::kRankAddressStride));
    }
    m.reader = std::make_unique<trace::MergeTraceReader>(std::move(readers));
  }

  /// Pulls up to `max` events from the merge.
  static std::size_t pull(trace::TraceReader& reader,
                          std::vector<trace::Event>& chunk, std::size_t max) {
    chunk.clear();
    trace::Event event;
    while (chunk.size() < max && reader.next(event)) chunk.push_back(event);
    return chunk.size();
  }

  static std::uint64_t digest(const std::string& placement_text,
                              const std::string& schedule_text,
                              std::uint64_t events) {
    return fnv1a(schedule_text,
                 fnv1a(placement_text, fnv1a(std::to_string(events) + '\n')));
  }

  OpResult run_batch(std::size_t input, Tracer* tracer) {
    const Recording& rec = recordings_[input];
    Merged merged;
    {
      SpanScope span(tracer, "trace.open");
      open(rec, merged);
    }
    analysis::AggregateVisitor aggregate(merged.sites);
    std::uint64_t events = 0;
    if (tracer == nullptr) {
      events = trace::pump(*merged.reader, aggregate);
    } else {
      std::vector<trace::Event> chunk;
      chunk.reserve(kChunkEvents);
      for (;;) {
        {
          SpanScope span(tracer, "trace.decode_merge");
          if (pull(*merged.reader, chunk, kChunkEvents) == 0) break;
        }
        SpanScope span(tracer, "analysis.aggregate");
        for (const trace::Event& event : chunk) {
          trace::dispatch_event(event, aggregate);
        }
        events += chunk.size();
      }
      traced_events_ += events;
    }
    analysis::AggregateResult report;
    {
      SpanScope span(tracer, "analysis.aggregate");
      report = aggregate.finish();
    }
    advisor::Placement placement;
    {
      SpanScope span(tracer, "advisor.solve");
      placement = advisor::HmemAdvisor(spec_, options_).advise(report.objects);
    }
    advisor::PlacementSchedule schedule;
    {
      SpanScope span(tracer, "advisor.phase_solve");
      schedule = advisor::PhaseAdvisor(spec_, options_).advise(report.phases);
    }
    std::string placement_text;
    std::string schedule_text;
    {
      SpanScope span(tracer, "advisor.report");
      placement_text = advisor::write_placement_report(placement);
      schedule_text = advisor::write_schedule_report(schedule);
    }
    return {digest(placement_text, schedule_text, events),
            static_cast<double>(events)};
  }

  OpResult run_stream(std::size_t input, Tracer* tracer) {
    const Recording& rec = recordings_[input];
    Merged merged;
    {
      SpanScope span(tracer, "trace.open");
      open(rec, merged);
    }
    analysis::IncrementalAggregator aggregate(merged.sites);
    advisor::IncrementalAdvisor advisor(spec_, options_);
    std::uint64_t events = 0;
    std::uint64_t refreshes = 0;
    if (tracer == nullptr) {
      trace::Event event;
      while (merged.reader->next(event)) {
        trace::dispatch_event(event, aggregate);
        if (++events % kRefreshEvery == 0) {
          advisor.refresh(aggregate);
          ++refreshes;
        }
      }
    } else {
      // Chunks of exactly kRefreshEvery events: refreshes land on the
      // same event counts as in the untraced loop.
      std::vector<trace::Event> chunk;
      chunk.reserve(kRefreshEvery);
      for (;;) {
        {
          SpanScope span(tracer, "trace.decode_merge");
          if (pull(*merged.reader, chunk, kRefreshEvery) == 0) break;
        }
        {
          SpanScope span(tracer, "analysis.ingest");
          for (const trace::Event& event : chunk) {
            trace::dispatch_event(event, aggregate);
          }
        }
        events += chunk.size();
        if (events % kRefreshEvery == 0) {
          SpanScope span(tracer, "advisor.refresh");
          advisor.refresh(aggregate);
          ++refreshes;
        }
      }
      traced_events_ += events;
    }
    {
      SpanScope span(tracer, "advisor.finalize");
      advisor.refresh(aggregate, /*finalize=*/true);
      ++refreshes;
    }
    std::string placement_text;
    std::string schedule_text;
    {
      SpanScope span(tracer, "advisor.report");
      placement_text = advisor::write_placement_report(advisor.placement());
      schedule_text = advisor::write_schedule_report(advisor.schedule());
    }
    stats_[input] = {advisor.total_resolves(), refreshes};
    return {digest(placement_text, schedule_text, events),
            static_cast<double>(events)};
  }

  WorkloadConfig config_;
  bool stream_;
  memsim::MachineConfig node_;
  advisor::MemorySpec spec_{advisor::MemorySpec::two_tier(1, 1)};
  advisor::Options options_;
  std::vector<Recording> recordings_;
  std::vector<StreamStats> stats_;
  std::uint64_t traced_events_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_advise(const WorkloadConfig& config,
                                      bool stream) {
  return std::make_unique<AdviseWorkload>(config, stream);
}

}  // namespace perfbench
