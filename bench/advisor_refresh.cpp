// Incremental-advisor refresh latency: how long one IncrementalAdvisor
// re-solve takes while a recorded trace streams in, against the budget
// that matters — the mean interval between the app's phase boundaries.
// A refresh far cheaper than a phase means the advisor's answer is always
// ready before the engine asks again (the hmem_advise --stream /
// RunOptions::advisor_hook serving pattern); a refresh comparable to a
// phase would make mid-run advice arrive too late to act on.
//
// Per app: a profiled run records the trace once, the incremental schedule
// is first checked byte-identical to the batch PhaseAdvisor (a number for
// a diverging advisor would be meaningless), then the stream is replayed
// --reps times with a refresh every --refresh-every events, timing each
// refresh() call individually. Reported per app and overall: mean/p95/max
// refresh latency, knapsack solves, ingest rate, the trace's mean
// simulated phase-boundary interval, and the margin between the two.
//
// Results go to stdout and, as JSON, to --out (default BENCH_advisor.json)
// so tools/bench_trend.py can gate refresh-latency regressions; --smoke
// shrinks reps for CI.
//
//   usage: bench_advisor_refresh [--smoke] [--reps R] [--refresh-every N]
//            [--machine preset] [--out file]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "advisor/incremental_advisor.hpp"
#include "advisor/phase_advisor.hpp"
#include "advisor/schedule_report.hpp"
#include "analysis/aggregator.hpp"
#include "analysis/incremental.hpp"
#include "apps/workloads.hpp"
#include "bench_common.hpp"
#include "common/atomic_file.hpp"
#include "common/host_context.hpp"
#include "engine/execution.hpp"
#include "engine/pipeline.hpp"
#include "memsim/machine.hpp"
#include "trace/visitor.hpp"

namespace {

using namespace hmem;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct AppFigures {
  std::string name;
  std::uint64_t events = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t solves = 0;
  std::size_t phases = 0;
  double mean_latency_us = 0;
  double p95_us = 0;
  double max_us = 0;
  double ingest_events_per_sec = 0;
  /// Mean simulated time between consecutive phase-boundary events.
  double phase_interval_us = 0;
  /// phase_interval_us / mean_latency_us (simulated vs wall-clock: the
  /// figure assumes one simulated nanosecond costs at least one real one,
  /// which holds for every workload the engine models).
  double margin = 0;
};

}  // namespace

int main(int argc, char** argv) {
  int reps = 3;
  std::uint64_t refresh_every = 4096;
  memsim::MachineConfig node =
      memsim::MachineConfig::knl7250(memsim::MemMode::kFlat);
  const char* out_path = "BENCH_advisor.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      reps = 1;
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--refresh-every") == 0 && i + 1 < argc) {
      refresh_every = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--machine") == 0 && i + 1 < argc) {
      node = hmem::bench::parse_machine_value(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--reps R] [--refresh-every N] "
                   "[--machine preset] [--out f]\n",
                   argv[0]);
      return 2;
    }
  }
  if (reps < 1 || refresh_every < 1) {
    std::fprintf(stderr, "--reps and --refresh-every must be >= 1\n");
    return 2;
  }

  const std::uint64_t budget = engine::clamp_fast_budget(
      node, 256ull << 20, nullptr);
  const advisor::MemorySpec spec =
      engine::machine_memory_spec(node, budget, /*ranks=*/1);
  const advisor::Options options;

  // The roster: the multi-phase paper workloads plus the two phase-shift
  // apps — the streams a mid-run advisor actually serves.
  std::vector<apps::AppSpec> apps = {apps::app_by_name("hpcg"),
                                     apps::app_by_name("lulesh"),
                                     apps::app_by_name("snap")};
  for (auto& app : apps::phase_shift_apps()) apps.push_back(app);

  std::printf("advisor_refresh: %s, refresh every %llu events, "
              "best of %d reps\n",
              node.name.c_str(),
              static_cast<unsigned long long>(refresh_every), reps);

  std::vector<AppFigures> figures;
  for (const auto& app : apps) {
    engine::RunOptions ropts;
    ropts.profile = true;
    ropts.node = node;
    const engine::RunResult run = engine::run_app(app, ropts);
    const auto& events = run.trace->events();

    // ---- Convergence precheck: a latency figure for a diverging advisor
    // would be meaningless.
    const analysis::AggregateResult batch =
        analysis::aggregate_trace(*run.trace, *run.sites);
    if (batch.phases.empty()) {
      std::fprintf(stderr, "%s: trace has no phases\n", app.name.c_str());
      return 1;
    }
    {
      analysis::IncrementalAggregator agg(*run.sites);
      advisor::IncrementalAdvisor inc(spec, options);
      for (std::size_t i = 0; i < events.size(); ++i) {
        trace::dispatch_event(events[i], agg);
        if ((i + 1) % refresh_every == 0) inc.refresh(agg);
      }
      inc.refresh(agg, /*finalize=*/true);
      const advisor::PhaseAdvisor oracle(spec, options);
      if (advisor::write_schedule_report(oracle.advise(batch.phases)) !=
          advisor::write_schedule_report(inc.schedule())) {
        std::fprintf(stderr,
                     "%s: incremental schedule diverges from batch\n",
                     app.name.c_str());
        return 1;
      }
    }

    // ---- Timed replays ---------------------------------------------------
    AppFigures best;
    for (int rep = 0; rep < reps; ++rep) {
      analysis::IncrementalAggregator agg(*run.sites);
      advisor::IncrementalAdvisor inc(spec, options);
      std::vector<double> latencies;
      const auto feed0 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < events.size(); ++i) {
        trace::dispatch_event(events[i], agg);
        if ((i + 1) % refresh_every == 0) {
          const auto t0 = std::chrono::steady_clock::now();
          inc.refresh(agg);
          latencies.push_back(seconds_since(t0) * 1e6);
        }
      }
      {
        const auto t0 = std::chrono::steady_clock::now();
        inc.refresh(agg, /*finalize=*/true);
        latencies.push_back(seconds_since(t0) * 1e6);
      }
      const double feed_s = seconds_since(feed0);

      AppFigures fig;
      fig.name = app.name;
      fig.events = events.size();
      fig.refreshes = latencies.size();
      fig.solves = inc.total_resolves();
      fig.phases = batch.phases.size();
      double sum = 0;
      for (const double l : latencies) sum += l;
      fig.mean_latency_us = sum / static_cast<double>(latencies.size());
      std::sort(latencies.begin(), latencies.end());
      fig.p95_us = latencies[latencies.size() * 95 / 100];
      fig.max_us = latencies.back();
      fig.ingest_events_per_sec =
          static_cast<double>(events.size()) / feed_s;
      if (rep == 0 || fig.mean_latency_us < best.mean_latency_us) {
        best = fig;
      }
    }

    // Mean simulated interval between phase-boundary events.
    double first_boundary = 0, last_boundary = 0;
    std::uint64_t boundaries = 0;
    for (const auto& event : events) {
      if (const auto* phase = std::get_if<trace::PhaseEvent>(&event)) {
        if (boundaries == 0) first_boundary = phase->time_ns;
        last_boundary = phase->time_ns;
        ++boundaries;
      }
    }
    best.phase_interval_us =
        boundaries > 1 ? (last_boundary - first_boundary) /
                             static_cast<double>(boundaries - 1) / 1000.0
                       : 0;
    best.margin = best.mean_latency_us > 0
                      ? best.phase_interval_us / best.mean_latency_us
                      : 0;
    std::printf("  %-10s: %6llu events, %zu phases, %llu solves | "
                "refresh mean %.1f us, p95 %.1f us, max %.1f us | "
                "phase interval %.0f us (margin %.0fx)\n",
                best.name.c_str(),
                static_cast<unsigned long long>(best.events), best.phases,
                static_cast<unsigned long long>(best.solves),
                best.mean_latency_us, best.p95_us, best.max_us,
                best.phase_interval_us, best.margin);
    figures.push_back(best);
  }

  // ---- Overall + JSON -----------------------------------------------------
  double mean_sum = 0, worst_p95 = 0, worst_max = 0, min_margin = 1e300;
  double ingest_sum = 0;
  for (const auto& fig : figures) {
    mean_sum += fig.mean_latency_us;
    worst_p95 = std::max(worst_p95, fig.p95_us);
    worst_max = std::max(worst_max, fig.max_us);
    ingest_sum += fig.ingest_events_per_sec;
    if (fig.margin > 0) min_margin = std::min(min_margin, fig.margin);
  }
  const double overall_mean =
      mean_sum / static_cast<double>(figures.size());
  const double overall_ingest =
      ingest_sum / static_cast<double>(figures.size());
  if (min_margin >= 1e300) min_margin = 0;
  std::printf("overall: refresh mean %.1f us, worst p95 %.1f us, "
              "min phase-interval margin %.0fx\n",
              overall_mean, worst_p95, min_margin);

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"advisor_refresh\",\n"
       << "  \"machine\": \"" << node.name << "\",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"refresh_every\": " << refresh_every << ",\n"
       << host_context_json()
       << "  \"converged_bit_identical\": true,\n";
  char line[512];
  for (const auto& fig : figures) {
    std::snprintf(line, sizeof(line),
                  "  \"%s\": {\n"
                  "    \"events\": %llu,\n"
                  "    \"phases\": %zu,\n"
                  "    \"refreshes\": %llu,\n"
                  "    \"knapsack_solves\": %llu,\n"
                  "    \"refresh_mean_latency_us\": %.3f,\n"
                  "    \"refresh_p95_us\": %.3f,\n"
                  "    \"refresh_max_us\": %.3f,\n"
                  "    \"ingest_events_per_sec\": %.0f,\n"
                  "    \"phase_interval_us\": %.3f,\n"
                  "    \"phase_interval_margin\": %.1f\n"
                  "  },\n",
                  fig.name.c_str(),
                  static_cast<unsigned long long>(fig.events), fig.phases,
                  static_cast<unsigned long long>(fig.refreshes),
                  static_cast<unsigned long long>(fig.solves),
                  fig.mean_latency_us, fig.p95_us, fig.max_us,
                  fig.ingest_events_per_sec, fig.phase_interval_us,
                  fig.margin);
    json << line;
  }
  std::snprintf(line, sizeof(line),
                "  \"refresh_mean_latency_us\": %.3f,\n"
                "  \"refresh_worst_p95_us\": %.3f,\n"
                "  \"refresh_worst_max_us\": %.3f,\n"
                "  \"ingest_events_per_sec\": %.0f,\n"
                "  \"min_phase_interval_margin\": %.1f\n"
                "}\n",
                overall_mean, worst_p95, worst_max, overall_ingest,
                min_margin);
  json << line;
  std::string error;
  if (!write_file_atomic(out_path, json.str(), &error)) {
    std::fprintf(stderr, "cannot write %s: %s\n", out_path, error.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path);
  return 0;
}
