// Ablation: PEBS sampling period vs attribution accuracy and overhead.
//
// The paper samples 1/37,589 LLC misses to keep monitoring overhead under
// ~1%. This bench sweeps the period on HPCG and reports (a) monitoring
// overhead, (b) samples captured, and (c) attribution fidelity: the
// rank-correlation-style agreement between the sampled per-object miss
// shares and the dense-sampling reference, plus whether the advisor's
// selection at 256 MiB changes.
//
// Each period's profile is an independent simulation; --jobs N runs up to N
// of them concurrently with results identical to the serial sweep.
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "advisor/advisor.hpp"
#include "analysis/aggregator.hpp"
#include "apps/workloads.hpp"
#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "engine/execution.hpp"

using namespace hmem;

namespace {

struct ProfileSummary {
  std::map<std::string, double> miss_share;
  std::set<std::string> selection;
  double overhead = 0;
  std::uint64_t samples = 0;
};

ProfileSummary profile_with_period(std::uint64_t period) {
  const auto app = apps::app_by_name("hpcg");
  engine::RunOptions opts;
  opts.profile = true;
  opts.sampler.period = period;
  const auto run = engine::run_app(app, opts);
  const auto report = analysis::aggregate_trace(*run.trace, *run.sites);

  ProfileSummary summary;
  summary.overhead = run.monitoring_overhead;
  summary.samples = run.samples;
  double total = 0;
  for (const auto& obj : report.objects) {
    total += static_cast<double>(obj.llc_misses);
  }
  for (const auto& obj : report.objects) {
    summary.miss_share[obj.name] =
        total > 0 ? static_cast<double>(obj.llc_misses) / total : 0;
  }
  advisor::HmemAdvisor adv(
      advisor::MemorySpec::two_tier(256ULL << 20, 1ULL << 31),
      advisor::Options{});
  const advisor::Placement placement = adv.advise(report.objects);
  for (const auto& obj : placement.fast().objects) {
    summary.selection.insert(obj.name);
  }
  return summary;
}

double share_error(const ProfileSummary& a, const ProfileSummary& ref) {
  double err = 0;
  for (const auto& [name, share] : ref.miss_share) {
    const auto it = a.miss_share.find(name);
    const double got = it != a.miss_share.end() ? it->second : 0;
    err += std::abs(got - share);
  }
  return err / 2;  // total-variation distance
}

}  // namespace

int main(int argc, char** argv) {
  const int jobs = hmem::bench::parse_jobs(argc, argv);

  std::printf("Ablation — sampling period vs attribution (HPCG)\n");
  // Slot 0 is the dense reference; the rest are the sweep. All profiles are
  // independent runs, so they execute concurrently under --jobs.
  const std::vector<std::uint64_t> periods = {
      256, 1000, 4000, 16000, 37589, 150000, 600000};
  std::vector<ProfileSummary> summaries(periods.size());
  hmem::parallel_for(jobs, periods.size(), [&](std::size_t i) {
    summaries[i] = profile_with_period(periods[i]);
  });
  const ProfileSummary& reference = summaries[0];
  std::printf("%10s %10s %12s %14s %16s\n", "period", "samples",
              "overhead%", "share error", "same selection");
  for (std::size_t i = 1; i < periods.size(); ++i) {
    const auto& summary = summaries[i];
    std::printf("%10llu %10llu %12.3f %14.4f %16s\n",
                static_cast<unsigned long long>(periods[i]),
                static_cast<unsigned long long>(summary.samples),
                summary.overhead * 100.0, share_error(summary, reference),
                summary.selection == reference.selection ? "yes" : "NO");
  }
  std::printf(
      "expected: the paper's 37,589 period keeps overhead ~<1%% while the\n"
      "selection stays identical to dense sampling; only extreme periods\n"
      "degrade attribution.\n");
  return 0;
}
