// Workload-generator characteristics: Table-I-style profiled rows for a
// set of DSL-defined showcase apps — one per access-pattern generator — plus
// the raw next_line() throughput of every generator, so a pattern that
// regresses the engine's hot loop shows up as a number, not a feeling.
//
// The showcase apps are written in the app-config DSL and parsed through
// from_config_text, so this bench also exercises the exact path
// `hmem_run --app-config` takes.
//
//   usage: bench_workload_gen_characteristics [--smoke]
//                                             [--app-config app.ini ...]
//     --smoke       shrink the generator sweep for CI
//     --app-config  append a user app (INI) to the profiled table
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/app_config.hpp"
#include "apps/workload_gen.hpp"
#include "common/units.hpp"
#include "engine/execution.hpp"
#include "memsim/address.hpp"

using namespace hmem;

namespace {

/// One small app per generator kind, as DSL text. Shared geometry so the
/// rows differ only in access pattern.
std::vector<apps::AppSpec> showcase_apps() {
  const char* kConfigs[] = {
      R"(
[app]
name = gen-seq
iterations = 20
[object stream]
size = 96M
pattern = seq
[phase main]
access_share = 1
weights = stream:1
)",
      R"(
[app]
name = gen-permute
iterations = 20
[object sweep]
size = 96M
pattern = random-permute
[phase main]
access_share = 1
weights = sweep:1
)",
      R"(
[app]
name = gen-zipf
iterations = 20
[object skewed]
size = 96M
pattern = zipf
zipf_alpha = 1.1
[phase main]
access_share = 1
weights = skewed:1
)",
      R"(
[app]
name = gen-chase
iterations = 20
[object chain]
size = 96M
pattern = pointer-chase
[phase main]
access_share = 1
weights = chain:1
)",
      R"(
[app]
name = gen-bursty
iterations = 20
[object pages]
size = 96M
pattern = bursty
burst_lines = 64
[phase main]
access_share = 1
weights = pages:1
)",
  };
  std::vector<apps::AppSpec> result;
  for (const char* text : kConfigs) {
    result.push_back(apps::from_config_text(text));
  }
  return result;
}

void print_profiled_row(const apps::AppSpec& app) {
  engine::RunOptions opts;
  opts.profile = true;  // paper defaults: 4 KiB filter, period 37589
  const auto r = engine::run_app(app, opts);
  std::printf("%-12s %10s %14s %12.2f %10llu %12.3f\n", app.name.c_str(),
              apps::pattern_name(app.objects[0].pattern),
              format_bytes(r.total_hwm_bytes).c_str(),
              r.monitoring_overhead * 100.0,
              static_cast<unsigned long long>(r.samples), r.time_s);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::vector<std::string> extra_configs;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--app-config") == 0 && i + 1 < argc) {
      extra_configs.emplace_back(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--app-config app.ini ...]\n",
                   argv[0]);
      return 2;
    }
  }

  std::printf("Workload-generator characteristics (profiled runs)\n");
  std::printf("%-12s %10s %14s %12s %10s %12s\n", "app", "pattern",
              "HWM/rank", "overhead%", "samples", "time(s)");
  for (const auto& app : showcase_apps()) print_profiled_row(app);
  for (const auto& path : extra_configs) {
    std::string error;
    const auto app = apps::load_app_file(path, &error);
    if (!app) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
    print_profiled_row(*app);
  }

  // Raw generator throughput: the engine consumes one next_line() per
  // simulated access, so Mlines/s here bounds simulated-access rate there.
  const std::uint64_t lines = smoke ? (1ULL << 16) : (1ULL << 20);
  const std::uint64_t draws = smoke ? 2'000'000 : 50'000'000;
  std::printf("\nGenerator throughput (%llu lines, %llu draws)\n",
              static_cast<unsigned long long>(lines),
              static_cast<unsigned long long>(draws));
  std::printf("%-16s %12s\n", "pattern", "Mlines/s");
  constexpr apps::AccessPattern kPatterns[] = {
      apps::AccessPattern::kStream,       apps::AccessPattern::kRandom,
      apps::AccessPattern::kStrided,      apps::AccessPattern::kRandomPermute,
      apps::AccessPattern::kZipf,         apps::AccessPattern::kPointerChase,
      apps::AccessPattern::kBursty};
  for (const apps::AccessPattern pattern : kPatterns) {
    apps::ObjectSpec object;
    object.name = "bench";
    object.size_bytes = lines * memsim::kCacheLineBytes;
    object.pattern = pattern;
    const auto gen = apps::make_workload_gen(object, lines, 42);
    std::uint64_t checksum = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t d = 0; d < draws; ++d) checksum += gen->next_line();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    std::printf("%-16s %12.1f   (checksum %llu)\n",
                apps::pattern_name(pattern),
                static_cast<double>(draws) / elapsed.count() / 1e6,
                static_cast<unsigned long long>(checksum));
  }
  return 0;
}
