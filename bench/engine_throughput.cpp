// Engine throughput: simulated accesses/second (serial hot loop) and
// multi-rank scaling of the parallel execution engine.
//
// Three measurements, all on the bundled HPCG signature:
//  * kernels: every available access kernel (interp, bytecode, native) is
//    first checked bit-identical to the interpreter on a short run, then
//    timed serially best-of-reps — unprofiled, and profiled (the stage-1
//    run: miss records plus PEBS emission) for the two compiled kernels.
//    --check-ordering fails the bench when a compiled kernel times slower
//    than the interpreter it replaces, or profiled native slower than
//    profiled bytecode — the regression guard CI's Release smoke runs.
//  * serial: the selected kernel's (--kernel; default native, degrading
//    down the fallback ladder) accesses per wall-clock second, compared
//    against --baseline-aps (default: the PR-3 interpreter figure) for the
//    recorded speedup.
//  * scaling: N independent per-rank runs (the shape of the sharded
//    profiling stage) executed through the work-queue pool at increasing
//    --jobs, reporting speedup and parallel efficiency vs. jobs=1. The
//    parallel results are checked bit-identical to the serial ones before
//    any number is reported.
//
// Results go to stdout and, as JSON, to --out (default BENCH_engine.json)
// so CI can track the trajectory; --smoke shrinks the workload for CI.
//
//   usage: bench_engine_throughput [--smoke] [--reps R] [--ranks N]
//            [--jobs J] [--scale K] [--kernel k] [--check-ordering]
//            [--baseline-aps X] [--machine preset] [--out file]
//
// The machine preset name is recorded in the JSON so perf trajectories are
// comparable across machines (a number measured on ddr-cxl must not be
// diffed against a knl one).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/workloads.hpp"
#include "bench_common.hpp"
#include "common/atomic_file.hpp"
#include "common/host_context.hpp"
#include "common/parallel.hpp"
#include "engine/execution.hpp"
#include "engine/kernel/kernel.hpp"
#include "engine/kernel/native.hpp"
#include "engine/pipeline.hpp"
#include "memsim/machine.hpp"

namespace {

using namespace hmem;
using engine::kernel::KernelKind;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Simulated accesses one run executes (matching the engine's per-phase
/// llround of the access share).
std::uint64_t accesses_per_run(const apps::AppSpec& app) {
  std::uint64_t per_iteration = 0;
  for (const auto& phase : app.phases) {
    per_iteration += static_cast<std::uint64_t>(std::llround(
        static_cast<double>(app.accesses_per_iteration) *
        phase.access_share));
  }
  return per_iteration * app.iterations;
}

engine::RunResult rank_run(const apps::AppSpec& app,
                           const memsim::MachineConfig& node, int rank,
                           KernelKind kernel, bool profiled = false) {
  engine::RunOptions opts;
  opts.condition = engine::Condition::kDdr;
  opts.node = node;
  opts.kernel = kernel;
  opts.profile = profiled;
  opts.seed = 42 + static_cast<std::uint64_t>(rank) * engine::kRankSeedStride;
  return engine::run_app(app, opts);
}

bool same_result(const engine::RunResult& a, const engine::RunResult& b) {
  return a.fom == b.fom && a.time_s == b.time_s &&
         a.llc_misses == b.llc_misses && a.dram_bytes() == b.dram_bytes() &&
         a.fast_hwm_bytes == b.fast_hwm_bytes &&
         a.slow_bytes() == b.slow_bytes() && a.samples == b.samples &&
         a.monitoring_overhead == b.monitoring_overhead;
}

/// Best-of-reps accesses/second of one kernel; 0 when a run fails.
double time_kernel(const apps::AppSpec& app,
                   const memsim::MachineConfig& node, KernelKind kernel,
                   bool profiled, int reps, std::uint64_t accesses) {
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto run = rank_run(app, node, 0, kernel, profiled);
    best = std::min(best, seconds_since(t0));
    if (run.fom <= 0) return 0;
  }
  return static_cast<double>(accesses) / best;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 5;
  int ranks = 8;
  int max_jobs = 4;
  int scale = 4;  // iteration multiplier for a stable serial measurement
  bool check_ordering = false;
  // PR-3's recorded interpreter figure on this container class; override
  // with --baseline-aps when comparing against a different anchor.
  double baseline_aps = 13990213;
  // Headline kernel: the fastest one, degrading down the fallback ladder
  // when native is unavailable on the build/host.
  KernelKind requested = KernelKind::kNative;
  memsim::MachineConfig node =
      memsim::MachineConfig::knl7250(memsim::MemMode::kFlat);
  const char* out_path = "BENCH_engine.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      reps = 2;
      ranks = 4;
      max_jobs = 2;
      scale = 1;
    } else if (std::strcmp(argv[i], "--check-ordering") == 0) {
      check_ordering = true;
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--ranks") == 0 && i + 1 < argc) {
      ranks = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      max_jobs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      scale = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--kernel") == 0 && i + 1 < argc) {
      const auto k = engine::kernel::parse_kernel(argv[++i]);
      if (!k) {
        std::fprintf(stderr, "--kernel: expected one of %s\n",
                     engine::kernel::kernel_list().c_str());
        return 2;
      }
      requested = *k;
    } else if (std::strcmp(argv[i], "--baseline-aps") == 0 && i + 1 < argc) {
      baseline_aps = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--machine") == 0 && i + 1 < argc) {
      node = hmem::bench::parse_machine_value(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--reps R] [--ranks N] [--jobs J] "
                   "[--scale K] [--kernel k] [--check-ordering] "
                   "[--baseline-aps X] [--machine preset] [--out f]\n",
                   argv[0]);
      return 2;
    }
  }
  if (reps < 1 || ranks < 1 || max_jobs < 1 || scale < 1) {
    std::fprintf(stderr, "--reps/--ranks/--jobs/--scale must be >= 1\n");
    return 2;
  }

  apps::AppSpec app = apps::app_by_name("hpcg");
  app.iterations *= static_cast<std::uint64_t>(std::max(1, scale));
  const std::uint64_t accesses = accesses_per_run(app);

  const bool native = engine::kernel::native_available();
  const KernelKind selected =
      engine::kernel::select_kernel(requested, /*cache_mode=*/false);
  std::vector<KernelKind> kernels = {KernelKind::kInterp,
                                     KernelKind::kBytecode};
  if (native) kernels.push_back(KernelKind::kNative);

  // ---- Bit-identity precheck --------------------------------------------
  // Every kernel must reproduce the interpreter exactly before its timing
  // means anything; a short run catches divergence cheaply.
  apps::AppSpec short_app = app;
  short_app.iterations =
      std::max<std::uint64_t>(1, app.iterations / (4 * std::max(1, scale)));
  for (const bool profiled : {false, true}) {
    const engine::RunResult oracle =
        rank_run(short_app, node, 0, KernelKind::kInterp, profiled);
    for (const KernelKind k : kernels) {
      if (k == KernelKind::kInterp) continue;
      const engine::RunResult got = rank_run(short_app, node, 0, k, profiled);
      if (!same_result(oracle, got)) {
        std::fprintf(stderr,
                     "%skernel %s diverges from the interpreter "
                     "(fom %.17g vs %.17g, misses %llu vs %llu)\n",
                     profiled ? "profiled " : "",
                     engine::kernel::kernel_name(k), got.fom, oracle.fom,
                     static_cast<unsigned long long>(got.llc_misses),
                     static_cast<unsigned long long>(oracle.llc_misses));
        return 1;
      }
    }
  }

  // ---- Per-kernel serial accesses/second --------------------------------
  std::printf("engine_throughput: %s, %llu simulated accesses/run, "
              "best of %d reps\n",
              app.name.c_str(),
              static_cast<unsigned long long>(accesses), reps);
  double kernel_aps[3] = {0, 0, 0};    // interp, bytecode, native
  double profiled_aps[3] = {0, 0, 0};  // bytecode and native only
  for (const bool profiled : {false, true}) {
    for (const KernelKind k : kernels) {
      if (profiled && k == KernelKind::kInterp) continue;
      const double aps = time_kernel(app, node, k, profiled, reps, accesses);
      if (aps <= 0) {
        std::fprintf(stderr, "serial run produced no result\n");
        return 1;
      }
      (profiled ? profiled_aps : kernel_aps)[static_cast<int>(k) - 1] = aps;
      std::printf("  %-8s%s: %.0f accesses/sec (%.3f s/run)%s\n",
                  engine::kernel::kernel_name(k),
                  profiled ? " (profiled)" : "", aps,
                  static_cast<double>(accesses) / aps,
                  !profiled && k == selected ? "  <- selected" : "");
    }
  }
  if (!native) std::printf("  native  : unavailable on this build/host\n");
  const double interp_aps = kernel_aps[0];
  const double bytecode_aps = kernel_aps[1];
  const double native_aps = kernel_aps[2];
  const double profiled_bytecode_aps = profiled_aps[1];
  const double profiled_native_aps = profiled_aps[2];
  if (check_ordering) {
    // A compiled kernel slower than the interpreter it replaces is a
    // regression regardless of absolute throughput.
    if (bytecode_aps < interp_aps) {
      std::fprintf(stderr, "ordering violation: bytecode (%.0f) slower "
                           "than interp (%.0f)\n", bytecode_aps, interp_aps);
      return 1;
    }
    if (native && native_aps < interp_aps) {
      std::fprintf(stderr, "ordering violation: native (%.0f) slower "
                           "than interp (%.0f)\n", native_aps, interp_aps);
      return 1;
    }
    if (native && profiled_native_aps < profiled_bytecode_aps) {
      std::fprintf(stderr, "ordering violation: profiled native (%.0f) "
                           "slower than profiled bytecode (%.0f)\n",
                   profiled_native_aps, profiled_bytecode_aps);
      return 1;
    }
  }

  const double serial_aps = kernel_aps[static_cast<int>(selected) - 1];
  if (baseline_aps > 0) {
    std::printf("  selected %s vs baseline %.0f: %.2fx\n",
                engine::kernel::kernel_name(selected), baseline_aps,
                serial_aps / baseline_aps);
  }

  // ---- Multi-rank scaling -----------------------------------------------
  // The reference: every rank's result at jobs=1. Parallel runs must
  // reproduce these bit-for-bit before their timing is worth anything.
  // The scaling section runs the selected kernel — the configuration the
  // sharded profiling stage would actually use.
  std::vector<engine::RunResult> reference(
      static_cast<std::size_t>(ranks));
  std::vector<double> job_seconds;
  std::vector<int> job_counts;
  for (int jobs = 1; jobs <= max_jobs; jobs *= 2) {
    std::vector<engine::RunResult> results(static_cast<std::size_t>(ranks));
    double best = 1e300;
    for (int rep = 0; rep < reps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      parallel_for(jobs, static_cast<std::size_t>(ranks),
                   [&](std::size_t r) {
                     results[r] = rank_run(app, node, static_cast<int>(r),
                                           selected);
                   });
      best = std::min(best, seconds_since(t0));
    }
    if (jobs == 1) {
      reference = results;
    } else {
      for (int r = 0; r < ranks; ++r) {
        const auto& a = reference[static_cast<std::size_t>(r)];
        const auto& b = results[static_cast<std::size_t>(r)];
        if (a.fom != b.fom || a.llc_misses != b.llc_misses ||
            a.slow_bytes() != b.slow_bytes()) {
          std::fprintf(stderr,
                       "determinism violation at jobs=%d rank %d\n", jobs,
                       r);
          return 1;
        }
      }
    }
    job_counts.push_back(jobs);
    job_seconds.push_back(best);
    // Efficiency against what the hardware can actually deliver: a 2-core
    // runner cannot speed 4 jobs up 4x, and pretending it should would
    // report pool overhead as scaling loss.
    const int ideal = std::min(jobs, hardware_jobs());
    const double speedup = job_seconds.front() / best;
    std::printf("  jobs=%d: %.3f s for %d ranks (speedup %.2fx, "
                "efficiency %.2f of %d usable core%s)\n",
                jobs, best, ranks, speedup,
                speedup / static_cast<double>(ideal), ideal,
                ideal == 1 ? "" : "s");
  }
  const double final_speedup = job_seconds.front() / job_seconds.back();
  const double final_efficiency =
      final_speedup /
      static_cast<double>(std::min(job_counts.back(), hardware_jobs()));

  char buffer[2048];
  std::snprintf(buffer, sizeof(buffer),
                "{\n"
                "  \"bench\": \"engine_throughput\",\n"
                "  \"app\": \"%s\",\n"
                "  \"machine\": \"%s\",\n"
                "  \"kernel\": \"%s\",\n"
                "  \"accesses_per_run\": %llu,\n"
                "  \"reps\": %d,\n"
                "  \"interp_accesses_per_sec\": %.0f,\n"
                "  \"bytecode_accesses_per_sec\": %.0f,\n"
                "  \"native_accesses_per_sec\": %.0f,\n"
                "  \"profiled_bytecode_accesses_per_sec\": %.0f,\n"
                "  \"profiled_native_accesses_per_sec\": %.0f,\n"
                "  \"serial_accesses_per_sec\": %.0f,\n"
                "  \"baseline_accesses_per_sec\": %.0f,\n"
                "  \"serial_speedup_vs_baseline\": %.3f,\n"
                "  \"ranks\": %d,\n"
                "  \"jobs\": %d,\n"
                "%s"
                "  \"rank_speedup\": %.3f,\n"
                "  \"parallel_efficiency\": %.3f,\n"
                "  \"parallel_bit_identical\": true\n"
                "}\n",
                app.name.c_str(), node.name.c_str(),
                engine::kernel::kernel_name(selected),
                static_cast<unsigned long long>(accesses), reps, interp_aps,
                bytecode_aps, native_aps, profiled_bytecode_aps,
                profiled_native_aps, serial_aps, baseline_aps,
                baseline_aps > 0 ? serial_aps / baseline_aps : 0.0,
                ranks, job_counts.back(), host_context_json().c_str(),
                final_speedup,
                final_efficiency);
  std::string error;
  if (!write_file_atomic(out_path, buffer, &error)) {
    std::fprintf(stderr, "cannot write %s: %s\n", out_path, error.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path);
  return 0;
}
