// Tests for the work-queue thread pool and — the property the parallel
// execution engine stands on — bit-identical results between serial and
// parallel runs of the pipeline and the experiment sweep, for all nine
// bundled workloads.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "apps/workloads.hpp"
#include "common/parallel.hpp"
#include "engine/experiment.hpp"
#include "engine/pipeline.hpp"

namespace hmem {
namespace {

// ------------------------------------------------------------ ThreadPool --

TEST(ThreadPool, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&count] { ++count; });
    }
    pool.wait();
    EXPECT_EQ(count.load(), 100);
  }
}

TEST(ThreadPool, WaitBlocksUntilTasksFinish) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ++done;
    });
  }
  pool.wait();
  EXPECT_EQ(done.load(), 8);
  // The pool is reusable after a wait().
  pool.submit([&done] { ++done; });
  pool.wait();
  EXPECT_EQ(done.load(), 9);
}

TEST(ThreadPool, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.threads(), 1);
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran = true; });
  pool.wait();
  EXPECT_TRUE(ran.load());
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::mutex mutex;
  std::multiset<std::size_t> seen;
  parallel_for(4, 57, [&](std::size_t i) {
    std::lock_guard<std::mutex> lock(mutex);
    seen.insert(i);
  });
  EXPECT_EQ(seen.size(), 57u);
  for (std::size_t i = 0; i < 57; ++i) EXPECT_EQ(seen.count(i), 1u);
}

TEST(ParallelFor, SerialFastPathRunsInOrderOnCallerThread) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallel_for(1, 5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, PropagatesTheFirstException) {
  std::atomic<int> completed{0};
  EXPECT_THROW(
      parallel_for(3, 12,
                   [&](std::size_t i) {
                     if (i == 5) throw std::runtime_error("boom");
                     ++completed;
                   }),
      std::runtime_error);
  // Every non-throwing task still ran to completion.
  EXPECT_EQ(completed.load(), 11);
}

TEST(HardwareJobs, IsAtLeastOne) { EXPECT_GE(hardware_jobs(), 1); }

// ---------------------------------------------- engine determinism suite --

/// Shrinks a workload so the full nine-app sweep stays fast while keeping
/// its object/phase structure (what the live-set epochs and sampling tables
/// actually exercise).
apps::AppSpec shrunk(apps::AppSpec app) {
  app.iterations = std::min<std::uint64_t>(app.iterations, 4);
  app.accesses_per_iteration =
      std::min<std::uint64_t>(app.accesses_per_iteration, 4000);
  return app;
}

std::vector<apps::AppSpec> nine_workloads() {
  std::vector<apps::AppSpec> apps = apps::all_apps();
  apps.push_back(apps::make_stream_triad(16));
  return apps;
}

void expect_identical(const engine::RunResult& a, const engine::RunResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.fom, b.fom) << label;
  EXPECT_EQ(a.time_s, b.time_s) << label;
  ASSERT_EQ(a.tier_traffic.size(), b.tier_traffic.size()) << label;
  for (std::size_t t = 0; t < a.tier_traffic.size(); ++t) {
    EXPECT_EQ(a.tier_traffic[t].bytes, b.tier_traffic[t].bytes) << label;
  }
  EXPECT_EQ(a.llc_misses, b.llc_misses) << label;
  EXPECT_EQ(a.samples, b.samples) << label;
  EXPECT_EQ(a.fast_hwm_bytes, b.fast_hwm_bytes) << label;
  EXPECT_EQ(a.alloc_calls, b.alloc_calls) << label;
}

TEST(ParallelDeterminism, PipelineBitIdenticalForAllNineWorkloads) {
  for (const auto& app : nine_workloads()) {
    engine::PipelineOptions serial;
    serial.profile_ranks = 3;
    serial.sampler.period = 4000;
    serial.jobs = 1;
    engine::PipelineOptions parallel = serial;
    parallel.jobs = 4;

    const auto spec = shrunk(app);
    const auto a = engine::run_pipeline(spec, serial);
    const auto b = engine::run_pipeline(spec, parallel);

    // Stage 1: every rank's run and serialized shard, byte for byte.
    ASSERT_EQ(a.rank_profile_runs.size(), b.rank_profile_runs.size())
        << app.name;
    ASSERT_EQ(a.shard_bytes, b.shard_bytes) << app.name;
    ASSERT_EQ(a.shards.size(), b.shards.size()) << app.name;
    for (std::size_t r = 0; r < a.shards.size(); ++r) {
      EXPECT_EQ(a.shards[r], b.shards[r])
          << app.name << " shard " << r << " content differs";
    }
    for (std::size_t r = 0; r < a.rank_profile_runs.size(); ++r) {
      expect_identical(a.rank_profile_runs[r], b.rank_profile_runs[r],
                       app.name + " rank " + std::to_string(r));
    }
    // Stage 2: identical aggregation.
    EXPECT_EQ(a.merged_events, b.merged_events) << app.name;
    ASSERT_EQ(a.report.objects.size(), b.report.objects.size()) << app.name;
    for (std::size_t i = 0; i < a.report.objects.size(); ++i) {
      EXPECT_EQ(a.report.objects[i].name, b.report.objects[i].name)
          << app.name;
      EXPECT_EQ(a.report.objects[i].llc_misses,
                b.report.objects[i].llc_misses)
          << app.name;
      EXPECT_EQ(a.report.objects[i].max_size_bytes,
                b.report.objects[i].max_size_bytes)
          << app.name;
    }
    // Stages 3-4: identical placement text and production run.
    EXPECT_EQ(a.placement_report_text, b.placement_report_text) << app.name;
    expect_identical(a.production_run, b.production_run,
                     app.name + " production");
  }
}

TEST(ParallelDeterminism, ExperimentSweepBitIdenticalToSerial) {
  // One full Figure-4 row (the 4-baseline + strategy x budget task space)
  // on a representative workload, serial vs parallel.
  const auto app = shrunk(apps::app_by_name("snap"));
  engine::PipelineOptions serial;
  serial.sampler.period = 4000;
  serial.jobs = 1;
  engine::PipelineOptions parallel = serial;
  parallel.jobs = 4;

  const std::vector<std::uint64_t> budgets = {32ULL << 20, 128ULL << 20};
  const auto strategies = engine::paper_strategies();
  auto a = engine::Fig4Runner(app, serial).run(budgets, strategies);
  auto b = engine::Fig4Runner(app, parallel).run(budgets, strategies);

  const auto expect_baseline = [](const engine::BaselineResult& x,
                                  const engine::BaselineResult& y) {
    EXPECT_EQ(x.condition, y.condition);
    EXPECT_EQ(x.fom, y.fom);
    EXPECT_EQ(x.fast_hwm_bytes, y.fast_hwm_bytes);
    EXPECT_EQ(x.dfom_per_mb, y.dfom_per_mb);
  };
  expect_baseline(a.ddr, b.ddr);
  expect_baseline(a.numactl, b.numactl);
  expect_baseline(a.autohbw, b.autohbw);
  expect_baseline(a.cache, b.cache);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].strategy, b.cells[i].strategy);
    EXPECT_EQ(a.cells[i].budget_bytes, b.cells[i].budget_bytes);
    EXPECT_EQ(a.cells[i].fom, b.cells[i].fom);
    EXPECT_EQ(a.cells[i].hwm_bytes, b.cells[i].hwm_bytes);
    EXPECT_EQ(a.cells[i].dfom_per_mb, b.cells[i].dfom_per_mb);
    EXPECT_EQ(a.cells[i].any_overflow, b.cells[i].any_overflow);
  }
}

}  // namespace
}  // namespace hmem
