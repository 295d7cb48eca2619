// Differential suite for the incremental streaming advisor: the batch
// aggregation/advisor path is the bit-exact oracle (the same pattern that
// made the compiled kernels trustworthy), and the incremental path must
// converge to it exactly — on every bundled app, on every machine preset.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "advisor/incremental_advisor.hpp"
#include "advisor/placement_report.hpp"
#include "advisor/schedule_report.hpp"
#include "analysis/aggregator.hpp"
#include "analysis/incremental.hpp"
#include "apps/workloads.hpp"
#include "engine/execution.hpp"
#include "engine/pipeline.hpp"
#include "memsim/machine.hpp"
#include "trace/visitor.hpp"

namespace hmem {
namespace {

using analysis::AggregateResult;
using analysis::IncrementalAggregator;

/// The full 10-app roster: the 8 paper workloads plus the phase-shifting
/// pair introduced for the dynamic condition.
std::vector<apps::AppSpec> all_ten_apps() {
  auto apps = apps::all_apps();
  for (auto& app : apps::phase_shift_apps()) apps.push_back(app);
  return apps;
}

std::vector<memsim::MachineConfig> all_presets() {
  using memsim::MachineConfig;
  using memsim::MemMode;
  return {MachineConfig::knl7250(MemMode::kFlat),
          MachineConfig::spr_hbm(MemMode::kFlat),
          MachineConfig::ddr_cxl(MemMode::kFlat),
          MachineConfig::hbm_ddr_pmem(MemMode::kFlat)};
}

engine::RunResult profiled_run(const apps::AppSpec& app,
                               const memsim::MachineConfig& node) {
  engine::RunOptions opts;
  opts.profile = true;
  opts.node = node;
  return engine::run_app(app, opts);
}

/// Field-by-field equality of the whole AggregateResult, phase slices
/// included (test_analysis' helper predates phases; the incremental
/// contract covers them too).
void expect_identical_results(const AggregateResult& a,
                              const AggregateResult& b,
                              const std::string& label) {
  EXPECT_EQ(a.total_samples, b.total_samples) << label;
  EXPECT_EQ(a.total_weighted_misses, b.total_weighted_misses) << label;
  EXPECT_EQ(a.unattributed_samples, b.unattributed_samples) << label;
  EXPECT_EQ(a.unattributed_misses, b.unattributed_misses) << label;
  ASSERT_EQ(a.objects.size(), b.objects.size()) << label;
  for (std::size_t i = 0; i < a.objects.size(); ++i) {
    EXPECT_EQ(a.objects[i].site, b.objects[i].site) << label << " obj " << i;
    EXPECT_EQ(a.objects[i].name, b.objects[i].name) << label << " obj " << i;
    EXPECT_EQ(a.objects[i].stack, b.objects[i].stack) << label;
    EXPECT_EQ(a.objects[i].max_size_bytes, b.objects[i].max_size_bytes)
        << label;
    EXPECT_EQ(a.objects[i].llc_misses, b.objects[i].llc_misses) << label;
    EXPECT_EQ(a.objects[i].is_dynamic, b.objects[i].is_dynamic) << label;
  }
  ASSERT_EQ(a.phases.size(), b.phases.size()) << label;
  for (std::size_t p = 0; p < a.phases.size(); ++p) {
    EXPECT_EQ(a.phases[p].name, b.phases[p].name) << label;
    ASSERT_EQ(a.phases[p].objects.size(), b.phases[p].objects.size())
        << label << " phase " << a.phases[p].name;
    for (std::size_t i = 0; i < a.phases[p].objects.size(); ++i) {
      EXPECT_EQ(a.phases[p].objects[i].site, b.phases[p].objects[i].site)
          << label << " phase " << a.phases[p].name << " obj " << i;
      EXPECT_EQ(a.phases[p].objects[i].llc_misses,
                b.phases[p].objects[i].llc_misses)
          << label << " phase " << a.phases[p].name << " obj " << i;
      EXPECT_EQ(a.phases[p].objects[i].max_size_bytes,
                b.phases[p].objects[i].max_size_bytes)
          << label;
    }
  }
}

advisor::MemorySpec spec_for(const memsim::MachineConfig& node) {
  // A quarter GiB ask, clamped to what the preset's fastest tier can
  // physically host — the same derivation hmem_advise --machine performs.
  const std::uint64_t budget = engine::clamp_fast_budget(
      node, 256ull << 20, /*ranks=*/1);
  return engine::machine_memory_spec(node, budget, /*ranks=*/1);
}

// ---- Aggregator: converged snapshot == batch finish() ---------------------

TEST(IncrementalAggregator, ConvergedSnapshotMatchesBatchOnAllAppsPresets) {
  for (const auto& node : all_presets()) {
    for (const auto& app : all_ten_apps()) {
      const std::string label = app.name + " @ " + node.name;
      const auto run = profiled_run(app, node);
      ASSERT_NE(run.trace, nullptr) << label;

      const AggregateResult batch =
          analysis::aggregate_trace(*run.trace, *run.sites);

      IncrementalAggregator inc(*run.sites);
      trace::visit_buffer(*run.trace, inc);
      expect_identical_results(batch, inc.snapshot(), label);
      // snapshot() is non-destructive: a second one is identical too.
      expect_identical_results(batch, inc.snapshot(), label + " (again)");
    }
  }
}

TEST(IncrementalAggregator, MidStreamSnapshotMatchesBatchOverPrefix) {
  const auto run =
      profiled_run(apps::app_by_name("lulesh"), all_presets().front());
  const auto& events = run.trace->events();
  const std::size_t cuts[] = {0, 1, events.size() / 3, events.size() / 2,
                              events.size() - 1, events.size()};

  IncrementalAggregator inc(*run.sites);
  std::size_t fed = 0;
  for (const std::size_t cut : cuts) {
    for (; fed < cut; ++fed) trace::dispatch_event(events[fed], inc);
    analysis::AggregateVisitor batch(*run.sites);
    for (std::size_t i = 0; i < cut; ++i) {
      trace::dispatch_event(events[i], batch);
    }
    expect_identical_results(batch.finish(), inc.snapshot(),
                             "lulesh prefix " + std::to_string(cut));
  }
}

TEST(IncrementalAggregator, ViewsMatchSnapshotSlices) {
  const auto run =
      profiled_run(apps::app_by_name("snap"), all_presets().front());
  IncrementalAggregator inc(*run.sites);
  trace::visit_buffer(*run.trace, inc);
  const AggregateResult snap = inc.snapshot();

  const analysis::ObjectsView whole = inc.objects_view();
  ASSERT_EQ(whole.objects.size(), snap.objects.size());
  for (std::size_t i = 0; i < whole.objects.size(); ++i) {
    EXPECT_EQ(whole.objects[i].site, snap.objects[i].site);
    EXPECT_EQ(whole.objects[i].llc_misses, snap.objects[i].llc_misses);
  }
  ASSERT_EQ(inc.phase_count(), snap.phases.size());
  for (std::size_t p = 0; p < snap.phases.size(); ++p) {
    const analysis::PhaseView view = inc.phase_view(p);
    EXPECT_EQ(view.objects.name, snap.phases[p].name);
    ASSERT_EQ(view.objects.objects.size(), snap.phases[p].objects.size());
    for (std::size_t i = 0; i < view.objects.objects.size(); ++i) {
      EXPECT_EQ(view.objects.objects[i].site,
                snap.phases[p].objects[i].site);
      EXPECT_EQ(view.objects.objects[i].llc_misses,
                snap.phases[p].objects[i].llc_misses);
    }
  }
}

// ---- Advisor: converged schedule bit-identical to batch PhaseAdvisor ------

TEST(IncrementalAdvisor, ConvergedScheduleBitIdenticalOnAllAppsPresets) {
  const advisor::Options options;
  for (const auto& node : all_presets()) {
    const advisor::MemorySpec spec = spec_for(node);
    for (const auto& app : all_ten_apps()) {
      const std::string label = app.name + " @ " + node.name;
      const auto run = profiled_run(app, node);
      const AggregateResult batch =
          analysis::aggregate_trace(*run.trace, *run.sites);
      ASSERT_FALSE(batch.phases.empty()) << label;

      const advisor::PhaseAdvisor batch_advisor(spec, options);
      const advisor::PlacementSchedule oracle =
          batch_advisor.advise(batch.phases);
      const advisor::HmemAdvisor whole_advisor(spec, options);
      const advisor::Placement oracle_placement =
          whole_advisor.advise(batch.objects);

      // Stream the trace in slices, refreshing as a live client would.
      IncrementalAggregator agg(*run.sites);
      advisor::IncrementalAdvisor inc(spec, options);
      const auto& events = run.trace->events();
      for (std::size_t i = 0; i < events.size(); ++i) {
        trace::dispatch_event(events[i], agg);
        if (i % 500 == 499) inc.refresh(agg);
      }
      inc.refresh(agg, /*finalize=*/true);

      // Bit-identical: the serialized reports are byte-equal, which is the
      // strongest equality the tool chain can observe.
      EXPECT_EQ(advisor::write_schedule_report(oracle),
                advisor::write_schedule_report(inc.schedule()))
          << label;
      EXPECT_EQ(advisor::write_placement_report(oracle_placement),
                advisor::write_placement_report(inc.placement()))
          << label;
    }
  }
}

TEST(IncrementalAdvisor, CleanPhasesAreNotResolved) {
  const auto node = all_presets().front();
  const auto run = profiled_run(apps::app_by_name("lulesh"), node);
  IncrementalAggregator agg(*run.sites);
  trace::visit_buffer(*run.trace, agg);

  advisor::IncrementalAdvisor inc(spec_for(node), advisor::Options{});
  const advisor::RefreshStats first = inc.refresh(agg, /*finalize=*/true);
  EXPECT_GT(first.phases_resolved, 0u);
  const std::uint64_t solves = inc.total_resolves();

  // Nothing moved: the refresh must be a no-op (two integer compares per
  // phase), not a re-solve.
  const advisor::RefreshStats second = inc.refresh(agg);
  EXPECT_EQ(second.phases_dirty, 0u);
  EXPECT_EQ(second.phases_resolved, 0u);
  EXPECT_FALSE(second.whole_run_resolved);
  EXPECT_FALSE(second.schedule_changed);
  EXPECT_EQ(inc.total_resolves(), solves);
}

TEST(IncrementalAdvisor, GenerationMovesExactlyWhenTheScheduleChanges) {
  // The engine detects an in-place refresh by PlacementSchedule::generation;
  // the advisor must bump it on every content change and leave it (and the
  // object) untouched when a refresh was a no-op.
  const auto node = all_presets().front();
  const auto run = profiled_run(apps::app_by_name("lulesh"), node);
  IncrementalAggregator agg(*run.sites);
  trace::visit_buffer(*run.trace, agg);

  advisor::IncrementalAdvisor inc(spec_for(node), advisor::Options{});
  EXPECT_EQ(inc.schedule().generation, 0u);
  const advisor::RefreshStats first = inc.refresh(agg, /*finalize=*/true);
  ASSERT_TRUE(first.schedule_changed);
  const std::uint64_t gen = inc.schedule().generation;
  EXPECT_GT(gen, 0u);

  const advisor::RefreshStats second = inc.refresh(agg, /*finalize=*/true);
  EXPECT_FALSE(second.schedule_changed);
  EXPECT_EQ(inc.schedule().generation, gen);
}

TEST(IncrementalAdvisor, DriftThresholdDefersButFinalizeConverges) {
  const auto node = all_presets().front();
  const auto run = profiled_run(apps::app_by_name("churn"), node);
  const advisor::MemorySpec spec = spec_for(node);
  const AggregateResult batch =
      analysis::aggregate_trace(*run.trace, *run.sites);

  // An absurd threshold: every mid-stream refresh defers miss-only drift.
  advisor::IncrementalAdvisorOptions lazy;
  lazy.resolve_threshold = 1e9;
  IncrementalAggregator agg(*run.sites);
  advisor::IncrementalAdvisor inc(spec, advisor::Options{}, lazy);
  const auto& events = run.trace->events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    trace::dispatch_event(events[i], agg);
    if (i % 200 == 199) inc.refresh(agg);
  }
  inc.refresh(agg, /*finalize=*/true);

  const advisor::PhaseAdvisor batch_advisor(spec, advisor::Options{});
  EXPECT_EQ(advisor::write_schedule_report(batch_advisor.advise(batch.phases)),
            advisor::write_schedule_report(inc.schedule()));
}

// ---- Concurrency: snapshot is a reader racing the writer -----------------
// The serving pattern: one thread feeds events, others take snapshots.
// Run under TSan in CI; the final convergence check keeps it meaningful
// without a sanitizer too.

TEST(IncrementalAggregator, SnapshotConcurrentWithWriter) {
  const auto run =
      profiled_run(apps::app_by_name("minife"), all_presets().front());
  const AggregateResult batch =
      analysis::aggregate_trace(*run.trace, *run.sites);

  analysis::IncrementalOptions opts;
  opts.decay_half_life_samples = 64;
  IncrementalAggregator inc(*run.sites, opts);
  std::atomic<bool> done{false};

  std::thread reader([&] {
    std::uint64_t last_events = 0;
    while (!done.load(std::memory_order_acquire)) {
      const AggregateResult snap = inc.snapshot();
      // Monotone progress: a later snapshot can never report fewer events.
      EXPECT_GE(snap.total_samples + inc.events_seen(), last_events);
      last_events = inc.events_seen();
      for (std::size_t p = 0; p < inc.phase_count(); ++p) {
        (void)inc.phase_view(p);
      }
      (void)inc.objects_view();
      (void)inc.decayed_misses(0);
    }
  });
  trace::visit_buffer(*run.trace, inc);
  done.store(true, std::memory_order_release);
  reader.join();

  expect_identical_results(batch, inc.snapshot(), "minife concurrent");
}

TEST(IncrementalAdvisor, RefreshConcurrentWithWriter) {
  const auto node = all_presets().front();
  const auto run = profiled_run(apps::app_by_name("hpcg"), node);
  const advisor::MemorySpec spec = spec_for(node);

  IncrementalAggregator agg(*run.sites);
  advisor::IncrementalAdvisor inc(spec, advisor::Options{});
  std::atomic<bool> done{false};
  std::thread refresher([&] {
    while (!done.load(std::memory_order_acquire)) inc.refresh(agg);
  });
  trace::visit_buffer(*run.trace, agg);
  done.store(true, std::memory_order_release);
  refresher.join();
  inc.refresh(agg, /*finalize=*/true);

  const AggregateResult batch =
      analysis::aggregate_trace(*run.trace, *run.sites);
  const advisor::PhaseAdvisor batch_advisor(spec, advisor::Options{});
  EXPECT_EQ(advisor::write_schedule_report(batch_advisor.advise(batch.phases)),
            advisor::write_schedule_report(inc.schedule()));
}

// ---- Decayed / live views -------------------------------------------------

callstack::SymbolicCallStack stack_of(const std::string& fn) {
  callstack::SymbolicCallStack s;
  s.frames.push_back(callstack::CodeLocation{"app.x", fn, 1});
  return s;
}

TEST(IncrementalAggregator, DecayedCountersFavorRecency) {
  callstack::SiteDb sites;
  const auto a = sites.intern("A", stack_of("alloc_A"));
  const auto b = sites.intern("B", stack_of("alloc_B"));
  analysis::IncrementalOptions opts;
  opts.decay_half_life_samples = 4;
  IncrementalAggregator inc(sites, opts);
  inc.on_alloc(trace::AllocEvent{0, a, 0x1000, 4096});
  inc.on_alloc(trace::AllocEvent{1, b, 0x8000, 4096});
  // A dominates early, then B takes over: 40 samples on A, then 20 on B.
  double t = 2;
  for (int i = 0; i < 40; ++i) {
    inc.on_sample(trace::SampleEvent{t++, 0x1000, false, 10});
  }
  for (int i = 0; i < 20; ++i) {
    inc.on_sample(trace::SampleEvent{t++, 0x8000, false, 10});
  }
  // Cumulative (what snapshot/batch see): A still leads.
  const AggregateResult snap = inc.snapshot();
  EXPECT_EQ(snap.objects[0].name, "A");
  EXPECT_EQ(snap.objects[0].llc_misses, 400u);
  // Decayed recency view: B leads — 20 half-lives since A was last touched.
  EXPECT_GT(inc.decayed_misses(b), inc.decayed_misses(a));
}

TEST(IncrementalAggregator, LiveBytesTrackAllocFree) {
  callstack::SiteDb sites;
  const auto a = sites.intern("A", stack_of("alloc_A"));
  IncrementalAggregator inc(sites);
  inc.on_alloc(trace::AllocEvent{0, a, 0x1000, 4096});
  inc.on_alloc(trace::AllocEvent{1, a, 0x8000, 8192});
  EXPECT_EQ(inc.live_bytes(a), 12288u);
  inc.on_free(trace::FreeEvent{2, 0x1000});
  EXPECT_EQ(inc.live_bytes(a), 8192u);
  inc.on_free(trace::FreeEvent{3, 0x8000});
  EXPECT_EQ(inc.live_bytes(a), 0u);
}

// ---- Engine: the mid-stream advisor hook ----------------------------------

TEST(AdvisorHook, NullReturningHookIsBitIdenticalToStaticSchedule) {
  const auto node = all_presets().front();
  const auto app = apps::app_by_name("lulesh");
  const auto run = profiled_run(app, node);
  const AggregateResult batch =
      analysis::aggregate_trace(*run.trace, *run.sites);
  const advisor::PhaseAdvisor batch_advisor(spec_for(node),
                                            advisor::Options{});
  const advisor::PlacementSchedule schedule =
      batch_advisor.advise(batch.phases);

  engine::RunOptions base;
  base.condition = engine::Condition::kDynamic;
  base.schedule = &schedule;
  base.node = node;
  const engine::RunResult reference = engine::run_app(app, base);

  engine::RunOptions hooked = base;
  std::uint64_t consultations = 0;
  hooked.advisor_hook = [&](const std::string&, std::uint64_t)
      -> const advisor::PlacementSchedule* {
    ++consultations;
    return nullptr;  // keep the current schedule: must change nothing
  };
  const engine::RunResult got = engine::run_app(app, hooked);
  EXPECT_GT(consultations, 0u);
  EXPECT_EQ(reference.fom, got.fom);
  EXPECT_EQ(reference.time_s, got.time_s);
  EXPECT_EQ(reference.llc_misses, got.llc_misses);
  EXPECT_EQ(reference.migration_bytes, got.migration_bytes);
  EXPECT_EQ(reference.migration_count, got.migration_count);
}

TEST(AdvisorHook, ScheduleCanGrowMidRunFromASinglePhase) {
  // The dynamic condition used to assert when the schedule missed an app
  // phase; with a hook the schedule may start with one phase (all the
  // advisor has seen) and grow as the advisor catches up mid-run.
  const auto node = all_presets().front();
  const auto app = apps::app_by_name("churn");  // built to shift its hot set
  const auto run = profiled_run(app, node);
  const AggregateResult batch =
      analysis::aggregate_trace(*run.trace, *run.sites);

  // A machine-sized budget hosts every phase's hot set at once, so no
  // schedule migrates. Tighten the fast tier until consecutive phases pick
  // different working sets — that is the regime the hook exists for.
  std::uint64_t total_bytes = 0;
  for (const auto& o : batch.objects) total_bytes += o.max_size_bytes;
  advisor::PlacementSchedule full;
  for (double frac : {0.5, 0.35, 0.25, 0.15, 0.1}) {
    const auto budget =
        static_cast<std::uint64_t>(static_cast<double>(total_bytes) * frac);
    const advisor::PhaseAdvisor tight(
        advisor::MemorySpec::two_tier(budget, 64ull << 30),
        advisor::Options{});
    full = tight.advise(batch.phases);
    if (full.migration_bytes_per_cycle() > 0) break;
  }
  ASSERT_GT(full.phases.size(), 1u);
  ASSERT_GT(full.migration_bytes_per_cycle(), 0u)
      << "precondition: the full schedule must actually migrate";

  advisor::PlacementSchedule partial;
  partial.phases.push_back(full.phases.front());
  advisor::compute_migrations(partial);

  engine::RunOptions opts;
  opts.condition = engine::Condition::kDynamic;
  opts.schedule = &partial;
  opts.node = node;
  opts.advisor_hook = [&](const std::string&, std::uint64_t iteration)
      -> const advisor::PlacementSchedule* {
    // The "advisor" converges after the first iteration.
    return iteration >= 1 ? &full : nullptr;
  };
  const engine::RunResult got = engine::run_app(app, opts);
  EXPECT_GT(got.fom, 0.0);
  // Once the full schedule was adopted, phase transitions migrate again.
  EXPECT_GT(got.migration_count, 0u);
  EXPECT_GT(got.migration_bytes, 0u);
}

TEST(AdvisorHook, InPlaceMutationWithGenerationBumpIsAdopted) {
  // An IncrementalAdvisor refreshes by rewriting its single schedule object
  // and bumping PlacementSchedule::generation — the hook returns the same
  // pointer on every consultation. The engine must detect the refresh by
  // generation (pointer identity never changes, and the mutation can
  // reallocate the phases storage the previously applied placement lived
  // in) and behave bit-identically to a hook that swaps between two stable
  // schedule objects.
  const auto node = all_presets().front();
  const auto app = apps::app_by_name("churn");
  const auto run = profiled_run(app, node);
  const AggregateResult batch =
      analysis::aggregate_trace(*run.trace, *run.sites);

  std::uint64_t total_bytes = 0;
  for (const auto& o : batch.objects) total_bytes += o.max_size_bytes;
  advisor::PlacementSchedule full;
  for (double frac : {0.5, 0.35, 0.25, 0.15, 0.1}) {
    const auto budget =
        static_cast<std::uint64_t>(static_cast<double>(total_bytes) * frac);
    const advisor::PhaseAdvisor tight(
        advisor::MemorySpec::two_tier(budget, 64ull << 30),
        advisor::Options{});
    full = tight.advise(batch.phases);
    if (full.migration_bytes_per_cycle() > 0) break;
  }
  ASSERT_GT(full.phases.size(), 1u);
  ASSERT_GT(full.migration_bytes_per_cycle(), 0u)
      << "precondition: the full schedule must actually migrate";

  advisor::PlacementSchedule partial;
  partial.phases.push_back(full.phases.front());
  advisor::compute_migrations(partial);

  engine::RunOptions opts;
  opts.condition = engine::Condition::kDynamic;
  opts.node = node;

  // Reference: a double-buffered hook swapping between two stable objects.
  engine::RunOptions swap = opts;
  swap.schedule = &partial;
  swap.advisor_hook = [&](const std::string&, std::uint64_t iteration)
      -> const advisor::PlacementSchedule* {
    return iteration >= 1 ? &full : nullptr;
  };
  const engine::RunResult reference = engine::run_app(app, swap);
  ASSERT_GT(reference.migration_count, 0u);

  // Same answers, served by mutating ONE object in place.
  advisor::PlacementSchedule live = partial;
  engine::RunOptions inplace = opts;
  inplace.schedule = &live;
  inplace.advisor_hook = [&](const std::string&, std::uint64_t iteration)
      -> const advisor::PlacementSchedule* {
    if (iteration >= 1 && live.phases.size() != full.phases.size()) {
      live.phases = full.phases;  // reallocates the phases storage
      live.migrations = full.migrations;
      ++live.generation;  // the contract: bump on every content change
    }
    return &live;  // same pointer, every consultation
  };
  const engine::RunResult got = engine::run_app(app, inplace);
  EXPECT_EQ(reference.fom, got.fom);
  EXPECT_EQ(reference.time_s, got.time_s);
  EXPECT_EQ(reference.llc_misses, got.llc_misses);
  EXPECT_EQ(reference.migration_bytes, got.migration_bytes);
  EXPECT_EQ(reference.migration_count, got.migration_count);
}

}  // namespace
}  // namespace hmem
