// Sweep engine: the three perf layers and their contracts.
//
//  * common/arena.hpp — bump-allocator mechanics: chunk growth, reset
//    reuse, per-cell high-water marks, over-aligned requests;
//  * bit-identity — arena-backed cells reproduce the plain-allocator path
//    exactly, on every bundled workload (allocator choice can move bytes,
//    never change them);
//  * shared state — stage-1 profiles computed once per (app, machine),
//    a run memo whose reused static runs equal direct runs bit for bit
//    (and stands aside under fault injection), and warm engine runs
//    identical to cold ones that reuse every profile and memoised run;
//  * sharding — disjoint/complete cell partition, and a 2-shard merged
//    store byte-identical to the unsharded store, including after a torn
//    shard tail is resumed;
//  * dynamic cells — equal to the run_pipeline(per_phase) reference, so
//    the rebased dynamic bench cannot drift from the pipeline semantics.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/aggregator.hpp"
#include "advisor/phase_advisor.hpp"
#include "advisor/placement_report.hpp"
#include "advisor/schedule_report.hpp"
#include "apps/workloads.hpp"
#include "common/arena.hpp"
#include "common/fault.hpp"
#include "common/units.hpp"
#include "engine/pipeline.hpp"
#include "engine/sweep.hpp"
#include "engine/sweep_store.hpp"

namespace {

using namespace hmem;

std::string temp_path(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  std::string path = dir != nullptr ? dir : "/tmp";
  if (!path.empty() && path.back() != '/') path += '/';
  path += "hmem_sweep_test_" + name;
  std::remove(path.c_str());
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Every bundled workload (the paper's eight plus the two phase-shift
/// stress apps), shrunk to smoke size.
std::vector<apps::AppSpec> smoke_apps() {
  std::vector<apps::AppSpec> apps = apps::all_apps();
  for (apps::AppSpec& app : apps::phase_shift_apps()) {
    apps.push_back(std::move(app));
  }
  for (apps::AppSpec& app : apps) {
    app.iterations = std::min<std::uint64_t>(app.iterations, 3);
    app.accesses_per_iteration =
        std::min<std::uint64_t>(app.accesses_per_iteration, 3000);
  }
  return apps;
}

void expect_same_run(const engine::RunResult& a, const engine::RunResult& b) {
  EXPECT_EQ(a.fom, b.fom);
  EXPECT_EQ(a.time_s, b.time_s);
  EXPECT_EQ(a.fast_hwm_bytes, b.fast_hwm_bytes);
  EXPECT_EQ(a.total_hwm_bytes, b.total_hwm_bytes);
  EXPECT_EQ(a.llc_misses, b.llc_misses);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.alloc_calls, b.alloc_calls);
  EXPECT_EQ(a.migration_bytes, b.migration_bytes);
  EXPECT_EQ(a.migration_count, b.migration_count);
  EXPECT_EQ(a.migration_cost_s, b.migration_cost_s);
  ASSERT_EQ(a.tier_traffic.size(), b.tier_traffic.size());
  for (std::size_t t = 0; t < a.tier_traffic.size(); ++t) {
    EXPECT_EQ(a.tier_traffic[t].bytes, b.tier_traffic[t].bytes);
    EXPECT_EQ(a.tier_traffic[t].migration_bytes,
              b.tier_traffic[t].migration_bytes);
  }
}

void expect_same_outcomes(const std::vector<engine::SweepOutcome>& a,
                          const std::vector<engine::SweepOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].has_result());
    ASSERT_TRUE(b[i].has_result());
    EXPECT_EQ(a[i].result.fom, b[i].result.fom) << "cell " << i;
    EXPECT_EQ(a[i].result.fast_hwm_bytes, b[i].result.fast_hwm_bytes);
    EXPECT_EQ(a[i].result.any_overflow, b[i].result.any_overflow);
    EXPECT_EQ(a[i].result.static_fom, b[i].result.static_fom);
    EXPECT_EQ(a[i].result.phases, b[i].result.phases);
    EXPECT_EQ(a[i].result.migration_bytes, b[i].result.migration_bytes);
    EXPECT_EQ(a[i].result.migration_cost_s, b[i].result.migration_cost_s);
  }
}

engine::SweepSpec small_grid(int jobs = 2) {
  engine::SweepSpec spec;
  spec.apps = {smoke_apps()[0], smoke_apps()[8]};  // hpcg + churn
  spec.machines = {
      memsim::MachineConfig::knl7250(memsim::MemMode::kFlat),
      *memsim::MachineConfig::preset("spr-hbm", memsim::MemMode::kFlat)};
  spec.baselines = {engine::Condition::kDdr, engine::Condition::kNumactl};
  spec.strategies = engine::paper_strategies();
  spec.budgets_for = [](const apps::AppSpec&) {
    return std::vector<std::uint64_t>{64 * kMiB, 256 * kMiB};
  };
  spec.dynamic_cells = true;
  spec.jobs = jobs;
  return spec;
}

TEST(Arena, BumpsResetsAndTracksPeaks) {
  Arena arena(4096);
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  void* a = arena.allocate(100, 8);
  void* b = arena.allocate(100, 8);
  EXPECT_NE(a, b);
  EXPECT_GE(arena.bytes_in_use(), 200u);
  EXPECT_EQ(arena.allocation_count(), 2u);
  const std::size_t peak1 = arena.peak_since_reset();
  EXPECT_EQ(peak1, arena.bytes_in_use());

  arena.reset();
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  EXPECT_EQ(arena.peak_since_reset(), 0u);
  // Chunks are retained: the same first pointer comes back after reset.
  void* c = arena.allocate(100, 8);
  EXPECT_EQ(a, c);
  // peak_bytes is the lifetime high-water mark, peak_since_reset per cell.
  EXPECT_GE(arena.peak_bytes(), peak1);
  EXPECT_LT(arena.peak_since_reset(), peak1);
}

TEST(Arena, GrowsAndServesOversizedRequests) {
  Arena arena(4096);
  const std::size_t reserved0 = arena.reserved_bytes();
  EXPECT_EQ(reserved0, 0u);
  // Force growth past the first chunk.
  for (int i = 0; i < 100; ++i) (void)arena.allocate(1000, 8);
  EXPECT_GT(arena.chunk_count(), 1u);
  // An oversized request gets its own exact chunk.
  const std::size_t huge = Arena::kMaxChunkBytes + 4096;
  void* p = arena.allocate(huge, 8);
  EXPECT_NE(p, nullptr);
  EXPECT_GE(arena.reserved_bytes(), huge);
  // All of it is reusable after reset without new reservations.
  const std::size_t reserved = arena.reserved_bytes();
  arena.reset();
  for (int i = 0; i < 100; ++i) (void)arena.allocate(1000, 8);
  EXPECT_EQ(arena.reserved_bytes(), reserved);
}

TEST(Arena, HonoursOverAlignedRequests) {
  Arena arena(4096);
  for (const std::size_t alignment : {64u, 128u, 4096u}) {
    void* p = arena.allocate(100, alignment);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % alignment, 0u)
        << alignment;
  }
}

TEST(Arena, BacksPmrContainers) {
  Arena arena;
  std::pmr::vector<std::uint64_t> v(&arena);
  for (std::uint64_t i = 0; i < 10000; ++i) v.push_back(i);
  for (std::uint64_t i = 0; i < 10000; ++i) ASSERT_EQ(v[i], i);
  EXPECT_GT(arena.bytes_in_use(), 10000u * sizeof(std::uint64_t) / 2);
}

TEST(Sweep, EnumerationIsShardPartitioned) {
  engine::SweepSpec spec = small_grid();
  const engine::SweepEngine whole(small_grid());
  const std::size_t total = whole.cells().size();
  // 2 apps x 2 machines x (2 baselines + 4 strategies x 2 budgets + 2
  // dynamic) = 48 cells.
  EXPECT_EQ(total, 48u);

  std::vector<int> owners(total, 0);
  for (int shard = 0; shard < 3; ++shard) {
    engine::SweepSpec shard_spec = small_grid();
    shard_spec.shard_index = shard;
    shard_spec.shard_count = 3;
    const engine::SweepEngine engine(std::move(shard_spec));
    for (const engine::SweepCell& cell : engine.cells()) {
      EXPECT_EQ(cell.index % 3, static_cast<std::size_t>(cell.index % 3));
      if (cell.index % 3 == static_cast<std::size_t>(shard)) {
        ++owners[cell.index];
      }
    }
  }
  for (const int n : owners) EXPECT_EQ(n, 1);  // disjoint and complete
}

TEST(Sweep, CellKeysSortInEnumerationOrder) {
  const engine::SweepEngine engine(small_grid());
  std::string prev;
  for (const engine::SweepCell& cell : engine.cells()) {
    const std::string key = engine::sweep_cell_key(engine.spec(), cell);
    EXPECT_LT(prev, key);
    prev = key;
  }
}

TEST(Sweep, ResultSerializationRoundTripsExactly) {
  engine::SweepCellResult r;
  r.fom = 1234.5678901234567;
  r.fast_hwm_bytes = 987654321;
  r.any_overflow = true;
  r.static_fom = 0.1 + 0.2;  // not representable: %.17g must round-trip it
  r.phases = 7;
  r.migration_bytes = 1ULL << 40;
  r.migration_cost_s = 3.0000000000000004;
  engine::SweepCellResult parsed;
  ASSERT_TRUE(
      engine::parse_sweep_result(engine::serialize_sweep_result(r), parsed));
  EXPECT_EQ(parsed.fom, r.fom);
  EXPECT_EQ(parsed.fast_hwm_bytes, r.fast_hwm_bytes);
  EXPECT_EQ(parsed.any_overflow, r.any_overflow);
  EXPECT_EQ(parsed.static_fom, r.static_fom);
  EXPECT_EQ(parsed.phases, r.phases);
  EXPECT_EQ(parsed.migration_bytes, r.migration_bytes);
  EXPECT_EQ(parsed.migration_cost_s, r.migration_cost_s);
  engine::SweepCellResult bad;
  EXPECT_FALSE(engine::parse_sweep_result("1|2|3", bad));
  // A damaged field fails the parse (and the cell is recomputed) instead
  // of resuming whatever prefix strtod/strtoull could read.
  EXPECT_FALSE(engine::parse_sweep_result("abc|1|0|0|0|0|0", bad));
  EXPECT_FALSE(engine::parse_sweep_result("1.5x|2|7|0|0|0|0", bad));
}

// The heart of the arena contract: for every bundled workload, a run whose
// scratch state lives in an arena (including a second pass over the reset
// arena) is bit-identical to the plain global-allocator run.
TEST(Sweep, ArenaRunsAreBitIdenticalOnAllApps) {
  const auto node = memsim::MachineConfig::knl7250(memsim::MemMode::kFlat);
  for (const apps::AppSpec& app : smoke_apps()) {
    SCOPED_TRACE(app.name);
    // Stage 1+2 reference artefacts, shared by both paths.
    engine::RunOptions profile_opts;
    profile_opts.condition = engine::Condition::kDdr;
    profile_opts.profile = true;
    profile_opts.node = node;
    const engine::RunResult profile = engine::run_app(app, profile_opts);
    const analysis::AggregateResult report =
        analysis::aggregate_trace(*profile.trace, *profile.sites);
    const advisor::MemorySpec spec =
        engine::machine_memory_spec(node, 96 * kMiB, app.ranks);
    advisor::HmemAdvisor adv(spec, advisor::Options{});
    const advisor::Placement placement = adv.advise(report.objects);

    engine::RunOptions opts;
    opts.condition = engine::Condition::kFramework;
    opts.placement = &placement;
    opts.seed = 1042;
    opts.node = node;
    const engine::RunResult ref = engine::run_app(app, opts);

    Arena arena;
    engine::RunOptions arena_opts = opts;
    arena_opts.scratch = &arena;
    const engine::RunResult cold = engine::run_app(app, arena_opts);
    EXPECT_GT(arena.peak_since_reset(), 0u);
    expect_same_run(ref, cold);

    // Warm pass: the same arena after reset, its chunks reused.
    arena.reset();
    const engine::RunResult warm = engine::run_app(app, arena_opts);
    expect_same_run(ref, warm);

    // A profiled run routes its miss records through the arena too.
    Arena profile_arena;
    engine::RunOptions profiled = profile_opts;
    profiled.scratch = &profile_arena;
    const engine::RunResult profiled_arena = engine::run_app(app, profiled);
    expect_same_run(profile, profiled_arena);
  }
}

TEST(Sweep, WarmEngineRunReusesProfilesAndIsIdentical) {
  engine::SweepEngine engine(small_grid());
  const auto cold = engine.run();
  const engine::SweepStats cold_stats = engine.stats();
  EXPECT_EQ(cold_stats.cells_computed, 48u);
  EXPECT_GT(cold_stats.profile_hits, 0u);  // budgets/strategies share
  EXPECT_EQ(cold_stats.profile_misses, 4u);  // one per (app, machine)
  EXPECT_GT(cold_stats.cells_per_second, 0.0);
  EXPECT_GT(cold_stats.arena_peak_cell_bytes, 0u);

  const auto warm = engine.run();
  const engine::SweepStats warm_stats = engine.stats();
  // Profiles and the run memo survive across run() calls: the second pass
  // computes no new profiles and no new static runs.
  EXPECT_EQ(warm_stats.profile_misses, 4u);
  EXPECT_GT(warm_stats.profile_hits, cold_stats.profile_hits);
  EXPECT_EQ(warm_stats.run_memo_misses, cold_stats.run_memo_misses);
  EXPECT_GT(warm_stats.run_memo_hits, cold_stats.run_memo_hits);
  expect_same_outcomes(cold, warm);
}

// The run memo serves repeated runtime inputs: every framework result and
// dynamic static leg equals an independent run_app on the cell's parsed
// placement, and every dynamic result an independent kDynamic run_app on
// the cell's parsed schedule, bit for bit. small_grid() holds hpcg (a
// one-phase schedule, served by the memo) and churn (two phases, simulated
// directly), so both dynamic routes are covered.
TEST(Sweep, RunMemoMatchesDirectRuns) {
  engine::SweepEngine engine(small_grid());
  const auto outcomes = engine.run();
  const engine::SweepSpec& spec = engine.spec();
  std::uint64_t memo_lookups = 0;
  std::uint64_t one_phase_cells = 0;
  std::uint64_t multi_phase_cells = 0;
  for (const engine::SweepOutcome& outcome : outcomes) {
    const engine::SweepCell& cell = outcome.cell;
    if (cell.kind == engine::CellKind::kBaseline) continue;
    ++memo_lookups;
    SCOPED_TRACE(engine::sweep_cell_key(spec, cell));
    const apps::AppSpec& app = spec.apps[cell.app];
    const memsim::MachineConfig& node = spec.machines[cell.machine];
    const advisor::MemorySpec memory =
        engine::machine_memory_spec(node, cell.budget_bytes, app.ranks);
    const advisor::Options options =
        cell.kind == engine::CellKind::kFramework
            ? spec.strategies[cell.strategy].options
            : spec.base.advisor;
    const analysis::AggregateResult& report =
        engine.profile_report(cell.app, cell.machine);
    const advisor::HmemAdvisor adv(memory, options);
    const advisor::Placement placement = advisor::read_placement_report(
        advisor::write_placement_report(adv.advise(report.objects)));
    engine::RunOptions opts;
    opts.condition = engine::Condition::kFramework;
    opts.placement = &placement;
    opts.runtime_options = spec.base.runtime_options;
    opts.seed = spec.base.production_seed;
    opts.node = node;
    opts.kernel = spec.base.kernel;
    const engine::RunResult direct = engine::run_app(app, opts);
    if (cell.kind == engine::CellKind::kFramework) {
      EXPECT_EQ(outcome.result.fom, direct.fom);
      EXPECT_EQ(outcome.result.fast_hwm_bytes, direct.fast_hwm_bytes);
      EXPECT_EQ(outcome.result.any_overflow,
                direct.autohbw.has_value() && direct.autohbw->any_overflow);
      continue;
    }
    EXPECT_EQ(outcome.result.static_fom, direct.fom);

    const advisor::PhaseAdvisor phase_adv(memory, spec.base.advisor);
    const advisor::PlacementSchedule schedule =
        advisor::read_schedule_report(advisor::write_schedule_report(
            phase_adv.advise(report.phases)));
    engine::RunOptions dyn = opts;
    dyn.condition = engine::Condition::kDynamic;
    dyn.placement = nullptr;
    dyn.schedule = &schedule;
    const engine::RunResult dynamic = engine::run_app(app, dyn);
    EXPECT_EQ(outcome.result.fom, dynamic.fom);
    EXPECT_EQ(outcome.result.fast_hwm_bytes, dynamic.fast_hwm_bytes);
    EXPECT_EQ(outcome.result.phases, schedule.phases.size());
    EXPECT_EQ(outcome.result.migration_bytes, dynamic.migration_bytes);
    EXPECT_EQ(outcome.result.migration_cost_s, dynamic.migration_cost_s);
    if (engine::schedule_transitions(dyn)) {
      ++multi_phase_cells;
    } else {
      ++one_phase_cells;
      ++memo_lookups;  // the dynamic run itself is a memo lookup
    }
  }
  EXPECT_GT(one_phase_cells, 0u);
  EXPECT_GT(multi_phase_cells, 0u);
  const engine::SweepStats& stats = engine.stats();
  EXPECT_GT(stats.run_memo_hits, 0u);
  EXPECT_EQ(stats.run_memo_hits + stats.run_memo_misses, memo_lookups);
}

// An armed fault schedule makes a run depend on the global hit index, so
// the memo stands aside: no cell reuses another's faulted result.
TEST(Sweep, RunMemoIsBypassedUnderFaults) {
  struct Disarm {
    ~Disarm() { fault::disarm(); }
  } disarm_on_exit;
  ASSERT_EQ(fault::configure("alloc:p=0.1,seed=1"), "");
  engine::SweepEngine engine(small_grid());
  engine.run();
  EXPECT_EQ(engine.stats().run_memo_hits, 0u);
  EXPECT_EQ(engine.stats().cells_computed, 48u);
}

TEST(Sweep, JobsDoNotChangeOutcomes) {
  engine::SweepEngine serial(small_grid(/*jobs=*/1));
  engine::SweepEngine parallel(small_grid(/*jobs=*/4));
  expect_same_outcomes(serial.run(), parallel.run());
}

TEST(Sweep, ShardedStoresMergeByteIdenticalToUnsharded) {
  const std::string gold_path = temp_path("gold.dat");
  const std::string s1_path = temp_path("s1.dat");
  const std::string s2_path = temp_path("s2.dat");
  const std::string merged_path = temp_path("merged.dat");

  std::vector<engine::SweepOutcome> gold;
  {
    engine::SweepStore store(gold_path);
    engine::SweepEngine engine(small_grid());
    gold = engine.run(&store);
    EXPECT_EQ(store.size(), 48u);
  }
  for (int shard = 0; shard < 2; ++shard) {
    engine::SweepSpec spec = small_grid();
    spec.shard_index = shard;
    spec.shard_count = 2;
    engine::SweepStore store(shard == 0 ? s1_path : s2_path);
    engine::SweepEngine engine(std::move(spec));
    engine.run(&store);
    EXPECT_EQ(store.size(), 24u);
    EXPECT_EQ(engine.stats().cells_in_shard, 24u);
  }
  engine::merge_sweep_stores({s1_path, s2_path}, merged_path);
  EXPECT_EQ(slurp(merged_path), slurp(gold_path));

  // Tear shard 1's tail (a half-written record plus the records after it
  // are indistinguishable from a SIGKILL mid-append), resume it, re-merge:
  // still byte-identical to the unsharded store.
  {
    std::string bytes = slurp(s1_path);
    bytes.resize(bytes.size() / 2);
    bytes += "damaged-tail-without-checksum";
    std::ofstream out(s1_path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  {
    engine::SweepStore store(s1_path);
    EXPECT_GT(store.dropped_records(), 0u);
    const std::size_t salvaged = store.size();
    EXPECT_LT(salvaged, 24u);
    engine::SweepSpec spec = small_grid();
    spec.shard_index = 0;
    spec.shard_count = 2;
    engine::SweepEngine engine(std::move(spec));
    const auto resumed = engine.run(&store, /*resume=*/true);
    EXPECT_EQ(engine.stats().cells_resumed, salvaged);
    EXPECT_EQ(engine.stats().cells_computed, 24u - salvaged);
    EXPECT_EQ(store.size(), 24u);
    // Resumed outcomes reproduce the gold values exactly (%.17g).
    for (std::size_t i = 0; i < resumed.size(); ++i) {
      if (!resumed[i].has_result()) continue;
      EXPECT_EQ(resumed[i].result.fom, gold[i].result.fom) << i;
    }
  }
  engine::merge_sweep_stores({s1_path, s2_path}, merged_path);
  EXPECT_EQ(slurp(merged_path), slurp(gold_path));

  for (const auto& p : {gold_path, s1_path, s2_path, merged_path}) {
    std::remove(p.c_str());
  }
}

TEST(Sweep, DynamicCellMatchesRunPipeline) {
  apps::AppSpec churn = apps::app_by_name("churn");
  churn.iterations = std::min<std::uint64_t>(churn.iterations, 3);
  churn.accesses_per_iteration =
      std::min<std::uint64_t>(churn.accesses_per_iteration, 3000);

  engine::PipelineOptions options;
  options.per_phase = true;
  options.fast_budget_per_rank = 96 * kMiB;
  const engine::PipelineResult ref = engine::run_pipeline(churn, options);

  engine::SweepSpec spec;
  spec.apps = {churn};
  spec.machines = {options.node};
  spec.budgets_for = [](const apps::AppSpec&) {
    return std::vector<std::uint64_t>{96 * kMiB};
  };
  spec.dynamic_cells = true;
  engine::SweepEngine engine(std::move(spec));
  const auto outcomes = engine.run();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].cell.kind, engine::CellKind::kDynamic);
  EXPECT_EQ(outcomes[0].result.fom, ref.dynamic_run.fom);
  EXPECT_EQ(outcomes[0].result.static_fom, ref.production_run.fom);
  EXPECT_EQ(outcomes[0].result.phases, ref.schedule.phases.size());
  EXPECT_EQ(outcomes[0].result.migration_bytes,
            ref.dynamic_run.migration_bytes);
  EXPECT_EQ(outcomes[0].result.migration_cost_s,
            ref.dynamic_run.migration_cost_s);
}

}  // namespace
