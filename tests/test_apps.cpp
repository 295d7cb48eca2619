// Tests for the workload model: spec validation, the eight paper apps'
// invariants, and the access generators.
#include <gtest/gtest.h>

#include <set>

#include "apps/app.hpp"
#include "apps/generator.hpp"
#include "apps/workloads.hpp"
#include "common/units.hpp"

namespace hmem::apps {
namespace {

AppSpec minimal_app() {
  AppSpec app;
  app.name = "mini";
  app.fom_unit = "it/s";
  app.objects = {ObjectSpec{.name = "a", .size_bytes = 4096}};
  PhaseSpec phase;
  phase.name = "main";
  phase.object_weights = {1.0};
  app.phases = {phase};
  return app;
}

TEST(Validate, AcceptsMinimalApp) {
  EXPECT_EQ(validate(minimal_app()), "");
}

TEST(Validate, RejectsBrokenSpecs) {
  {
    auto a = minimal_app();
    a.objects.clear();
    EXPECT_NE(validate(a), "");
  }
  {
    auto a = minimal_app();
    a.phases[0].object_weights = {1.0, 2.0};  // size mismatch
    EXPECT_NE(validate(a), "");
  }
  {
    auto a = minimal_app();
    a.phases[0].access_share = 0.5;  // shares must sum to 1
    EXPECT_NE(validate(a), "");
  }
  {
    auto a = minimal_app();
    a.objects[0].size_bytes = 0;
    EXPECT_NE(validate(a), "");
  }
  {
    auto a = minimal_app();
    a.objects[0].is_static = true;
    a.objects[0].churn = true;
    EXPECT_NE(validate(a), "");
  }
  {
    auto a = minimal_app();
    a.objects[0].transient_phase = 3;  // no such phase
    EXPECT_NE(validate(a), "");
  }
  {
    auto a = minimal_app();
    a.objects[0].instances = 0;
    EXPECT_NE(validate(a), "");
  }
  {
    auto a = minimal_app();
    a.phases[0].object_weights = {0.0};
    a.phases[0].stack_weight = 0.0;  // all-zero weights
    EXPECT_NE(validate(a), "");
  }
}

TEST(AppSpec, AllPaperAppsValidate) {
  const auto apps = all_apps();
  ASSERT_EQ(apps.size(), 8u);
  for (const auto& app : apps) {
    EXPECT_EQ(validate(app), "") << app.name;
  }
}

TEST(AppSpec, PaperAppsHaveExpectedGeometry) {
  // Table I: BT is the only OpenMP-only app; the rest run 64 ranks.
  for (const auto& app : all_apps()) {
    if (app.name == "bt") {
      EXPECT_EQ(app.ranks, 1);
      EXPECT_GT(app.threads_per_rank, 32);
    } else {
      EXPECT_EQ(app.ranks, 64) << app.name;
    }
  }
}

TEST(AppSpec, BtWorkingSetFitsMcdram) {
  // The reason numactl wins BT: ~11 GiB working set, 16 GiB MCDRAM.
  const auto bt = app_by_name("bt");
  EXPECT_GT(bt.total_footprint(), 8ULL * kGiB);
  EXPECT_LT(bt.total_footprint(), 16ULL * kGiB);
}

TEST(AppSpec, CgpopCriticalSetFitsSmallestBudget) {
  // CGPOP's dynamic critical set fits 32 MiB/rank (flat FOM across budgets).
  const auto cgpop = app_by_name("cgpop");
  std::uint64_t critical = 0;
  for (std::size_t i = 0; i < cgpop.objects.size(); ++i) {
    const auto& obj = cgpop.objects[i];
    if (!obj.is_static && cgpop.phases[0].object_weights[i] >= 0.15) {
      critical += obj.total_bytes();
    }
  }
  EXPECT_LE(critical, 32ULL << 20);
}

TEST(AppSpec, LuleshAllocatesDuringMainLoop) {
  // The paper stresses Lulesh "allocates and deallocates many objects
  // during the application run": phase-scoped transients, including a
  // multi-instance 1-2 MiB site (the memkind anomaly window).
  const auto lulesh = app_by_name("lulesh");
  bool has_transient = false, has_anomaly_window_site = false;
  for (const auto& obj : lulesh.objects) {
    has_transient |= obj.transient_phase >= 0;
    if (obj.transient_phase >= 0 && obj.instances > 1 &&
        obj.size_bytes >= (1ULL << 20) && obj.size_bytes <= (2ULL << 20)) {
      has_anomaly_window_site = true;
    }
  }
  EXPECT_TRUE(has_transient);
  EXPECT_TRUE(has_anomaly_window_site);
}

TEST(AppSpec, MaxwHasAllocationChurn) {
  // Table I: MAXW-DGTD's 15,854 allocations/process/second.
  const auto maxw = app_by_name("maxw-dgtd");
  bool has_churn = false;
  for (const auto& obj : maxw.objects) has_churn |= obj.churn;
  EXPECT_TRUE(has_churn);
}

TEST(AppSpec, SnapHasStackHeavyOuterPhase) {
  const auto snap = app_by_name("snap");
  ASSERT_EQ(snap.phases.size(), 2u);
  const auto& outer = snap.phases[1];
  EXPECT_EQ(outer.name, "outer_src_calc");
  EXPECT_GT(outer.stack_weight, 0.4);  // the register-spill phase
  EXPECT_LT(snap.phases[0].stack_weight, 0.1);
}

TEST(AppSpec, HpcgHasLoopingSmallBufferSite) {
  const auto hpcg = app_by_name("hpcg");
  bool found = false;
  for (const auto& obj : hpcg.objects) {
    if (obj.instances > 1 && !obj.is_static) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(AppSpec, AllocStackShapes) {
  const auto app = app_by_name("hpcg");
  const auto stack = app.alloc_stack(0);
  EXPECT_EQ(stack.depth(),
            static_cast<std::size_t>(app.objects[0].callstack_depth));
  // Innermost frame identifies the object; outermost is main.
  EXPECT_NE(stack.frames.front().function.find("alloc_"), std::string::npos);
  EXPECT_EQ(stack.frames.back().function, "main");
  // Distinct objects get distinct stacks.
  EXPECT_NE(app.alloc_stack(0), app.alloc_stack(1));
  // Same object: stable stack (churn loops share one call-stack).
  EXPECT_EQ(app.alloc_stack(2), app.alloc_stack(2));
}

TEST(AppSpec, ObjectIndexLookup) {
  const auto app = app_by_name("minife");
  EXPECT_EQ(app.objects[app.object_index("A_vals")].name, "A_vals");
}

TEST(AppSpec, AppByNameFindsAll) {
  for (const char* name : {"hpcg", "lulesh", "bt", "minife", "cgpop", "snap",
                           "maxw-dgtd", "gtc-p"}) {
    EXPECT_EQ(app_by_name(name).name, name);
  }
}

TEST(StreamTriad, ThreeEqualArrays) {
  const auto stream = make_stream_triad(68);
  ASSERT_EQ(stream.objects.size(), 3u);
  EXPECT_EQ(stream.objects[0].size_bytes, stream.objects[1].size_bytes);
  EXPECT_EQ(stream.threads_per_rank, 68);
  EXPECT_EQ(validate(stream), "");
}

// ----------------------------------------------------------- generator ----

TEST(AccessGenerator, StreamCoversObjectSequentially) {
  const std::uint64_t size = 64 * 100;
  AccessGenerator gen(AccessPattern::kStream, size, 42);
  std::set<std::uint64_t> seen;
  std::uint64_t prev = gen.next_offset();
  seen.insert(prev);
  for (int i = 1; i < 100; ++i) {
    const auto off = gen.next_offset();
    EXPECT_EQ(off % 64, 0u);
    EXPECT_LT(off, size);
    EXPECT_EQ(off, (prev + 64) % size);  // strictly sequential with wrap
    prev = off;
    seen.insert(off);
  }
  EXPECT_EQ(seen.size(), 100u);  // full coverage after size/64 steps
}

TEST(AccessGenerator, RandomStaysInRange) {
  const std::uint64_t size = 1 << 20;
  AccessGenerator gen(AccessPattern::kRandom, size, 7);
  for (int i = 0; i < 1000; ++i) {
    const auto off = gen.next_offset();
    EXPECT_LT(off, size);
    EXPECT_EQ(off % 64, 0u);
  }
}

TEST(AccessGenerator, StridedVisitsManyDistinctLines) {
  const std::uint64_t size = 64 * 1024;
  AccessGenerator gen(AccessPattern::kStrided, size, 3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 512; ++i) seen.insert(gen.next_offset());
  EXPECT_GT(seen.size(), 400u);  // near-full coverage, no short cycle
}

TEST(AccessGenerator, DeterministicPerSeed) {
  AccessGenerator a(AccessPattern::kRandom, 1 << 20, 5);
  AccessGenerator b(AccessPattern::kRandom, 1 << 20, 5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_offset(), b.next_offset());
  AccessGenerator c(AccessPattern::kRandom, 1 << 20, 6);
  bool any_diff = false;
  AccessGenerator a2(AccessPattern::kRandom, 1 << 20, 5);
  for (int i = 0; i < 100; ++i) {
    if (a2.next_offset() != c.next_offset()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(AccessGenerator, TinyObjectSingleLine) {
  AccessGenerator gen(AccessPattern::kStream, 1, 9);
  EXPECT_EQ(gen.next_offset(), 0u);
  EXPECT_EQ(gen.next_offset(), 0u);
}

}  // namespace
}  // namespace hmem::apps
