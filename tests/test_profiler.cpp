// Tests for the object registry and the Extrae-substitute profiler.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/prng.hpp"
#include "profiler/object_registry.hpp"
#include "profiler/profiler.hpp"

namespace hmem::profiler {
namespace {

// ----------------------------------------------------- object registry ----

TEST(ObjectRegistry, LookupInsideRange) {
  ObjectRegistry reg;
  reg.on_alloc(0x1000, 256, 3);
  EXPECT_EQ(reg.lookup(0x1000)->site, 3u);
  EXPECT_EQ(reg.lookup(0x10ff)->site, 3u);
  EXPECT_FALSE(reg.lookup(0x1100).has_value());
  EXPECT_FALSE(reg.lookup(0xfff).has_value());
}

TEST(ObjectRegistry, FreeRemovesAndReturns) {
  ObjectRegistry reg;
  reg.on_alloc(0x1000, 256, 3);
  const auto removed = reg.on_free(0x1000);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->size, 256u);
  EXPECT_FALSE(reg.lookup(0x1000).has_value());
  EXPECT_FALSE(reg.on_free(0x1000).has_value());
  EXPECT_EQ(reg.live_bytes(), 0u);
}

TEST(ObjectRegistry, ManyDisjointObjects) {
  ObjectRegistry reg;
  for (std::uint32_t i = 0; i < 100; ++i) {
    reg.on_alloc(0x10000 + i * 0x1000, 0x800, i);
  }
  EXPECT_EQ(reg.live_count(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(reg.lookup(0x10000 + i * 0x1000 + 0x7ff)->site, i);
    EXPECT_FALSE(reg.lookup(0x10000 + i * 0x1000 + 0x800).has_value());
  }
}

TEST(ObjectRegistry, AddressReuseAfterFree) {
  ObjectRegistry reg;
  reg.on_alloc(0x1000, 64, 1);
  reg.on_free(0x1000);
  reg.on_alloc(0x1000, 128, 2);  // same base, new object
  EXPECT_EQ(reg.lookup(0x1040)->site, 2u);
}

TEST(ObjectRegistry, MatchesLinearScanOracle) {
  // Differential check of the sorted-array registry against a linear scan
  // over the same live set, through random alloc/free/lookup sequences.
  // Lookups probe each live object's first byte, last byte and first byte
  // past it, addresses below the lowest base, and random addresses.
  struct Live {
    Address addr;
    std::uint64_t size;
    SiteId site;
  };
  Xoshiro256 rng(0x0B1EC7);
  for (int iter = 0; iter < 40; ++iter) {
    ObjectRegistry reg;
    std::vector<Live> oracle;
    std::uint64_t oracle_bytes = 0;
    const auto scan = [&](Address addr) -> std::optional<Live> {
      for (const Live& o : oracle) {
        if (addr >= o.addr && addr < o.addr + o.size) return o;
      }
      return std::nullopt;
    };
    const auto check = [&](Address addr) {
      const auto want = scan(addr);
      const auto got = reg.lookup(addr);
      ASSERT_EQ(got.has_value(), want.has_value()) << std::hex << addr;
      if (want) {
        EXPECT_EQ(got->addr, want->addr);
        EXPECT_EQ(got->size, want->size);
        EXPECT_EQ(got->site, want->site);
      }
    };
    for (int step = 0; step < 400; ++step) {
      const std::uint64_t op = rng.below(10);
      if (op < 4) {
        // Slot-aligned bases keep most allocations disjoint; sizes run up
        // to the whole slot, so neighbours often touch exactly.
        const Address addr = 0x10000 + rng.below(256) * 0x100;
        const std::uint64_t size = 1 + rng.below(0x100);
        const bool overlaps =
            std::any_of(oracle.begin(), oracle.end(), [&](const Live& o) {
              return addr < o.addr + o.size && o.addr < addr + size;
            });
        if (overlaps) continue;  // overlap is a logic error (death test)
        const auto site = static_cast<SiteId>(rng.below(50));
        reg.on_alloc(addr, size, site);
        oracle.push_back(Live{addr, size, site});
        oracle_bytes += size;
      } else if (op < 6) {
        // Free a live base, or an address that is no base at all.
        const bool live = !oracle.empty() && rng.below(4) != 0;
        const std::size_t victim = live ? rng.below(oracle.size()) : 0;
        const Address addr =
            live ? oracle[victim].addr : 0x10000 + rng.below(0x10000);
        const bool is_base =
            std::any_of(oracle.begin(), oracle.end(),
                        [&](const Live& o) { return o.addr == addr; });
        const auto got = reg.on_free(addr);
        ASSERT_EQ(got.has_value(), is_base) << std::hex << addr;
        if (is_base) {
          const auto it =
              std::find_if(oracle.begin(), oracle.end(),
                           [&](const Live& o) { return o.addr == addr; });
          EXPECT_EQ(got->size, it->size);
          EXPECT_EQ(got->site, it->site);
          oracle_bytes -= it->size;
          oracle.erase(it);
        }
      } else {
        for (const Live& o : oracle) {
          check(o.addr);
          check(o.addr + o.size - 1);
          check(o.addr + o.size);
        }
        check(0);
        check(0xFFFF);
        check(0x10000 + rng.below(0x11000));
      }
      ASSERT_EQ(reg.live_count(), oracle.size());
      ASSERT_EQ(reg.live_bytes(), oracle_bytes);
    }
  }
}

TEST(ObjectRegistryDeathTest, OverlapAsserts) {
  ObjectRegistry reg;
  reg.on_alloc(0x1000, 256, 1);
  EXPECT_DEATH(reg.on_alloc(0x1080, 16, 2), "overlap");
}

// ------------------------------------------------------------ profiler ----

ProfilerConfig test_config(std::uint64_t period = 10) {
  ProfilerConfig cfg;
  cfg.min_alloc_bytes = 4096;
  cfg.sampler.period = period;
  cfg.sampler.jitter = 0.0;
  return cfg;
}

TEST(Profiler, SmallAllocationsUnmonitored) {
  Profiler prof(test_config());
  prof.on_alloc(0, 0, 0x1000, 1024);   // below 4 KiB: skipped
  prof.on_alloc(1, 0, 0x8000, 8192);   // monitored
  EXPECT_EQ(prof.skipped_small_allocs(), 1u);
  EXPECT_EQ(prof.monitored_allocs(), 1u);
  EXPECT_EQ(prof.trace().size(), 1u);
  EXPECT_FALSE(prof.registry().lookup(0x1000).has_value());
  EXPECT_TRUE(prof.registry().lookup(0x8000).has_value());
}

TEST(Profiler, SamplesEveryPeriodMisses) {
  Profiler prof(test_config(10));
  for (int i = 0; i < 100; ++i) {
    prof.on_llc_miss(static_cast<double>(i), 0x1000, false);
  }
  EXPECT_EQ(prof.sampler().samples_taken(), 10u);
  // 10 sample events in the trace, each weighted by the period.
  std::uint64_t weight = 0;
  for (const auto& ev : prof.trace().events()) {
    if (const auto* s = std::get_if<trace::SampleEvent>(&ev)) {
      weight += s->weight;
    }
  }
  EXPECT_EQ(weight, 100u);
}

TEST(Profiler, WeightedMissFeedAggregatesWeight) {
  Profiler prof(test_config(100));
  prof.on_llc_miss(0, 0x1000, false, 1000);  // 10 overflows at once
  ASSERT_EQ(prof.trace().size(), 1u);
  const auto* s = std::get_if<trace::SampleEvent>(&prof.trace().events()[0]);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->weight, 1000u);
  EXPECT_EQ(prof.sampler().samples_taken(), 10u);
}

TEST(Profiler, OverheadGrowsWithActivity) {
  Profiler prof(test_config(10));
  EXPECT_DOUBLE_EQ(prof.overhead_ns(), 0.0);
  prof.on_alloc(0, 0, 0x8000, 8192);
  const double after_alloc = prof.overhead_ns();
  EXPECT_GT(after_alloc, 0.0);
  for (int i = 0; i < 10; ++i) prof.on_llc_miss(1, 0x8000, false);
  EXPECT_GT(prof.overhead_ns(), after_alloc);
  prof.on_free(2, 0x8000);
  EXPECT_EQ(prof.registry().live_count(), 0u);
}

TEST(Profiler, FreeOfUnmonitoredAllocationIsSilent) {
  Profiler prof(test_config());
  prof.on_alloc(0, 0, 0x1000, 100);  // unmonitored
  prof.on_free(1, 0x1000);           // must not add a Free event
  EXPECT_EQ(prof.trace().size(), 0u);
}

TEST(Profiler, PhaseAndCounterEventsRecorded) {
  Profiler prof(test_config());
  prof.on_phase(1.0, "solve", true);
  prof.on_counter(2.0, "instructions", 123.0);
  prof.on_phase(3.0, "solve", false);
  ASSERT_EQ(prof.trace().size(), 3u);
  const auto* p = std::get_if<trace::PhaseEvent>(&prof.trace().events()[0]);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->begin);
  EXPECT_EQ(p->name, "solve");
}

TEST(Profiler, TakeTraceMoves) {
  Profiler prof(test_config());
  prof.on_phase(1.0, "p", true);
  auto taken = prof.take_trace();
  EXPECT_EQ(taken.size(), 1u);
}

TEST(Profiler, EmitsIntoExternalSink) {
  // With an external sink, events stream out as they happen and the
  // internal buffer stays empty — the streaming stage-1 path.
  trace::TraceBuffer external;
  Profiler prof(test_config(), &external);
  prof.on_alloc(0, 0, 0x8000, 8192);
  prof.on_phase(1.0, "solve", true);
  prof.on_free(2.0, 0x8000);
  EXPECT_EQ(prof.trace().size(), 0u);
  ASSERT_EQ(external.size(), 3u);
  EXPECT_TRUE(std::holds_alternative<trace::AllocEvent>(external.events()[0]));
  EXPECT_TRUE(std::holds_alternative<trace::PhaseEvent>(external.events()[1]));
  EXPECT_TRUE(std::holds_alternative<trace::FreeEvent>(external.events()[2]));
  // Monitoring accounting is sink-independent.
  EXPECT_EQ(prof.monitored_allocs(), 1u);
  EXPECT_GT(prof.overhead_ns(), 0.0);
}

}  // namespace
}  // namespace hmem::profiler
