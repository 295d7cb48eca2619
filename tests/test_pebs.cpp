// Tests for the PEBS-style sampler.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "common/prng.hpp"
#include "pebs/sampler.hpp"

namespace hmem::pebs {
namespace {

TEST(PebsSampler, StrictPeriodWithoutJitter) {
  SamplerConfig cfg;
  cfg.period = 100;
  cfg.jitter = 0.0;
  PebsSampler sampler(cfg);
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    if (sampler.on_llc_miss(static_cast<double>(i), 0x1000, false)) ++fired;
  }
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(sampler.samples_taken(), 10u);
  EXPECT_EQ(sampler.misses_seen(), 1000u);
}

TEST(PebsSampler, SampleCarriesAddressAndWeight) {
  SamplerConfig cfg;
  cfg.period = 3;
  cfg.jitter = 0.0;
  PebsSampler sampler(cfg);
  sampler.on_llc_miss(0, 0xa, false);
  sampler.on_llc_miss(1, 0xb, false);
  const auto rec = sampler.on_llc_miss(2, 0xc, true);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->addr, 0xcu);
  EXPECT_TRUE(rec->is_write);
  EXPECT_EQ(rec->weight, 3u);
}

TEST(PebsSampler, JitterStaysBounded) {
  SamplerConfig cfg;
  cfg.period = 1000;
  cfg.jitter = 0.10;
  PebsSampler sampler(cfg);
  std::uint64_t last_fire = 0;
  std::uint64_t n = 0;
  for (std::uint64_t i = 1; i <= 200000; ++i) {
    if (sampler.on_llc_miss(0, 0, false)) {
      if (last_fire != 0) {
        const std::uint64_t gap = i - last_fire;
        EXPECT_GE(gap, 900u);
        EXPECT_LE(gap, 1100u);
      }
      last_fire = i;
      ++n;
    }
  }
  EXPECT_NEAR(static_cast<double>(n), 200.0, 6.0);
}

TEST(PebsSampler, DeterministicForSameSeed) {
  SamplerConfig cfg;
  cfg.period = 37589;
  cfg.seed = 99;
  PebsSampler a(cfg), b(cfg);
  for (int i = 0; i < 200000; ++i) {
    EXPECT_EQ(a.on_llc_miss(0, 0, false).has_value(),
              b.on_llc_miss(0, 0, false).has_value());
  }
}

TEST(PebsSampler, WeightedFeedMatchesUnitFeed) {
  SamplerConfig cfg;
  cfg.period = 500;
  cfg.jitter = 0.0;
  PebsSampler unit(cfg), bulk(cfg);
  std::uint64_t unit_fires = 0;
  for (int i = 0; i < 10000; ++i) {
    if (unit.on_llc_miss(0, 0, false)) ++unit_fires;
  }
  std::uint64_t bulk_fires = 0;
  for (int i = 0; i < 100; ++i) {
    bulk_fires += bulk.on_llc_misses(0, 0, false, 100);
  }
  EXPECT_EQ(unit_fires, bulk_fires);
  EXPECT_EQ(unit.misses_seen(), bulk.misses_seen());
}

TEST(PebsSampler, BulkFeedLargerThanPeriodFiresMultiple) {
  SamplerConfig cfg;
  cfg.period = 100;
  cfg.jitter = 0.0;
  PebsSampler sampler(cfg);
  EXPECT_EQ(sampler.on_llc_misses(0, 0, false, 1000), 10u);
}

TEST(PebsSampler, PaperPeriodSamplesAtPaperRate) {
  // 1.5e8 misses at 1/37589 -> ~3990 samples (Table I's order of magnitude).
  SamplerConfig cfg;  // default period 37589
  PebsSampler sampler(cfg);
  std::uint64_t fires = 0;
  for (int i = 0; i < 1500; ++i) {
    fires += sampler.on_llc_misses(0, 0, false, 100000);
  }
  EXPECT_NEAR(static_cast<double>(fires), 1.5e8 / 37589.0, 50.0);
}

TEST(PebsSampler, ResetRestartsCounters) {
  SamplerConfig cfg;
  cfg.period = 10;
  cfg.jitter = 0.0;
  PebsSampler sampler(cfg);
  sampler.on_llc_misses(0, 0, false, 95);
  sampler.reset();
  EXPECT_EQ(sampler.misses_seen(), 0u);
  EXPECT_EQ(sampler.samples_taken(), 0u);
  // After reset the countdown is re-armed to the full period.
  std::uint64_t fires = 0;
  for (int i = 0; i < 10; ++i) {
    fires += sampler.on_llc_miss(0, 0, false).has_value() ? 1 : 0;
  }
  EXPECT_EQ(fires, 1u);
}

TEST(PebsSampler, SkipQuietMatchesStepping) {
  // Property: skip_quiet(limit, count) consumes exactly the groups that
  // stepping on_llc_misses(count) one group at a time would consume before
  // the first fire (or the limit), leaving the sampler in the same state —
  // same counters now, same fires for any continuation.
  Xoshiro256 rng(0x5b1bULL);
  for (int trial = 0; trial < 2000; ++trial) {
    SamplerConfig cfg;
    cfg.period = 1 + rng.below(trial % 4 == 0 ? 40000 : 300);
    cfg.jitter = rng.below(2) == 0 ? 0.0 : 0.5 * rng.uniform();
    cfg.seed = rng.next();
    // count > period in about a third of the trials.
    const std::uint64_t count = 1 + rng.below(cfg.period * 3 / 2 + 2);
    const std::uint64_t limit = rng.below(5000);
    PebsSampler skipped(cfg), stepped(cfg);
    // Start from a random point of the countdown, not a fresh arm.
    const std::uint64_t warmup = rng.below(3 * cfg.period);
    skipped.on_llc_misses(0, 0, false, warmup);
    stepped.on_llc_misses(0, 0, false, warmup);

    const std::uint64_t n = skipped.skip_quiet(limit, count);
    std::uint64_t quiet = 0;
    while (quiet < limit) {
      PebsSampler probe = stepped;
      if (probe.on_llc_misses(0, 0, false, count) != 0) break;
      stepped = probe;
      ++quiet;
    }
    ASSERT_EQ(n, quiet) << "trial " << trial << " period " << cfg.period
                        << " count " << count << " limit " << limit;
    ASSERT_EQ(skipped.misses_seen(), stepped.misses_seen()) << trial;
    ASSERT_EQ(skipped.samples_taken(), stepped.samples_taken()) << trial;
    if (n < limit) {
      // The group after the skip fires, exactly as stepping says.
      EXPECT_GT(skipped.on_llc_misses(0, 0, false, count), 0u) << trial;
      stepped.on_llc_misses(0, 0, false, count);
    }
    for (int i = 0; i < 50; ++i) {
      const std::uint64_t more = 1 + rng.below(2 * cfg.period);
      ASSERT_EQ(skipped.on_llc_misses(0, 0, false, more),
                stepped.on_llc_misses(0, 0, false, more))
          << "trial " << trial << " continuation " << i;
    }
    EXPECT_EQ(skipped.misses_seen(), stepped.misses_seen()) << trial;
  }
}

TEST(PebsSampler, SkipQuietStopsAtTheFiringGroup) {
  SamplerConfig cfg;
  cfg.period = 100;
  cfg.jitter = 0.0;
  PebsSampler sampler(cfg);
  // Countdown 100, groups of 30: three quiet groups (90), the fourth fires.
  EXPECT_EQ(sampler.skip_quiet(10, 30), 3u);
  EXPECT_EQ(sampler.misses_seen(), 90u);
  EXPECT_EQ(sampler.skip_quiet(10, 30), 0u);
  EXPECT_EQ(sampler.on_llc_misses(0, 0, false, 30), 1u);
  // A limit below the quiet run stops there.
  EXPECT_EQ(sampler.skip_quiet(2, 30), 2u);
  // count >= countdown: nothing is quiet.
  EXPECT_EQ(sampler.skip_quiet(10, 500), 0u);
  EXPECT_EQ(sampler.skip_quiet(0, 1), 0u);
}

}  // namespace
}  // namespace hmem::pebs
