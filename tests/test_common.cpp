// Unit tests for the common utility substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "common/alias.hpp"
#include "common/config.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/host_context.hpp"
#include "common/prng.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/units.hpp"

namespace hmem {
namespace {

// ---------------------------------------------------------------- prng ----

TEST(Prng, SplitMixIsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Prng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Prng, BelowStaysInRange) {
  Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
}

TEST(Prng, BelowCoversSmallRangeUniformly) {
  Xoshiro256 rng(11);
  std::vector<int> counts(8, 0);
  const int draws = 80000;
  for (int i = 0; i < draws; ++i) ++counts[rng.below(8)];
  for (int c : counts) {
    EXPECT_NEAR(c, draws / 8, draws / 8 * 0.1);
  }
}

TEST(Prng, UniformIsInUnitInterval) {
  Xoshiro256 rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

// --------------------------------------------------------------- stats ----

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all, left, right;
  Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform() * 100;
    all.add(v);
    (i % 2 == 0 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(Percentile, EdgesAndInterpolation) {
  std::vector<double> v{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 10);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 40);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 25);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0);
  EXPECT_DOUBLE_EQ(percentile({7}, 99), 7);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0, 10, 5);
  h.add(-1);   // clamps to bin 0
  h.add(0.5);
  h.add(9.99);
  h.add(42);   // clamps to last bin
  EXPECT_DOUBLE_EQ(h.count(0), 2);
  EXPECT_DOUBLE_EQ(h.count(4), 2);
  EXPECT_DOUBLE_EQ(h.total(), 4);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 4);
}

// ----------------------------------------------------------------- csv ----

TEST(Csv, RoundTripWithQuoting) {
  std::ostringstream os;
  CsvWriter w(os);
  w.write_row({"plain", "with,comma", "with\"quote", "multi\nline"});
  w.write_row({"", "second"});
  const auto rows = CsvReader::parse(os.str());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1], "with,comma");
  EXPECT_EQ(rows[0][2], "with\"quote");
  EXPECT_EQ(rows[0][3], "multi\nline");
  EXPECT_EQ(rows[1][0], "");
  EXPECT_EQ(rows[1][1], "second");
}

TEST(Csv, ParsesCrlfAndTrailingNewline) {
  const auto rows = CsvReader::parse("a,b\r\nc,d\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], "a");
  EXPECT_EQ(rows[1][1], "d");
}

TEST(Csv, EscapeOnlyWhenNeeded) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("q\"q"), "\"q\"\"q\"");
}

// -------------------------------------------------------------- config ----

TEST(Config, ParsesSectionsKeysAndComments) {
  const auto cfg = Config::parse(
      "top = 1\n"
      "[tier mcdram]  # fast\n"
      "capacity = 16G\n"
      "relative_performance = 5.0\n"
      "; full-line comment\n"
      "[flags]\n"
      "verbose = true\n");
  EXPECT_EQ(cfg.get_int("", "top", -1), 1);
  EXPECT_EQ(cfg.get_bytes("tier mcdram", "capacity", 0), 16ULL * kGiB);
  EXPECT_DOUBLE_EQ(
      cfg.get_double("tier mcdram", "relative_performance", 0), 5.0);
  EXPECT_TRUE(cfg.get_bool("flags", "verbose", false));
  EXPECT_FALSE(cfg.get("flags", "missing").has_value());
}

TEST(Config, FallbacksOnMalformedValues) {
  const auto cfg = Config::parse("[s]\nx = notanumber\n");
  EXPECT_EQ(cfg.get_int("s", "x", 7), 7);
  EXPECT_DOUBLE_EQ(cfg.get_double("s", "x", 1.5), 1.5);
  EXPECT_EQ(cfg.get_bytes("s", "x", 9), 9u);
}

TEST(Config, MalformedLinesThrowWithTheirLineNumber) {
  for (const auto& [text, line] :
       {std::pair{"[sweep\n", "config line 1:"},
        std::pair{"[s]\nx = 1\nfoo\n", "config line 3:"},
        std::pair{"[s]\n\n# note\n= 4\n", "config line 4:"}}) {
    try {
      (void)Config::parse(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(line), std::string::npos)
          << e.what();
    }
  }
}

TEST(Config, GetBoolRejectsNonBooleans) {
  const auto cfg = Config::parse("[s]\nflag = maybe\nset = On\n");
  EXPECT_THROW((void)cfg.get_bool("s", "flag", false), ConfigError);
  EXPECT_TRUE(cfg.get_bool("s", "set", false));
  EXPECT_TRUE(cfg.get_bool("s", "missing", true));
}

TEST(Config, SectionOrderPreserved) {
  const auto cfg = Config::parse("[b]\nk=1\n[a]\nk=2\n");
  ASSERT_EQ(cfg.sections().size(), 2u);
  EXPECT_EQ(cfg.sections()[0], "b");
  EXPECT_EQ(cfg.sections()[1], "a");
}

// --------------------------------------------------------------- units ----

TEST(Units, ParseVariants) {
  EXPECT_EQ(parse_bytes("4096").value(), 4096u);
  EXPECT_EQ(parse_bytes("4K").value(), 4096u);
  EXPECT_EQ(parse_bytes("4k").value(), 4096u);
  EXPECT_EQ(parse_bytes("256M").value(), 256ULL * kMiB);
  EXPECT_EQ(parse_bytes("256 MiB").value(), 256ULL * kMiB);
  EXPECT_EQ(parse_bytes("16G").value(), 16ULL * kGiB);
  EXPECT_EQ(parse_bytes("1.5G").value(), kGiB + kGiB / 2);
  EXPECT_FALSE(parse_bytes("oops").has_value());
  EXPECT_FALSE(parse_bytes("-3K").has_value());
  EXPECT_FALSE(parse_bytes("").has_value());
  // Sizes no uint64 holds are rejected, not saturated to 2^63.
  for (const char* text : {"nan", "inf", "-nan", "1e30", "1e30G",
                           "18446744073709551616", "17179869184G"}) {
    EXPECT_FALSE(parse_bytes(text).has_value()) << text;
  }
  // Just below 2^64 (2^64 - 2^30) and at 2^63 parse exactly.
  EXPECT_EQ(parse_bytes("17179869183G").value(), 18446744072635809792ULL);
  EXPECT_EQ(parse_bytes("8388608T").value(), 1ULL << 63);
}

TEST(Units, FormatTrimsZeros) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(4096), "4 KiB");
  EXPECT_EQ(format_bytes(256ULL * kMiB), "256 MiB");
  EXPECT_EQ(format_bytes(kGiB + kGiB / 2), "1.5 GiB");
}

TEST(Units, RoundTrip) {
  for (std::uint64_t v : {1ULL, 4096ULL, 32ULL * kMiB, 16ULL * kGiB}) {
    EXPECT_EQ(parse_bytes(format_bytes(v)).value(), v);
  }
}

// -------------------------------------------------------- host context ----

TEST(HostContext, JsonMembersNameTheHost) {
  const std::string json = host_context_json();
  for (const char* key : {"cores", "build_type", "compiler", "os_kernel"}) {
    EXPECT_NE(json.find("  \"" + std::string(key) + "\": "),
              std::string::npos)
        << key;
  }
  // Spliced before a record's last member: every line is one member.
  ASSERT_GE(json.size(), 2u);
  EXPECT_EQ(json.substr(json.size() - 2), ",\n");
  EXPECT_EQ(json.find("\"build_type\": \"\""), std::string::npos);
}

// ------------------------------------------------------------- strings ----

TEST(Strings, TrimSplitJoin) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("\t\n a b \r"), "a b");
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join({"a", "b", "c"}, " < "), "a < b < c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, Predicates) {
  EXPECT_TRUE(starts_with("tier mcdram", "tier"));
  EXPECT_FALSE(starts_with("tie", "tier"));
  EXPECT_TRUE(ends_with("report.csv", ".csv"));
  EXPECT_FALSE(ends_with("csv", "report.csv"));
  EXPECT_EQ(to_lower("AbC1"), "abc1");
}

// --------------------------------------------------------------- alias ----

/// Empirical distribution of `draws` samples through the table.
std::vector<double> sampled_shares(const AliasTable& table, int draws,
                                   std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> counts(table.size(), 0);
  for (int i = 0; i < draws; ++i) ++counts[table.sample(rng.next())];
  std::vector<double> shares(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    shares[i] = static_cast<double>(counts[i]) / draws;
  }
  return shares;
}

TEST(AliasTable, MatchesTheTargetDistribution) {
  const std::vector<double> weights = {5.0, 1.0, 0.25, 3.75, 10.0};
  double total = 0;
  for (const double w : weights) total += w;
  const AliasTable table(weights);
  const int draws = 400000;
  const auto shares = sampled_shares(table, draws, 0xa11a5);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double expected = weights[i] / total;
    // ~4 sigma of a binomial at these counts.
    const double sigma =
        std::sqrt(expected * (1 - expected) / draws);
    EXPECT_NEAR(shares[i], expected, 4 * sigma + 1e-9) << "slot " << i;
  }
}

TEST(AliasTable, ZeroWeightSlotsAreNeverSampled) {
  const AliasTable table({0.0, 2.0, 0.0, 1.0, 0.0});
  Xoshiro256 rng(99);
  for (int i = 0; i < 100000; ++i) {
    const std::size_t s = table.sample(rng.next());
    EXPECT_TRUE(s == 1 || s == 3) << s;
  }
}

TEST(AliasTable, SingleAndUniformWeights) {
  const AliasTable one({7.0});
  Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(one.sample(rng.next()), 0u);

  const AliasTable uniform(std::vector<double>(8, 1.0));
  const auto shares = sampled_shares(uniform, 200000, 0xbeef);
  for (const double s : shares) EXPECT_NEAR(s, 0.125, 0.005);
}

TEST(AliasTable, ReducedCoinBitsKeepTheDistribution) {
  // The engine packs the coin into 21 bits; the quantization must stay
  // invisible at simulation sample counts.
  const std::vector<double> weights = {0.7, 0.2, 0.05, 0.05};
  const AliasTable table(weights, /*coin_bits=*/21);
  EXPECT_EQ(table.coin_bits(), 21);
  const auto shares = sampled_shares(table, 400000, 0x5eed);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    EXPECT_NEAR(shares[i], weights[i], 0.004) << "slot " << i;
  }
}

TEST(AliasTable, SamplingIsDeterministic) {
  const AliasTable table({1.0, 2.0, 3.0});
  Xoshiro256 a(11), b(11);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(table.sample(a.next()), table.sample(b.next()));
  }
}

}  // namespace
}  // namespace hmem
