// Seeded deterministic property/fuzz harness. Three properties:
//
//   1. Random INI app configs through parse -> validate -> canonical
//      round-trip: every input either yields a valid spec or throws a clean
//      std::runtime_error naming the problem ("app config: ...") — never a
//      crash, assert, or foreign exception type.
//   2. Random byte corruption (flips, truncation, insertion, deletion) of a
//      recorded binary v2 shard: the reader either drains the stream or
//      throws std::runtime_error — never UB (the CI job runs this under
//      ASan+UBSan), unbounded allocation, or a non-contract exception.
//   3. Generator parameter sweeps: every (pattern, size, seed, params)
//      triple stays in range, replays bit-identically, and covers
//      permutation/cycle patterns exactly; the alias-table sampler's
//      *implemented* distribution (implied_probability) matches the
//      cumulative-weights interpreter it replaced within the documented
//      quantization bound.
//   4. Kernel IR defect injection: random single-field mutations of valid
//      compiled-access programs either fail verify_program with a message
//      or still execute safely through the bytecode VM — the verifier is
//      the only bounds check the executors have, so a mutation that slips
//      past it into UB is exactly what this property (under the CI
//      ASan+UBSan job) exists to catch.
//   5. Truncation salvage: a checksummed binary shard cut at every chunk
//      boundary (and at random mid-chunk offsets) always salvages an
//      *exact prefix* of the original event sequence, never throws, and
//      reports the damage unless the cut fell precisely on a boundary
//      (which is indistinguishable from a short, intact shard).
//   6. Incremental prefix property: for random recorded streams (profiled
//      runs of random valid app configs, and k-way merged synthetic
//      multi-rank streams) and random cut points k, the
//      IncrementalAggregator's snapshot after the first k events equals a
//      fresh batch AggregateVisitor fed the same k events then finished —
//      every field, phase slices included.
//
// Every property runs HMEM_FUZZ_ITERS iterations (default 400; CI sets 500
// per property for >= 1000 total), seeded per iteration — a failure report
// names the iteration, and re-running reproduces it exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/aggregator.hpp"
#include "analysis/incremental.hpp"
#include "apps/app_config.hpp"
#include "apps/generator.hpp"
#include "apps/workload_gen.hpp"
#include "common/alias.hpp"
#include "common/prng.hpp"
#include "engine/execution.hpp"
#include "engine/kernel/ir.hpp"
#include "memsim/cache.hpp"
#include "trace/format.hpp"
#include "trace/merge.hpp"
#include "trace/salvage.hpp"
#include "trace/visitor.hpp"

namespace hmem {
namespace {

int fuzz_iters() {
  if (const char* env = std::getenv("HMEM_FUZZ_ITERS")) {
    const int value = std::atoi(env);
    if (value > 0) return value;
  }
  return 400;
}

// ---------------------------------------------- 1. random app configs ----

/// A config that is valid by construction: random geometry, patterns and
/// parameters, but every cross-reference resolves and every validate()
/// invariant holds.
std::string valid_config(Xoshiro256& rng) {
  std::ostringstream out;
  out << "[app]\nname = fuzz" << rng.below(4) << "\n";
  if (rng.below(2) != 0) out << "iterations = " << 1 + rng.below(40) << "\n";
  if (rng.below(2) != 0) out << "ranks = " << 1 + rng.below(8) << "\n";
  if (rng.below(3) == 0)
    out << "access_scale = " << 1 + rng.below(400) << "\n";
  const std::uint64_t n_objects = 1 + rng.below(3);
  const std::uint64_t n_phases = 1 + rng.below(2);
  for (std::uint64_t o = 0; o < n_objects; ++o) {
    out << "\n[object obj" << o << "]\n";
    out << "size = " << (1 + rng.below(64)) * 4096 << "\n";
    const char* kPatterns[] = {"seq",  "random",        "stride",
                               "zipf", "random-permute", "pointer-chase",
                               "bursty"};
    const char* pattern = kPatterns[rng.below(std::size(kPatterns))];
    out << "pattern = " << pattern << "\n";
    if (std::string(pattern) == "zipf")
      out << "zipf_alpha = 0." << 1 + rng.below(9) << rng.below(10) << "\n";
    if (rng.below(4) == 0) out << "stride_lines = " << rng.below(150) << "\n";
    if (rng.below(4) == 0) out << "burst_lines = " << 1 + rng.below(96) << "\n";
    if (rng.below(6) == 0) out << "instances = " << 1 + rng.below(4) << "\n";
    switch (rng.below(8)) {
      case 0: out << "static = true\n"; break;
      case 1: out << "churn = true\n"; break;
      case 2: out << "transient_phase = p0\n"; break;  // p0 always exists
      default: break;
    }
  }
  for (std::uint64_t p = 0; p < n_phases; ++p) {
    out << "\n[phase p" << p << "]\n";
    out << "access_share = " << (n_phases == 1 ? "1" : "0.5") << "\n";
    out << "stack_weight = 0." << rng.below(5) << "\n";
    out << "weights =";
    for (std::uint64_t o = 0; o < n_objects; ++o) {
      out << " obj" << o << ":0." << 1 + rng.below(9);
    }
    out << "\n";
  }
  return out.str();
}

/// Injects one random defect into a valid config: the reject paths a user
/// typo hits (duplicate sections, broken references, zero sizes, garbage
/// patterns) rather than wholesale noise.
std::string inject_defect(Xoshiro256& rng, std::string text) {
  switch (rng.below(7)) {
    case 0:
      return text + "\n[object obj0]\nsize = 4096\n";       // duplicate
    case 1:
      return text + "\n[phase p0]\naccess_share = 1\n";     // duplicate
    case 2:
      return text + "\n[phase extra]\naccess_share = 1\n";  // shares > 1
    case 3: {
      const auto pos = text.find("size = ");
      if (pos != std::string::npos) text.replace(pos, 9, "size = 0\n");
      return text;
    }
    case 4: {
      const auto pos = text.find("pattern = ");
      if (pos != std::string::npos) text.replace(pos + 10, 3, "zzz");
      return text;
    }
    case 5:
      return text + "\n[object ghostless]\nsize = 4096\n"
                    "transient_phase = ghost\n";            // bad reference
    default:
      return text + "\n[mystery section]\nkey = 1\n";       // unknown kind
  }
}

/// Assembles a config from hostile random fragments: well-formed material
/// with seeded defects (zero sizes, bogus patterns, duplicate sections,
/// malformed weights, stray sections) mixed freely.
std::string chaotic_config(Xoshiro256& rng) {
  const auto pick = [&](const std::vector<std::string>& options) {
    return options[rng.below(options.size())];
  };
  std::ostringstream out;
  if (rng.below(16) != 0) {
    out << "[app]\n";
    if (rng.below(16) != 0) out << "name = fuzz" << rng.below(3) << "\n";
    if (rng.below(2) != 0)
      out << "iterations = " << pick({"1", "10", "0", "-3", "junk"}) << "\n";
    if (rng.below(3) == 0)
      out << "access_scale = " << pick({"1", "250", "0.5", "nan"}) << "\n";
    if (rng.below(4) == 0) out << "ranks = " << rng.below(70) << "\n";
  }
  const std::uint64_t n_objects = rng.below(4);
  for (std::uint64_t o = 0; o < n_objects; ++o) {
    // A repeated index produces a duplicate [object] header.
    out << "\n[object obj" << rng.below(3) << "]\n";
    if (rng.below(16) != 0)
      out << "size = "
          << pick({"4096", "1M", "64K", "0", "-1", "1E", "blob", "2G"})
          << "\n";
    if (rng.below(2) != 0)
      out << "pattern = "
          << pick({"seq", "random", "stride", "random-permute", "zipf",
                   "pointer-chase", "bursty", "warp", ""})
          << "\n";
    if (rng.below(4) == 0)
      out << "zipf_alpha = " << pick({"0.8", "1", "2.5", "0", "-1", "inf"})
          << "\n";
    if (rng.below(4) == 0)
      out << "stride_lines = " << rng.below(200) << "\n";
    if (rng.below(4) == 0)
      out << "burst_lines = " << rng.below(3) * 33 << "\n";
    if (rng.below(6) == 0) out << "static = true\n";
    if (rng.below(6) == 0) out << "churn = true\n";
    if (rng.below(6) == 0)
      out << "transient_phase = " << pick({"main", "solve", "nope", "1"})
          << "\n";
  }
  const std::uint64_t n_phases = rng.below(3);
  for (std::uint64_t p = 0; p < n_phases; ++p) {
    out << "\n[phase phase" << rng.below(2) << "]\n";
    out << "access_share = "
        << pick({"1", "0.5", "0", "-0.25", "x"}) << "\n";
    if (rng.below(2) != 0) {
      out << "weights =";
      const std::uint64_t n_weights = rng.below(4);
      for (std::uint64_t w = 0; w < n_weights; ++w) {
        out << ' '
            << pick({"obj0:1", "obj1:0.5", "obj2:0.1", "ghost:1", "obj0:x",
                     "loner", ":3", "obj1:"});
      }
      out << "\n";
    }
    if (rng.below(4) == 0) out << "stack_weight = 0.2\n";
  }
  if (rng.below(8) == 0) out << "\n[mystery]\nkey = value\n";
  if (rng.below(12) == 0) out << "\nstray = outside\n";
  return out.str();
}

TEST(Fuzz, RandomConfigsParseCleanlyOrThrowCleanly) {
  const int iters = fuzz_iters();
  int accepted = 0;
  for (int i = 0; i < iters; ++i) {
    Xoshiro256 rng(0xC0FF33ULL + static_cast<std::uint64_t>(i));
    // Three populations: valid-by-construction (accept path), valid with one
    // injected defect (targeted reject paths), and fully chaotic (parser
    // robustness). The chaotic pool alone almost never satisfies the full
    // validity conjunction, which would starve the round-trip property.
    std::string text;
    switch (rng.below(3)) {
      case 0: text = valid_config(rng); break;
      case 1: text = inject_defect(rng, valid_config(rng)); break;
      default: text = chaotic_config(rng); break;
    }
    try {
      const apps::AppSpec spec = apps::from_config_text(text);
      // Accepted: must be valid and survive a canonical round-trip.
      EXPECT_EQ(apps::validate(spec), "") << "iteration " << i;
      const apps::AppSpec again =
          apps::from_config_text(apps::to_config_text(spec));
      EXPECT_TRUE(again == spec) << "iteration " << i << " config:\n" << text;
      ++accepted;
    } catch (const std::runtime_error& e) {
      // Rejected: the contract is a clean app-config/parse error. Anything
      // else (assert, bad_alloc, segfault) escapes and fails the test.
      EXPECT_NE(std::string(e.what()).find("config"), std::string::npos)
          << "iteration " << i << ": " << e.what();
    }
  }
  // The generator is tuned to exercise both paths; guard against drifting
  // into all-reject (which would silently gut the round-trip property).
  EXPECT_GT(accepted, iters / 20);
}

// ---------------------------------------------- 2. shard corruption ------

/// One small, real recording shared by every corruption iteration.
const std::string& reference_shard() {
  static const std::string shard = [] {
    apps::AppSpec app;
    app.name = "fuzz-src";
    app.fom_unit = "it/s";
    app.ranks = 1;
    app.threads_per_rank = 2;
    app.iterations = 3;
    app.accesses_per_iteration = 4000;
    app.access_scale = 2.0;
    app.objects = {
        apps::ObjectSpec{.name = "a", .size_bytes = 64ULL << 10},
        apps::ObjectSpec{.name = "b",
                         .size_bytes = 256ULL << 10,
                         .pattern = apps::AccessPattern::kRandom},
    };
    apps::PhaseSpec phase;
    phase.name = "main";
    phase.object_weights = {0.5, 0.5};
    app.phases = {phase};

    std::ostringstream out(std::ios::binary);
    callstack::SiteDb sites;
    const auto writer =
        trace::make_trace_writer(out, sites, trace::TraceFormat::kBinary);
    engine::RunOptions opts;
    opts.profile = true;
    opts.sampler.period = 5;
    opts.sites = &sites;
    opts.trace_sink = writer.get();
    (void)engine::run_app(app, opts);
    writer->finish();
    return out.str();
  }();
  return shard;
}

TEST(Fuzz, CorruptedShardsNeverEscapeTheReaderContract) {
  const std::string& reference = reference_shard();
  ASSERT_GT(reference.size(), 64u);
  const int iters = fuzz_iters();
  int survived = 0, rejected = 0;
  for (int i = 0; i < iters; ++i) {
    Xoshiro256 rng(0xBADC0DEULL + static_cast<std::uint64_t>(i));
    std::string shard = reference;
    switch (rng.below(4)) {
      case 0:  // flip 1-8 bytes anywhere (header, tables, events)
        for (std::uint64_t f = rng.below(8) + 1; f > 0; --f) {
          shard[rng.below(shard.size())] ^=
              static_cast<char>(rng.below(255) + 1);
        }
        break;
      case 1:  // truncate mid-stream
        shard.resize(rng.below(shard.size()));
        break;
      case 2:  // insert a random byte (shifts every later field)
        shard.insert(shard.begin() + static_cast<std::ptrdiff_t>(
                                         rng.below(shard.size())),
                     static_cast<char>(rng.below(256)));
        break;
      default:  // delete a byte
        shard.erase(rng.below(shard.size()), 1);
        break;
    }
    try {
      std::istringstream in(shard, std::ios::binary);
      callstack::SiteDb sites;
      const auto reader = trace::open_trace_reader(in, sites);
      trace::Event event;
      std::size_t events = 0;
      while (reader->next(event)) ++events;
      ++survived;  // corruption landed in a don't-care byte — also fine
    } catch (const std::runtime_error&) {
      ++rejected;  // the contract: malformed input throws, never UB
    }
  }
  // Random single-byte damage to a delta-coded stream must usually be
  // detected; all-survive would mean the checks are not running at all.
  EXPECT_GT(rejected, 0) << "no corruption was ever detected across "
                         << iters << " iterations";
  (void)survived;
}

// ------------------------------- 3. generator sweeps + alias oracle ------

TEST(Fuzz, GeneratorSweepsStayInRangeAndReplayExactly) {
  const int iters = fuzz_iters();
  for (int i = 0; i < iters; ++i) {
    Xoshiro256 rng(0x5EEDULL + static_cast<std::uint64_t>(i));
    apps::ObjectSpec object;
    object.name = "fuzzed";
    const std::uint64_t lines = rng.below(5000) + 1;
    object.size_bytes = lines * 64 - rng.below(64);  // exercise rounding
    constexpr apps::AccessPattern kPatterns[] = {
        apps::AccessPattern::kStream,        apps::AccessPattern::kRandom,
        apps::AccessPattern::kStrided,       apps::AccessPattern::kRandomPermute,
        apps::AccessPattern::kZipf,          apps::AccessPattern::kPointerChase,
        apps::AccessPattern::kBursty};
    object.pattern = kPatterns[rng.below(std::size(kPatterns))];
    object.zipf_alpha = 0.05 + static_cast<double>(rng.below(300)) / 100.0;
    object.stride_lines = rng.below(200);
    object.burst_lines = rng.below(128) + 1;
    const std::uint64_t seed = rng.next();

    const auto gen = apps::make_workload_gen(object, lines, seed);
    const auto replay = apps::make_workload_gen(object, lines, seed);
    const std::uint64_t draws = std::min<std::uint64_t>(4 * lines, 512);
    std::vector<std::uint64_t> stream;
    stream.reserve(draws);
    for (std::uint64_t d = 0; d < draws; ++d) {
      const std::uint64_t line = gen->next_line();
      ASSERT_LT(line, lines) << "iteration " << i;
      ASSERT_EQ(line, replay->next_line())
          << "iteration " << i << ": same (pattern,size,seed) diverged";
      stream.push_back(line);
    }

    // Table-backed patterns visit every line exactly once per cycle.
    if ((object.pattern == apps::AccessPattern::kRandomPermute ||
         object.pattern == apps::AccessPattern::kPointerChase) &&
        draws >= lines) {
      std::vector<int> visits(lines, 0);
      for (std::uint64_t d = 0; d < lines; ++d) ++visits[stream[d]];
      for (std::uint64_t l = 0; l < lines; ++l) {
        ASSERT_EQ(visits[l], 1) << "iteration " << i << " line " << l;
      }
    }
  }
}

TEST(Fuzz, AliasTableMatchesCumulativeInterpreterWithinQuantization) {
  const int iters = fuzz_iters();
  for (int i = 0; i < iters; ++i) {
    Xoshiro256 rng(0xA11A5ULL + static_cast<std::uint64_t>(i));
    const std::size_t n = rng.below(64) + 1;
    std::vector<double> weights(n);
    double total = 0;
    for (auto& w : weights) {
      // Mix of zero, small and large weights; at least one positive below.
      const std::uint64_t kind = rng.below(4);
      w = kind == 0 ? 0.0
                    : static_cast<double>(rng.below(1000) + 1) *
                          (kind == 3 ? 1e-6 : 1.0);
      total += w;
    }
    if (total == 0) {
      weights[rng.below(n)] = 1.0;
      total = 1.0;
    }
    constexpr int kCoinBits[] = {8, 16, 21, 32};
    const int coin_bits = kCoinBits[rng.below(std::size(kCoinBits))];
    const AliasTable table(weights, coin_bits);

    // The cumulative-weights interpreter the alias table replaced assigns
    // slot i probability w[i]/total exactly. The table quantizes each
    // column's coin threshold to 2^-coin_bits and a slot collects error
    // from every column aliasing to it, so the bound scales with n (plus
    // the 2^-32 column-pick granularity).
    const double bound = static_cast<double>(n + 1) *
                             std::ldexp(1.0, -coin_bits) +
                         static_cast<double>(n) * std::ldexp(1.0, -32) +
                         1e-9;
    double implied_total = 0;
    for (std::size_t s = 0; s < n; ++s) {
      const double implied = table.implied_probability(s);
      implied_total += implied;
      const double reference = weights[s] / total;
      EXPECT_NEAR(implied, reference, bound)
          << "iteration " << i << " slot " << s << " of " << n << " (coin "
          << coin_bits << ")";
      if (weights[s] == 0) {
        EXPECT_EQ(implied, 0.0)
            << "iteration " << i << ": zero-weight slot is reachable";
      }
    }
    EXPECT_NEAR(implied_total, 1.0, 1e-9) << "iteration " << i;
  }
}

// ------------------------------------ 4. kernel IR defect injection ------

/// A random valid kernel program plus the generators keeping its gens
/// pointers alive. Thresholds/aliases need not form a true distribution —
/// the property is structural safety, not statistics.
struct FuzzKernelProgram {
  engine::kernel::Program p;
  std::vector<std::unique_ptr<apps::AccessGenerator>> owned_gens;

  /// Adds a generator of a random pattern — inline (seq, stride, random,
  /// random-permute) or call-out — and returns its offset op.
  engine::kernel::Insn add_gen(Xoshiro256& rng, std::uint64_t size_bytes) {
    constexpr apps::AccessPattern kPatterns[] = {
        apps::AccessPattern::kStream,       apps::AccessPattern::kStrided,
        apps::AccessPattern::kRandom,       apps::AccessPattern::kRandomPermute,
        apps::AccessPattern::kZipf,         apps::AccessPattern::kPointerChase,
        apps::AccessPattern::kBursty};
    apps::ObjectSpec spec;
    spec.name = "fuzz";
    spec.size_bytes = size_bytes;
    spec.pattern = kPatterns[rng.below(std::size(kPatterns))];
    spec.stride_lines = rng.below(600);
    owned_gens.push_back(
        std::make_unique<apps::AccessGenerator>(spec, rng.next()));
    engine::kernel::Insn off;
    off.op = engine::kernel::offset_op(*owned_gens.back());
    off.a = static_cast<std::uint32_t>(p.gens.size());
    off.imm0 = size_bytes;
    p.gens.push_back(owned_gens.back().get());
    return off;
  }
};

FuzzKernelProgram random_kernel_program(Xoshiro256& rng) {
  using engine::kernel::Insn;
  using engine::kernel::InstanceSlot;
  using engine::kernel::Op;
  FuzzKernelProgram out;
  engine::kernel::Program& p = out.p;
  const std::size_t n = rng.below(6) + 1;
  constexpr int kCoinBits[] = {1, 8, 16, 21};
  p.coin_mask = (1ULL << kCoinBits[rng.below(std::size(kCoinBits))]) - 1;
  p.write_shift = 40 + rng.below(24);  // [40, 64)
  p.write_threshold = rng.below((1ULL << (64 - p.write_shift)) + 1);
  p.n_tiers = static_cast<std::uint32_t>(rng.below(3) + 1);
  p.llc_latency_ns = 5.0 + static_cast<double>(rng.below(20));
  for (std::size_t s = 0; s < n; ++s) {
    p.threshold.push_back(rng.below(p.coin_mask + 2));
    p.alias.push_back(static_cast<std::uint32_t>(rng.below(n)));
  }
  for (std::size_t s = 0; s < n; ++s) {
    p.block_start.push_back(static_cast<std::uint32_t>(p.code.size()));
    const std::uint64_t tier = rng.below(p.n_tiers);
    const double latency = 80.0 + static_cast<double>(rng.below(200));
    switch (rng.below(3)) {
      case 0: {  // stack block
        Insn stack;
        stack.op = Op::kStackAddr;
        stack.imm0 = (rng.below(1024) + 1) << 12;
        stack.imm1 = rng.below(256) + 1;
        Insn serve;
        serve.op = Op::kServeFixed;
        serve.a = static_cast<std::uint32_t>(tier);
        serve.f = latency;
        p.code.push_back(stack);
        p.code.push_back(serve);
        break;
      }
      case 1: {  // single-instance object block
        Insn fixed;
        fixed.op = Op::kFixedAddr;
        fixed.imm0 = (rng.below(4096) + 1) << 12;
        const Insn gen = out.add_gen(rng, (rng.below(512) + 1) * 64);
        Insn serve;
        serve.op = Op::kServeFixed;
        serve.a = static_cast<std::uint32_t>(tier);
        serve.f = latency;
        p.code.push_back(fixed);
        p.code.push_back(gen);
        p.code.push_back(serve);
        break;
      }
      default: {  // multi-instance pick block
        const std::uint64_t count = rng.below(4) + 2;
        Insn pick;
        pick.op = Op::kPickAddr;
        pick.imm0 = p.instances.size();
        pick.a = static_cast<std::uint32_t>(count);
        for (std::uint64_t i = 0; i < count; ++i) {
          InstanceSlot slot;
          slot.base = (rng.below(4096) + 1) << 12;
          slot.latency_ns = latency;
          slot.tier = rng.below(p.n_tiers);
          p.instances.push_back(slot);
        }
        const Insn gen = out.add_gen(rng, (rng.below(512) + 1) * 64);
        Insn serve;
        serve.op = Op::kServePicked;
        p.code.push_back(pick);
        p.code.push_back(gen);
        p.code.push_back(serve);
        break;
      }
    }
  }
  return out;
}

/// One random single-point mutation: indices, masks, shifts, op codes and
/// immediates each get hit, with values biased toward boundaries.
void mutate_kernel_program(Xoshiro256& rng, engine::kernel::Program& p) {
  const auto wild = [&]() -> std::uint64_t {
    switch (rng.below(4)) {
      case 0: return 0;
      case 1: return rng.below(8);
      case 2: return rng.below(1ULL << 32);
      default: return rng.next();
    }
  };
  switch (rng.below(13)) {
    case 0:
      p.threshold[rng.below(p.threshold.size())] = wild();
      break;
    case 1:
      p.alias[rng.below(p.alias.size())] =
          static_cast<std::uint32_t>(wild());
      break;
    case 2:
      p.coin_mask = wild();
      break;
    case 3:
      p.write_threshold = wild();
      break;
    case 4:
      p.write_shift = wild();
      break;
    case 5:
      p.n_tiers = static_cast<std::uint32_t>(wild());
      break;
    case 6:
      p.block_start[rng.below(p.block_start.size())] =
          static_cast<std::uint32_t>(wild());
      break;
    case 7:
      // An earlier mutation in the same round may have emptied `code`.
      if (!p.code.empty()) {
        p.code[rng.below(p.code.size())].op =
            static_cast<engine::kernel::Op>(rng.below(12));
      }
      break;
    case 8:
      if (!p.code.empty()) {
        engine::kernel::Insn& in = p.code[rng.below(p.code.size())];
        switch (rng.below(3)) {
          case 0: in.a = static_cast<std::uint32_t>(wild()); break;
          case 1: in.imm0 = wild(); break;
          default: in.imm1 = wild(); break;
        }
      }
      break;
    case 9:
      if (!p.instances.empty()) {
        p.instances[rng.below(p.instances.size())].tier = wild();
      }
      break;
    case 10:
      if (!p.gens.empty()) p.gens[rng.below(p.gens.size())] = nullptr;
      break;
    case 11: {
      // The inline generator state the offset ops step in place: zero
      // lines, a stride or position at or past the line count. (A permute
      // table's length is the generator's own allocation, so its line
      // count is only ever shrunk to zero here.)
      if (p.gens.empty()) break;
      const apps::AccessGenerator* gen = p.gens[rng.below(p.gens.size())];
      if (gen == nullptr) break;
      const apps::InlineGen& state = gen->inline_state();
      if (state.walk != nullptr) {
        switch (rng.below(3)) {
          case 0: state.walk->lines = wild(); break;
          case 1: state.walk->stride = state.walk->lines + rng.below(3); break;
          default: state.walk->position = wild(); break;
        }
      } else if (state.random != nullptr) {
        state.random->lines = wild();
      } else if (state.permute != nullptr) {
        if (rng.below(2) == 0) {
          state.permute->lines = 0;
        } else {
          state.permute->position = state.permute->lines + rng.below(3);
        }
      }
      break;
    }
    default:
      p.code.resize(rng.below(p.code.size() + 1));
      break;
  }
}

/// True when a set's recency word is well formed against its tag row: each of
/// the ways 0..ways-1 sits in the low `ways` nibbles exactly once, nothing
/// sits above them, and the still-empty ways are the least-recent ones in
/// ascending id order (an empty way is only ever reached by evict()).
bool recency_word_consistent(std::uint64_t order, const std::uint32_t* row,
                             std::uint32_t ways) {
  std::uint32_t seen = 0;
  std::uint64_t empty_seen = 0;
  bool valid_seen = false;
  for (std::uint64_t n = 0; n < ways; ++n) {
    const std::uint64_t way = (order >> (4 * n)) & 0xF;
    if (way >= ways) return false;
    seen |= 1u << way;
    if (memsim::Cache::way_tag(row, ways, static_cast<std::uint32_t>(way)) ==
        memsim::Cache::kInvalidTag) {
      if (valid_seen || way < empty_seen) return false;
      empty_seen = way + 1;
    } else {
      valid_seen = true;
    }
  }
  const std::uint64_t above = ways == 16 ? 0 : order >> (4 * ways);
  return seen == (1u << ways) - 1 && above == 0;
}

TEST(Fuzz, MutatedKernelProgramsAreRejectedOrRunSafely) {
  using engine::kernel::Frame;
  const int iters = fuzz_iters();
  int rejected = 0, executed = 0;
  for (int i = 0; i < iters; ++i) {
    Xoshiro256 rng(0x12E4ULL + static_cast<std::uint64_t>(i));
    FuzzKernelProgram fuzz = random_kernel_program(rng);
    ASSERT_EQ(engine::kernel::verify_program(fuzz.p), "")
        << "iteration " << i << ": generator produced an invalid program";
    for (std::uint64_t m = rng.below(3) + 1; m > 0; --m) {
      mutate_kernel_program(rng, fuzz.p);
    }
    const std::string problem = engine::kernel::verify_program(fuzz.p);
    if (!problem.empty()) {
      ++rejected;  // the contract: a message, never a crash
      continue;
    }
    // The verifier accepted the mutant, so executing it must be safe: the
    // VM runs with no per-access bounds checks, trusting exactly what the
    // verifier established. ASan/UBSan (the CI fuzz job) police this.
    // (A frame needs one accumulator per tier, so an absurdly inflated
    // n_tiers — valid but unexecutable within test memory — is skipped.)
    if (fuzz.p.n_tiers > 4096) continue;
    const std::uint64_t sets = 1ULL << rng.below(5);
    const auto ways = static_cast<std::uint32_t>(rng.below(4) + 1);
    std::vector<std::uint32_t> tags(sets * 2 * ways,
                                    memsim::Cache::kInvalidTagHalf);
    std::vector<std::uint64_t> order(sets,
                                     memsim::Cache::initial_order(ways));
    std::vector<std::uint64_t> tier_sim(fuzz.p.n_tiers, 0);
    Frame frame;
    frame.n_accesses = 128;
    frame.tier_sim = tier_sim.data();
    frame.tags = tags.data();
    frame.order = order.data();
    frame.ways = ways;
    frame.line_shift = 6;
    frame.set_mask = sets - 1;
    Xoshiro256 access_rng(0xACCE55ULL + static_cast<std::uint64_t>(i));
    std::vector<engine::kernel::MissRecord> records(frame.n_accesses);
    const bool profiled = rng.below(2) != 0;
    if (profiled) frame.miss_out = records.data();
    engine::kernel::run_bytecode(fuzz.p, frame, access_rng);
    // Every step keeps the generator state the verifier accepted valid.
    EXPECT_EQ(engine::kernel::verify_program(fuzz.p), "")
        << "iteration " << i;
    // Profiled: one record per miss, in access order.
    for (std::uint64_t r = 0; profiled && r < frame.misses; ++r) {
      EXPECT_LT(records[r].order, frame.n_accesses) << "iteration " << i;
      if (r > 0) {
        EXPECT_LT(records[r - 1].order, records[r].order) << "iteration " << i;
      }
    }
    // Every set's recency word must still order exactly its own ways, and
    // every filled way must be paid for by a miss.
    std::uint64_t filled = 0;
    for (std::uint64_t s = 0; s < sets; ++s) {
      const std::uint32_t* row = &tags[s * 2 * ways];
      EXPECT_TRUE(recency_word_consistent(order[s], row, ways))
          << "iteration " << i << " set " << s;
      for (std::uint32_t w = 0; w < ways; ++w) {
        filled += memsim::Cache::way_tag(row, ways, w) !=
                  memsim::Cache::kInvalidTag;
      }
    }
    EXPECT_LE(filled, frame.misses) << "iteration " << i;
    EXPECT_LE(frame.misses, 128u) << "iteration " << i;
    ++executed;
  }
  // Both arms must stay populated or the property degenerates.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(executed, 0);
}

// ---------------------------------- 5. salvage truncation property -------

TEST(Fuzz, TruncatedShardsSalvageAnExactPrefix) {
  // A multi-chunk checksummed shard of synthetic samples. tellp snapshots
  // after each event expose the writer's flush points — the chunk
  // boundaries a truncation can legally land on.
  constexpr std::size_t kEvents = 3 * 4096 + 57;
  std::ostringstream out(std::ios::binary);
  callstack::SiteDb sites;
  std::vector<std::size_t> boundaries = {0};
  {
    trace::WriterOptions options;
    options.checksums = true;
    const auto writer = trace::make_trace_writer(
        out, sites, trace::TraceFormat::kBinary, options);
    boundaries.push_back(static_cast<std::size_t>(out.tellp()));
    Xoshiro256 rng(0x7A0BCULL);
    double time_ns = 0;
    std::size_t last = boundaries.back();
    for (std::size_t e = 0; e < kEvents; ++e) {
      time_ns += static_cast<double>(rng.below(50));
      trace::SampleEvent sample;
      sample.time_ns = time_ns;
      sample.addr = 0x10000 + rng.below(1ULL << 20) * 64;
      sample.is_write = rng.below(4) == 0;
      sample.weight = 1 + rng.below(8);
      writer->on_event(sample);
      const auto now = static_cast<std::size_t>(out.tellp());
      if (now != last) {
        boundaries.push_back(now);
        last = now;
      }
    }
    writer->finish();
    boundaries.push_back(static_cast<std::size_t>(out.tellp()));
  }
  const std::string shard = out.str();
  const auto is_boundary = [&](std::size_t cut) {
    return std::find(boundaries.begin(), boundaries.end(), cut) !=
           boundaries.end();
  };

  // Oracle: the intact shard, decoded strictly.
  std::vector<trace::Event> full;
  {
    std::istringstream in(shard, std::ios::binary);
    callstack::SiteDb oracle_sites;
    const auto reader = trace::open_trace_reader(in, oracle_sites);
    trace::Event event;
    while (reader->next(event)) full.push_back(event);
  }
  ASSERT_EQ(full.size(), kEvents);

  int clean_short = 0, damaged = 0;
  const auto check_cut = [&](std::size_t cut) {
    std::istringstream in(shard.substr(0, cut), std::ios::binary);
    callstack::SiteDb cut_sites;
    trace::ReaderOptions options;
    options.source = "fuzz-cut";
    trace::RecoveringTraceReader reader(in, cut_sites, options);
    trace::Event event;
    std::size_t n = 0;
    while (reader.next(event)) {
      ASSERT_LT(n, full.size()) << "cut " << cut;
      ASSERT_TRUE(event == full[n])
          << "cut " << cut << ": event " << n << " is not the original";
      ++n;
    }
    if (cut >= shard.size()) {
      EXPECT_EQ(n, full.size());
      EXPECT_TRUE(reader.report().clean());
    } else if (n < full.size() && reader.report().clean()) {
      // Silent loss is permitted only when the cut fell exactly on a
      // chunk boundary — a prefix indistinguishable from a short shard.
      EXPECT_TRUE(is_boundary(cut))
          << "cut " << cut << " lost " << (full.size() - n)
          << " event(s) without any salvage incident";
      ++clean_short;
    } else if (!reader.report().clean()) {
      ++damaged;
    }
  };

  for (const std::size_t cut : boundaries) {
    check_cut(cut);
    if (cut > 0) check_cut(cut - 1);
    if (cut + 1 < shard.size()) check_cut(cut + 1);
  }
  Xoshiro256 rng(0x5A1CA6EULL);
  const int iters = fuzz_iters();
  for (int i = 0; i < iters; ++i) {
    check_cut(rng.below(shard.size() + 1));
  }
  // Both arms must appear across the sweep: boundary cuts read as clean
  // short shards, mid-chunk cuts as reported damage.
  EXPECT_GT(clean_short, 0);
  EXPECT_GT(damaged, 0);
}

// ------------------------------- 6. incremental prefix property ----------

/// Every-field equality of batch vs incremental aggregation, phase slices
/// included (the incremental convergence contract covers them).
void expect_same_aggregate(const analysis::AggregateResult& batch,
                           const analysis::AggregateResult& inc,
                           const std::string& label) {
  EXPECT_EQ(batch.total_samples, inc.total_samples) << label;
  EXPECT_EQ(batch.total_weighted_misses, inc.total_weighted_misses) << label;
  EXPECT_EQ(batch.unattributed_samples, inc.unattributed_samples) << label;
  EXPECT_EQ(batch.unattributed_misses, inc.unattributed_misses) << label;
  ASSERT_EQ(batch.objects.size(), inc.objects.size()) << label;
  for (std::size_t i = 0; i < batch.objects.size(); ++i) {
    EXPECT_EQ(batch.objects[i].site, inc.objects[i].site) << label;
    EXPECT_EQ(batch.objects[i].name, inc.objects[i].name) << label;
    EXPECT_EQ(batch.objects[i].max_size_bytes, inc.objects[i].max_size_bytes)
        << label;
    EXPECT_EQ(batch.objects[i].llc_misses, inc.objects[i].llc_misses)
        << label;
    EXPECT_EQ(batch.objects[i].is_dynamic, inc.objects[i].is_dynamic)
        << label;
  }
  ASSERT_EQ(batch.phases.size(), inc.phases.size()) << label;
  for (std::size_t p = 0; p < batch.phases.size(); ++p) {
    EXPECT_EQ(batch.phases[p].name, inc.phases[p].name) << label;
    ASSERT_EQ(batch.phases[p].objects.size(), inc.phases[p].objects.size())
        << label << " phase " << batch.phases[p].name;
    for (std::size_t i = 0; i < batch.phases[p].objects.size(); ++i) {
      EXPECT_EQ(batch.phases[p].objects[i].site,
                inc.phases[p].objects[i].site)
          << label << " phase " << batch.phases[p].name;
      EXPECT_EQ(batch.phases[p].objects[i].llc_misses,
                inc.phases[p].objects[i].llc_misses)
          << label << " phase " << batch.phases[p].name;
    }
  }
}

/// The property itself: random ascending cuts over one event sequence. The
/// incremental aggregator is fed once, forward; each cut re-runs a fresh
/// batch visitor over the prefix — the oracle never sees the suffix.
void check_prefix_property(const std::vector<trace::Event>& events,
                           const callstack::SiteDb& sites, Xoshiro256& rng,
                           const std::string& label) {
  std::vector<std::size_t> cuts;
  for (int c = 0; c < 3; ++c) cuts.push_back(rng.below(events.size() + 1));
  cuts.push_back(events.size());  // always include full convergence
  std::sort(cuts.begin(), cuts.end());

  analysis::IncrementalAggregator inc(sites);
  std::size_t fed = 0;
  for (const std::size_t cut : cuts) {
    for (; fed < cut; ++fed) trace::dispatch_event(events[fed], inc);
    analysis::AggregateVisitor batch(sites);
    for (std::size_t i = 0; i < cut; ++i) {
      trace::dispatch_event(events[i], batch);
    }
    expect_same_aggregate(batch.finish(), inc.snapshot(),
                          label + " cut " + std::to_string(cut));
  }
}

TEST(Fuzz, IncrementalPrefixMatchesBatchOnRandomRecordedStreams) {
  // Profiled runs are the expensive part; a handful of random apps with a
  // few random cuts each still exercises every accumulator path.
  const int iters = std::max(4, fuzz_iters() / 25);
  for (int i = 0; i < iters; ++i) {
    Xoshiro256 rng(0x14C0ULL + static_cast<std::uint64_t>(i));
    apps::AppSpec app = apps::from_config_text(valid_config(rng));
    app.ranks = 1;
    app.iterations = 1 + rng.below(3);
    app.accesses_per_iteration = 2000 + rng.below(4000);
    engine::RunOptions opts;
    opts.profile = true;
    opts.sampler.period = 50 + rng.below(200);
    opts.seed = rng.next();
    const engine::RunResult run = engine::run_app(app, opts);
    ASSERT_NE(run.trace, nullptr);
    check_prefix_property(run.trace->events(), *run.sites, rng,
                          "app " + app.name + " iter " + std::to_string(i));
  }
}

TEST(Fuzz, IncrementalPrefixMatchesBatchOnMergedMultiRankStreams) {
  // Synthetic per-rank shards k-way merged by timestamp: overlapping phase
  // begin/end interleavings across ranks are exactly the regime where the
  // open-phase stack rules are easiest to get subtly wrong.
  const int iters = std::max(8, fuzz_iters() / 10);
  for (int i = 0; i < iters; ++i) {
    Xoshiro256 rng(0xD157ULL * 65537 + static_cast<std::uint64_t>(i));
    callstack::SiteDb sites;
    const std::size_t ranks = 2 + rng.below(2);
    std::vector<trace::TraceBuffer> shards(ranks);
    const char* kPhases[] = {"build", "solve", "refine"};
    for (std::size_t r = 0; r < ranks; ++r) {
      double t = static_cast<double>(rng.below(50));
      // Per-rank allocations in globally disjoint 1 MiB slots (the live
      // registry rejects overlapping allocations, as the real profiler
      // never produces them).
      std::vector<trace::Address> bases;
      const std::size_t objects = 1 + rng.below(3);
      for (std::size_t o = 0; o < objects; ++o) {
        callstack::SymbolicCallStack stack;
        stack.frames.push_back(callstack::CodeLocation{
            "fuzz.x", "alloc_" + std::to_string(o % 2),
            static_cast<std::uint32_t>(10 + o)});
        const auto site = sites.intern("obj" + std::to_string(o), stack);
        const trace::Address base =
            0x100000 + (static_cast<trace::Address>(r * 8 + o) << 20);
        const std::uint64_t size = 4096 * (1 + rng.below(16));
        shards[r].add(trace::AllocEvent{t, site, base, size});
        bases.push_back(base);
        t += 1 + static_cast<double>(rng.below(5));
      }
      std::size_t open = 0;
      const std::size_t samples = 50 + rng.below(200);
      for (std::size_t s = 0; s < samples; ++s) {
        switch (rng.below(12)) {
          case 0:  // open a phase (possibly the same name as a peer rank's)
            shards[r].add(trace::PhaseEvent{
                t, kPhases[rng.below(std::size(kPhases))], true});
            ++open;
            break;
          case 1:  // close one (sometimes unmatched — must be ignored)
            shards[r].add(trace::PhaseEvent{
                t, kPhases[rng.below(std::size(kPhases))], false});
            open = open > 0 ? open - 1 : 0;
            break;
          case 2:  // a sample no live object owns (unattributed path)
            shards[r].add(trace::SampleEvent{t, 0xDEAD0000 + rng.below(256),
                                             false, 1 + rng.below(8)});
            break;
          default: {
            const trace::Address base = bases[rng.below(bases.size())];
            shards[r].add(trace::SampleEvent{t, base + rng.below(4096),
                                             rng.below(4) == 0,
                                             1 + rng.below(8)});
            break;
          }
        }
        t += static_cast<double>(rng.below(4));
      }
    }
    std::vector<std::unique_ptr<trace::TraceReader>> inputs;
    for (const auto& shard : shards) {
      inputs.push_back(std::make_unique<trace::BufferTraceReader>(shard));
    }
    trace::MergeTraceReader merged(std::move(inputs));
    std::vector<trace::Event> events;
    trace::Event event;
    while (merged.next(event)) events.push_back(event);
    check_prefix_property(events, sites, rng,
                          "merged iter " + std::to_string(i));
  }
}

}  // namespace
}  // namespace hmem
