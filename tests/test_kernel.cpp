// The compiled access kernels (engine/kernel/): selection ladder, IR
// verifier, W^X executable allocator, and — the load-bearing property —
// differential bit-identity of every backend against the interpreter
// oracle across the bundled workloads, machine presets and placement
// conditions. The kernels exist purely as a faster execution strategy for
// the same semantics; any observable divergence is a bug here, never a
// tolerance.
#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/generator.hpp"
#include "apps/workloads.hpp"
#include "common/exec_alloc.hpp"
#include "engine/execution.hpp"
#include "engine/kernel/ir.hpp"
#include "engine/kernel/kernel.hpp"
#include "engine/kernel/native.hpp"
#include "engine/pipeline.hpp"
#include "memsim/machine.hpp"
#include "pebs/sampler.hpp"
#include "trace/format.hpp"

namespace hmem {
namespace {

using engine::kernel::KernelKind;

// ---- selection ladder ------------------------------------------------------

TEST(KernelSelect, ParseAndNameRoundTrip) {
  for (const char* name : {"auto", "interp", "bytecode", "native"}) {
    const auto kind = engine::kernel::parse_kernel(name);
    ASSERT_TRUE(kind.has_value()) << name;
    EXPECT_STREQ(engine::kernel::kernel_name(*kind), name);
  }
  EXPECT_FALSE(engine::kernel::parse_kernel("jit").has_value());
  EXPECT_FALSE(engine::kernel::parse_kernel("").has_value());
  EXPECT_FALSE(engine::kernel::parse_kernel("Native").has_value());
  EXPECT_NE(engine::kernel::kernel_list().find("bytecode"),
            std::string::npos);
}

TEST(KernelSelect, LadderNeverFailsAndNeverReturnsAuto) {
  unsetenv("HMEM_KERNEL");
  // auto defaults to the fastest backend the host passes the self-test
  // for; interp is always honoured.
  const KernelKind fastest = engine::kernel::native_available()
                                 ? KernelKind::kNative
                                 : KernelKind::kBytecode;
  EXPECT_EQ(engine::kernel::resolve_kernel(KernelKind::kAuto, false, false),
            fastest);
  EXPECT_EQ(engine::kernel::resolve_kernel(KernelKind::kInterp, false, false),
            KernelKind::kInterp);
  // Cache mode runs the interpreter regardless of the request.
  for (const KernelKind k : {KernelKind::kAuto, KernelKind::kInterp,
                             KernelKind::kBytecode, KernelKind::kNative}) {
    EXPECT_EQ(engine::kernel::resolve_kernel(k, true, false),
              KernelKind::kInterp);
  }
  // Profiling never changes the rung: both compiled backends write miss
  // records, so a profiled request resolves exactly like an unprofiled one.
  for (const KernelKind k : {KernelKind::kAuto, KernelKind::kInterp,
                             KernelKind::kBytecode, KernelKind::kNative}) {
    for (const bool cache_mode : {false, true}) {
      EXPECT_EQ(engine::kernel::resolve_kernel(k, cache_mode, true),
                engine::kernel::resolve_kernel(k, cache_mode));
    }
  }
  // With no fault armed, the side-effect-free selection is the ladder.
  for (const KernelKind k : {KernelKind::kAuto, KernelKind::kInterp,
                             KernelKind::kBytecode, KernelKind::kNative}) {
    for (const bool cache_mode : {false, true}) {
      EXPECT_EQ(engine::kernel::select_kernel(k, cache_mode),
                engine::kernel::resolve_kernel(k, cache_mode));
    }
  }
  // An explicit native request degrades to bytecode when the backend is
  // compiled out or the host refuses executable pages — never an error.
  const KernelKind native =
      engine::kernel::resolve_kernel(KernelKind::kNative, false, false);
  if (engine::kernel::native_available()) {
    EXPECT_EQ(native, KernelKind::kNative);
  } else {
    EXPECT_EQ(native, KernelKind::kBytecode);
  }
}

TEST(KernelSelect, EnvVarSteersAutoOnly) {
  setenv("HMEM_KERNEL", "interp", 1);
  EXPECT_EQ(engine::kernel::resolve_kernel(KernelKind::kAuto, false, false),
            KernelKind::kInterp);
  // Explicit requests ignore the env var.
  EXPECT_EQ(
      engine::kernel::resolve_kernel(KernelKind::kBytecode, false, false),
      KernelKind::kBytecode);
  // A typo'd value keeps the default instead of aborting the run.
  const KernelKind fastest = engine::kernel::native_available()
                                 ? KernelKind::kNative
                                 : KernelKind::kBytecode;
  setenv("HMEM_KERNEL", "turbo", 1);
  EXPECT_EQ(engine::kernel::resolve_kernel(KernelKind::kAuto, false, false),
            fastest);
  // "auto" in the env cannot recurse.
  setenv("HMEM_KERNEL", "auto", 1);
  EXPECT_EQ(engine::kernel::resolve_kernel(KernelKind::kAuto, false, false),
            fastest);
  // The env var can still pin the portable VM.
  setenv("HMEM_KERNEL", "bytecode", 1);
  EXPECT_EQ(engine::kernel::resolve_kernel(KernelKind::kAuto, false, false),
            KernelKind::kBytecode);
  unsetenv("HMEM_KERNEL");
}

// ---- IR verifier -----------------------------------------------------------

/// A minimal valid two-slot program (two stack blocks), no machine needed.
engine::kernel::Program valid_program() {
  using engine::kernel::Insn;
  using engine::kernel::Op;
  engine::kernel::Program p;
  p.threshold = {1, 2};
  p.alias = {1, 0};
  p.coin_mask = 1;
  p.write_threshold = 512;
  p.write_shift = 53;
  p.n_tiers = 2;
  p.llc_latency_ns = 10.0;
  Insn stack0;
  stack0.op = Op::kStackAddr;
  stack0.imm0 = 1ULL << 16;
  stack0.imm1 = 96;
  Insn serve0;
  serve0.op = Op::kServeFixed;
  serve0.a = 0;
  serve0.f = 130.0;
  Insn stack1 = stack0;
  stack1.imm0 = 1ULL << 30;
  stack1.imm1 = 64;
  Insn serve1 = serve0;
  serve1.a = 1;
  serve1.f = 155.0;
  p.code = {stack0, serve0, stack1, serve1};
  p.block_start = {0, 2};
  return p;
}

TEST(KernelVerifier, AcceptsTheValidProgram) {
  EXPECT_EQ(engine::kernel::verify_program(valid_program()), "");
}

TEST(KernelVerifier, RejectsEveryStructuralDefect) {
  using engine::kernel::Op;
  using engine::kernel::Program;
  const Program good = valid_program();
  const auto reject = [](Program p, const char* what) {
    const std::string problem = engine::kernel::verify_program(p);
    EXPECT_FALSE(problem.empty()) << "defect not caught: " << what;
  };
  reject(Program{}, "empty program");
  {
    Program p = good;
    p.alias.pop_back();
    reject(p, "threshold/alias size mismatch");
  }
  {
    Program p = good;
    p.block_start.pop_back();
    reject(p, "missing block");
  }
  {
    Program p = good;
    p.coin_mask = 2;  // not a low-bit mask
    reject(p, "bad coin mask");
  }
  {
    Program p = good;
    p.write_shift = 64;
    reject(p, "write shift out of range");
  }
  {
    Program p = good;
    p.write_threshold = 1ULL << 12;  // > 2^(64-53)
    reject(p, "write threshold above coin range");
  }
  {
    Program p = good;
    p.n_tiers = 0;
    reject(p, "no tiers");
  }
  {
    Program p = good;
    p.threshold[0] = 3;  // > coin_mask + 1
    reject(p, "threshold above coin range");
  }
  {
    Program p = good;
    p.alias[1] = 9;
    reject(p, "alias column out of range");
  }
  {
    Program p = good;
    p.block_start[1] = 99;
    reject(p, "block start out of range");
  }
  {
    Program p = good;
    p.block_start[1] = 3;  // starts at a serve op
    reject(p, "block starts mid-block");
  }
  {
    Program p = good;
    p.code[0].imm1 = 0;
    reject(p, "stack with zero lines");
  }
  {
    Program p = good;
    p.code[1].op = Op::kServePicked;
    reject(p, "stack block must end in serve_fixed");
  }
  {
    Program p = good;
    p.code[1].a = 7;
    reject(p, "serve tier out of range");
  }
  {
    Program p = good;
    p.code.resize(3);  // truncates slot 1's serve
    reject(p, "truncated block");
  }
}

TEST(KernelVerifier, RejectsObjectBlockDefects) {
  using engine::kernel::Insn;
  using engine::kernel::InstanceSlot;
  using engine::kernel::Op;
  using engine::kernel::Program;
  apps::ObjectSpec spec;
  spec.name = "obj";
  spec.size_bytes = 64 * 64;
  apps::AccessGenerator gen(spec, 7);

  Program p = valid_program();
  // Replace slot 1 with a pick block over a two-instance pool.
  InstanceSlot a;
  a.base = 1ULL << 20;
  a.latency_ns = 130.0;
  a.tier = 0;
  InstanceSlot b = a;
  b.base = 1ULL << 21;
  b.tier = 1;
  p.instances = {a, b};
  p.gens = {&gen};
  Insn pick;
  pick.op = Op::kPickAddr;
  pick.imm0 = 0;
  pick.a = 2;
  Insn off;
  off.op = Op::kAddGenOffset;
  off.a = 0;
  off.imm0 = spec.size_bytes;
  Insn serve;
  serve.op = Op::kServePicked;
  p.code.resize(2);
  p.code.push_back(pick);
  p.code.push_back(off);
  p.code.push_back(serve);
  ASSERT_EQ(engine::kernel::verify_program(p), "");

  const auto reject = [](Program bad, const char* what) {
    EXPECT_FALSE(engine::kernel::verify_program(bad).empty())
        << "defect not caught: " << what;
  };
  {
    Program q = p;
    q.code[2].a = 0;
    reject(q, "pick with zero instances");
  }
  {
    Program q = p;
    q.code[2].imm0 = 1;  // 1 + 2 > pool of 2
    reject(q, "instance range out of pool");
  }
  {
    Program q = p;
    q.instances[1].tier = 5;
    reject(q, "instance tier out of range");
  }
  {
    Program q = p;
    q.code[3].a = 3;
    reject(q, "generator out of range");
  }
  {
    Program q = p;
    q.code[3].imm0 = 0;
    reject(q, "zero-size offset clamp");
  }
  {
    Program q = p;
    q.gens[0] = nullptr;
    reject(q, "null generator");
  }
  {
    Program q = p;
    q.code[4].op = Op::kServeFixed;
    reject(q, "pick block must end in serve_picked");
  }
}

TEST(KernelVerifier, RejectsMalformedGeneratorState) {
  using engine::kernel::Insn;
  using engine::kernel::Op;
  using engine::kernel::Program;
  const auto make = [](apps::AccessPattern pattern) {
    apps::ObjectSpec spec;
    spec.name = "obj";
    spec.size_bytes = 100 * 64;
    spec.pattern = pattern;
    spec.stride_lines = 7;
    return std::make_unique<apps::AccessGenerator>(spec, 11);
  };
  // Slot 1 of the valid program becomes a fixed block over `gen`.
  const auto program_over = [](apps::AccessGenerator& gen) {
    Program p = valid_program();
    p.gens = {&gen};
    Insn fixed;
    fixed.op = Op::kFixedAddr;
    fixed.imm0 = 1ULL << 20;
    Insn off;
    off.op = engine::kernel::offset_op(gen);
    off.a = 0;
    off.imm0 = 100 * 64;
    Insn serve;
    serve.op = Op::kServeFixed;
    serve.a = 1;
    serve.f = 155.0;
    p.code = {p.code[0], p.code[1], fixed, off, serve};
    return p;
  };
  const auto verdict = [&](apps::AccessGenerator& gen) {
    return engine::kernel::verify_program(program_over(gen));
  };

  const auto seq = make(apps::AccessPattern::kStream);
  const auto stride = make(apps::AccessPattern::kStrided);
  const auto random = make(apps::AccessPattern::kRandom);
  const auto permute = make(apps::AccessPattern::kRandomPermute);
  const auto zipf = make(apps::AccessPattern::kZipf);
  EXPECT_EQ(engine::kernel::offset_op(*seq), Op::kWalkOffset);
  EXPECT_EQ(engine::kernel::offset_op(*stride), Op::kWalkOffset);
  EXPECT_EQ(engine::kernel::offset_op(*random), Op::kRandomOffset);
  EXPECT_EQ(engine::kernel::offset_op(*permute), Op::kPermuteOffset);
  EXPECT_EQ(engine::kernel::offset_op(*zipf), Op::kAddGenOffset);
  for (apps::AccessGenerator* gen :
       {seq.get(), stride.get(), random.get(), permute.get(), zipf.get()}) {
    EXPECT_EQ(verdict(*gen), "");
  }

  apps::LineWalk& walk = *stride->inline_state().walk;
  EXPECT_EQ(walk.lines, 100u);
  EXPECT_EQ(walk.stride, 7u);
  const apps::LineWalk good_walk = walk;
  walk.lines = 0;
  EXPECT_NE(verdict(*stride), "") << "walk with zero lines";
  walk = good_walk;
  walk.stride = walk.lines;
  EXPECT_NE(verdict(*stride), "") << "stride not below the line count";
  walk = good_walk;
  walk.position = walk.lines;
  EXPECT_NE(verdict(*stride), "") << "walk position outside its lines";
  walk = good_walk;

  apps::RandomLines& draws = *random->inline_state().random;
  draws.lines = 0;
  EXPECT_NE(verdict(*random), "") << "random draw over zero lines";
  draws.lines = 100;

  apps::PermuteLines& cursor = *permute->inline_state().permute;
  cursor.position = cursor.lines;
  EXPECT_NE(verdict(*permute), "") << "permute position outside the table";
  cursor.position = 0;
  cursor.lines = 0;
  EXPECT_NE(verdict(*permute), "") << "permute over zero lines";
  cursor.lines = 100;

  // An inline op whose generator lacks that state is rejected; the call-out
  // op runs any generator.
  Program mismatched = program_over(*zipf);
  mismatched.code[3].op = Op::kWalkOffset;
  EXPECT_NE(engine::kernel::verify_program(mismatched), "");
  mismatched = program_over(*seq);
  mismatched.code[3].op = Op::kRandomOffset;
  EXPECT_NE(engine::kernel::verify_program(mismatched), "");
  mismatched.code[3].op = Op::kPermuteOffset;
  EXPECT_NE(engine::kernel::verify_program(mismatched), "");
  mismatched.code[3].op = Op::kAddGenOffset;
  EXPECT_EQ(engine::kernel::verify_program(mismatched), "");
}

TEST(KernelGenerators, InlineStepsMatchTheGeneratorStream) {
  // The bytecode VM and the native emitter step a generator's inline state;
  // the interpreter calls next_offset(). Both must advance one stream.
  for (const apps::AccessPattern pattern :
       {apps::AccessPattern::kStream, apps::AccessPattern::kStrided,
        apps::AccessPattern::kRandom, apps::AccessPattern::kRandomPermute}) {
    for (const std::uint64_t lines : {1, 2, 67, 1000}) {
      apps::ObjectSpec spec;
      spec.name = "obj";
      spec.size_bytes = lines * 64;
      spec.pattern = pattern;
      apps::AccessGenerator stepped(spec, 5);
      apps::AccessGenerator called(spec, 5);
      const apps::InlineGen& state = stepped.inline_state();
      for (int i = 0; i < 3000; ++i) {
        // Alternate the two paths on one generator too.
        const std::uint64_t line =
            state.walk != nullptr     ? state.walk->step()
            : state.random != nullptr ? state.random->step()
                                      : state.permute->step();
        ASSERT_EQ(line * 64, called.next_offset())
            << static_cast<int>(pattern) << " lines " << lines << " @" << i;
        ASSERT_EQ(stepped.next_offset(), called.next_offset());
      }
    }
  }
}

// ---- executable allocator --------------------------------------------------

TEST(ExecAlloc, AllocateSealExecuteRelease) {
  if (!ExecutableAllocator::supported()) {
    GTEST_SKIP() << "no executable mappings on this platform";
  }
  ExecutableAllocator alloc;
  EXPECT_EQ(alloc.allocate(0), nullptr);
  void* p = alloc.allocate(64);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(alloc.region_count(), 1u);
#if defined(__x86_64__)
  // mov eax, 42; ret
  const unsigned char code[] = {0xB8, 0x2A, 0x00, 0x00, 0x00, 0xC3};
  std::memcpy(p, code, sizeof(code));
  if (alloc.seal(p)) {
    const auto fn = reinterpret_cast<int (*)()>(p);
    EXPECT_EQ(fn(), 42);
  }
#else
  // Sealing must still flip protections without corrupting the region.
  std::memset(p, 0, 64);
  (void)alloc.seal(p);
#endif
  alloc.release(p);
  EXPECT_EQ(alloc.region_count(), 0u);
  // Foreign pointers are ignored, not unmapped.
  int local = 0;
  alloc.release(&local);
}

TEST(ExecAlloc, RegionsAreIndependent) {
  if (!ExecutableAllocator::supported()) {
    GTEST_SKIP() << "no executable mappings on this platform";
  }
  ExecutableAllocator alloc;
  void* a = alloc.allocate(4096);
  void* b = alloc.allocate(1);  // rounds up to a whole page
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(alloc.region_count(), 2u);
  alloc.release(a);
  EXPECT_EQ(alloc.region_count(), 1u);
  std::memset(b, 0xCC, 1);  // b stays writable until sealed
  // The destructor unmaps b.
}

// ---- native tag probe ------------------------------------------------------

#if defined(__unix__) || defined(__APPLE__)
// The native probe compares the low tag dwords of four ways per 16-byte
// load, reading past a row's low half into its high half but never past
// the row, and loads a one-way row's one dword alone. Placing the tag rows
// flush against an inaccessible page turns any read past the last set's
// row into a fault; every legal way count runs the native burst against
// the bytecode VM from identical state.
TEST(NativeProbe, EveryWayCountMatchesBytecodeWithinTheTagArray) {
  if (!engine::kernel::native_available()) {
    GTEST_SKIP() << "native backend unavailable on this build";
  }
  constexpr std::uint64_t kSets = 8;
  constexpr std::uint64_t kAccesses = 4000;
  const long page = sysconf(_SC_PAGESIZE);
  ASSERT_GT(page, 0);
  const std::size_t bytes = static_cast<std::size_t>(page);
  void* region = mmap(nullptr, 2 * bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(region, MAP_FAILED);
  ASSERT_EQ(mprotect(static_cast<char*>(region) + bytes, bytes, PROT_NONE),
            0);
  // The second stack's tags equal the first's in the low dword only (2^38
  // bytes apart), so a probe that trusted a low-dword match would report
  // false hits.
  engine::kernel::Program p = valid_program();
  p.code[2].imm0 = p.code[0].imm0 + (1ULL << 38);
  for (std::uint32_t ways = 1; ways <= memsim::Cache::kMaxWays; ++ways) {
    const std::size_t n_dwords = kSets * 2 * ways;
    auto* guarded = reinterpret_cast<std::uint32_t*>(
        static_cast<char*>(region) + bytes - n_dwords * sizeof(std::uint32_t));
    std::vector<std::uint32_t> tags(n_dwords, memsim::Cache::kInvalidTagHalf);
    std::vector<std::uint64_t> order(kSets,
                                     memsim::Cache::initial_order(ways));
    std::uint64_t tier_sim[2] = {0, 0};
    const auto frame = [&](std::uint32_t* tag_array,
                           std::uint64_t* order_words) {
      engine::kernel::Frame f;
      f.tags = tag_array;
      f.order = order_words;
      f.ways = ways;
      f.line_shift = 6;
      f.set_mask = kSets - 1;
      f.n_accesses = kAccesses;
      f.tier_sim = tier_sim;
      return f;
    };

    engine::kernel::Frame vm = frame(tags.data(), order.data());
    Xoshiro256 rng(0xfeedULL + ways);
    engine::kernel::run_bytecode(p, vm, rng);
    const std::uint64_t vm_tier_sim[2] = {tier_sim[0], tier_sim[1]};

    std::fill(guarded, guarded + n_dwords, memsim::Cache::kInvalidTagHalf);
    std::vector<std::uint64_t> native_order(
        kSets, memsim::Cache::initial_order(ways));
    tier_sim[0] = tier_sim[1] = 0;
    engine::kernel::Frame nat = frame(guarded, native_order.data());
    Xoshiro256(0xfeedULL + ways).save_state(nat.rng_state);
    engine::kernel::NativeKernel kern;
    ASSERT_TRUE(kern.emit(ways, 6, kSets - 1, false)) << ways;
    engine::kernel::SlotTable table;
    ASSERT_TRUE(table.bind(p)) << ways;
    kern.run(table, nat);

    const std::string label = "ways " + std::to_string(ways);
    EXPECT_GT(vm.misses, 0u) << label;
    EXPECT_LT(vm.misses, kAccesses) << label;  // some hits too
    EXPECT_EQ(nat.misses, vm.misses) << label;
    EXPECT_EQ(nat.latency_ns, vm.latency_ns) << label;
    EXPECT_EQ(tier_sim[0], vm_tier_sim[0]) << label;
    EXPECT_EQ(tier_sim[1], vm_tier_sim[1]) << label;
    EXPECT_TRUE(std::equal(tags.begin(), tags.end(), guarded)) << label;
    EXPECT_EQ(native_order, order) << label;
    std::uint64_t vm_state[4];
    rng.save_state(vm_state);
    EXPECT_EQ(std::memcmp(vm_state, nat.rng_state, sizeof(vm_state)), 0)
        << label;
  }
  munmap(region, 2 * bytes);
}
#endif

#if defined(HMEM_NATIVE_KERNEL) && defined(__x86_64__) && \
    (defined(__unix__) || defined(__APPLE__))
// Compiled in on an x86-64 POSIX host, the backend is unavailable only
// where executable pages are refused; anything else is a failed self-test.
TEST(NativeKernel, SelfTestPassesWhereCompiledIn) {
  ExecutableAllocator alloc;
  void* page = alloc.allocate(16);
  ASSERT_NE(page, nullptr);
  if (!alloc.seal(page)) GTEST_SKIP() << "host refuses executable pages";
  EXPECT_TRUE(engine::kernel::native_available());
}
#endif

// Lemire's rejection path runs with probability about bound / 2^64 per
// draw, so real bounds never reach it. A stack of 2^63 + 1 lines rejects
// about half its main-RNG draws, and a clamped random stream over as many
// lines, or an in-range one over 2^64 / 128.5, reject 1/2 and 1/257 of
// their own: the native loop's out-of-line rejection must redraw exactly
// as Xoshiro256::below does.
TEST(NativeKernel, LemireRejectionMatchesBytecode) {
  if (!engine::kernel::native_available()) {
    GTEST_SKIP() << "native backend unavailable on this build";
  }
  using engine::kernel::Insn;
  using engine::kernel::Op;
  constexpr std::uint64_t kSets = 8;
  constexpr std::uint64_t kWays = 4;
  constexpr std::uint64_t kAccesses = 6000;
  const std::uint64_t huge = (1ULL << 63) + 1;
  const std::uint64_t wide = ~0ULL / 257 * 2;
  const auto make_gens = [&] {
    std::vector<std::unique_ptr<apps::AccessGenerator>> gens;
    for (const std::uint64_t lines : {huge, wide}) {
      apps::ObjectSpec spec;
      spec.name = "wide";
      spec.size_bytes = 1ULL << 20;
      spec.pattern = apps::AccessPattern::kRandom;
      gens.push_back(std::make_unique<apps::AccessGenerator>(spec, lines));
      gens.back()->inline_state().random->lines = lines;
    }
    return gens;
  };
  const auto program = [&](const auto& gens) {
    engine::kernel::Program p = valid_program();
    p.code[0].imm1 = huge;  // slot 0: the stack
    p.threshold = {1, 1, 1};
    p.alias = {1, 2, 0};
    for (std::size_t g = 0; g < gens.size(); ++g) {
      p.block_start.push_back(static_cast<std::uint32_t>(p.code.size()));
      Insn head;
      head.op = Op::kFixedAddr;
      head.imm0 = (8ULL + g) << 20;
      Insn off;
      off.op = Op::kRandomOffset;
      off.a = static_cast<std::uint32_t>(g);
      off.imm0 = g == 0 ? (1ULL << 20) : (1ULL << 63);
      Insn serve;
      serve.op = Op::kServeFixed;
      serve.a = static_cast<std::uint32_t>(g);
      serve.f = 140.0;
      p.code.insert(p.code.end(), {head, off, serve});
      p.gens.push_back(gens[g].get());
    }
    p.block_start.erase(p.block_start.begin() + 1);  // drop the second stack
    return p;
  };
  struct Outcome {
    engine::kernel::Frame frame;
    std::vector<std::uint32_t> tags;
    std::vector<std::uint64_t> order;
    std::uint64_t tier_sim[2] = {0, 0};
    std::uint64_t rng[4] = {0, 0, 0, 0};
    std::vector<std::uint64_t> next;
  };
  const auto run = [&](bool native, Outcome* out) {
    const auto gens = make_gens();
    const engine::kernel::Program p = program(gens);
    ASSERT_EQ(engine::kernel::verify_program(p), "");
    out->tags.assign(kSets * 2 * kWays, memsim::Cache::kInvalidTagHalf);
    out->order.assign(kSets, memsim::Cache::initial_order(kWays));
    engine::kernel::Frame& f = out->frame;
    f.tags = out->tags.data();
    f.order = out->order.data();
    f.ways = kWays;
    f.line_shift = 6;
    f.set_mask = kSets - 1;
    f.n_accesses = kAccesses;
    f.tier_sim = out->tier_sim;
    Xoshiro256 rng(0x1e3157ULL);
    if (native) {
      engine::kernel::NativeKernel kern;
      ASSERT_TRUE(kern.emit(kWays, 6, kSets - 1, false));
      engine::kernel::SlotTable table;
      ASSERT_TRUE(table.bind(p));
      rng.save_state(f.rng_state);
      kern.run(table, f);
      std::memcpy(out->rng, f.rng_state, sizeof(out->rng));
    } else {
      engine::kernel::run_bytecode(p, f, rng);
      rng.save_state(out->rng);
    }
    for (const auto& gen : gens) out->next.push_back(gen->next_offset());
  };
  Outcome vm, nat;
  run(false, &vm);
  run(true, &nat);
  EXPECT_EQ(nat.frame.misses, vm.frame.misses);
  EXPECT_EQ(nat.frame.latency_ns, vm.frame.latency_ns);
  EXPECT_EQ(nat.tags, vm.tags);
  EXPECT_EQ(nat.order, vm.order);
  EXPECT_EQ(nat.tier_sim[0], vm.tier_sim[0]);
  EXPECT_EQ(nat.tier_sim[1], vm.tier_sim[1]);
  EXPECT_EQ(std::memcmp(nat.rng, vm.rng, sizeof(vm.rng)), 0);
  EXPECT_EQ(nat.next, vm.next);
}

// A slot steps its generator's state in its own record during a burst, so
// a verified program whose two slots share one generator cannot be bound;
// the engine then runs it on the bytecode VM.
TEST(NativeKernel, SlotsSharingAGeneratorAreNotBound) {
  using engine::kernel::Insn;
  using engine::kernel::Op;
  apps::ObjectSpec spec;
  spec.name = "shared";
  spec.size_bytes = 1ULL << 20;
  apps::AccessGenerator gen(spec, 3);
  engine::kernel::Program p = valid_program();
  p.code.clear();
  p.block_start.clear();
  p.gens = {&gen};
  for (int s = 0; s < 2; ++s) {
    p.block_start.push_back(static_cast<std::uint32_t>(p.code.size()));
    Insn head;
    head.op = Op::kFixedAddr;
    head.imm0 = (4ULL + s) << 20;
    Insn off;
    off.op = engine::kernel::offset_op(gen);
    off.imm0 = spec.size_bytes;
    Insn serve;
    serve.op = Op::kServeFixed;
    serve.f = 130.0;
    p.code.insert(p.code.end(), {head, off, serve});
  }
  ASSERT_EQ(engine::kernel::verify_program(p), "");
  engine::kernel::SlotTable table;
  EXPECT_FALSE(table.bind(p));
  p.gens.push_back(&gen);  // still one generator behind both indices
  p.code[4].a = 1;
  EXPECT_FALSE(table.bind(p));
}

// ---- differential bit-identity ---------------------------------------------

void expect_same_run(const engine::RunResult& oracle,
                     const engine::RunResult& got, const std::string& label) {
  EXPECT_EQ(got.fom, oracle.fom) << label;
  EXPECT_EQ(got.time_s, oracle.time_s) << label;
  EXPECT_EQ(got.llc_misses, oracle.llc_misses) << label;
  EXPECT_EQ(got.fast_hwm_bytes, oracle.fast_hwm_bytes) << label;
  EXPECT_EQ(got.total_hwm_bytes, oracle.total_hwm_bytes) << label;
  EXPECT_EQ(got.achieved_bw_gbs, oracle.achieved_bw_gbs) << label;
  EXPECT_EQ(got.migration_bytes, oracle.migration_bytes) << label;
  EXPECT_EQ(got.migration_count, oracle.migration_count) << label;
  EXPECT_EQ(got.migration_cost_s, oracle.migration_cost_s) << label;
  EXPECT_EQ(got.alloc_calls, oracle.alloc_calls) << label;
  ASSERT_EQ(got.tier_traffic.size(), oracle.tier_traffic.size()) << label;
  for (std::size_t t = 0; t < oracle.tier_traffic.size(); ++t) {
    EXPECT_EQ(got.tier_traffic[t].name, oracle.tier_traffic[t].name) << label;
    EXPECT_EQ(got.tier_traffic[t].bytes, oracle.tier_traffic[t].bytes)
        << label << " tier " << t;
    EXPECT_EQ(got.tier_traffic[t].migration_bytes,
              oracle.tier_traffic[t].migration_bytes)
        << label << " tier " << t;
  }
}

/// Kernels actually distinct on this build: interp and bytecode always,
/// native only where available (elsewhere it resolves to bytecode, which
/// the ladder test covers).
std::vector<KernelKind> compiled_kernels() {
  std::vector<KernelKind> kernels = {KernelKind::kBytecode};
  if (engine::kernel::native_available()) {
    kernels.push_back(KernelKind::kNative);
  }
  return kernels;
}

/// Shrinks a bundled app so the full differential matrix stays fast while
/// still crossing several phase boundaries (epoch-driven recompiles).
apps::AppSpec shrink(apps::AppSpec app) {
  app.iterations = std::min<std::uint64_t>(app.iterations, 2);
  app.accesses_per_iteration =
      std::min<std::uint64_t>(app.accesses_per_iteration, 30000);
  return app;
}

std::vector<apps::AppSpec> differential_apps() {
  std::vector<apps::AppSpec> specs = apps::all_apps();
  for (apps::AppSpec& app : apps::phase_shift_apps()) {
    specs.push_back(app);
  }
  for (apps::AppSpec& app : specs) app = shrink(app);
  return specs;
}

TEST(KernelDifferential, BaselineConditionsOnKnl) {
  const memsim::MachineConfig node =
      memsim::MachineConfig::knl7250(memsim::MemMode::kFlat);
  for (const apps::AppSpec& app : differential_apps()) {
    for (const engine::Condition condition :
         {engine::Condition::kDdr, engine::Condition::kNumactl,
          engine::Condition::kAutoHbw}) {
      engine::RunOptions opts;
      opts.condition = condition;
      opts.node = node;
      opts.kernel = KernelKind::kInterp;
      const engine::RunResult oracle = engine::run_app(app, opts);
      for (const KernelKind k : compiled_kernels()) {
        opts.kernel = k;
        expect_same_run(oracle, engine::run_app(app, opts),
                        app.name + "/" +
                            engine::condition_name(condition) + "/" +
                            engine::kernel::kernel_name(k));
      }
    }
  }
}

TEST(KernelDifferential, FrameworkAndDynamicAcrossAllPresets) {
  const std::pair<const char*, memsim::MachineConfig> presets[] = {
      {"knl", memsim::MachineConfig::knl7250(memsim::MemMode::kFlat)},
      {"spr-hbm", memsim::MachineConfig::spr_hbm(memsim::MemMode::kFlat)},
      {"ddr-cxl", memsim::MachineConfig::ddr_cxl(memsim::MemMode::kFlat)},
      {"hbm-ddr-pmem",
       memsim::MachineConfig::hbm_ddr_pmem(memsim::MemMode::kFlat)},
  };
  for (const apps::AppSpec& app : differential_apps()) {
    for (const auto& [preset_name, node] : presets) {
      // One pipeline per (app, preset) produces the placement and the
      // per-phase schedule both conditions consume.
      engine::PipelineOptions popts;
      popts.node = node;
      popts.per_phase = true;
      popts.sampler.period = 197;  // shrunk runs still need samples
      const engine::PipelineResult pipe = engine::run_pipeline(app, popts);

      for (const engine::Condition condition :
           {engine::Condition::kFramework, engine::Condition::kDynamic}) {
        engine::RunOptions opts;
        opts.condition = condition;
        opts.node = node;
        if (condition == engine::Condition::kFramework) {
          opts.placement = &pipe.placement;
        } else {
          opts.schedule = &pipe.schedule;
        }
        opts.kernel = KernelKind::kInterp;
        const engine::RunResult oracle = engine::run_app(app, opts);
        for (const KernelKind k : compiled_kernels()) {
          opts.kernel = k;
          expect_same_run(oracle, engine::run_app(app, opts),
                          app.name + "/" + preset_name + "/" +
                              engine::condition_name(condition) + "/" +
                              engine::kernel::kernel_name(k));
        }
      }
    }
  }
}

/// Every block shape and offset op in one app: a stride walk, a seq walk,
/// random draws behind a three-instance pick, a random-permute cursor, the
/// zipf, pointer-chase and bursty call-outs, and stack accesses, over two
/// phases — one with a transient object, so the live set (and the compiled
/// program) changes mid-iteration.
apps::AppSpec every_block_app() {
  using apps::AccessPattern;
  apps::AppSpec app;
  app.name = "every-block";
  app.fom_unit = "it/s";
  app.iterations = 3;
  app.accesses_per_iteration = 24000;
  app.access_scale = 120;  // above period 53: one record fires several
  app.stack_bytes = 1ULL << 20;
  app.objects = {
      apps::ObjectSpec{.name = "strided",
                       .size_bytes = 24ULL << 20,
                       .pattern = AccessPattern::kStrided,
                       .stride_lines = 129},
      apps::ObjectSpec{.name = "stream", .size_bytes = 16ULL << 20},
      apps::ObjectSpec{.name = "tiles",
                       .size_bytes = 6ULL << 20,
                       .pattern = AccessPattern::kRandom,
                       .instances = 3},
      apps::ObjectSpec{.name = "permuted",
                       .size_bytes = 8ULL << 20,
                       .pattern = AccessPattern::kRandomPermute},
      apps::ObjectSpec{.name = "skewed",
                       .size_bytes = 12ULL << 20,
                       .pattern = AccessPattern::kZipf},
      apps::ObjectSpec{.name = "chain",
                       .size_bytes = 4ULL << 20,
                       .pattern = AccessPattern::kPointerChase},
      apps::ObjectSpec{.name = "bursts",
                       .size_bytes = 10ULL << 20,
                       .pattern = AccessPattern::kBursty,
                       .transient_phase = 1},
  };
  apps::PhaseSpec first;
  first.name = "sweep";
  first.access_share = 0.6;
  first.object_weights = {0.2, 0.2, 0.15, 0.15, 0.1, 0.1, 0.0};
  first.stack_weight = 0.1;
  first.write_fraction = 0.3;
  apps::PhaseSpec second = first;
  second.name = "scatter";
  second.access_share = 0.4;
  second.object_weights = {0.1, 0.1, 0.2, 0.2, 0.1, 0.1, 0.15};
  second.stack_weight = 0.05;
  app.phases = {first, second};
  return app;
}

/// A profiled run's trace in the binary shard format: sites, then every
/// event with its exact time, address, write bit and weight.
std::string serialized_trace(const engine::RunResult& run) {
  std::ostringstream out(std::ios::binary);
  const auto writer = trace::make_trace_writer(out, *run.sites,
                                               trace::TraceFormat::kBinary);
  for (const trace::Event& event : run.trace->events()) {
    writer->on_event(event);
  }
  writer->finish();
  return out.str();
}

TEST(KernelDifferential, ProfiledRunsMatchTheOracle) {
  const memsim::MachineConfig node =
      memsim::MachineConfig::knl7250(memsim::MemMode::kFlat);
  const std::vector<apps::AppSpec> profiled_apps = {
      shrink(apps::app_by_name("hpcg")), shrink(apps::app_by_name("churn")),
      shrink(apps::app_by_name("snap")), every_block_app()};
  for (const apps::AppSpec& app : profiled_apps) {
    ASSERT_EQ(apps::validate(app), "") << app.name;
    // The paper's period skips almost every record as a quiet group; at
    // period 53 every record fires, several samples at a time.
    for (const std::uint64_t period :
         {pebs::SamplerConfig{}.period, std::uint64_t{53}}) {
      engine::RunOptions opts;
      opts.condition = engine::Condition::kNumactl;
      opts.node = node;
      opts.profile = true;
      opts.sampler.period = period;
      opts.kernel = KernelKind::kInterp;
      const engine::RunResult oracle = engine::run_app(app, opts);
      ASSERT_NE(oracle.trace, nullptr);
      EXPECT_GT(oracle.samples, 0u) << app.name << " period " << period;
      const std::string oracle_trace = serialized_trace(oracle);
      for (const KernelKind k : compiled_kernels()) {
        opts.kernel = k;
        const engine::RunResult got = engine::run_app(app, opts);
        const std::string label = app.name + "/period " +
                                  std::to_string(period) + "/" +
                                  engine::kernel::kernel_name(k);
        expect_same_run(oracle, got, label);
        EXPECT_EQ(got.samples, oracle.samples) << label;
        EXPECT_EQ(got.monitoring_overhead, oracle.monitoring_overhead)
            << label;
        ASSERT_NE(got.trace, nullptr) << label;
        EXPECT_TRUE(serialized_trace(got) == oracle_trace) << label;
      }
    }
  }
}

/// An app whose whole working set fits a 1 MiB per-rank LLC (or, with
/// `overflow`, exceeds it by about a third, so hits and evictions interleave).
/// Bundled apps at pipeline scale almost never hit, so this is what drives
/// the kernels' hit paths: every hit reorders a set's recency word from
/// whatever position the way held.
apps::AppSpec llc_resident_app(bool overflow) {
  apps::AppSpec app;
  app.name = overflow ? "llc-overflow" : "llc-resident";
  app.fom_unit = "it/s";
  app.iterations = 3;
  app.accesses_per_iteration = 40000;
  app.access_scale = 1;  // llc_misses then counts simulated misses
  app.stack_bytes = 64ULL << 10;
  app.objects = {
      apps::ObjectSpec{.name = "hot",
                       .size_bytes = overflow ? (1ULL << 20) : (384ULL << 10),
                       .pattern = apps::AccessPattern::kRandom},
      apps::ObjectSpec{.name = "warm", .size_bytes = 128ULL << 10},
      apps::ObjectSpec{.name = "tiles",
                       .size_bytes = 32ULL << 10,
                       .pattern = apps::AccessPattern::kRandom,
                       .instances = 4},
  };
  apps::PhaseSpec phase;
  phase.name = "main";
  phase.object_weights = {0.6, 0.2, 0.1};
  phase.stack_weight = 0.1;
  app.phases = {phase};
  return app;
}

TEST(KernelDifferential, LlcResidentRunsHitThroughEveryBackend) {
  memsim::MachineConfig node =
      memsim::MachineConfig::knl7250(memsim::MemMode::kFlat);
  node.llc.size_bytes = 1ULL << 20;  // 1024 sets x 16 ways
  for (const bool overflow : {false, true}) {
    const apps::AppSpec app = llc_resident_app(overflow);
    ASSERT_EQ(apps::validate(app), "");
    for (const engine::Condition condition :
         {engine::Condition::kDdr, engine::Condition::kNumactl}) {
      engine::RunOptions opts;
      opts.condition = condition;
      opts.node = node;
      opts.kernel = KernelKind::kInterp;
      const engine::RunResult oracle = engine::run_app(app, opts);
      const std::uint64_t accesses =
          app.iterations * app.accesses_per_iteration;
      // Resident: only cold misses; overflow: still mostly hits.
      EXPECT_LT(oracle.llc_misses * (overflow ? 2 : 4), accesses) << app.name;
      EXPECT_GT(oracle.llc_misses, 0u) << app.name;
      for (const KernelKind k : compiled_kernels()) {
        opts.kernel = k;
        expect_same_run(oracle, engine::run_app(app, opts),
                        app.name + "/" + engine::condition_name(condition) +
                            "/" + engine::kernel::kernel_name(k));
      }
    }
  }
}

TEST(KernelDifferential, OddWayLlcGeometries) {
  // The native probe's shape depends on the way count (pairs per load, an
  // odd tail, one or two mask halves); the presets are all 16-way, so the
  // geometries a machine INI can still ask for run here.
  for (const std::uint32_t ways : {1u, 3u, 12u}) {
    memsim::MachineConfig node =
        memsim::MachineConfig::knl7250(memsim::MemMode::kFlat);
    node.llc.ways = ways;
    node.llc.size_bytes = 1024ULL * ways * node.llc.line_bytes;  // 1024 sets
    for (const bool overflow : {false, true}) {
      const apps::AppSpec app = llc_resident_app(overflow);
      engine::RunOptions opts;
      opts.condition = engine::Condition::kNumactl;
      opts.node = node;
      opts.kernel = KernelKind::kInterp;
      const engine::RunResult oracle = engine::run_app(app, opts);
      const std::uint64_t accesses =
          app.iterations * app.accesses_per_iteration;
      EXPECT_GT(oracle.llc_misses, 0u) << app.name << " ways " << ways;
      EXPECT_LT(oracle.llc_misses, accesses) << app.name << " ways " << ways;
      for (const KernelKind k : compiled_kernels()) {
        opts.kernel = k;
        expect_same_run(oracle, engine::run_app(app, opts),
                        app.name + "/ways " + std::to_string(ways) + "/" +
                            engine::kernel::kernel_name(k));
      }
    }
  }
}

/// Runs `app` under `opts` on the interpreter and on every compiled kernel;
/// all must agree on every RunResult field and, profiled, on every trace
/// byte. Returns the oracle.
engine::RunResult expect_kernels_agree(const apps::AppSpec& app,
                                       engine::RunOptions opts,
                                       const std::string& label) {
  opts.kernel = KernelKind::kInterp;
  const engine::RunResult oracle = engine::run_app(app, opts);
  for (const KernelKind k : compiled_kernels()) {
    opts.kernel = k;
    const engine::RunResult got = engine::run_app(app, opts);
    const std::string where = label + "/" + engine::kernel::kernel_name(k);
    expect_same_run(oracle, got, where);
    if (opts.profile) {
      EXPECT_EQ(got.samples, oracle.samples) << where;
      EXPECT_EQ(got.monitoring_overhead, oracle.monitoring_overhead) << where;
      EXPECT_TRUE(serialized_trace(got) == serialized_trace(oracle)) << where;
    }
  }
  return oracle;
}

// The native loop is emitted once per run; each live-set or address epoch
// rebinds a phase's slot table to it. These runs rebind many times: churn
// reallocates its buffers every iteration, transient and lulesh allocate per
// phase, maxw-dgtd's work buffers come and go, and a dynamic schedule moves
// instances between tiers under live slots.
TEST(KernelDifferential, RebindingAcrossEpochsMatchesTheOracle) {
  const memsim::MachineConfig node =
      memsim::MachineConfig::knl7250(memsim::MemMode::kFlat);
  for (const char* name : {"churn", "transient", "lulesh", "maxw-dgtd"}) {
    const apps::AppSpec app = shrink(apps::app_by_name(name));
    for (const bool profiled : {false, true}) {
      engine::RunOptions opts;
      opts.condition = engine::Condition::kNumactl;
      opts.node = node;
      opts.profile = profiled;
      opts.sampler.period = 53;
      expect_kernels_agree(app, opts,
                           std::string(name) + (profiled ? "/profiled" : ""));
    }
  }
  // Per-phase placements on a budget too small for both phases' hot sets,
  // so every phase transition migrates.
  const apps::AppSpec app = shrink(apps::app_by_name("churn"));
  engine::PipelineOptions popts;
  popts.node = node;
  popts.per_phase = true;
  popts.fast_budget_per_rank = 96ULL << 20;
  popts.sampler.period = 197;
  const engine::PipelineResult pipe = engine::run_pipeline(app, popts);
  ASSERT_GT(pipe.schedule.phases.size(), 1u);
  engine::RunOptions opts;
  opts.condition = engine::Condition::kDynamic;
  opts.node = node;
  opts.schedule = &pipe.schedule;
  const engine::RunResult oracle =
      expect_kernels_agree(app, opts, "churn/dynamic");
  EXPECT_GT(oracle.migration_count, 0u);
}

/// One phase over 70 objects — every pattern, one, two and five instances —
/// plus the stack: 71 slots of every shape the native loop branches on.
apps::AppSpec many_slot_app(bool skewed) {
  using apps::AccessPattern;
  const AccessPattern patterns[] = {
      AccessPattern::kStream,        AccessPattern::kStrided,
      AccessPattern::kRandom,        AccessPattern::kRandomPermute,
      AccessPattern::kZipf,          AccessPattern::kPointerChase,
      AccessPattern::kBursty};
  apps::AppSpec app;
  app.name = skewed ? "many-slots-skewed" : "many-slots";
  app.fom_unit = "it/s";
  app.iterations = 2;
  app.accesses_per_iteration = 30000;
  app.access_scale = 120;
  app.stack_bytes = 1ULL << 20;
  apps::PhaseSpec phase;
  phase.name = "main";
  for (int i = 0; i < 70; ++i) {
    apps::ObjectSpec object;
    object.name = "obj" + std::to_string(i);
    object.size_bytes = (1ULL + i % 4) << 20;
    object.pattern = patterns[i % 7];
    object.stride_lines = 3 + i % 5;
    object.instances = i % 3 == 0 ? 1 : (i % 3 == 1 ? 2 : 5);
    app.objects.push_back(object);
    // Skewed: one walk takes most draws, so the other shapes stay rare.
    phase.object_weights.push_back(skewed ? (i == 0 ? 0.6 : 0.005) : 1.0);
  }
  phase.stack_weight = skewed ? 0.05 : 1.0;
  app.phases = {phase};
  return app;
}

TEST(KernelDifferential, ManySlotPhaseOfEveryShape) {
  const memsim::MachineConfig node =
      memsim::MachineConfig::knl7250(memsim::MemMode::kFlat);
  for (const bool skewed : {false, true}) {
    const apps::AppSpec app = many_slot_app(skewed);
    ASSERT_EQ(apps::validate(app), "") << app.name;
    for (const bool profiled : {false, true}) {
      engine::RunOptions opts;
      opts.condition = engine::Condition::kNumactl;
      opts.node = node;
      opts.profile = profiled;
      opts.sampler.period = 53;
      expect_kernels_agree(app, opts,
                           app.name + (profiled ? "/profiled" : ""));
    }
  }
}

/// One phase over stride walks whose stride is 2^32 lines (2^38 bytes) and
/// whose objects are whole multiples of it: a walk over P planes cycles
/// through P lines of one set whose tags differ only in the high dword. At
/// any way count the one-plane walk hits, the 17-plane walk misses (it
/// thrashes even 16 ways), and the probe must tell every colliding low
/// dword apart by its high half. A small random object puts lines with
/// other low dwords into the same sets.
apps::AppSpec low_dword_collision_app() {
  apps::AppSpec app;
  app.name = "low-dword-collisions";
  app.fom_unit = "it/s";
  app.ranks = 1;
  app.iterations = 2;
  app.accesses_per_iteration = 20000;
  app.access_scale = 1;
  app.stack_bytes = 64ULL << 10;
  apps::PhaseSpec phase;
  phase.name = "main";
  for (const std::uint64_t planes : {1, 2, 3, 5, 8, 13, 17}) {
    app.objects.push_back(
        apps::ObjectSpec{.name = "planes" + std::to_string(planes),
                         .size_bytes = planes << 38,
                         .pattern = apps::AccessPattern::kStrided,
                         .stride_lines = 1ULL << 32});
    phase.object_weights.push_back(1.0 / static_cast<double>(planes));
  }
  app.objects.push_back(apps::ObjectSpec{.name = "scattered",
                                         .size_bytes = 1ULL << 20,
                                         .pattern = apps::AccessPattern::kRandom});
  phase.object_weights.push_back(1.0);
  phase.stack_weight = 0.05;
  app.phases = {phase};
  return app;
}

TEST(KernelDifferential, LowDwordTagCollisionsAtEveryWayCount) {
  const apps::AppSpec app = low_dword_collision_app();
  ASSERT_EQ(apps::validate(app), "");
  memsim::MachineConfig node =
      memsim::MachineConfig::knl7250(memsim::MemMode::kFlat);
  for (memsim::TierSpec& tier : node.tiers) tier.capacity_bytes = 16ULL << 40;
  const std::uint64_t accesses = app.iterations * app.accesses_per_iteration;
  for (std::uint32_t ways = 1; ways <= memsim::Cache::kMaxWays; ++ways) {
    node.llc.ways = ways;
    node.llc.size_bytes = 1024ULL * ways * node.llc.line_bytes;  // 1024 sets
    for (const bool profiled : {false, true}) {
      engine::RunOptions opts;
      opts.condition = engine::Condition::kDdr;
      opts.node = node;
      opts.profile = profiled;
      opts.sampler.period = 53;
      const std::string label = "ways " + std::to_string(ways) +
                                (profiled ? "/profiled" : "");
      const engine::RunResult oracle = expect_kernels_agree(app, opts, label);
      EXPECT_GT(oracle.llc_misses, 0u) << label;
      EXPECT_LT(oracle.llc_misses, accesses) << label;
    }
  }
}

TEST(KernelDifferential, CacheModeIsKernelInvariant) {
  const apps::AppSpec app = shrink(apps::app_by_name("hpcg"));
  engine::RunOptions opts;
  opts.condition = engine::Condition::kCacheMode;
  opts.node = memsim::MachineConfig::knl7250(memsim::MemMode::kCache);
  opts.kernel = KernelKind::kInterp;
  const engine::RunResult oracle = engine::run_app(app, opts);
  // The ladder forces the interpreter for the analytic cache model, so any
  // requested kernel must reproduce it exactly.
  for (const KernelKind k : {KernelKind::kBytecode, KernelKind::kNative}) {
    opts.kernel = k;
    expect_same_run(oracle, engine::run_app(app, opts),
                    std::string("cache-mode/") +
                        engine::kernel::kernel_name(k));
  }
}

}  // namespace
}  // namespace hmem
