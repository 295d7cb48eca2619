// Bytecode IR for the compiled access kernel.
//
// The execution engine's inner loop (engine/execution.cpp, run_app) decides
// per access: which object the access targets (alias-table sample), which
// address it touches (instance pick + per-object offset generator), whether
// the LLC holds the line, and which tier serves a miss at what latency. The
// interpreter answers the last two by indirecting through Machine — a range
// scan over tier specs — and the first through PerPhase tables rebuilt on
// demand.
//
// This IR flattens one phase of one app on one machine into a verified,
// straight-line instruction stream with every constant baked in:
//   * the alias table's per-column thresholds/aliases and the write coin,
//   * each live instance's base address, owning tier and miss latency
//     (instances never straddle tiers — allocations are tier-contiguous —
//     so the flat-mode range scan disappears entirely),
//   * the LLC's set/tag shift+mask geometry (memsim/cache.hpp Tables).
// A program is valid for one (live-set epoch, address epoch) pair: the
// engine recompiles exactly when an object transitions live<->dead or a
// dynamic-schedule migration moves an instance, and never in between.
//
// Per access the executor runs: one structured 64-bit draw (layout shared
// with the interpreter — see kAliasCoinBits in execution.cpp), an alias
// sample selecting a slot, then that slot's block:
//   (kStackAddr | kFixedAddr <offset> | kPickAddr <offset>)
//   (kServeFixed | kServePicked)
// where <offset> is one of the offset ops: seq/stride walks, random draws
// and random-permute cursors run inline on the generator's own state
// (apps/workload_gen.hpp LineWalk, RandomLines, PermuteLines); zipf,
// pointer-chase and bursty call out through kAddGenOffset. The serve op
// probes the LLC in place, accounts the miss and, in profiled bursts,
// writes a miss record into the frame's buffer. Two backends execute the
// same program: the portable bytecode VM here, and the optional x86-64
// native loop (native.hpp), which is emitted once per run and reads each
// program as data — a SlotTable of per-slot records built from it, so a
// recompile at an epoch only rebinds tables. The interpreter remains the
// oracle: all backends are bit-identical on every RunResult field and
// trace byte.
//
// verify() checks every structural invariant before a program may run, and
// is the contract the fuzz harness drives: a defect-injected stream must be
// rejected with a message, never executed into UB.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/generator.hpp"
#include "common/alias.hpp"
#include "common/prng.hpp"
#include "memsim/address.hpp"

namespace hmem::memsim {
class Machine;
}

namespace hmem::engine::kernel {

enum class Op : std::uint8_t {
  kStackAddr,     ///< addr = imm0 + below(imm1) * line;  a unused
  kFixedAddr,     ///< addr = imm0 (single-instance object base)
  kPickAddr,      ///< rec = instances[imm0 + below(a)]; addr = rec.base
  // Offset ops, each followed by: off >= imm0 -> 0; addr += off.
  kAddGenOffset,  ///< off = gens[a]->next_offset() (call-out patterns)
  kWalkOffset,    ///< off = gens[a]'s LineWalk::step() * line
  kRandomOffset,  ///< off = gens[a]'s RandomLines::step() * line
  kPermuteOffset, ///< off = gens[a]'s PermuteLines::step() * line
  kServeFixed,    ///< LLC probe; miss served by tier a at latency f
  kServePicked,   ///< LLC probe; miss served by rec.tier at rec.latency_ns
};

const char* op_name(Op op);

/// The offset op that runs `gen`: inline on its state when it has one,
/// otherwise the kAddGenOffset call-out.
Op offset_op(const apps::AccessGenerator& gen);

struct Insn {
  Op op = Op::kServeFixed;
  std::uint32_t a = 0;     ///< count / generator index / tier
  std::uint64_t imm0 = 0;  ///< base address / offset clamp / first instance
  std::uint64_t imm1 = 0;  ///< stack lines
  double f = 0.0;          ///< baked miss latency (kServeFixed)
};

/// One live instance in the kPickAddr operand pool. 32-byte stride so the
/// native backend indexes it with a shift instead of a multiply.
struct InstanceSlot {
  std::uint64_t base = 0;
  double latency_ns = 0.0;
  std::uint64_t tier = 0;
  std::uint64_t pad = 0;
};
static_assert(sizeof(InstanceSlot) == 32, "native backend bakes the stride");

struct Program {
  // Alias sampling, flattened from the phase's AliasTable.
  std::vector<std::uint64_t> threshold;  ///< accept-own-column, per column
  std::vector<std::uint32_t> alias;      ///< divert target, per column
  std::uint64_t coin_mask = 0;           ///< (1 << coin_bits) - 1
  std::uint64_t write_threshold = 0;     ///< write coin, 2^-kWriteCoinBits units
  std::uint64_t write_shift = 63;        ///< draw bits [write_shift, 64) = coin

  std::vector<std::uint32_t> block_start;  ///< slot -> first insn in code
  std::vector<Insn> code;                  ///< flat instruction stream
  std::vector<InstanceSlot> instances;     ///< kPickAddr pool
  std::vector<apps::AccessGenerator*> gens;

  // Machine constants.
  double llc_latency_ns = 0.0;
  std::uint32_t n_tiers = 0;

  std::size_t slot_count() const { return block_start.size(); }
};

/// What one slot of the phase's alias table targets. The compiler turns
/// each into one instruction block.
struct SlotTarget {
  bool is_stack = false;
  // Stack targets.
  std::uint64_t stack_base = 0;
  std::uint64_t stack_lines = 0;
  // Object targets.
  const std::vector<memsim::Address>* instances = nullptr;
  apps::AccessGenerator* gen = nullptr;
  std::uint64_t size_bytes = 0;
};

/// Compiles one phase: bakes the alias table, the targets' addresses and
/// their owning tiers/latencies (resolved through `machine`), and the write
/// coin. Asserts the result verifies — a compile that emits an invalid
/// stream is a bug, not an input error.
Program compile_program(const AliasTable& alias, std::uint64_t write_threshold,
                        std::uint64_t write_shift,
                        const std::vector<SlotTarget>& targets,
                        const memsim::Machine& machine);

/// Structural verifier. Returns an empty string when the program is safe to
/// execute against a frame with `n_tiers` accumulators, or a description of
/// the first defect. Every index an instruction can carry is range-checked
/// here so the executors can run without per-access bounds checks.
std::string verify_program(const Program& program);

/// LLC-miss record written by profiled bursts, in access order. Mirrors the
/// interpreter's records exactly (same order index, address, write coin).
struct MissRecord {
  std::uint64_t order = 0;  ///< access index within the phase burst
  memsim::Address addr = 0;
  bool is_write = false;
};

struct SlotColumn;  // native.hpp

/// Mutable per-burst state shared by both backends. The engine fills it
/// from the live run (cache tables, tier accumulators, RNG state), executes
/// one phase burst, and reads the accumulated results back. The native
/// backend addresses the frame by offsetof displacements baked into its
/// code, and reads the bound phase's tables through it. The LLC way state
/// is the cache's own arrays, mutated in place: one tag row per set (the
/// ways' low tag dwords, then their high dwords: memsim::Cache::way_tag)
/// and one recency word per set (memsim::Cache::touch/evict define its
/// encoding).
struct Frame {
  std::uint64_t rng_state[4] = {0, 0, 0, 0};  ///< xoshiro256** state in/out
  double latency_ns = 0.0;          ///< out: summed in access order
  std::uint64_t misses = 0;         ///< out: LLC misses this burst
  std::uint64_t n_accesses = 0;     ///< in: burst length
  std::uint64_t* tier_sim = nullptr;  ///< [n_tiers] simulated bytes served
  /// Profiled bursts only: the miss with running count m (before the
  /// increment) is recorded at miss_out[m], so the buffer needs room for
  /// misses + n_accesses records. Null runs the burst unprofiled.
  MissRecord* miss_out = nullptr;
  std::uint64_t spill[2] = {0, 0};  ///< native spill slots (call-outs)
  std::uint64_t draw = 0;           ///< native spill slot (profiled draw)
  // LLC geometry + way state (memsim::Cache::Tables, flattened).
  std::uint32_t* tags = nullptr;     ///< sets rows of 2 * ways dwords
  std::uint64_t* order = nullptr;    ///< recency word per set
  std::uint64_t ways = 0;
  std::uint64_t line_shift = 0;
  std::uint64_t set_mask = 0;
  // The bound phase, as the native loop reads it (NativeKernel::run fills
  // these from a SlotTable; the bytecode VM reads its Program instead).
  const SlotColumn* columns = nullptr;  ///< one per alias column
  std::uint64_t n_cols = 0;
  std::uint64_t coin_mask = 0;
  std::uint64_t write_threshold = 0;
  std::uint64_t write_shift = 0;
  double llc_latency_ns = 0.0;
};

/// Executes one phase burst through the bytecode VM. The program must have
/// passed verify_program. `rng` is consumed exactly as the interpreter
/// would (frame.rng_state is ignored by this backend). With a non-null
/// frame.miss_out every LLC miss is recorded (profiled runs).
void run_bytecode(const Program& program, Frame& frame, Xoshiro256& rng);

}  // namespace hmem::engine::kernel
