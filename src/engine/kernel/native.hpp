// Optional x86-64 native backend for the access kernel.
//
// Emits one System V x86-64 function per run — for the run's LLC geometry
// and profiling mode, and for nothing else — that executes any verified
// program (engine/kernel/ir.hpp) bound to it as data. Binding builds a
// SlotTable: one SlotColumn per alias column (threshold, plus the record
// and kind of the column's own slot and of its alias) and one SlotRecord
// per slot (instance pool and count, stack base and line count, generator
// kind, offset clamp, fixed tier and latency, and a copy of the
// generator's inline state, copied in before each burst and back after).
// The loop reads the table, the coin mask and the write coin through the
// Frame. A new live set or a migration rebinds the table; it never
// re-emits code.
//
// Per access the loop steps xoshiro256** (held in callee-saved registers
// for the whole burst), loads the drawn column, and selects the record and
// kind with cmov. A slot is data, not a jump target: the only per-access
// branches are on the kind, which comes from the column's load, so they
// resolve early. An in-range single-instance walk falls through on one
// untaken branch; every other kind leaves through it to one out-of-line
// path: a single-instance random object first, then the stack line or
// instance index drawn from the main RNG (Lemire, the rejection threshold
// computed only on the rare path; a single-instance object draws nothing,
// exactly as the interpreter does), then the offset by shape. Walks (add,
// compare, cmov), random draws (a xoshiro256** step plus Lemire) and
// random-permute cursors (a table load and a wrapping cursor) step the
// record's copy of the generator state (apps/workload_gen.hpp); zipf,
// pointer-chase and bursty call out through one extern "C" shim (their
// streams are independent, so a C call is bit-identity-safe). Offsets are
// clamped exactly as the interpreter clamps them, except where binding
// proved a walk or random stream cannot pass its object. The LLC probe is
// an SSE2 tag match on the set's row, which holds the ways' low tag dwords
// first and their high dwords after them (memsim::Cache::way_tag): the
// tag's low dword is broadcast into xmm2 and compared four ways per 16-byte
// unaligned load (every load ends inside the row; a one-way row loads its
// one dword), packed to one bit per way with pmovmskb. Any low-dword
// candidate takes the single jne to an out-of-line path, where bsf picks
// the lowest candidate and its high dword confirms it or passes to the
// next — Cache::access's first match. Almost every simulated access
// misses, so that path is rare. SSE2 is the x86-64 baseline, so there is
// no CPUID dispatch. The recency-word update is inline (pop/push on a miss,
// SWAR splice on a hit — memsim::Cache::evict/touch). The latency sum
// stays in a register. Profiled bursts keep each access's draw and, on a
// miss, store {access index, address, write coin} into the frame's miss
// buffer. Code is placed in W^X pages through common/exec_alloc.hpp:
// mapped writable, sealed read-execute before the first call.
//
// The backend is compiled in only on x86-64 POSIX builds with the
// HMEM_NATIVE_KERNEL CMake option on; everywhere else native_available()
// returns false and emit() fails, which the kernel resolver turns into a
// silent fallback to the bytecode VM. Availability includes a one-time
// emit-and-execute self-test differenced against run_bytecode: one loop per
// geometry and mode is bound to two different programs in succession —
// stack, walk, random, permute, call-out and pick (n = 1 and n > 1) slots,
// unprofiled and profiled (miss records compared one by one), at 4, 16 and
// 3 LLC ways, each group of slot shapes made to both hit and miss — so a
// mis-assembling toolchain or a hardened-kernel mmap policy degrades to the
// portable path instead of corrupting results or traces.
#pragma once

#include <cstdint>
#include <vector>

#include "common/exec_alloc.hpp"
#include "engine/kernel/ir.hpp"

namespace hmem::engine::kernel {

/// True when the native backend can be used at all: compiled in, executable
/// pages available, and the one-time self-test against the bytecode VM
/// passed. Evaluated once per process.
bool native_available();

/// How a slot finds its address, which is also all the emitted loop
/// branches on: the offset shape in the low bits, plus kDrawsMain when the
/// slot draws below(bound) from the main RNG (a stack line or an instance
/// pick) and kClamped on a walk or random stream whose offsets can pass its
/// object's end (other walks and random streams skip the clamp; permute
/// and call-out offsets always take it). Zero — a single-instance walk
/// that stays inside its object — falls through.
enum SlotKind : std::uint8_t {
  kShapeWalk = 0,     ///< LineWalk, stepped inline
  kShapeRandom = 1,   ///< RandomLines, stepped inline
  kShapePermute = 2,  ///< PermuteLines, stepped inline
  kShapeCall = 3,     ///< AccessGenerator::next_offset() through the shim
  kShapeStack = 4,    ///< no offset: the drawn stack line
  kShapeMask = 7,
  kDrawsMain = 8,
  kClamped = 16,
};

/// One slot as the emitted loop reads it. The first three words mirror
/// InstanceSlot, so a slot that draws no instance serves from its own
/// record. An inline generator's state is copied into `state` for each
/// burst and stepped there, at a fixed offset from the record, and copied
/// back after it.
struct SlotRecord {
  std::uint64_t base = 0;      ///< fixed serve: address (stack: its base)
  double latency_ns = 0.0;     ///< fixed serve: miss latency
  std::uint64_t tier = 0;      ///< fixed serve: owning tier
  /// LineWalk, RandomLines or PermuteLines, as laid out in the generator.
  alignas(8) unsigned char state[40] = {};
  std::uint64_t clamp = 0;     ///< offsets at or past it map to 0
  std::uint64_t kind = kShapeWalk;     ///< SlotKind
  const InstanceSlot* pool = nullptr;  ///< picks: the slot's instances
  std::uint64_t bound = 0;     ///< pick instance count / stack line count
  /// Call-outs: the AccessGenerator; inline shapes: the state's home.
  void* gen = nullptr;
  std::uint64_t state_bytes = 0;  ///< bytes of `state` in use
};

/// One alias column: the program's threshold, and the records and kinds of
/// both slots it can select. The loop's shape branch then waits on one
/// load after the column draw, and the selected record is a cmov.
struct SlotColumn {
  std::uint64_t threshold = 0;
  const SlotRecord* rec = nullptr;        ///< the column's own slot
  const SlotRecord* alias_rec = nullptr;  ///< the alias slot
  std::uint8_t kind = 0;                  ///< SlotKind of rec
  std::uint8_t alias_kind = 0;            ///< SlotKind of alias_rec
};
static_assert(sizeof(SlotColumn) == 32, "the emitted loop bakes the stride");

/// The per-phase data an emitted loop runs: a verified program's alias
/// columns and write coin, plus one SlotRecord per slot. Rebinding after a
/// live-set or address epoch is a table rebuild, with no code emitted.
class SlotTable {
 public:
  SlotTable() = default;
  // The columns point into the records: a copy would point into its source.
  SlotTable(const SlotTable&) = delete;
  SlotTable& operator=(const SlotTable&) = delete;

  /// Builds the tables for `program`, which must have passed
  /// verify_program and must stay alive and unmodified while bound — the
  /// records point into its instance pool and at its generators. Returns
  /// false (the caller runs the bytecode VM instead) when two slots share
  /// one generator, whose state could then not be stepped in one place.
  bool bind(const Program& program);

 private:
  friend class NativeKernel;
  const Program* program_ = nullptr;
  std::vector<SlotColumn> columns_;
  std::vector<SlotRecord> records_;
};

class NativeKernel {
 public:
  NativeKernel() = default;
  NativeKernel(const NativeKernel&) = delete;
  NativeKernel& operator=(const NativeKernel&) = delete;

  /// Emits the access loop for one LLC geometry (the constants from
  /// memsim::Cache::tables()); `profiled` emits the miss-record path.
  /// Returns false (kernel left empty) when the backend is unavailable;
  /// the caller falls back to the bytecode VM.
  bool emit(std::uint32_t ways, std::uint32_t line_shift,
            std::uint64_t set_mask, bool profiled);

  bool ok() const { return entry_ != nullptr; }

  /// Executes one burst of the program bound to `table`. frame.rng_state
  /// carries the xoshiro256** state in and out; latency_ns / misses /
  /// tier_sim accumulate, the LLC tags / recency words and the generators'
  /// state change, and a profiled kernel writes frame.miss_out exactly as
  /// run_bytecode would. frame.miss_out must be set exactly when the kernel
  /// was emitted profiled; the table fields of the frame are filled here.
  void run(SlotTable& table, Frame& frame) const;

 private:
  ExecutableAllocator alloc_;
  void* entry_ = nullptr;
  bool profiled_ = false;
};

}  // namespace hmem::engine::kernel
