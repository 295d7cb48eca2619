// Optional x86-64 native backend for the access kernel.
//
// Emits the same program the bytecode VM executes (engine/kernel/ir.hpp)
// as a straight-line System V x86-64 function: the xoshiro256** generator
// lives in callee-saved registers for the whole burst, the alias table and
// every per-slot constant (addresses, tiers, miss latencies, Lemire
// rejection thresholds) are baked as immediates, and the latency sum stays
// in a register. The per-access path is branch-light:
//   * Lookahead dispatch. xoshiro256**'s output depends only on the state
//     before it advances, so each block, right after its own extra draws,
//     computes the next access's draw, column, alias decision and block
//     entry without side effects and parks the entry in Frame::next_block.
//     The loop top advances the generator and jumps there; the indirect
//     jump resolves while the current access's probe is still in flight.
//   * SSE2 tag match. The tag is broadcast into xmm2 and compared two ways
//     per 16-byte load (an odd last way loaded alone, so no read passes the
//     tag array), packed to one bit per dword with pmovmskb; whole-tag
//     matches take the single jne to the hit path, where bsf picks the
//     lowest way — Cache::access's first match. SSE2 is the x86-64
//     baseline, so there is no CPUID dispatch.
// The recency-word update is inline (pop/push on a miss, SWAR splice on a
// hit — memsim::Cache::evict/touch, emitted without a call). Per-object
// offsets are inline too: seq/stride walks (add, compare, cmov), random
// draws (a xoshiro256** step on the object's own state plus Lemire) and
// random-permute cursors step the generator's state in place
// (apps/workload_gen.hpp). Only zipf, pointer-chase and bursty call out,
// through one extern "C" shim (their streams are independent, so a C call
// is bit-identity-safe). Profiled bursts keep each access's draw and, on a
// miss, store {access index, address, write coin} into the frame's miss
// buffer. Code is placed in W^X pages through common/exec_alloc.hpp: mapped
// writable, sealed read-execute before the first call.
//
// The backend is compiled in only on x86-64 POSIX builds with the
// HMEM_NATIVE_KERNEL CMake option on; everywhere else native_available()
// returns false and compile() fails, which the kernel resolver turns into
// a silent fallback to the bytecode VM. Availability includes a one-time
// emit-and-execute self-test differenced against run_bytecode — stack,
// walk, random, permute, pick and call-out blocks, unprofiled and profiled
// (miss records compared one by one), at 4, 16 and 3 LLC ways, each block
// shape made to both hit and miss — so a mis-assembling toolchain or a
// hardened-kernel mmap policy degrades to the portable path instead of
// corrupting results or traces.
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

class NativeKernel {
 public:
  NativeKernel() = default;
  NativeKernel(const NativeKernel&) = delete;
  NativeKernel& operator=(const NativeKernel&) = delete;

  /// Emits machine code for `program` against the given LLC geometry (the
  /// constants from memsim::Cache::tables()). The program must have passed
  /// verify_program and must stay alive and unmodified for the lifetime of
  /// the emitted code — its table buffers and its generators' inline state
  /// are baked in by address. `profiled` emits the miss-record path. Returns
  /// false (kernel left empty) when the backend is unavailable or a
  /// constant does not fit the emitted encoding; the caller falls back to
  /// the bytecode VM.
  bool compile(const Program& program, std::uint32_t ways,
               std::uint32_t line_shift, std::uint64_t set_mask,
               bool profiled);

  bool ok() const { return entry_ != nullptr; }

  /// Executes one burst. frame.rng_state carries the xoshiro256** state in
  /// and out; latency_ns / misses / tier_sim accumulate, the LLC tags /
  /// recency words and the generators' state change, and a profiled kernel
  /// writes frame.miss_out exactly as run_bytecode would. frame.miss_out
  /// must be set exactly when the kernel was compiled profiled.
  void run(Frame& frame) const;

 private:
  ExecutableAllocator alloc_;
  void* entry_ = nullptr;
  bool profiled_ = false;
  /// Per-slot entry addresses, indexed by the alias sample; each block's
  /// lookahead loads the next access's entry from here (the vector's
  /// address is baked) into Frame::next_block for the loop top's jump.
  std::vector<std::uint64_t> jump_table_;
};

}  // namespace hmem::engine::kernel
