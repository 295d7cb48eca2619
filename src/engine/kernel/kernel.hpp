// Kernel selection for the execution engine's access loop.
//
// Three backends execute the per-access simulation, all bit-identical on
// every RunResult field (the differential tests assert it):
//   * interp   — the original loop in engine/execution.cpp; the oracle.
//   * bytecode — the portable compiled IR (engine/kernel/ir.hpp).
//   * native   — the x86-64 emitter (engine/kernel/native.hpp), optional.
// Selection resolves through a fallback ladder, never an error: an explicit
// `native` request on a machine without the backend silently runs bytecode;
// the cache-mode condition always runs the interpreter (its analytic
// memory-side-cache model draws from the main RNG mid-access, which the
// compiled kernels deliberately do not model). Profiled runs resolve like
// any other flat-mode run: both compiled backends write miss records.
// `auto` consults the HMEM_KERNEL environment variable, then picks native
// when native_available() (the self-tested check), else bytecode.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "engine/kernel/ir.hpp"

namespace hmem::engine::kernel {

enum class KernelKind {
  kAuto,      ///< HMEM_KERNEL env var, else native if available
  kInterp,    ///< original interpreter loop (the oracle)
  kBytecode,  ///< compiled IR through the portable VM
  kNative,    ///< compiled IR through the x86-64 emitter
};

const char* kernel_name(KernelKind kind);

/// Parses "auto" / "interp" / "bytecode" / "native"; nullopt otherwise.
std::optional<KernelKind> parse_kernel(const std::string& name);

/// Comma-joined kernel names for --help texts.
std::string kernel_list();

/// The fallback ladder without injected faults: auto and HMEM_KERNEL
/// resolved, cache mode forced to interp, native dropped to bytecode when
/// unavailable. Side-effect free, so reports can name the kernel a run
/// uses without consuming a fault-injection draw.
KernelKind select_kernel(KernelKind requested, bool cache_mode);

/// Applies the fallback ladder: requested -> what actually runs. Never
/// fails; unsatisfiable requests degrade (native -> bytecode -> interp),
/// and an armed kernel_compile fault drops a further rung.
KernelKind resolve_kernel(KernelKind requested, bool cache_mode);

/// Same ladder; profiling does not change what runs. Kept for callers that
/// describe the run with a profiled flag.
inline KernelKind resolve_kernel(KernelKind requested, bool cache_mode,
                                 bool /*profiled*/) {
  return resolve_kernel(requested, cache_mode);
}

}  // namespace hmem::engine::kernel
