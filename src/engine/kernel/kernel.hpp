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
// `auto` consults the HMEM_KERNEL environment variable, then defaults to
// bytecode.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "engine/kernel/ir.hpp"

namespace hmem::engine::kernel {

enum class KernelKind {
  kAuto,      ///< HMEM_KERNEL env var, else bytecode
  kInterp,    ///< original interpreter loop (the oracle)
  kBytecode,  ///< compiled IR through the portable VM
  kNative,    ///< compiled IR through the x86-64 emitter
};

const char* kernel_name(KernelKind kind);

/// Parses "auto" / "interp" / "bytecode" / "native"; nullopt otherwise.
std::optional<KernelKind> parse_kernel(const std::string& name);

/// Comma-joined kernel names for --help texts.
std::string kernel_list();

/// Applies the fallback ladder: requested -> what actually runs. Never
/// fails; unsatisfiable requests degrade (native -> bytecode -> interp).
KernelKind resolve_kernel(KernelKind requested, bool cache_mode);

/// Same ladder; profiling does not change what runs. Kept for callers that
/// describe the run with a profiled flag.
inline KernelKind resolve_kernel(KernelKind requested, bool cache_mode,
                                 bool /*profiled*/) {
  return resolve_kernel(requested, cache_mode);
}

/// Read-mostly cache of compiled Programs, shared across sweep cells.
///
/// Compilation is deterministic, so any two cells that would compile the
/// same (app, phase, machine, placement-shape) produce byte-identical
/// streams — the sweep engine keys on exactly those inputs and reuses the
/// first compile. Cached entries store `gens` cleared: generator pointers
/// are per-run state, and a consumer must re-bind them from its own freshly
/// built SlotTargets before executing (verify_program rejects the program
/// until it does). Thread-safe; lookups take a shared lock, inserts an
/// exclusive one.
class ProgramCache {
 public:
  /// Returns the cached program for `key`, or nullptr. Counts a hit/miss.
  std::shared_ptr<const Program> find(const std::string& key);

  /// Stores `program` under `key` with its generator bindings cleared.
  /// First insert wins (compilation is deterministic, so a racing duplicate
  /// is byte-identical anyway); returns the resident entry.
  std::shared_ptr<const Program> insert(const std::string& key,
                                        Program program);

  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  /// hits / (hits + misses); 0 when no lookups have happened.
  double hit_rate() const;
  std::size_t size() const;

 private:
  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const Program>> entries_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace hmem::engine::kernel
