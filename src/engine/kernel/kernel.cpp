#include "engine/kernel/kernel.hpp"

#include <cstdlib>

#include "common/fault.hpp"
#include "engine/kernel/native.hpp"

namespace hmem::engine::kernel {

const char* kernel_name(KernelKind kind) {
  switch (kind) {
    case KernelKind::kAuto:
      return "auto";
    case KernelKind::kInterp:
      return "interp";
    case KernelKind::kBytecode:
      return "bytecode";
    case KernelKind::kNative:
      return "native";
  }
  return "?";
}

std::optional<KernelKind> parse_kernel(const std::string& name) {
  if (name == "auto") return KernelKind::kAuto;
  if (name == "interp") return KernelKind::kInterp;
  if (name == "bytecode") return KernelKind::kBytecode;
  if (name == "native") return KernelKind::kNative;
  return std::nullopt;
}

std::string kernel_list() { return "interp, bytecode, native, auto"; }

KernelKind select_kernel(KernelKind requested, bool cache_mode) {
  KernelKind kind = requested;
  if (kind == KernelKind::kAuto) {
    // The fastest rung the host supports; the ladder below drops to
    // bytecode when the native self-test did not pass.
    kind = KernelKind::kNative;
    if (const char* env = std::getenv("HMEM_KERNEL")) {
      // An unknown value keeps the default: the env var is a convenience
      // override, and a typo should not abort an otherwise valid run.
      const auto parsed = parse_kernel(env);
      if (parsed.has_value() && *parsed != KernelKind::kAuto) kind = *parsed;
    }
  }
  if (kind == KernelKind::kInterp) return kind;
  // The analytic cache-mode model interleaves rng.uniform() draws with the
  // access stream; only the interpreter implements it.
  if (cache_mode) return KernelKind::kInterp;
  if (kind == KernelKind::kNative && !native_available()) {
    kind = KernelKind::kBytecode;
  }
  return kind;
}

KernelKind resolve_kernel(KernelKind requested, bool cache_mode) {
  KernelKind kind = select_kernel(requested, cache_mode);
  // Injected compile failures walk the same ladder a real backend failure
  // would: native falls back to bytecode, bytecode to the interpreter.
  // Every rung computes identical results, so a fault here only changes
  // which engine runs, never what it produces.
  if (kind == KernelKind::kNative &&
      fault::inject(fault::Site::kKernelCompile)) {
    kind = KernelKind::kBytecode;
  }
  if (kind == KernelKind::kBytecode &&
      fault::inject(fault::Site::kKernelCompile)) {
    kind = KernelKind::kInterp;
  }
  return kind;
}

}  // namespace hmem::engine::kernel
