// Tiny argv helpers shared by the hmem_* tools so their flag handling
// cannot drift apart.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "memsim/machine.hpp"

namespace hmem::tools {

/// Shared exit-code convention (common/error.hpp): 0 success, 2 usage or
/// configuration error, 3 data/IO error, 4 resource exhaustion.
using hmem::kExitData;
using hmem::kExitOk;
using hmem::kExitResource;
using hmem::kExitUsage;

/// Returns the value of the flag at argv[i], advancing i past it. Exits
/// with the usage status when the value is missing.
inline const char* cli_value(int argc, char** argv, int& i,
                             const char* flag) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "%s needs a value\n", flag);
    std::exit(2);
  }
  return argv[++i];
}

/// Parses all of `text` as a whole number in [min, max]. Exits with the
/// usage status, naming `what` (the flag or argument), on anything else:
/// trailing garbage, a sign, overflow, a value out of range.
inline std::uint64_t cli_count(
    const char* text, const char* what, std::uint64_t min = 0,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  char* end = nullptr;
  errno = 0;
  const std::uint64_t value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE ||
      std::strchr(text, '-') != nullptr || value < min || value > max) {
    if (max == std::numeric_limits<std::uint64_t>::max()) {
      std::fprintf(stderr, "%s: expected a whole number >= %llu, got '%s'\n",
                   what, static_cast<unsigned long long>(min), text);
    } else {
      std::fprintf(stderr,
                   "%s: expected a whole number from %llu to %llu, got '%s'\n",
                   what, static_cast<unsigned long long>(min),
                   static_cast<unsigned long long>(max), text);
    }
    std::exit(kExitUsage);
  }
  return value;
}

/// cli_count for int-valued settings (--ranks, --jobs).
inline int cli_int(const char* text, const char* what, int min) {
  return static_cast<int>(cli_count(text, what, static_cast<std::uint64_t>(min),
                                    std::numeric_limits<int>::max()));
}

/// Parses all of `text` as a finite real number. Exits with the usage
/// status, naming `what`, on anything else.
inline double cli_real(const char* text, const char* what) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value)) {
    std::fprintf(stderr, "%s: expected a number, got '%s'\n", what, text);
    std::exit(kExitUsage);
  }
  return value;
}

/// True for "--something" tokens: an unknown one is a user error, not a
/// positional argument.
inline bool cli_is_flag(const char* arg) {
  return std::strncmp(arg, "--", 2) == 0;
}

/// Comma-separated preset list for usage texts: "knl, spr-hbm, ...".
inline std::string machine_preset_list() {
  return memsim::machine_preset_list();
}

/// Resolves a --machine argument (preset name or machine config file);
/// prints the error and returns nullopt on failure.
inline std::optional<memsim::MachineConfig> load_machine(
    const std::string& arg) {
  std::string error;
  auto machine = memsim::load_machine_config(arg, &error);
  if (!machine) std::fprintf(stderr, "--machine: %s\n", error.c_str());
  return machine;
}

/// Validates the HMEM_FAULTS environment schedule at tool startup. A typo
/// disarms injection (library behavior) — but a tool should say so rather
/// than silently run fault-free.
inline void cli_init_faults() {
  const std::string err = fault::configure_from_env();
  if (!err.empty())
    std::fprintf(stderr, "warning: HMEM_FAULTS ignored: %s\n", err.c_str());
}

/// Installs a --faults schedule (overriding HMEM_FAULTS). Exits with the
/// usage status on a malformed spec.
inline void cli_configure_faults(const char* spec) {
  const std::string err = fault::configure(spec);
  if (!err.empty()) {
    std::fprintf(stderr, "--faults: %s\n", err.c_str());
    std::exit(kExitUsage);
  }
}

/// Standard tail of a tool's catch(const std::exception&) block: print the
/// error, return the taxonomy's exit code for it.
inline int cli_fail(const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return exit_code_for(e);
}

}  // namespace hmem::tools
