// The one argv parser of the hmem_* tools. Each tool describes its flags
// once, as an X-macro row list in flags.hpp; the typed result struct, the
// parser and the usage text are all generated from that list, so they
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
#include <type_traits>
#include <utility>
#include <vector>

#include "apps/app_config.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/units.hpp"
#include "memsim/machine.hpp"

namespace hmem::tools {

/// Shared exit-code convention (common/error.hpp): 0 success, 2 usage or
/// configuration error, 3 data/IO error, 4 resource exhaustion.
using hmem::kExitData;
using hmem::kExitOk;
using hmem::kExitUsage;

/// Prints "<what>: <message>" and exits with the usage status.
[[noreturn]] inline void cli_usage_error(const char* what,
                                         const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", what, message.c_str());
  std::exit(kExitUsage);
}

/// cli_usage_error with "expected <expected>, got '<text>'".
[[noreturn]] inline void cli_bad_value(const char* what,
                                       const std::string& expected,
                                       const char* text) {
  cli_usage_error(what, "expected " + expected + ", got '" + text + "'");
}

/// Parses all of `text` as a whole number in [min, max]. Exits with the
/// usage status, naming `what` (the flag or argument), on anything else:
/// a leading sign or blank, trailing garbage, overflow, a value out of
/// range.
inline std::uint64_t cli_count(
    const char* text, const char* what, std::uint64_t min = 0,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  char* end = nullptr;
  errno = 0;
  const std::uint64_t value = std::strtoull(text, &end, 10);
  if (*text < '0' || *text > '9' || *end != '\0' || errno == ERANGE ||
      value < min || value > max) {
    cli_bad_value(what,
                  "a whole number " +
                      (max == std::numeric_limits<std::uint64_t>::max()
                           ? ">= " + std::to_string(min)
                           : "from " + std::to_string(min) + " to " +
                                 std::to_string(max)),
                  text);
  }
  return value;
}

/// Parses all of `text` as a finite real number in [min, max]. Exits with
/// the usage status, naming `what`, on anything else.
inline double cli_real(const char* text, const char* what, double min,
                       double max) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value) || value < min ||
      value > max) {
    char expected[64];
    std::snprintf(expected, sizeof(expected), "a number from %g to %g", min,
                  max);
    cli_bad_value(what, expected, text);
  }
  return value;
}

/// Resolves a machine argument (preset name or machine config file). Exits
/// with the usage status, naming `what`, when it is neither.
inline memsim::MachineConfig cli_machine(const std::string& arg,
                                         const char* what = "--machine") {
  std::string error;
  auto machine = memsim::load_machine_config(arg, &error);
  if (!machine) cli_usage_error(what, error);
  return *machine;
}

/// Loads the app a tool runs: the --app-config file if given, else the
/// <app> positional (a bundled name or a config file). Exits with the usage
/// status when it cannot.
inline apps::AppSpec cli_app(const std::optional<std::string>& app_config,
                             const std::vector<std::string>& positional) {
  std::string error;
  auto app = app_config ? apps::load_app_file(*app_config, &error)
                        : apps::load_app(positional.front(), &error);
  if (!app) {
    std::fprintf(stderr, "%s\n", error.c_str());
    std::exit(kExitUsage);
  }
  return std::move(*app);
}

/// Arms fault injection: the HMEM_FAULTS schedule, then a --faults spec
/// (which overrides it). A malformed HMEM_FAULTS disarms injection (library
/// behavior), so the tool warns rather than silently run fault-free; a
/// malformed --faults spec is a usage error.
inline void cli_faults(const std::optional<std::string>& spec) {
  const std::string env_error = fault::configure_from_env();
  if (!env_error.empty()) {
    std::fprintf(stderr, "warning: HMEM_FAULTS ignored: %s\n",
                 env_error.c_str());
  }
  const std::string error = spec ? fault::configure(*spec) : "";
  if (!error.empty()) cli_usage_error("--faults", error);
}

/// Standard tail of a tool's catch(const std::exception&) block: print the
/// error, return the taxonomy's exit code for it.
inline int cli_fail(const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return exit_code_for(e);
}

// ---- Flag tables ----------------------------------------------------------
//
// A flag row is X(field, "--name", kind, "help"). `kind` is one of the
// makers below; it fixes the row's value type (the type of `field` in the
// generated struct), its metavar and how the value is checked. Every check
// failure exits with the usage status, naming the flag.
namespace cli {

enum class Kind { kBool, kCount, kReal, kSize, kChoice, kText };

/// A switch: present or not.
struct Bool {
  using value_type = bool;
  static constexpr Kind kind = Kind::kBool;
  const char* metavar = "";
  void assign(bool& out, const char*, const char*) const { out = true; }
};

/// A whole number in [min, max], parsed by cli_count.
template <class T>
struct Count {
  using value_type = std::optional<T>;
  static constexpr Kind kind = Kind::kCount;
  const char* metavar;
  std::uint64_t min, max;
  void assign(value_type& out, const char* flag, const char* text) const {
    out = static_cast<T>(cli_count(text, flag, min, max));
  }
};

/// A finite real in [min, max], parsed by cli_real.
struct Real {
  using value_type = std::optional<double>;
  static constexpr Kind kind = Kind::kReal;
  const char* metavar;
  double min, max;
  void assign(value_type& out, const char* flag, const char* text) const {
    out = cli_real(text, flag, min, max);
  }
};

/// A value a library parser maps from its text: a byte size, or one name
/// of a fixed list (the list, "a|b|c", doubles as the metavar).
template <class T>
struct Parsed {
  using value_type = std::optional<T>;
  Kind kind;
  std::optional<T> (*parse)(const std::string&);
  const char* metavar;
  const char* expected;
  void assign(value_type& out, const char* flag, const char* text) const {
    out = parse(text);
    if (!out) cli_bad_value(flag, expected, text);
  }
};

/// A string the tool checks. A path must not be empty; a repeating row
/// (V = a vector) collects every occurrence in order, others keep the last.
template <class V>
struct Text {
  using value_type = V;
  static constexpr Kind kind = Kind::kText;
  const char* metavar;
  bool non_empty;
  void assign(value_type& out, const char* flag, const char* text) const {
    if (non_empty && *text == '\0') cli_bad_value(flag, "a value", text);
    if constexpr (std::is_same_v<V, std::vector<std::string>>) {
      out.emplace_back(text);
    } else {
      out = text;
    }
  }
};

using One = std::optional<std::string>;
using Many = std::vector<std::string>;

constexpr Bool flag() { return {}; }
template <class T = std::uint64_t>
constexpr Count<T> count(const char* meta, std::uint64_t min = 0,
                         std::uint64_t max = std::numeric_limits<T>::max()) {
  return {meta, min, max};
}
constexpr Real real(const char* meta, double min, double max) {
  return {meta, min, max};
}
constexpr Parsed<std::uint64_t> size(const char* meta) {
  return {Kind::kSize, parse_bytes, meta, "a size such as 256M or 1.5G"};
}
template <class T>
constexpr Parsed<T> choice(std::optional<T> (*parse)(const std::string&),
                           const char* names) {
  return {Kind::kChoice, parse, names, names};
}
constexpr Text<One> text(const char* meta) { return {meta, false}; }
constexpr Text<One> path(const char* meta) { return {meta, true}; }
constexpr Text<Many> texts(const char* meta) { return {meta, false}; }
constexpr Text<Many> paths(const char* meta) { return {meta, true}; }

}  // namespace cli

#define HMEM_CLI_FIELD(field, name, kind, help) \
  typename decltype(::hmem::tools::cli::kind)::value_type field{};
#define HMEM_CLI_VISIT(field, name, kind, help) \
  visit(name, ::hmem::tools::cli::kind, help, field);

/// Defines `Struct`: one typed field per row of `ROWS`, the positionals,
/// the usage synopsis, and for_each(visit), which calls
/// visit(name, kind, help, field) once per row in table order.
#define HMEM_CLI_FLAGS(Struct, ROWS, synopsis)                  \
  struct Struct {                                               \
    static constexpr const char* kSynopsis = synopsis;          \
    ROWS(HMEM_CLI_FIELD)                                        \
    std::vector<std::string> positional;                        \
    template <class Visit>                                      \
    void for_each(Visit&& visit) {                              \
      ROWS(HMEM_CLI_VISIT)                                      \
    }                                                           \
  }

/// Prints the usage text of a flag table to stderr and exits with the
/// usage status.
template <class Flags>
[[noreturn]] void usage() {
  std::fprintf(stderr, "usage: %s\n", Flags::kSynopsis);
  Flags flags;
  flags.for_each([](const char* name, const auto& kind, const char* help,
                    auto&) {
    std::string head = name;
    if (kind.kind != cli::Kind::kBool) head += std::string(" ") + kind.metavar;
    std::fprintf(stderr, "  %-36s  %s\n", head.c_str(), help);
  });
  std::fprintf(stderr, "machine presets: %s\n",
               memsim::machine_preset_list().c_str());
  std::exit(kExitUsage);
}

/// Parses argv against a flag table. Tokens starting with "--" must name a
/// row; every other token is a positional. An unknown flag, a missing value
/// or a malformed one exits with the usage status, naming the flag.
template <class Flags>
Flags parse(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) {
      flags.positional.emplace_back(arg);
      continue;
    }
    bool known = false;
    flags.for_each([&](const char* name, const auto& kind, const char*,
                       auto& field) {
      if (known || std::strcmp(arg, name) != 0) return;
      known = true;
      const char* value = nullptr;
      if (kind.kind != cli::Kind::kBool) {
        if (i + 1 >= argc) cli_usage_error(name, "needs a value");
        value = argv[++i];
      }
      kind.assign(field, name, value);
    });
    if (!known) {
      std::fprintf(stderr, "unknown option %s\n", arg);
      usage<Flags>();
    }
  }
  return flags;
}

}  // namespace hmem::tools
