// INI-driven application descriptions (the app-config DSL).
//
// An AppSpec — the declarative memory-object signature the whole pipeline
// runs on — is written as a small INI file, so new multi-phase scenarios
// need zero recompilation:
//
//   [app]
//   name = demo
//   fom_unit = GB/s
//   iterations = 40
//
//   [object hot]
//   size = 256M
//   pattern = zipf
//   zipf_alpha = 1.1
//
//   [object cold]
//   size = 2G
//   pattern = seq
//
//   [phase main]
//   access_share = 1
//   weights = hot:0.8 cold:0.2
//
// Object sections appear in allocation order (placement policies are
// first-come-first-served); phase weights reference objects by name.
// Parsing mirrors MachineConfig::from_config: any structural problem
// throws std::runtime_error("app config: ...") naming the offending
// section or key, and tools turn that into exit code 2.
//
// The ten bundled workloads are defined only as configs/apps/<name>.ini,
// embedded into the library at build time (apps/workloads.hpp serves
// them); apart from comments, each file is its app's canonical text.
#pragma once

#include <optional>
#include <string>

#include "apps/app.hpp"
#include "common/config.hpp"

namespace hmem::apps {

/// Builds a validated AppSpec from a parsed config. Throws
/// std::runtime_error on any structural or semantic error. Prefer
/// from_config_text when the raw text is available: Config::parse merges
/// duplicate [section] headers silently, so only the text-level entry
/// point can reject a config declaring one phase or object twice.
AppSpec from_config(const Config& config);

/// Parses INI text (duplicate-section check + Config::parse + from_config).
AppSpec from_config_text(const std::string& text);

/// Canonical INI text for a spec: from_config_text(to_config_text(s)) == s
/// for every valid spec (doubles print with shortest round-trip precision).
std::string to_config_text(const AppSpec& spec);

/// Reads and parses an app config file. Returns nullopt and fills *error
/// (when non-null) on open or parse failure.
std::optional<AppSpec> load_app_file(const std::string& path,
                                     std::string* error);

/// Resolves an app argument the way load_machine_config resolves machines:
/// bundled app name first, then an app config file path.
std::optional<AppSpec> load_app(const std::string& arg, std::string* error);

}  // namespace hmem::apps
