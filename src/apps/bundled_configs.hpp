// The bundled app configs (configs/apps/<name>.ini), embedded into the
// library at build time by embed_configs.cmake. apps/workloads.cpp parses
// them; nothing else should need this header.
#pragma once

#include <span>

namespace hmem::apps::detail {

struct BundledConfig {
  const char* name;  ///< app name, also the INI file's stem
  const char* text;  ///< the INI file's contents
};

/// The eight paper apps, in the paper's order.
std::span<const BundledConfig> paper_configs();

/// The two phase-shifting stress apps.
std::span<const BundledConfig> phase_shift_configs();

}  // namespace hmem::apps::detail
