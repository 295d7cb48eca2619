// The bundled workloads: the paper's eight evaluation applications and two
// phase-shifting stress workloads, each defined once as
// configs/apps/<name>.ini (embedded into the library at build time; the
// file's header comment gives the app's rationale and its mapping to the
// paper's observations), plus the parametric Stream Triad kernel.
#pragma once

#include <optional>
#include <vector>

#include "apps/app.hpp"

namespace hmem::apps {

/// Stream Triad with a given thread count (Figure 1's x-axis).
AppSpec make_stream_triad(int threads);

/// The two phase-shifting stress workloads — not in the paper's Table I.
/// They are the scenarios the static pipeline structurally cannot serve:
/// the hot set moves between phases, so a fast tier smaller than the union
/// of the hot sets can only win by being time-multiplexed (the dynamic
/// condition).
///
///  * churn     — two persistent arrays alternate as the hot set between
///                two phases (plus a churned small-buffer site whose
///                hotness alternates too): the dynamic schedule migrates
///                the live arrays at every phase boundary.
///  * transient — three phases, each with its own phase-scoped transient
///                hot array: the dynamic schedule wins purely through
///                allocation-time routing (each transient is born into the
///                budget its phase owns), no migration needed.
std::vector<AppSpec> phase_shift_apps();

/// All eight evaluation applications, in the paper's order.
std::vector<AppSpec> all_apps();

/// Lookup by name ("hpcg", "lulesh", "bt", "minife", "cgpop", "snap",
/// "maxw-dgtd", "gtc-p", plus the phase-shifting "churn" and "transient");
/// empty on unknown names.
std::optional<AppSpec> find_app(const std::string& name);

/// Like find_app, but asserts on unknown names.
AppSpec app_by_name(const std::string& name);

}  // namespace hmem::apps
