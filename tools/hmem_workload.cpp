// hmem_workload — the app-config DSL's companion tool.
//
// The bundled workloads are defined once, as configs/apps/*.ini embedded
// into the library; this tool lists them, prints any app as canonical INI
// (a starting point for a new scenario), and validates hand-written
// configs, so a config error is caught before a long profile run.
//
//   usage: hmem_workload <command> [args]
//     list               bundled app names, one per line
//     dump <app>         canonical INI of an app (bundled name or config
//                        file — dumping a file canonicalises it) to stdout
//     check <app.ini>    parse + validate a config; prints a one-line
//                        summary, exits 2 with the offending key on error
//
// Exit codes: 0 success, 2 usage/config error.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "apps/app_config.hpp"
#include "apps/workloads.hpp"
#include "common/units.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s list | dump <app> | check <app.ini>\n", argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hmem;
  if (argc < 2) usage(argv[0]);
  const std::string command = argv[1];

  if (command == "list") {
    if (argc != 2) usage(argv[0]);
    for (const auto& app : apps::all_apps())
      std::printf("%s\n", app.name.c_str());
    for (const auto& app : apps::phase_shift_apps())
      std::printf("%s\n", app.name.c_str());
    return 0;
  }

  if (command == "dump") {
    if (argc != 3) usage(argv[0]);
    std::string error;
    const auto app = apps::load_app(argv[2], &error);
    if (!app) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
    std::fputs(apps::to_config_text(*app).c_str(), stdout);
    return 0;
  }

  if (command == "check") {
    if (argc != 3) usage(argv[0]);
    std::string error;
    const auto app = apps::load_app_file(argv[2], &error);
    if (!app) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
    std::printf("%s: ok — app '%s', %zu object(s), %zu phase(s), %s/rank\n",
                argv[2], app->name.c_str(), app->objects.size(),
                app->phases.size(),
                format_bytes(app->total_footprint()).c_str());
    return 0;
  }

  usage(argv[0]);
}
