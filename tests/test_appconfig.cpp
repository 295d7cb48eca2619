// Tests for the app-config DSL (apps/app_config.hpp): error paths with the
// offending key named, canonical round-trips, and the goldens that pin the
// shipped configs/apps/*.ini (the bundled apps' only definition) to the
// embedded set and to their canonical text hashes.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/app_config.hpp"
#include "apps/workloads.hpp"

namespace hmem::apps {
namespace {

std::vector<AppSpec> bundled_apps() {
  auto apps = all_apps();
  for (auto& app : phase_shift_apps()) apps.push_back(std::move(app));
  return apps;
}

std::string shipped_config_path(const std::string& name) {
  return std::string(HMEM_REPO_DIR) + "/configs/apps/" + name + ".ini";
}

/// Minimal valid config the error-path tests mutate.
constexpr const char* kValidConfig = R"(
[app]
name = demo

[object hot]
size = 1M
pattern = zipf
zipf_alpha = 1.1

[object cold]
size = 4M

[phase main]
access_share = 1
weights = hot:0.7 cold:0.3
)";

/// The parse must throw std::runtime_error whose message contains every
/// given needle (the offending section/key), per the DSL's error contract.
void expect_error(const std::string& text,
                  const std::vector<std::string>& needles) {
  try {
    from_config_text(text);
    FAIL() << "config parsed but should have been rejected:\n" << text;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("app config:"), std::string::npos) << what;
    for (const auto& needle : needles) {
      EXPECT_NE(what.find(needle), std::string::npos)
          << "error message '" << what << "' does not name '" << needle << "'";
    }
  }
}

TEST(AppConfig, ParsesMinimalValidConfig) {
  const AppSpec spec = from_config_text(kValidConfig);
  EXPECT_EQ(spec.name, "demo");
  ASSERT_EQ(spec.objects.size(), 2u);
  EXPECT_EQ(spec.objects[0].pattern, AccessPattern::kZipf);
  EXPECT_DOUBLE_EQ(spec.objects[0].zipf_alpha, 1.1);
  ASSERT_EQ(spec.phases.size(), 1u);
  EXPECT_DOUBLE_EQ(spec.phases[0].object_weights[0], 0.7);
  EXPECT_EQ(validate(spec), "");
}

// --------------------------------------------------------- error paths ----
// One test per malformed-INI path the tools surface as exit 2: hmem_run /
// hmem_profile / hmem_advise print exactly these load_app_file errors, so
// the contract tested here is the contract the CLI reports.

TEST(AppConfigErrors, DuplicatePhaseSection) {
  expect_error(std::string(kValidConfig) + "\n[phase main]\naccess_share = 1\n",
               {"[phase main]", "declared twice"});
}

TEST(AppConfigErrors, DuplicateObjectSection) {
  expect_error(std::string(kValidConfig) + "\n[object hot]\nsize = 2M\n",
               {"[object hot]", "declared twice"});
}

TEST(AppConfigErrors, ZeroSizeObject) {
  std::string text = kValidConfig;
  const auto pos = text.find("size = 4M");
  text.replace(pos, 9, "size = 0 ");
  expect_error(text, {"[object cold]", "size must be a positive byte count"});
}

TEST(AppConfigErrors, MissingObjectSize) {
  expect_error("[app]\nname = x\n[object a]\npattern = seq\n"
               "[phase p]\naccess_share = 1\nweights = a:1\n",
               {"[object a]", "size missing"});
}

TEST(AppConfigErrors, UnknownGeneratorKind) {
  std::string text = kValidConfig;
  const auto pos = text.find("pattern = zipf");
  text.replace(pos, 14, "pattern = warp");
  expect_error(text, {"[object hot]", "unknown pattern 'warp'"});
}

TEST(AppConfigErrors, MissingAppSection) {
  expect_error("[object a]\nsize = 1M\n[phase p]\naccess_share = 1\n",
               {"missing [app] section"});
}

TEST(AppConfigErrors, MissingAppName) {
  expect_error("[app]\nfom_unit = z\n[object a]\nsize = 1M\n"
               "[phase p]\naccess_share = 1\nweights = a:1\n",
               {"[app] name missing"});
}

TEST(AppConfigErrors, WeightsReferenceUnknownObject) {
  std::string text = kValidConfig;
  const auto pos = text.find("weights = hot:0.7 cold:0.3");
  text.replace(pos, 26, "weights = hot:0.7 warm:0.3");
  expect_error(text, {"[phase main]", "unknown object 'warm'"});
}

TEST(AppConfigErrors, WeightsListObjectTwice) {
  std::string text = kValidConfig;
  const auto pos = text.find("weights = hot:0.7 cold:0.3");
  text.replace(pos, 26, "weights = hot:0.7 hot:0.30");
  expect_error(text, {"[phase main]", "'hot' twice"});
}

TEST(AppConfigErrors, MalformedWeightToken) {
  std::string text = kValidConfig;
  const auto pos = text.find("weights = hot:0.7 cold:0.3");
  text.replace(pos, 26, "weights = hot:0.7 cold:x.3");
  expect_error(text, {"[phase main]", "malformed weight"});
}

TEST(AppConfigErrors, WeightTokenWithoutColon) {
  std::string text = kValidConfig;
  const auto pos = text.find("weights = hot:0.7 cold:0.3");
  text.replace(pos, 26, "weights = hot:0.7 cold    ");
  expect_error(text, {"[phase main]", "must be object:weight"});
}

TEST(AppConfigErrors, UnknownTransientPhase) {
  expect_error(std::string(kValidConfig) + "\n[object tmp]\nsize = 1M\n"
                                           "transient_phase = solve\n",
               {"[object tmp]", "unknown phase 'solve'"});
}

TEST(AppConfigErrors, UnnamedObjectSection) {
  expect_error("[app]\nname = x\n[object]\nsize = 1M\n",
               {"[object] section needs a name"});
}

TEST(AppConfigErrors, UnrecognisedSection) {
  expect_error(std::string(kValidConfig) + "\n[objects typo]\nsize = 1M\n",
               {"unrecognised section [objects typo]"});
}

TEST(AppConfigErrors, ValidationFailureIsWrapped) {
  std::string text = kValidConfig;
  const auto pos = text.find("access_share = 1");
  text.replace(pos, 16, "access_share = .5");
  expect_error(text, {});  // validate()'s message, wrapped as app config:
}

// ---------------------------------------------------------- round trips ---

TEST(AppConfig, CanonicalTextRoundTripsEveryBundledApp) {
  for (const auto& app : bundled_apps()) {
    const std::string text = to_config_text(app);
    const AppSpec reparsed = from_config_text(text);
    EXPECT_TRUE(reparsed == app) << app.name << " config:\n" << text;
  }
}

TEST(AppConfig, LoadAppResolvesBundledNamesAndReportsUnknown) {
  std::string error;
  const auto hpcg = load_app("hpcg", &error);
  ASSERT_TRUE(hpcg.has_value());
  EXPECT_TRUE(*hpcg == app_by_name("hpcg"));
  EXPECT_FALSE(load_app("no-such-app", &error).has_value());
  EXPECT_NE(error.find("no-such-app"), std::string::npos);
  EXPECT_NE(error.find("hpcg"), std::string::npos);  // lists bundled names
}

// ------------------------------------------------------------- goldens ----
// The shipped configs/apps/*.ini are the only definition of the bundled
// apps: the build embeds them into the library. These tests pin the
// embedded set to the files on disk and every app's canonical text to a
// recorded hash, so an edit that changes any simulated byte is a
// deliberate one.

/// The text without its comment lines (those starting with '#').
std::string without_comment_lines(const std::string& text) {
  std::istringstream in(text);
  std::string out;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind('#', 0) != 0) out += line + '\n';
  }
  return out;
}

TEST(AppConfigGolden, ShippedConfigsAreByteIdenticalToGeneratedText) {
  // Hand-written comments aside, each shipped file is already canonical.
  for (const auto& app : bundled_apps()) {
    std::ifstream in(shipped_config_path(app.name));
    ASSERT_TRUE(in) << "missing shipped config for " << app.name;
    std::ostringstream text;
    text << in.rdbuf();
    EXPECT_EQ(without_comment_lines(text.str()),
              without_comment_lines(
                  to_config_text(from_config_text(text.str()))))
        << app.name;
  }
}

TEST(AppConfigGolden, ShippedConfigFilesAreExactlyTheBundledApps) {
  // A file added to configs/apps/ but not to the embedded list (or the
  // reverse) fails here.
  std::set<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(HMEM_REPO_DIR) + "/configs/apps")) {
    if (entry.path().extension() == ".ini")
      files.insert(entry.path().stem().string());
  }
  std::set<std::string> names;
  for (const auto& app : bundled_apps()) names.insert(app.name);
  EXPECT_EQ(files, names);
}

TEST(AppConfigGolden, CanonicalTextHashesArePinned) {
  const auto fnv1a64 = [](const std::string& text) {
    std::uint64_t hash = 1469598103934665603ULL;
    for (const unsigned char c : text) {
      hash ^= c;
      hash *= 1099511628211ULL;
    }
    return hash;
  };
  const std::vector<std::pair<std::string, std::uint64_t>> pinned = {
      {"hpcg", 0x347d5202dbb34354ULL},      {"lulesh", 0xc383da6d2a2415b3ULL},
      {"bt", 0x90651d5bbfcab1efULL},        {"minife", 0xcb81f1fc9630dbc5ULL},
      {"cgpop", 0x1454c9ae182e65a0ULL},     {"snap", 0xc33647b8580f3549ULL},
      {"maxw-dgtd", 0x30cc4af287acc206ULL}, {"gtc-p", 0x54b3a6442f9a6335ULL},
      {"churn", 0x3b39c6044e9fb5cdULL},     {"transient", 0x65e2bc4a118923a2ULL},
  };
  const std::vector<AppSpec> apps = bundled_apps();
  ASSERT_EQ(apps.size(), pinned.size());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    // Order too: all_apps() is the paper's order, then the stress apps.
    EXPECT_EQ(apps[i].name, pinned[i].first);
    EXPECT_EQ(fnv1a64(to_config_text(apps[i])), pinned[i].second)
        << apps[i].name;
  }
}

}  // namespace
}  // namespace hmem::apps
