#include "common/config.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/units.hpp"

namespace hmem {

Config Config::parse(const std::string& text) {
  Config cfg;
  std::string section;
  std::size_t line_no = 0;
  for (const std::string& raw_line : split(text, '\n')) {
    ++line_no;
    std::string line = trim(raw_line);
    // Strip comments ('#' or ';') that are not inside a value; values never
    // legitimately contain those characters in our configs.
    const auto comment = line.find_first_of("#;");
    if (comment != std::string::npos) line = trim(line.substr(0, comment));
    if (line.empty()) continue;
    if (line.front() == '[' && line.back() == ']') {
      section = trim(line.substr(1, line.size() - 2));
      if (std::find(cfg.section_order_.begin(), cfg.section_order_.end(),
                    section) == cfg.section_order_.end()) {
        cfg.section_order_.push_back(section);
      }
      continue;
    }
    // Anything else is a typo (an unclosed header, a key without '='), and
    // silently skipping it would quietly drop a setting.
    const auto eq = line.find('=');
    const std::string key =
        eq == std::string::npos ? std::string() : trim(line.substr(0, eq));
    if (key.empty()) {
      throw ConfigError("config line " + std::to_string(line_no) +
                        ": expected [section] or key = value, got '" + line +
                        "'");
    }
    cfg.set(section, key, trim(line.substr(eq + 1)));
  }
  return cfg;
}

void Config::set(const std::string& section, const std::string& key,
                 const std::string& value) {
  auto& sec = values_[section];
  if (sec.find(key) == sec.end()) key_order_[section].push_back(key);
  sec[key] = value;
  if (std::find(section_order_.begin(), section_order_.end(), section) ==
      section_order_.end()) {
    section_order_.push_back(section);
  }
}

std::optional<std::string> Config::get(const std::string& section,
                                       const std::string& key) const {
  const auto sec = values_.find(section);
  if (sec == values_.end()) return std::nullopt;
  const auto it = sec->second.find(key);
  if (it == sec->second.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(const std::string& section,
                               const std::string& key,
                               const std::string& fallback) const {
  return get(section, key).value_or(fallback);
}

long long Config::get_int(const std::string& section, const std::string& key,
                          long long fallback) const {
  const auto v = get(section, key);
  if (!v) return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(v->c_str(), &end, 10);
  return (end != nullptr && *end == '\0') ? parsed : fallback;
}

double Config::get_double(const std::string& section, const std::string& key,
                          double fallback) const {
  const auto v = get(section, key);
  if (!v) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  return (end != nullptr && *end == '\0') ? parsed : fallback;
}

bool Config::get_bool(const std::string& section, const std::string& key,
                      bool fallback) const {
  const auto v = get(section, key);
  if (!v) return fallback;
  const std::string lower = to_lower(*v);
  if (lower == "true" || lower == "yes" || lower == "on" || lower == "1")
    return true;
  if (lower == "false" || lower == "no" || lower == "off" || lower == "0")
    return false;
  throw ConfigError("config " +
                    (section.empty() ? "" : "[" + section + "] ") + key +
                    ": expected a boolean (true/false, yes/no, on/off, 1/0), "
                    "got '" + *v + "'");
}

unsigned long long Config::get_bytes(const std::string& section,
                                     const std::string& key,
                                     unsigned long long fallback) const {
  const auto v = get(section, key);
  if (!v) return fallback;
  const auto parsed = parse_bytes(*v);
  return parsed ? *parsed : fallback;
}

std::vector<std::string> Config::keys(const std::string& section) const {
  const auto it = key_order_.find(section);
  if (it == key_order_.end()) return {};
  return it->second;
}

}  // namespace hmem
