// INI-style configuration files.
//
// The paper's framework components (hmem_advisor, auto-hbwmalloc) are driven
// by small configuration files describing the memory tiers and the runtime
// options (Figure 2 shows a `config` input on every stage). We mirror that
// with a simple `[section]` + `key = value` format, '#' and ';' comments.
// Any other line is a ConfigError naming its line number.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace hmem {

/// Parsed configuration: section -> key -> raw string value.
/// Keys outside any section land in the "" section.
class Config {
 public:
  /// Throws ConfigError on a line that is not blank, a comment, a
  /// `[section]` header or `key = value`.
  static Config parse(const std::string& text);

  /// Raw lookup; nullopt when section/key absent.
  std::optional<std::string> get(const std::string& section,
                                 const std::string& key) const;

  /// Typed lookups with defaults. Byte sizes accept unit suffixes via
  /// parse_bytes (e.g. "16G", "256M"). get_bool throws ConfigError on a
  /// value that is not a boolean.
  std::string get_string(const std::string& section, const std::string& key,
                         const std::string& fallback) const;
  long long get_int(const std::string& section, const std::string& key,
                    long long fallback) const;
  double get_double(const std::string& section, const std::string& key,
                    double fallback) const;
  bool get_bool(const std::string& section, const std::string& key,
                bool fallback) const;
  unsigned long long get_bytes(const std::string& section,
                               const std::string& key,
                               unsigned long long fallback) const;

  /// All section names, in first-appearance order.
  const std::vector<std::string>& sections() const { return section_order_; }

  /// All keys of one section, in first-appearance order.
  std::vector<std::string> keys(const std::string& section) const;

  void set(const std::string& section, const std::string& key,
           const std::string& value);

 private:
  std::map<std::string, std::map<std::string, std::string>> values_;
  std::map<std::string, std::vector<std::string>> key_order_;
  std::vector<std::string> section_order_;
};

}  // namespace hmem
