#include "common/units.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/strings.hpp"

namespace hmem {

std::optional<std::uint64_t> parse_bytes(const std::string& text) {
  const std::string s = trim(text);
  if (s.empty()) return std::nullopt;
  char* end = nullptr;
  const double value = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || value < 0) return std::nullopt;
  std::string suffix = to_lower(trim(std::string(end)));
  // Accept "", "b", "k", "kb", "kib", ... .
  if (!suffix.empty() && suffix.back() == 'b') suffix.pop_back();
  if (!suffix.empty() && suffix.back() == 'i') suffix.pop_back();
  double multiplier = 1.0;
  if (suffix.empty()) {
    multiplier = 1.0;
  } else if (suffix == "k") {
    multiplier = static_cast<double>(kKiB);
  } else if (suffix == "m") {
    multiplier = static_cast<double>(kMiB);
  } else if (suffix == "g") {
    multiplier = static_cast<double>(kGiB);
  } else if (suffix == "t") {
    multiplier = static_cast<double>(kGiB) * 1024.0;
  } else {
    return std::nullopt;
  }
  const double bytes = value * multiplier;
  // Reject what no uint64 can hold: NaN, infinities and anything >= 2^64
  // (the negated compare is false for NaN too).
  constexpr double kTwo63 = 9223372036854775808.0;
  if (!(bytes < 2 * kTwo63)) return std::nullopt;
  // Every double in [2^63, 2^64) is an integer, so the cast is exact;
  // below that llround keeps rounding fractional byte counts.
  if (bytes >= kTwo63) return static_cast<std::uint64_t>(bytes);
  return static_cast<std::uint64_t>(std::llround(bytes));
}

std::string format_bytes(std::uint64_t bytes) {
  const char* unit = "B";
  double value = static_cast<double>(bytes);
  if (bytes >= kGiB) {
    value /= static_cast<double>(kGiB);
    unit = "GiB";
  } else if (bytes >= kMiB) {
    value /= static_cast<double>(kMiB);
    unit = "MiB";
  } else if (bytes >= kKiB) {
    value /= static_cast<double>(kKiB);
    unit = "KiB";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", value);
  std::string num(buf);
  // Trim trailing zeros and a dangling dot: "16.00" -> "16", "1.50" -> "1.5".
  while (!num.empty() && num.back() == '0') num.pop_back();
  if (!num.empty() && num.back() == '.') num.pop_back();
  return num + " " + unit;
}

}  // namespace hmem
