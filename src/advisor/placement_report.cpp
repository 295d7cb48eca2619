#include "advisor/placement_report.hpp"

#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace hmem::advisor {

namespace {

void write_object_line(std::ostringstream& os, const ObjectInfo& obj) {
  os << obj.name << " | " << obj.max_size_bytes << " | " << obj.llc_misses
     << " | " << obj.stack.to_string() << '\n';
}

[[noreturn]] void malformed(const std::string& line) {
  throw FormatError("malformed placement report line: " + line);
}

ObjectInfo parse_object_line(const std::string& line, bool is_dynamic) {
  const auto fields = split(line, '|');
  if (fields.size() != 4) malformed(line);
  ObjectInfo obj;
  obj.name = trim(fields[0]);
  // The trimmed strings must outlive the *end check: strtoull's end pointer
  // aims into them.
  char* end = nullptr;
  const std::string size_field = trim(fields[1]);
  obj.max_size_bytes = std::strtoull(size_field.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') malformed(line);
  const std::string misses_field = trim(fields[2]);
  obj.llc_misses = std::strtoull(misses_field.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') malformed(line);
  if (!callstack::SymbolicCallStack::from_string(trim(fields[3]), obj.stack))
    malformed(line);
  obj.is_dynamic = is_dynamic;
  return obj;
}

std::uint64_t parse_u64_value(const std::string& value,
                              const std::string& line) {
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(value.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') malformed(line);
  return v;
}

void put_count(std::string& key, std::uint64_t value) {
  key += std::to_string(value);
  key += ';';
}

void put_text(std::string& key, const std::string& text) {
  put_count(key, text.size());
  key += text;
}

}  // namespace

std::string write_placement_report(const Placement& placement) {
  std::ostringstream os;
  os << "# hmem_advisor placement report\n";
  os << "strategy = " << strategy_name(placement.strategy) << '\n';
  os << "threshold_pct = " << placement.threshold_pct << '\n';
  os << "enforced_fast_budget = " << placement.enforced_fast_budget_bytes
     << '\n';
  os << "lb_size = " << placement.lb_size << '\n';
  os << "ub_size = " << placement.ub_size << '\n';
  for (const auto& tier : placement.tiers) {
    os << "[tier " << tier.tier_name << " budget=" << tier.budget_bytes
       << "]\n";
    for (const auto& obj : tier.objects) write_object_line(os, obj);
  }
  if (!placement.static_recommendations.empty()) {
    os << "[static recommendations]\n";
    for (const auto& obj : placement.static_recommendations)
      write_object_line(os, obj);
  }
  return os.str();
}

Placement read_placement_report(const std::string& text) {
  Placement placement;
  bool in_static = false;
  TierPlacement* current_tier = nullptr;

  for (const std::string& raw : split(text, '\n')) {
    const std::string line = trim(raw);
    if (line.empty() || line[0] == '#') continue;

    if (line.front() == '[' && line.back() == ']') {
      const std::string header = trim(line.substr(1, line.size() - 2));
      if (header == "static recommendations") {
        in_static = true;
        current_tier = nullptr;
        continue;
      }
      if (!starts_with(header, "tier ")) malformed(line);
      in_static = false;
      TierPlacement tp;
      std::string rest = trim(header.substr(5));
      const auto budget_pos = rest.find("budget=");
      if (budget_pos == std::string::npos) malformed(line);
      tp.tier_name = trim(rest.substr(0, budget_pos));
      tp.budget_bytes =
          parse_u64_value(trim(rest.substr(budget_pos + 7)), line);
      placement.tiers.push_back(std::move(tp));
      current_tier = &placement.tiers.back();
      continue;
    }

    const auto eq = line.find('=');
    if (eq != std::string::npos && line.find('|') == std::string::npos) {
      const std::string key = trim(line.substr(0, eq));
      const std::string value = trim(line.substr(eq + 1));
      if (key == "strategy") {
        const auto s = parse_strategy(value);
        if (!s) malformed(line);
        placement.strategy = *s;
      } else if (key == "threshold_pct") {
        placement.threshold_pct = std::strtod(value.c_str(), nullptr);
      } else if (key == "enforced_fast_budget") {
        placement.enforced_fast_budget_bytes = parse_u64_value(value, line);
      } else if (key == "lb_size") {
        placement.lb_size = parse_u64_value(value, line);
      } else if (key == "ub_size") {
        placement.ub_size = parse_u64_value(value, line);
      }
      // Unknown keys are ignored for forward compatibility.
      continue;
    }

    // Object line.
    if (in_static) {
      placement.static_recommendations.push_back(
          parse_object_line(line, /*is_dynamic=*/false));
    } else {
      if (current_tier == nullptr) malformed(line);
      ObjectInfo obj = parse_object_line(line, /*is_dynamic=*/true);
      current_tier->footprint_bytes += obj.footprint_bytes();
      current_tier->profit_misses += obj.llc_misses;
      current_tier->objects.push_back(std::move(obj));
    }
  }
  if (placement.tiers.empty())
    throw FormatError("placement report contains no tiers");
  return placement;
}

std::string runtime_key(const Placement& placement) {
  std::string key;
  put_count(key, placement.tiers.size());
  put_count(key, placement.enforced_fast_budget_bytes);
  put_count(key, placement.lb_size);
  put_count(key, placement.ub_size);
  for (std::size_t t = 0; t < placement.tiers.size(); ++t) {
    const TierPlacement& tier = placement.tiers[t];
    put_count(key, tier.budget_bytes);
    // The last tier is the fallback: its objects are never matched.
    if (t + 1 == placement.tiers.size()) break;
    put_count(key, tier.objects.size());
    for (const ObjectInfo& obj : tier.objects) {
      put_count(key, obj.stack.frames.size());
      for (const callstack::CodeLocation& frame : obj.stack.frames) {
        put_text(key, frame.module);
        put_text(key, frame.function);
        put_count(key, frame.line);
      }
    }
  }
  return key;
}

}  // namespace hmem::advisor
