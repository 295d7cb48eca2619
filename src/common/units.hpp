// Byte-size parsing and formatting ("16G" <-> 17179869184).
//
// Memory-tier capacities and advisor budgets appear throughout configs and
// reports; keeping one parser avoids KB-vs-KiB drift. All suffixes are
// binary (K = 1024) because that is what memkind and numactl use.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace hmem {

inline constexpr std::uint64_t kKiB = 1024ULL;
inline constexpr std::uint64_t kMiB = 1024ULL * kKiB;
inline constexpr std::uint64_t kGiB = 1024ULL * kMiB;

/// Parses "4096", "4K", "256M", "16G", "1.5G" (case-insensitive, optional
/// trailing 'B' / "iB"). Returns nullopt on malformed input and on sizes
/// no uint64 holds (NaN, infinities, 2^64 bytes and more).
std::optional<std::uint64_t> parse_bytes(const std::string& text);

/// Renders bytes with the largest exact-ish unit: "256 MiB", "16 GiB",
/// "1.5 GiB", "512 B". Two decimals maximum, trailing zeros trimmed.
std::string format_bytes(std::uint64_t bytes);

}  // namespace hmem
