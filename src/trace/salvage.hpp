// Chunk-level trace salvage: read as much of a damaged shard as the
// format's framing allows, and account for exactly what was lost.
//
// Binary v2 was designed for this — every event chunk carries its event
// count and payload size, and delta state resets at chunk boundaries — so
// a chunk whose payload fails its CRC (or decodes to garbage) can be
// dropped without desynchronizing the rest of the stream. Damage to the
// framing itself (a truncated header, an unknown tag) makes everything
// after it unreadable; salvage then keeps the events already decoded and
// abandons the tail. Text traces degrade line-by-line: malformed lines
// are skipped and counted.
//
// The strict contract (throw FormatError on the first malformed byte) is
// still the default everywhere; salvage is opt-in via
// ReaderOptions::salvage or the RecoveringTraceReader below.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "trace/format.hpp"

namespace hmem::trace {

/// One recorded salvage event: what went wrong and where.
struct SalvageIncident {
  std::string what;                  ///< the error the strict reader threw
  std::string file;                  ///< shard path/label, if known
  std::optional<std::size_t> shard;  ///< shard index, if known
  std::optional<std::size_t> chunk;  ///< binary chunk index, if known
};

/// Accumulated damage accounting. One report may be shared by several
/// readers (a whole multi-shard replay front writes into one).
struct SalvageReport {
  std::uint64_t chunks_dropped = 0;   ///< event chunks skipped (whole/part)
  std::uint64_t events_dropped = 0;   ///< events lost with those chunks
  std::uint64_t bytes_dropped = 0;    ///< payload bytes not decoded
  std::uint64_t tails_abandoned = 0;  ///< streams cut short by framing damage
  std::uint64_t shards_dropped = 0;   ///< whole shards given up on

  /// First kMaxIncidents incidents, verbatim; incidents_total keeps the
  /// real count when the cap is hit.
  static constexpr std::size_t kMaxIncidents = 64;
  std::vector<SalvageIncident> incidents;
  std::uint64_t incidents_total = 0;

  bool clean() const { return incidents_total == 0 && shards_dropped == 0; }

  void add_incident(std::string what, std::string file = "",
                    std::optional<std::size_t> shard = std::nullopt,
                    std::optional<std::size_t> chunk = std::nullopt);
  void merge_from(const SalvageReport& other);

  /// "salvage: dropped 1 chunk (4096 events, 12345 bytes), 1 tail" — or
  /// "salvage: clean".
  std::string summary() const;
};

/// A TraceReader that never throws for data damage: it opens the
/// underlying stream with salvage forced on, absorbs any residual error
/// into the report, and simply ends the stream early when nothing more
/// can be read. Construction itself does not throw on a damaged header —
/// the reader starts out exhausted and the report says why.
class RecoveringTraceReader final : public TraceReader {
 public:
  /// Sniffs the format. `options.salvage` is implied; if `options.report`
  /// is null the reader's own report is used.
  RecoveringTraceReader(std::istream& in, callstack::SiteDb& sites,
                        ReaderOptions options = {});

  bool next(Event& out) override;
  ErrorContext where() const override {
    return inner_ ? inner_->where() : ErrorContext{source_, shard_, {}};
  }

  const SalvageReport& report() const { return *report_; }
  /// True once the stream was abandoned (header damage or a stream-level
  /// read failure). Remaining events, if any already decoded, were
  /// delivered before this flipped.
  bool dead() const { return dead_; }

 private:
  std::unique_ptr<TraceReader> inner_;
  SalvageReport own_report_;
  SalvageReport* report_;
  std::string source_;
  std::optional<std::size_t> shard_;
  bool dead_ = false;
};

}  // namespace hmem::trace
