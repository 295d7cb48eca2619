// Multi-rank trace readers.
//
// A profiled multi-rank run produces one trace shard per rank. The
// aggregator wants a single time-ordered stream, so MergeTraceReader
// performs a k-way merge over any set of TraceReaders by event timestamp
// (stable: ties go to the lower input index). Combined with the format
// readers' site remapping into one shared SiteDb, k shards read exactly
// like one trace — this is what makes Figure 4's per-rank fast-tier
// budgets meaningful at scale.
//
// BufferTraceReader adapts an in-memory TraceBuffer to the pull interface
// so buffered and streamed paths can share every downstream consumer.
#pragma once

#include <memory>
#include <vector>

#include "trace/format.hpp"

namespace hmem::trace {

/// Shard address-space separation. Every simulated rank reuses the same
/// physical layout (DDR at 4 GiB, MCDRAM at 256 GiB), so two ranks' traces
/// contain colliding addresses; rebasing shard k by k * kRankAddressStride
/// keeps the merged stream's live ranges disjoint, which the aggregator's
/// address->object map requires. The stride clears any per-rank tier
/// capacity by orders of magnitude.
inline constexpr Address kRankAddressStride = 1ULL << 42;

/// Decorator that shifts every address-carrying event (alloc/free/sample)
/// of an input by a fixed offset; phase and counter events pass through.
class OffsetTraceReader final : public TraceReader {
 public:
  OffsetTraceReader(std::unique_ptr<TraceReader> inner, Address offset)
      : inner_(std::move(inner)), offset_(offset) {}

  bool next(Event& out) override;
  ErrorContext where() const override { return inner_->where(); }

 private:
  std::unique_ptr<TraceReader> inner_;
  Address offset_;
};

/// Pull-reads a TraceBuffer. Site ids are *not* remapped: the buffer must
/// already reference the SiteDb the consumer uses.
class BufferTraceReader final : public TraceReader {
 public:
  explicit BufferTraceReader(const TraceBuffer& buffer) : buffer_(&buffer) {}

  bool next(Event& out) override {
    if (pos_ >= buffer_->size()) return false;
    out = buffer_->events()[pos_++];
    return true;
  }

 private:
  const TraceBuffer* buffer_;
  std::size_t pos_ = 0;
};

/// Degraded-mode knobs for MergeTraceReader.
struct MergeOptions {
  /// An input that throws, yields a time the merge rejects, or was already
  /// dead at construction is treated as exhausted — its remaining events
  /// are lost, the merge continues with the surviving inputs — instead of
  /// propagating the exception.
  bool drop_failed_inputs = false;
  SalvageReport* report = nullptr;  ///< where dropped inputs are recorded
  /// Optional per-input labels (shard paths) for warnings and the report.
  std::vector<std::string> labels;
};

/// K-way timestamp merge over any number of readers. Each input must itself
/// be in non-decreasing time order (the writers guarantee this); the merged
/// stream then is too, with ties going to the lower input index.
///
/// Events never move through the ordering structure. Every input keeps its
/// one decoded head event in a slot; a loser (tournament) tree over plain
/// (time, input index) keys picks the next input in ceil(log2 k) compares,
/// and next() moves only the winning slot's event out before refilling that
/// slot. An exhausted input's key is +infinity, which no live input's
/// (finite) key can lose to. The keys' contract is checked where it is
/// needed: a non-finite time, a negative one, or one below that input's
/// previous time is a FormatError naming the input and its chunk — or,
/// under MergeOptions::drop_failed_inputs, ends that input like any other
/// failure.
class MergeTraceReader final : public TraceReader {
 public:
  explicit MergeTraceReader(std::vector<std::unique_ptr<TraceReader>> inputs);
  MergeTraceReader(std::vector<std::unique_ptr<TraceReader>> inputs,
                   MergeOptions options);

  bool next(Event& out) override;

 private:
  /// An input's place in the tournament: its head event's time and index.
  struct Key {
    double time;
    std::size_t source;
  };
  /// (time, index) order: ties go to the lower input index.
  static bool before(const Key& a, const Key& b) {
    return a.time < b.time || (a.time == b.time && a.source < b.source);
  }

  /// Pulls input `source`'s next event into its slot and returns its key:
  /// the event's time, or +infinity once the input is exhausted (or
  /// dropped). `previous` is the input's last time, 0 before its first.
  Key refill(std::size_t source, double previous);
  /// Pulls one event into the slot and returns its checked time;
  /// +infinity at end of input.
  double pull(std::size_t source, double previous);
  /// Input `source`'s where(), with its label and index filling what the
  /// reader does not know.
  ErrorContext where(std::size_t source) const;
  /// Replays the matches on `key.source`'s leaf-to-root path after its key
  /// changed, leaving the overall winner in tree_[0].
  void replay(Key key);

  std::vector<std::unique_ptr<TraceReader>> inputs_;
  std::vector<Event> slots_;  ///< each input's head event
  /// tree_[n] for n in [1, k) is the loser of internal node n's match
  /// (leaf of input i is node k + i, parent of node n is n / 2); tree_[0]
  /// is the overall winner. Nodes carry their keys, so a replay reads one
  /// node per level and never an input's state.
  std::vector<Key> tree_;
  MergeOptions options_;
};

}  // namespace hmem::trace
