#include "trace/merge.hpp"

#include <cmath>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "trace/salvage.hpp"

namespace hmem::trace {

bool OffsetTraceReader::next(Event& out) {
  if (!inner_->next(out)) return false;
  if (offset_ == 0) return true;
  if (auto* alloc = std::get_if<AllocEvent>(&out)) {
    alloc->addr += offset_;
  } else if (auto* free_ev = std::get_if<FreeEvent>(&out)) {
    free_ev->addr += offset_;
  } else if (auto* sample = std::get_if<SampleEvent>(&out)) {
    sample->addr += offset_;
  }
  return true;
}

MergeTraceReader::MergeTraceReader(
    std::vector<std::unique_ptr<TraceReader>> inputs)
    : MergeTraceReader(std::move(inputs), MergeOptions{}) {}

MergeTraceReader::MergeTraceReader(
    std::vector<std::unique_ptr<TraceReader>> inputs, MergeOptions options)
    : inputs_(std::move(inputs)),
      slots_(inputs_.size()),
      tree_(inputs_.size()),
      options_(std::move(options)) {
  const std::size_t k = inputs_.size();
  // Play the initial tournament bottom-up: winners[n] is the winner of
  // node n's subtree, leaves are nodes k..2k-1. A first event must not lie
  // before time 0.
  std::vector<Key> winners(2 * k);
  for (std::size_t i = 0; i < k; ++i) winners[k + i] = refill(i, 0.0);
  for (std::size_t n = k; n-- > 1;) {
    const Key& a = winners[2 * n];
    const Key& b = winners[2 * n + 1];
    const bool a_first = before(a, b);
    winners[n] = a_first ? a : b;
    tree_[n] = a_first ? b : a;
  }
  if (k > 0) tree_[0] = winners[1];
}

double MergeTraceReader::pull(std::size_t source, double previous) {
  if (!inputs_[source]->next(slots_[source])) {
    return std::numeric_limits<double>::infinity();
  }
  const double t = event_time_ns(slots_[source]);
  if (std::isfinite(t) && t >= previous) return t;
  const std::string what =
      !std::isfinite(t) ? "non-finite event time " + std::to_string(t)
                        : "trace events out of time order: " +
                              std::to_string(t) + " ns after " +
                              std::to_string(previous) + " ns";
  throw FormatError(what, where(source));
}

ErrorContext MergeTraceReader::where(std::size_t source) const {
  ErrorContext context = inputs_[source]->where();
  if (context.file.empty() && source < options_.labels.size()) {
    context.file = options_.labels[source];
  }
  if (!context.shard) context.shard = source;
  return context;
}

MergeTraceReader::Key MergeTraceReader::refill(std::size_t source,
                                               double previous) {
  if (!options_.drop_failed_inputs) return Key{pull(source, previous), source};
  try {
    return Key{pull(source, previous), source};
  } catch (const std::exception& e) {
    // The input died mid-stream: its remaining events are gone, but the
    // other inputs still merge — a degraded aggregate beats no aggregate.
    const ErrorContext context = where(source);
    const std::string label = context.file.empty()
                                  ? "input " + std::to_string(source)
                                  : context.file;
    log_warn("trace salvage: dropping " + label + ": " + e.what());
    if (options_.report != nullptr) {
      options_.report->add_incident(e.what(), label, context.shard,
                                    context.chunk);
      ++options_.report->shards_dropped;
    }
    return Key{std::numeric_limits<double>::infinity(), source};
  }
}

void MergeTraceReader::replay(Key key) {
  for (std::size_t n = (inputs_.size() + key.source) / 2; n > 0; n /= 2) {
    const Key node = tree_[n];
    const bool swap = before(node, key);
    tree_[n] = swap ? key : node;
    key = swap ? node : key;
  }
  tree_[0] = key;
}

bool MergeTraceReader::next(Event& out) {
  if (inputs_.empty()) return false;
  const Key winner = tree_[0];
  if (std::isinf(winner.time)) return false;  // every input is exhausted
  out = std::move(slots_[winner.source]);
  replay(refill(winner.source, winner.time));
  return true;
}

}  // namespace hmem::trace
