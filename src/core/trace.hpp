/// \file trace.hpp
/// \brief Structured execution traces for Phase 2.
///
/// Research code lives or dies by observability: reviewers want to see WHICH
/// sequence was pruned at WHICH node and round, not just the final verdict.
/// A TraceSink attached to DetectParams records every seed / receive / keep /
/// drop / send / reject event; tests assert on pruning decisions directly,
/// and the walkthrough tooling renders paper-style narratives from the
/// stream. The sink is mutex-protected so queries running in parallel
/// engine lanes may share one sink (events are sorted by (round, node, kind)
/// for deterministic inspection).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/sequence.hpp"

namespace decycle::core {

struct TraceEvent {
  enum class Kind : std::uint8_t {
    kSeed,     ///< endpoint emitted its initial (myid) sequence
    kReceive,  ///< sequence arrived (post my-id filter, pre pruning)
    kKeep,     ///< pruning accepted the sequence for forwarding
    kDrop,     ///< pruning discarded the sequence
    kSend,     ///< sequence (with own ID appended) broadcast
    kReject,   ///< final check fired; sequence holds the witness cycle IDs
  };

  Kind kind;
  std::uint64_t round;  ///< simulator phase round g
  NodeId node;
  IdSeq sequence;
};

[[nodiscard]] const char* trace_kind_name(TraceEvent::Kind kind) noexcept;

class TraceSink {
 public:
  void record(TraceEvent event);

  /// Sorted snapshot (round, node, kind, sequence).
  [[nodiscard]] std::vector<TraceEvent> events() const;

  [[nodiscard]] std::size_t count(TraceEvent::Kind kind) const;
  [[nodiscard]] std::vector<TraceEvent> events_for(NodeId node) const;

  /// Multi-line human-readable rendering ("round 2: node 3 kept (1 2)").
  [[nodiscard]] std::string render() const;

  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
};

}  // namespace decycle::core
