/// \file comm_model.hpp
/// \brief Pluggable communication models for the round-based simulator.
///
/// The FO17 reproduction started out hardwired to per-edge CONGEST delivery:
/// the input graph *was* the communication graph, and the only bandwidth
/// notion was the statistics the simulator recorded. The follow-on
/// algorithms this repository targets (Broadcast-CONGEST even-cycle
/// detection, Congested Clique h-cycle detection) differ exactly in that
/// layer, so the model is a first-class object the Simulator is constructed
/// with:
///
///   * `CongestModel` ("congest") — the classic model. Communication links
///     are the input graph's edges; per-link bandwidth is accounted in
///     RunStats (bit totals, max_link_bits, normalized_rounds) but not
///     enforced, matching the repository's historical behaviour. This model
///     is the default everywhere and its runs are byte-identical to the
///     pre-model simulator.
///   * `BroadcastCongestModel` ("broadcast") — links are still the input
///     edges, but a node gets ONE B-bit broadcast per round: every message
///     it sends in a round must be byte-identical to the first one, and at
///     most B bits long. Violations throw CheckError at send time (loudly,
///     naming the node, round, and budget) — an algorithm claiming to be a
///     Broadcast-CONGEST algorithm is held to it. Sending on a subset of
///     ports is permitted (physically it broadcasts and some neighbors
///     ignore it), so send_all and selective sends both work.
///   * `CliqueModel` ("clique") — the Congested Clique: every ordered pair
///     of nodes is a link, whatever the input graph's edges. The model
///     builds K_n as the communication topology; the Simulator keeps the
///     *input* graph separate (algorithms still reason about its edges —
///     that is the object under test) and runs delivery over the clique
///     links with the same CSR reverse-port table, envelope arenas, and
///     timer wheel as CONGEST. Bandwidth is accounted, not enforced, like
///     CONGEST.
///
/// Models are stateless singletons (congest()/broadcast()/clique()) looked
/// up by name — the lab's `model=` axis — plus a constructible
/// BroadcastCongestModel for tests that want a custom B.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "graph/graph.hpp"

namespace decycle::congest {

/// Model discriminator. The numeric values are the bit positions of the
/// capability mask below, so the enum and the mask can never drift apart.
enum class CommModelKind : std::uint8_t { kCongest = 0, kBroadcastCongest = 1, kClique = 2 };

/// Capability-mask bit for \p kind (core::DetectorCapabilities::models).
[[nodiscard]] constexpr std::uint8_t model_bit(CommModelKind kind) noexcept {
  return static_cast<std::uint8_t>(1U << static_cast<unsigned>(kind));
}

inline constexpr std::uint8_t kModelCongest = model_bit(CommModelKind::kCongest);
inline constexpr std::uint8_t kModelBroadcast = model_bit(CommModelKind::kBroadcastCongest);
inline constexpr std::uint8_t kModelClique = model_bit(CommModelKind::kClique);
inline constexpr std::uint8_t kModelAll = kModelCongest | kModelBroadcast | kModelClique;

/// Canonical name for \p kind ("congest", "broadcast", "clique").
[[nodiscard]] std::string_view comm_model_kind_name(CommModelKind kind) noexcept;

/// Comma-separated canonical names of the models in \p mask, in kind order
/// (e.g. "congest, clique"). Empty mask yields "".
[[nodiscard]] std::string model_mask_names(std::uint8_t mask);

/// A communication model: who can talk to whom (the link graph) and what a
/// node may send per round (the bandwidth contract). Stateless and
/// thread-safe; one instance serves every Simulator.
class CommModel {
 public:
  virtual ~CommModel() = default;

  [[nodiscard]] virtual CommModelKind kind() const noexcept = 0;

  /// Canonical lookup name — the lab's `model=` axis value and JSONL tag.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// One-line description for listings and docs.
  [[nodiscard]] virtual std::string_view summary() const noexcept = 0;

  /// Per-node-per-round bandwidth in bits; 0 = accounted in RunStats but
  /// not enforced (CONGEST's O(log n) stays a statistics contract). Only
  /// the broadcast model enforces its budget at send time.
  [[nodiscard]] virtual std::uint64_t bandwidth_bits() const noexcept { return 0; }

  /// The communication topology for \p input. nullopt = communicate on the
  /// input graph itself (no extra storage); a value = the Simulator owns
  /// that graph as its link topology (the clique model returns K_n here).
  [[nodiscard]] virtual std::optional<graph::Graph> build_links(const graph::Graph& input) const;

  // --- registered singletons (the `model=` axis values) -------------------
  [[nodiscard]] static const CommModel& congest();
  [[nodiscard]] static const CommModel& broadcast();
  [[nodiscard]] static const CommModel& clique();

  /// nullptr when \p name is not a registered model name.
  [[nodiscard]] static const CommModel* find(std::string_view name) noexcept;

  /// Throws CheckError naming the known models when \p name is unknown.
  [[nodiscard]] static const CommModel& require(std::string_view name);

  /// "congest, broadcast, clique" — for loud parse errors and docs.
  [[nodiscard]] static std::string known_names();
};

/// The classic CONGEST model (see file comment). Links = input edges.
class CongestModel final : public CommModel {
 public:
  [[nodiscard]] CommModelKind kind() const noexcept override { return CommModelKind::kCongest; }
  [[nodiscard]] std::string_view name() const noexcept override { return "congest"; }
  [[nodiscard]] std::string_view summary() const noexcept override {
    return "per-edge CONGEST: links are the input edges, bandwidth accounted per link";
  }
};

/// Broadcast-CONGEST: one B-bit broadcast per node per round, enforced at
/// send time (see file comment). Constructible with a custom budget for
/// tests; the registered singleton uses kDefaultBandwidthBits.
class BroadcastCongestModel final : public CommModel {
 public:
  /// Default budget: a roomy O(log n) word — IDs are u64 varints (<= 80
  /// bits), so one identifier plus a tag always fits.
  static constexpr std::uint64_t kDefaultBandwidthBits = 256;

  explicit BroadcastCongestModel(std::uint64_t bandwidth_bits = kDefaultBandwidthBits) noexcept
      : bandwidth_bits_(bandwidth_bits) {}

  [[nodiscard]] CommModelKind kind() const noexcept override {
    return CommModelKind::kBroadcastCongest;
  }
  [[nodiscard]] std::string_view name() const noexcept override { return "broadcast"; }
  [[nodiscard]] std::string_view summary() const noexcept override {
    return "Broadcast-CONGEST: one identical B-bit message per node per round, "
           "enforced at send time";
  }
  [[nodiscard]] std::uint64_t bandwidth_bits() const noexcept override { return bandwidth_bits_; }

 private:
  std::uint64_t bandwidth_bits_;
};

/// The Congested Clique: all-to-all links over the input's vertex set (see
/// file comment).
class CliqueModel final : public CommModel {
 public:
  [[nodiscard]] CommModelKind kind() const noexcept override { return CommModelKind::kClique; }
  [[nodiscard]] std::string_view name() const noexcept override { return "clique"; }
  [[nodiscard]] std::string_view summary() const noexcept override {
    return "Congested Clique: every ordered pair is a link; the input graph stays "
           "the object under test";
  }
  [[nodiscard]] std::optional<graph::Graph> build_links(
      const graph::Graph& input) const override;
};

}  // namespace decycle::congest
