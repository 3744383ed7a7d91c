/// \file comm_model.hpp
/// \brief The two communication models the round-based simulator runs.
///
/// A model decides only who can talk to whom; the Simulator it is bound to
/// keeps the input graph as the object under test either way:
///
///   * `congest` — the classic model and the default everywhere. The links
///     are the input graph's edges. Per-link bandwidth is accounted in
///     RunStats (bit totals, max_link_bits, normalized_rounds), not
///     enforced.
///   * `clique` — the Congested Clique: every pair of nodes is a link,
///     whatever the input's edges. The Simulator builds K_n as its link
///     topology and runs delivery over it with the same reverse-port table,
///     envelope arenas and timer wheel as CONGEST. Bandwidth is accounted,
///     not enforced.
///
/// The two instances are looked up by name — the lab's `model=` axis and
/// the daemon's `model=` key.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace decycle::congest {

/// Model discriminator. The numeric values are the bit positions of the
/// capability mask below, so the enum and the mask can never drift apart.
enum class CommModelKind : std::uint8_t { kCongest = 0, kClique = 1 };

/// Capability-mask bit for \p kind (core::DetectorCapabilities::models).
[[nodiscard]] constexpr std::uint8_t model_bit(CommModelKind kind) noexcept {
  return static_cast<std::uint8_t>(1U << static_cast<unsigned>(kind));
}

inline constexpr std::uint8_t kModelCongest = model_bit(CommModelKind::kCongest);
inline constexpr std::uint8_t kModelClique = model_bit(CommModelKind::kClique);
inline constexpr std::uint8_t kModelAll = kModelCongest | kModelClique;

/// Comma-separated names of the models in \p mask, in kind order (e.g.
/// "congest, clique"). Empty mask yields "".
[[nodiscard]] std::string model_mask_names(std::uint8_t mask);

/// A communication model: one of the two instances congest() and clique(),
/// compared by address. Immutable, so one instance serves every Simulator
/// and thread.
class CommModel {
 public:
  CommModel(const CommModel&) = delete;
  CommModel& operator=(const CommModel&) = delete;

  [[nodiscard]] CommModelKind kind() const noexcept { return kind_; }

  /// Lookup name — the `model=` value and the JSONL tag.
  [[nodiscard]] std::string_view name() const noexcept { return name_; }

  [[nodiscard]] static const CommModel& congest();
  [[nodiscard]] static const CommModel& clique();

  /// nullptr when \p name is not a model name.
  [[nodiscard]] static const CommModel* find(std::string_view name) noexcept;

  /// "congest, clique" — for parse errors and docs.
  [[nodiscard]] static std::string known_names();

 private:
  constexpr CommModel(CommModelKind kind, std::string_view name) noexcept
      : kind_(kind), name_(name) {}

  CommModelKind kind_;
  std::string_view name_;
};

}  // namespace decycle::congest
