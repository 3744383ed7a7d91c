/// \file protocol.hpp
/// \brief The decycle_serve wire protocol: length-prefixed frames and a
/// typed request grammar with loud, alternative-naming errors.
///
/// Framing. A frame is `<decimal byte length> <payload>\n` — the ASCII
/// length of the payload, one space, the payload bytes, one newline. The
/// prefix makes the stream self-delimiting (payloads may not contain
/// newlines today, but the framing never has to change when they do), and
/// keeping it ASCII keeps `nc -U` sessions and repro files human-readable.
/// FrameReader is the incremental decoder both the socket daemon and the
/// fuzz tests drive: feed arbitrary byte slices, pop complete payloads,
/// and get a typed error (not a crash, not a hang) on garbage.
///
/// Requests. A payload is `<verb> key=value key=value …`, in the
/// ScenarioSpec::parse tradition: unknown verbs, unknown or repeated keys,
/// values util/kv.hpp's parse_value refuses, unknown algorithms/models,
/// capability-violating (algo, k, model) combinations, and oversized edge
/// batches are each rejected with an error that names the offender and the
/// accepted alternatives, so a typo'd client never silently runs the
/// default workload.
///
/// Replies reuse the framing. The first token classifies the outcome:
///   `OK <verb> …`           success, verb-specific fields follow
///   `REJECTED overload …`   admission control shed the request (never an
///                           error — the client should back off and retry)
///   `ERROR <code> <detail>` typed failure; <code> is stable for programs,
///                           <detail> is for humans and names alternatives.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "congest/comm_model.hpp"
#include "core/detector.hpp"
#include "incremental/stream.hpp"

namespace decycle::serve {

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Hard ceiling a reader enforces before trusting a length prefix. Large
/// enough for a max-size insert batch reply, small enough that a garbled
/// prefix cannot make the reader buffer gigabytes.
inline constexpr std::size_t kMaxFrameBytes = 1 << 22;  // 4 MiB

/// Encodes one frame: "<len> <payload>\n".
[[nodiscard]] std::string encode_frame(std::string_view payload);

/// Incremental frame decoder. Not thread-safe; one per connection.
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_frame_bytes = kMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  enum class Status : std::uint8_t {
    kFrame,     ///< a complete payload was produced
    kNeedMore,  ///< the buffered bytes end mid-frame; feed more
    kError,     ///< the stream is garbled; error() explains, stream is dead
  };

  /// Appends raw bytes from the transport.
  void feed(std::string_view bytes);

  /// Pops the next complete payload into \p payload. After kError the
  /// reader refuses further frames (a garbled length prefix desynchronizes
  /// the stream for good — resynchronizing would risk executing a payload
  /// fragment as a request).
  [[nodiscard]] Status next(std::string& payload);

  /// Human-readable reason once next() returned kError.
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  /// True when EOF at this point would be mid-frame (a truncated stream).
  [[nodiscard]] bool mid_frame() const noexcept { return !buffer_.empty(); }

 private:
  std::size_t max_frame_bytes_;
  std::string buffer_;
  std::string error_;
  bool dead_ = false;
};

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Stable machine-readable error codes (the second reply token).
enum class ErrorCode : std::uint8_t {
  kBadFrame,        ///< framing violation (bad prefix, oversize, truncation)
  kBadRequest,      ///< unknown verb/key or unparsable value
  kUnknownTenant,   ///< tenant name not in the store
  kTenantExists,    ///< create on a name that is already a tenant
  kCapability,      ///< (algo, k, model) outside the detector's capabilities
  kOversizedBatch,  ///< insert batch exceeds the server's edge cap
  kBadInsert,       ///< self-loop / out-of-range endpoint in an edge batch
  kShuttingDown,    ///< server is draining; no new work admitted
  kInternal,        ///< handler threw (bug; detail carries the what())
};

[[nodiscard]] std::string_view error_code_name(ErrorCode code) noexcept;

/// Thrown by parse_request (and server-side validation): a typed error the
/// server formats into an `ERROR <code> <detail>` reply.
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(ErrorCode code, const std::string& detail)
      : std::runtime_error(detail), code_(code) {}
  [[nodiscard]] ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

enum class Verb : std::uint8_t {
  kCreate,      ///< create tenant=<t> n=<n> [family=<f> k=<k> seed=<s>]
  kInsert,      ///< insert tenant=<t> edges=<u>-<v>,<u>-<v>,…
  kQuery,       ///< query tenant=<t> algo=<a> k=<k> [model= eps= seed= reps=]
  kCheckpoint,  ///< checkpoint tenant=<t>  (reply carries hash/epoch/n/m)
  kStats,       ///< stats  (reply body is the JSONL stats dump)
  kShutdown,    ///< shutdown  (drain and stop accepting work)
  kStall,       ///< stall id=<k>  (test-only: park a worker until released)
};

[[nodiscard]] std::string_view verb_name(Verb verb) noexcept;

/// Limits parse_request enforces (the server passes its configured caps).
struct ProtocolLimits {
  std::size_t max_insert_edges = 1 << 16;
  unsigned max_query_k = 32;  ///< exact C_k scans are exponential in k
};

/// One parsed request. Pointer fields reference process-lifetime singletons
/// (registry detectors, CommModel instances) — never owned.
struct Request {
  Verb verb = Verb::kStats;
  std::string tenant;

  // create
  graph::Vertex n = 0;
  std::string family;          ///< empty = start from the empty graph
  std::uint64_t family_seed = 1;

  // insert
  std::vector<incremental::Insert> edges;

  // query
  const core::Detector* algo = nullptr;
  unsigned k = 5;
  const congest::CommModel* model = &congest::CommModel::congest();
  double epsilon = 0.125;
  std::uint64_t seed = 1;
  std::size_t repetitions = 1;

  // stall
  std::uint64_t stall_id = 0;
};

/// Parses one payload. Throws ProtocolError on every malformed input, with
/// a detail message naming the offender and the accepted alternatives
/// (verbs, keys, registered algorithms/models, capability ranges, caps).
[[nodiscard]] Request parse_request(std::string_view payload, const ProtocolLimits& limits = {});

/// Canonical request line for \p r — the loadgen's verdict-multiset tag and
/// the soak serve contract's requests. parse_request round-trips it.
[[nodiscard]] std::string format_request(const Request& r);

// ---------------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------------

[[nodiscard]] std::string format_error(ErrorCode code, std::string_view detail);

/// "REJECTED overload <reason> queue_depth=<d>" — admission-control shed.
[[nodiscard]] std::string format_rejected(std::string_view reason, std::size_t queue_depth);

/// Canonical verdict body for a query reply: deterministic pure function of
/// the Verdict (no timing, no cache provenance), so replies are byte-equal
/// across worker counts and across verdict-cache hits and misses.
[[nodiscard]] std::string format_verdict(const core::Verdict& verdict);

[[nodiscard]] bool is_ok(std::string_view reply) noexcept;
[[nodiscard]] bool is_rejected(std::string_view reply) noexcept;
[[nodiscard]] bool is_error(std::string_view reply) noexcept;

}  // namespace decycle::serve
