#include "serve/protocol.hpp"

#include <algorithm>
#include <charconv>

#include "util/check.hpp"
#include "util/kv.hpp"

namespace decycle::serve {

namespace {

constexpr std::string_view kVerbNames =
    "create, insert, query, checkpoint, stats, shutdown";

[[noreturn]] void bad_request(const std::string& detail) {
  throw ProtocolError(ErrorCode::kBadRequest, detail);
}

/// util::parse_value, its ParseError turned into a bad_request with the
/// same text.
template <typename T>
T value_of(std::string_view key, std::string_view value) {
  try {
    return util::parse_value<T>(key, value);
  } catch (const util::ParseError& e) {
    bad_request(e.what());
  }
}

/// Splits "u-v,u-v,…" into inserts, enforcing the simple-graph contract
/// the incremental detectors assume.
std::vector<incremental::Insert> parse_edges(std::string_view value,
                                             const ProtocolLimits& limits) {
  std::vector<incremental::Insert> out;
  std::size_t pos = 0;
  while (pos < value.size()) {
    std::size_t comma = value.find(',', pos);
    if (comma == std::string_view::npos) comma = value.size();
    const std::string_view item = value.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) bad_request("edges: empty item (want u-v,u-v,…)");
    const std::size_t dash = item.find('-');
    if (dash == std::string_view::npos || dash == 0 || dash + 1 >= item.size()) {
      bad_request("edges: item '" + std::string(item) + "' is not of the form <u>-<v>");
    }
    const auto u = value_of<graph::Vertex>("edges", item.substr(0, dash));
    const auto v = value_of<graph::Vertex>("edges", item.substr(dash + 1));
    if (u == v) {
      throw ProtocolError(ErrorCode::kBadInsert, "edge " + std::string(item) +
                                                     " is a self-loop (simple graphs only)");
    }
    out.emplace_back(u, v);
    if (out.size() > limits.max_insert_edges) {
      throw ProtocolError(
          ErrorCode::kOversizedBatch,
          "insert batch exceeds max_insert_edges=" + std::to_string(limits.max_insert_edges) +
              "; split the batch into smaller insert requests");
    }
  }
  if (out.empty()) bad_request("insert needs a non-empty edges= list");
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

std::string encode_frame(std::string_view payload) {
  std::string out = std::to_string(payload.size());
  out.reserve(out.size() + payload.size() + 2);
  out.push_back(' ');
  out.append(payload);
  out.push_back('\n');
  return out;
}

void FrameReader::feed(std::string_view bytes) {
  if (dead_) return;
  buffer_.append(bytes);
}

FrameReader::Status FrameReader::next(std::string& payload) {
  if (dead_) return Status::kError;
  if (buffer_.empty()) return Status::kNeedMore;

  // Length prefix: 1..7 decimal digits then a space. Anything else at the
  // head of a frame is a protocol violation.
  std::size_t digits = 0;
  std::uint64_t length = 0;
  while (digits < buffer_.size() && buffer_[digits] >= '0' && buffer_[digits] <= '9') {
    length = length * 10 + static_cast<std::uint64_t>(buffer_[digits] - '0');
    ++digits;
    if (length > max_frame_bytes_) {
      dead_ = true;
      error_ = "frame length prefix exceeds max_frame_bytes=" +
               std::to_string(max_frame_bytes_);
      return Status::kError;
    }
  }
  if (digits == 0) {
    dead_ = true;
    error_ = "frame must start with a decimal length prefix, got byte 0x" + [this] {
      constexpr char kHex[] = "0123456789abcdef";
      const auto b = static_cast<unsigned char>(buffer_[0]);
      return std::string{kHex[b >> 4], kHex[b & 15]};
    }();
    return Status::kError;
  }
  if (digits == buffer_.size()) return Status::kNeedMore;
  if (buffer_[digits] != ' ') {
    dead_ = true;
    error_ = "frame length prefix must be followed by a single space";
    return Status::kError;
  }
  const std::size_t total = digits + 1 + static_cast<std::size_t>(length) + 1;
  if (buffer_.size() < total) return Status::kNeedMore;
  if (buffer_[total - 1] != '\n') {
    dead_ = true;
    error_ = "frame payload of " + std::to_string(length) +
             " bytes is not terminated by a newline (length prefix wrong?)";
    return Status::kError;
  }
  payload.assign(buffer_, digits + 1, static_cast<std::size_t>(length));
  buffer_.erase(0, total);
  return Status::kFrame;
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

std::string_view error_code_name(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kBadFrame: return "bad_frame";
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kUnknownTenant: return "unknown_tenant";
    case ErrorCode::kTenantExists: return "tenant_exists";
    case ErrorCode::kCapability: return "capability";
    case ErrorCode::kOversizedBatch: return "oversized_batch";
    case ErrorCode::kBadInsert: return "bad_insert";
    case ErrorCode::kShuttingDown: return "shutting_down";
    case ErrorCode::kInternal: return "internal";
  }
  return "unknown";
}

std::string_view verb_name(Verb verb) noexcept {
  switch (verb) {
    case Verb::kCreate: return "create";
    case Verb::kInsert: return "insert";
    case Verb::kQuery: return "query";
    case Verb::kCheckpoint: return "checkpoint";
    case Verb::kStats: return "stats";
    case Verb::kShutdown: return "shutdown";
  }
  return "unknown";
}

Request parse_request(std::string_view payload, const ProtocolLimits& limits) {
  // Tokenize on single spaces. Leading/trailing/double spaces are malformed:
  // the grammar is canonical so format_request round-trips bytes.
  std::vector<std::string_view> tokens;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    std::size_t space = payload.find(' ', pos);
    if (space == std::string_view::npos) space = payload.size();
    if (space == pos) bad_request("empty token (double or leading space) in request");
    tokens.push_back(payload.substr(pos, space - pos));
    pos = space + 1;
  }
  if (tokens.empty()) bad_request(std::string("empty request; verbs: ") + std::string(kVerbNames));

  Request r;
  const std::string_view verb = tokens.front();
  if (verb == "create") r.verb = Verb::kCreate;
  else if (verb == "insert") r.verb = Verb::kInsert;
  else if (verb == "query") r.verb = Verb::kQuery;
  else if (verb == "checkpoint") r.verb = Verb::kCheckpoint;
  else if (verb == "stats") r.verb = Verb::kStats;
  else if (verb == "shutdown") r.verb = Verb::kShutdown;
  else {
    bad_request("unknown verb '" + std::string(verb) + "'; verbs: " + std::string(kVerbNames));
  }

  bool saw_k = false;
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string_view token = tokens[i];
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      bad_request("token '" + std::string(token) + "' is not of the form key=value");
    }
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    if (value.empty()) bad_request(std::string(key) + ": empty value");
    // Last-one-wins would run a different request than half the line reads.
    for (std::size_t j = 1; j < i; ++j) {
      if (tokens[j].substr(0, tokens[j].find('=')) == key) {
        bad_request(std::string(key) + ": request key given twice");
      }
    }

    auto expect_verbs = [&](std::initializer_list<Verb> verbs, std::string_view accepted) {
      if (std::find(verbs.begin(), verbs.end(), r.verb) == verbs.end()) {
        bad_request("key '" + std::string(key) + "' is not accepted by verb '" +
                    std::string(verb) + "' (accepted keys: " + std::string(accepted) + ")");
      }
    };
    const auto keys_for = [&]() -> std::string_view {
      switch (r.verb) {
        case Verb::kCreate: return "tenant, n, family, k, seed";
        case Verb::kInsert: return "tenant, edges";
        case Verb::kQuery: return "tenant, algo, k, model, eps, seed, reps";
        case Verb::kCheckpoint: return "tenant";
        default: return "(none)";
      }
    };

    if (key == "tenant") {
      expect_verbs({Verb::kCreate, Verb::kInsert, Verb::kQuery, Verb::kCheckpoint}, keys_for());
      r.tenant = std::string(value);
    } else if (key == "n") {
      expect_verbs({Verb::kCreate}, keys_for());
      r.n = value_of<graph::Vertex>(key, value);
    } else if (key == "family") {
      expect_verbs({Verb::kCreate}, keys_for());
      r.family = std::string(value);
    } else if (key == "edges") {
      expect_verbs({Verb::kInsert}, keys_for());
      r.edges = parse_edges(value, limits);
    } else if (key == "algo") {
      expect_verbs({Verb::kQuery}, keys_for());
      r.algo = core::DetectorRegistry::builtin().find(value);
      if (r.algo == nullptr) {
        bad_request("unknown algo '" + std::string(value) +
                    "'; registered: " + core::DetectorRegistry::builtin().known_names());
      }
    } else if (key == "k") {
      expect_verbs({Verb::kQuery, Verb::kCreate}, keys_for());
      r.k = value_of<unsigned>(key, value);
      saw_k = true;
    } else if (key == "model") {
      expect_verbs({Verb::kQuery}, keys_for());
      r.model = congest::CommModel::find(value);
      if (r.model == nullptr) {
        bad_request("unknown model '" + std::string(value) +
                    "'; registered: " + congest::CommModel::known_names());
      }
    } else if (key == "eps") {
      expect_verbs({Verb::kQuery}, keys_for());
      r.epsilon = value_of<double>(key, value);
      if (r.epsilon <= 0.0 || r.epsilon > 1.0) {
        bad_request("eps: " + std::string(value) + " outside (0, 1]");
      }
    } else if (key == "seed") {
      expect_verbs({Verb::kQuery, Verb::kCreate}, keys_for());
      if (r.verb == Verb::kCreate) r.family_seed = value_of<std::uint64_t>(key, value);
      else r.seed = value_of<std::uint64_t>(key, value);
    } else if (key == "reps") {
      expect_verbs({Verb::kQuery}, keys_for());
      r.repetitions = value_of<std::size_t>(key, value);
    } else {
      bad_request("unknown key '" + std::string(key) + "' for verb '" + std::string(verb) +
                  "' (accepted keys: " + std::string(keys_for()) + ")");
    }
  }

  // Per-verb required fields and capability gating.
  switch (r.verb) {
    case Verb::kCreate:
      if (r.tenant.empty()) bad_request("create requires tenant=<name>");
      if (r.n == 0) bad_request("create requires n=<vertices> (n >= 1)");
      break;
    case Verb::kInsert:
      if (r.tenant.empty()) bad_request("insert requires tenant=<name>");
      if (r.edges.empty()) bad_request("insert requires edges=<u>-<v>,…");
      break;
    case Verb::kCheckpoint:
      if (r.tenant.empty()) bad_request("checkpoint requires tenant=<name>");
      break;
    case Verb::kQuery: {
      if (r.tenant.empty()) bad_request("query requires tenant=<name>");
      if (r.algo == nullptr) {
        bad_request("query requires algo=<name>; registered: " +
                    core::DetectorRegistry::builtin().known_names());
      }
      if (saw_k && r.k > limits.max_query_k) {
        throw ProtocolError(ErrorCode::kCapability,
                            "k=" + std::to_string(r.k) + " exceeds the server's max_query_k=" +
                                std::to_string(limits.max_query_k) +
                                " (exact C_k scans are exponential in k)");
      }
      const auto& registry = core::DetectorRegistry::builtin();
      if (std::string err = registry.validate_k(*r.algo, r.k); !err.empty()) {
        throw ProtocolError(ErrorCode::kCapability, err);
      }
      if (std::string err = registry.validate_model(*r.algo, *r.model); !err.empty()) {
        throw ProtocolError(ErrorCode::kCapability, err);
      }
      break;
    }
    case Verb::kStats:
    case Verb::kShutdown:
      break;
  }
  return r;
}

std::string format_request(const Request& r) {
  std::string out(verb_name(r.verb));
  const auto kv = [&out](std::string_view key, const std::string& value) {
    out.push_back(' ');
    out.append(key);
    out.push_back('=');
    out.append(value);
  };
  switch (r.verb) {
    case Verb::kCreate:
      kv("tenant", r.tenant);
      kv("n", std::to_string(r.n));
      if (!r.family.empty()) {
        kv("family", r.family);
        kv("k", std::to_string(r.k));
        kv("seed", std::to_string(r.family_seed));
      }
      break;
    case Verb::kInsert: {
      kv("tenant", r.tenant);
      std::string edges;
      for (const auto& [u, v] : r.edges) {
        if (!edges.empty()) edges.push_back(',');
        edges += std::to_string(u) + "-" + std::to_string(v);
      }
      kv("edges", edges);
      break;
    }
    case Verb::kQuery: {
      kv("tenant", r.tenant);
      kv("algo", std::string(r.algo != nullptr ? r.algo->name() : std::string_view("?")));
      kv("k", std::to_string(r.k));
      if (r.model->kind() != congest::CommModelKind::kCongest) {
        kv("model", std::string(r.model->name()));
      }
      // Canonical shortest round-trip form for eps.
      char buf[32];
      const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), r.epsilon);
      DECYCLE_CHECK(ec == std::errc{});
      kv("eps", std::string(buf, ptr));
      kv("seed", std::to_string(r.seed));
      kv("reps", std::to_string(r.repetitions));
      break;
    }
    case Verb::kCheckpoint:
      kv("tenant", r.tenant);
      break;
    case Verb::kStats:
    case Verb::kShutdown:
      break;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------------

std::string format_error(ErrorCode code, std::string_view detail) {
  std::string out = "ERROR ";
  out.append(error_code_name(code));
  out.push_back(' ');
  out.append(detail);
  return out;
}

std::string format_hash(std::uint64_t hash) {
  char buf[16];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), hash, 16);
  DECYCLE_CHECK(ec == std::errc{});
  return std::string(buf, ptr);
}

std::string format_rejected(std::string_view reason, std::size_t queue_depth) {
  std::string out = "REJECTED overload ";
  out.append(reason);
  out.append(" queue_depth=");
  out.append(std::to_string(queue_depth));
  return out;
}

std::string format_verdict(const core::Verdict& verdict) {
  std::string out = "accepted=";
  out.append(verdict.accepted ? "1" : "0");
  out.append(" rejecting=").append(std::to_string(verdict.rejecting_nodes));
  out.append(" reps=").append(std::to_string(verdict.repetitions));
  out.append(" rounds=").append(std::to_string(verdict.stats.rounds_executed));
  out.append(" witness=");
  if (verdict.witness.empty()) {
    out.push_back('-');
  } else {
    for (std::size_t i = 0; i < verdict.witness.size(); ++i) {
      if (i != 0) out.push_back('-');
      out.append(std::to_string(verdict.witness[i]));
    }
  }
  return out;
}

bool is_ok(std::string_view reply) noexcept { return reply.rfind("OK", 0) == 0; }
bool is_rejected(std::string_view reply) noexcept { return reply.rfind("REJECTED", 0) == 0; }
bool is_error(std::string_view reply) noexcept { return reply.rfind("ERROR", 0) == 0; }

}  // namespace decycle::serve
