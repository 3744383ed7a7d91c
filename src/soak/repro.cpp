#include "soak/repro.hpp"

#include <charconv>
#include <istream>
#include <limits>
#include <ostream>
#include <set>
#include <sstream>
#include <string_view>
#include <vector>

#include "soak/prefix_contract.hpp"
#include "soak/serve_contract.hpp"
#include "util/check.hpp"

namespace decycle::soak {

namespace {

constexpr std::string_view kAcceptedKeys =
    "contract, detector, kind, k, eps, reps, budget, track, adversary, seed";

constexpr std::string_view kLayout =
    "a decycle_soak repro v2 is a 'scenario contract=... kind=... k=...' line followed by a "
    "'stream n=... directed=0 seed=...' insert list (edge-list bodies and request "
    "transcripts are not read)";

[[noreturn]] void fail(const std::string& msg) { DECYCLE_CHECK_MSG(false, msg); }

std::uint64_t parse_u64(std::string_view key, std::string_view value,
                        std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  std::uint64_t out = 0;
  const auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec == std::errc::result_out_of_range || (ec == std::errc() && out > max)) {
    fail("repro scenario key '" + std::string(key) + "': value '" + std::string(value) +
         "' out of range (at most " + std::to_string(max) + ")");
  }
  if (ec != std::errc() || ptr != value.data() + value.size()) {
    fail("repro scenario key '" + std::string(key) + "': expected unsigned integer, got '" +
         std::string(value) + "'");
  }
  return out;
}

double parse_double(std::string_view key, std::string_view value) {
  double out = 0;
  const auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc() || ptr != value.data() + value.size()) {
    fail("repro scenario key '" + std::string(key) + "': expected number, got '" +
         std::string(value) + "'");
  }
  return out;
}

}  // namespace

std::string_view contract_name(Contract contract) noexcept {
  switch (contract) {
    case Contract::kOracle: return "oracle";
    case Contract::kPrefix: return "prefix";
    case Contract::kServe: return "serve";
  }
  return "oracle";
}

Contract parse_contract(std::string_view token) {
  for (const Contract c : {Contract::kOracle, Contract::kPrefix, Contract::kServe}) {
    if (token == contract_name(c)) return c;
  }
  fail("unknown contract '" + std::string(token) + "' (known: oracle, prefix, serve)");
}

std::vector<CaseMismatch> check_case(const ReproCase& c, const core::DetectorRegistry& registry) {
  const core::Detector* only = c.detector.empty() ? nullptr : &registry.require(c.detector);
  switch (c.contract) {
    case Contract::kPrefix:
      return check_prefixes(c.stream, c.scenario, registry, c.detector).mismatches;
    case Contract::kServe:
      return check_serve(c.stream, c.scenario, registry, c.detector).mismatches;
    case Contract::kOracle: break;
  }
  const graph::Graph g = graph::Graph::from_edges(c.stream.n, c.stream.inserts);
  if (only != nullptr) {
    std::string detail;
    const MismatchKind kind = check_detector(g, c.scenario, *only, &detail);
    if (kind == MismatchKind::kNone) return {};
    return {{c.detector, kind, std::move(detail)}};
  }
  return run_differential(g, c.scenario, registry).mismatches;
}

bool reproduces(const ReproCase& c, const std::vector<CaseMismatch>& found) {
  if (c.kind == MismatchKind::kNone) return found.empty();
  for (const CaseMismatch& m : found) {
    if (m.kind == c.kind && m.detector == c.detector) return true;
  }
  return false;
}

void write_repro(std::ostream& out, const ReproCase& repro) {
  out << "# decycle_soak repro v2\n";
  out << "# replay: decycle_soak --repro <this file>\n";
  out << "scenario contract=" << contract_name(repro.contract);
  if (!repro.detector.empty()) out << " detector=" << repro.detector;
  out << " kind=" << mismatch_kind_name(repro.kind) << " " << repro.scenario.key() << "\n";
  incremental::write_stream(out, repro.stream);
}

ReproCase read_repro(std::istream& in) {
  // The scenario line is the first non-comment, non-empty line; everything
  // after it is the insert list (whose parser skips comments itself).
  std::string line;
  for (;;) {
    if (!std::getline(in, line)) {
      fail("repro file: missing 'scenario' line; " + std::string(kLayout));
    }
    if (line.empty() || line[0] == '#') continue;
    break;
  }
  std::istringstream ls(line);
  std::string head;
  ls >> head;
  if (head != "scenario") {
    fail("repro file: expected a line starting with 'scenario', got '" + head + "'; " +
         std::string(kLayout));
  }

  ReproCase repro;
  bool have_contract = false;
  bool have_k = false;
  std::set<std::string> seen;
  std::string token;
  while (ls >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      fail("repro scenario token '" + token + "' is not of the form key=value");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (!seen.insert(key).second) {
      fail("repro scenario key '" + key + "' given twice");
    }
    if (key == "contract") {
      repro.contract = parse_contract(value);
      have_contract = true;
    } else if (key == "detector") {
      if (value.empty()) fail("repro scenario key 'detector': empty name");
      repro.detector = value;
    } else if (key == "kind") {
      repro.kind = parse_mismatch_kind(value);
    } else if (key == "k") {
      repro.scenario.k =
          static_cast<unsigned>(parse_u64(key, value, std::numeric_limits<unsigned>::max()));
      have_k = true;
    } else if (key == "eps") {
      repro.scenario.epsilon = parse_double(key, value);
    } else if (key == "reps") {
      repro.scenario.repetitions = parse_u64(key, value);
    } else if (key == "budget") {
      repro.scenario.budget = core::threshold::BudgetSchedule::parse(value);
    } else if (key == "track") {
      repro.scenario.track = parse_u64(key, value);
    } else if (key == "adversary") {
      repro.scenario.adversary = lab::parse_adversary(value);
    } else if (key == "seed") {
      repro.scenario.seed = parse_u64(key, value);
    } else {
      fail("unknown repro scenario key '" + key + "' (accepted: " + std::string(kAcceptedKeys) +
           ")");
    }
  }
  if (!have_contract) {
    fail("repro scenario line is missing the 'contract' key; " + std::string(kLayout));
  }
  if (!have_k) {
    fail("repro scenario line is missing the 'k' key (accepted keys: " +
         std::string(kAcceptedKeys) + ")");
  }
  if (repro.contract == Contract::kOracle && repro.kind != MismatchKind::kNone &&
      repro.detector.empty()) {
    fail("repro scenario line is missing the 'detector' key (an oracle mismatch belongs to a "
         "detector)");
  }
  try {
    repro.stream = incremental::read_stream(in);
  } catch (const util::CheckError& e) {
    fail(std::string(e.what()) + "; " + std::string(kLayout));
  }
  return repro;
}

ReplayResult replay_repro(const ReproCase& repro, const core::DetectorRegistry& registry) {
  const std::vector<CaseMismatch> found = check_case(repro, registry);
  ReplayResult out;
  out.reproduced = reproduces(repro, found);
  // Report the recorded mismatch when it is back, else the first one found.
  for (const CaseMismatch& m : found) {
    const bool recorded = m.kind == repro.kind && m.detector == repro.detector;
    if (out.observed == MismatchKind::kNone || recorded) {
      out.observed = m.kind;
      out.detail = m.detail;
    }
  }
  return out;
}

}  // namespace decycle::soak
