#include "soak/repro.hpp"

#include <istream>
#include <ostream>
#include <span>
#include <string_view>
#include <vector>

#include "lab/json.hpp"
#include "soak/prefix_contract.hpp"
#include "soak/serve_contract.hpp"
#include "util/kv.hpp"

namespace decycle::soak {

namespace {

constexpr std::string_view kLayout =
    "a decycle_soak repro v2 is a 'scenario contract=... kind=... k=...' line followed by a "
    "'stream n=... directed=0 seed=...' insert list (edge-list bodies and request "
    "transcripts are not read)";

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
  throw util::ParseError("contract", "unknown contract '" + std::string(token) +
                                         "' (known: oracle, prefix, serve)");
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
      throw util::ParseError("repro file", "missing 'scenario' line; " + std::string(kLayout));
    }
    if (line.empty() || line[0] == '#') continue;
    break;
  }
  const std::vector<std::string_view> words = util::split_words(line);
  if (words.empty() || words[0] != "scenario") {
    throw util::ParseError("repro file", "expected a line starting with 'scenario', got '" +
                                             std::string(words.empty() ? "" : words[0]) +
                                             "'; " + std::string(kLayout));
  }

  util::KvReader r =
      util::KvReader::from_tokens("repro scenario", std::span(words).subspan(1));
  const auto required = [&r](std::string_view key) {
    auto value = r.take_string(key);
    if (!value) {
      throw util::ParseError(key, "repro scenario line is missing the '" + std::string(key) +
                                      "' key; " + std::string(kLayout));
    }
    return std::move(*value);
  };
  ReproCase repro;
  repro.contract = parse_contract(required("contract"));
  repro.detector = r.take_string("detector").value_or("");
  if (const auto kind = r.take_string("kind")) repro.kind = parse_mismatch_kind(*kind);
  SoakScenario& s = repro.scenario;
  s.k = util::parse_value<unsigned>("k", required("k"));
  s.epsilon = r.take("eps", s.epsilon);
  if (!(s.epsilon > 0.0 && s.epsilon <= 1.0)) {
    throw util::ParseError("eps", "epsilon must be in (0, 1], got " + lab::json_double(s.epsilon));
  }
  s.repetitions = r.take("reps", s.repetitions);
  if (const auto budget = r.take_string("budget")) {
    s.budget = core::threshold::BudgetSchedule::parse(*budget);
  }
  s.track = r.take("track", s.track);
  if (const auto adversary = r.take_string("adversary")) {
    s.adversary = lab::parse_adversary(*adversary);
  }
  s.seed = r.take("seed", s.seed);
  r.finish();
  if (repro.contract == Contract::kOracle && repro.kind != MismatchKind::kNone &&
      repro.detector.empty()) {
    throw util::ParseError("detector", "repro scenario line is missing the 'detector' key (an "
                                       "oracle mismatch belongs to a detector)");
  }
  try {
    repro.stream = incremental::read_stream(in);
  } catch (const util::ParseError& e) {
    throw util::ParseError("repro file", std::string(e.what()) + "; " + std::string(kLayout));
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
