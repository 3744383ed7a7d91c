#include "core/census.hpp"

#include "util/check.hpp"
#include "util/rng.hpp"

namespace decycle::core {

CensusResult cycle_census(const graph::Graph& g, const graph::IdAssignment& ids,
                          const CensusOptions& options) {
  DECYCLE_CHECK_MSG(options.k_min >= 3, "census k_min must be at least 3");
  DECYCLE_CHECK_MSG(options.k_min <= options.k_max, "census range is empty");

  CensusResult out;
  out.entries.reserve(options.k_max - options.k_min + 1);
  const Detector& tester = DetectorRegistry::builtin().require("tester");
  congest::Simulator sim(g, ids);  // reset per k (the reuse contract)
  for (unsigned k = options.k_min; k <= options.k_max; ++k) {
    DetectorOptions topt;
    topt.k = k;
    topt.epsilon = options.epsilon;
    topt.repetitions = options.repetitions;
    topt.pruning = options.detect.pruning;
    topt.fake_ids = options.detect.fake_ids;
    topt.naive_cap = options.detect.naive_cap;
    topt.trace = options.detect.trace;
    topt.seed = util::splitmix64(options.seed ^ util::splitmix64(k));
    const Verdict verdict = tester.run(sim, topt);

    CensusEntry entry;
    entry.k = k;
    entry.accepted = verdict.accepted;
    entry.witness = verdict.witness;
    entry.rounds = verdict.stats.rounds_executed;
    entry.messages = verdict.stats.total_messages;
    entry.bits = verdict.stats.total_bits;
    out.total_rounds += entry.rounds;
    out.total_messages += entry.messages;
    out.entries.push_back(std::move(entry));
  }
  return out;
}

}  // namespace decycle::core
