/// \file decycle_lab.cpp
/// \brief Scenario-matrix lab runner CLI.
///
/// Sweeps graph families × k × ε × sizes × adversaries × communication
/// models × algorithms and emits one JSONL record per cell (meta record
/// first). Output is
/// byte-identical for any --threads value — nightly CI diffs it against a
/// checked-in golden file (ci/golden/).
///
/// Example:
///   decycle_lab --family=planted,ckfree_highgirth --k=4,5 --n=24,48
///               --eps=0.125 --trials=24 --seed=2026 --threads=8
///               --algo=tester,edge_checker,threshold --budget=16 --track=8
/// (one command line; wrapped here for readability)
///
/// Runner flags (everything else is forwarded to the scenario parser):
///   --threads=N    trial-level worker threads (0 = serial, default)
///   --out=FILE     write JSONL to FILE instead of stdout
///   --timing=0|1   add wall-clock fields (breaks golden diffs; default 0)
///   --progress     per-cell progress lines on stderr
///   --engine-stats print the engine's session-cache counters (hits,
///                  misses, evictions, purges, purged sessions) on stderr
///                  after the run — stderr so the JSONL golden contract on
///                  stdout is untouched
///   --list         print the known graph families and exit
///   --list-algos   print every registered detector's name and capabilities
///                  (k range, knobs, accepted models) and exit — the
///                  authoritative list of what algo= and model= accept
#include <fstream>
#include <iostream>
#include <memory>

#include "core/detector.hpp"
#include "lab/runner.hpp"
#include "lab/scenario.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace {

int run(const decycle::util::Args& args) {
  using namespace decycle;
  if (args.get_bool("list", false)) {
    for (const lab::FamilyInfo& info : lab::known_families()) {
      std::cout << info.name << " — " << info.summary << "\n";
    }
    return 0;
  }
  if (args.get_bool("list-algos", false)) {
    // Straight from the registry, so this listing can never drift from
    // what the scenario parser actually accepts.
    for (const core::Detector* d : core::DetectorRegistry::builtin().detectors()) {
      std::cout << core::capability_line(*d) << "\n";
    }
    return 0;
  }
  const std::size_t threads = args.get<std::size_t>("threads", 0);
  const std::string out_path = args.get_string("out", "");
  const bool timing = args.get_bool("timing", false);
  const bool progress = args.get_bool("progress", false);
  const bool engine_stats = args.get_bool("engine-stats", false);

  // Everything not consumed above is a scenario token; unknown-key errors
  // belong to the scenario parser, which names the accepted keys.
  const lab::ScenarioSpec spec =
      lab::ScenarioSpec::parse(util::KvReader("scenario", args.take_unconsumed()));
  const std::vector<lab::ScenarioCell> cells = spec.expand();

  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);

  lab::LabOptions opts;
  opts.pool = pool.get();
  opts.include_timing = timing;
  opts.progress = progress ? &std::cerr : nullptr;

  const lab::LabRunner runner(opts);
  const std::vector<lab::CellResult> results = runner.run_matrix(cells);
  const std::string doc = lab::matrix_jsonl(spec, results, timing);
  if (engine_stats) {
    const engine::SessionStats s = runner.session_stats();
    std::cerr << "[engine] sessions: hits=" << s.hits << " misses=" << s.misses
              << " evictions=" << s.evictions << " purges=" << s.purges
              << " purged_sessions=" << s.purged_sessions << "\n";
  }

  if (out_path.empty()) {
    std::cout << doc;
  } else {
    std::ofstream out(out_path, std::ios::binary);
    if (!out.good()) throw util::CheckError("cannot open --out file: " + out_path);
    out << doc;
    out.flush();
    if (!out.good()) {
      throw util::CheckError("failed writing --out file (disk full?): " + out_path);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return decycle::util::run_main("decycle_lab", argc, argv, run);
}
