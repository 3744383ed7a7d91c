/// \file decycle_soak.cpp
/// \brief Soak campaign CLI: the oracle, prefix and serve contracts.
///
/// Walks the randomized soak instance space and runs one contract on every
/// instance (repro.hpp): `oracle` cross-checks every capability-compatible
/// detector of the built-in registry against the DFS oracle (soundness,
/// exact-regime completeness); `prefix` inserts the instance's edges one by
/// one and pins the incremental verdicts against the BFS/DFS oracle and the
/// exact-regime batch detectors at every prefix; `serve` loads the instance
/// into an in-process server through the client path and cross-checks every
/// reply against a direct engine run. Every mismatch is shrunk to a minimal
/// repro file and the campaign emits a JSONL log. Output is byte-identical
/// for any --threads value; a campaign is fully replayable from its --seed.
///
/// Campaign mode (one of --instances / --seconds required):
///   decycle_soak --instances=500 --seed=1 --threads=8 --repro-dir=repros
///   decycle_soak --contract=serve --seconds=120 --seed=42 --out=serve.jsonl
///
/// Replay mode:
///   decycle_soak --repro=repros/soak_repro_i17_oracle_tester_unsound.txt
/// exits 0 when the recorded mismatch still reproduces (for kind=none: when
/// the case checks clean), 1 when it does not.
///
/// Flags (both --key=value and "--key value" forms are accepted):
///   --contract=C    oracle (default), prefix or serve
///   --instances=N   stop after N instances
///   --seconds=S     stop after ~S wall-clock seconds (batch granularity)
///   --seed=S        campaign seed (default 1)
///   --threads=N     instance-level worker threads (0 = serial, default)
///   --out=FILE      write the JSONL log to FILE instead of stdout
///   --repro-dir=DIR write one shrunk repro file per mismatch into DIR
///   --max-k=K --max-n=N  upper bounds of the drawn instance space
///   --progress      per-batch progress lines on stderr
///   --repro=FILE    replay a repro file instead of running a campaign
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "soak/campaign.hpp"
#include "soak/repro.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace {

int replay(const std::string& path) {
  using namespace decycle::soak;
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw decycle::util::CheckError("cannot open --repro file: " + path);
  const ReproCase repro = read_repro(in);
  const ReplayResult result = replay_repro(repro);
  std::cout << "repro: contract=" << contract_name(repro.contract)
            << " detector=" << (repro.detector.empty() ? "-" : repro.detector)
            << " recorded=" << mismatch_kind_name(repro.kind)
            << " observed=" << mismatch_kind_name(result.observed)
            << " vertices=" << repro.stream.n << " inserts=" << repro.stream.inserts.size()
            << "\n";
  if (!result.detail.empty()) std::cout << "detail: " << result.detail << "\n";
  if (repro.kind == MismatchKind::kNone) {
    std::cout << (result.reproduced ? "CLEAN" : "MISMATCH") << "\n";
  } else {
    std::cout << (result.reproduced ? "REPRODUCED" : "DID NOT REPRODUCE") << "\n";
  }
  return result.reproduced ? 0 : 1;
}

int run(const decycle::util::Args& args) {
  using namespace decycle;
  const std::string repro_path = args.get_string("repro", "");
  if (!repro_path.empty()) {
    args.reject_unknown();
    return replay(repro_path);
  }

  soak::CampaignOptions opts;
  opts.contract = soak::parse_contract(args.get_string("contract", "oracle"));
  opts.seed = args.get("seed", opts.seed);
  opts.instances = args.get("instances", opts.instances);
  opts.seconds = args.get("seconds", opts.seconds);
  opts.repro_dir = args.get_string("repro-dir", "");
  opts.space.max_k = args.get("max-k", opts.space.max_k);
  opts.space.max_n = args.get("max-n", opts.space.max_n);
  const std::size_t threads = args.get<std::size_t>("threads", 0);
  const std::string out_path = args.get_string("out", "");
  const bool progress = args.get_bool("progress", false);
  args.reject_unknown();

  if (!opts.repro_dir.empty()) {
    std::filesystem::create_directories(opts.repro_dir);
  }
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
  opts.pool = pool.get();
  if (progress) opts.progress = &std::cerr;

  const soak::CampaignSummary summary = soak::run_campaign(opts);

  if (out_path.empty()) {
    std::cout << summary.jsonl;
  } else {
    std::ofstream out(out_path, std::ios::binary);
    if (!out.good()) throw util::CheckError("cannot open --out file: " + out_path);
    out << summary.jsonl;
    out.flush();
    if (!out.good()) {
      throw util::CheckError("failed writing --out file (disk full?): " + out_path);
    }
  }

  std::cerr << "decycle_soak --contract=" << soak::contract_name(opts.contract) << ": "
            << summary.instances << " instances, " << summary.detector_runs
            << " detector runs, " << summary.mismatches.size() << " mismatches, far audit "
            << summary.far_rejections << "/" << summary.far_trials << "\n";
  for (const soak::MismatchRecord& m : summary.mismatches) {
    std::cerr << "  mismatch instance=" << m.instance_index << " detector="
              << (m.repro.detector.empty() ? "-" : m.repro.detector)
              << " kind=" << soak::mismatch_kind_name(m.repro.kind) << " shrunk to "
              << m.repro.stream.n << "v/" << m.repro.stream.inserts.size() << "e"
              << (m.repro_path.empty() ? "" : " repro=" + m.repro_path) << "\n";
  }
  if (summary.completeness_violation) {
    std::cerr << "  completeness violation: certified-far amplified rejection rate "
                 "below 2/3\n";
  }
  return summary.failed() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  return decycle::util::run_main("decycle_soak", argc, argv, run);
}
