/// \file campaign.hpp
/// \brief Soak campaigns: budgeted, parallel, byte-replayable.
///
/// A campaign walks the soak instance space by index, runs one contract
/// (oracle, prefix or serve — repro.hpp) on every instance, and shrinks
/// every mismatch to a minimal repro file. Instances are processed in
/// batches whose trials are partitioned into contiguous lanes across the
/// thread pool (the lab runner's scheme); per-instance outcomes land in
/// indexed slots and are reduced serially, so the JSONL campaign log is
/// byte-identical for any thread count and every contract. The wall-clock
/// budget (--seconds) only decides *how many* instances run — each
/// instance's bytes are still pure functions of (campaign seed, index).
///
/// Instances become cases per contract: the oracle and serve contracts
/// check the drawn graph (edges in canonical order) under the drawn
/// scenario; the prefix contract inserts the drawn edges in an order
/// seeded by the instance seed, at k = the space's max_k, drop-free with
/// an unlimited untracked budget so the exact-regime batch detectors run.
///
/// The log is JSONL via lab::JsonWriter: a meta record, one record per
/// instance, one record per mismatch (with shrink statistics and the repro
/// path), and a closing summary record; prefix and serve records carry a
/// "mode" field. The oracle contract's instance records list per-detector
/// verdicts, and its summary also carries the campaign-level completeness
/// audit: over certified-far drop-free instances run at the tester's
/// amplified default, the observed rejection rate must not fall below the
/// paper's 2/3 bound (Wilson upper bound — a deterministic check for a
/// pinned seed).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "soak/differential.hpp"
#include "soak/repro.hpp"
#include "soak/shrink.hpp"
#include "soak/space.hpp"
#include "util/thread_pool.hpp"

namespace decycle::soak {

struct CampaignOptions {
  std::uint64_t seed = 1;
  /// Stop after exactly this many instances (0 = no instance bound).
  std::uint64_t instances = 0;
  /// Stop after roughly this many wall-clock seconds, checked between
  /// batches (0 = no time budget). At least one of instances/seconds must
  /// be set.
  double seconds = 0.0;
  SoakSpace space;
  Contract contract = Contract::kOracle;
  util::ThreadPool* pool = nullptr;          ///< instance-level parallelism
  /// Detectors the contract checks (null = builtin()). The serve contract
  /// queries the server by these names and runs these objects directly.
  const core::DetectorRegistry* registry = nullptr;
  /// Directory for repro files (one per mismatch, named
  /// soak_repro_i<index>_<contract>[_<detector>]_<kind>.txt). Empty = keep
  /// repros in memory only.
  std::string repro_dir;
  std::ostream* progress = nullptr;  ///< optional per-batch progress lines
};

/// One shrunk mismatch, ready to file as a bug.
struct MismatchRecord {
  std::uint64_t instance_index = 0;
  std::string detail;  ///< the contract's reason on the original instance
  ReproCase repro;     ///< shrunk case (writable via write_repro)
  ShrinkStats shrink_stats;
  std::uint64_t original_vertices = 0;
  std::uint64_t original_edges = 0;
  std::string repro_path;  ///< empty when repro_dir was not set
};

struct CampaignSummary {
  std::uint64_t instances = 0;
  /// Detector runs (oracle), batch-detector queries (prefix) or served
  /// queries cross-checked (serve).
  std::uint64_t detector_runs = 0;
  std::uint64_t rejections = 0;  ///< across all oracle-contract detector runs
  /// Completeness audit subset (oracle contract): certified-far, drop-free
  /// instances run at the tester's amplified default repetitions.
  std::uint64_t far_trials = 0;
  std::uint64_t far_rejections = 0;
  bool completeness_violation = false;
  std::vector<MismatchRecord> mismatches;
  std::string jsonl;  ///< the full campaign log

  /// Campaign verdict: any mismatch or a completeness audit failure. The
  /// CLI exit code.
  [[nodiscard]] bool failed() const noexcept {
    return !mismatches.empty() || completeness_violation;
  }
};

/// Runs a campaign. Throws CheckError when neither an instance nor a time
/// budget is set.
[[nodiscard]] CampaignSummary run_campaign(const CampaignOptions& options);

}  // namespace decycle::soak
