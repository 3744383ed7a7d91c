#include "soak/shrink.hpp"

#include <utility>
#include <vector>

#include "util/check.hpp"

namespace decycle::soak {

namespace {

/// Probes one candidate, spending budget; adopts it into \p c on success.
/// Returns false (without probing) once the budget is exhausted.
class Prober {
 public:
  Prober(const ShrinkPredicate& pred, const ShrinkOptions& options, ShrinkStats& stats)
      : pred_(pred), options_(options), stats_(stats) {}

  [[nodiscard]] bool exhausted() const { return stats_.probes >= options_.max_probes; }

  bool try_adopt(ReproCase& c, ReproCase candidate) {
    if (exhausted()) {
      stats_.converged = false;
      return false;
    }
    ++stats_.probes;
    if (!pred_(candidate)) return false;
    c = std::move(candidate);
    return true;
  }

 private:
  const ShrinkPredicate& pred_;
  const ShrinkOptions& options_;
  ShrinkStats& stats_;
};

/// One knob-tightening sweep: adversary off, repetitions down to one, budget
/// and tracking caps off. Each move probed independently, kept only if the
/// mismatch survives.
void tighten_scalars(ReproCase& c, Prober& prober) {
  if (c.scenario.adversary.kind != lab::AdversarySpec::Kind::kNone) {
    ReproCase cand = c;
    cand.scenario.adversary = lab::AdversarySpec{};
    (void)prober.try_adopt(c, std::move(cand));
  }
  if (c.scenario.repetitions != 1) {
    ReproCase cand = c;
    cand.scenario.repetitions = 1;
    (void)prober.try_adopt(c, std::move(cand));
  }
  if (!c.scenario.budget.unlimited() || c.scenario.track != 0) {
    ReproCase cand = c;
    cand.scenario.budget = core::threshold::BudgetSchedule::none();
    cand.scenario.track = 0;
    (void)prober.try_adopt(c, std::move(cand));
  }
}

/// Binary search for the shortest reproducing prefix of the insert list.
/// The prefix contract checks inserts in order, so a mismatch at insert i
/// reproduces on exactly the prefixes longer than i.
void cut_to_failing_prefix(ReproCase& c, Prober& prober) {
  std::size_t lo = 0;  // longest prefix known not to reproduce (0: assumed)
  std::size_t hi = c.stream.inserts.size();
  while (lo + 1 < hi && !prober.exhausted()) {
    const std::size_t mid = lo + (hi - lo) / 2;
    ReproCase cand = c;
    cand.stream.inserts.resize(mid);
    if (prober.try_adopt(c, std::move(cand))) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
}

/// One pass of single-vertex deletions, highest vertex first (deleting v
/// only renumbers vertices above it, so descending order keeps the indices
/// of not-yet-probed candidates stable within the pass). Returns true if
/// anything was deleted.
bool vertex_pass(ReproCase& c, Prober& prober) {
  bool changed = false;
  for (graph::Vertex v = c.stream.n; v-- > 0;) {
    if (c.stream.n <= 1 || prober.exhausted()) break;
    ReproCase cand = c;
    cand.stream = remove_vertex(c.stream, v);
    changed |= prober.try_adopt(c, std::move(cand));
  }
  return changed;
}

/// One pass of single-insert deletions, highest index first (same stability
/// argument as the vertex pass).
bool insert_pass(ReproCase& c, Prober& prober) {
  bool changed = false;
  for (std::size_t i = c.stream.inserts.size(); i-- > 0;) {
    if (prober.exhausted()) break;
    ReproCase cand = c;
    cand.stream = remove_insert(c.stream, i);
    changed |= prober.try_adopt(c, std::move(cand));
  }
  return changed;
}

}  // namespace

incremental::InsertStream remove_vertex(const incremental::InsertStream& s, graph::Vertex v) {
  incremental::InsertStream out;
  out.n = s.n > 0 ? s.n - 1 : 0;
  out.seed = s.seed;
  for (const auto& [a, b] : s.inserts) {
    if (a == v || b == v) continue;
    out.inserts.emplace_back(a > v ? a - 1 : a, b > v ? b - 1 : b);
  }
  return out;
}

incremental::InsertStream remove_insert(const incremental::InsertStream& s, std::size_t i) {
  incremental::InsertStream out = s;
  out.inserts.erase(out.inserts.begin() + static_cast<std::ptrdiff_t>(i));
  return out;
}

ShrinkOutcome shrink_mismatch(const ReproCase& c, const ShrinkPredicate& reproduces,
                              const ShrinkOptions& options) {
  DECYCLE_CHECK_MSG(reproduces(c),
                    "shrink_mismatch called on an input that does not reproduce the mismatch");
  ShrinkOutcome out;
  out.repro = c;
  Prober prober(reproduces, options, out.stats);

  // The failing prefix first (every later probe replays fewer inserts),
  // then knobs: a simpler scenario usually makes the deletion probes
  // cheaper (no amplified repetitions, no drop coin), then deletion passes
  // to a fixpoint, then knobs again — a smaller instance may allow a
  // tightening that the original did not.
  if (c.contract == Contract::kPrefix) cut_to_failing_prefix(out.repro, prober);
  tighten_scalars(out.repro, prober);
  bool changed = true;
  while (changed && out.stats.rounds < options.max_rounds && !prober.exhausted()) {
    ++out.stats.rounds;
    changed = vertex_pass(out.repro, prober);
    changed |= insert_pass(out.repro, prober);
  }
  if (changed && (out.stats.rounds >= options.max_rounds || prober.exhausted())) {
    out.stats.converged = false;
  }
  tighten_scalars(out.repro, prober);
  return out;
}

ShrinkPredicate mismatch_predicate(const core::DetectorRegistry& registry) {
  return [&registry](const ReproCase& c) { return reproduces(c, check_case(c, registry)); };
}

}  // namespace decycle::soak
