/// \file decycle_incr.cpp
/// \brief Incremental cycle-detection CLI: stream generator and timed replay.
///
/// Generate mode — draw a duplicate-free insert stream and write the plain-
/// text replay file (stream.hpp format, stdout when --out is omitted):
///   decycle_incr --gen --n=1000 --inserts=2000 --seed=7 --out=stream.txt
///
/// Replay mode — stream the file through ForestConnectivity and report
/// throughput:
///   decycle_incr --replay=stream.txt
///
/// Checking a stream is the soak prefix contract's job: prepend a
/// `scenario contract=prefix kind=none k=8` line to a generated stream file
/// and replay it with `decycle_soak --repro FILE` (soak/repro.hpp).
///
/// Flags (both --key=value and "--key value" forms are accepted):
///   --gen            generate a stream (requires 2 <= --n < 2^32; --inserts
///                    --seed optional; --out=FILE or stdout)
///   --replay=FILE    replay a stream file ("-" reads stdin)
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>

#include "incremental/incremental.hpp"
#include "incremental/stream.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

namespace {

decycle::incremental::InsertStream load_stream(const std::string& path) {
  if (path == "-") return decycle::incremental::read_stream(std::cin);
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw decycle::util::CheckError("cannot open --replay file: " + path);
  return decycle::incremental::read_stream(in);
}

int generate(const decycle::util::Args& args) {
  using namespace decycle;
  incremental::StreamSpec spec;
  if (!args.has("n")) throw util::ParseError("n", "--gen requires --n");
  spec.n = args.get<graph::Vertex>("n", 0, 2);
  spec.inserts = args.get("inserts", 2 * static_cast<std::size_t>(spec.n));
  spec.seed = args.get("seed", spec.seed);
  const std::string out_path = args.get_string("out", "");
  args.reject_unknown();

  const incremental::InsertStream stream = incremental::generate_stream(spec);
  if (out_path.empty()) {
    incremental::write_stream(std::cout, stream);
  } else {
    std::ofstream out(out_path, std::ios::binary);
    if (!out.good()) throw util::CheckError("cannot open --out file: " + out_path);
    incremental::write_stream(out, stream);
    out.flush();
    if (!out.good()) {
      throw util::CheckError("failed writing --out file (disk full?): " + out_path);
    }
  }
  std::cerr << "decycle_incr: generated n=" << stream.n << " inserts=" << stream.inserts.size()
            << " seed=" << stream.seed << "\n";
  return 0;
}

int replay_timed(const decycle::incremental::InsertStream& stream) {
  using namespace decycle;
  using Clock = std::chrono::steady_clock;
  std::uint64_t closures = 0;
  incremental::ForestConnectivity fc(stream.n);
  const Clock::time_point start = Clock::now();
  for (const auto& [u, v] : stream.inserts) closures += fc.insert_fast(u, v) ? 1 : 0;
  const double seconds = std::chrono::duration<double>(Clock::now() - start).count();
  const double rate =
      seconds > 0.0 ? static_cast<double>(stream.inserts.size()) / seconds : 0.0;
  std::cout << "replay: n=" << stream.n << " inserts=" << stream.inserts.size()
            << " closures=" << closures << " inserts_per_sec=" << static_cast<std::uint64_t>(rate)
            << "\n";
  return 0;
}

int run(const decycle::util::Args& args) {
  using namespace decycle;
  if (args.get_bool("gen", false)) {
    return generate(args);
  }
  const std::string replay_path = args.get_string("replay", "");
  args.reject_unknown();
  if (replay_path.empty()) {
    throw util::ParseError("replay", "decycle_incr needs a mode: --gen or --replay=FILE");
  }
  return replay_timed(load_stream(replay_path));
}

}  // namespace

int main(int argc, char** argv) {
  return decycle::util::run_main("decycle_incr", argc, argv, run);
}
