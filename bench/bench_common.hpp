/// \file bench_common.hpp
/// \brief The one writer of the m-benches' BENCH_*.json files.
///
/// A BENCH file keeps three promises (DESIGN.md §2): it names the machine
/// it ran on (hardware_threads, compiler, build_type, git_sha); a row run
/// on more threads or workers than that machine has reports no time, rate,
/// latency or speed-up (timed()); and the bench exits 0 when every claim
/// holds, 1 when one fails and 2 on a bad flag or an unwritable --out.
/// Each top-level field and each array row is one line, so a regenerated
/// file diffs row by row against the checked-in one.
#pragma once

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "harness/claims.hpp"
#include "lab/json.hpp"
#include "util/check.hpp"

namespace decycle::bench {

/// This machine's hardware threads, 1 when the platform cannot tell.
inline unsigned hardware_threads() { return std::max(1u, std::thread::hardware_concurrency()); }

/// Whether a row run on \p threads threads or workers may report timings.
inline bool timed(std::size_t threads) { return threads <= hardware_threads(); }

/// A BENCH document: "bench", "smoke" and the machine block, then the
/// fields the bench adds, in call order.
class BenchFile {
 public:
  BenchFile(std::string_view bench, bool smoke) {
    field("bench", bench);
    field("smoke", smoke);
    field("hardware_threads", hardware_threads());
    field("compiler", __VERSION__);
    field("build_type", DECYCLE_BENCH_BUILD_TYPE);
    field("git_sha", DECYCLE_BENCH_GIT_SHA);
  }

  template <class T>
  void field(std::string_view key, const T& value) {
    lab::JsonWriter w;
    w.value(value);
    add(key, std::move(w).str());
  }

  /// An object on one line; \p fill writes its members.
  template <class Fill>
  void object(std::string_view key, Fill&& fill) {
    add(key, json_object(fill));
  }

  /// An array of objects, one per line; \p fill(w, item) writes the
  /// members of \p item's row.
  template <class Item, class Fill>
  void rows(std::string_view key, const std::vector<Item>& items, Fill&& fill) {
    std::string array = "[";
    for (const Item& item : items) {
      array += array.size() == 1 ? "\n    " : ",\n    ";
      array += json_object([&](lab::JsonWriter& w) { fill(w, item); });
    }
    add(key, array + (items.empty() ? "]" : "\n  ]"));
  }

  /// Writes the document to \p path, then prints the claim summary and
  /// returns its exit code. An unwritable path throws util::CheckError
  /// before any claim is printed, which util::run_main turns into exit 2.
  int write(const std::string& path, const harness::ClaimSet& claims) const {
    std::string doc = "{";
    for (const std::string& line : lines_) doc += (doc.size() == 1 ? "\n  " : ",\n  ") + line;
    std::ofstream out(path, std::ios::binary);
    out << doc << "\n}\n";
    out.close();
    if (!out) throw util::CheckError("cannot open --out file: " + path);
    std::printf("wrote %s\n", path.c_str());
    return claims.summarize();
  }

 private:
  template <class Fill>
  static std::string json_object(Fill&& fill) {
    lab::JsonWriter w;
    w.begin_object();
    fill(w);
    w.end_object();
    return std::move(w).str();
  }

  void add(std::string_view key, const std::string& json) {
    lines_.push_back(lab::json_quote(key) + ": " + json);
  }

  std::vector<std::string> lines_;  ///< `"key": value`, one per top-level field
};

}  // namespace decycle::bench
