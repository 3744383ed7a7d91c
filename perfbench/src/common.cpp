#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <numeric>
#include <thread>

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

/// A fixed ~20 ms of integer work; the result defeats dead-code elimination.
std::uint64_t spin_chunk(std::uint64_t x) {
  for (int i = 0; i < 4'000'000; ++i) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  return x;
}

/// Wall milliseconds of one spin chunk on each of \p threads threads.
double burst_ms(unsigned threads) {
  std::vector<std::thread> workers;
  std::vector<std::uint64_t> sinks(threads);
  const Clock::time_point start = Clock::now();
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&sinks, t] { sinks[t] = spin_chunk(t + 1); });
  }
  for (std::thread& w : workers) w.join();
  const double ms = ms_between(start, Clock::now());
  volatile std::uint64_t keep = 0;
  for (const std::uint64_t s : sinks) keep = keep + s;
  return ms;
}

}  // namespace

double warm_up_cpus(double max_seconds) {
  const Clock::time_point start = Clock::now();
  const double serial = std::min({burst_ms(1), burst_ms(1), burst_ms(1)});
  int fast_in_a_row = 0;
  while (fast_in_a_row < 3 && ms_between(start, Clock::now()) < max_seconds * 1e3) {
    fast_in_a_row = burst_ms(kParallelism) <= 1.25 * serial ? fast_in_a_row + 1 : 0;
  }
  return ms_between(start, Clock::now()) / 1e3;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) / static_cast<double>(values.size());
}

ScopedSpan::ScopedSpan(Tracer::Buffer& buffer, const char* name, std::uint64_t request)
    : buffer_(buffer), index_(static_cast<std::int32_t>(buffer.spans.size())) {
  const std::int32_t parent = buffer.open.empty() ? -1 : buffer.open.back();
  buffer.spans.push_back({name, now_ns(), 0, parent, request});
  buffer.open.push_back(index_);
}

ScopedSpan::~ScopedSpan() {
  buffer_.spans[static_cast<std::size_t>(index_)].end_ns = now_ns();
  buffer_.open.pop_back();
}

void ScopedSpan::rename(const char* name) {
  buffer_.spans[static_cast<std::size_t>(index_)].name = name;
}

namespace {

/// Self time of every span of one buffer, in milliseconds.
std::vector<double> self_ms(const Tracer::Buffer& buffer) {
  std::vector<double> self(buffer.spans.size());
  for (std::size_t i = 0; i < buffer.spans.size(); ++i) {
    const Span& s = buffer.spans[i];
    self[i] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  return self;
}

}  // namespace

std::map<std::string, std::vector<double>> Tracer::self_times_ms() const {
  std::map<std::string, std::vector<double>> out;
  for (const Buffer& b : buffers_) {
    const std::vector<double> self = self_ms(b);
    for (std::size_t i = 0; i < b.spans.size(); ++i) out[b.spans[i].name].push_back(self[i]);
  }
  return out;
}

std::map<std::uint64_t, std::map<std::string, double>> Tracer::self_by_request() const {
  std::map<std::uint64_t, std::map<std::string, double>> out;
  for (const Buffer& b : buffers_) {
    const std::vector<double> self = self_ms(b);
    for (std::size_t i = 0; i < b.spans.size(); ++i) {
      out[b.spans[i].request][b.spans[i].name] += self[i];
    }
  }
  return out;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const Buffer& b : buffers_) {
    for (const Span& s : b.spans) origin = std::min(origin, s.start_ns);
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) throw BenchError("io", "cannot write span file " + path);
  for (std::size_t t = 0; t < buffers_.size(); ++t) {
    for (const Span& s : buffers_[t].spans) {
      out << "{\"name\":\"" << s.name << "\",\"thread\":" << t
          << ",\"start_ns\":" << s.start_ns - origin << ",\"end_ns\":" << s.end_ns - origin
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}\n";
    }
  }
  if (!out) throw BenchError("io", "failed writing span file " + path);
}

}  // namespace perfbench
