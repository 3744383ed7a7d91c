/// \file serve.cpp
/// \brief The two socket-serving workloads and their traced mirror.
///
/// A run spawns a fresh decycle_serve on a private socket (a fresh daemon
/// because serve::run_loadgen always names its tenants t0…), drives it
/// closed-loop over kParallelism connections, then checks every reply
/// against in-process reference servers with one worker each. The traced
/// run replays the recorded request streams through a mirror pipeline of
/// public library calls — parse_request, IncrementalSession, SessionPool,
/// Detector::run, format_verdict — with a span around each call.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <bit>
#include <charconv>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>

#include "lab/json.hpp"
#include "lab/scenario.hpp"
#include "proc.hpp"
#include "serve/loadgen.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace serve = decycle::serve;
using decycle::lab::json_double;

namespace {

/// Set-up-only daemons per run. Sample s creates its tenants from a fixed
/// panel seed, the same in every run, so setup_s reads the set-up path's
/// speed rather than the luck of one draw (a `regular` n=10000 build takes
/// 8 to 190 ms depending on its seed).
constexpr std::uint64_t kSetupSamples = 9;

std::uint64_t panel_seed(std::uint64_t sample) { return decycle::util::splitmix64(0x5e7095ULL + sample); }

std::string_view token(std::string_view text, std::string_view key) {
  const std::string needle = std::string(key) + "=";
  std::size_t pos = text.find(needle);
  while (pos != std::string_view::npos && pos > 0 && text[pos - 1] != ' ') {
    pos = text.find(needle, pos + 1);
  }
  if (pos == std::string_view::npos) return {};
  const std::size_t start = pos + needle.size();
  const std::size_t end = text.find(' ', start);
  return text.substr(start, end == std::string_view::npos ? text.size() - start : end - start);
}

bool is_create(const Call& c) { return c.payload.rfind("create ", 0) == 0; }

std::string hex64(std::uint64_t v) {
  char buf[17];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v, 16);
  return std::string(buf, ptr);
}

Clock::time_point end_of(const Call& c) {
  return c.start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(c.latency_ms));
}

/// Time from daemon spawn to the reply of the last create in \p transcripts.
double setup_seconds(Clock::time_point spawned, const std::vector<std::vector<Call>>& transcripts) {
  Clock::time_point last = spawned;
  for (const auto& calls : transcripts) {
    for (const Call& c : calls) {
      if (is_create(c)) last = std::max(last, end_of(c));
    }
  }
  return ms_between(spawned, last) / 1e3;
}

/// Hands each client thread its own socket connection and transcript.
serve::ClientFactory socket_factory(const std::string& socket,
                                    std::vector<std::vector<Call>>& transcripts) {
  auto next = std::make_shared<std::atomic<std::size_t>>(0);
  return [&socket, &transcripts, next]() -> std::unique_ptr<serve::Client> {
    return std::make_unique<SocketClient>(socket, &transcripts.at(next->fetch_add(1)));
  };
}

/// An in-process server with one worker, owned by the client that drives
/// it: the reference every socket reply is checked against.
class ReferenceClient final : public serve::Client {
 public:
  ReferenceClient() : server_(options()) { server_.start(); }
  [[nodiscard]] std::string call(const std::string& payload) override {
    return server_.call(payload);
  }

 private:
  static serve::ServerOptions options() {
    serve::ServerOptions o;
    o.workers = 1;
    return o;
  }
  serve::Server server_;
};

// ---------------------------------------------------------------------------
// Mirror pipeline (traced runs only)
// ---------------------------------------------------------------------------

const char* run_span(std::string_view algo) {
  if (algo == "tester") return "core.tester.run";
  if (algo == "threshold") return "core.threshold.run";
  if (algo == "edge_checker") return "core.edge_checker.run";
  return "core.other.run";
}

/// Replays recorded transcripts through the library's public calls, one
/// thread per transcript, with a span around each call. Per-layer times
/// come from the spans; the simulator's exact counts from the verdicts.
///
/// Span names: a `create` or `request` root per replayed request, then
/// serve.parse, graph.build, incremental.load (a create's initial edges),
/// incremental.apply, incremental.checkpoint (a snapshot rebuild) or
/// incremental.pin (a clean snapshot), serve.cache, engine.lease (a cached
/// session) or engine.lease_build (a miss), core.<algo>.run, serve.format.
class Mirror {
 public:
  explicit Mirror(std::size_t threads) : tracer_(threads), counts_(threads) {}

  void replay_all(const std::vector<std::vector<Call>>& transcripts) {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < transcripts.size(); ++t) {
      threads.emplace_back([this, t, &transcripts] { replay(t, transcripts[t]); });
    }
    for (std::thread& th : threads) th.join();
  }

  static std::uint64_t request_id(std::size_t thread, std::size_t index) {
    return (static_cast<std::uint64_t>(thread) << 32) | index;
  }

  struct Counts {
    std::uint64_t runs = 0, rounds = 0, messages = 0, bits = 0;
    std::uint64_t compared = 0, mismatches = 0;
    std::string first_mismatch;

    void add(const Counts& o) {
      runs += o.runs;
      rounds += o.rounds;
      messages += o.messages;
      bits += o.bits;
      compared += o.compared;
      mismatches += o.mismatches;
      if (first_mismatch.empty()) first_mismatch = o.first_mismatch;
    }
  };

  [[nodiscard]] const Tracer& tracer() const noexcept { return tracer_; }
  [[nodiscard]] Counts counts() const {
    Counts total;
    for (const Counts& c : counts_) total.add(c);
    return total;
  }

 private:
  struct Tenant {
    Tenant(decycle::engine::DetectionEngine& engine, const std::string& name,
           decycle::graph::Vertex n)
        : session(engine, name, n) {}
    decycle::incremental::IncrementalSession session;
    bool dirty = true;
  };

  Tenant* find(const std::string& name) {
    std::lock_guard lock(tenants_mutex_);
    const auto it = tenants_.find(name);
    return it == tenants_.end() ? nullptr : it->second.get();
  }

  static void compare(Counts& counts, const std::string& payload, std::string_view daemon,
                      std::string_view mirror) {
    ++counts.compared;
    if (daemon == mirror) return;
    if (counts.mismatches++ == 0) {
      counts.first_mismatch = "request '" + payload + "': daemon '" + std::string(daemon) +
                              "' vs mirror '" + std::string(mirror) + "'";
    }
  }

  static decycle::engine::PinnedGraphPtr checkpoint(Tracer::Buffer& buf, Tenant& tenant,
                                                    std::uint64_t id) {
    ScopedSpan span(buf, tenant.dirty ? "incremental.checkpoint" : "incremental.pin", id);
    tenant.dirty = false;
    return tenant.session.checkpoint();
  }

  void create(Tracer::Buffer& buf, const serve::Request& r, const Call& call, std::uint64_t id) {
    decycle::lab::ScenarioCell cell;
    cell.family = r.family;
    cell.k = r.k;
    cell.n = r.n;
    decycle::util::Rng rng(decycle::util::hash_combine(r.family_seed, 0x5e54e5e4ULL));
    decycle::graph::Graph topology;
    {
      ScopedSpan span(buf, "graph.build", id);
      topology = decycle::lab::build_topology(cell, rng).graph;
    }
    auto owned = std::make_unique<Tenant>(engine_, r.tenant, topology.num_vertices());
    Tenant& tenant = *owned;
    {
      std::lock_guard lock(tenants_mutex_);
      tenants_[r.tenant] = std::move(owned);
    }
    {
      ScopedSpan span(buf, "incremental.load", id);
      const std::vector<decycle::incremental::Insert> inserts(topology.edges().begin(),
                                                              topology.edges().end());
      (void)tenant.session.apply(inserts);
    }
    const auto pin = checkpoint(buf, tenant, id);
    compare(counts_[id >> 32], call.payload, token(call.reply, "hash"), hex64(pin->hash));
  }

  void query(Tracer::Buffer& buf, Tenant& tenant, const serve::Request& r, const Call& call,
             std::uint64_t id) {
    Counts& counts = counts_[id >> 32];
    const auto pin = checkpoint(buf, tenant, id);
    // The daemon's verdict-cache key (Server::cache_key).
    const std::string key = hex64(pin->hash) + "/" +
                            std::to_string(pin->epoch.load(std::memory_order_acquire)) + "/" +
                            std::string(r.model->name()) + "/" + std::string(r.algo->name()) +
                            "/" + std::to_string(r.k) + "/" +
                            hex64(std::bit_cast<std::uint64_t>(r.epsilon)) + "/" +
                            std::to_string(r.seed) + "/" + std::to_string(r.repetitions);
    std::string reply;
    {
      ScopedSpan span(buf, "serve.cache", id);
      std::lock_guard lock(cache_mutex_);
      if (const auto it = cache_.find(key); it != cache_.end()) reply = it->second;
    }
    if (reply.empty()) {
      decycle::core::DetectorOptions options;
      options.k = r.k;
      options.epsilon = r.epsilon;
      options.seed = r.seed;
      options.repetitions = r.repetitions;
      decycle::engine::SessionPool::Lease lease;
      {
        ScopedSpan span(buf, "engine.lease", id);
        lease = engine_.sessions().lease(pin, *r.model);
        if (!lease.cached()) span.rename("engine.lease_build");
      }
      decycle::core::Verdict verdict;
      {
        ScopedSpan span(buf, run_span(r.algo->name()), id);
        verdict = r.algo->run(lease.sim(), options);
      }
      lease.release();
      ++counts.runs;
      counts.rounds += verdict.stats.rounds_executed;
      counts.messages += verdict.stats.total_messages;
      counts.bits += verdict.stats.total_bits;
      {
        ScopedSpan span(buf, "serve.format", id);
        reply = "OK query " + serve::format_verdict(verdict);
      }
      std::lock_guard lock(cache_mutex_);
      cache_.emplace(key, reply);
    }
    compare(counts, call.payload, call.reply, reply);
  }

  void replay(std::size_t t, const std::vector<Call>& calls) {
    Tracer::Buffer& buf = tracer_.buffer(t);
    for (std::size_t i = 0; i < calls.size(); ++i) {
      const Call& call = calls[i];
      // Only requests the daemon applied change its state.
      if (!serve::is_ok(call.reply)) continue;
      const std::uint64_t id = request_id(t, i);
      // Creates run inline on the daemon's connection thread, outside the
      // queue; every other verb is a queued request.
      ScopedSpan root(buf, is_create(call) ? "create" : "request", id);
      serve::Request r;
      {
        ScopedSpan span(buf, "serve.parse", id);
        r = serve::parse_request(call.payload);
      }
      if (r.verb == serve::Verb::kCreate) {
        create(buf, r, call, id);
        continue;
      }
      Tenant* tenant = find(r.tenant);
      if (tenant == nullptr) continue;
      switch (r.verb) {
        case serve::Verb::kInsert: {
          ScopedSpan span(buf, "incremental.apply", id);
          (void)tenant->session.apply(r.edges);
          tenant->dirty = true;
          break;
        }
        case serve::Verb::kCheckpoint: {
          const auto pin = checkpoint(buf, *tenant, id);
          compare(counts_[t], call.payload, token(call.reply, "hash"), hex64(pin->hash));
          break;
        }
        case serve::Verb::kQuery:
          query(buf, *tenant, r, call, id);
          break;
        default:
          break;
      }
    }
  }

  decycle::engine::DetectionEngine engine_;
  std::mutex tenants_mutex_;
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
  std::mutex cache_mutex_;
  std::unordered_map<std::string, std::string> cache_;
  Tracer tracer_;
  std::vector<Counts> counts_;  ///< one per replay thread
};

// ---------------------------------------------------------------------------
// Shared reporting
// ---------------------------------------------------------------------------

/// Everything a serve run measured, reduced into metrics by summarize().
struct ServeRun {
  std::vector<double> setup_s;
  std::vector<std::vector<Call>> transcripts;
  /// Leading calls of each transcript outside the timed phase (creates,
  /// warm-up queries).
  std::vector<std::size_t> untimed;
  std::optional<std::string> daemon_stats;  ///< global stats record
  double peak_rss_mb = 0.0;
  /// tenant name -> lab family, for attributing slow requests.
  std::map<std::string, std::string> families;
  /// Requests the reference run made (a dead daemon answers fewer).
  std::uint64_t expected_requests = 0;
  /// Tenants whose replies disagreed with the reference.
  std::set<std::string> mismatched_tenants;
};

/// Per-layer metrics from the mirror replay of \p run (traced runs only).
void trace_layers(const Options& options, const ServeRun& run,
                  const std::vector<double>& timed_latencies, Result& result) {
  (void)warm_up_cpus();
  Mirror mirror(run.transcripts.size());
  mirror.replay_all(run.transcripts);
  const std::string spans_path = options.work_dir + "/" + options.workload + "-seed" +
                                 std::to_string(options.seed) + ".spans.jsonl";
  mirror.tracer().write_jsonl(spans_path);
  result.notes.push_back("spans written to " + spans_path);

  const Mirror::Counts counts = mirror.counts();
  if (counts.mismatches > 0) {
    result.check_failed("mirror disagrees with the daemon on " + std::to_string(counts.mismatches) +
                        "/" + std::to_string(counts.compared) +
                        " replies; first: " + counts.first_mismatch);
  }

  const auto self = mirror.tracer().self_times_ms();
  std::string self_table = "self time per span (total ms, count):";
  for (const auto& [name, times] : self) {
    double total = 0.0;
    for (const double ms : times) total += ms;
    self_table += " " + name + " " + json_double(total) + " (" + std::to_string(times.size()) + ")";
  }
  result.notes.push_back(self_table);
  const auto spans = [&self](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? std::vector<double>{} : it->second;
  };
  const auto stat = [&run](const char* key) {
    return run.daemon_stats ? json_number(*run.daemon_stats, key).value_or(0.0) : 0.0;
  };
  const auto count = [](double v) { return static_cast<std::uint64_t>(v); };

  // Mirror service time per queued request: its root span's duration
  // minus parsing, which the daemon does before it starts the clock.
  const auto by_request = mirror.tracer().self_by_request();
  std::unordered_map<std::uint64_t, double> service;
  std::vector<double> services;
  for (const auto& [id, layers] : by_request) {
    if (!layers.contains("request")) continue;
    double ms = 0.0;
    for (const auto& [name, self_ms] : layers) ms += name == "serve.parse" ? 0.0 : self_ms;
    service[id] = ms;
    services.push_back(ms);
  }
  // The daemon's latency covers every queued request, warm-up included;
  // compare the client over the same requests.
  std::vector<double> queued;
  for (const auto& transcript : run.transcripts) {
    for (const Call& c : transcript) {
      if (!is_create(c)) queued.push_back(c.latency_ms);
    }
  }
  const double server_mean = stat("mean_ms");
  const double lookups = stat("verdict_hits") + stat("verdict_misses");
  const double leases = stat("session_hits") + stat("session_misses");
  std::uint64_t calls = 0, sheds = 0;
  for (const auto& transcript : run.transcripts) {
    for (const Call& c : transcript) {
      ++calls;
      sheds += serve::is_rejected(c.reply) ? 1 : 0;
    }
  }

  result.layer("serve.parse_us", mean(spans("serve.parse")) * 1e3, "us", spans("serve.parse").size());
  result.layer("serve.format_us", mean(spans("serve.format")) * 1e3, "us", spans("serve.format").size());
  result.layer("serve.transport_ms", mean(queued) - server_mean, "ms", queued.size());
  result.layer("serve.verdict_hit_ratio", lookups > 0 ? stat("verdict_hits") / lookups : 0.0, "ratio",
               count(lookups));
  result.layer("serve.server_p50_ms", stat("p50_ms"), "ms", count(stat("count")));
  result.layer("serve.server_p99_ms", stat("p99_ms"), "ms", count(stat("count")));
  result.layer("serve.queue_wait_ms", server_mean - mean(services), "ms", services.size());
  result.layer("serve.queue_peak_depth", stat("queue_peak_depth"), "count", 1);
  result.layer("serve.shed_frac", static_cast<double>(sheds) / static_cast<double>(calls), "ratio", calls);

  // Attribute the client-side p99 tail to (tenant family, algo, layer): the
  // layer is the mirror span with the largest self time, or queue/transport
  // wait when the client waited longer than the mirror's whole service time.
  const double p99 = quantile(timed_latencies, 0.99);
  std::map<std::string, std::uint64_t> blame;
  std::uint64_t tail = 0;
  for (std::size_t t = 0; t < run.transcripts.size(); ++t) {
    for (std::size_t i = run.untimed[t]; i < run.transcripts[t].size(); ++i) {
      const Call& c = run.transcripts[t][i];
      if (c.latency_ms < p99) continue;
      ++tail;
      const std::uint64_t id = Mirror::request_id(t, i);
      std::string layer = "unreplayed";
      if (const auto it = by_request.find(id); it != by_request.end()) {
        const auto top = std::max_element(it->second.begin(), it->second.end(),
                                          [](const auto& a, const auto& b) { return a.second < b.second; });
        layer = top->first;
        if (c.latency_ms - service[id] > top->second) layer = "serve.queue_wait+transport";
      }
      std::string algo(token(c.payload, "algo"));
      if (algo.empty()) algo = c.payload.substr(0, c.payload.find(' '));
      ++blame["(" + run.families.at(std::string(token(c.payload, "tenant"))) + ", " + algo + ", " +
              layer + ")"];
    }
  }
  const auto top = std::max_element(blame.begin(), blame.end(),
                                    [](const auto& a, const auto& b) { return a.second < b.second; });
  const std::uint64_t top_count = top == blame.end() ? 0 : top->second;
  result.layer("serve.p99_top_share", tail > 0 ? static_cast<double>(top_count) / static_cast<double>(tail) : 0.0,
               "ratio", tail);
  result.notes.push_back("latency_p99_ms tail (" + std::to_string(tail) + " requests >= " +
                         json_double(p99) + " ms) is led by " +
                         (top == blame.end() ? std::string("(none)") : top->first) + " with " +
                         std::to_string(top_count) + " requests");

  result.layer("engine.lease_build_ms", mean(spans("engine.lease_build")), "ms",
               spans("engine.lease_build").size());
  result.layer("engine.session_hit_ratio", leases > 0 ? stat("session_hits") / leases : 0.0, "ratio",
               count(leases));
  result.layer("engine.session_purges", stat("session_purges"), "count", 1);
  result.layer("incremental.checkpoint_ms", mean(spans("incremental.checkpoint")), "ms",
               spans("incremental.checkpoint").size());
  result.layer("incremental.apply_us", mean(spans("incremental.apply")) * 1e3, "us",
               spans("incremental.apply").size());
  double run_ms = 0.0;
  for (const char* algo : {"tester", "threshold", "edge_checker", "other"}) {
    const std::vector<double> v = spans(std::string("core.") + algo + ".run");
    for (const double ms : v) run_ms += ms;
    if (std::string_view(algo) == "other") continue;
    result.layer(std::string("core.") + algo + ".run_ms.p50", quantile(v, 0.50), "ms", v.size());
    result.layer(std::string("core.") + algo + ".run_ms.p99", quantile(v, 0.99), "ms", v.size());
  }
  const double runs = static_cast<double>(std::max<std::uint64_t>(counts.runs, 1));
  result.layer("core.rounds_per_query", static_cast<double>(counts.rounds) / runs, "count", counts.runs);
  result.layer("core.messages_per_query", static_cast<double>(counts.messages) / runs, "count", counts.runs);
  result.layer("core.bits_per_query", static_cast<double>(counts.bits) / runs, "count", counts.runs);
  result.layer("congest.msgs_per_s", run_ms > 0 ? static_cast<double>(counts.messages) / (run_ms / 1e3) : 0.0,
               "1/s", counts.runs);
  result.layer("graph.build_ms", mean(spans("graph.build")), "ms", spans("graph.build").size());
}

/// End-to-end metrics and failure counts of \p run into \p result, plus the
/// per-layer metrics in traced runs.
void summarize(const Options& options, const ServeRun& run, Result& result) {
  // Failures: ERROR / REJECTED / transport replies, replies of tenants whose
  // digests disagree with the reference, and requests never answered.
  std::uint64_t calls = 0, sheds = 0;
  for (const auto& transcript : run.transcripts) {
    for (const Call& c : transcript) {
      ++calls;
      sheds += serve::is_rejected(c.reply) ? 1 : 0;
      const bool bad = !serve::is_ok(c.reply) ||
                       run.mismatched_tenants.contains(std::string(token(c.payload, "tenant")));
      result.failed += bad ? 1 : 0;
    }
  }
  result.attempted = calls;
  if (calls - sheds < run.expected_requests) {
    const std::uint64_t missing = run.expected_requests - (calls - sheds);
    result.attempted += missing;
    result.failed += missing;
    result.check_failed(std::to_string(missing) + " requests were never answered");
  }

  // Timed phase: every request after the creates (and warm-up queries).
  std::vector<double> latencies;
  Clock::time_point first = Clock::time_point::max(), last = Clock::time_point::min();
  std::uint64_t completed = 0, query_replies = 0;
  for (std::size_t t = 0; t < run.transcripts.size(); ++t) {
    for (std::size_t i = run.untimed[t]; i < run.transcripts[t].size(); ++i) {
      const Call& c = run.transcripts[t][i];
      latencies.push_back(c.latency_ms);
      first = std::min(first, c.start);
      last = std::max(last, end_of(c));
      if (serve::is_ok(c.reply)) {
        ++completed;
        query_replies += c.reply.rfind("OK query ", 0) == 0 ? 1 : 0;
      }
    }
  }
  const double wall_s = latencies.empty() ? 0.0 : ms_between(first, last) / 1e3;
  const auto per_s = [wall_s](std::uint64_t n) { return wall_s > 0 ? static_cast<double>(n) / wall_s : 0.0; };
  result.e2e("setup_s", quantile(run.setup_s, 0.5), "s", run.setup_s.size());
  result.e2e("throughput_rps", per_s(completed), "1/s", completed);
  result.e2e("trials_per_s", per_s(query_replies), "1/s", query_replies);
  result.e2e("latency_p50_ms", quantile(latencies, 0.50), "ms", latencies.size());
  result.e2e("latency_p99_ms", quantile(latencies, 0.99), "ms", latencies.size());
  result.e2e("peak_rss_mb", run.peak_rss_mb, "MB", 1);
  result.notes.push_back("failed_frac " +
                         json_double(static_cast<double>(result.failed) /
                                     static_cast<double>(result.attempted)) +
                         " (" + std::to_string(result.failed) + "/" + std::to_string(result.attempted) +
                         "), timed phase " + json_double(wall_s) + " s");
  if (options.trace) trace_layers(options, run, latencies, result);
}

/// Shuts the daemon down and records its exit and peak RSS into \p run.
void finish_daemon(Daemon& daemon, ServeRun& run, Result& result) {
  run.daemon_stats = daemon.stats();
  const std::string status = daemon.shutdown();
  run.peak_rss_mb = static_cast<double>(daemon.child().peak_rss_kib()) / 1024.0;
  if (status != "exit 0") result.check_failed("decycle_serve ended with " + status);
  if (!run.daemon_stats) result.check_failed("decycle_serve did not answer the stats verb");
}

}  // namespace

// ---------------------------------------------------------------------------
// serve_mixed
// ---------------------------------------------------------------------------

Result run_serve_mixed(const Options& options) {
  serve::LoadgenSpec spec;
  spec.tenants = options.smoke ? 4 : 16;
  spec.client_threads = kParallelism;
  spec.n = options.smoke ? 16 : 64;
  spec.ops_per_tenant = options.smoke ? 20 : 60 * options.seconds;
  spec.mutate_ratio = 0.25;
  spec.checkpoint_ratio = 0.05;
  spec.seed = options.seed;
  spec.algos = {"tester", "threshold"};
  spec.ks = {3, 5};
  spec.epsilons = {0.25, 0.5};
  spec.repetitions = 1;

  ServeRun run;
  Result result;
  result.notes.push_back("vCPU warm-up " + json_double(warm_up_cpus()) + " s");
  // Set-up samples: spawn, create every tenant (run_loadgen with no ops),
  // then the daemon is killed.
  serve::LoadgenSpec creates_only = spec;
  creates_only.ops_per_tenant = 0;
  for (std::uint64_t s = 0; s < kSetupSamples; ++s) {
    creates_only.seed = panel_seed(s);
    Daemon daemon(options, "mixed-setup");
    std::vector<std::vector<Call>> transcripts(kParallelism);
    const serve::LoadgenReport report =
        serve::run_loadgen(creates_only, socket_factory(daemon.socket(), transcripts));
    run.setup_s.push_back(setup_seconds(daemon.spawned(), transcripts));
    if (report.total_errors > 0) result.check_failed("set-up creates returned errors");
  }

  run.transcripts.resize(kParallelism);
  serve::LoadgenReport report;
  (void)warm_up_cpus();
  {
    Daemon daemon(options, "mixed");
    report = serve::run_loadgen(spec, socket_factory(daemon.socket(), run.transcripts));
    finish_daemon(daemon, run, result);
  }
  for (const serve::TenantOutcome& t : report.tenants) run.families[t.name] = t.family;
  for (const std::vector<Call>& calls : run.transcripts) {
    std::size_t creates = 0;
    while (creates < calls.size() && is_create(calls[creates])) ++creates;
    run.untimed.push_back(creates);
  }

  // Reference: the same spec in-process, each client thread on its own
  // one-worker server (a tenant's replies do not depend on co-tenants).
  const serve::LoadgenReport expected =
      serve::run_loadgen(spec, [] { return std::make_unique<ReferenceClient>(); });
  for (const serve::TenantOutcome& t : expected.tenants) {
    // create + queries + inserts + mid-stream checkpoints + closing checkpoint
    run.expected_requests += 2 + t.queries + t.inserts + t.checkpoints + t.errors;
  }
  for (std::size_t i = 0; i < expected.tenants.size(); ++i) {
    const serve::TenantOutcome& want = expected.tenants[i];
    const serve::TenantOutcome* got = i < report.tenants.size() ? &report.tenants[i] : nullptr;
    if (got == nullptr || got->reply_digest != want.reply_digest ||
        got->verdict_multiset != want.verdict_multiset || got->final_hash != want.final_hash) {
      run.mismatched_tenants.insert(want.name);
    }
  }
  if (expected.total_errors > 0) result.check_failed("the reference run itself returned errors");
  if (!run.mismatched_tenants.empty() || report.aggregate_digest != expected.aggregate_digest) {
    result.check_failed(std::to_string(run.mismatched_tenants.size()) +
                        " tenant digests differ from the workers=1 reference (aggregate " +
                        std::to_string(report.aggregate_digest) + " vs " +
                        std::to_string(expected.aggregate_digest) + ")");
  }
  result.notes.push_back("aggregate_digest " + std::to_string(report.aggregate_digest) +
                         " matches the workers=1 reference: " +
                         (report.aggregate_digest == expected.aggregate_digest ? "yes" : "no"));
  summarize(options, run, result);
  return result;
}

// ---------------------------------------------------------------------------
// serve_reads
// ---------------------------------------------------------------------------

namespace {

/// One read-only tenant: its create request and query streams.
struct ReadTenant {
  std::string name;
  std::string family;
  std::vector<std::string> requests;  ///< create, warm-up queries, timed queries
  std::size_t untimed = 0;            ///< create + warm-up
};

std::vector<ReadTenant> read_tenants(const Options& options, std::uint64_t run_seed) {
  static constexpr std::string_view kFamilies[] = {"gnm", "regular", "planted", "cycle"};
  const unsigned n = options.smoke ? 500 : 10000;
  const std::size_t warmup = options.smoke ? 2 : 20;
  const std::size_t timed = options.smoke ? 20 : 90 * static_cast<std::size_t>(options.seconds);
  std::vector<ReadTenant> tenants;
  for (std::size_t i = 0; i < std::size(kFamilies); ++i) {
    const std::uint64_t seed =
        decycle::util::hash_combine(run_seed, decycle::util::splitmix64(0x4eadULL + i));
    ReadTenant t;
    t.name = "r" + std::to_string(i);
    t.family = kFamilies[i];
    t.requests.push_back("create tenant=" + t.name + " n=" + std::to_string(n) +
                         " family=" + t.family + " k=5 seed=" + std::to_string(seed));
    decycle::util::Rng rng(decycle::util::hash_combine(seed, 0x0b5eedULL));
    const auto fresh = [&] {
      const char* algo = rng.next_double() < 0.8 ? "tester" : "edge_checker";
      const unsigned k = rng.next_below(2) == 0 ? 3 : 5;
      const std::uint64_t qseed = rng();
      return "query tenant=" + t.name + " algo=" + algo + " k=" + std::to_string(k) +
             " eps=0.25 seed=" + std::to_string(qseed) + " reps=1";
    };
    for (std::size_t q = 0; q < warmup; ++q) t.requests.push_back(fresh());
    t.untimed = t.requests.size();
    for (std::size_t q = 0; q < timed; ++q) {
      // One query in five repeats an earlier timed query of this tenant.
      if (q > 0 && rng.next_double() < 0.2) {
        t.requests.push_back(t.requests[t.untimed + rng.next_below(q)]);
      } else {
        t.requests.push_back(fresh());
      }
    }
    tenants.push_back(std::move(t));
  }
  return tenants;
}

/// Drives every tenant on its own connection: creates, then (unless
/// \p creates_only) warm-up and timed queries, each phase started together.
std::vector<std::vector<Call>> drive_reads(const std::string& socket,
                                           const std::vector<ReadTenant>& tenants,
                                           bool creates_only) {
  std::vector<std::vector<Call>> transcripts(tenants.size());
  std::barrier phase(static_cast<std::ptrdiff_t>(tenants.size()));
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    threads.emplace_back([&, i] {
      SocketClient client(socket, &transcripts[i]);
      const std::vector<std::string>& requests = tenants[i].requests;
      (void)client.call(requests.front());
      if (creates_only) return;
      phase.arrive_and_wait();
      for (std::size_t q = 1; q < tenants[i].untimed; ++q) (void)client.call(requests[q]);
      phase.arrive_and_wait();
      for (std::size_t q = tenants[i].untimed; q < requests.size(); ++q) {
        (void)client.call(requests[q]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return transcripts;
}

}  // namespace

Result run_serve_reads(const Options& options) {
  const std::vector<ReadTenant> tenants = read_tenants(options, options.seed);
  ServeRun run;
  Result result;
  result.notes.push_back("vCPU warm-up " + json_double(warm_up_cpus()) + " s");
  for (std::uint64_t s = 0; s < kSetupSamples; ++s) {
    Daemon daemon(options, "reads-setup");
    const auto transcripts = drive_reads(daemon.socket(), read_tenants(options, panel_seed(s)), true);
    run.setup_s.push_back(setup_seconds(daemon.spawned(), transcripts));
    for (const auto& calls : transcripts) {
      if (calls.empty() || !serve::is_ok(calls.front().reply)) {
        result.check_failed("set-up create failed: " +
                            (calls.empty() ? std::string("no reply") : calls.front().reply));
      }
    }
  }
  (void)warm_up_cpus();
  {
    Daemon daemon(options, "reads");
    run.transcripts = drive_reads(daemon.socket(), tenants, false);
    finish_daemon(daemon, run, result);
  }

  // Reference: each tenant's stream replayed on its own one-worker
  // in-process server; every reply must match byte for byte.
  std::vector<std::vector<std::string>> expected(tenants.size());
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      threads.emplace_back([&, i] {
        ReferenceClient reference;
        for (const std::string& request : tenants[i].requests) {
          expected[i].push_back(reference.call(request));
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  std::uint64_t mismatched_replies = 0;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const ReadTenant& t = tenants[i];
    run.families[t.name] = t.family;
    run.untimed.push_back(t.untimed);
    run.expected_requests += t.requests.size();
    const std::vector<Call>& got = run.transcripts[i];
    for (std::size_t q = 0; q < expected[i].size(); ++q) {
      if (!serve::is_ok(expected[i][q])) {
        result.check_failed("reference replied '" + expected[i][q] + "' to '" + t.requests[q] + "'");
      }
      if (q >= got.size() || got[q].payload != t.requests[q] || got[q].reply != expected[i][q]) {
        ++mismatched_replies;
        run.mismatched_tenants.insert(t.name);
      }
    }
  }
  if (mismatched_replies > 0) {
    result.check_failed(std::to_string(mismatched_replies) +
                        " replies differ from the workers=1 reference");
  }
  summarize(options, run, result);
  return result;
}

}  // namespace perfbench
