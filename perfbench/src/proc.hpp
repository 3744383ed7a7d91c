/// \file proc.hpp
/// \brief Child processes and the never-throwing socket client.
///
/// Child owns one spawned process: it is always waited for, and killed
/// first if it is still running when the owner gives up, so a benchmark run
/// never leaves a process behind. SocketClient is the benchmark's transport
/// into decycle_serve: every failure (connect, send, short read, garbled
/// frame) becomes a synthetic `ERROR transport <detail>` reply, so
/// serve::run_loadgen counts it as a failed request instead of unwinding a
/// client thread.
#pragma once

#include <sys/types.h>

#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "serve/loadgen.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

class Child {
 public:
  /// Spawns \p argv (argv[0] is the executable path). stdout/stderr go to
  /// the given descriptors (-1 = /dev/null). The child is killed if the
  /// spawning process dies first.
  Child(const std::vector<std::string>& argv, int stdout_fd, int stderr_fd);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  [[nodiscard]] Clock::time_point spawned() const noexcept { return spawned_; }

  /// True once the process has ended (reaps it without blocking).
  [[nodiscard]] bool exited();

  /// Waits up to \p timeout_s for the process to end, then SIGKILLs it.
  /// Returns the exit description ("exit 0", "signal 9", ...).
  std::string wait(double timeout_s);

  /// Exit description once reaped; empty while running.
  [[nodiscard]] const std::string& status() const noexcept { return status_; }
  /// Peak resident set size (ru_maxrss) once reaped, in KiB.
  [[nodiscard]] long peak_rss_kib() const noexcept { return peak_rss_kib_; }

 private:
  void reap(int status, long maxrss_kib);

  pid_t pid_ = -1;
  Clock::time_point spawned_;
  std::string status_;
  long peak_rss_kib_ = 0;
};

/// One request/reply round trip as the client saw it.
struct Call {
  std::string payload;
  std::string reply;
  Clock::time_point start;
  double latency_ms = 0.0;
};

/// Transport-failure reply prefix.
inline constexpr std::string_view kTransportError = "ERROR transport ";

/// Blocking request/reply client over one AF_UNIX connection. Never throws
/// from call(); appends every round trip to the transcript when one is set.
class SocketClient final : public decycle::serve::Client {
 public:
  SocketClient(const std::string& path, std::vector<Call>* transcript);
  ~SocketClient() override;
  SocketClient(const SocketClient&) = delete;
  SocketClient& operator=(const SocketClient&) = delete;

  [[nodiscard]] std::string call(const std::string& payload) override;

 private:
  [[nodiscard]] std::string round_trip(const std::string& payload);

  int fd_ = -1;
  std::string connect_error_;
  decycle::serve::FrameReader reader_;
  std::vector<Call>* transcript_;
};

/// A freshly spawned `decycle_serve --workers=4` on a private socket path.
class Daemon {
 public:
  /// Spawns the daemon and polls until its socket accepts connections.
  Daemon(const Options& options, const std::string& tag);
  /// SIGKILLs the daemon unless shutdown() already ended it.
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] const std::string& socket() const noexcept { return socket_; }
  [[nodiscard]] Clock::time_point spawned() const noexcept { return child_->spawned(); }

  /// The daemon's `stats` dump (global record line), or nullopt when the
  /// daemon did not answer.
  [[nodiscard]] std::optional<std::string> stats();

  /// Sends `shutdown` and waits for the process; returns its exit
  /// description. Safe to call once the process already died.
  std::string shutdown();

  [[nodiscard]] const Child& child() const noexcept { return *child_; }

 private:
  std::string socket_;
  std::string log_;
  std::optional<Child> child_;
};

/// Extracts `"key":<number>` from a one-line JSON record; nullopt if absent.
[[nodiscard]] std::optional<double> json_number(const std::string& record, const std::string& key);

}  // namespace perfbench
