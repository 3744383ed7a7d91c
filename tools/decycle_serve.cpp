/// \file decycle_serve.cpp
/// \brief The multi-tenant detection daemon over an AF_UNIX socket.
///
/// Serves the serve::Server request grammar (protocol.hpp) on a local
/// stream socket with length-prefixed frames. Each accepted connection gets
/// a reader thread feeding a FrameReader; complete payloads go through
/// Server::submit, and replies are framed back on the same socket (a
/// per-connection write mutex serializes concurrent worker replies). A
/// garbled frame gets one final ERROR bad_frame reply and the connection is
/// closed — the length-prefix desync is unrecoverable by design.
///
///   decycle_serve --socket=/tmp/decycle.sock --workers=8
///   echo -n '5 stats' | nc -U /tmp/decycle.sock   # (nc appends the \n)
///
/// Flags (both --key=value and "--key value" forms are accepted):
///   --socket=PATH     AF_UNIX socket path (required; unlinked on start/exit)
///   --workers=N       server worker threads (default 4)
///   --queue-capacity=N   admission queue bound (default 1024)
///   --tenant-cap=N    per-tenant in-flight cap (default 64)
///   --cache=N         verdict-cache capacity, 0 disables (default 65536)
///   --stats-out=FILE  write the JSONL stats dump here at shutdown
///
/// Shutdown: a `shutdown` request (or SIGINT/SIGTERM) drains admitted work,
/// dumps stats JSONL (to --stats-out and stderr), and exits 0.
#include <atomic>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

namespace {

std::atomic<bool> g_signal_stop{false};

void on_signal(int) { g_signal_stop.store(true, std::memory_order_release); }

/// One connection: owns the fd and the write-side mutex that serializes
/// replies coming back from arbitrary worker threads.
struct Connection {
  explicit Connection(int descriptor) : fd(descriptor) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void send_frame(const std::string& payload) {
    const std::string frame = decycle::serve::encode_frame(payload);
    std::lock_guard lock(write_mutex);
    std::size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n = ::send(fd, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return;  // peer went away; replies to the void are fine
      sent += static_cast<std::size_t>(n);
    }
  }

  int fd;
  std::mutex write_mutex;
};

void serve_connection(decycle::serve::Server& server, std::shared_ptr<Connection> conn) {
  decycle::serve::FrameReader reader;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n <= 0) return;  // EOF or error: client is gone
    reader.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    for (;;) {
      std::string payload;
      const auto status = reader.next(payload);
      if (status == decycle::serve::FrameReader::Status::kNeedMore) break;
      if (status == decycle::serve::FrameReader::Status::kError) {
        conn->send_frame(decycle::serve::format_error(decycle::serve::ErrorCode::kBadFrame,
                                                      reader.error()));
        ::shutdown(conn->fd, SHUT_RDWR);
        return;
      }
      // Replies may arrive from worker threads after this loop moved on;
      // the shared_ptr keeps the connection alive until the last lands.
      server.submit(std::move(payload),
                    [conn](std::string reply) { conn->send_frame(reply); });
    }
  }
}

int run(const decycle::util::Args& args) {
  using namespace decycle;

  const std::string socket_path = args.get_string("socket", "");
  if (socket_path.empty()) throw util::ParseError("socket", "decycle_serve requires --socket=PATH");
  serve::ServerOptions options;
  options.workers = args.get("workers", options.workers);
  options.queue_capacity = args.get("queue-capacity", options.queue_capacity);
  options.tenant_inflight_cap = args.get("tenant-cap", options.tenant_inflight_cap);
  options.verdict_cache_capacity = args.get("cache", options.verdict_cache_capacity);
  const std::string stats_out = args.get_string("stats-out", "");
  args.reject_unknown();

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    throw util::CheckError("--socket path too long for sockaddr_un");
  }
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);

  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) throw util::CheckError("socket() failed");
  ::unlink(socket_path.c_str());
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw util::CheckError("bind() failed on " + socket_path);
  }
  if (::listen(listen_fd, 64) != 0) throw util::CheckError("listen() failed");

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  serve::Server server(options);
  server.start();
  std::cerr << "decycle_serve: listening on " << socket_path << " workers=" << options.workers
            << " queue=" << options.queue_capacity << "\n";

  std::vector<std::thread> connection_threads;
  std::vector<std::weak_ptr<Connection>> connections;
  std::mutex connections_mutex;

  while (!g_signal_stop.load(std::memory_order_acquire) && !server.shutdown_requested()) {
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    auto conn = std::make_shared<Connection>(fd);
    {
      std::lock_guard lock(connections_mutex);
      connections.push_back(conn);
    }
    connection_threads.emplace_back(
        [&server, conn = std::move(conn)]() mutable { serve_connection(server, std::move(conn)); });
  }

  ::close(listen_fd);
  {
    // Nudge readers off recv() so their threads can join.
    std::lock_guard lock(connections_mutex);
    for (const std::weak_ptr<Connection>& weak : connections) {
      if (const std::shared_ptr<Connection> conn = weak.lock()) {
        ::shutdown(conn->fd, SHUT_RDWR);
      }
    }
  }
  for (std::thread& t : connection_threads) t.join();
  server.stop();

  const std::string stats = server.stats_jsonl();
  if (!stats_out.empty()) {
    std::ofstream out(stats_out, std::ios::binary);
    if (!out.good()) throw util::CheckError("cannot open --stats-out file: " + stats_out);
    out << stats;
  }
  std::cerr << stats;
  ::unlink(socket_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return decycle::util::run_main("decycle_serve", argc, argv, run);
}
