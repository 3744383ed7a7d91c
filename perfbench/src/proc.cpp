#include "proc.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>

namespace perfbench {

// ---------------------------------------------------------------------------
// Child
// ---------------------------------------------------------------------------

Child::Child(const std::vector<std::string>& argv, int stdout_fd, int stderr_fd) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  spawned_ = Clock::now();
  pid_ = ::fork();
  if (pid_ < 0) throw BenchError("spawn", "fork() failed: " + std::string(std::strerror(errno)));
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int devnull = ::open("/dev/null", O_RDWR);
    ::dup2(devnull, 0);
    ::dup2(stdout_fd >= 0 ? stdout_fd : devnull, 1);
    ::dup2(stderr_fd >= 0 ? stderr_fd : devnull, 2);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
}

Child::~Child() {
  if (status_.empty()) wait(0.0);
}

void Child::reap(int status, long maxrss_kib) {
  peak_rss_kib_ = maxrss_kib;
  if (WIFEXITED(status)) {
    status_ = "exit " + std::to_string(WEXITSTATUS(status));
  } else if (WIFSIGNALED(status)) {
    status_ = "signal " + std::to_string(WTERMSIG(status));
  } else {
    status_ = "unknown";
  }
}

bool Child::exited() {
  if (!status_.empty()) return true;
  int status = 0;
  rusage usage{};
  if (::wait4(pid_, &status, WNOHANG, &usage) == pid_) reap(status, usage.ru_maxrss);
  return !status_.empty();
}

std::string Child::wait(double timeout_s) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  while (!exited() && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (status_.empty()) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    rusage usage{};
    while (::wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
    }
    reap(status, usage.ru_maxrss);
  }
  return status_;
}

// ---------------------------------------------------------------------------
// SocketClient
// ---------------------------------------------------------------------------

namespace {

/// Connects to \p path; returns the fd or -1 with \p error set.
int connect_unix(const std::string& path, std::string& error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    error = "socket path too long: " + path;
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    error = "socket() failed: " + std::string(std::strerror(errno));
    return -1;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    error = "connect() failed on " + path + ": " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

SocketClient::SocketClient(const std::string& path, std::vector<Call>* transcript)
    : transcript_(transcript) {
  fd_ = connect_unix(path, connect_error_);
}

SocketClient::~SocketClient() {
  if (fd_ >= 0) ::close(fd_);
}

std::string SocketClient::round_trip(const std::string& payload) {
  if (fd_ < 0) return std::string(kTransportError) + connect_error_;
  const std::string frame = decycle::serve::encode_frame(payload);
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      ::close(fd_);
      fd_ = -1;
      connect_error_ = "send() failed (daemon gone?)";
      return std::string(kTransportError) + connect_error_;
    }
    sent += static_cast<std::size_t>(n);
  }
  for (;;) {
    std::string reply;
    const auto status = reader_.next(reply);
    if (status == decycle::serve::FrameReader::Status::kFrame) return reply;
    if (status == decycle::serve::FrameReader::Status::kError) {
      connect_error_ = "garbled reply stream: " + reader_.error();
      ::close(fd_);
      fd_ = -1;
      return std::string(kTransportError) + connect_error_;
    }
    char buf[4096];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      connect_error_ = "connection closed mid-reply (daemon gone?)";
      ::close(fd_);
      fd_ = -1;
      return std::string(kTransportError) + connect_error_;
    }
    reader_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
  }
}

std::string SocketClient::call(const std::string& payload) {
  const Clock::time_point start = Clock::now();
  std::string reply;
  try {
    reply = round_trip(payload);
  } catch (const std::exception& e) {
    reply = std::string(kTransportError) + e.what();
  }
  if (transcript_ != nullptr) {
    transcript_->push_back({payload, reply, start, ms_between(start, Clock::now())});
  }
  return reply;
}

// ---------------------------------------------------------------------------
// Daemon
// ---------------------------------------------------------------------------

Daemon::Daemon(const Options& options, const std::string& tag)
    : socket_(options.work_dir + "/" + tag + ".sock"), log_(options.work_dir + "/" + tag + ".log") {
  ::unlink(socket_.c_str());
  const int log_fd = ::open(log_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) throw BenchError("io", "cannot open daemon log " + log_);
  child_.emplace(std::vector<std::string>{options.bin_dir + "/decycle_serve", "--socket=" + socket_,
                                          "--workers=" + std::to_string(kParallelism)},
                 -1, log_fd);
  ::close(log_fd);

  // Readiness: the socket accepts a connection once the daemon listens.
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(30);
  for (;;) {
    std::string error;
    const int fd = connect_unix(socket_, error);
    if (fd >= 0) {
      ::close(fd);
      return;
    }
    if (child_->exited()) {
      throw BenchError("daemon", "decycle_serve ended before listening (" + child_->status() +
                                     "); see " + log_);
    }
    if (Clock::now() > deadline) {
      throw BenchError("daemon", "decycle_serve did not listen within 30 s: " + error);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

Daemon::~Daemon() {
  if (!child_->exited()) {
    ::kill(child_->pid(), SIGKILL);
    child_->wait(10.0);
  }
  ::unlink(socket_.c_str());
}

std::optional<std::string> Daemon::stats() {
  SocketClient client(socket_, nullptr);
  const std::string reply = client.call("stats");
  if (reply.rfind("OK stats", 0) != 0) return std::nullopt;
  const std::size_t global = reply.find("{\"record\":\"global\"");
  if (global == std::string::npos) return std::nullopt;
  return reply.substr(global, reply.find('\n', global) - global);
}

std::string Daemon::shutdown() {
  if (!child_->exited()) {
    SocketClient client(socket_, nullptr);
    if (client.call("shutdown") != "OK shutdown") ::kill(child_->pid(), SIGTERM);
  }
  return child_->wait(30.0);
}

std::optional<double> json_number(const std::string& record, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = record.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  try {
    return std::stod(record.substr(pos + needle.size()));
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace perfbench
