#include "daemon.hpp"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <stdexcept>

namespace perfbench {

namespace {

void write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("write to daemon: ") +
                               std::strerror(errno));
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
}

}  // namespace

Daemon::Daemon(const std::vector<std::string>& argv) {
  // A daemon that dies must surface as a failed write, not kill the client.
  std::signal(SIGPIPE, SIG_IGN);
  int in[2], out[2];
  if (::pipe2(in, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  if (::pipe2(out, O_CLOEXEC) != 0) {
    ::close(in[0]);
    ::close(in[1]);
    throw std::runtime_error("pipe failed");
  }
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    ::dup2(in[0], STDIN_FILENO);
    ::dup2(out[1], STDOUT_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(in[0]);
  ::close(out[1]);
  to_child_ = in[1];
  from_child_ = out[0];
}

Daemon::~Daemon() {
  try {
    finish();
  } catch (...) {
    // Destructors must not throw; finish() only throws on a dead child,
    // which the caller has already seen through call().
  }
}

std::string Daemon::call(const std::string& line) {
  std::string msg = line;
  msg.push_back('\n');
  write_all(to_child_, msg.data(), msg.size());
  for (;;) {
    const auto nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string reply = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return reply;
    }
    char chunk[65536];
    const ssize_t r = ::read(from_child_, chunk, sizeof chunk);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) throw std::runtime_error("daemon closed its output");
    buffer_.append(chunk, static_cast<std::size_t>(r));
  }
}

double Daemon::finish() {
  if (pid_ <= 0) return peak_rss_mb_;
  if (to_child_ >= 0) ::close(to_child_);
  to_child_ = -1;
  int status = 0;
  rusage ru{};
  while (::wait4(pid_, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  if (from_child_ >= 0) ::close(from_child_);
  from_child_ = -1;
  peak_rss_mb_ = static_cast<double>(ru.ru_maxrss) / 1024.0;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("daemon exited abnormally (status " +
                             std::to_string(status) + ")");
  return peak_rss_mb_;
}

}  // namespace perfbench
