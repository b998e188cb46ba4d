// A child process spoken to one line at a time over stdin/stdout pipes: the
// closed-loop client side of ioguard_admitd.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

class Daemon {
 public:
  /// Starts `argv[0]` with `argv`; throws std::runtime_error on failure.
  explicit Daemon(const std::vector<std::string>& argv);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Writes `line` + '\n' and blocks for one reply line (without '\n');
  /// throws std::runtime_error when the child closed its stdout.
  std::string call(const std::string& line);

  /// Closes the child's stdin and waits for it; returns its peak resident
  /// set in MiB. Idempotent (later calls return the first result).
  double finish();

 private:
  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  std::string buffer_;
  double peak_rss_mb_ = 0.0;
};

}  // namespace perfbench
