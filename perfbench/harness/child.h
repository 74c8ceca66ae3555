// Child processes of the benchmark: the shipped fqbert_cli servers run
// as children with their output in a log file inside the work
// directory. A Child is stopped (SIGTERM, then SIGKILL after a grace
// period) and reaped when it goes out of scope, and dies with the
// harness if the harness is killed first.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <string>
#include <vector>

namespace perfbench {

class Child {
 public:
  Child() = default;
  ~Child() { stop(); }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  // fork + exec `argv` with stdout and stderr appended to `log_path`.
  // False when the fork fails.
  bool spawn(const std::vector<std::string>& argv, const std::string& log_path);

  // Poll the log until a line containing `marker` appears; returns that
  // line, or "" when the child exits or `timeout` passes first.
  std::string wait_for_line(const std::string& marker,
                            std::chrono::milliseconds timeout) const;

  // Peak resident set (VmHWM) so far, in KiB; 0 if unreadable.
  int64_t peak_rss_kib() const;

  // SIGTERM without waiting (stop() still reaps).
  void request_stop() const;
  // SIGTERM, wait up to `grace`, then SIGKILL; always reaps.
  void stop(std::chrono::milliseconds grace = std::chrono::milliseconds(5000));

 private:
  pid_t pid_ = -1;
  std::string log_path_;
};

// Peak resident set (VmHWM) of this process, in KiB.
int64_t self_peak_rss_kib();

// An unused loopback TCP port (bound once with port 0, then released).
uint16_t free_loopback_port();

}  // namespace perfbench
