#include "child.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <thread>

namespace perfbench {
namespace {

int64_t vm_hwm_kib(const std::string& status_path) {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::atoll(line.c_str() + 6);
  return 0;
}

}  // namespace

bool Child::spawn(const std::vector<std::string>& argv,
                  const std::string& log_path) {
  log_path_ = log_path;
  // Truncated before the fork, so wait_for_line never sees an earlier
  // run's output.
  const int fd =
      open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fd);
    return false;
  }
  if (pid == 0) {
    // Die with the harness, whatever kills it.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(fd, STDOUT_FILENO);
    dup2(fd, STDERR_FILENO);
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    execv(args[0], args.data());
    _exit(127);
  }
  close(fd);
  pid_ = pid;
  return true;
}

std::string Child::wait_for_line(const std::string& marker,
                                 std::chrono::milliseconds timeout) const {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    std::ifstream in(log_path_);
    std::string line;
    while (std::getline(in, line))
      if (line.find(marker) != std::string::npos) return line;
    int status = 0;
    if (pid_ <= 0 || waitpid(pid_, &status, WNOHANG) != 0) return "";
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return "";
}

int64_t Child::peak_rss_kib() const {
  if (pid_ <= 0) return 0;
  return vm_hwm_kib("/proc/" + std::to_string(pid_) + "/status");
}

void Child::request_stop() const {
  if (pid_ > 0) kill(pid_, SIGTERM);
}

void Child::stop(std::chrono::milliseconds grace) {
  if (pid_ <= 0) return;
  kill(pid_, SIGTERM);
  const auto deadline = std::chrono::steady_clock::now() + grace;
  int status = 0;
  while (waitpid(pid_, &status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() >= deadline) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
}

int64_t self_peak_rss_kib() { return vm_hwm_kib("/proc/self/status"); }

uint16_t free_loopback_port() {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  uint16_t port = 0;
  socklen_t len = sizeof(addr);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
    port = ntohs(addr.sin_port);
  close(fd);
  return port;
}

}  // namespace perfbench
