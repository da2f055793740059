#include "children.h"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace perfbench {

namespace {

std::string self_exe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  return std::string(buf, static_cast<std::size_t>(n));
}

double status_field_kb(const std::string& path, const char* field) {
  std::ifstream in(path);
  std::string line;
  const std::size_t flen = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, flen, field) == 0) {
      return std::strtod(line.c_str() + flen, nullptr);
    }
  }
  return 0;
}

}  // namespace

CpuSplit split_cpus() {
  CpuSplit split;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return split;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  if (cpus.size() < 2) return split;
  const std::size_t half = cpus.size() / 2;
  split.daemons.assign(cpus.begin(), cpus.begin() + half);
  split.loadgen.assign(cpus.begin() + half, cpus.end());
  return split;
}

void pin_to_cpus(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  ::sched_setaffinity(0, sizeof set, &set);
}

std::string format_cpus(const std::vector<int>& cpus) {
  std::string out;
  for (int c : cpus) out += (out.empty() ? "" : ",") + std::to_string(c);
  return out;
}

double self_peak_rss_mb() {
  return status_field_kb("/proc/self/status", "VmHWM:") / 1024.0;
}

Child::Child(const std::vector<std::string>& args) {
  int in_pipe[2], out_pipe[2];
  if (::pipe2(in_pipe, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    throw std::runtime_error("pipe failed");
  }
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, in_pipe[0], 0);
  posix_spawn_file_actions_adddup2(&fa, out_pipe[1], 1);

  const std::string exe = self_exe();
  std::vector<std::string> argv_s{exe, "--bench-daemon",
                                   "--parent=" + std::to_string(::getpid())};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);

  const int rc = ::posix_spawn(&pid_, exe.c_str(), &fa, nullptr, argv.data(),
                               environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  to_child_ = in_pipe[1];
  from_child_ = out_pipe[0];
  if (rc != 0) {
    pid_ = -1;
    stop();
    throw std::runtime_error(std::string("posix_spawn failed: ") +
                             std::strerror(rc));
  }
  try {
    const std::string ready = read_line(30.0);
    unsigned port = 0;
    char backend[64] = {0};
    if (std::sscanf(ready.c_str(), "READY %u %63s", &port, backend) != 2) {
      throw std::runtime_error("daemon did not start: " + ready);
    }
    port_ = static_cast<std::uint16_t>(port);
    backend_ = backend;
  } catch (...) {
    stop();
    throw;
  }
}

Child::~Child() { stop(); }

std::string Child::read_line(double timeout_seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  for (;;) {
    const std::size_t nl = pending_.find('\n');
    if (nl != std::string::npos) {
      std::string line = pending_.substr(0, nl);
      pending_.erase(0, nl + 1);
      return line;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) throw std::runtime_error("daemon reply timed out");
    pollfd p{from_child_, POLLIN, 0};
    const int r = ::poll(&p, 1, static_cast<int>(left));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) continue;
    char buf[4096];
    const ssize_t n = ::read(from_child_, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("daemon exited");
    pending_.append(buf, static_cast<std::size_t>(n));
  }
}

std::string Child::command(const std::string& line, double timeout_seconds) {
  if (pid_ < 0) throw std::runtime_error("daemon not running");
  const std::string msg = line + "\n";
  std::size_t off = 0;
  while (off < msg.size()) {
    const ssize_t n = ::write(to_child_, msg.data() + off, msg.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("daemon closed its input");
    off += static_cast<std::size_t>(n);
  }
  return read_line(timeout_seconds);
}

double Child::cpu_ms() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name: state is field 3, utime
  // and stime are fields 14 and 15.
  const std::size_t close_paren = stat.rfind(')');
  if (close_paren == std::string::npos) return 0;
  std::istringstream rest(stat.substr(close_paren + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::strtod(field.c_str(), nullptr);
    if (i == 15) stime = std::strtod(field.c_str(), nullptr);
  }
  return (utime + stime) * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double Child::peak_rss_mb() const {
  return status_field_kb("/proc/" + std::to_string(pid_) + "/status",
                         "VmHWM:") /
         1024.0;
}

void Child::stop() {
  if (to_child_ >= 0) {
    static const char kStop[] = "stop\n";
    if (pid_ > 0) {
      [[maybe_unused]] const ssize_t n = ::write(to_child_, kStop, sizeof kStop - 1);
    }
    ::close(to_child_);
    to_child_ = -1;
  }
  if (pid_ > 0) {
    // Grace period for a clean stop (drains the disk writer, joins threads),
    // then SIGKILL. Either way the child is reaped before we return.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    int status = 0;
    for (;;) {
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_ || (r < 0 && errno != EINTR)) break;
      if (std::chrono::steady_clock::now() >= deadline) {
        ::kill(pid_, SIGKILL);
        while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
        }
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }
  if (from_child_ >= 0) {
    ::close(from_child_);
    from_child_ = -1;
  }
}

}  // namespace perfbench
