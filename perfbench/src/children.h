// Daemon processes the benchmark starts and always reaps.
//
// Each origin and proxy daemon runs as a child process: this same binary,
// re-executed with --bench-daemon. The parent talks to it over a line
// protocol on the child's stdin/stdout (see daemon_main.cpp). The child
// exits on "stop", on end of input, and when its parent dies, so no daemon
// outlives a run, whether the run ends normally, on a failed check, or on an
// exception.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Child {
 public:
  // Starts `<this binary> --bench-daemon <args...>` and waits for its
  // "READY <port> <backend>" line. Throws std::runtime_error on failure.
  explicit Child(const std::vector<std::string>& args);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  std::uint16_t port() const { return port_; }
  const std::string& backend() const { return backend_; }
  pid_t pid() const { return pid_; }

  // Sends one command line and returns the one-line reply. Throws on a
  // dead child or a reply timeout.
  std::string command(const std::string& line, double timeout_seconds = 30.0);

  // Process-wide CPU time (user + system) in milliseconds, from /proc.
  double cpu_ms() const;
  // Peak resident set (VmHWM) in MB, from /proc.
  double peak_rss_mb() const;

  // Asks the child to stop and reaps it; kills it after a grace period.
  // Idempotent; the destructor calls it.
  void stop();

 private:
  std::string read_line(double timeout_seconds);

  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  std::string pending_;  // bytes read past the last line
  std::uint16_t port_ = 0;
  std::string backend_;
};

// Process-wide peak resident set of this process, in MB.
double self_peak_rss_mb();

// CPU sets for a run with daemons: the daemons get the lower half of the
// online CPUs, the load generator the upper half, so the two sides never
// compete for a core. Both are empty (no pinning) on fewer than 2 CPUs.
struct CpuSplit {
  std::vector<int> daemons;
  std::vector<int> loadgen;
};
CpuSplit split_cpus();

// Restricts the calling thread, and every thread it starts afterwards, to
// `cpus` (no-op when empty).
void pin_to_cpus(const std::vector<int>& cpus);

// {0, 1} -> "0,1".
std::string format_cpus(const std::vector<int>& cpus);

}  // namespace perfbench
