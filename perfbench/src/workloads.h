// The three workloads. Each builds its inputs from the seed, sets up what it
// measures, runs for about `seconds`, checks its own outputs, and returns
// the metrics: the end-to-end ones, or with `trace` the per-layer ones.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "report.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string state_dir;   // unique per run, removed by the caller
  Clock::time_point start;  // process start, for setup_s
};

Result run_proxy_hit(const RunArgs& args);
Result run_proxy_cluster(const RunArgs& args);
Result run_sim_replay(const RunArgs& args);

inline double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

}  // namespace perfbench
