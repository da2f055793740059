// perfbench: the repository's benchmark.
//
//   perfbench --workload proxy_hit|proxy_cluster|sim_replay --seed N
//             --seconds S --trace 0|1 [--state-root DIR]
//
// Prints progress notes as "# ..." lines and, as the last line of standard
// output, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones; every workload reports the same set, and figures of one
// workload only are printed as "# name value unit" lines before it. Per-run state (disk tiers) lives in a fresh directory
// under --state-root and is removed at the end. Exits 1 without a result
// when the run cannot be carried out, 2 on bad arguments.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "report.h"
#include "workloads.h"

namespace perfbench {
int daemon_main(const std::vector<std::string>& args);
}

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "proxy_hit|proxy_cluster|sim_replay --seed N --seconds S "
               "--trace 0|1 [--state-root DIR]\n",
               why.c_str());
  std::exit(2);
}

// Removes the per-run directory however the run ends.
struct StateDir {
  std::string path;
  ~StateDir() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  const Clock::time_point start = Clock::now();
  std::vector<std::string> args(argv + 1, argv + argc);
  if (!args.empty() && args[0] == "--bench-daemon") {
    return daemon_main(std::vector<std::string>(args.begin() + 1, args.end()));
  }

  RunArgs run;
  run.start = start;
  std::string state_root = ".bench_build/runs";
  std::string trace = "0";
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string key = args[i], value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < args.size()) {
      value = args[++i];
    } else {
      usage("missing value for " + key);
    }
    if (key == "--workload") run.workload = value;
    else if (key == "--seed") run.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") run.seconds = std::atof(value.c_str());
    else if (key == "--trace") trace = value;
    else if (key == "--state-root") state_root = value;
    else usage("unknown option " + key);
  }
  if (trace != "0" && trace != "1") usage("--trace must be 0 or 1");
  run.trace = trace == "1";
  if (run.seconds <= 0) usage("--seconds must be > 0");
  Result (*fn)(const RunArgs&) = nullptr;
  if (run.workload == "proxy_hit") fn = run_proxy_hit;
  else if (run.workload == "proxy_cluster") fn = run_proxy_cluster;
  else if (run.workload == "sim_replay") fn = run_sim_replay;
  else usage("unknown workload '" + run.workload + "'");

  StateDir state;
  Result result;
  try {
    std::filesystem::create_directories(state_root);
    std::string tmpl = state_root + "/run-XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("cannot create a run directory under " + state_root);
    }
    state.path = tmpl;
    run.state_dir = tmpl;
    result = fn(run);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", run.workload.c_str(), e.what());
    return 1;
  }
  for (const Metric& m : result.notes) {
    std::printf("%s\n", to_note_line(m).c_str());
  }
  for (const std::string& p : result.problems) {
    std::printf("# check failed: %s\n", p.c_str());
  }
  std::printf("%s\n", to_json_line(result).c_str());
  std::fflush(stdout);
  return 0;
}
