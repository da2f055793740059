// sim_replay: one scaled DEC trace (1/64, about 345K requests), generated
// once from the seed, replayed through the four architectures of Figure 8
// with unbounded capacities: the data hierarchy, the central directory,
// ICP, and hints with push-half placement (Figure 10). Pure CPU, no sockets.
//
// A round replays all four; rounds repeat until --seconds has passed. The
// hint architecture takes most of a round, so its rate and the baselines'
// rate are also printed apart.
#include <time.h>

#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "checks.h"
#include "children.h"
#include "core/experiment.h"
#include "layers.h"
#include "proxy/proxy_server.h"
#include "trace/generator.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct System {
  const char* name;
  bh::core::SystemKind kind;
  const char* push;
};

constexpr System kSystems[] = {
    {"hierarchy", bh::core::SystemKind::kHierarchy, "none"},
    {"directory", bh::core::SystemKind::kDirectory, "none"},
    {"icp", bh::core::SystemKind::kIcp, "none"},
    {"hints", bh::core::SystemKind::kHints, "push-half"},
};
constexpr std::size_t kHints = 3;

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) * 1e3 + double(ts.tv_nsec) / 1e6;
}

// The layer replays' inputs from the trace: the first 5 000 objects the
// trace requests (at their first size), and every request for them in
// trace order, as one stream: the simulator runs on one thread.
void trace_layer_inputs(const std::vector<bh::trace::Record>& records,
                        std::vector<LayerObject>& objects, KeyStreams& streams) {
  std::unordered_map<std::uint64_t, std::uint32_t> index;
  streams.assign(1, {});
  for (const bh::trace::Record& r : records) {
    if (r.type != bh::trace::RecordType::kRequest) continue;
    auto it = index.find(r.object.value);
    if (it == index.end()) {
      if (objects.size() == 5000) continue;
      it = index.emplace(r.object.value, std::uint32_t(objects.size())).first;
      objects.push_back({r.object.value, r.size});
    }
    streams[0].push_back(it->second);
  }
}

}  // namespace

Result run_sim_replay(const RunArgs& args) {
  Result res;
  // One thread: keep it on one CPU, the same one every run.
  if (const CpuSplit cpus = split_cpus(); !cpus.loadgen.empty()) {
    pin_to_cpus({cpus.loadgen.back()});
  }
  bh::core::ExperimentConfig base;
  base.workload = bh::trace::dec_workload().scaled(1.0 / 64.0);
  base.workload.seed = args.seed;
  base.cost_model = "testbed";

  const auto t0 = Clock::now();
  std::vector<bh::trace::Record> records =
      bh::trace::TraceGenerator(base.workload).generate_all();
  const double generate_s = seconds_since(t0);
  std::printf("# records=%zu\n", records.size());

  const std::uint64_t expected =
      expected_server_fetches(records, base.warmup_days * 86400.0);
  const auto config_for = [&](std::size_t s) {
    bh::core::ExperimentConfig cfg = base;
    cfg.system = kSystems[s].kind;
    cfg.hints.push_policy = kSystems[s].push;
    return cfg;
  };
  // A warm-up round, part of the set-up as the proxy workloads' first fetch
  // of every object is: the timed rounds then all start warm. It also makes
  // the set-up long enough (several seconds) to span the swings of this
  // kind of shared host's speed, which a 50 ms generation alone catches at
  // one instant: two cold generations a second apart read 0.042 and
  // 0.067 s.
  for (std::size_t s = 0; s < 4; ++s) {
    const bh::core::ExperimentResult r =
        bh::core::run_experiment_on(records, config_for(s));
    ++res.attempted;
    res.check(check_server_fetches(
        kSystems[s].name, r.snapshot.counter("bh.core.server_fetches"), expected));
  }
  const double setup_s = seconds_since(args.start);

  std::vector<double> times[4];
  std::vector<double> round_s, baseline_round_s;
  bh::core::ExperimentResult hints_result;
  const auto run_start = Clock::now();
  const double cpu_start_ms = process_cpu_ms();
  do {
    double mean_ms[4] = {};
    double baselines_s = 0;
    for (std::size_t s = 0; s < 4; ++s) {
      const auto t = Clock::now();
      bh::core::ExperimentResult r =
          bh::core::run_experiment_on(records, config_for(s));
      const double dt = seconds_since(t);
      times[s].push_back(dt);
      if (s != kHints) baselines_s += dt;
      ++res.attempted;
      mean_ms[s] = r.metrics.mean_response_ms();
      res.check(check_server_fetches(
          kSystems[s].name, r.snapshot.counter("bh.core.server_fetches"),
          expected));
      if (s == kHints) hints_result = std::move(r);
    }
    baseline_round_s.push_back(baselines_s);
    round_s.push_back(baselines_s + times[kHints].back());
    res.check(check_hints_faster(mean_ms[kHints], mean_ms[0]));
  } while (seconds_since(run_start) < args.seconds);

  const double cpu_ms = process_cpu_ms() - cpu_start_ms;
  const double n = static_cast<double>(records.size());
  const double server_fetches =
      double(hints_result.snapshot.counter("bh.core.server_fetches"));
  if (!args.trace) {
    res.add("setup_s", setup_s, "s");
    // The median round, so one slow round does not move it.
    res.add("requests_per_s", 4.0 * n / median(round_s), "req/s");
    res.add("peak_rss_mb", self_peak_rss_mb(), "MB");
    res.add("origin_fetches", server_fetches, "count");
    res.note("sim_hints_requests_per_s", n / median(times[kHints]), "records/s");
    res.note("sim_baselines_requests_per_s", 3.0 * n / median(baseline_round_s),
             "records/s");
  } else {
    res.add("cpu_ms_per_1k_req",
            cpu_ms / (4.0 * n * double(round_s.size())) * 1000.0, "ms");
    res.add("origin.fetches_per_version", server_fetches / double(expected),
            "ratio");
    res.note("trace.generate_s", generate_s, "s");
    for (std::size_t s = 0; s < 4; ++s) {
      res.note(std::string("core.") + kSystems[s].name + ".replay_s",
               median(times[s]), "s");
    }
    const auto& snap = hints_result.snapshot;
    const double requests = double(snap.counter("bh.core.requests"));
    res.note("hints.meta_messages_per_req",
             requests > 0 ? double(snap.counter("bh.hints.meta_messages")) / requests : 0,
             "count");
    res.note("hints.root_updates", double(snap.counter("bh.hints.root_updates")),
             "count");
    res.note("placement.push-half.copies_pushed",
             double(snap.counter("bh.push.copies_pushed")), "count");

    std::vector<LayerObject> objects;
    KeyStreams streams;
    trace_layer_inputs(records, objects, streams);
    add_layer_metrics(res, objects, streams, bh::proxy::ProxyConfig{}.capacity_bytes,
                      args.state_dir + "/layer_disk");
  }
  return res;
}

}  // namespace perfbench
