// proxy_hit and proxy_cluster: live daemons in child processes, driven over
// the benchmark's own HTTP client from a few client threads (one keep-alive
// connection each) plus the main thread, which scrapes and writes.
//
// A run is: set-up (start the daemons, wire the ring, warm the caches),
// a closed-loop phase over a fixed number of requests (requests_per_s), an
// open-loop phase at a fixed absolute rate (latency percentiles, charged
// from each request's scheduled send time, printed as notes), then the
// checks. /metrics is scraped before and after each phase.
#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include <time.h>
#include <sys/prctl.h>

#include "checks.h"
#include "children.h"
#include "http_client.h"
#include "layers.h"
#include "obs/export.h"
#include "proxy/proxy_server.h"
#include "trace/workload.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kGolden = 0.6180339887498949;

double frac_golden(std::size_t rank) {
  const double x = double(rank + 1) * kGolden;
  return x - std::floor(x);
}

// A uniform draw in [0, 1) that depends on the rank only, not on the seed.
double rank_uniform(std::size_t rank) {
  return double(splitmix_finalize(rank ^ 0x6d757461626c65ULL) >> 11) * 0x1.0p-53;
}

// --- workload shapes ---------------------------------------------------------
//
// Both proxy workloads follow the DEC model the simulator replays
// (trace::dec_workload()): its Zipf exponent, its lognormal object sizes and
// its mutable objects and update rate. Sizes and the set of modified objects
// are fixed functions of the popularity rank, so every seed offers the same
// byte mix and the same write share; the seed picks the object ids, the key
// streams and the order of the writes.

const bh::trace::WorkloadParams kDec = bh::trace::dec_workload();

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

// Inverse of normal_cdf, by bisection.
double normal_quantile(double u) {
  double lo = -12, hi = 12;
  for (int i = 0; i < 80; ++i) {
    const double mid = (lo + hi) / 2;
    (normal_cdf(mid) < u ? lo : hi) = mid;
  }
  return (lo + hi) / 2;
}

// The DEC size at quantile u: lognormal, clipped as the trace generator
// clips it.
std::uint32_t dec_size(double u) {
  const double raw = std::exp(kDec.size_lognorm_mu +
                              kDec.size_lognorm_sigma * normal_quantile(u));
  return static_cast<std::uint32_t>(std::clamp(
      raw, double(kDec.min_object_size), double(kDec.max_object_size)));
}

// proxy_hit: the DEC sizes below the 64 KB zero-copy threshold (about 98%
// of them), so every response takes the plain write path.
std::uint32_t hit_size(std::size_t rank) {
  static const double below = normal_cdf(
      (std::log(double(bh::proxy::ProxyConfig{}.zero_copy_min_bytes - 1)) -
       kDec.size_lognorm_mu) /
      kDec.size_lognorm_sigma);
  return dec_size(frac_golden(rank) * below);
}

// proxy_cluster: the DEC sizes (1.6% of them above the 64 KB zero-copy
// threshold), plus 1 in 500 ranks at 3.1-3.6 MB: above the 3 MB per-shard
// RAM maximum of a 24 MB cache, so they go straight to disk and are sent
// with sendfile. The DEC model makes no object that large at this count.
std::uint32_t cluster_size(std::size_t rank) {
  const double f = frac_golden(rank);
  if (rank % 500 == 499) return static_cast<std::uint32_t>((3.1 + f / 2) * 1048576);
  return dec_size(f);
}

// The DEC model's mutable objects: 8% of them on average, from twice that
// share among the most popular to a fifth of it among the least, as the
// trace generator draws them (with the rank as the popularity).
bool cluster_modified(std::size_t rank, std::size_t objects) {
  return rank_uniform(rank) <
         kDec.mutable_object_fraction * (2.0 - 1.8 * double(rank) / double(objects));
}

// The DEC model's update rate: the 1/64 DEC trace (seed 300) holds 37 394
// modifications among 345 313 requests, one per 9.2 requests.
constexpr std::size_t kDecRequestsPerModify = 9;

struct Spec {
  const char* name;
  std::size_t objects;
  std::size_t daemons;
  std::size_t clients;           // one thread and one connection each
  std::size_t closed_requests;   // closed-loop phase, all clients together
  double open_rate;              // open-loop requests/s, all clients together
  double open_share;             // share of --seconds in the open-loop phase
  std::size_t write_every;       // one modify per this many requests; 0: none
  std::uint64_t capacity_bytes;  // 0: the ProxyConfig default
  bool disk;
  double flush_interval;         // 0: the ProxyConfig default
  std::uint32_t (*size_of_rank)(std::size_t);
  bool (*modified_rank)(std::size_t, std::size_t);
};

// 5 000 objects of the DEC sizes below 64 KB take about 36 MB: they fit in
// the default 64 MB cache.
const Spec kHitSpec{
    "proxy_hit", 5000, 1, 2, 600000, 12000.0, 0.5, 0, 0, false, 0.0,
    hit_size, nullptr};

const Spec kClusterSpec{
    "proxy_cluster", 3000, 3, 3, 300000, 3000.0, 0.5, kDecRequestsPerModify,
    24ULL << 20, true, 0.1, cluster_size, cluster_modified};

// --- inputs ------------------------------------------------------------------

struct Object {
  std::uint64_t id = 0;
  std::uint32_t size = 0;
  std::string target;
};

std::vector<Object> make_objects(const Spec& spec, std::uint64_t seed) {
  std::vector<Object> objects(spec.objects);
  std::unordered_set<std::uint64_t> used;
  for (std::size_t r = 0; r < spec.objects; ++r) {
    std::uint64_t id = splitmix_finalize(seed * 0x100000001B3ULL + r) | 1;
    while (!used.insert(id).second) {
      id = splitmix_finalize(id) | 1;  // never 0: the hint stores' empty key
    }
    objects[r].id = id;
    objects[r].size = spec.size_of_rank(r);
    objects[r].target = object_target(id, objects[r].size);
  }
  return objects;
}

class Zipf {
 public:
  Zipf(std::size_t n, double alpha) : cdf_(n) {
    double sum = 0;
    for (std::size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(double(r + 1), alpha);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::uint32_t sample(std::mt19937_64& rng) const {
    const double u = std::uniform_real_distribution<double>(0, 1)(rng);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::uint32_t>(
        std::min<std::size_t>(cdf_.size() - 1, it - cdf_.begin()));
  }

 private:
  std::vector<double> cdf_;
};

KeyStreams make_streams(const Zipf& zipf, std::uint64_t seed, std::uint64_t tag,
                        std::size_t clients, std::size_t per_client) {
  KeyStreams streams(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    std::mt19937_64 rng(splitmix_finalize(seed ^ (tag << 8) ^ c));
    streams[c].resize(per_client);
    for (auto& k : streams[c]) k = zipf.sample(rng);
  }
  return streams;
}

// --- the clients -------------------------------------------------------------

struct Sample {
  std::uint32_t object;
  std::uint32_t version;
  Clock::time_point sent;
};

struct Client {
  HttpConn conn;
  std::uint16_t port = 0;
  PathCounts paths;
  std::uint64_t ok = 0, failed = 0;
  std::vector<std::string> problems;
  std::vector<Sample> samples;        // versions seen, when writes run
  std::vector<double> sched_ms;       // open loop: latency from schedule
  std::vector<double> late_ms;        // open loop: send time - schedule
  std::vector<std::uint32_t> window;  // open loop: window of each sample
  std::array<std::vector<double>, 5> span_ms;  // traced: by X-Cache path
  std::vector<std::pair<std::uint32_t, std::uint32_t>> miss_versions;

  void problem(std::string p) {
    if (problems.size() < 5) problems.push_back(std::move(p));
  }
};

struct Shared {
  const std::vector<Object>& objects;
  bool writes = false;
  std::vector<std::atomic<std::uint32_t>> issued;  // modifies issued, per object
  std::atomic<std::uint64_t> completed{0};

  Shared(const std::vector<Object>& o, bool w)
      : objects(o), writes(w), issued(o.size()) {}
};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// One GET and its checks. Returns the receive time.
Clock::time_point request(Client& c, Shared& sh, std::uint32_t k,
                          Clock::time_point sent, bool span) {
  const Object& o = sh.objects[k];
  Response r;
  bool ok = c.conn.is_open() || c.conn.connect(c.port);
  ok = ok && c.conn.get(o.target, false, r);
  const Clock::time_point recv = Clock::now();
  sh.completed.fetch_add(1, std::memory_order_relaxed);
  if (!ok || r.status != 200) {
    ++c.failed;
    c.problem("GET " + o.target + (ok ? " returned " + std::to_string(r.status)
                                     : " failed"));
    return recv;
  }
  ++c.ok;
  // The origin's version when the response arrived is at most one plus the
  // modifies issued so far (each is counted before it is sent).
  const std::uint32_t max_version =
      1 + sh.issued[k].load(std::memory_order_acquire);
  const std::uint32_t version =
      body_version(o.id, o.size, r.body.data(), r.body.size(), max_version);
  if (version == 0) {
    c.problem("GET " + o.target + " (" + cache_path_name(r.path) +
              "): body is not the origin's content at any version <= " +
              std::to_string(max_version));
  }
  switch (r.path) {
    case CachePath::kHit: ++c.paths.hit; break;
    case CachePath::kDisk: ++c.paths.disk; break;
    case CachePath::kSibling: ++c.paths.sibling; break;
    case CachePath::kMiss:
      ++c.paths.miss;
      c.miss_versions.emplace_back(k, version);
      break;
    case CachePath::kNone:
      c.problem("GET " + o.target + ": no X-Cache tag");
      break;
  }
  if (sh.writes) c.samples.push_back({k, version, sent});
  if (span) c.span_ms[static_cast<int>(r.path)].push_back(ms_between(sent, recv));
  return recv;
}

struct ModLog {
  std::uint32_t object;
  std::uint32_t version;
  Clock::time_point done;
};

struct Writer {
  Child* origin = nullptr;
  std::vector<std::uint32_t> order;  // objects to modify, cycled
  std::size_t next = 0;
  std::vector<ModLog> log;
  std::uint64_t failed = 0;
  std::uint64_t behind = 0;  // closed loop: sent after the clients had finished

  // Never throws: it runs while client threads are still to be joined.
  void write_one(Shared& sh) {
    const std::uint32_t k = order[next++ % order.size()];
    sh.issued[k].fetch_add(1, std::memory_order_release);
    std::string reply;
    try {
      reply = origin->command("modify " + std::to_string(sh.objects[k].id));
    } catch (const std::exception&) {
      reply.clear();
    }
    unsigned version = 0;
    if (std::sscanf(reply.c_str(), "ok %u", &version) != 1) {
      ++failed;
      return;
    }
    log.push_back({k, version, Clock::now()});
  }
};

void sleep_until(Clock::time_point t) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      t.time_since_epoch())
                      .count();
  timespec ts{static_cast<time_t>(ns / 1000000000), static_cast<long>(ns % 1000000000)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

// Closed loop: every client runs its stream back to back. The main thread
// issues one modify per `write_every` completed requests. Returns seconds.
double closed_phase(std::vector<std::unique_ptr<Client>>& clients, Shared& sh,
                    const KeyStreams& streams, bool span, Writer* writer,
                    std::size_t write_every, std::uint64_t& writes) {
  const std::size_t n = clients.size();
  std::barrier start(static_cast<std::ptrdiff_t>(n + 1));
  std::atomic<std::size_t> done{0};
  std::vector<std::thread> threads;
  sh.completed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      Client& c = *clients[i];
      start.arrive_and_wait();
      for (std::uint32_t k : streams[i]) {
        // Send times are read only when something uses them.
        request(c, sh, k,
                span || sh.writes ? Clock::now() : Clock::time_point{}, span);
      }
      done.fetch_add(1);
    });
  }
  start.arrive_and_wait();
  const auto t0 = Clock::now();
  std::size_t total = 0;
  for (const auto& s : streams) total += s.size();
  const std::uint64_t planned = writer && write_every ? total / write_every : 0;
  std::uint64_t issued = 0;
  while (issued < planned) {
    const bool due =
        sh.completed.load(std::memory_order_relaxed) >= (issued + 1) * write_every;
    if (due || done.load() == n) {
      if (!due) ++writer->behind;
      writer->write_one(sh);
      ++issued;
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  for (std::thread& t : threads) t.join();
  writes += issued;
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Open loop: client i sends request j at t0 + (i + j * clients) / rate,
// whatever happened before; latency is charged from that schedule. The main
// thread issues one modify per `write_every` scheduled requests, on the
// same clock.
void open_phase(std::vector<std::unique_ptr<Client>>& clients, Shared& sh,
                const KeyStreams& streams, double rate, double window_s,
                bool span,
                Writer* writer, std::size_t write_every,
                std::uint64_t& writes) {
  const std::size_t n = clients.size();
  const double gap_s = 1.0 / rate;
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      Client& c = *clients[i];
      c.sched_ms.reserve(c.sched_ms.size() + streams[i].size());
      c.late_ms.reserve(c.late_ms.size() + streams[i].size());
      for (std::size_t j = 0; j < streams[i].size(); ++j) {
        const auto sched = t0 + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(
                                        double(i + j * n) * gap_s));
        if (Clock::now() < sched) sleep_until(sched);
        const auto sent = Clock::now();
        const auto recv = request(c, sh, streams[i][j], sent, span);
        c.late_ms.push_back(ms_between(sched, sent));
        c.sched_ms.push_back(ms_between(sched, recv));
        c.window.push_back(
            static_cast<std::uint32_t>(double(i + j * n) * gap_s / window_s));
      }
    });
  }
  if (writer && write_every) {
    std::size_t total = 0;
    for (const auto& s : streams) total += s.size();
    for (std::size_t w = 1; w * write_every <= total; ++w) {
      sleep_until(t0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               double(w * write_every) * gap_s)));
      writer->write_one(sh);
      ++writes;
    }
  }
  for (std::thread& t : threads) t.join();
}

// Warm-up: client i fetches every object r with r % clients == i once, at
// its own daemon. Not checked against the daemons' counters.
void warm_phase(std::vector<std::unique_ptr<Client>>& clients, Shared& sh) {
  const std::size_t n = clients.size();
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      for (std::size_t r = i; r < sh.objects.size(); r += n) {
        request(*clients[i], sh, static_cast<std::uint32_t>(r), Clock::time_point{},
                false);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

// --- scrapes -------------------------------------------------------------------

struct Scrape {
  std::vector<bh::obs::MetricsSnapshot> daemons;
  std::vector<double> cpu_ms;
  std::uint64_t origin_served = 0;
};

Scrape scrape(std::vector<std::unique_ptr<Child>>& daemons, Child& origin) {
  Scrape s;
  for (auto& d : daemons) {
    int status = 0;
    std::string body;
    if (!http_get_once(d->port(), "/metrics?format=json", status, body) ||
        status != 200) {
      throw std::runtime_error("metrics scrape failed");
    }
    auto snap = bh::obs::parse_snapshot(body);
    if (!snap) throw std::runtime_error("metrics scrape did not parse");
    s.daemons.push_back(std::move(*snap));
    s.cpu_ms.push_back(d->cpu_ms());
  }
  s.origin_served = std::stoull(origin.command("served"));
  return s;
}

std::uint64_t delta(const Scrape& a, const Scrape& b, const std::string& name) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < a.daemons.size(); ++i) {
    sum += b.daemons[i].counter(name) - a.daemons[i].counter(name);
  }
  return sum;
}

double cpu_delta_ms(const Scrape& a, const Scrape& b) {
  double sum = 0;
  for (std::size_t i = 0; i < a.cpu_ms.size(); ++i) sum += b.cpu_ms[i] - a.cpu_ms[i];
  return sum;
}

// p50 of the daemons' bh.proxy.request_ms recorded between two scrapes.
double request_ms_p50(const Scrape& a, const Scrape& b) {
  std::optional<bh::LatencyHistogram> merged;
  for (std::size_t i = 0; i < a.daemons.size(); ++i) {
    const auto* ha = a.daemons[i].histogram("bh.proxy.request_ms");
    const auto* hb = b.daemons[i].histogram("bh.proxy.request_ms");
    if (!hb) continue;
    std::vector<std::uint64_t> counts = hb->bucket_counts();
    std::uint64_t total = hb->count();
    double sum = hb->sum();
    if (ha) {
      for (std::size_t j = 0; j < ha->bucket_counts().size(); ++j) {
        counts[j] -= ha->bucket_counts()[j];
      }
      total -= ha->count();
      sum -= ha->sum();
    }
    auto h = bh::LatencyHistogram::restore(hb->min_value(), hb->log_growth(),
                                           std::move(counts), total, sum,
                                           hb->max());
    if (merged) merged->merge(h);
    else merged = std::move(h);
  }
  return merged ? merged->quantile(0.5) : 0;
}

DaemonPathCounters path_counters(const Scrape& a, const Scrape& b) {
  DaemonPathCounters d;
  d.requests = delta(a, b, "bh.proxy.requests");
  d.local_hits = delta(a, b, "bh.proxy.local_hits");
  d.disk_hits = delta(a, b, "bh.proxy.disk.hits");
  d.sibling_hits = delta(a, b, "bh.proxy.sibling_hits");
  d.origin_fetches = delta(a, b, "bh.proxy.origin_fetches");
  return d;
}

// p50 of one-connection GETs of `keys`, in milliseconds, over the 200s.
double direct_p50(std::uint16_t port, const std::vector<Object>& objects,
                  const std::vector<std::uint32_t>& keys, bool no_forward,
                  std::uint64_t& attempted, std::uint64_t& failed) {
  HttpConn conn;
  std::vector<double> ms;
  for (std::uint32_t k : keys) {
    if (!conn.is_open() && !conn.connect(port)) {
      ++failed;
      continue;
    }
    Response r;
    const auto t0 = Clock::now();
    const bool ok = conn.get(objects[k].target, no_forward, r);
    const auto t1 = Clock::now();
    ++attempted;
    if (!ok) {
      ++failed;
      continue;
    }
    if (r.status == 200) ms.push_back(ms_between(t0, t1));
  }
  return quantile(ms, 0.5);
}

// Responses older than the newest version whose modify() had returned
// before the request was sent.
std::uint64_t count_stale(const std::vector<std::unique_ptr<Client>>& clients,
                          const std::vector<ModLog>& log) {
  std::map<std::uint32_t, std::vector<const ModLog*>> by_object;
  for (const ModLog& m : log) by_object[m.object].push_back(&m);
  std::uint64_t stale = 0;
  for (const auto& c : clients) {
    for (const Sample& s : c->samples) {
      const auto it = by_object.find(s.object);
      if (it == by_object.end() || s.version == 0) continue;
      std::uint32_t fresh = 1;
      for (const ModLog* m : it->second) {
        if (m->done < s.sent) fresh = std::max(fresh, m->version);
      }
      if (s.version < fresh) ++stale;
    }
  }
  return stale;
}

std::vector<double> gather(const std::vector<std::unique_ptr<Client>>& clients,
                           std::vector<double> Client::*field) {
  std::vector<double> all;
  for (const auto& c : clients) {
    all.insert(all.end(), ((*c).*field).begin(), ((*c).*field).end());
  }
  return all;
}

// Open-loop latency percentiles, taken per window and then the median over
// windows, so one stall outside the benchmark moves one window only.
struct OpenLoopPercentiles {
  double p50 = 0, p90 = 0, p99 = 0;
};

OpenLoopPercentiles open_loop_percentiles(
    const std::vector<std::unique_ptr<Client>>& clients) {
  std::vector<std::vector<double>> windows;
  for (const auto& c : clients) {
    for (std::size_t j = 0; j < c->sched_ms.size(); ++j) {
      if (c->window[j] >= windows.size()) windows.resize(c->window[j] + 1);
      windows[c->window[j]].push_back(c->sched_ms[j]);
    }
  }
  std::vector<double> p50s, p90s, p99s;
  for (auto& w : windows) {
    if (w.empty()) continue;
    p50s.push_back(quantile(w, 0.5));
    p90s.push_back(quantile(w, 0.9));
    p99s.push_back(quantile(w, 0.99));
  }
  return {median(p50s), median(p90s), median(p99s)};
}

// --- the run -------------------------------------------------------------------

// The closed loop runs in kBlocks equal blocks; the open loop's
// percentiles are taken in kWindows equal windows, and the median window
// is reported.
constexpr std::size_t kBlocks = 20;
constexpr std::size_t kWindows = 20;

// The request rates of closed-loop blocks; rate() is their median, so a
// block caught in a stall of the host (or the first, while the RAM tier
// settles after the warm-up) does not move it.
struct ClosedLoopBlocks {
  std::vector<double> rates;

  void add(std::size_t n, double s) { rates.push_back(double(n) / s); }
  double rate() const { return median(rates); }
};

// Part `part` of `parts` equal slices of every client's stream.
KeyStreams slice(const KeyStreams& streams, std::size_t part, std::size_t parts) {
  KeyStreams out(streams.size());
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const auto& s = streams[i];
    out[i].assign(s.begin() + s.size() * part / parts,
                  s.begin() + s.size() * (part + 1) / parts);
  }
  return out;
}

Result run_proxy(const Spec& spec, const RunArgs& args) {
  Result res;
  ::prctl(PR_SET_TIMERSLACK, 1UL);  // open-loop sends wake on time
  const auto objects = make_objects(spec, args.seed);
  const Zipf zipf(spec.objects, kDec.zipf_exponent);
  const std::size_t k = spec.clients;
  const KeyStreams closed_keys =
      make_streams(zipf, args.seed, 1, k, spec.closed_requests / k);
  const double open_seconds = std::max(1.0, spec.open_share * args.seconds);
  const auto open_per_client =
      static_cast<std::size_t>(spec.open_rate * open_seconds / double(k));
  const KeyStreams open_keys = make_streams(zipf, args.seed, 2, k, open_per_client);

  Writer writer;
  if (spec.write_every) {
    for (std::size_t r = 0; r < spec.objects; ++r) {
      if (spec.modified_rank(r, spec.objects)) writer.order.push_back(static_cast<std::uint32_t>(r));
    }
    std::shuffle(writer.order.begin(), writer.order.end(),
                 std::mt19937_64(splitmix_finalize(args.seed ^ 0x3117)));
  }

  // Set-up: origin, daemons, ring, warm caches. Daemons and load generator
  // run on disjoint CPUs: the children inherit the CPUs of the thread that
  // starts them.
  const CpuSplit cpus = split_cpus();
  pin_to_cpus(cpus.daemons);
  Child origin({"--origin"});
  writer.origin = &origin;
  std::vector<std::unique_ptr<Child>> daemons;
  for (std::size_t d = 0; d < spec.daemons; ++d) {
    std::vector<std::string> a{"--proxy", "--name=p" + std::to_string(d),
                               "--origin-port=" + std::to_string(origin.port())};
    if (spec.capacity_bytes) a.push_back("--capacity=" + std::to_string(spec.capacity_bytes));
    if (spec.disk) {
      const std::string dir = args.state_dir + "/disk" + std::to_string(d);
      a.push_back("--disk=" + dir);
      a.push_back("--no-fsync");
    }
    if (spec.write_every) a.push_back("--register");
    if (spec.flush_interval > 0) {
      a.push_back("--flush-interval=" + std::to_string(spec.flush_interval));
    }
    daemons.push_back(std::make_unique<Child>(a));
  }
  if (spec.daemons > 1) {
    // A ring: each daemon exchanges hints with its two ring neighbours.
    for (std::size_t d = 0; d < spec.daemons; ++d) {
      for (std::size_t nb : {(d + 1) % spec.daemons,
                             (d + spec.daemons - 1) % spec.daemons}) {
        if (nb == d) continue;
        daemons[d]->command("neighbor " + std::to_string(daemons[nb]->port()));
      }
    }
  }
  pin_to_cpus(cpus.loadgen);
  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t i = 0; i < k; ++i) {
    auto c = std::make_unique<Client>();
    c->port = daemons[i % spec.daemons]->port();
    if (!c->conn.connect(c->port)) throw std::runtime_error("cannot connect");
    clients.push_back(std::move(c));
  }
  Shared sh(objects, spec.write_every > 0);
  const std::uint64_t origin_before = std::stoull(origin.command("served"));
  const double started_s = seconds_since(args.start);
  warm_phase(clients, sh);
  for (auto& d : daemons) d->command("flush");
  const double setup_s = seconds_since(args.start);
  std::printf("# %s: io_backend=%s daemons=%zu clients=%zu daemon_cpus=%s "
              "loadgen_cpus=%s; set-up: %.3f s to start, %.3f s to warm\n",
              spec.name, daemons[0]->backend().c_str(), spec.daemons, k,
              format_cpus(cpus.daemons).c_str(), format_cpus(cpus.loadgen).c_str(),
              started_s, setup_s - started_s);

  // The warm-up's responses are checked for bytes but their paths are not
  // counted below.
  PathCounts warm_paths;
  for (auto& c : clients) {
    warm_paths.add(c->paths);
    c->paths = {};
  }
  std::uint64_t attempted = 0, failed = 0, writes = 0;

  // The closed loop runs in equal blocks. requests_per_s is the median rate
  // of the blocks without spans. In the traced run every second block
  // records spans, and trace_overhead compares the two halves, interleaved
  // so warming caches favour neither.
  const Scrape s0 = scrape(daemons, origin);
  ClosedLoopBlocks plain, traced;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    const KeyStreams block = slice(closed_keys, b, kBlocks);
    const bool span = args.trace && b % 2 == 1;
    const double t = closed_phase(clients, sh, block, span, &writer,
                                  spec.write_every, writes);
    (span ? traced : plain).add(block.size() * block[0].size(), t);
  }
  const Scrape s1 = scrape(daemons, origin);
  for (auto& c : clients) {
    for (auto& spans : c->span_ms) spans.clear();  // keep the open loop's only
  }
  open_phase(clients, sh, open_keys, spec.open_rate,
             open_seconds / double(kWindows), args.trace, &writer,
             spec.write_every, writes);
  // Send what the daemons still hold back, so hint_update_bytes counts every
  // update the phases caused.
  for (auto& d : daemons) d->command("flush");
  const Scrape s2 = scrape(daemons, origin);

  // Checks: client path counts against the daemons' counters, over both
  // phases; body bytes were checked per response.
  PathCounts paths;
  for (const auto& c : clients) {
    paths.add(c->paths);
    attempted += c->ok + c->failed;
    failed += c->failed;
    for (const std::string& p : c->problems) res.check(p);
  }
  attempted += writes;
  failed += writer.failed;
  std::printf("# paths: hit=%llu disk=%llu sibling=%llu miss=%llu; writes=%llu "
              "(%llu behind the closed loop)\n",
              static_cast<unsigned long long>(paths.hit),
              static_cast<unsigned long long>(paths.disk),
              static_cast<unsigned long long>(paths.sibling),
              static_cast<unsigned long long>(paths.miss),
              static_cast<unsigned long long>(writes),
              static_cast<unsigned long long>(writer.behind));
  res.check(check_path_counts(paths, path_counters(s0, s2),
                              /*all_hits=*/spec.write_every == 0 && !spec.disk));
  if (warm_paths.total() != spec.objects) {
    res.check("warm-up: " + std::to_string(warm_paths.total()) + " of " +
              std::to_string(spec.objects) + " objects fetched");
  }

  auto late = gather(clients, &Client::late_ms);

  double peak_rss = 0;
  for (auto& d : daemons) peak_rss += d->peak_rss_mb();
  // Over the whole run, warm-up included, so proxy_hit reads its object
  // count as long as the cache keeps every object.
  const double origin_fetches = double(s2.origin_served - origin_before);
  const double closed_reqs = double(delta(s0, s1, "bh.proxy.requests"));
  const OpenLoopPercentiles open = open_loop_percentiles(clients);

  if (!args.trace) {
    res.add("setup_s", setup_s, "s");
    res.add("requests_per_s", plain.rate(), "req/s");
    res.add("peak_rss_mb", peak_rss, "MB");
    res.add("origin_fetches", origin_fetches, "count");
    res.note("latency_p50_ms", open.p50, "ms");
    res.note("latency_p90_ms", open.p90, "ms");
    res.note("latency_p99_ms", open.p99, "ms");
    if (spec.daemons > 1) {
      res.note("hint_update_bytes",
               double(delta(s0, s2, "bh.proxy.update_bytes_sent")), "bytes");
    }
  } else {
    res.add("cpu_ms_per_1k_req", cpu_delta_ms(s0, s1) / closed_reqs * 1000.0, "ms");
    // Origin requests per distinct (object, version) the clients saw served
    // as a MISS: 1 when no two daemons fetch the same version.
    std::set<std::pair<std::uint32_t, std::uint32_t>> versions;
    for (const auto& c : clients) {
      versions.insert(c->miss_versions.begin(), c->miss_versions.end());
    }
    res.add("origin.fetches_per_version", origin_fetches / double(versions.size()),
            "ratio");

    // Per-path client spans from the open-loop phase (send to receive), for
    // the paths the workload served.
    std::array<std::vector<double>, 5> open_spans;
    for (const auto& c : clients) {
      for (int p = 1; p < 5; ++p) {
        open_spans[p].insert(open_spans[p].end(), c->span_ms[p].begin(),
                             c->span_ms[p].end());
      }
    }
    for (int p = 1; p < 5; ++p) {
      const std::string base = std::string("proxy.path.") +
                               cache_path_name(static_cast<CachePath>(p));
      const double count = double(open_spans[p].size());
      if (count == 0) continue;
      res.note(base + ".p50_ms", quantile(open_spans[p], 0.5), "ms");
      res.note(base + ".count", count, "count");
    }
    res.note("proxy.loop_iterations_per_req",
             double(delta(s0, s1, "bh.proxy.loop_iterations")) / closed_reqs,
             "count");
    if (!spec.disk) {
      std::vector<double> hits = open_spans[static_cast<int>(CachePath::kHit)];
      res.note("proxy.outside_handler_p50_ms",
               quantile(hits, 0.5) - request_ms_p50(s1, s2), "ms");
    } else {
      const double probes = double(delta(s0, s2, "bh.proxy.sibling_hits") +
                                   delta(s0, s2, "bh.proxy.false_positives") +
                                   delta(s0, s2, "bh.proxy.peer_failures"));
      const double outbound =
          probes + double(delta(s0, s2, "bh.proxy.origin_fetches") +
                          delta(s0, s2, "bh.proxy.origin_failures") +
                          delta(s0, s2, "bh.proxy.flushes") * 2);
      res.note("proxy.pool_reuse_per_outbound",
               double(delta(s0, s2, "bh.proxy.pool_reuse")) / outbound, "ratio");
      res.note("proxy.peer_probe.useful_ratio",
               probes > 0 ? double(delta(s0, s2, "bh.proxy.sibling_hits")) / probes : 0,
               "ratio");
      res.note("cache.disk.hits", double(delta(s0, s2, "bh.proxy.disk.hits")), "count");
      res.note("cache.disk.demotions",
               double(delta(s0, s2, "bh.proxy.disk.demotions")), "count");
      res.note("cache.disk.demote_dropped",
               double(delta(s0, s2, "bh.proxy.demote_dropped")), "count");
      res.note("hints.false_positives",
               double(delta(s0, s2, "bh.proxy.false_positives")), "count");
      res.note("hints.updates_sent", double(delta(s0, s2, "bh.proxy.updates_sent")),
               "count");
      res.note("hints.updates_coalesced",
               double(delta(s0, s2, "bh.proxy.updates_coalesced")), "count");
      res.note("hints.flushes", double(delta(s0, s2, "bh.proxy.flushes")), "count");
      res.note("stale_responses", double(count_stale(clients, writer.log)), "count");
    }
    res.note("loadgen.late_p99_ms", quantile(late, 0.99), "ms");
    res.note("proxy.closed_loop.requests_per_s", plain.rate(), "req/s");
    res.note("proxy.open_loop.p50_ms", open.p50, "ms");
    res.note("proxy.open_loop.p90_ms", open.p90, "ms");
    res.note("proxy.open_loop.p99_ms", open.p99, "ms");
    res.note("trace_overhead", plain.rate() / traced.rate(), "ratio");

    // Floors under the MISS and SIBLING paths: direct GETs of small objects
    // to the origin, and X-No-Forward probes to a daemon holding them.
    std::vector<std::uint32_t> small;
    for (std::uint32_t key : closed_keys[0]) {
      if (objects[key].size <= 16384) small.push_back(key);
      if (small.size() == 2000) break;
    }
    res.note("proxy.origin.direct_p50_ms",
             direct_p50(origin.port(), objects, small, false, attempted, failed),
             "ms");
    res.note("proxy.peer_probe.direct_p50_ms",
             direct_p50(daemons[0]->port(), objects, small, true, attempted, failed),
             "ms");
  }
  for (auto& c : clients) c->conn.close();
  for (auto& d : daemons) d->stop();
  origin.stop();

  if (args.trace) {
    // In-process replays of the closed loop's key streams against single
    // layers, after the daemons have stopped.
    std::vector<LayerObject> layer_objects;
    for (const Object& o : objects) layer_objects.push_back({o.id, o.size});
    add_layer_metrics(res, layer_objects, closed_keys,
                      spec.capacity_bytes ? spec.capacity_bytes
                                          : bh::proxy::ProxyConfig{}.capacity_bytes,
                      args.state_dir + "/layer_disk");
  }
  res.attempted = attempted;
  res.failed = failed;
  return res;
}

}  // namespace

Result run_proxy_hit(const RunArgs& args) { return run_proxy(kHitSpec, args); }
Result run_proxy_cluster(const RunArgs& args) {
  return run_proxy(kClusterSpec, args);
}

}  // namespace perfbench
