// Output checks that hold by property, not by copy.
//
// The benchmark never asks the program what the right answer is. Bodies are
// checked against the content rule documented in proxy/origin_server.h,
// re-implemented here from its description; path counts seen by clients are
// checked against the daemons' own counters; the simulator's origin-served
// count is checked against a count made from the generated records.
//
// Every check returns an empty string when it holds and a one-line reason
// when it does not, so a run can report all failures at once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/record.h"

namespace perfbench {

// The origin's content rule: byte i of the body of (id, version, size) is
// byte (i mod 8) of the little-endian word w_(i/8), where w_0 is the
// splitmix64 finalizer applied twice to id XOR (version << 32) and each
// later word is the finalizer applied to the previous one.
std::uint64_t splitmix_finalize(std::uint64_t x);

// True when `data` is exactly the origin's body for (id, version, n).
bool body_matches(std::uint64_t id, std::uint32_t version, const char* data,
                  std::size_t n);

// The version in [1, max_version] whose body of `size` bytes `data` is,
// newest first; 0 when the length is not `size` or no version in that range
// produces these bytes (a corrupted or truncated body, or one newer than the
// origin could have served).
std::uint32_t body_version(std::uint64_t id, std::size_t size, const char* data,
                           std::size_t n, std::uint32_t max_version);

// Client-side tally of the X-Cache tag on each 200 response.
struct PathCounts {
  std::uint64_t hit = 0;
  std::uint64_t disk = 0;
  std::uint64_t sibling = 0;
  std::uint64_t miss = 0;

  std::uint64_t total() const { return hit + disk + sibling + miss; }
  void add(const PathCounts& o) {
    hit += o.hit;
    disk += o.disk;
    sibling += o.sibling;
    miss += o.miss;
  }
};

// The daemons' own path counters over the same window (deltas of
// bh.proxy.{requests,local_hits,disk.hits,sibling_hits,origin_fetches},
// summed over daemons).
struct DaemonPathCounters {
  std::uint64_t requests = 0;
  std::uint64_t local_hits = 0;  // RAM and disk hits of client requests
  std::uint64_t disk_hits = 0;   // disk hits of client requests and probes
  std::uint64_t sibling_hits = 0;
  std::uint64_t origin_fetches = 0;
};

// HIT + DISK must equal local_hits, SIBLING sibling_hits, MISS
// origin_fetches, and the total the daemons' request count. The disk
// counter also counts peer probes served from disk, so DISK is only bounded
// by it. With `all_hits`, every response must also be a HIT.
std::string check_path_counts(const PathCounts& client,
                              const DaemonPathCounters& daemons,
                              bool all_hits);

// Requests that reach the origin in any architecture with unbounded caches
// and strong consistency: recorded (time >= warmup_seconds) requests that
// are cachable, not errors, and the first such request for their
// (object, version) anywhere in the trace, warm-up included.
std::uint64_t expected_server_fetches(const std::vector<bh::trace::Record>& records,
                                      double warmup_seconds);

std::string check_server_fetches(const std::string& system,
                                 std::uint64_t actual, std::uint64_t expected);

// The hint architecture must beat the data hierarchy on mean response time
// under the testbed cost model (Figure 8).
std::string check_hints_faster(double hints_mean_ms, double hierarchy_mean_ms);

}  // namespace perfbench
