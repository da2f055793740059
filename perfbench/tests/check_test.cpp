// Each output check must reject a corrupted input: a flipped body byte, a
// body newer than the origin could have served, a mismatched path count, a
// simulator origin-served count off by one, and a hint architecture that is
// not faster. The content rule is also held against the origin's own
// implementation, which the benchmark itself never calls.
//
//   cmake --build .bench_build/perfbench --target perfbench_check_test
//   .bench_build/perfbench/perfbench_check_test
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "proxy/origin_server.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

}  // namespace

int main() {
  using namespace perfbench;

  // The content rule, re-implemented, agrees with the origin's bytes.
  bool agrees = true;
  for (std::uint64_t id : {1ULL, 0x1234567890abcdefULL, ~0ULL}) {
    for (std::uint32_t v : {1u, 2u, 7u}) {
      for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 1000u, 65537u}) {
        const std::string b = bh::proxy::origin_body(bh::ObjectId{id}, v, n);
        agrees = agrees && body_matches(id, v, b.data(), b.size());
      }
    }
  }
  expect(agrees, "content rule matches origin_body");

  const std::uint64_t id = 0xfeedface12345671ULL;
  std::string body = bh::proxy::origin_body(bh::ObjectId{id}, 3, 5000);
  expect(body_version(id, 5000, body.data(), body.size(), 5) == 3,
         "intact body is identified at its version");
  expect(body_version(id, 5000, body.data(), body.size(), 2) == 0,
         "body newer than the allowed version is rejected");
  for (std::size_t pos : {0u, 7u, 8u, 2500u, 4999u}) {
    std::string flipped = body;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x01);
    expect(body_version(id, 5000, flipped.data(), flipped.size(), 5) == 0,
           ("flipped byte at " + std::to_string(pos) + " is rejected").c_str());
  }
  expect(body_version(id + 2, 5000, body.data(), body.size(), 5) == 0,
         "another object's body is rejected");
  expect(body_version(id, 5000, body.data(), body.size() - 1, 5) == 0,
         "truncated body is rejected");
  const std::string older = bh::proxy::origin_body(bh::ObjectId{id}, 1, 5000);
  expect(body_version(id, 5000, older.data(), older.size(), 5) == 1,
         "an older version is accepted as that version");

  PathCounts client{.hit = 90, .disk = 4, .sibling = 5, .miss = 1};
  DaemonPathCounters daemons{.requests = 100, .local_hits = 94, .disk_hits = 6,
                             .sibling_hits = 5, .origin_fetches = 1};
  expect(check_path_counts(client, daemons, false).empty(),
         "matching path counts pass");
  auto off = client;
  ++off.sibling;
  --off.hit;
  expect(!check_path_counts(off, daemons, false).empty(),
         "SIBLING count off by one is rejected");
  off = client;
  ++off.miss;
  expect(!check_path_counts(off, daemons, false).empty(),
         "extra MISS is rejected");
  auto d_off = daemons;
  d_off.disk_hits = 3;
  expect(!check_path_counts(client, d_off, false).empty(),
         "more DISK than the disk counter is rejected");
  expect(!check_path_counts(client, daemons, true).empty(),
         "non-HIT responses are rejected when all must be HITs");
  PathCounts all_hit{.hit = 10};
  DaemonPathCounters d_hit{.requests = 10, .local_hits = 10};
  expect(check_path_counts(all_hit, d_hit, true).empty(),
         "all-HIT counts pass the all-HIT check");

  // Simulator: first (object, version) requests after warm-up, cachable,
  // not errors.
  using bh::trace::Record;
  using bh::trace::RecordType;
  auto req = [](double t, std::uint64_t obj, std::uint32_t v) {
    Record r;
    r.time = t;
    r.object = bh::ObjectId{obj};
    r.version = v;
    return r;
  };
  std::vector<Record> records = {
      req(1, 1, 1),                   // warm-up: first (1,1), not counted
      req(5, 1, 1),                   // repeat
      req(6, 2, 1),                   // counted
      req(7, 2, 1),                   // repeat
      req(8, 1, 2),                   // new version: counted
  };
  Record unc = req(9, 3, 1);
  unc.uncachable = true;
  Record err = req(9, 4, 1);
  err.error = true;
  Record mod = req(9, 5, 1);
  mod.type = RecordType::kModify;
  records.push_back(unc);
  records.push_back(err);
  records.push_back(mod);
  const std::uint64_t expected = expected_server_fetches(records, 4.0);
  expect(expected == 2, "server fetches counted from the records");
  expect(check_server_fetches("hints", expected, expected).empty(),
         "matching server fetch count passes");
  expect(!check_server_fetches("hints", expected + 1, expected).empty(),
         "server fetch count one too high is rejected");
  expect(!check_server_fetches("hints", expected - 1, expected).empty(),
         "server fetch count one too low is rejected");

  expect(check_hints_faster(233.1, 648.4).empty(), "faster hints pass");
  expect(!check_hints_faster(648.4, 648.4).empty(),
         "hints no faster than hierarchy is rejected");

  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
