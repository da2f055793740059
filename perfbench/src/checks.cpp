#include "checks.h"

#include <cstring>
#include <unordered_set>

namespace perfbench {

std::uint64_t splitmix_finalize(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

namespace {

std::uint64_t seed_word(std::uint64_t id, std::uint32_t version) {
  return splitmix_finalize(id ^ (std::uint64_t(version) << 32));
}

// Compares the first min(n, 8) bytes against one little-endian word.
bool word_matches(std::uint64_t word, const char* data, std::size_t n) {
  for (std::size_t b = 0; b < n && b < 8; ++b) {
    if (static_cast<unsigned char>(data[b]) != ((word >> (b * 8)) & 0xFF)) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool body_matches(std::uint64_t id, std::uint32_t version, const char* data,
                  std::size_t n) {
  std::uint64_t state = seed_word(id, version);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    state = splitmix_finalize(state);
    std::uint64_t got;
    std::memcpy(&got, data + i, 8);
    if (got != state) return false;  // little-endian host, as the rule says
  }
  if (i < n) {
    state = splitmix_finalize(state);
    if (!word_matches(state, data + i, n - i)) return false;
  }
  return true;
}

std::uint32_t body_version(std::uint64_t id, std::size_t size, const char* data,
                           std::size_t n, std::uint32_t max_version) {
  if (n != size) return 0;
  for (std::uint32_t v = max_version; v >= 1; --v) {
    if (!word_matches(splitmix_finalize(seed_word(id, v)), data, n)) continue;
    if (body_matches(id, v, data, n)) return v;
  }
  return 0;
}

std::string check_path_counts(const PathCounts& c, const DaemonPathCounters& d,
                              bool all_hits) {
  auto mismatch = [](const char* what, std::uint64_t client,
                     std::uint64_t daemon) {
    return std::string(what) + ": clients saw " + std::to_string(client) +
           ", daemons counted " + std::to_string(daemon);
  };
  if (c.total() != d.requests) {
    return mismatch("requests", c.total(), d.requests);
  }
  if (c.hit + c.disk != d.local_hits) {
    return mismatch("HIT+DISK", c.hit + c.disk, d.local_hits);
  }
  if (c.disk > d.disk_hits) return mismatch("DISK (at most)", c.disk, d.disk_hits);
  if (c.sibling != d.sibling_hits) {
    return mismatch("SIBLING", c.sibling, d.sibling_hits);
  }
  if (c.miss != d.origin_fetches) {
    return mismatch("MISS", c.miss, d.origin_fetches);
  }
  if (all_hits && c.hit != c.total()) {
    return "not every measured response was a HIT: " +
           std::to_string(c.total() - c.hit) + " of " +
           std::to_string(c.total()) + " were not";
  }
  return {};
}

std::uint64_t expected_server_fetches(
    const std::vector<bh::trace::Record>& records, double warmup_seconds) {
  struct Key {
    std::uint64_t object;
    std::uint32_t version;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return splitmix_finalize(k.object ^ (std::uint64_t(k.version) << 40));
    }
  };
  std::unordered_set<Key, KeyHash> seen;
  seen.reserve(records.size());
  std::uint64_t count = 0;
  for (const bh::trace::Record& r : records) {
    if (r.type != bh::trace::RecordType::kRequest) continue;
    if (r.uncachable || r.error) continue;
    if (!seen.insert(Key{r.object.value, r.version}).second) continue;
    if (r.time >= warmup_seconds) ++count;
  }
  return count;
}

std::string check_server_fetches(const std::string& system,
                                 std::uint64_t actual, std::uint64_t expected) {
  if (actual == expected) return {};
  return system + ": bh.core.server_fetches is " + std::to_string(actual) +
         ", the records give " + std::to_string(expected);
}

std::string check_hints_faster(double hints_mean_ms, double hierarchy_mean_ms) {
  if (hints_mean_ms < hierarchy_mean_ms) return {};
  return "hints mean response " + std::to_string(hints_mean_ms) +
         " ms is not below hierarchy's " + std::to_string(hierarchy_mean_ms) +
         " ms";
}

}  // namespace perfbench
