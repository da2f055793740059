#include "layers.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <memory>
#include <span>
#include <string>
#include <thread>

#include "cache/disk_store.h"
#include "cache/sharded_lru.h"
#include "hints/hint_cache.h"
#include "proto/wire.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

// Runs fn(thread_index) on one thread per stream, all released together,
// and returns the wall time from the first thread's start to the last
// one's finish. Each thread reads the clock itself: the caller may share a
// CPU with them and not run again until they are done.
template <typename Fn>
double timed_parallel(std::size_t threads, Fn fn) {
  std::barrier start(static_cast<std::ptrdiff_t>(threads));
  std::vector<Clock::time_point> begun(threads), ended(threads);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      start.arrive_and_wait();
      begun[t] = Clock::now();
      fn(t);
      ended[t] = Clock::now();
    });
  }
  for (std::thread& th : pool) th.join();
  return ns_between(*std::min_element(begun.begin(), begun.end()),
                    *std::max_element(ended.begin(), ended.end()));
}

std::size_t total_keys(const KeyStreams& streams) {
  std::size_t n = 0;
  for (const auto& s : streams) n += s.size();
  return n;
}

std::vector<bh::proto::HintUpdate> update_batch(
    const std::vector<LayerObject>& objects, std::size_t first) {
  std::vector<bh::proto::HintUpdate> batch;
  batch.reserve(1024);
  for (std::size_t i = 0; i < 1024; ++i) {
    const LayerObject& o = objects[(first + i) % objects.size()];
    batch.push_back({i % 4 == 3 ? bh::proto::Action::kInvalidate
                                : bh::proto::Action::kInform,
                     bh::ObjectId{o.id}, bh::MachineId{1000 + i % 3}});
  }
  return batch;
}

}  // namespace

RamCacheTimes time_ram_cache(const std::vector<LayerObject>& objects,
                             const KeyStreams& streams,
                             std::uint64_t capacity_bytes, std::size_t shards) {
  bh::cache::ShardedLruCache cache(capacity_bytes, shards);
  std::vector<bh::cache::BodyPtr> bodies;
  bodies.reserve(objects.size());
  for (const LayerObject& o : objects) {
    bodies.push_back(std::make_shared<const std::string>(o.size, 'x'));
  }
  const std::size_t threads = streams.size();
  RamCacheTimes t;
  const double insert_ns = timed_parallel(threads, [&](std::size_t th) {
    for (std::size_t i = th; i < objects.size(); i += threads) {
      cache.insert(bh::ObjectId{objects[i].id}, bodies[i]);
    }
  });
  t.insert_ns = insert_ns / double(objects.size());
  std::atomic<std::uint64_t> found{0};
  const double find_ns = timed_parallel(threads, [&](std::size_t th) {
    std::uint64_t local = 0;
    for (std::uint32_t k : streams[th]) {
      if (cache.find(bh::ObjectId{objects[k].id})) ++local;
    }
    found += local;
  });
  // Per-operation time with every thread running: the wall time divided by
  // the operations of one thread, the cost a single request sees.
  t.find_ns = find_ns / (double(total_keys(streams)) / double(threads));
  t.insert_ns *= double(threads);
  return t;
}

HintStoreTimes time_hint_store(const std::vector<LayerObject>& objects,
                               const KeyStreams& streams,
                               std::uint64_t hint_bytes, std::size_t stripes) {
  const auto store = bh::hints::make_striped_hint_store(hint_bytes, stripes);
  for (std::size_t i = 0; i < objects.size(); ++i) {
    store->insert(bh::ObjectId{objects[i].id}, bh::MachineId{1000 + i % 3});
  }
  const std::size_t threads = streams.size();
  HintStoreTimes t;
  const double lookup_ns = timed_parallel(threads, [&](std::size_t th) {
    std::uint64_t hits = 0;
    for (std::uint32_t k : streams[th]) {
      if (store->lookup(bh::ObjectId{objects[k].id})) ++hits;
    }
    (void)hits;
  });
  t.lookup_ns = lookup_ns / (double(total_keys(streams)) / double(threads));

  // Whole received batches through apply_batch, with the receiver's
  // nearest-copy decision (first hint wins, invalidate only a matching one).
  constexpr std::size_t kBatches = 64;
  std::vector<std::vector<bh::proto::HintUpdate>> batches;
  for (std::size_t b = 0; b < kBatches; ++b) {
    batches.push_back(update_batch(objects, b * 977));
  }
  using Decision = bh::hints::HintStore::BatchDecision;
  const double batch_ns = timed_parallel(threads, [&](std::size_t th) {
    std::vector<bh::ObjectId> ids;
    for (std::size_t b = th; b < kBatches; b += threads) {
      const auto& batch = batches[b];
      ids.clear();
      for (const auto& u : batch) ids.push_back(u.object);
      store->apply_batch(ids, [&](std::size_t i,
                                  std::optional<bh::MachineId> cur) {
        const auto& u = batch[i];
        if (u.action == bh::proto::Action::kInform) {
          return cur ? Decision::keep() : Decision::insert_loc(u.location);
        }
        return cur && *cur == u.location ? Decision::erase_hint()
                                         : Decision::keep();
      });
    }
  });
  t.apply_batch_us = batch_ns / 1000.0 / (double(kBatches) / double(threads));
  return t;
}

DiskStoreTimes time_disk_store(const std::vector<LayerObject>& objects,
                               const std::vector<std::uint32_t>& stream,
                               const std::string& dir) {
  bh::cache::DiskStore::Options opts;
  opts.root = dir;
  opts.capacity_bytes = 1ULL << 40;
  opts.fsync_writes = false;
  bh::cache::DiskStore store(opts);
  std::string body;
  DiskStoreTimes t;
  auto t0 = Clock::now();
  for (const LayerObject& o : objects) {
    body.assign(o.size, 'y');
    store.put(bh::ObjectId{o.id}, body);
  }
  t.put_us = ns_between(t0, Clock::now()) / 1000.0 / double(objects.size());
  std::uint64_t bytes = 0;
  t0 = Clock::now();
  for (std::uint32_t k : stream) {
    if (auto b = store.get_body(bh::ObjectId{objects[k].id})) bytes += b->size();
  }
  t.get_body_us = ns_between(t0, Clock::now()) / 1000.0 / double(stream.size());
  (void)bytes;
  return t;
}

ProtoTimes time_proto(const std::vector<LayerObject>& objects) {
  constexpr int kRounds = 200;
  const auto batch = update_batch(objects, 0);
  ProtoTimes t;
  std::size_t sink = 0;
  auto t0 = Clock::now();
  std::vector<std::uint8_t> wire;
  for (int r = 0; r < kRounds; ++r) {
    wire = bh::proto::encode_body(batch);
    sink += wire.size();
  }
  t.encode_batch_us = ns_between(t0, Clock::now()) / 1000.0 / kRounds;
  t0 = Clock::now();
  for (int r = 0; r < kRounds; ++r) {
    const auto decoded = bh::proto::decode_body(std::span(wire));
    sink += decoded ? decoded->size() : 0;
  }
  t.decode_batch_us = ns_between(t0, Clock::now()) / 1000.0 / kRounds;
  (void)sink;
  return t;
}

void add_layer_metrics(Result& res, const std::vector<LayerObject>& objects,
                       const KeyStreams& streams, std::uint64_t ram_bytes,
                       const std::string& disk_dir) {
  const RamCacheTimes ram = time_ram_cache(objects, streams, ram_bytes, 8);
  res.add("cache.ram.find_ns", ram.find_ns, "ns");
  res.add("cache.ram.insert_ns", ram.insert_ns, "ns");
  const HintStoreTimes hs = time_hint_store(objects, streams, 1ULL << 20, 8);
  res.add("hints.lookup_ns", hs.lookup_ns, "ns");
  res.add("hints.apply_batch_us", hs.apply_batch_us, "us");
  const std::vector<std::uint32_t> stream(
      streams[0].begin(),
      streams[0].begin() + std::min<std::size_t>(5000, streams[0].size()));
  const DiskStoreTimes ds = time_disk_store(objects, stream, disk_dir);
  res.add("cache.disk.get_body_us", ds.get_body_us, "us");
  res.add("cache.disk.put_us", ds.put_us, "us");
  const ProtoTimes pt = time_proto(objects);
  res.add("proto.encode_batch_us", pt.encode_batch_us, "us");
  res.add("proto.decode_batch_us", pt.decode_batch_us, "us");
}

}  // namespace perfbench
