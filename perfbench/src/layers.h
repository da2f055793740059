// Timed replays of a workload's key stream against single layers, through
// their public functions and in this process: the RAM cache, the hint
// store, the disk tier and the hint-update wire format. The traced runs
// report these next to the client-side spans, so a change in one layer can
// be told apart from a change in the daemon around it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

struct LayerObject {
  std::uint64_t id = 0;
  std::uint32_t size = 0;
};

// Key streams are indices into the object table, one stream per thread.
using KeyStreams = std::vector<std::vector<std::uint32_t>>;

struct RamCacheTimes {
  double find_ns = 0;    // per find() over the streams, all threads at once
  double insert_ns = 0;  // per insert() of every object, split over threads
};
RamCacheTimes time_ram_cache(const std::vector<LayerObject>& objects,
                             const KeyStreams& streams,
                             std::uint64_t capacity_bytes, std::size_t shards);

struct HintStoreTimes {
  double lookup_ns = 0;       // per lookup() over the streams
  double apply_batch_us = 0;  // per apply_batch() of a 1024-update batch
};
HintStoreTimes time_hint_store(const std::vector<LayerObject>& objects,
                               const KeyStreams& streams,
                               std::uint64_t hint_bytes, std::size_t stripes);

struct DiskStoreTimes {
  double put_us = 0;       // per put() of every object
  double get_body_us = 0;  // per get_body() over the first stream
};
DiskStoreTimes time_disk_store(const std::vector<LayerObject>& objects,
                               const std::vector<std::uint32_t>& stream,
                               const std::string& dir);

struct ProtoTimes {
  double encode_batch_us = 0;  // per encode_body() of a 1024-update batch
  double decode_batch_us = 0;  // per decode_body() of the same batch
};
ProtoTimes time_proto(const std::vector<LayerObject>& objects);

// Runs all four replays on one workload's objects and key streams (one
// thread per stream) and adds their eight per-layer metrics to `res`: the
// RAM cache with `ram_bytes` in 8 shards, a 1 MB hint store in 8 stripes,
// a disk tier in `disk_dir` read with the first 5 000 keys of the first
// stream, and the wire format.
void add_layer_metrics(Result& res, const std::vector<LayerObject>& objects,
                       const KeyStreams& streams, std::uint64_t ram_bytes,
                       const std::string& disk_dir);

}  // namespace perfbench
