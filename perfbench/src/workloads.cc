#include "workloads.h"

#include "common/hash.h"
#include "core/cache_policy.h"

namespace perfbench {

using distcache::BackendKind;
using distcache::ClusterEvent;

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  Workload w;
  w.name = name;
  // ClusterConfig defaults are the paper's §6.2 testbed. The seed drives the
  // placement and allocation hashes and every request stream; it is mixed so
  // that small consecutive seeds give unrelated streams.
  w.config.cluster.seed = distcache::Mix64(seed);
  // At most two shards and no pinning: on a small shared host this leaves
  // cores for the multiproc supervisor and the OS.
  w.config.pin_cores = false;
  if (name == "paper_static") {
    // Static allocation, PoT reads, read-only closed loop: the shared hot path
    // with every optional layer off.
    w.kind = BackendKind::kSharded;
    w.config.shards = 2;
    w.requests = 8'000'000;
  } else if (name == "hotspot_realloc") {
    // §6.4: the hot set rotates by 50M keys at 1/3 of the Run and the
    // controller re-allocates from observed counts at 1/2, so the observer
    // runs on every read; shard processes over the shared-memory arena.
    w.kind = BackendKind::kMultiproc;
    w.config.shards = 2;
    w.requests = 4'000'000;
    w.config.events = {ClusterEvent::ShiftHotspot(w.requests / 3, 50'000'000),
                       ClusterEvent::ReallocateCache(w.requests / 2)};
  } else if (name == "lru_writeback") {
    // Dynamic per-node LRU with write-back and 20% writes.
    w.kind = BackendKind::kSharded;
    w.config.shards = 2;
    w.requests = 4'000'000;
    w.config.cluster.cache_policy = distcache::CachePolicyKind::kLru;
    w.config.cluster.write_policy = distcache::WritePolicy::kWriteBack;
    w.config.cluster.write_ratio = 0.2;
  } else if (name == "memwall_openloop") {
    // The memory-wall geometry (32M-rank candidate pool, 16384 objects per
    // switch, ~1M cache slots, dense sampler, compact routes) under a Poisson
    // open loop at offered rate 800 in virtual time, on one shard.
    w.kind = BackendKind::kSharded;
    w.config.shards = 1;
    // Short Runs (~0.7 s): more probe-paired samples per invocation.
    w.requests = 4'000'000;
    w.config.cluster.candidate_pool = 32'000'000;
    w.config.cluster.per_switch_objects = 16'384;
    w.config.queue.arrival.rate = 800.0;
    // Construction takes seconds here, so one backend serves every Run.
    w.reuse_backend = true;
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

uint32_t Placements(const Workload& w) { return w.reuse_backend ? 1 : kPlacements; }

distcache::SimBackendConfig PlacementConfig(const Workload& w, uint32_t p) {
  distcache::SimBackendConfig config = w.config;
  if (p > 0) {
    config.cluster.seed = distcache::HashCombine(w.config.cluster.seed, p);
  }
  return config;
}

}  // namespace perfbench
