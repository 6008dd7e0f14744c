// The benchmark's workloads. Each one isolates one DistCache mechanism on the
// paper's §6.2 testbed (32 spines, 32 racks x 32 servers, 100M keys,
// Zipf-0.99) and is built only from its definition below and the seed given
// on the command line; README.md records why each was chosen.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "sim/sim_backend.h"

namespace perfbench {

struct Workload {
  std::string name;
  distcache::BackendKind kind = distcache::BackendKind::kSharded;
  distcache::SimBackendConfig config;
  // Simulated requests per measured Run.
  uint64_t requests = 0;
  // True when construction takes seconds: one backend, on one placement,
  // serves every Run. Otherwise each Run gets a freshly constructed backend
  // (a timeline that re-allocates the cache mutates the backend's model, so
  // it cannot be re-run) and Runs cycle through kPlacements placements.
  bool reuse_backend = false;
};

// Placements per invocation of a workload that constructs a backend per Run:
// placement and allocation hash seeds derived from the command-line seed, so
// hit ratio and imbalance describe the mechanism rather than one hash draw.
constexpr uint32_t kPlacements = 8;

uint32_t Placements(const Workload& w);

// Builds the named workload for `seed`; returns false on an unknown name.
// `config` is placement 0.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

// The workload's config for placement `p` (< Placements(w)).
distcache::SimBackendConfig PlacementConfig(const Workload& w, uint32_t p);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
