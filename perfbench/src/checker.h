// Correctness checks behind the benchmark's `failed` count: a Run whose stats
// break any of them counts its requests as failed.
#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sim_backend.h"

namespace perfbench {

struct Expectation {
  uint64_t requests = 0;   // requests the Run was asked for
  bool read_only = false;  // write ratio 0: every request charges one load unit
  bool open_loop = false;  // one latency sample per delivered request
  // Reference hit ratio from the fluid engine on the same config, and the
  // relative tolerance the request engines must meet (negative = no
  // reference for this workload).
  double fluid_hit_ratio = -1.0;
  double fluid_tolerance = 0.02;
};

// The fluid model's hit ratio for `config`: with no timeline, its analytic
// cached mass (what FluidBackend reports for one measurement, without the
// per-tick load sweep that takes minutes over a 32M-rank pool); otherwise a
// FluidBackend Run. Static cache policies only.
double FluidHitRatio(const distcache::SimBackendConfig& config, uint64_t requests);

// Every check the Run's stats fail, as one line each; empty when correct.
std::vector<std::string> CheckRun(const distcache::BackendStats& stats,
                                  const Expectation& expect);

// Shows that CheckRun rejects corrupted copies of `good` (which must itself
// pass). Returns the problems found with the checker; empty when it works.
std::vector<std::string> CheckerSelfTest(const distcache::BackendStats& good,
                                         const Expectation& expect);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
