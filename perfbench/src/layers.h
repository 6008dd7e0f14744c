// The traced run: per-layer costs measured from outside the program, by
// replaying the workload's own seeded bucket and key stream through each
// layer's public calls with spans around them.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>
#include <utility>
#include <vector>

#include "sim/sim_backend.h"
#include "workloads.h"

namespace perfbench {

// What the traced run takes from the untraced measurement of the same
// workload and seed.
struct UntracedRun {
  double throughput_mreq_s = 0.0;        // median over the measured Runs
  distcache::BackendStats last;          // stats of the last measured Run
};

using Metrics = std::vector<std::pair<std::string, double>>;

// Measures every per-layer metric for `w` (see README.md for each metric's
// definition) and writes the spans to `trace_path`. Appends to `problems`
// anything that makes the replay's figures untrustworthy.
Metrics MeasureLayers(const Workload& w, const UntracedRun& untraced,
                      const std::string& trace_path,
                      std::vector<std::string>* problems);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
