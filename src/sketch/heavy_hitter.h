// NetCache-style heavy-hitter (HH) detector: Count-Min sketch for frequency estimates
// of uncached keys + Bloom filter to dedupe reports + a small top-k table. The switch
// local agent uses the reports to decide cache insertions/evictions (§4.3, §5).
//
// Counters are reset every epoch (1 second in the paper). A key is reported as a heavy
// hitter when its estimated count within the epoch crosses `report_threshold`.
//
// Two entry points share one implementation. Record() is the switch data plane's:
// sketch update, report store, and the Bloom de-dup that tells the agent whether
// a report is new. Observe() is the simulation engines' controller-side observer
// (sim/engine_core.h): sketch update and report store only, because the engines
// read TopReports() and never the per-access verdict; they call it only in
// windows a re-allocation will read, so never after the last one. The sketch evaluates its
// rows with the fused tabulation kernel (count_min.h), and the reports live in a
// flat open-addressed key → latest-estimate table.
#ifndef DISTCACHE_SKETCH_HEAVY_HITTER_H_
#define DISTCACHE_SKETCH_HEAVY_HITTER_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sketch/bloom_filter.h"
#include "sketch/count_min.h"

namespace distcache {

// Merges per-detector heavy-hitter report lists (key, estimated count) into one
// hottest-first list: counts for the same key sum (each detector saw a disjoint
// slice of the traffic), ties break on the smaller key for determinism. This is the
// controller-side aggregation step of online cache re-allocation — every switch
// (or simulation shard) reports its local top keys and the controller re-allocates
// from the merged ranking (§4.1, §6.4).
std::vector<std::pair<uint64_t, uint64_t>> MergeHeavyHitterReports(
    const std::vector<std::vector<std::pair<uint64_t, uint32_t>>>& reports);

class HeavyHitterDetector {
 public:
  struct Config {
    CountMinSketch::Config sketch;
    BloomFilter::Config bloom;
    uint32_t report_threshold = 64;  // epoch-relative heaviness cutoff
    size_t max_reports_per_epoch = 1024;
  };

  explicit HeavyHitterDetector(const Config& config);

  // Records one access to an *uncached* key (cached keys are counted by the per-object
  // hit counters instead, as in NetCache). Returns true if this access pushed the key
  // over the report threshold for the first time this epoch.
  bool Record(uint64_t key);

  // Record() without the Bloom de-dup: the same sketch update and report store,
  // so TopReports() is identical after either call sequence. Out of line, like
  // Record(), so the engines' request loops stay compact when it is not called.
  void Observe(uint64_t key);

  // Keys reported this epoch, hottest-first by sketch estimate (ties: smaller
  // key first).
  std::vector<std::pair<uint64_t, uint32_t>> TopReports() const;

  // Clears sketch, bloom filter and report list. Called by the agent every second.
  void NewEpoch();

  uint32_t Estimate(uint64_t key) const { return sketch_.Estimate(key); }
  size_t MemoryBits() const { return sketch_.MemoryBits() + bloom_.MemoryBits(); }

 private:
  // One report-table slot; `used` sits in what would otherwise be padding, so
  // every 64-bit key (0 included) is storable.
  struct Report {
    uint64_t key;
    uint32_t estimate;
    uint32_t used;
  };

  // The shared core of Record and Observe: updates the sketch and, once the key
  // reaches the threshold, stores its latest estimate. Returns whether the key
  // is in the report table afterwards (false below the threshold, or when the
  // table already holds max_reports_per_epoch other keys).
  bool ObserveAndStore(uint64_t key);
  bool StoreReport(uint64_t key, uint32_t estimate);
  void GrowReports();

  static constexpr size_t kInitialReportSlots = 16;

  Config config_;
  CountMinSketch sketch_;
  BloomFilter bloom_;
  // Linear-probing table (a power-of-two slot count), doubled once it is more
  // than 3/4 full. It holds at most max_reports_per_epoch keys, so that cap
  // bounds its size, but it only grows with the keys actually reported: 16 B
  // slots at 3/8-3/4 load are 21-43 B per key, against a node-based map's
  // 40-48 B (a 32 B heap node plus 8 B per bucket at load ≤ 1).
  std::vector<Report> reports_;
  size_t num_reports_ = 0;
};

}  // namespace distcache

#endif  // DISTCACHE_SKETCH_HEAVY_HITTER_H_
