// Count-Min sketch (Cormode & Muthukrishnan) — the frequency estimator inside the
// switch heavy-hitter detector. The paper's prototype uses 4 register arrays × 64K
// 16-bit slots per array (§5); those are the defaults here, including saturating
// 16-bit counters to mirror the data-plane register width.
//
// Row r indexes its counters with HashFamily(rows, seed).Hash(r, key) % width.
// The sketch evaluates all rows' tabulation hashes in one fused pass: it keeps a
// byte-major table where, for key-byte position i and byte value b, the `rows`
// words sit contiguously, so one key costs 8 cache-line loads and XORs instead
// of 8 × rows. The table is built from the family, so every slot (and hence
// every estimate) equals the per-row evaluation exactly.
#ifndef DISTCACHE_SKETCH_COUNT_MIN_H_
#define DISTCACHE_SKETCH_COUNT_MIN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace distcache {

class CountMinSketch {
 public:
  struct Config {
    size_t rows = 4;        // paper: 4 register arrays
    size_t width = 65536;   // paper: 64K slots per array
    uint32_t counter_max = std::numeric_limits<uint16_t>::max();  // 16-bit registers
    uint64_t seed = 0x5eedc0de;
  };

  explicit CountMinSketch(const Config& config);

  // Increments the counters for `key` and returns the post-update estimate.
  uint32_t Update(uint64_t key) {
    uint32_t estimate = std::numeric_limits<uint32_t>::max();
    ForEachCell(key, [&](size_t index) {
      uint32_t& cell = counters_[index];
      if (cell < config_.counter_max) {
        ++cell;  // saturating, like a fixed-width data-plane register
      }
      estimate = std::min(estimate, cell);
    });
    return estimate;
  }

  // Point-query estimate of the count of `key` (an overestimate in expectation).
  uint32_t Estimate(uint64_t key) const;

  // Zeroes all counters. The switch agent does this every second (§5).
  void Reset();

  size_t rows() const { return config_.rows; }
  size_t width() const { return config_.width; }

  // Total bits of state — used by the switch resource model (Table 1).
  size_t MemoryBits() const { return config_.rows * config_.width * 16; }

 private:
  // Rows hashed per fused pass: one pass covers the paper's 4 rows, and larger
  // sketches take ceil(rows / kRowBlock) passes over the same table.
  static constexpr size_t kRowBlock = 4;

  // Calls fn(index into counters_) for the cell of `key` in every row, top row
  // first. Each pass runs a kernel instantiated for its row count, so the
  // per-row hash words stay in registers.
  template <typename Fn>
  void ForEachCell(uint64_t key, Fn&& fn) const {
    for (size_t r0 = 0; r0 < config_.rows; r0 += kRowBlock) {
      switch (std::min(kRowBlock, config_.rows - r0)) {
        case 1:
          HashBlock<1>(key, r0, fn);
          break;
        case 2:
          HashBlock<2>(key, r0, fn);
          break;
        case 3:
          HashBlock<3>(key, r0, fn);
          break;
        default:
          HashBlock<kRowBlock>(key, r0, fn);
          break;
      }
    }
  }

  // The fused kernel for rows [r0, r0 + N).
  template <size_t N, typename Fn>
  void HashBlock(uint64_t key, size_t r0, Fn& fn) const {
    uint64_t h[N] = {};
    for (size_t i = 0; i < 8; ++i) {
      const uint64_t* t =
          &hash_table_[(i * 256 + static_cast<uint8_t>(key >> (8 * i))) * config_.rows +
                       r0];
      for (size_t r = 0; r < N; ++r) {
        h[r] ^= t[r];
      }
    }
    for (size_t r = 0; r < N; ++r) {
      // A power-of-two width masks instead of dividing (same slot).
      const size_t slot = static_cast<size_t>(
          width_mask_ != 0 ? h[r] & width_mask_ : h[r] % config_.width);
      fn((r0 + r) * config_.width + slot);
    }
  }

  Config config_;
  uint64_t width_mask_ = 0;  // width - 1 when width is a power of two, else 0
  // hash_table_[(i * 256 + b) * rows + r]: row r's contribution of byte value b
  // at key-byte position i.
  std::vector<uint64_t> hash_table_;
  // Row-major counters: row r occupies [r * width, (r + 1) * width).
  std::vector<uint32_t> counters_;
};

}  // namespace distcache

#endif  // DISTCACHE_SKETCH_COUNT_MIN_H_
