#include "sketch/count_min.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "common/zipf.h"

namespace distcache {
namespace {

CountMinSketch::Config SmallConfig() {
  CountMinSketch::Config cfg;
  cfg.rows = 4;
  cfg.width = 1024;
  return cfg;
}

TEST(CountMinSketch, ColdKeyEstimatesZero) {
  CountMinSketch cm(SmallConfig());
  EXPECT_EQ(cm.Estimate(42), 0u);
}

TEST(CountMinSketch, CountsSingleKeyExactly) {
  CountMinSketch cm(SmallConfig());
  for (int i = 0; i < 57; ++i) {
    cm.Update(7);
  }
  EXPECT_EQ(cm.Estimate(7), 57u);
}

TEST(CountMinSketch, UpdateReturnsRunningEstimate) {
  CountMinSketch cm(SmallConfig());
  EXPECT_EQ(cm.Update(3), 1u);
  EXPECT_EQ(cm.Update(3), 2u);
}

TEST(CountMinSketch, NeverUnderestimates) {
  CountMinSketch cm(SmallConfig());
  Rng rng(17);
  std::unordered_map<uint64_t, uint32_t> truth;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t key = rng.NextBounded(5000);
    ++truth[key];
    cm.Update(key);
  }
  for (const auto& [key, count] : truth) {
    EXPECT_GE(cm.Estimate(key), count);
  }
}

TEST(CountMinSketch, OverestimateIsBoundedOnAverage) {
  CountMinSketch cm(SmallConfig());
  Rng rng(18);
  std::unordered_map<uint64_t, uint32_t> truth;
  constexpr int kUpdates = 10000;
  for (int i = 0; i < kUpdates; ++i) {
    const uint64_t key = rng.NextBounded(2000);
    ++truth[key];
    cm.Update(key);
  }
  // Standard CM bound: error ≤ e·N/width with prob 1-e^-rows; check the average.
  double total_error = 0.0;
  for (const auto& [key, count] : truth) {
    total_error += cm.Estimate(key) - count;
  }
  EXPECT_LT(total_error / truth.size(), 3.0 * kUpdates / 1024.0 + 1.0);
}

TEST(CountMinSketch, ResetClears) {
  CountMinSketch cm(SmallConfig());
  cm.Update(5);
  cm.Reset();
  EXPECT_EQ(cm.Estimate(5), 0u);
}

TEST(CountMinSketch, CountersSaturateAtRegisterWidth) {
  CountMinSketch::Config cfg = SmallConfig();
  cfg.counter_max = 10;  // pretend 4-bit-ish registers
  CountMinSketch cm(cfg);
  for (int i = 0; i < 100; ++i) {
    cm.Update(9);
  }
  EXPECT_EQ(cm.Estimate(9), 10u);
}

TEST(CountMinSketch, PaperConfigMemoryBits) {
  CountMinSketch::Config cfg;  // paper defaults: 4 x 64K x 16-bit
  CountMinSketch cm(cfg);
  EXPECT_EQ(cm.MemoryBits(), 4u * 65536u * 16u);
  EXPECT_EQ(cm.rows(), 4u);
  EXPECT_EQ(cm.width(), 65536u);
}

// Brute-force reference for the fused kernel: one counter vector per row, each
// row indexed by its own HashFamily function modulo the width.
class ReferenceSketch {
 public:
  explicit ReferenceSketch(const CountMinSketch::Config& config)
      : config_(config),
        hashes_(config.rows, config.seed),
        counters_(config.rows, std::vector<uint32_t>(config.width, 0)) {}

  uint32_t Update(uint64_t key) {
    uint32_t estimate = std::numeric_limits<uint32_t>::max();
    for (size_t r = 0; r < config_.rows; ++r) {
      uint32_t& cell = counters_[r][hashes_.Hash(r, key) % config_.width];
      if (cell < config_.counter_max) {
        ++cell;
      }
      estimate = std::min(estimate, cell);
    }
    return estimate;
  }

  uint32_t Estimate(uint64_t key) const {
    uint32_t estimate = std::numeric_limits<uint32_t>::max();
    for (size_t r = 0; r < config_.rows; ++r) {
      estimate = std::min(estimate, counters_[r][hashes_.Hash(r, key) % config_.width]);
    }
    return estimate;
  }

 private:
  CountMinSketch::Config config_;
  HashFamily hashes_;
  std::vector<std::vector<uint32_t>> counters_;
};

// A zipf-0.99 head stream mixed with full-width random keys, so every key byte
// position takes many values.
std::vector<uint64_t> MixedKeys(size_t n, uint64_t seed) {
  ZipfDistribution zipf(1'000'000, 0.99);
  Rng rng(seed);
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = (i % 4 == 3) ? rng.Next() : zipf.Sample(rng);
  }
  return keys;
}

class FusedKernelTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(FusedKernelTest, UpdateAndEstimateMatchPerRowReference) {
  CountMinSketch::Config cfg;
  cfg.rows = std::get<0>(GetParam());
  cfg.width = std::get<1>(GetParam());
  cfg.counter_max = std::numeric_limits<uint32_t>::max();
  cfg.seed = 0xfeed + cfg.rows;
  CountMinSketch cm(cfg);
  ReferenceSketch ref(cfg);
  const std::vector<uint64_t> keys = MixedKeys(40'000, cfg.rows * 31 + cfg.width);
  for (const uint64_t key : keys) {
    ASSERT_EQ(cm.Update(key), ref.Update(key)) << "key " << key;
  }
  for (const uint64_t key : keys) {
    ASSERT_EQ(cm.Estimate(key), ref.Estimate(key)) << "key " << key;
  }
  // Never-updated keys too (cold cells and collisions alike).
  Rng rng(99);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t key = rng.Next();
    ASSERT_EQ(cm.Estimate(key), ref.Estimate(key)) << "key " << key;
  }
}

// Rows: the single-row edge, LFU's history sketch (2), the paper's 4 and an
// odd count; widths: powers of two (mask path) and 3000 (modulo path).
INSTANTIATE_TEST_SUITE_P(
    RowsAndWidths, FusedKernelTest,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{2}, size_t{4}, size_t{5}),
                       ::testing::Values(size_t{4096}, size_t{1} << 18, size_t{3000})));

TEST(CountMinSketch, FusedKernelMatchesReferenceAcrossRowBlocks) {
  CountMinSketch::Config cfg;
  cfg.rows = 11;  // three fused passes: two full 4-row blocks and a 3-row one
  cfg.width = 3000;
  CountMinSketch cm(cfg);
  ReferenceSketch ref(cfg);
  for (const uint64_t key : MixedKeys(10'000, 5)) {
    ASSERT_EQ(cm.Update(key), ref.Update(key)) << "key " << key;
  }
}

TEST(CountMinSketch, SaturationAt255MatchesReference) {
  // LFU's history sketch shape (core/cache_policy.cc): 2 × 2048, 8-bit cap.
  // A narrow zipf stream drives most of the head's cells to the cap.
  CountMinSketch::Config cfg;
  cfg.rows = 2;
  cfg.width = 2048;
  cfg.counter_max = 255;
  CountMinSketch cm(cfg);
  ReferenceSketch ref(cfg);
  ZipfDistribution zipf(1000, 0.99);
  Rng rng(3);
  for (int i = 0; i < 200'000; ++i) {
    const uint64_t key = zipf.Sample(rng);
    ASSERT_EQ(cm.Update(key), ref.Update(key)) << "update " << i;
  }
  EXPECT_EQ(cm.Estimate(0), 255u);
  for (uint64_t key = 0; key < 1000; ++key) {
    ASSERT_EQ(cm.Estimate(key), ref.Estimate(key)) << "key " << key;
  }
}

TEST(CountMinSketch, U32CountersPassSixteenBitsLikeReference) {
  // The engine observer's cap (sim/engine_core.h ObserverConfig) is u32 max.
  // Reaching it takes 2^32 updates; what the cap must not do is clamp at the
  // 16-bit data-plane width, so count well past it against the reference.
  CountMinSketch::Config cfg;
  cfg.rows = 4;
  cfg.width = 1 << 18;
  cfg.counter_max = std::numeric_limits<uint32_t>::max();
  CountMinSketch cm(cfg);
  ReferenceSketch ref(cfg);
  for (uint32_t i = 0; i < 70'000; ++i) {
    ASSERT_EQ(cm.Update(12345), ref.Update(12345));
  }
  EXPECT_EQ(cm.Estimate(12345), 70'000u);
  EXPECT_EQ(ref.Estimate(12345), 70'000u);
}

}  // namespace
}  // namespace distcache
