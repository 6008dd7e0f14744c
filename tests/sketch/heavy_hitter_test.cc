#include "sketch/heavy_hitter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/zipf.h"

namespace distcache {
namespace {

HeavyHitterDetector::Config SmallConfig(uint32_t threshold = 32) {
  HeavyHitterDetector::Config cfg;
  cfg.sketch.rows = 4;
  cfg.sketch.width = 4096;
  cfg.bloom.hashes = 3;
  cfg.bloom.bits = 16384;
  cfg.report_threshold = threshold;
  return cfg;
}

TEST(HeavyHitterDetector, ColdKeysNotReported) {
  HeavyHitterDetector hh(SmallConfig());
  for (uint64_t k = 0; k < 1000; ++k) {
    EXPECT_FALSE(hh.Record(k));
  }
  EXPECT_TRUE(hh.TopReports().empty());
}

TEST(HeavyHitterDetector, HotKeyReportedOnceAtThreshold) {
  HeavyHitterDetector hh(SmallConfig(10));
  int reports = 0;
  for (int i = 0; i < 100; ++i) {
    reports += hh.Record(7) ? 1 : 0;
  }
  EXPECT_EQ(reports, 1);  // bloom filter suppresses duplicates within the epoch
  const auto top = hh.TopReports();
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].first, 7u);
  EXPECT_GE(top[0].second, 100u);
}

TEST(HeavyHitterDetector, ReportsRankedByCount) {
  HeavyHitterDetector hh(SmallConfig(5));
  for (int i = 0; i < 50; ++i) {
    hh.Record(1);
  }
  for (int i = 0; i < 20; ++i) {
    hh.Record(2);
  }
  const auto top = hh.TopReports();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, 1u);
  EXPECT_EQ(top[1].first, 2u);
}

TEST(HeavyHitterDetector, NewEpochClearsState) {
  HeavyHitterDetector hh(SmallConfig(5));
  for (int i = 0; i < 10; ++i) {
    hh.Record(3);
  }
  hh.NewEpoch();
  EXPECT_TRUE(hh.TopReports().empty());
  EXPECT_EQ(hh.Estimate(3), 0u);
  // Reportable again in the new epoch.
  int reports = 0;
  for (int i = 0; i < 10; ++i) {
    reports += hh.Record(3) ? 1 : 0;
  }
  EXPECT_EQ(reports, 1);
}

TEST(HeavyHitterDetector, FindsZipfHeadUnderRealisticTraffic) {
  HeavyHitterDetector hh(SmallConfig(64));
  ZipfDistribution dist(100000, 0.99);
  Rng rng(5);
  for (int i = 0; i < 50000; ++i) {
    hh.Record(dist.Sample(rng));
  }
  const auto top = hh.TopReports();
  ASSERT_GE(top.size(), 5u);
  // The hottest object must be among the first few reports.
  bool found_rank0 = false;
  for (size_t i = 0; i < 3 && i < top.size(); ++i) {
    found_rank0 |= top[i].first == 0;
  }
  EXPECT_TRUE(found_rank0);
}

TEST(HeavyHitterDetector, ReportCapIsEnforced) {
  HeavyHitterDetector::Config cfg = SmallConfig(1);
  cfg.max_reports_per_epoch = 8;
  HeavyHitterDetector hh(cfg);
  for (uint64_t k = 0; k < 100; ++k) {
    hh.Record(k);
  }
  EXPECT_LE(hh.TopReports().size(), 8u);
}

TEST(HeavyHitterDetector, MemoryBitsCombineSketchAndBloom) {
  HeavyHitterDetector hh(SmallConfig());
  EXPECT_EQ(hh.MemoryBits(), 4u * 4096u * 16u + 3u * 16384u);
}

std::vector<uint64_t> ZipfKeys(size_t n, uint64_t seed) {
  ZipfDistribution dist(200'000, 0.99);
  Rng rng(seed);
  std::vector<uint64_t> keys(n);
  for (uint64_t& key : keys) {
    key = dist.Sample(rng);
  }
  return keys;
}

TEST(HeavyHitterDetector, ObserveAndRecordGiveIdenticalReports) {
  for (const size_t cap : {size_t{64}, size_t{100'000}}) {
    HeavyHitterDetector::Config cfg = SmallConfig(4);
    cfg.max_reports_per_epoch = cap;  // 64 fills up; 100'000 never does
    HeavyHitterDetector observed(cfg);
    HeavyHitterDetector recorded(cfg);
    for (const uint64_t key : ZipfKeys(60'000, 11)) {
      observed.Observe(key);
      recorded.Record(key);
    }
    const auto top = observed.TopReports();
    EXPECT_EQ(top, recorded.TopReports()) << "cap " << cap;
    EXPECT_LE(top.size(), cap) << "cap " << cap;
    EXPECT_GT(top.size(), 32u) << "cap " << cap;
  }
}

TEST(HeavyHitterDetector, FlatTableMatchesMapReference) {
  // The report table's contract, checked against the node-based map it
  // replaced: latest estimate per key, new keys dropped once `cap` are held,
  // and the (estimate desc, key asc) order. The stream grows the table from its
  // initial slots through several doublings.
  HeavyHitterDetector::Config cfg = SmallConfig(2);
  cfg.sketch.width = 1 << 16;
  cfg.max_reports_per_epoch = 3000;
  HeavyHitterDetector hh(cfg);
  CountMinSketch sketch(cfg.sketch);
  std::unordered_map<uint64_t, uint32_t> reference;
  for (const uint64_t key : ZipfKeys(200'000, 12)) {
    hh.Observe(key);
    const uint32_t estimate = sketch.Update(key);
    if (estimate >= cfg.report_threshold &&
        (reference.size() < cfg.max_reports_per_epoch || reference.contains(key))) {
      reference[key] = estimate;
    }
  }
  std::vector<std::pair<uint64_t, uint32_t>> expected(reference.begin(),
                                                      reference.end());
  std::sort(expected.begin(), expected.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  ASSERT_EQ(expected.size(), 3000u);  // the cap was reached
  EXPECT_EQ(hh.TopReports(), expected);
}

TEST(HeavyHitterDetector, KeyZeroIsStoredAndReported) {
  HeavyHitterDetector hh(SmallConfig(1));
  hh.Observe(0);
  ASSERT_EQ(hh.TopReports().size(), 1u);
  EXPECT_EQ(hh.TopReports()[0], std::make_pair(uint64_t{0}, uint32_t{1}));
  hh.Observe(0);  // refreshed in place, not stored twice
  ASSERT_EQ(hh.TopReports().size(), 1u);
  EXPECT_EQ(hh.TopReports()[0].second, 2u);
  EXPECT_TRUE(hh.Record(5));  // Record reports a new key through the Bloom
}

TEST(HeavyHitterDetector, CapKeepsFirstArrivingKeys) {
  HeavyHitterDetector::Config cfg = SmallConfig(1);
  cfg.max_reports_per_epoch = 8;
  HeavyHitterDetector hh(cfg);
  for (uint64_t k = 100; k < 200; ++k) {
    hh.Observe(k);
  }
  hh.Observe(103);  // an existing key is still refreshed when full
  const auto top = hh.TopReports();
  ASSERT_EQ(top.size(), 8u);
  EXPECT_EQ(top[0], std::make_pair(uint64_t{103}, uint32_t{2}));
  std::vector<uint64_t> keys;
  for (const auto& [key, estimate] : top) {
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, (std::vector<uint64_t>{100, 101, 102, 103, 104, 105, 106, 107}));
}

TEST(HeavyHitterDetector, NewEpochEmptiesTheFlatTable) {
  HeavyHitterDetector::Config cfg = SmallConfig(1);
  cfg.max_reports_per_epoch = 100;
  HeavyHitterDetector hh(cfg);
  for (uint64_t k = 0; k < 1000; ++k) {
    hh.Observe(k);
  }
  ASSERT_EQ(hh.TopReports().size(), 100u);
  hh.NewEpoch();
  EXPECT_TRUE(hh.TopReports().empty());
  // The cap counts from zero again: a full epoch's worth of new keys fits.
  for (uint64_t k = 5000; k < 5100; ++k) {
    hh.Observe(k);
  }
  const auto top = hh.TopReports();
  ASSERT_EQ(top.size(), 100u);
  EXPECT_EQ(top.front().first, 5000u);
  EXPECT_EQ(top.back().first, 5099u);
}

}  // namespace
}  // namespace distcache
