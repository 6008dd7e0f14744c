#include "sketch/heavy_hitter.h"

#include <algorithm>
#include <unordered_map>

#include "common/hash.h"

namespace distcache {

std::vector<std::pair<uint64_t, uint64_t>> MergeHeavyHitterReports(
    const std::vector<std::vector<std::pair<uint64_t, uint32_t>>>& reports) {
  std::unordered_map<uint64_t, uint64_t> merged;
  for (const auto& list : reports) {
    for (const auto& [key, count] : list) {
      merged[key] += count;
    }
  }
  std::vector<std::pair<uint64_t, uint64_t>> out(merged.begin(), merged.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) {
      return a.second > b.second;
    }
    return a.first < b.first;
  });
  return out;
}

HeavyHitterDetector::HeavyHitterDetector(const Config& config)
    : config_(config),
      sketch_(config.sketch),
      bloom_(config.bloom),
      reports_(kInitialReportSlots) {}

bool HeavyHitterDetector::Record(uint64_t key) {
  return ObserveAndStore(key) && !bloom_.InsertAndTest(key);
}

void HeavyHitterDetector::Observe(uint64_t key) { ObserveAndStore(key); }

bool HeavyHitterDetector::ObserveAndStore(uint64_t key) {
  const uint32_t estimate = sketch_.Update(key);
  return estimate >= config_.report_threshold && StoreReport(key, estimate);
}

bool HeavyHitterDetector::StoreReport(uint64_t key, uint32_t estimate) {
  const size_t mask = reports_.size() - 1;
  size_t i = Mix64(key) & mask;
  while (reports_[i].used) {
    if (reports_[i].key == key) {
      reports_[i].estimate = estimate;  // refresh: TopReports ranks by the latest
      return true;
    }
    i = (i + 1) & mask;
  }
  if (num_reports_ >= config_.max_reports_per_epoch) {
    return false;  // full: a new key is dropped, the first arrivals stay
  }
  reports_[i] = {key, estimate, 1};
  if (++num_reports_ * 4 > reports_.size() * 3) {
    GrowReports();
  }
  return true;
}

void HeavyHitterDetector::GrowReports() {
  std::vector<Report> old(reports_.size() * 2, Report{});
  old.swap(reports_);
  const size_t mask = reports_.size() - 1;
  for (const Report& r : old) {
    if (r.used) {
      size_t i = Mix64(r.key) & mask;
      while (reports_[i].used) {
        i = (i + 1) & mask;
      }
      reports_[i] = r;
    }
  }
}

std::vector<std::pair<uint64_t, uint32_t>> HeavyHitterDetector::TopReports() const {
  std::vector<std::pair<uint64_t, uint32_t>> out;
  out.reserve(num_reports_);
  for (const Report& r : reports_) {
    if (r.used) {
      out.emplace_back(r.key, r.estimate);
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) {
      return a.second > b.second;
    }
    return a.first < b.first;
  });
  return out;
}

void HeavyHitterDetector::NewEpoch() {
  sketch_.Reset();
  bloom_.Reset();
  std::fill(reports_.begin(), reports_.end(), Report{});
  num_reports_ = 0;
}

}  // namespace distcache
