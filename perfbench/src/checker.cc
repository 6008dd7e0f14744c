#include "checker.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "cluster/cluster_sim.h"

namespace perfbench {

using distcache::BackendStats;

namespace {

std::string Fmt(const char* what, double got, double want) {
  return std::string(what) + ": got " + std::to_string(got) + ", want " +
         std::to_string(want);
}

double SumLoads(const BackendStats& s) {
  double total = 0.0;
  for (const std::vector<double>& layer : s.cache_load) {
    for (const double x : layer) {
      total += x;
    }
  }
  for (const double x : s.server_load) {
    total += x;
  }
  return total;
}

}  // namespace

double FluidHitRatio(const distcache::SimBackendConfig& config, uint64_t requests) {
  if (!config.events.empty() || !config.phases.empty()) {
    return distcache::MakeSimBackend(distcache::BackendKind::kFluid, config)
        ->Run(requests)
        .hit_ratio();
  }
  const distcache::ClusterSim sim(config.cluster);
  const distcache::PopularityVector& pv = sim.popularity();
  double mass = 0.0;
  for (uint64_t rank = 0; rank < pv.head.size(); ++rank) {
    if (sim.allocation().CopiesOf(sim.KeyOfRank(rank)).cached()) {
      mass += pv.head[rank];
    }
  }
  return mass;
}

std::vector<std::string> CheckRun(const BackendStats& s, const Expectation& e) {
  std::vector<std::string> bad;
  const auto d = [](uint64_t v) { return static_cast<double>(v); };
  // Request conservation.
  if (s.requests != e.requests) {
    bad.push_back(Fmt("requests", d(s.requests), d(e.requests)));
  }
  if (s.reads + s.writes != s.requests) {
    bad.push_back(Fmt("reads + writes", d(s.reads + s.writes), d(s.requests)));
  }
  // Every read is a cache hit, a server read or a drop; drops of writes only
  // lower the left side, so with no drops this is an equality.
  if (s.cache_hits + s.server_reads > s.reads ||
      s.cache_hits + s.server_reads + s.dropped < s.reads) {
    bad.push_back(Fmt("cache_hits + server_reads (+ dropped)",
                      d(s.cache_hits + s.server_reads), d(s.reads)));
  }
  if (s.spine_hits + s.leaf_hits != s.cache_hits) {
    bad.push_back(Fmt("spine_hits + leaf_hits", d(s.spine_hits + s.leaf_hits),
                      d(s.cache_hits)));
  }
  // No workload injects failures, so nothing may be lost or dropped.
  if (s.failed_shards != 0) {
    bad.push_back(Fmt("failed_shards", d(s.failed_shards), 0));
  }
  if (s.degraded_fraction != 0.0) {
    bad.push_back(Fmt("degraded_fraction", s.degraded_fraction, 0));
  }
  if (s.dropped != 0) {
    bad.push_back(Fmt("dropped", d(s.dropped), 0));
  }
  if (e.read_only) {
    // A read charges exactly one unit to the node that served it; sums of
    // whole units are exact in double precision.
    const double total = SumLoads(s);
    if (std::fabs(total - d(s.requests)) > 0.5) {
      bad.push_back(Fmt("sum of loads", total, d(s.requests)));
    }
  }
  if (e.open_loop) {
    if (s.latency.total() != s.requests - s.dropped) {
      bad.push_back(
          Fmt("latency samples", d(s.latency.total()), d(s.requests - s.dropped)));
    }
  } else if (s.latency.total() != 0) {
    bad.push_back(Fmt("latency samples (closed loop)", d(s.latency.total()), 0));
  }
  if (e.fluid_hit_ratio >= 0.0) {
    const double rel =
        std::fabs(s.hit_ratio() - e.fluid_hit_ratio) / e.fluid_hit_ratio;
    if (!(rel < e.fluid_tolerance)) {
      bad.push_back(Fmt("hit_ratio vs fluid engine", s.hit_ratio(),
                        e.fluid_hit_ratio));
    }
  }
  return bad;
}

std::vector<std::string> CheckerSelfTest(const BackendStats& good,
                                         const Expectation& e) {
  std::vector<std::string> problems;
  if (!CheckRun(good, e).empty()) {
    problems.push_back("the uncorrupted stats do not pass");
    return problems;
  }
  std::vector<std::pair<const char*, std::function<void(BackendStats&)>>> cases{
      {"one request missing", [](BackendStats& s) { --s.requests; --s.reads; }},
      {"a read counted twice", [](BackendStats& s) { ++s.reads; }},
      {"a hit without a read", [](BackendStats& s) { ++s.cache_hits; ++s.spine_hits; }},
      {"a dropped request", [](BackendStats& s) { ++s.dropped; }},
      {"a failed shard", [](BackendStats& s) { s.failed_shards = 1; }},
      {"a degraded run", [](BackendStats& s) { s.degraded_fraction = 0.5; }},
  };
  if (e.read_only) {
    cases.emplace_back("a load charged twice",
                       [](BackendStats& s) { s.server_load[0] += 1.0; });
  }
  if (e.fluid_hit_ratio >= 0.0) {
    cases.emplace_back("hits moved to the servers", [](BackendStats& s) {
      const uint64_t moved = s.cache_hits / 10;
      s.cache_hits -= moved;
      s.spine_hits -= std::min(moved, s.spine_hits);
      s.leaf_hits = s.cache_hits - s.spine_hits;
      s.server_reads += moved;
    });
  }
  if (e.open_loop) {
    cases.emplace_back("a lost latency sample", [](BackendStats& s) {
      std::vector<uint64_t> counts = s.latency.counts();
      for (uint64_t& c : counts) {
        if (c > 0) {
          --c;
          break;
        }
      }
      s.latency = distcache::LatencyHistogram::FromRaw(
          std::move(counts), s.latency.total() - 1, s.latency.infinite(),
          s.latency.finite_sum());
    });
  }
  for (auto& [name, corrupt] : cases) {
    BackendStats copy = good;
    corrupt(copy);
    if (CheckRun(copy, e).empty()) {
      problems.push_back(std::string("accepted stats with ") + name);
    }
  }
  return problems;
}

}  // namespace perfbench
