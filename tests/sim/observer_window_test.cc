// The engine observer's recording windows (EngineCore::observing_): the core
// records a window only when a kReallocateCache step closes it — not after the
// last re-allocation, and not in a window a hot-spot shift or phase boundary
// resets first. Nothing ever ranks those counts.
//
//  * core level — with two re-allocations queued, the second one still sees the
//    reads observed since the first, and ObservedCounts() is empty after it; a
//    window closed by a shift is skipped and the next one recorded;
//  * engine level — a hot-spot shift between two re-allocations is recovered by
//    the second refill in every request engine, and the sharded ×1 and
//    multiproc ×1 substrates stay bit-identical to each other.
#include <gtest/gtest.h>

#include <vector>

#include "common/alias_sampler.h"
#include "common/random.h"
#include "sim/engine_core.h"
#include "sim/multiproc_backend.h"
#include "sim/sim_backend.h"

#if defined(__SANITIZE_THREAD__)
#define DISTCACHE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DISTCACHE_TSAN 1
#endif
#endif

namespace distcache {
namespace {

constexpr uint64_t kRequests = 200'000;
constexpr uint64_t kFirstRealloc = 50'000;
constexpr uint64_t kShiftAt = 100'000;
constexpr uint64_t kSecondRealloc = 150'000;

ClusterConfig WindowCluster() {
  ClusterConfig cc;
  cc.num_spine = 8;
  cc.num_racks = 8;
  cc.servers_per_rack = 4;
  cc.per_switch_objects = 50;
  cc.num_keys = 1'000'000;
  cc.zipf_theta = 0.99;
  cc.seed = 42;
  return cc;
}

// The sequential engine's load sink: cumulative loads plus the in-place view.
struct CountingSink {
  BackendStats* st;
  LoadTracker* view;
  void AddCacheLoad(CacheNodeId node, double delta) {
    double& load = st->cache_load[node.layer][node.index];
    load += delta;
    view->Set(node, load);
  }
  void AddServerLoad(uint32_t server, double delta) {
    st->server_load[server] += delta;
  }
};

EngineCore::Action ReallocAction(uint64_t at) {
  EngineCore::Action action;
  action.at_local = static_cast<double>(at);
  action.event = ClusterEvent::ReallocateCache(at);
  return action;
}

TEST(ObserverWindow, RecordsUntilTheLastReallocationOnly) {
  const ClusterModel model(WindowCluster());
  const RouteTable routes = BuildRouteTable(model);
  EngineCore core(&model, 1, 2, /*enable_observer=*/true);
  core.SetRouteView(routes.entries.data(), routes.entries.size(),
                    routes.overflow.data());
  BackendStats st;
  st.cache_load = model.ZeroCacheLoads();
  st.server_load.assign(model.num_servers(), 0.0);
  core.BindStats(&st);
  core.ClearActions();
  core.QueueAction(ReallocAction(kFirstRealloc));
  core.QueueAction(ReallocAction(kSecondRealloc));
  std::vector<size_t> observed_at_realloc;
  core.SetReallocateHook([&]() -> std::shared_ptr<const RouteTable> {
    observed_at_realloc.push_back(core.ObservedCounts().size());
    return nullptr;  // keep the current routes: only the window is under test
  });

  const AliasSampler sampler(model.head_with_tail);
  Rng rng(7);
  CountingSink sink{&st, &core.view()};
  size_t observed_midway = 0;
  for (uint64_t i = 0; i < kRequests; ++i) {
    core.AdvanceTo(i);
    core.Process(sink, sampler.Sample(rng));
    if (i == (kFirstRealloc + kSecondRealloc) / 2) {
      observed_midway = core.ObservedCounts().size();
    }
  }

  ASSERT_EQ(observed_at_realloc.size(), 2u);
  EXPECT_GT(observed_at_realloc[0], 100u);
  // The first re-allocation leaves another queued: recording continues.
  EXPECT_GT(observed_midway, 100u);
  EXPECT_GT(observed_at_realloc[1], observed_midway);
  // After the last one the observer is cleared and stays empty.
  EXPECT_TRUE(core.ObservedCounts().empty());
}

TEST(ObserverWindow, SkipsAWindowAShiftResetsUnread) {
  const ClusterModel model(WindowCluster());
  const RouteTable routes = BuildRouteTable(model);
  EngineCore core(&model, 1, 2, /*enable_observer=*/true);
  core.SetRouteView(routes.entries.data(), routes.entries.size(),
                    routes.overflow.data());
  BackendStats st;
  st.cache_load = model.ZeroCacheLoads();
  st.server_load.assign(model.num_servers(), 0.0);
  core.BindStats(&st);
  core.ClearActions();
  EngineCore::Action shift;
  shift.at_local = static_cast<double>(kShiftAt);
  shift.event = ClusterEvent::ShiftHotspot(kShiftAt, 500'000);
  core.QueueAction(shift);
  core.QueueAction(ReallocAction(kSecondRealloc));
  size_t observed_at_realloc = 0;
  core.SetReallocateHook([&]() -> std::shared_ptr<const RouteTable> {
    observed_at_realloc = core.ObservedCounts().size();
    return nullptr;
  });

  const AliasSampler sampler(model.head_with_tail);
  Rng rng(7);
  CountingSink sink{&st, &core.view()};
  size_t observed_before_shift = 0;
  size_t observed_after_shift = 0;
  for (uint64_t i = 0; i < kRequests; ++i) {
    core.AdvanceTo(i);
    core.Process(sink, sampler.Sample(rng));
    if (i + 1 == kShiftAt) {
      observed_before_shift = core.ObservedCounts().size();
    } else if (i + 1 == kSecondRealloc) {
      observed_after_shift = core.ObservedCounts().size();
    }
  }
  EXPECT_EQ(observed_before_shift, 0u);  // the shift would discard it
  EXPECT_GT(observed_after_shift, 100u);
  EXPECT_EQ(observed_at_realloc, observed_after_shift);
  EXPECT_TRUE(core.ObservedCounts().empty());
}

TEST(ObserverWindow, ClearActionsReArmsRecording) {
  const ClusterModel model(WindowCluster());
  const RouteTable routes = BuildRouteTable(model);
  EngineCore core(&model, 1, 2, /*enable_observer=*/true);
  core.SetRouteView(routes.entries.data(), routes.entries.size(),
                    routes.overflow.data());
  BackendStats st;
  st.cache_load = model.ZeroCacheLoads();
  st.server_load.assign(model.num_servers(), 0.0);
  core.BindStats(&st);
  core.QueueAction(ReallocAction(10));
  core.SetReallocateHook([] { return std::shared_ptr<const RouteTable>(); });
  const AliasSampler sampler(model.head_with_tail);
  Rng rng(7);
  CountingSink sink{&st, &core.view()};
  const auto run = [&] {
    for (uint64_t i = 0; i < 20'000; ++i) {
      core.AdvanceTo(i);
      core.Process(sink, sampler.Sample(rng));
    }
  };
  run();
  EXPECT_TRUE(core.ObservedCounts().empty());
  core.ClearActions();  // no re-allocation queued, but recording is armed again
  run();
  EXPECT_FALSE(core.ObservedCounts().empty());
}

SimBackendConfig TwoReallocConfig(uint32_t shards) {
  SimBackendConfig bcfg;
  bcfg.cluster = WindowCluster();
  bcfg.shards = shards;
  bcfg.batch_size = 64;
  bcfg.sample_interval = 50'000;
  bcfg.events = {ClusterEvent::ReallocateCache(kFirstRealloc),
                 ClusterEvent::ShiftHotspot(kShiftAt, 500'000),
                 ClusterEvent::ReallocateCache(kSecondRealloc)};
  return bcfg;
}

// The shift strands the cache on the formerly hot keys; only a refill from the
// reads observed after the first re-allocation brings the hits back.
void ExpectSecondReallocationRefills(const BackendStats& st, const char* engine) {
  ASSERT_EQ(st.series.size(), 4u) << engine;
  const uint64_t before_shift = st.series[1].cache_hits;
  const uint64_t stale = st.series[2].cache_hits;
  const uint64_t refilled = st.series[3].cache_hits;
  EXPECT_GT(before_shift, 10'000u) << engine;
  EXPECT_LT(stale * 10, before_shift) << engine;
  EXPECT_GT(refilled * 10, before_shift * 9) << engine;
}

TEST(ObserverWindow, SecondReallocationRefillsInEveryEngine) {
  const BackendStats seq =
      MakeSimBackend(BackendKind::kSequential, TwoReallocConfig(1))->Run(kRequests);
  ExpectSecondReallocationRefills(seq, "sequential");
  const BackendStats sharded =
      MakeSimBackend(BackendKind::kSharded, TwoReallocConfig(1))->Run(kRequests);
  ExpectSecondReallocationRefills(sharded, "sharded x1");
  // Different stream derivations, same cluster: the engines agree statistically.
  EXPECT_NEAR(seq.hit_ratio(), sharded.hit_ratio(), 0.02);

#if defined(DISTCACHE_TSAN)
  GTEST_SKIP() << "multiproc forks; not runnable under TSan";
#else
  if (!MultiprocBackend::Supported()) {
    GTEST_SKIP() << "multiproc backend not runnable here";
  }
  const BackendStats mp =
      MakeSimBackend(BackendKind::kMultiproc, TwoReallocConfig(1))->Run(kRequests);
  // One process exchanges no messages: bit-identical to sharded ×1.
  EXPECT_EQ(mp.reads, sharded.reads);
  EXPECT_EQ(mp.writes, sharded.writes);
  EXPECT_EQ(mp.cache_hits, sharded.cache_hits);
  EXPECT_EQ(mp.spine_hits, sharded.spine_hits);
  EXPECT_EQ(mp.leaf_hits, sharded.leaf_hits);
  EXPECT_EQ(mp.server_reads, sharded.server_reads);
  EXPECT_DOUBLE_EQ(mp.CacheImbalance(), sharded.CacheImbalance());
  EXPECT_DOUBLE_EQ(mp.ServerImbalance(), sharded.ServerImbalance());
  ASSERT_EQ(mp.series.size(), sharded.series.size());
  for (size_t i = 0; i < mp.series.size(); ++i) {
    EXPECT_EQ(mp.series[i].reads, sharded.series[i].reads) << i;
    EXPECT_EQ(mp.series[i].cache_hits, sharded.series[i].cache_hits) << i;
  }
#endif
}

}  // namespace
}  // namespace distcache
