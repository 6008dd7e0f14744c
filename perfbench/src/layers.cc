#include "layers.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <unordered_set>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "common/alias_sampler.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/stats.h"
#include "core/cache_policy.h"
#include "core/load_tracker.h"
#include "core/pot_router.h"
#include "runtime/shm_ring.h"
#include "runtime/spsc_ring.h"
#include "sim/cluster_model.h"
#include "sim/engine_core.h"
#include "sim/route_table.h"
#include "sim/shard_message.h"
#include "sim/stats_codec.h"
#include "sketch/heavy_hitter.h"
#include "tracer.h"

namespace perfbench {

using namespace distcache;

namespace {

constexpr uint32_t kBatch = 256;            // the engines' default batch size
constexpr size_t kReplayRequests = size_t{1} << 21;
constexpr int kPasses = 3;                  // replays per layer; medians reported
constexpr size_t kRingIterations = size_t{1} << 20;
constexpr int kCodecIterations = 200;

// The request engines' seed derivations (sequential_backend.cc,
// engine_core.cc), so replayed cores draw the streams the engines draw.
uint64_t CoreRngSeed(uint64_t s) { return HashCombine(s, 0xc1057e4ULL); }
uint64_t RouterSeed(uint64_t s) { return HashCombine(s, 0x90076eULL); }
uint64_t TimeSeed(uint64_t s) { return HashCombine(s, 0x0be71457ULL); }
uint64_t PolicySeed(uint64_t s) { return HashCombine(s, 0xca9e9071c7ULL); }

// The engine's §6.4 observer sizing (ObserverConfig in sim/engine_core.cc).
HeavyHitterDetector::Config EngineObserverConfig(uint64_t pool) {
  HeavyHitterDetector::Config cfg;
  cfg.sketch.width = 1 << 18;
  cfg.sketch.counter_max = std::numeric_limits<uint32_t>::max();
  cfg.report_threshold = 2;
  cfg.max_reports_per_epoch = static_cast<size_t>(2 * pool);
  return cfg;
}

// The sequential reference engine's load sink: cumulative loads plus an
// in-place telemetry view, so PoT sees the loads it would see there.
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

// Per-call timer for calls too short for a span each: the time-stamp counter
// on x86-64 (calibrated against the steady clock, minus the cost of reading
// it), the steady clock elsewhere.
class CallTimer {
 public:
  CallTimer() {
#if defined(__x86_64__)
    const uint64_t n0 = NowNs();
    const uint64_t t0 = __rdtsc();
    while (NowNs() - n0 < 20'000'000) {
    }
    ns_per_tick_ = static_cast<double>(NowNs() - n0) /
                   static_cast<double>(__rdtsc() - t0);
#endif
    constexpr int kProbe = 1 << 16;
    uint64_t total = 0;
    for (int i = 0; i < kProbe; ++i) {
      const uint64_t a = Now();
      total += Now() - a;
    }
    overhead_ticks_ = static_cast<double>(total) / kProbe;
  }
  static uint64_t Now() {
#if defined(__x86_64__)
    return __rdtsc();
#else
    return NowNs();
#endif
  }
  double NsPerCall(uint64_t ticks, uint64_t calls) const {
    if (calls == 0) {
      return 0.0;
    }
    const double per = static_cast<double>(ticks) / static_cast<double>(calls) -
                       overhead_ticks_;
    return std::max(per, 0.0) * ns_per_tick_;
  }

 private:
  double ns_per_tick_ = 1.0;
  double overhead_ticks_ = 0.0;
};

// Keeps the compiler from discarding a replay whose results are unused.
template <typename T>
void KeepAlive(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

BackendStats FreshStats(const ClusterModel& model) {
  BackendStats st;
  st.cache_load = model.ZeroCacheLoads();
  st.server_load.assign(model.num_servers(), 0.0);
  return st;
}

// One pass of EngineCore::ProcessBatch over the stored bucket stream.
void EnginePass(const ClusterModel& model, const RouteTable& routes,
                const std::vector<uint32_t>& buckets, bool observer,
                const QueueModelConfig* overlay) {
  const uint64_t seed = model.cfg.seed;
  EngineCore core(&model, CoreRngSeed(seed), RouterSeed(seed), observer);
  core.SetRouteView(routes.entries.data(), routes.entries.size(),
                    routes.overflow.data());
  BackendStats st = FreshStats(model);
  core.BindStats(&st);
  if (overlay != nullptr) {
    core.ConfigureOpenLoop(*overlay, TimeSeed(seed));
  }
  CountingSink sink{&st, &core.view()};
  const size_t n = buckets.size();
  for (size_t i = 0; i < n; i += kBatch) {
    core.ProcessBatch(sink, buckets.data() + i,
                      static_cast<uint32_t>(std::min<size_t>(kBatch, n - i)));
  }
}

// The hot-set rotation in force when the workload's first re-allocation
// fires (0 when it never re-allocates or never shifts).
uint64_t ShiftAtReallocation(const SimBackendConfig& cfg) {
  std::vector<ClusterEvent> events = cfg.events;
  SortEventsByRequest(events);
  uint64_t shift = 0;
  for (const ClusterEvent& e : events) {
    if (e.kind == ClusterEvent::Kind::kShiftHotspot) {
      shift = e.value;
    } else if (e.kind == ClusterEvent::Kind::kReallocateCache) {
      return shift;
    }
  }
  return 0;
}

}  // namespace

Metrics MeasureLayers(const Workload& w, const UntracedRun& untraced,
                      const std::string& trace_path,
                      std::vector<std::string>* problems) {
  Metrics m;
  const auto put = [&m](const char* name, double value) {
    m.emplace_back(name, value);
  };
  const ClusterConfig& cc = w.config.cluster;
  Tracer tracer(cc.seed);
  CallTimer timer;

  // ---- set-up: the construction steps MakeSimBackend performs ------------
  const int setup_span = tracer.Begin("setup");
  int span = tracer.Begin("setup.cluster_model");
  ClusterModel model(cc);
  tracer.End(span);
  span = tracer.Begin("setup.route_table");
  const RouteTable routes = BuildRouteTable(model);
  tracer.End(span);
  span = tracer.Begin("setup.sampler");
  const AliasSampler sampler(model.head_with_tail);
  tracer.End(span);
  span = tracer.Begin("setup.timeline_plan");
  const std::vector<TimelineStep> plan = BuildTimelinePlan(w.config, model);
  tracer.End(span);
  tracer.End(setup_span);
  put("setup.cluster_model_s", tracer.TotalNs("setup.cluster_model") / 1e9);
  put("setup.route_table_s", tracer.TotalNs("setup.route_table") / 1e9);
  put("setup.sampler_s", tracer.TotalNs("setup.sampler") / 1e9);
  put("setup.timeline_plan_s", tracer.TotalNs("setup.timeline_plan") / 1e9);

  // The request core with the policy layer off: the workload's cluster under
  // the default static allocation (a second model only when the workload
  // runs a dynamic policy).
  std::unique_ptr<ClusterModel> static_model;
  if (cc.cache_policy != CachePolicyKind::kDistCache) {
    ClusterConfig sc = cc;
    sc.cache_policy = CachePolicyKind::kDistCache;
    sc.cache_hierarchy = HierarchyMode::kInclusive;
    sc.write_policy = WritePolicy::kWriteThrough;
    static_model = std::make_unique<ClusterModel>(sc);
  }
  const ClusterModel& base_model = static_model ? *static_model : model;
  const RouteTable base_routes =
      static_model ? BuildRouteTable(base_model) : RouteTable{};
  const RouteTable& base_table = static_model ? base_routes : routes;

  // ---- the workload's seeded bucket and key stream ------------------------
  const uint64_t observed_shift = ShiftAtReallocation(w.config);
  const double policy_write_ratio = cc.write_ratio > 0.0 ? cc.write_ratio : 0.2;
  std::vector<uint32_t> buckets(kReplayRequests);
  std::vector<uint64_t> keys(kReplayRequests);
  std::vector<uint8_t> policy_writes(kReplayRequests);
  {
    ScopedSpan s(tracer, "stream");
    Rng rng(HashCombine(cc.seed, 0x5717ea4ULL));
    sampler.SampleBatch(rng, buckets.data(), buckets.size());
    for (size_t i = 0; i < kReplayRequests; ++i) {
      const uint64_t rank = buckets[i] == model.pool
                                ? model.pool + rng.NextBounded(cc.num_keys - model.pool)
                                : buckets[i];
      keys[i] = KeyOfRank(rank, observed_shift, cc.num_keys);
      policy_writes[i] = rng.NextBernoulli(policy_write_ratio) ? 1 : 0;
    }
  }

  // ---- request core, observer and queueing overlay ------------------------
  QueueModelConfig overlay = w.config.queue;
  if (!overlay.enabled()) {
    overlay.arrival.rate = 800.0;  // memwall_openloop's offered rate
  }
  for (int p = 0; p < kPasses; ++p) {
    {
      ScopedSpan s(tracer, "sim.engine_core");
      EnginePass(base_model, base_table, buckets, false, nullptr);
    }
    {
      ScopedSpan s(tracer, "sketch.observer");
      EnginePass(base_model, base_table, buckets, true, nullptr);
    }
    {
      ScopedSpan s(tracer, "sim.queue_overlay");
      EnginePass(base_model, base_table, buckets, false, &overlay);
    }
  }
  const double per_req = static_cast<double>(kReplayRequests);
  // The median duration of the spans called `name` (one per pass), in ns,
  // divided by `per`.
  const auto median_ns = [&tracer](const char* name, double per) {
    return Median(tracer.DurationsNs(name)) / per;
  };
  const double engine_core_ns = median_ns("sim.engine_core", per_req);
  put("sim.engine_core_ns", engine_core_ns);
  put("sketch.observer_ns", median_ns("sketch.observer", per_req) - engine_core_ns);
  put("sim.queue_overlay_ns",
      median_ns("sim.queue_overlay", per_req) - engine_core_ns);

  // ---- the traced request path ---------------------------------------------
  // The workload's own per-request path in one thread — sampler, then the
  // request core with the workload's observer, policy and overlay settings —
  // with a span around every batch of each.
  {
    const bool observer = TimelineNeedsObserver(w.config.events);
    for (int p = 0; p < kPasses; ++p) {
      const uint64_t seed = cc.seed;
      EngineCore core(&model, CoreRngSeed(seed), RouterSeed(seed), observer);
      core.SetRouteView(routes.entries.data(), routes.entries.size(),
                        routes.overflow.data());
      BackendStats st = FreshStats(model);
      core.BindStats(&st);
      core.ConfigureOpenLoop(w.config.queue, TimeSeed(seed));
      CountingSink sink{&st, &core.view()};
      uint32_t batch[kBatch];
      ScopedSpan path(tracer, "replay.path");
      for (size_t done = 0; done < kReplayRequests; done += kBatch) {
        const uint32_t count =
            static_cast<uint32_t>(std::min<size_t>(kBatch, kReplayRequests - done));
        {
          ScopedSpan s(tracer, "common.sample");
          sampler.SampleBatch(core.rng(), batch, count);
        }
        {
          ScopedSpan s(tracer, "sim.engine_core.workload");
          core.ProcessBatch(sink, batch, count);
        }
      }
    }
  }

  // ---- route lookup, PoT choice and load sink -----------------------------
  std::vector<std::pair<CacheNodeId, CacheNodeId>> pairs;
  {
    uint64_t acc = 0;
    const size_t hot_len = routes.entries.size();
    for (int p = 0; p < kPasses; ++p) {
      ScopedSpan s(tracer, "sim.route_gather");
      for (const uint32_t b : buckets) {
        if (b < hot_len) {
          const RouteEntry& e = routes.entries[b];
          acc += e.server + e.c0 + e.c1;
        }
      }
    }
    KeepAlive(acc);
    put("sim.route_gather_ns", median_ns("sim.route_gather", per_req));
    for (const uint32_t b : buckets) {
      if (b < hot_len && routes.entries[b].kind == RouteEntry::kCached &&
          routes.entries[b].num == 2) {
        pairs.emplace_back(UnpackCandidate(routes.entries[b].c0),
                           UnpackCandidate(routes.entries[b].c1));
      }
    }
  }
  {
    LoadTracker tracker(MakeTrackerConfig(cc));
    PotRouter router(&tracker, cc.routing, RouterSeed(cc.seed));
    std::vector<std::vector<double>> loads = model.ZeroCacheLoads();
    std::vector<CacheNodeId> chosen(pairs.size());
    for (int p = 0; p < kPasses; ++p) {
      {
        ScopedSpan s(tracer, "core.pot_choose");
        for (size_t i = 0; i < pairs.size(); ++i) {
          chosen[i] = router.ChoosePair(pairs[i].first, pairs[i].second);
        }
      }
      {
        ScopedSpan s(tracer, "core.load_set");
        for (const CacheNodeId node : chosen) {
          double& load = loads[node.layer][node.index];
          load += 1.0;
          tracker.Set(node, load);
        }
      }
    }
    const double n = std::max<double>(1.0, static_cast<double>(pairs.size()));
    put("core.pot_choose_ns", median_ns("core.pot_choose", n));
    put("core.load_set_ns", median_ns("core.load_set", n));
  }

  // ---- cache policy: the lru_writeback policy over this key stream --------
  {
    CachePolicyConfig pc;
    pc.policy = CachePolicyKind::kLru;
    pc.hierarchy = HierarchyMode::kInclusive;
    pc.write = WritePolicy::kWriteBack;
    pc.seed = PolicySeed(cc.seed);
    const std::vector<uint8_t> alive(cc.num_spine, 1);
    std::vector<double> probe_ns, commit_ns, write_ns;
    CachePolicyRuntime::Counters counters;
    std::vector<uint32_t> wb;
    for (int p = 0; p < kPasses; ++p) {
      ScopedSpan s(tracer, "core.policy");
      CachePolicyRuntime runtime(pc, model.allocation.get(), &model.placement,
                                 &alive);
      uint64_t probe_ticks = 0, commit_ticks = 0, write_ticks = 0;
      uint64_t reads = 0, writes = 0;
      for (size_t i = 0; i < kReplayRequests; ++i) {
        const uint64_t key = keys[i];
        wb.clear();
        if (policy_writes[i]) {
          const uint64_t t0 = CallTimer::Now();
          runtime.WriteBack(key, wb);
          write_ticks += CallTimer::Now() - t0;
          ++writes;
          continue;
        }
        const uint64_t t0 = CallTimer::Now();
        const CachePolicyRuntime::ReadProbe probe = runtime.Probe(key);
        const uint64_t t1 = CallTimer::Now();
        if (probe.hit) {
          runtime.CommitHit(key, probe.node, wb);
        } else {
          runtime.CommitMiss(key, wb);
        }
        const uint64_t t2 = CallTimer::Now();
        probe_ticks += t1 - t0;
        commit_ticks += t2 - t1;
        ++reads;
      }
      probe_ns.push_back(timer.NsPerCall(probe_ticks, reads));
      commit_ns.push_back(timer.NsPerCall(commit_ticks, reads));
      write_ns.push_back(timer.NsPerCall(write_ticks, writes));
      counters = runtime.counters();
    }
    put("core.policy_probe_ns", Median(probe_ns));
    put("core.policy_commit_ns", Median(commit_ns));
    put("core.policy_write_ns", Median(write_ns));
    put("core.policy_admissions", static_cast<double>(counters.admissions));
    put("core.policy_evictions", static_cast<double>(counters.evictions));
    put("core.policy_writebacks", static_cast<double>(counters.writebacks));
    put("core.policy_evictions_per_admission",
        counters.admissions == 0
            ? 0.0
            : static_cast<double>(counters.evictions) /
                  static_cast<double>(counters.admissions));
  }

  // ---- observer sketch and §6.4 re-allocation -----------------------------
  std::vector<std::pair<uint64_t, uint32_t>> reports;
  {
    for (int p = 0; p < kPasses; ++p) {
      HeavyHitterDetector detector(EngineObserverConfig(model.pool));
      {
        ScopedSpan s(tracer, "sketch.hh_record");
        for (const uint64_t key : keys) {
          detector.Record(key);
        }
      }
      if (p + 1 == kPasses) {
        reports = detector.TopReports();
      }
    }
    put("sketch.hh_record_ns", median_ns("sketch.hh_record", per_req));
    put("sketch.reports", static_cast<double>(reports.size()));
  }
  double realloc_s = 0.0;
  {
    std::vector<uint64_t> hottest;
    hottest.reserve(reports.size());
    for (const auto& [key, count] : reports) {
      hottest.push_back(key);
    }
    // The plan index right after the first kReallocateCache step: the suffix
    // the engines rebuild.
    size_t from = plan.size();
    for (size_t i = 0; i < plan.size(); ++i) {
      if (!plan[i].is_phase &&
          plan[i].event.kind == ClusterEvent::Kind::kReallocateCache) {
        from = i + 1;
        break;
      }
    }
    const std::vector<uint8_t> alive(cc.num_spine, 1);
    for (int p = 0; p < kPasses; ++p) {
      ScopedSpan s(tracer, "core.realloc");
      model.SyncControllerRemap(alive);
      model.ReallocateCache(hottest);
      const RouteTable refilled = BuildRouteTable(model, observed_shift);
      const auto suffix =
          RebuildPlanSuffixRoutes(plan, from, model, alive, observed_shift);
      KeepAlive(refilled.entries.data());
      KeepAlive(suffix.data());
    }
    realloc_s = median_ns("core.realloc", 1e9);
    put("core.realloc_s", realloc_s);
    std::unordered_set<uint64_t> cached;
    for (size_t l = 0; l < model.allocation->num_layers(); ++l) {
      for (const std::vector<uint64_t>& node : model.allocation->layer_contents(l)) {
        cached.insert(node.begin(), node.end());
      }
    }
    size_t used = 0;
    for (const uint64_t key : hottest) {
      used += cached.count(key);
    }
    put("sketch.reports_used",
        hottest.empty() ? 0.0
                        : static_cast<double>(used) / static_cast<double>(hottest.size()));
  }

  // ---- latency histogram ----------------------------------------------------
  {
    Rng rng(HashCombine(cc.seed, 0x1a7e9c7ULL));
    std::vector<double> values(kReplayRequests);
    for (double& v : values) {
      v = 0.4 + rng.NextExponential(1.0);
    }
    for (int p = 0; p < kPasses; ++p) {
      LatencyHistogram h;
      {
        ScopedSpan s(tracer, "common.latency_add");
        for (const double v : values) {
          h.Add(v);
        }
      }
      if (h.total() != kReplayRequests) {
        problems->push_back("latency replay lost samples");
      }
    }
    put("common.latency_add_ns", median_ns("common.latency_add", per_req));
  }

  // ---- transport: in-process and shared-memory rings, stats codec, merge --
  double spsc_ns = 0.0, shm_ns = 0.0;
  {
    SpscRing<ShardMsg> ring(1024);
    ShardMsg msg;
    msg.kind = ShardMsg::Kind::kLoadDeltas;
    for (size_t l = 0; l < model.num_layers(); ++l) {
      for (uint32_t i = 0; i < model.layers[l].nodes; ++i) {
        msg.cache_entries.emplace_back(CacheNodeId{static_cast<uint32_t>(l), i},
                                       1.0);
      }
    }
    for (int p = 0; p < kPasses; ++p) {
      ScopedSpan s(tracer, "runtime.spsc_ring");
      for (size_t i = 0; i < kRingIterations; ++i) {
        if (!ring.TryPush(std::move(msg))) {
          problems->push_back("spsc ring replay found the ring full");
          break;
        }
        std::optional<ShardMsg> got = ring.TryPop();
        msg = std::move(*got);
      }
    }
    spsc_ns = median_ns("runtime.spsc_ring", kRingIterations);
    put("runtime.spsc_push_pop_ns", spsc_ns);
  }
  {
    constexpr size_t kCap = 1024;
    constexpr size_t kSlot = 64;
    const size_t bytes = ShmSpscRing::BytesFor(kCap, kSlot);
    std::unique_ptr<uint8_t[]> storage(new uint8_t[bytes + kCacheLineSize]);
    void* base = storage.get() + (kCacheLineSize - reinterpret_cast<uintptr_t>(
                                                       storage.get()) % kCacheLineSize);
    new (base) ShmSpscRing::SharedHeader{};
    ShmSpscRing ring(base, kCap, kSlot);
    uint8_t payload[kSlot] = {1};
    uint8_t out[kSlot] = {0};
    uint64_t acc = 0;
    for (int p = 0; p < kPasses; ++p) {
      ScopedSpan s(tracer, "runtime.shm_ring");
      for (size_t i = 0; i < kRingIterations; ++i) {
        void* slot = ring.TryStage();
        std::memcpy(slot, payload, kSlot);
        ring.Publish();
        const void* front = ring.Front();
        std::memcpy(out, front, kSlot);
        ring.Pop();
        acc += out[0];
        payload[1] = static_cast<uint8_t>(i);
      }
    }
    if (acc != uint64_t{kPasses} * kRingIterations) {
      problems->push_back("shm ring replay delivered wrong payloads");
    }
    shm_ns = median_ns("runtime.shm_ring", kRingIterations);
    put("runtime.shm_ring_ns", shm_ns);
  }
  double codec_us = 0.0, merge_us = 0.0;
  {
    const BackendStats& last = untraced.last;
    size_t nodes = 0;
    for (const std::vector<double>& layer : last.cache_load) {
      nodes += layer.size();
    }
    const size_t cap =
        StatsCodecBound(last.cache_load.size(), nodes, last.server_load.size(),
                        last.series.size(), last.fault_events.size());
    std::vector<uint8_t> buf(cap);
    BackendStats decoded;
    {
      ScopedSpan s(tracer, "sim.stats_codec");
      for (int i = 0; i < kCodecIterations; ++i) {
        const size_t n = SerializeBackendStats(last, buf.data(), cap);
        if (n == 0 || !DeserializeBackendStats(buf.data(), n, &decoded)) {
          problems->push_back("stats codec failed to round-trip");
          break;
        }
      }
    }
    codec_us = median_ns("sim.stats_codec", 1e3 * kCodecIterations);
    if (DeterministicStatsDigest(decoded) != DeterministicStatsDigest(last)) {
      problems->push_back("stats codec changed the stats digest");
    }
    put("sim.stats_codec_us", codec_us);
    {
      ScopedSpan s(tracer, "sim.stats_merge");
      for (int i = 0; i < kCodecIterations; ++i) {
        BackendStats total;
        total.Merge(last);
        total.Merge(last);
        if (total.requests != 2 * last.requests) {
          problems->push_back("stats merge lost requests");
          break;
        }
      }
    }
    merge_us = median_ns("sim.stats_merge", 2e3 * kCodecIterations);
    put("sim.stats_merge_us", merge_us);
    put("runtime.ring_messages", static_cast<double>(last.ring_messages));
    put("runtime.cross_shard_messages",
        static_cast<double>(last.cross_shard_messages));
    const uint64_t polls = last.uncontended_receives + last.contended_receives;
    put("runtime.uncontended_poll_ratio",
        polls == 0 ? 0.0
                   : static_cast<double>(last.uncontended_receives) /
                         static_cast<double>(polls));
    put("mem.route_table_bytes", static_cast<double>(last.route_table_bytes));
    put("mem.sampler_bytes", static_cast<double>(last.sampler_bytes));
    put("mem.arena_bytes", static_cast<double>(last.arena_bytes));
  }

  // ---- attribution ---------------------------------------------------------
  const double path_requests = per_req * kPasses;
  put("common.sample_ns", tracer.SelfNs("common.sample") / path_requests);
  const double traced_ns = tracer.TotalNs("replay.path") / path_requests;
  const double shards = static_cast<double>(w.config.shards);
  const double requests = static_cast<double>(untraced.last.requests);
  // Host ns one shard spends per request in the untraced run.
  const double untraced_ns =
      untraced.throughput_mreq_s > 0.0 ? shards * 1e3 / untraced.throughput_mreq_s
                                       : 0.0;
  const bool multiproc = w.kind == BackendKind::kMultiproc;
  const auto reallocations = std::count_if(
      w.config.events.begin(), w.config.events.end(), [](const ClusterEvent& e) {
        return e.kind == ClusterEvent::Kind::kReallocateCache;
      });
  const double ring_ns = multiproc ? shm_ns : spsc_ns;
  const double run_level_ns =
      static_cast<double>(untraced.last.ring_messages) * ring_ns +
      static_cast<double>(reallocations) * realloc_s * 1e9 +
      shards * ((multiproc ? codec_us : 0.0) + merge_us) * 1e3;
  put("trace.unattributed_ns",
      untraced_ns - traced_ns - (requests > 0.0 ? run_level_ns / requests : 0.0));
  put("trace.overhead_ratio", traced_ns > 0.0 ? untraced_ns / traced_ns : 0.0);

  if (!tracer.Write(trace_path)) {
    problems->push_back("cannot write the trace to " + trace_path);
  }
  return m;
}

}  // namespace perfbench
