// perfbench — the repository benchmark's measuring binary. perfbench/run.py
// builds it and turns its result line into the benchmark's report.
//
//   perfbench --workload NAME --seed N --seconds S [--trace 0|1]
//             [--trace-file PATH]
//
// Untraced (--trace 0): builds the workload's backend through MakeSimBackend
// and Runs it repeatedly for S seconds, checking every Run's stats. Traced
// (--trace 1): the same measurement, then the per-layer replays of layers.h.
// The last line of standard output is one JSON object with the results.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "checker.h"
#include "core/cache_policy.h"
#include "layers.h"
#include "sim/stats_codec.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using distcache::BackendStats;

constexpr size_t kMinRuns = 3;
// Constructions timed for setup_s before measuring a reused backend (the last
// one is kept and measured).
constexpr int kReusedBackendSetups = 3;

// Host-speed probe: a fixed CPU-bound kernel (integer hashing and dependent
// loads from a 64 KiB table, about 25 ms on a 4-vCPU Xeon VM) timed right
// before every Run, on as many threads at once as the Run has shards, so that
// it samples as many cores as the Run will use. On a shared VM the host speed
// drifts by 20-60 % within a minute and moves every workload together, so
// throughput is also reported calibrated to the probe: each Run's Mreq/s
// scaled by the mean probe time just before it / kProbeRefS, and the median
// taken over those products, so that drift within one invocation is tracked
// too. The probe is the benchmark's own code; the program cannot change it.
constexpr double kProbeRefS = 0.025;

double ProbeKernelSeconds() {
  constexpr uint32_t kTableMask = (1u << 14) - 1;
  static std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(kTableMask + 1);
    for (uint32_t i = 0; i <= kTableMask; ++i) {
      t[i] = i * 2654435761u;
    }
    return t;
  }();
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  uint64_t acc = 0;
  const uint64_t t = NowNs();
  for (int i = 0; i < 4'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const uint64_t h = x * 0x9e3779b97f4a7c15ULL;
    acc += table[(h >> 20) & kTableMask];
    acc += table[(acc ^ h) & kTableMask];
  }
  const double seconds = static_cast<double>(NowNs() - t) / 1e9;
  asm volatile("" : : "r"(acc));
  return seconds;
}

double HostProbeSeconds(uint32_t threads) {
  std::vector<double> seconds(threads);
  std::vector<std::thread> others;
  for (uint32_t i = 1; i < threads; ++i) {
    others.emplace_back([&seconds, i] { seconds[i] = ProbeKernelSeconds(); });
  }
  seconds[0] = ProbeKernelSeconds();
  for (std::thread& t : others) {
    t.join();
  }
  double sum = 0.0;
  for (const double s : seconds) {
    sum += s;
  }
  return sum / threads;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file = "perfbench_trace.json";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      a->trace = std::strcmp(value, "1") == 0;
      if (!a->trace && std::strcmp(value, "0") != 0) {
        return false;
      }
    } else if (flag == "--trace-file") {
      a->trace_file = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0.0;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// Peak resident set of this process and of its largest reaped child (the
// multiproc shard processes). getrusage(RUSAGE_SELF) is not used for this
// process: its ru_maxrss carries over the launching process's peak across
// exec, which would report the launcher's memory instead of the engine's.
uint64_t PeakRssBytes() {
  uint64_t self = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long long kib = 0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) {
        self = kib * 1024;
        break;
      }
    }
    std::fclose(f);
  }
  if (self == 0) {
    self = distcache::CurrentPeakRssBytes();
  }
  struct rusage children {};
  const uint64_t child =
      getrusage(RUSAGE_CHILDREN, &children) == 0
          ? static_cast<uint64_t>(children.ru_maxrss) * 1024
          : 0;
  return std::max(self, child);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonObject(const Metrics& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? "," : "") + JsonString(metrics[i].first) + ":" +
           JsonNumber(metrics[i].second);
  }
  return out + "}";
}

std::string JsonList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i ? "," : "") + JsonString(items[i]);
  }
  return out + "]";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "[--trace 0|1] [--trace-file PATH]\n");
    return 2;
  }
  Workload w;
  if (!MakeWorkload(args.workload, args.seed, &w)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  // ---- untraced measurement ------------------------------------------------
  std::vector<distcache::SimBackendConfig> configs;
  for (uint32_t p = 0; p < Placements(w); ++p) {
    configs.push_back(PlacementConfig(w, p));
  }
  std::vector<double> setup_s;
  std::vector<double> mreq_s;
  std::vector<double> probe_s;
  std::vector<BackendStats> runs;
  std::vector<uint32_t> placement_of;
  std::unique_ptr<distcache::SimBackend> backend;
  const auto construct = [&](const distcache::SimBackendConfig& config) {
    backend.reset();  // never two backends alive: peak RSS is one backend's
    const uint64_t t = NowNs();
    backend = distcache::MakeSimBackend(w.kind, config);
    setup_s.push_back(static_cast<double>(NowNs() - t) / 1e9);
  };
  if (w.reuse_backend) {
    for (int i = 0; i < kReusedBackendSetups; ++i) {
      construct(configs.front());
    }
  }
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(args.seconds * 1e9);
  // At least two Runs per placement, so the digest check compares repeats.
  const size_t min_runs = std::max<size_t>(kMinRuns, 2 * configs.size());
  std::vector<double> cal_mreq_s;
  // A reused backend gets one untimed warm-up Run (its stats are still
  // checked): the first pass over a GiB-sized working set is not the steady
  // state the later Runs measure.
  bool timed = !w.reuse_backend;
  while (runs.size() < min_runs || NowNs() < deadline) {
    const uint32_t p = static_cast<uint32_t>(runs.size() % configs.size());
    if (!w.reuse_backend) {
      construct(configs[p]);
    }
    const double probe = HostProbeSeconds(w.config.shards);
    const uint64_t t = NowNs();
    runs.push_back(backend->Run(w.requests));
    const double run_s = static_cast<double>(NowNs() - t) / 1e9;
    placement_of.push_back(p);
    if (timed) {
      const double mreq = static_cast<double>(w.requests) / run_s / 1e6;
      probe_s.push_back(probe);
      mreq_s.push_back(mreq);
      cal_mreq_s.push_back(mreq * probe / kProbeRefS);
    }
    timed = true;
  }
  const uint64_t peak_rss = PeakRssBytes();
  backend.reset();

  // ---- correctness -----------------------------------------------------------
  std::vector<Expectation> expect(configs.size());
  std::vector<uint64_t> digest(configs.size());
  for (size_t p = 0; p < configs.size(); ++p) {
    expect[p].requests = w.requests;
    expect[p].read_only = configs[p].cluster.write_ratio == 0.0;
    expect[p].open_loop = configs[p].queue.enabled();
    // The fluid LRU closed form (Che's approximation, one cache per node) is no
    // reference: the request engines keep one policy replica per shard stream.
    if (!distcache::PolicyIsDynamic(configs[p].cluster.cache_policy)) {
      expect[p].fluid_hit_ratio = FluidHitRatio(configs[p], w.requests);
    }
    digest[p] = distcache::DeterministicStatsDigest(runs[p]);
  }
  std::vector<std::string> violations;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool digests_agree = true;
  for (size_t i = 0; i < runs.size(); ++i) {
    const uint32_t p = placement_of[i];
    attempted += w.requests;
    std::vector<std::string> bad = CheckRun(runs[i], expect[p]);
    if (!bad.empty()) {
      failed += w.requests;
      for (const std::string& b : bad) {
        violations.push_back("run " + std::to_string(i) + ": " + b);
      }
    }
    digests_agree = digests_agree &&
                    distcache::DeterministicStatsDigest(runs[i]) == digest[p];
  }
  if (!digests_agree) {
    // Same seed, same inputs: every Run must reproduce the same counters.
    violations.push_back("runs of one placement disagree on the stats digest");
    failed = attempted;
  }
  if (CheckRun(runs.front(), expect.front()).empty()) {
    for (const std::string& p : CheckerSelfTest(runs.front(), expect.front())) {
      violations.push_back("checker self-test: " + p);
      failed = attempted;
    }
  }

  // ---- end-to-end metrics ------------------------------------------------------
  // Simulated figures: the median over each placement's Runs, then over the
  // placements.
  const auto by_placement = [&](double (*f)(const BackendStats&)) {
    std::vector<double> medians;
    for (uint32_t p = 0; p < configs.size(); ++p) {
      std::vector<double> values;
      for (size_t i = 0; i < runs.size(); ++i) {
        if (placement_of[i] == p) {
          values.push_back(f(runs[i]));
        }
      }
      medians.push_back(Quantile(values, 0.5));
    }
    return Quantile(medians, 0.5);
  };
  Metrics e2e{
      {"throughput_mreq_s", Quantile(mreq_s, 0.5)},
      {"throughput_q1", Quantile(mreq_s, 0.25)},
      {"throughput_q3", Quantile(mreq_s, 0.75)},
      {"host_probe_ms", Quantile(probe_s, 0.5) * 1e3},
      {"throughput_cal_mreq_s", Quantile(cal_mreq_s, 0.5)},
      {"setup_s", Quantile(setup_s, 0.5)},
      {"peak_rss_mib", static_cast<double>(peak_rss) / (1024.0 * 1024.0)},
      {"hit_ratio",
       by_placement([](const BackendStats& s) { return s.hit_ratio(); })},
      {"cache_imbalance",
       by_placement([](const BackendStats& s) { return s.CacheImbalance(); })},
      {"server_imbalance",
       by_placement([](const BackendStats& s) { return s.ServerImbalance(); })},
      {"failed_fraction",
       static_cast<double>(failed) / static_cast<double>(attempted)},
  };
  if (runs.front().latency.total() > 0) {
    e2e.emplace_back("sim_latency_p50", by_placement([](const BackendStats& s) {
                       return s.latency.Percentile(50.0);
                     }));
    e2e.emplace_back("sim_latency_p99", by_placement([](const BackendStats& s) {
                       return s.latency.Percentile(99.0);
                     }));
  }

  // ---- traced run ----------------------------------------------------------------
  Metrics layers;
  if (args.trace) {
    UntracedRun untraced{Quantile(mreq_s, 0.5), runs.back()};
    std::vector<std::string> problems;
    layers = MeasureLayers(w, untraced, args.trace_file, &problems);
    for (const std::string& p : problems) {
      violations.push_back("traced run: " + p);
    }
    if (!problems.empty()) {
      failed = attempted;
    }
  }

  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"runs\":%zu,\"placements\":%zu,"
      "\"requests_per_run\":%llu,"
      "\"shards\":%u,\"engine\":%s,\"correct\":%s,\"attempted\":%llu,"
      "\"failed\":%llu,\"end_to_end\":%s,\"per_layer\":%s,\"violations\":%s,"
      "\"build\":{\"compiler\":%s,\"compiler_version\":%s,\"cxx_flags\":%s,"
      "\"build_type\":%s}}\n",
      JsonString(w.name).c_str(), static_cast<unsigned long long>(args.seed),
      runs.size(), configs.size(), static_cast<unsigned long long>(w.requests), w.config.shards,
      JsonString(w.kind == distcache::BackendKind::kMultiproc ? "multiproc" : "sharded").c_str(), failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), JsonObject(e2e).c_str(),
      JsonObject(layers).c_str(), JsonList(violations).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(), JsonString(__VERSION__).c_str(),
      JsonString(PERFBENCH_CXX_FLAGS).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
