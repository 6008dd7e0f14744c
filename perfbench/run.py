#!/usr/bin/env python3
"""The repository benchmark.

Builds perfbench/ (the measuring binary, against the checkout's src/) into
.bench_build/ and runs one workload, or every workload with `--workload all`:

    python3 perfbench/run.py --workload paper_static --seed 1 --seconds 10 --trace 0

Standard output: a provenance line, one line per metric with its unit, and as
the last line one JSON object {"correct", "attempted", "failed", "metrics"}.
`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1` the
per-layer ones (and writes the span trace to .bench_build/traces/). The exit
code is 0 when every check passed, 1 when the checker rejected a run and 2 when
nothing could be measured. README.md defines the workloads and metrics.
"""
import argparse
import glob
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys

sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["paper_static", "hotspot_realloc", "lru_writeback", "memwall_openloop"]
# End-to-end figures printed next to the gated ones in BENCHMARK.json: raw
# throughput and the host-speed probe it is calibrated by, the open-loop
# latency (memwall_openloop only), and failed_fraction (reported through the
# result's "attempted" and "failed" counts).
EXTRA_END_TO_END = [
    ("throughput_mreq_s", "Mreq/s"),
    ("host_probe_ms", "ms"),
    ("sim_latency_p50", "svc_time"),
    ("sim_latency_p99", "svc_time"),
    ("failed_fraction", "ratio"),
]
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "sim_backend.h")):
        fail("no DistCache sources under " + os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            fail("cannot run %s: %s" % (cmd[0], err))
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def read_text(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_describe():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    if out.returncode != 0:
        return None, None
    desc = out.stdout.strip()
    return desc, desc.endswith("-dirty")


def provenance(args, loadavg, build_info):
    desc, dirty = git_describe()
    thp = read_text("/sys/kernel/mm/transparent_hugepage/enabled")
    thp = thp[thp.find("[") + 1:thp.find("]")] if "[" in thp else "unknown"
    hugepages = None
    for line in read_text("/proc/meminfo").splitlines():
        if line.startswith("HugePages_Total:"):
            hugepages = int(line.split()[1])
    cpu_model = None
    for line in read_text("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    return {
        "git_describe": desc or "unavailable (not a git checkout)",
        "git_dirty": dirty,
        "source_sha256": source_digest(),
        "compiler": build_info.get("compiler"),
        "compiler_version": build_info.get("compiler_version"),
        "cxx_flags": build_info.get("cxx_flags", "").strip(),
        "build_type": build_info.get("build_type"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(loadavg),
        "cpu_model": cpu_model,
        "kernel": platform.release(),
        "pinning": "off (shards run unpinned)",
        "transparent_hugepages": thp,
        "hugepages_total": hugepages,
        "huge_page_arena": "off",
        "numa_nodes": len(glob.glob("/sys/devices/system/node/node[0-9]*")),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(workload, args):
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(traces, "%s-seed%d.json" % (workload, args.seed))]
    # Its own process group, so a timeout also stops the multiproc shards.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("%s produced no result (exit code %d)" % (workload, proc.returncode))
    return result


def report(workload, result, spec, trace):
    """Prints the metric lines and returns the contract result object."""
    e2e = result["end_to_end"]
    print("%s: %d runs x %d requests, %s x%d, seed %d" % (
        workload, result["runs"], result["requests_per_run"], result["engine"],
        result["shards"], result["seed"]))
    rows = [(m["name"], m["unit"]) for m in spec["end_to_end"]] + EXTRA_END_TO_END
    for name, unit in rows:
        if name in e2e:
            extra = ""
            if name == "throughput_mreq_s":  # the raw, uncalibrated figure
                extra = "  (q1 %.4f, q3 %.4f)" % (e2e["throughput_q1"], e2e["throughput_q3"])
            print("  %-34s %.6g %s%s" % (name, e2e[name], unit, extra))
        else:
            print("  %-34s n/a (closed loop)" % name)
    for violation in result["violations"]:
        print("  REJECTED: " + violation)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = result["per_layer"] if trace else e2e
    metrics = {}
    for m in wanted:
        if m["name"] not in source:
            fail("%s did not report %s" % (workload, m["name"]))
        metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
    if trace:
        for name, value in metrics.items():
            print("  %-34s %.6g %s" % (name, value["value"], value["unit"]))
    return {"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def main():
    loadavg = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be a non-negative integer")
    build()
    spec = json.loads(read_text(os.path.join(ROOT, "BENCHMARK.json")) or "null")
    if not spec:
        fail("cannot read BENCHMARK.json")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    build_info = {}
    for workload in workloads:
        result = measure(workload, args)
        build_info = result["build"]
        results[workload] = report(workload, result, spec, args.trace)
    print("provenance: " + json.dumps(provenance(args, loadavg, build_info)))
    if args.workload == "all":
        final = {"workloads": results}
        ok = all(r["correct"] for r in results.values())
    else:
        final = results[args.workload]
        ok = final["correct"]
    print(json.dumps(final))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
