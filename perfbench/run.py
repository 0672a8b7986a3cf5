#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload heat2d_ckpt --seed 1 --seconds 10 --trace 0

Builds the benchmark (perfbench/CMakeLists.txt) into .bench_build/perfbench
on first use, runs one workload, validates every JSON file the run wrote
with pochoir_json_check, prints each metric by name and unit together with
a stability report, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  perfbench/README.md defines every workload and metric.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
REQUIRED_SOURCES = [
    "BENCHMARK.json",
    "perfbench/CMakeLists.txt",
    "src/core/stencil.hpp",
    "src/runtime/scheduler.cpp",
    "bench/bench_common.hpp",
    "tools/json_check_main.cpp",
]
RUN_TIMEOUT_S = 170
# heat2d_dram at 4 threads overflows the default 8 MiB stack: TaskGroup::wait
# runs other tasks while it waits, and those nest.  Thread stacks default to
# this limit too.
STACK_BYTES = 1 << 30
# Environment switches of the library that would change what is measured.
SCRUBBED_ENV = ["POCHOIR_TRACE", "POCHOIR_TELEMETRY", "POCHOIR_TELEMETRY_JSON",
                "POCHOIR_NUM_THREADS", "POCHOIR_TRACE_ZOID_DEPTH"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True,
                   stdout=sys.stderr)


def raise_stack_limit():
    soft, hard = resource.getrlimit(resource.RLIMIT_STACK)
    want = STACK_BYTES if hard == resource.RLIM_INFINITY else min(STACK_BYTES, hard)
    if soft != resource.RLIM_INFINITY and soft < want:
        resource.setrlimit(resource.RLIMIT_STACK, (want, hard))


def spread(values):
    """Distance between the quartiles as a share of the median."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(med)


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    missing = [p for p in REQUIRED_SOURCES if not os.path.isfile(p)]
    if missing:
        log("perfbench: run from the repository root; missing: " +
            ", ".join(missing))
        return 2
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("perfbench: unknown workload " + args.workload)
        return 2

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1

    out_dir = os.path.join(BUILD_DIR, "out", args.workload)
    tmp_root = os.path.join(BUILD_DIR, "tmp")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(tmp_root, exist_ok=True)
    before = set(os.listdir(tmp_root))
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out", out_dir, "--tmp-root", tmp_root]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              timeout=RUN_TIMEOUT_S,
                              preexec_fn=raise_stack_limit)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        # The binary removes its checkpoint directory itself; this catches a
        # crashed run so no checkpoint outlives it.
        for name in set(os.listdir(tmp_root)) - before:
            shutil.rmtree(os.path.join(tmp_root, name), ignore_errors=True)
    if proc.returncode != 0:
        log("perfbench: benchmark binary exited with %d" % proc.returncode)
        return 1

    emitted = ["results.json"] + (["layers.json", "trace.json"] if args.trace else [])
    emitted = [os.path.join(out_dir, name) for name in emitted]
    lint = subprocess.run([os.path.join(BUILD_DIR, "pochoir_json_check")] + emitted,
                          stdout=sys.stderr)
    json_ok = lint.returncode == 0
    with open(emitted[0]) as f:
        res = json.load(f)

    meta, work, checks = res["meta"], res["workload"], res["checks"]
    meta["git_sha"] = git_sha() if meta["git_sha"] == "unknown" else meta["git_sha"]
    print("workload %s: %dD grid %s, %d steps, supervisor %s, %d rounds" % (
        work["name"], work["dims"], work["grid"], work["steps"],
        work["supervisor"], work["rounds"]))
    llc, ws = meta["llc_bytes"], meta["working_set_bytes"]
    print("meta: seed %d, threads %d, LLC %.1f MiB, working set %.1f MiB "
          "(%.2fx LLC), %s, flags '%s', git %s" % (
              meta["seed"], meta["threads"], llc / 2**20, ws / 2**20,
              ws / llc if llc else float("nan"), meta["compiler"],
              meta["flags"], meta["git_sha"]))
    attempted, failed = checks["attempted"], checks["failed"]
    print("checks: reference %s (%s); %d of %d reps failed (failed_frac %.4f); "
          "JSON %s" % ("ok" if checks["reference_ok"] else "FAILED",
                       checks["reference_note"], failed, attempted,
                       failed / attempted if attempted else 1.0,
                       "valid" if json_ok else "INVALID"))
    for why in checks["failures"]:
        print("  failure: " + why)

    samples = res["samples"]
    print("%-22s %14s %-7s %4s %8s %6s" % (
        "end-to-end metric", "median", "unit", "n", "spread", "bound"))
    for m in spec["end_to_end"]:
        vals = samples.get(m["name"], [])
        if not vals:
            print("%-22s %14s" % (m["name"], "MISSING"))
            continue
        s = spread(vals)
        flag = "  UNSTEADY: spread above bound" if s > m["bound"] else ""
        print("%-22s %14.6g %-7s %4d %8.4f %6.3f%s" % (
            m["name"], statistics.median(vals), m["unit"], len(vals), s,
            m["bound"], flag))
    for key, value in sorted(res["info"].items()):
        print("info %s = %.6g" % (key, value))

    metrics = {}
    if args.trace:
        for m in spec["per_layer"]:
            value = res["per_layer"].get(m["name"])
            print("layer %-32s %16.6g %s" % (m["name"], value if value is not None
                                               else float("nan"), m["unit"]))
            if value is not None:
                metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        wanted = spec["per_layer"]
    else:
        for m in spec["end_to_end"]:
            vals = samples.get(m["name"])
            if vals:
                metrics[m["name"]] = {"value": statistics.median(vals),
                                      "unit": m["unit"]}
        wanted = spec["end_to_end"]
    complete = len(metrics) == len(wanted)
    if not complete:
        log("perfbench: some metrics were not measured")
    correct = json_ok and checks["reference_ok"] and failed == 0 and complete
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
