#!/usr/bin/env python3
"""The repository's benchmark: builds racbench from source, runs one workload
and prints its metrics, ending with one JSON result line.

    python3 racbench/run.py --workload des_fig3_100 --seed 42 --seconds 20 --trace 0
    python3 racbench/run.py --all [--trace 1] [--smoke]

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with
tracing off; --trace 1 reports its per-layer metrics from a separate traced
run. --smoke runs the seconds-long variant of each workload (same code paths
and checks, shorter horizons). The seed defaults to the workload's default
seed in racbench/workloads.json. Every input is generated from the seed.

The last stdout line is {"correct", "attempted", "failed", "metrics"}. The
exit code is 0 only when every correctness check passed. The full record
(host and build fingerprint, checks, span self times and the spans) goes to
.bench_out/ in the checkout.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import attribution  # noqa: E402

RUN_TIMEOUT_S = 175


def die(msg):
    print("racbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    # Honour a build directory named by the environment, but only inside
    # the checkout: the benchmark reads and writes nothing outside it.
    named = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = os.path.realpath(os.path.join(ROOT, named))
    if not path.startswith(os.path.realpath(ROOT) + os.sep):
        path = os.path.join(ROOT, ".bench_build")
    return path


def build():
    """Configure once, then build incrementally. Returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no RAC sources next to racbench/ (expected src/CMakeLists.txt "
            "in the checkout root); nothing to build")
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or (os.path.realpath(home[0].split("=", 1)[1].strip())
                        != os.path.realpath(HERE)):
            shutil.rmtree(out)  # configured for another checkout
    if not os.path.isfile(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "--target", "racbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(out, "racbench")


def host_fingerprint(build_info):
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, val = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = val.strip()
                elif key == "flags" and not flags:
                    flags = set(val.split())
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cpu_flags": {f: f in flags for f in ("sha_ni", "avx2", "avx512f")},
        "compiler": build_info["compiler"],
        "build_type": build_info["build_type"],
        "cxx_flags": build_info["cxx_flags"].strip(),
        "rac_telemetry": build_info["rac_telemetry"],
        "python": platform.python_version(),
    }


def load_json(name):
    with open(os.path.join(ROOT, name)) as f:
        return json.load(f)


def run_one(binary, workload, seed, seconds, trace, smoke):
    """Runs one workload; returns (result line dict, ok)."""
    spec = load_json("BENCHMARK.json")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = "%s-seed%d-trace%d%s" % (workload, seed, trace,
                                    "-smoke" if smoke else "")
    raw_path = os.path.join(out_dir, stem + ".raw.json")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--out", raw_path]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        die("%s exited with code %d" % (workload, proc.returncode))
    with open(raw_path) as f:
        raw = json.load(f)
    os.remove(raw_path)

    if trace:
        declared = spec["per_layer"]
        values = dict(raw["per_layer"])
        values.update(attribution.layer_metrics(raw["attribution"]))
        for m in attribution.EST_SHARE_METRICS:
            if not any(t["metric"] == m for t in raw["attribution"]["terms"]):
                raw["unavailable"].setdefault(
                    m, "no operation of this layer runs in this workload")
    else:
        declared = spec["end_to_end"]
        values = raw["end_to_end"]
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            die("%s did not produce metric %s" % (workload, m["name"]))
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    correct = bool(raw["correct"])
    attempted = max(1, int(raw["attempted"]))
    failed = int(raw["failed"]) if correct else attempted
    fingerprint = host_fingerprint(raw["build"])

    print("# workload %s seed %d trace %d%s" % (workload, seed, trace,
                                               " smoke" if smoke else ""))
    print("# host " + json.dumps(fingerprint, sort_keys=True))
    for c in raw["checks"]:
        print("# check %-28s %s  %s" % (c["name"], "ok" if c["ok"] else "FAILED",
                                        c["detail"]))
    for name, m in metrics.items():
        print("%-36s %16.6g %s" % (name, m["value"], m["unit"]))
    for name, why in sorted(raw["unavailable"].items()):
        if name in metrics:
            print("# unavailable %s: %s" % (name, why))

    # Spans of one run share its id.
    run_id = "%s-%d-%d-%d-%d" % (workload, seed, trace, os.getpid(),
                                 time.time_ns())
    for s in raw["spans"]:
        s["run"] = run_id
    record = {
        "run_id": run_id,
        "workload": workload, "seed": seed, "trace": trace, "smoke": smoke,
        "host": fingerprint, "correct": correct, "attempted": attempted,
        "failed": failed, "unsettled": raw["unsettled"],
        "checks": raw["checks"], "metrics": metrics,
        "unavailable": raw["unavailable"], "raw": raw["raw"],
        "attribution_terms": raw["attribution"]["terms"],
        "span_self_s": attribution.self_time_by_name(raw["spans"]),
        "spans": raw["spans"],
    }
    with open(os.path.join(out_dir, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    return line, correct


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true",
                    help="run every workload at its default seed")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        die("BENCHMARK.json not found at the checkout root")
    workloads = load_json(os.path.join("racbench", "workloads.json"))["workloads"]
    if args.all == bool(args.workload):
        die("give exactly one of --workload <name> and --all")
    names = list(workloads) if args.all else [args.workload]
    for name in names:
        if name not in workloads:
            die("unknown workload %r (known: %s)" % (name, ", ".join(workloads)))
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.smoke else float(
            load_json("BENCHMARK.json")["run_seconds"])
    if seconds <= 0:
        die("--seconds must be positive")

    binary = build()
    all_ok = True
    line = None
    for name in names:
        seed = args.seed if args.seed is not None else workloads[name]["default_seed"]
        line, ok = run_one(binary, name, seed, seconds, args.trace, args.smoke)
        all_ok = all_ok and ok
        if args.all:
            print(json.dumps(dict(line, workload=name), sort_keys=True))
    if not args.all:
        print(json.dumps(line, sort_keys=True))
    sys.stdout.flush()
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
