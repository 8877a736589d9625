#!/usr/bin/env python3
"""Runs one workload of the autoview benchmark and prints its metrics.

    python3 perfbench/run.py --workload serve-zipf --seed 1 --seconds 15 --trace 0

Run from the repository root. Builds perfbench/ (which compiles ../src)
into .bench_build/perfbench, runs the driver with the advisor's thread
count pinned, checks the outputs, and prints a report followed by one
JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
STATE = os.path.join(BUILD, "state.json")

# AUTOVIEW_THREADS for every workload. At 1 the advisor's work does not
# depend on timing (see README.md, "Exact repeats"); it also keeps the
# parallel advisor phases off the shared cores the clients use.
ADVISOR_THREADS = "1"
DRIVER_TIMEOUT_S = 170   # a run must end within 180 s

# Counts that must repeat exactly across runs with the same arguments and
# sources.
FINGERPRINT = ("cpu_units", "views_selected", "utility", "repeat_share")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build step failed:", " ".join(step))
            return False
    return True


def source_digest():
    """A digest of src/ and perfbench/, so recorded runs of other code are
    never compared with this one."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def source_revision(digest):
    """The git commit, or the source digest when not in a git tree."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "tree-sha256:" + digest


def load_state():
    try:
        with open(STATE) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {"fingerprints": {}, "untraced_qps": {}}


def save_state(state):
    tmp = STATE + ".tmp"
    with open(tmp, "w") as f:
        json.dump(state, f, indent=1, sort_keys=True)
    os.replace(tmp, STATE)


def repeat_check(state, key, result, threads):
    """Compares this run's exact counts with earlier runs of the same key.

    Returns (mismatch messages, spread notes). online-churn at more than
    one advisor thread only reports the spread: its view ids, and so its
    rewrites, depend on build-completion order (README.md).
    """
    fp = result["fingerprint"]
    seen = state["fingerprints"].setdefault(key, [])
    strict = not (result["workload"] == "online-churn" and threads != "1")
    mismatches, notes = [], []
    if seen and strict:
        result["attempted"] += 1
        first = seen[0]
        for name in FINGERPRINT:
            if fp[name] != first[name]:
                mismatches.append("exact-repeat: %s was %r, earlier run %r"
                                  % (name, fp[name], first[name]))
    if not strict:
        for name in FINGERPRINT:
            values = [s[name] for s in seen] + [fp[name]]
            notes.append("%s spread over %d runs: min %r max %r"
                         % (name, len(values), min(values), max(values)))
    if len(seen) < 32:
        seen.append(fp)
    return mismatches, notes


def fmt(value):
    if value is None:
        return "null"
    return "%.6g" % value


def report(result, args, revision, notes, state_key, state):
    ctx = dict(result["context"])
    ctx["commit"] = revision
    print("context: " + json.dumps(ctx, sort_keys=True))
    print("workload %s  seed %d  trace %d  attempted %d  failed %d"
          % (args.workload, args.seed, args.trace, result["attempted"],
             result["failed"]))
    for error in result["errors"]:
        print("  error: " + error)
    print("end-to-end metrics (name, value, unit, samples):")
    for name, m in result["end_to_end"].items():
        print("  %-22s %14s %-6s n=%d" % (name, fmt(m["value"]), m["unit"],
                                         m["samples"]))
    if args.trace:
        print("per-layer metrics (name, value, unit, samples):")
        for name, m in result["per_layer"].items():
            print("  %-32s %14s %-9s n=%d" % (name, fmt(m["value"]),
                                             m["unit"], m["samples"]))
        layers = result["layers"]
        print("self time by layer (count, total ms, self ms):")
        for name, t in sorted(layers.items()):
            print("  %-24s %8d %14.3f %14.3f" % (name, t["count"],
                                                 t["total_ms"], t["self_ms"]))
        request = layers.get("request")
        if request and request["count"]:
            per = lambda n: layers.get(n, {"self_ms": 0.0})["self_ms"]
            parts = {n: per(n) for n in
                     ("plan.build", "engine.rewrite", "engine.execute")}
            total = request["total_ms"]
            print("request latency: %.4f ms/req = " % (total / request["count"])
                  + " + ".join("%s %.4f" % (n, v / request["count"])
                               for n, v in parts.items())
                  + " + unexplained %.4f (%.2f%% of request time)"
                  % (request["self_ms"] / request["count"],
                     100.0 * request["self_ms"] / total))
        untraced = state["untraced_qps"].get(state_key)
        traced = result["per_layer"]["trace.serve_qps"]["value"]
        if untraced:
            print("tracing overhead: serve_qps %.6g traced vs %.6g untraced "
                  "(same workload and seed): %+.2f%%"
                  % (traced, untraced, 100.0 * (traced / untraced - 1.0)))
        else:
            print("tracing overhead: no untraced run of this workload and "
                  "seed yet")
    for note in notes:
        print("  repeat: " + note)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    if args.workload not in [w["name"] for w in benchmark["workloads"]]:
        log("perfbench: unknown workload", args.workload)
        return 2
    if not build():
        return 1

    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    out = os.path.join(BUILD, "results", stem + ".json")
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out]
    if args.trace:
        cmd += ["--trace-out", os.path.join(BUILD, "results",
                                            stem + ".spans.jsonl")]
    env = dict(os.environ, AUTOVIEW_THREADS=ADVISOR_THREADS)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: driver exceeded %d s" % DRIVER_TIMEOUT_S)
        return 1
    if done.returncode != 0:
        log("perfbench: driver exited with", done.returncode)
        return 1
    with open(out) as f:
        result = json.load(f)

    state = load_state()
    digest = source_digest()
    state_key = "%s|seed=%d|seconds=%r|threads=%s|source=%s" % (
        args.workload, args.seed, args.seconds, ADVISOR_THREADS, digest)
    mismatches, notes = repeat_check(state, state_key, result,
                                     ADVISOR_THREADS)
    if not args.trace:
        state["untraced_qps"][state_key] = \
            result["end_to_end"]["serve_qps"]["value"]
    save_state(state)
    result["errors"] += mismatches
    failed = result["failed"] + len(mismatches)
    result["failed"] = failed
    if "error_rate" in result["end_to_end"]:  # absent after a failed set-up
        result["end_to_end"]["error_rate"]["value"] = failed / max(
            1, result["attempted"])
        result["end_to_end"]["error_rate"]["samples"] = result["attempted"]

    report(result, args, source_revision(digest), notes, state_key, state)
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for spec in benchmark[kind]:
        m = result[kind].get(spec["name"])
        if m is None:
            log("perfbench: driver did not report", spec["name"])
            return 1
        metrics[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
