#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds `perfbench/harness` (a cargo
package of its own that depends on the repo's crates by path) in release
mode, offline, into `$CARGO_TARGET_DIR` (default `.bench_build`), runs one
workload and prints two JSON lines:

* the full record: a header (git rev, nproc, rustc, date, seed, why the
  workload was chosen, the layer predictions that concern it) and the
  harness's result with its detail block;
* last, the result: `correct`, `attempted`, `failed` and `metrics` —
  every end-to-end metric of BENCHMARK.json with `--trace 0`, every
  per-layer metric with `--trace 1`.

The record is also written under `<target>/perfbench/`. The exit code is
0 only when the build, the run and the result's shape are all sound.
"""

import argparse
import datetime
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "harness", "Cargo.toml")
BUILD_TIMEOUT_S = 850
# A run (after the build) must end well inside three minutes.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """SHA-256 over every source file the benchmark builds from, so a
    record identifies its code even outside a git checkout."""
    h = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".py", ".json", ".md")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def header(args, bench):
    why = next(w["why"] for w in bench["workloads"] if w["name"] == args.workload)
    with open(os.path.join(HERE, "predictions.json")) as f:
        predictions = json.load(f)
    concerning = [
        p for p in predictions["layers"]
        if any(m["workload"] == args.workload for m in p["moves"])
        or args.workload in p["no_change"]
    ]
    return {
        "git_rev": command_output(["git", "rev-parse", "HEAD"]) or "unknown (not a git checkout)",
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "rustc": command_output(["rustc", "--version"]),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": why,
        "predictions": concerning,
    }


def run_harness(cmd, deadline):
    """Runs the harness, killing it (and waiting for it) at `deadline`."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("the harness overran its time limit")
    if proc.returncode != 0:
        fail(f"the harness exited with {proc.returncode}")
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        fail("the harness printed nothing")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be ≥ 0 and --seconds ≥ 1")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload}")
    for needed in ("Cargo.toml", "crates"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: the benchmark builds the repository's crates from source")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("the build overran its time limit")
    if build.returncode != 0:
        fail("the build failed")

    out_dir = os.path.join(target, "perfbench")
    exe = os.path.join(target, "release", "perfbench-harness")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_dir]
    result = run_harness(cmd, time.monotonic() + RUN_TIMEOUT_S)

    expected = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in expected:
        got = result["metrics"].get(m["name"])
        if got is None or not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            fail(f"metric {m['name']} was not measured: {got}")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} is in {got['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = got
    if set(result["metrics"]) != set(metrics):
        fail(f"unexpected metrics {sorted(set(result['metrics']) - set(metrics))}")

    final = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }
    record = {"header": header(args, bench), "result": final, "detail": result.get("detail", {})}
    os.makedirs(out_dir, exist_ok=True)
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(record))
    print(json.dumps(final))


if __name__ == "__main__":
    main()
