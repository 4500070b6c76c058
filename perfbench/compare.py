#!/usr/bin/env python3
"""Compares two sets of benchmark runs against BENCHMARK.json's bounds.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--bench BENCHMARK.json]
    python3 perfbench/compare.py --self-test

Each directory holds the `record-*.json` files `perfbench/run.py` writes
(one per run). For every workload and end-to-end metric it takes each
side's median and the spread between its quartiles (as a share of the
median), and rejects the change when

* any run of the change is incorrect or failed an operation, or
* a metric's change median is worse than the parent median by more than
  the metric's bound.

A metric whose parent spread exceeds its bound is reported unresolved
rather than unchanged. The wall-clock figures in each record's detail
block are printed beside them, unjudged. `--self-test` feeds the
comparison synthetic records worse than each bound and checks that every
one is rejected, and records inside every bound and checks they pass.
Exit code 0 means accepted (or, with `--self-test`, that every bound can
fail).
"""

import argparse
import glob
import json
import os
import random
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Wall-clock figures each record's detail block carries; printed for the
# reader beside the bounded metrics, never judged.
INFO_KEYS = ("sessions_per_s", "session_p50_us", "sim_tags_per_s", "host_steal_s")


def load_records(directory):
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "record-*.json"))):
        with open(path) as f:
            rec = json.load(f)
        if rec["header"]["trace"] == 0:
            records.append(rec)
    return records


def spread(values):
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def compare(bench, parent, change):
    """Returns (accepted, report lines)."""
    lines = []
    accepted = True
    workloads = [w["name"] for w in bench["workloads"]]
    for w in workloads:
        p_runs = [r for r in parent if r["header"]["workload"] == w]
        c_runs = [r for r in change if r["header"]["workload"] == w]
        if not p_runs or not c_runs:
            lines.append(f"{w}: no runs on one side (parent {len(p_runs)}, change {len(c_runs)})")
            accepted = False
            continue
        bad = [r for r in c_runs if not r["result"]["correct"] or r["result"]["failed"]]
        if bad:
            lines.append(f"{w}: REJECT {len(bad)} change run(s) incorrect or with failed operations")
            accepted = False
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            pv = [r["result"]["metrics"][name]["value"] for r in p_runs]
            cv = [r["result"]["metrics"][name]["value"] for r in c_runs]
            pm, cm = statistics.median(pv), statistics.median(cv)
            worse = (cm - pm) / pm if m["better"] == "lower" else (pm - cm) / pm
            verdict = "ok"
            if worse > bound:
                verdict = "REJECT"
                accepted = False
            elif spread(pv) > bound and name != "setup_s":
                verdict = "unresolved"
            lines.append(
                f"{w:<18} {name:<16} parent {pm:.6g} (spread {spread(pv):.3f}, n={len(pv)})"
                f"  change {cm:.6g} (spread {spread(cv):.3f}, n={len(cv)})"
                f"  worse by {worse:+.3f} / bound {bound}  {verdict}"
            )
        for key in INFO_KEYS:
            pv = [r["detail"][key] for r in p_runs if isinstance(r.get("detail", {}).get(key), (int, float))]
            cv = [r["detail"][key] for r in c_runs if isinstance(r.get("detail", {}).get(key), (int, float))]
            if pv and cv:
                lines.append(
                    f"{w:<18} {key:<16} parent {statistics.median(pv):.6g} (spread {spread(pv):.3f})"
                    f"  change {statistics.median(cv):.6g} (spread {spread(cv):.3f})  (not bounded)"
                )
    return accepted, lines


def synthetic(bench, workload, seed, scale=None, correct=True):
    """A fake record: every metric near 100 with ±1 % jitter, one metric
    optionally scaled."""
    rng = random.Random(seed)
    metrics = {}
    for m in bench["end_to_end"]:
        v = 100.0 * (1 + rng.uniform(-0.01, 0.01))
        if scale and scale[0] == m["name"]:
            v *= scale[1]
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    return {
        "header": {"workload": workload, "trace": 0},
        "result": {"correct": correct, "attempted": 10, "failed": 0 if correct else 1, "metrics": metrics},
    }


def self_test(bench):
    """Every bound must be able to fail, and records inside it must pass."""
    problems = []
    workloads = [w["name"] for w in bench["workloads"]]
    parent = [synthetic(bench, w, s) for w in workloads for s in range(10)]
    accepted, _ = compare(bench, parent, [synthetic(bench, w, 100 + s) for w in workloads for s in range(10)])
    if not accepted:
        problems.append("an unchanged run set was rejected")
    for w in workloads:
        for m in bench["end_to_end"]:
            for factor, should_pass in ((1.5, False), (0.5, True)):
                delta = factor * m["bound"]
                scale = 1 + delta if m["better"] == "lower" else 1 - delta
                change = [
                    synthetic(bench, x, 200 + s, (m["name"], scale) if x == w else None)
                    for x in workloads for s in range(10)
                ]
                accepted, _ = compare(bench, parent, change)
                if accepted != should_pass:
                    problems.append(
                        f"{w}/{m['name']} worse by {delta:.3f} (bound {m['bound']}): "
                        f"{'accepted' if accepted else 'rejected'}"
                    )
        change = [synthetic(bench, x, 300 + s, correct=(x != w or s != 0)) for x in workloads for s in range(10)]
        if compare(bench, parent, change)[0]:
            problems.append(f"{w}: a run with a failed operation was accepted")
    checks = len(workloads) * (2 * len(bench["end_to_end"]) + 1) + 1
    for p in problems:
        print(f"self-test: {p}")
    print(f"self-test: {checks - len(problems)}/{checks} checks behaved")
    return not problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--bench", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    with open(args.bench) as f:
        bench = json.load(f)
    if args.self_test:
        sys.exit(0 if self_test(bench) else 1)
    if not (args.parent and args.change):
        ap.error("give PARENT_DIR and CHANGE_DIR, or --self-test")
    accepted, lines = compare(bench, load_records(args.parent), load_records(args.change))
    print("\n".join(lines))
    print("ACCEPT" if accepted else "REJECT")
    sys.exit(0 if accepted else 1)


if __name__ == "__main__":
    main()
