"""Measure the benchmark's spread and record a baseline.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Run from the root of a checkout. For each of SETS sets it runs every
workload once per seed (seeds 1..SEEDS, workloads interleaved) with
--trace 0, then reports
per end-to-end metric the median and the quartile spread (q3 - q1) / median
that the acceptance rule compares with a third of the metric's bound. It then
makes one traced run per workload for the per-layer table, and compares
`afs_pinned` with OPENBLAS_NUM_THREADS=1 in the children's environment
against the default thread count, in PAIRS back-to-back pairs because the
host's speed drifts over minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = 10
SETS = 2  # two sets, as the acceptance rule compares their medians
PAIRS = 3


def bench(workload: str, seed: int, seconds: int, trace: int, env=None) -> tuple[dict, dict]:
    """One run.py invocation: (result line, machine facts)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, env=dict(os.environ, **(env or {})), check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                         f"{proc.stdout}\n{proc.stderr}")
    facts = next(json.loads(l[6:]) for l in lines if l.startswith("facts "))
    return json.loads(lines[-1]), facts


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def blas_comparison(seconds: int) -> dict:
    """run_s of afs_pinned with the default BLAS threads and with one, paired."""
    runs = {"default": [], "one_thread": []}
    for seed in range(1, PAIRS + 1):
        for label, env in (("default", None), ("one_thread", {"OPENBLAS_NUM_THREADS": "1"})):
            result, _ = bench("afs_pinned", seed, seconds, 0, env=env)
            runs[label].append(result["metrics"]["run_s"]["value"])
    return {"workload": "afs_pinned", "seeds": list(range(1, PAIRS + 1)), "run_s": runs,
            "median_ratio": statistics.median(runs["one_thread"]) / statistics.median(runs["default"])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    facts = None
    sets = []
    for _ in range(SETS):
        values = {w: {m: [] for m in bounds} for w in names}
        attempted = {w: [0, 0] for w in names}
        for seed in range(1, SEEDS + 1):
            for w in names:
                result, facts = bench(w, seed, seconds, 0)
                attempted[w][0] += result["attempted"]
                attempted[w][1] += result["failed"]
                for m in bounds:
                    values[w][m].append(result["metrics"][m]["value"])
                print(w, seed, {m: round(v[-1], 4) for m, v in values[w].items()}, flush=True)
        sets.append({
            w: {
                "attempted": attempted[w][0],
                "failed": attempted[w][1],
                "values": values[w],
                "summary": {
                    m: dict(spread(v), bound=bounds[m], steady=spread(v)["spread"] < bounds[m] / 3)
                    for m, v in values[w].items()
                },
            }
            for w in names
        })

    traced = {w: bench(w, 1, seconds, 1)[0]["metrics"] for w in names}
    report = {
        "facts": facts,
        "run_seconds": seconds,
        "seeds": list(range(1, SEEDS + 1)),
        "sets": sets,
        "traced_seed_1": {w: {k: v["value"] for k, v in m.items()} for w, m in traced.items()},
        "openblas_num_threads_1": blas_comparison(seconds),
    }
    report["median_drift"] = {
        w: {m: sets[-1][w]["summary"][m]["median"] / sets[0][w]["summary"][m]["median"] - 1
            for m in bounds}
        for w in names
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for i, s in enumerate(sets):
        for w in names:
            print(f"set {i} {w}: {s[w]['failed']} failed of {s[w]['attempted']} repetitions; "
                  + "  ".join(f"{m} {s[w]['summary'][m]['median']:.4g} {units[m]} "
                              f"(spread {s[w]['summary'][m]['spread']:.3f})" for m in bounds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
