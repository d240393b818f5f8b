#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric, against the bounds
in BENCHMARK.json.

Usage:
    python3 perfbench/compare.py --base parent/*.txt --new change/*.txt

Each file holds the standard output of one ``perfbench/run.py`` run, of one
workload or of ``--workload all``.  Runs are grouped by workload.  The script
refuses (exit 2) to compare runs whose riskshrink backend, run length, trace
setting or size differ, or whose metrics BENCHMARK.json does not list.  Per metric it
prints both medians with their quartiles and the change, signed so that a
positive share is worse.  A metric is WORSE when the new median is worse than
the base median by more than its bound, and unresolved when the base runs
spread wider than the bound, unless every new run beats every base run.
Exit status 1 means some metric is WORSE.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# env fields that must match for two runs to be comparable
_SAME = ("backend", "seconds", "trace", "smoke")


def load(path: str) -> list:
    """(env, result) of each workload in a saved run.  A run of several
    workloads prints a ``result`` line after each ``env`` line; a run of one
    has its result on the last line only."""
    lines = Path(path).read_text().strip().splitlines()
    envs = [json.loads(ln[4:]) for ln in lines if ln.startswith("env ")]
    results = [json.loads(ln[7:]) for ln in lines if ln.startswith("result ")]
    if len(envs) == 1 and not results:
        results = [json.loads(lines[-1])]
    if not envs or len(envs) != len(results):
        raise ValueError(f"{path}: not the output of one benchmark run")
    return list(zip(envs, results))


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare benchmark runs")
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    sides = {}
    for side in ("base", "new"):
        for path in getattr(args, side):
            try:
                loaded = load(path)
            except (OSError, ValueError) as exc:
                print(f"refusing to compare: {exc}", file=sys.stderr)
                return 2
            for env, result in loaded:
                unknown = set(result["metrics"]) - set(metrics)
                if unknown:
                    print(f"refusing to compare {path}: metrics not in BENCHMARK.json: "
                          f"{', '.join(sorted(unknown))}", file=sys.stderr)
                    return 2
                sides.setdefault(env["workload"], {}).setdefault(side, []).append((env, result))
    worse = False
    for workload, runs in sorted(sides.items()):
        if set(runs) != {"base", "new"}:
            print(f"{workload}: runs on one side only, skipped")
            continue
        envs = [env for side in runs.values() for env, _ in side]
        for key in _SAME:
            if len({str(env[key]) for env in envs}) > 1:
                print(f"refusing to compare {workload}: runs differ in {key}", file=sys.stderr)
                return 2
        failed = {side: sum(r["failed"] for _, r in rs) for side, rs in runs.items()}
        print(f"{workload}: {len(runs['base'])} base runs, {len(runs['new'])} new runs, "
              f"failed ops {failed['base']} -> {failed['new']}")
        for name in runs["base"][0][1]["metrics"]:
            base_v = [r["metrics"][name]["value"] for _, r in runs["base"]]
            new_v = [r["metrics"][name]["value"] for _, r in runs["new"]]
            b, n = quartiles(base_v), quartiles(new_v)
            info = metrics[name]
            sign = -1.0 if info.get("better") == "higher" else 1.0
            change = sign * (n[1] - b[1]) / abs(b[1]) if b[1] else 0.0
            verdict = ""
            if "bound" in info:
                spread = (b[2] - b[0]) / abs(b[1]) if b[1] else 0.0
                all_better = max(sign * v for v in new_v) < min(sign * v for v in base_v)
                if change > info["bound"]:
                    verdict, worse = "WORSE", True
                elif spread > info["bound"] and not all_better:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
            print(f"  {name:<28s} base {b[1]:>12.6g} [{b[0]:.6g}, {b[2]:.6g}]  "
                  f"new {n[1]:>12.6g} [{n[0]:.6g}, {n[2]:.6g}]  "
                  f"worse by {100 * change:+7.2f}%  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
