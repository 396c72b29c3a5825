#!/usr/bin/env python3
"""Compare two sets of benchmark runs: ``compare.py A.json… -- B.json…``.

Each file is what ``run.py --out FILE`` wrote.  A is the base (the
parent commit), B the candidate.  For every (workload, end-to-end
metric) pair — each workload in its own row, never pooled — prints both
medians with their quartiles, the ratio B/A *with its base*, the bound
declared in ``BENCHMARK.json`` and a verdict:

``ok``          B's median is not worse than A's by more than the bound
``regressed``   it is
``unresolved``  either side's quartile spread is wider than the bound
                and the two run sets overlap, so the runs cannot tell

A spread wider than the bound still resolves when the sets do not
overlap at all: every B run better than every A run is ``ok``, every B
run worse is ``regressed``.  Per-layer metrics found in the files are
listed with their ratio and no verdict.  Exit code 1 iff something
regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]

Key = Tuple[str, str]  # (workload, metric)


def load_runs(paths: List[str]) -> Dict[Key, List[float]]:
    values: Dict[Key, List[float]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as f:
            for result in json.load(f)["results"]:
                for metric, mv in result["metrics"].items():
                    values.setdefault((result["workload"], metric), []).append(mv["value"])
    return values


def quartiles(xs: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, _q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0  # worse = sign * (b - a) > 0
    qa, qb = quartiles(a), quartiles(b)
    if qa[1] == 0:
        return "ok" if sign * (qb[1] - qa[1]) <= 0 else "regressed"
    worsening = sign * (qb[1] - qa[1]) / abs(qa[1])
    spread = max((qa[2] - qa[0]) / abs(qa[1]), (qb[2] - qb[0]) / abs(qb[1]) if qb[1] else 0.0)
    if spread > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "ok"
        if not all(sign * (y - x) > 0 for x in a for y in b):
            return "unresolved"
    return "regressed" if worsening > bound else "ok"


def main(argv: List[str]) -> int:
    if "--" not in argv or argv[0] == "--" or argv[-1] == "--":
        sys.stderr.write(__doc__.split("\n\n")[0] + "\n")
        return 2
    cut = argv.index("--")
    a, b = load_runs(argv[:cut]), load_runs(argv[cut + 1:])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"]}
    layer_metrics = [m["name"] for m in spec["per_layer"]]
    regressed = 0
    header = (f"{'workload':14s} {'metric':34s} {'A median [q1, q3]':>38s} "
              f"{'B median [q1, q3]':>38s} {'B/A':>8s} {'bound':>6s}  verdict")
    print(header)
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in list(declared) + layer_metrics:
            xs, ys = a.get((workload, metric)), b.get((workload, metric))
            if not xs or not ys:
                continue
            qa, qb = quartiles(xs), quartiles(ys)
            ratio = f"{qb[1] / qa[1]:8.3f}" if qa[1] else "     n/a"
            row = (f"{workload:14s} {metric:34s} "
                   f"{qa[1]:14.5g} [{qa[0]:9.4g}, {qa[2]:9.4g}] "
                   f"{qb[1]:14.5g} [{qb[0]:9.4g}, {qb[2]:9.4g}] {ratio}")
            if metric in declared:
                m = declared[metric]
                v = verdict(xs, ys, m["better"], m["bound"])
                regressed += v == "regressed"
                row += f" {m['bound']:6.2f}  {v}"
            print(row)
    print(f"base of every ratio: the A median ({len(argv[:cut])} run file(s)); "
          f"B: {len(argv[cut + 1:])} run file(s)")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
