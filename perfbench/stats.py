"""Summary statistics and the verdicts of the compare mode."""

from __future__ import annotations

import json
import math
import os
import statistics

# Candidate tail percentiles, highest first.  A run reports the highest one
# with at least MIN_BEYOND ops above it, so the choice depends only on the
# op count, which is fixed by the workload and --seconds.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0, 25.0, 0.0)
MIN_BEYOND = 10
MIN_PAIRS = 10
WIN_SHARE = 0.9


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, ops beyond it) for the highest percentile of
    TAIL_LADDER with at least MIN_BEYOND ops beyond it, by nearest rank."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        k = max(1, math.ceil(pct / 100.0 * n))
        if n - k >= MIN_BEYOND or pct == 0.0:
            return pct, ordered[k - 1], n - k
    raise AssertionError("unreachable")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# -- compare mode ------------------------------------------------------------------


def load_records(directory: str) -> list[dict]:
    """Every run record (``*.json``) in a directory tree."""
    out = []
    for root, _, names in os.walk(directory):
        for name in sorted(names):
            if name.endswith(".json"):
                with open(os.path.join(root, name)) as handle:
                    out.append(json.load(handle))
    return out


def verdict(base: list[float], change: list[float], better: str,
            bound: float | None, unit: str) -> tuple[str, str]:
    """better / worse / same / unresolved for one metric on one workload.

    A gain in a timing needs at least MIN_PAIRS pairs, the change winning
    WIN_SHARE of them (ties count for neither side), and medians further
    apart than the parent's interquartile distance.  Without a gain, a
    bounded metric is worse when the change's median is worse by more than
    the bound, unresolved when either side's spread exceeds the bound
    (unless every run of the change beats every run of the parent), and
    otherwise the same.  An unbounded (per-layer) timing or ratio is worse
    under the mirror image of the gain rule.  A per-layer count is compared
    only when it repeats exactly on each side.
    """
    sign = -1.0 if better == "lower" else 1.0
    med_a, med_b = statistics.median(base), statistics.median(change)
    if bound is None and unit not in ("s", "ratio"):
        if len(set(base)) > 1 or len(set(change)) > 1:
            return "unresolved", "count does not repeat"
        if med_a == med_b:
            return "same", "identical"
        return ("better" if sign * (med_b - med_a) > 0 else "worse"), "count"
    q1a, _, q3a = quartiles(base)
    q1b, _, q3b = quartiles(change)
    pairs = list(zip(base, change))
    apart = abs(med_b - med_a) > (q3a - q1a)
    for word, direction in (("better", 1.0), ("worse", -1.0)):
        won = sum(1 for a, b in pairs if direction * sign * (b - a) > 0)
        if (direction * sign * (med_b - med_a) > 0 and apart and len(pairs) >= MIN_PAIRS
                and won >= WIN_SHARE * len(pairs)):
            if word == "better" or bound is None:
                return word, f"{won}/{len(pairs)} pairs"
    if bound is None:
        return "unresolved", "no gain or loss under the pair rule"
    scale = abs(med_a) if med_a else 1.0
    spread = max((q3a - q1a) / scale, (q3b - q1b) / (abs(med_b) or 1.0))
    worse_by = sign * (med_a - med_b) / scale
    if worse_by > bound:
        return "worse", f"median worse by {worse_by:.1%} > bound {bound:.0%}"
    if spread > bound and not all(sign * (b - a) > 0 for a in base for b in change):
        return "unresolved", f"spread {spread:.1%} > bound {bound:.0%}"
    return "same", f"within bound {bound:.0%}"


def compare(base_path: str, change_path: str, spec: dict) -> int:
    """Print per workload and metric each side's median and quartiles, the
    ratio change/parent and a verdict.  Returns 1 if any verdict is worse."""
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sides = [load_records(base_path), load_records(change_path)]
    grouped: list[dict] = []
    for records in sides:
        g: dict = {}
        for rec in sorted(records, key=lambda r: (r["seed"], r.get("started", ""))):
            g.setdefault(rec["workload"], []).append(rec)
        grouped.append(g)
    any_worse = False
    for workload in sorted(set(grouped[0]) & set(grouped[1])):
        recs_a, recs_b = grouped[0][workload], grouped[1][workload]
        failed_a, failed_b = (
            sum(r["result"]["failed"] for r in recs) / sum(r["result"]["attempted"] for r in recs)
            for recs in (recs_a, recs_b))
        print(f"== {workload}: {len(recs_a)} parent runs, {len(recs_b)} change runs; "
              f"fail_frac {failed_a:.4g} -> {failed_b:.4g}")
        print(f"{'metric':28s} {'parent q1/med/q3':>36s} {'change q1/med/q3':>36s} "
              f"{'ratio':>8s}  verdict")
        for name, m in metrics.items():
            a = [r["result"]["metrics"][name]["value"] for r in recs_a
                 if name in r["result"]["metrics"]]
            b = [r["result"]["metrics"][name]["value"] for r in recs_b
                 if name in r["result"]["metrics"]]
            if not a or not b:
                continue
            word, why = verdict(a, b, m["better"], m.get("bound"), m["unit"])
            if word == "better" and failed_b > failed_a:
                word, why = "unresolved", "a larger share of ops failed than at the parent"
            any_worse |= word == "worse"
            qa, qb = quartiles(a), quartiles(b)
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            fa = "/".join(f"{x:.4g}" for x in qa)
            fb = "/".join(f"{x:.4g}" for x in qb)
            print(f"{name:28s} {fa:>36s} {fb:>36s} {ratio:8.4f}  {word} ({why}) "
                  f"[{m['unit']}]")
    return 1 if any_worse else 0
