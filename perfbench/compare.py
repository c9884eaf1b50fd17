"""Before/after comparison of two benchmark result files.

Each file holds, per workload and end-to-end metric, one value per run
(see `run.py suite`). Run i of one file is paired with run i of the other.
The verdict follows the rule the benchmark is held to:

- gain: the new side wins at least 9 of 10 pairs (ties count for neither)
  and the medians differ, in its favour, by more than the old side's
  interquartile range;
- unresolved: otherwise, when either side's interquartile range exceeds the
  metric's bound, as a share of its median;
- regression: otherwise, when the new median is worse than the old by more
  than the bound;
- no worse: otherwise.
"""
from __future__ import annotations

import statistics


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as statistics.quantiles gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def verdict(old, new, bound: float, better: str = "lower") -> tuple[str, int, int]:
    """(verdict, pairs the new side won, pairs compared)."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(old, new))
    wins = sum(1 for a, b in pairs if sign * (a - b) > 0)
    o1, o_med, o3 = quartiles(old)
    _, n_med, _ = quartiles(new)
    gap = sign * (o_med - n_med)  # > 0 when the new side is better
    if pairs and wins >= 0.9 * len(pairs) and gap > o3 - o1:
        return "gain", wins, len(pairs)
    if max(spread(old), spread(new)) > bound:
        return "unresolved", wins, len(pairs)
    if -gap > bound * abs(o_med):
        return "regression", wins, len(pairs)
    return "no worse", wins, len(pairs)


def check_comparable(old: dict, new: dict) -> None:
    """Raise ValueError unless both files ran the same length at the same seeds:
    runs are paired by index, so both must be the same runs."""
    for key in ("run_seconds", "seeds"):
        if old.get(key) != new.get(key):
            raise ValueError(f"{key} differs: {old.get(key)} vs {new.get(key)}; "
                             "compare only files measured alike")


def compare_rows(old: dict, new: dict, metrics: list[dict]) -> list[dict]:
    """One row per workload x end-to-end metric present in both files."""
    rows = []
    for workload in old["runs"]:
        if workload not in new["runs"]:
            continue
        for m in metrics:
            a = old["runs"][workload].get(m["name"])
            b = new["runs"][workload].get(m["name"])
            if not a or not b:
                continue
            v, wins, n = verdict(a, b, m["bound"], m["better"])
            rows.append({"workload": workload, "metric": m["name"],
                         "old": quartiles(a), "new": quartiles(b), "runs": (len(a), len(b)),
                         "wins": wins, "pairs": n, "verdict": v})
    return rows


def format_rows(rows: list[dict]) -> str:
    head = (f"{'workload':<15} {'metric':<12} {'old q1/med/q3':<27} "
            f"{'new q1/med/q3':<27} {'runs':>7} {'wins':>6}  verdict")
    lines = [head]
    for r in rows:
        old = "/".join(f"{x:.4g}" for x in r["old"])
        new = "/".join(f"{x:.4g}" for x in r["new"])
        lines.append(f"{r['workload']:<15} {r['metric']:<12} {old:<27} {new:<27} "
                     f"{r['runs'][0]:>3}/{r['runs'][1]:<3} {r['wins']:>2}/{r['pairs']:<3}  "
                     f"{r['verdict']}")
    return "\n".join(lines)
