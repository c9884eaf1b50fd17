"""In-memory spans around the calls into each layer of spatial_firewalls.

The benchmark does not edit the package. `instrument` rebinds the names a
module looks up at run time (for example `percolation.sample_ppp`, or
`network.cKDTree` to a timing subclass), so every call from one layer into
another opens a span. Spans stay in memory; `Tracer.dump` returns them for
the harness to write once the command has ended.

A name that a later version of the package no longer has is skipped: its
span then reports zero calls instead of failing the run.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict

now = time.monotonic  # CLOCK_MONOTONIC: comparable across processes


class Tracer:
    """Spans as [name, start, end, parent index] plus named counters."""

    def __init__(self, clock=now):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.trials: list[float] = []  # seconds per Monte Carlo trial
        self.probes = 0
        self.redundant_probes = 0
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> float:
        span = self.spans[idx]
        span[2] = self.clock()
        self._stack.pop()
        return span[2] - span[1]

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] += n

    def wrap(self, fn, name: str, after=None):
        """`fn` with a span around each call; `after(tracer, args, result,
        seconds)` runs once the span has closed, outside its timing."""
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = tracer.end(idx)
            if after is not None:
                after(tracer, args, result, seconds)
            return result

        return functools.wraps(fn)(traced)

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters),
                "trials": self.trials, "probes": self.probes,
                "redundant_probes": self.redundant_probes}


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, total seconds and self seconds.

    A span's self time is its duration minus the part of its interval that
    its child spans cover.
    """
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, dict] = {}
    for idx, (name, start, end, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        covered = _union_length((max(a, start), min(b, end))
                                for a, b in children.get(idx, ()) if b > start and a < end)
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - covered
    return out


def uncovered_share(spans, t0: float, t1: float, root: str = "cli.main") -> float:
    """Share of [t0, t1] outside every layer span (the `root` span, which
    wraps the whole command, does not count)."""
    if t1 <= t0:
        return 0.0
    clipped = [(max(s, t0), min(e, t1)) for name, s, e, _ in spans
               if name != root and e > t0 and s < t1]
    return 1.0 - _union_length(clipped) / (t1 - t0)


# ---------------------------------------------------------------- instrument

def _patch(tracer, owner, attr, name, after=None) -> None:
    fn = getattr(owner, attr, None)
    if fn is None:
        return
    setattr(owner, attr, tracer.wrap(fn, name, after))


def _timed_kdtree(tracer, base, prefix: str):
    """A cKDTree subclass whose build and queries open `<prefix>.*` spans."""

    def pairs(t, args, result, seconds):
        t.count(f"{prefix}.pairs", len(result))

    def ball_hits(t, args, result, seconds):
        t.count(f"{prefix}.ball_hits", sum(len(b) for b in result))

    class TimedKDTree(base):
        __init__ = tracer.wrap(base.__init__, f"{prefix}.kdtree_build")
        query_pairs = tracer.wrap(base.query_pairs, f"{prefix}.query_pairs", pairs)
        query_ball_point = tracer.wrap(base.query_ball_point, f"{prefix}.ball_query",
                                       ball_hits)
        query = tracer.wrap(base.query, f"{prefix}.knn_query")

    return TimedKDTree


def instrument(tracer: Tracer) -> None:
    """Open a span at each call from one package module into another."""
    from spatial_firewalls import cli, network, percolation

    def points(t, args, result, seconds):
        t.count("spatial.points", result.n)

    def label_edges(t, args, result, seconds):
        t.count("network.label_edges", len(args[1]))

    def coupling(t, args, result, seconds):
        if hasattr(result, "edges_scanned"):
            t.count("lattice.edges_scanned", result.edges_scanned)
            t.count("lattice.open_edges", result.open_edges)

    # spatial: sampling and seed derivation, called from percolation/network/cli
    for mod in (percolation, network):
        _patch(tracer, mod, "sample_ppp", "spatial.sample_ppp", points)
        _patch(tracer, mod, "split_seed", "spatial.split_seed")
    for mod in (percolation, cli):
        _patch(tracer, mod, "trial_seed", "spatial.split_seed")

    # network: graph building and classification, called from percolation/cli
    for mod in (network, percolation):
        base = getattr(mod, "cKDTree", None)
        if base is not None:
            setattr(mod, "cKDTree", _timed_kdtree(tracer, base, mod.__name__.rsplit(".", 1)[1]))
    _patch(tracer, percolation, "_canonical_labels", "network.canonical_labels", label_edges)
    _patch(tracer, percolation, "_radius_pairs", "network.radius_pairs")
    _patch(tracer, percolation, "classify_devices", "network.classify_devices")
    _patch(tracer, cli, "build_isg", "network.build_isg")

    # percolation: per-trial state, probes, and the cli entry points
    _instrument_trials(tracer, getattr(percolation, "_TrialState", None))
    for attr in ("sweep_lambda_f", "estimate_percolation_probability",
                 "find_critical_firewall_intensity", "estimate_protected_fraction",
                 "write_sweep_csv", "write_critical_csv"):
        _patch(tracer, cli, attr, f"percolation.{attr}")

    # lattice validators and bounds closed forms, called from cli
    _patch(tracer, cli, "verify_open_edge_coupling",
           "lattice.verify_open_edge_coupling", coupling)
    for attr in ("closed_face_mc_frequency", "blocking_counterexample_search",
                 "count_dependent_edges_bruteforce", "independence_offsets",
                 "write_validator_csv"):
        _patch(tracer, cli, attr, f"lattice.{attr}")
    for attr in ("critical_intensity_upper_bound", "subcritical_sufficient_intensity",
                 "closed_face_probability", "protected_fraction", "evaluate_all"):
        _patch(tracer, cli, attr, f"bounds.{attr}")


def _instrument_trials(tracer: Tracer, trial_cls) -> None:
    """Per-trial time (state build plus its probes) and redundant probes.

    A probe is redundant when an earlier probe of the same trial already
    implied its answer: spanning is non-increasing in the thinning fraction,
    so spanning at p' >= p implies spanning at p, and not spanning at
    p' <= p implies not spanning at p.
    """
    if trial_cls is None:
        return
    live: dict[int, list] = {}  # id(state) -> [trial index, max spanning p, min failing p]

    def built(t, args, result, seconds):
        t.trials.append(seconds)
        live[id(args[0])] = [len(t.trials) - 1, float("-inf"), float("inf")]

    def probed(t, args, result, seconds):
        state = live.get(id(args[0]))
        if state is None:
            return
        p = float(args[1])
        t.trials[state[0]] += seconds
        t.probes += 1
        if p <= state[1] or p >= state[2]:
            t.redundant_probes += 1
        if result:
            state[1] = max(state[1], p)
        else:
            state[2] = min(state[2], p)

    _patch(tracer, trial_cls, "__init__", "percolation.trial_state", built)
    _patch(tracer, trial_cls, "spans_at", "percolation.spans_at", probed)
