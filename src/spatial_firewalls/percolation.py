"""Spanning-cluster detection, one realization's ISG (`build_isg`),
percolation probability estimation, the search for the critical firewall
intensity, and protected fractions.

A trial percolates when one ISG component touches boundary strips of width
r_r on both axes (left-right and bottom-top). Estimates over multiple trials
use per-trial derived seeds. Every estimate samples one firewall pool per
trial and thins it with per-firewall uniform marks, so the kept set at
intensity x is an exact Poisson process of intensity x and is nested across
intensities. Nesting makes every trial's spanning indicator non-increasing
in the firewall intensity: on an ascending grid of thinning fractions the
spanning points form a prefix, whose length one bisection finds exactly.
Sweeps, point estimates and the critical search all read their counts off
that per-trial prefix length. The bisection learns from the trials its
worker has finished (`_threshold_worker`): each probe splits in half their
counts that are still possible, a trial builds its edges (described next)
once, at a warm floor where it usually spans, and a trial that fails below
every count gallops down from its failure. Any probe between the known
bounds keeps the bisection exact.

Each probe of the bisection runs on a cell graph of the trial
(`_TrialState`). Devices are binned into square cells of diagonal < r_r, so
the susceptible devices of one cell are always a clique and each cell can
stand as one node. Two cells are joined at a thinning fraction p exactly
when some linked device pair across them has both ends susceptible at p,
and a cell touches a boundary strip exactly when one of its devices in the
strip is susceptible; each of these is a threshold on one weight. A probe
compares the weights with p and labels a graph of a few thousand nodes,
with the same outcome as labelling every susceptible device pair. It labels
the live edges by min-label hooking with pointer jumping
(`network._component_roots`); spanning only asks which nodes share a root.

The edge weights are computed by the first probe from only the devices
still susceptible at the fraction it names (the floor, at most p). This is
exact: an edge weight is a min over the weights of its two devices, so a
device below the floor only gives weights that no probe at or above the
floor keeps. A trial probed once at p = 1 therefore enumerates pairs only
among the devices with no pool firewall within r_f. A probe below the floor
extends the edges down to the floor it names: the per-cell-pair weights
are kept, and only the pairs with an end in the band between the two
floors are added to them, as Newman & Ziff (Phys. Rev. Lett. 85, 4104,
2000) add bonds to a partition instead of relabelling it. A probe below a
failed one labels on from the failure's components and hooks only the
edges live between the two fractions; the failure's partition depends
only on the ISG at its fraction, so it holds across extensions.

Nesting bounds the protection scan too. A device's min_mark, the least
mark of the pool firewalls covering it, enters every weight only through
`>= p` and min/max, so a scan of the firewalls with mark below a ceiling c
answers every probe at p <= c exactly, with inf for the devices none of
them covers. Once a worker has found two counts, a trial scans to the
grid point of the largest, above which it probes only when it spans
there; such a probe first finishes the scan.

Spanning is an increasing event: links only merge clusters (Meester &
Roy, *Continuum Percolation*, ch. 2). So a subgraph of the ISG that spans
proves that the ISG spans, and a supergraph that does not span proves that
it does not; either answers a probe with no build. A probe that would make
a trial's first build, where its outcome would end the search, tries one
such certificate first:
  - at the top of the remaining interval, where a span ends it, the lower
    certificate (`_TrialState.certified`), a subgraph that links each
    device kept at p to the first kept device of each of its cell's four
    forward neighbour cells when the two lie within r_r, one link per node
    and neighbour cell (the first device in cell order is the same for all
    of a node's devices);
  - at the bottom, where a failure ends it, the upper certificate
    (`_TrialState.bounded`), a supergraph that links two nodes when the
    bounding boxes of their kept devices lie within r_r. It is tried only
    when the worker's previous trial failed at that grid point: the trial
    before is the best guess of this one's outcome, and a sweep over
    lambda_r probes each trial once, at p = 1, where both would end the
    search.
A probe whose certificate does not decide builds as before, and no probe
tries both, so each certificate costs at most one call per probe. Tried at
a probe whose outcome does not end the search, a certificate would only
defer a build that later probes need, and below a build it could only
spare a band extension, which costs less; so it is not.

One cell grid (`network.CellGrid`) serves every spatial query of a trial,
with no kd-tree. Pairs: each kept device scans the cell columns cx..cx+2,
in its own column from the next cell on, over the rows within the exact
half-width sqrt(r_r**2 - gap**2) of each column plus a rounding pad, and
folds every linked pair straight into its cell edge's weight. An edge's far
cell is occupied, so its node is that of the device at the cell's start
(`CellGrid.start`), one lookup per edge. Protection
(`CellGrid.min_within`): each pool firewall scans the device cells its r_f
disc can touch, with the same windows, and each device keeps the smallest
mark among the firewalls with dx*dx + dy*dy <= r_f*r_f. The pad, 1e-9 (r +
cell side + the largest |coordinate|), exceeds every rounding of the test
and of the binning, and the windows are binned by the devices' own
function, so no pair the test accepts lies outside them (`CellGrid.scan`).

Protected fractions need no thinning. r_f enters neither the world nor the
trial seed, so a sweep over r_f reads every fraction off one world per trial
(`_protected_worker`): the distinct r_f values are scanned in ascending
order, each over only the devices that no smaller one protected, with the
same closed-ball test, and a device protected at one r_f is protected at
every larger one.

Trials fan out over worker processes (`_run_chunked`) in chunks of
consecutive trials, min(workers, trials) of them, so every count is the
same for any worker count. On Linux the workers are forked from this
process once per command (`SharedPool`), after NumPy's random module is
loaded, so they start warm, and each takes its chunks as one pickled task
over a pipe and answers with their results over another; elsewhere the
chunks run in this process.
"""
from __future__ import annotations

import contextlib
import math
import os
import pickle
import signal
import sys
import threading
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .bounds import LC1_APPROX
from .network import (CellGrid, NetworkConfig, Realization,
                      _component_roots, sample_world)
from .spatial import trial_seed, write_csv

__all__ = [
    "PercolationEstimate",
    "SharedPool",
    "CriticalSearchResult",
    "ProtectedFractionEstimate",
    "SearchExhaustedError",
    "NoDevicesError",
    "build_isg",
    "estimate_percolation_probability",
    "sweep_lambda_f",
    "find_critical_firewall_intensity",
    "critical_grid",
    "MAX_GRID_POINTS",
    "INTERVAL_LEVEL",
    "estimate_protected_fraction",
    "sweep_protected_fraction",
    "write_sweep_csv",
    "write_critical_csv",
]

MAX_GRID_POINTS = 100_000  # largest grid a search or a sweep axis may ask for
INTERVAL_LEVEL = 0.95  # the confidence level of CriticalSearchResult.interval
_CELL_SIDE = 0.7  # a trial's cell side per unit of r_r: diagonal 0.99 r_r
# Cell side of the protected-fraction scan per unit of its range. On
# `protected`'s worlds (lambda_r = 2, r = 4) a side of 0.4 r scans 157 k
# candidates per trial where r scans 262 k, 7.0 ms against 9.8; 0.35-0.5 r
# were as fast within the noise at lambda_r = 0.8-7 and r = 2-4.
_PROTECT_SIDE = 0.4


class SearchExhaustedError(RuntimeError):
    """The percolation probability stayed above epsilon up to lambda_f_max."""

    def __init__(self, message, evaluated):
        super().__init__(message)
        self.evaluated = tuple(evaluated)


class NoDevicesError(RuntimeError):
    """Every trial produced an empty device set."""


@dataclass(frozen=True)
class PercolationEstimate:
    """Monte Carlo estimate of the spanning probability."""

    theta_hat: float
    trials: int
    std_err: float
    config: NetworkConfig
    n_spanning: int

    @classmethod
    def from_counts(cls, n_spanning: int, trials: int, config: NetworkConfig):
        theta = n_spanning / trials
        return cls(theta_hat=theta, trials=trials,
                   std_err=math.sqrt(theta * (1.0 - theta) / trials),
                   config=config, n_spanning=int(n_spanning))


@dataclass(frozen=True)
class CriticalSearchResult:
    """Outcome of the critical firewall-intensity search."""

    lambda_f_critical: float
    evaluated: tuple  # (lambda_f, PercolationEstimate) at every grid point, ascending
    epsilon: float
    trials: int
    step: float
    resolution: float
    lambda_f_max: float
    # a distribution-free INTERVAL_LEVEL interval for the intensity that
    # lambda_f_critical estimates (`_rank_interval`); inf where unbounded
    interval: tuple[float, float]


def _rank_interval(n: int, epsilon: float) -> tuple[int, int]:
    """1-based ranks (lo, hi) of the order statistics of n draws of a
    random variable C that bound its (1 - epsilon)-quantile with
    probability at least INTERVAL_LEVEL, whatever the distribution of C
    (binomial ranks; Hahn & Meeker, *Statistical Intervals*): lo is the
    largest rank with P(B < lo) <= (1 - INTERVAL_LEVEL) / 2 and hi the
    smallest with P(B >= hi) <= (1 - INTERVAL_LEVEL) / 2, for
    B ~ Bin(n, 1 - epsilon). lo = 0 where the interval has no lower limit,
    and hi = n + 1 where it has no upper one, as at n = 4 or 100 with
    epsilon = 0.02."""
    tail, cdf, lo, hi = (1.0 - INTERVAL_LEVEL) / 2.0, 0.0, 0, n + 1
    log_q, log_e = math.log1p(-epsilon), math.log(epsilon)
    for i in range(n + 1):
        if cdf <= tail:  # cdf = P(B < i)
            lo = i
        cdf += math.exp(math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                        + i * log_q + (n - i) * log_e)
        if cdf >= 1.0 - tail:  # P(B >= i + 1) <= tail
            hi = i + 1
            break
    return lo, hi


class ProtectedFractionEstimate(NamedTuple):
    mean_fraction: float
    std_err: float
    trials_used: int
    trials_skipped: int


def _strip_masks(x: np.ndarray, y: np.ndarray, config: NetworkConfig) -> np.ndarray:
    """(4, n) masks of the points (x, y) within r_r of the left, right,
    bottom and top window edges (boundary inclusive)."""
    w = config.window
    return np.stack([x <= w.x_min + config.r_r, x >= w.x_max - config.r_r,
                     y <= w.y_min + config.r_r, y >= w.y_max - config.r_r])


def _changes(a: np.ndarray) -> np.ndarray:
    """Flags of the entries of `a` that differ from the one before; the
    first entry is flagged."""
    first = np.empty(len(a), dtype=bool)
    first[:1] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return first


def _spans_from_labels(labels, k, strips) -> bool:
    """Does the graph span both axes: does some component, of labels
    0..k-1, touch the left and right strips, and some the bottom and top
    ones (`_strip_masks` rows)?"""
    if k == 0:
        return False
    hit = np.zeros((4, k), dtype=bool)
    for row, mask in enumerate(strips):
        if mask.any():
            hit[row, labels[mask]] = True
    return bool((hit[0] & hit[1]).any() and (hit[2] & hit[3]).any())


class _TrialState:
    """One trial's world (devices, firewall pool and marks, as `sample_world`
    gives them), probed at any thinning fraction p through a cell graph.

    A pool firewall is kept at fraction p when its mark is < p; marks are
    uniform on [0, 1), so p = 0 keeps none and p = 1 keeps all. Device i is
    susceptible at p exactly when `min_mark[i] >= p`, where min_mark[i] is
    the smallest mark among pool firewalls within r_f of it (inf when none),
    read off the cell grid below (`CellGrid.min_within`).

    The scan covers only the firewalls with mark < `ceiling` (1, the whole
    pool, by default); a device none of them covers reads inf. Every reader
    of min_mark (the edges, the strips, both certificates, `build_isg`)
    compares it with p through `>= p` or min/max, and a device whose true
    min_mark is >= ceiling is susceptible at every p <= ceiling either way,
    so every probe at p <= ceiling is exact. A probe above the ceiling first
    finishes the scan (`_complete`): the firewalls left over scan only the
    devices still at inf, since every other min_mark lies below their
    marks; the strip weights are recomputed and the edges dropped.

    The devices are binned into a `CellGrid` of side 0.7 * r_r, whose
    diagonal 0.99 * r_r leaves room for rounding: any two devices of one
    cell are linked, so the susceptible devices of a cell always form one
    clique. Collapsing each occupied cell to a node therefore keeps the ISG
    components exactly, given that
      - the edge between two cells is live at p when some linked device pair
        across them has both ends susceptible, i.e. when the max over those
        pairs of min(min_mark_i, min_mark_j) is >= p (`edge_w`), and
      - a node touches a boundary strip at p when some device of the cell in
        that strip is susceptible, i.e. when the max min_mark of those
        devices is >= p (`strip_w`, one row per `_strip_masks` row).
    A cell with no susceptible device has no live edge and no strip hit, so
    it is an isolated node that cannot make a component span; nodes need no
    weight of their own.

    The strip weights are computed with min_mark, but the edges only at
    probe time, from the devices with min_mark >= `floor`. This is exact:
    an edge weight is a min over the min_marks of its two devices, so a
    device below the floor only gives weights < floor, which no probe at
    p >= floor keeps. A probe at p >= floor reuses the edges; the first
    probe, and any probe below the floor, builds them at the floor it
    names (p by default). The first build has each kept device scan the
    grid of the kept devices forward from the next cell (`CellGrid.scan`),
    whose candidates hold every linked pair across cells once, and folds
    each pair into a slot of its cell pair (`best`, 13 per node). The slots
    are kept, so a build below the floor adds only the pairs with an end in
    the band [new floor, old floor): each band device scans its whole disc
    over the kept devices and folds each pair into the slot of its lower
    cell. A pair found from both ends folds twice and a same-cell pair
    falls into the unused slot 0, both harmless under max, so the edges
    equal a fresh build's at the new floor. A build derives the slot
    columns of its kept devices only, so a trial a certificate decides
    never computes them. An edge's far node is `node` of the first device
    in its cell. A probe labels the live edges with `_component_roots`;
    its components are numbered by their smallest node, but spanning only
    asks which nodes share one.

    Two certificates answer a probe without edges: `certified`, a subgraph
    whose span proves the ISG's, and `bounded`, a supergraph whose failure
    proves the ISG's. Each reads the devices kept at p off the same grid.
    """

    __slots__ = ("grid", "order", "node", "min_mark", "cell_ids", "r_r", "strips",
                 "strip_w", "ceiling", "rest", "floor", "best", "edge_a", "edge_b",
                 "edge_w", "fail_p", "fail_roots")

    def __init__(self, config: NetworkConfig, devices, pool, marks, ceiling: float = 1.0):
        w = config.window
        # node = occupied cell, numbered in (cx, cy) order; devices sorted by
        # node (row i is devices[order[i]]), so that every pair i < j of any
        # subset has node[i] <= node[j]
        grid, self.order = CellGrid.binned(*devices.points.T, (w.x_min, w.y_min),
                                           _CELL_SIDE * config.r_r)
        self.grid = grid
        first = _changes(grid.cell_id)  # first device of its node
        self.node = np.cumsum(first) - 1
        self.cell_ids = grid.cell_id[first]
        px, py = pool.points.T
        low = marks < ceiling  # every mark is < 1, so a ceiling of 1 scans the whole pool
        self.min_mark = grid.min_within(px[low], py[low], config.r_f, marks[low])
        self.rest = (px[~low], py[~low], config.r_f, marks[~low])  # `min_within`'s arguments
        self.ceiling = ceiling if len(self.rest[3]) else math.inf
        self.r_r = config.r_r
        self.strips = _strip_masks(grid.x, grid.y, config)
        self._strip_weights()
        self.floor = math.nan  # no edges yet: `p >= nan` fails for every p
        self.best = None  # no slot weights yet
        self.fail_p = math.nan  # no failed probe yet: `p < nan` fails for every p

    def _strip_weights(self) -> None:
        """Per strip row and node, the largest min_mark of its devices in the strip."""
        self.strip_w = np.full((4, len(self.cell_ids)), -np.inf)
        for row, mask in enumerate(self.strips):
            np.maximum.at(self.strip_w[row], self.node[mask], self.min_mark[mask])

    def _complete(self) -> None:
        """Scan the pool firewalls at or above the ceiling over the devices
        none below it covers (those still at inf: every other min_mark is
        below every such mark), recompute the strip weights and drop the
        edges and their slot weights, which read the old marks."""
        todo = np.isinf(self.min_mark).nonzero()[0]
        self.min_mark[todo] = self.grid.subset(todo).min_within(*self.rest)
        self.ceiling, self.rest = math.inf, None
        self._strip_weights()
        self.floor, self.best = math.nan, None

    def _build_edges(self, floor: float) -> None:
        """Cell edges and their weights among the devices with min_mark >= floor;
        below an earlier build, only the pairs with an end in the band between
        the two floors are added to its slot weights."""
        keep = (self.min_mark >= floor).nonzero()[0]
        grid = self.grid.subset(keep)
        min_mark = self.min_mark.take(keep)
        node = self.node.take(keep)
        # a linked pair lies at most 2 cells apart per axis, so its offset
        # (dx, dy) from the lower node has dx in 0..2 and dy in -2..2, and
        # 13 * node + 5 * dx + dy is unique per cell pair; slot 0 of a node
        # is its own cell, whose pairs need no edge. Within 2 cells the
        # order of tail = 5 * cx + cy is that of the nodes, so the offset is
        # the two ends' |tail difference|
        cx, cy = np.divmod(grid.cell_id, grid.stride)
        tail = 5 * cx + cy
        r2 = self.r_r * self.r_r
        if self.best is None:
            best = self.best = np.full(len(self.cell_ids) * 13, -np.inf)
            head = 13 * node - tail
            # the scan starts at the next cell: a same-cell pair fills only slot 0
            for i, j, d2 in grid.scan(grid.x, grid.y, self.r_r,
                                      first=grid.start(grid.cell_id + 1)):
                hit = (d2 <= r2).nonzero()[0]  # `take` gathers far faster than a bool mask
                i, j = i.take(hit), j.take(hit)
                np.maximum.at(best, head.take(i) + tail.take(j),
                              np.minimum(min_mark.take(i), min_mark.take(j)))
        else:
            # below the last build, whose slots hold every pair above its
            # floor: each band device scans its whole disc; a pair of two
            # band devices folds twice and a same-cell pair into slot 0,
            # both harmless
            best = self.best
            band = (min_mark < self.floor).nonzero()[0]
            for q, j, d2 in grid.scan(grid.x.take(band), grid.y.take(band), self.r_r):
                hit = (d2 <= r2).nonzero()[0]
                i, j = band.take(q.take(hit)), j.take(hit)
                np.maximum.at(best, 13 * np.minimum(node.take(i), node.take(j))
                              + np.abs(tail.take(j) - tail.take(i)),
                              np.minimum(min_mark.take(i), min_mark.take(j)))
        slots = (best > -np.inf).nonzero()[0]
        slots = slots[slots % 13 != 0]
        a, off = np.divmod(slots, 13)
        dx = (off + 2) // 5
        dy = off - 5 * dx
        self.edge_a = a
        # the far cell is occupied: its first device's node
        self.edge_b = self.node.take(self.grid.start(
            self.cell_ids.take(a) + dx * self.grid.stride + dy))
        self.edge_w = best[slots]
        self.floor = floor

    def certified(self, p: float) -> bool:
        """Does a subgraph of the ISG at p already span both axes?

        Each device kept at p is paired with the first kept device of each
        of its cell's forward neighbour cells (1, 0), (0, 1), (1, 1) and
        (1, -1), one `CellGrid.start` lookup each, and a pair within r_r
        (dx*dx + dy*dy <= r_r*r_r, the build's test) links their nodes.
        The lookup depends only on the cell, so all devices of a node meet
        the same device per neighbour cell; of their pairs within r_r the
        labelling gets one link per node and neighbour cell (9.2 k links
        instead of 25 k at lambda_r = 2, r_r = 2), with the same
        components. Every such link is an ISG link, and spanning only grows
        with links, so True proves `spans_at(p)`; False proves nothing.
        """
        keep = (self.min_mark >= p).nonzero()[0]
        grid = self.grid.subset(keep)
        node, top, r2 = self.node.take(keep), grid.n_cols * grid.stride, self.r_r * self.r_r
        ends = []
        for off in (grid.stride, 1, grid.stride + 1, grid.stride - 1):
            # a lookup past the grid, or off its column, finds some later
            # device or none; the range test keeps only true links
            j = grid.start(np.minimum(grid.cell_id + off, top))
            i = (j < len(keep)).nonzero()[0]
            j = j.take(i)
            dx, dy = grid.x.take(j) - grid.x.take(i), grid.y.take(j) - grid.y.take(i)
            hit = (dx * dx + dy * dy <= r2).nonzero()[0]
            # a node's devices all meet the same device j, and a ascends:
            # one link per node, where a changes
            a = node.take(i.take(hit))
            one = _changes(a).nonzero()[0]
            ends.append((a.take(one), node.take(j.take(hit.take(one)))))
        n = len(self.cell_ids)
        roots = _component_roots(n, *(np.concatenate(e) for e in zip(*ends)))
        return _spans_from_labels(roots, n, self.strip_w >= p)

    def bounded(self, p: float) -> bool:
        """Does a supergraph of the ISG at p fail to span an axis?

        Each node kept at p (one with a device kept at p) stands as the
        bounding box of its kept devices. Two nodes link when their boxes'
        gaps gx, gy (0 where they overlap) pass gx*gx + gy*gy <= r_r*r_r.
        Rounded subtraction is monotone in each argument, so a box gap never
        exceeds the |dx| or |dy| of a device pair across the two boxes, and
        every pair the build links (its test is the same) links their nodes
        here: no pad is needed. The candidates are the 12 forward cells a
        linked pair can reach, read as three lanes of consecutive cell ids
        through `CellGrid.start`: rows +1..+2 of the node's own column, and
        rows -2..+2 of columns +1 and +2, clipped to the grid. A lane's
        devices map to its nodes by their rank among the kept nodes. Spanning
        only grows with links, so True proves `spans_at(p)` is False; False
        proves nothing.
        """
        keep = (self.min_mark >= p).nonzero()[0]
        grid = self.grid.subset(keep)
        node = self.node.take(keep)
        first = _changes(node)  # first kept device of its node
        at = first.nonzero()[0]
        m = len(at)
        # per kept device, its node's rank among the kept nodes; m past the end
        rank = np.concatenate((np.cumsum(first) - 1, [m]))
        x0, x1 = np.minimum.reduceat(grid.x, at), np.maximum.reduceat(grid.x, at)
        y0, y1 = np.minimum.reduceat(grid.y, at), np.maximum.reduceat(grid.y, at)
        cell = grid.cell_id.take(at)
        stride, top = grid.stride, grid.n_cols * grid.stride
        cy = cell % stride
        # [lo, hi) cell ids per lane: the own column's rows cy+1..cy+2, and
        # rows cy-2..cy+2 of the next two columns (empty past the grid)
        lo = [cell + 1]
        hi = [np.minimum(cell + 3, cell - cy + stride)]
        for dx in (1, 2):
            base = cell - cy + dx * stride
            lo.append(np.minimum(base + np.maximum(cy - 2, 0), top))
            hi.append(np.minimum(base + np.minimum(cy + 3, stride), top))
        b0 = rank.take(grid.start(np.concatenate(lo)))
        n = rank.take(grid.start(np.concatenate(hi))) - b0
        a = np.repeat(np.tile(np.arange(m), 3), n)
        b = np.arange(n.sum()) + np.repeat(b0 - (np.cumsum(n) - n), n)
        gx = np.maximum(np.maximum(x0.take(b) - x1.take(a), x0.take(a) - x1.take(b)), 0.0)
        gy = np.maximum(np.maximum(y0.take(b) - y1.take(a), y0.take(a) - y1.take(b)), 0.0)
        hit = (gx * gx + gy * gy <= self.r_r * self.r_r).nonzero()[0]
        roots = _component_roots(m, a.take(hit), b.take(hit))
        return not _spans_from_labels(roots, m, self.strip_w.take(node.take(at), axis=1) >= p)

    def spans_at(self, p: float, ends: bool | None = None,
                 floor: float | None = None) -> bool:
        """Does the ISG at thinning fraction p span both axes?

        A probe above the ceiling first finishes the protection scan
        (`_complete`). A probe below the floor builds the edges at `floor`
        (at most p; p when None), so that later probes between `floor` and
        p reuse them.
        `ends` names an outcome of this probe that ends the search. A probe
        that would make the trial's first build (no slot weights yet) first
        tries that outcome's certificate, `certified(p)` for True and
        `bounded(p)` for False, and builds the edges only when the
        certificate does not decide; a decided probe returns its outcome
        with the edges, the floor and the last failure as they were. Below
        a build a certificate is not tried: the band extension it could
        spare costs less than the certificate. A probe that fails keeps its
        roots for the probes below it (`roots`).
        """
        if p > self.ceiling:
            self._complete()
        if ends is not None and self.best is None and (
                self.certified(p) if ends else self.bounded(p)):
            return ends
        roots = self.roots(p, floor)
        spans = _spans_from_labels(roots, len(self.cell_ids), self.strip_w >= p)
        if not spans:
            self.fail_p, self.fail_roots = p, roots
        return spans

    def roots(self, p: float, floor: float | None = None) -> np.ndarray:
        """Per node, its component's root among the edges live at p, for p
        at most the ceiling; builds the edges at `floor` (p when None) when
        p is below the floor.

        Below the last failed probe's fraction `fail_p`, the labelling goes
        on from that probe's roots and hooks only the edges with
        p <= w < fail_p. Its partition is that of the edges with
        w >= fail_p, which every build at or below fail_p holds with the
        same weights, so it survives an extension and a finished scan."""
        if not p >= self.floor:
            self._build_edges(p if floor is None else floor)
        w, start = self.edge_w, None
        if p < self.fail_p:
            live = ((w >= p) & (w < self.fail_p)).nonzero()[0]
            start = self.fail_roots
        else:
            live = (w >= p).nonzero()[0]
        return _component_roots(len(self.cell_ids), self.edge_a.take(live),
                                self.edge_b.take(live), start)


def build_isg(config: NetworkConfig, tseed: int) -> Realization:
    """Sample trial seed `tseed`'s world at config.lambda_f and read its ISG
    off the trial kernel at p = 1, where every firewall is kept: a device is
    protected (label -1) when min_mark < 1, and otherwise labelled by its
    node's root."""
    devices, firewalls, marks = sample_world(config, tseed, config.lambda_f)
    state = _TrialState(config, devices, firewalls, marks)
    label = np.empty(devices.n, dtype=np.int64)
    label[state.order] = np.where(state.min_mark < 1.0, -1,
                                  state.roots(1.0).take(state.node))
    return Realization(config=config, devices=devices, firewalls=firewalls, label=label)


def _split(seen: list, lo: int, hi: int) -> int:
    """The probe index in [lo, hi) that splits the ascending counts `seen`
    lying in [lo, hi] most evenly into those a probe there fails (count <=
    index) and those it spans (count > index), the higher index of two
    equally even ones; the midpoint when no count lies there."""
    i, j = bisect_left(seen, lo), bisect_right(seen, hi)
    if i == j:
        return (lo + hi) // 2
    # a probe at m fails for the counts <= m: 2 * (their number) - n is
    # >= 0 at the lower median `top`, and < 0 at top - 1
    n, top = j - i, seen[(i + j - 1) // 2]
    over = 2 * (bisect_right(seen, top, i, j) - i) - n
    under = n - 2 * (bisect_left(seen, top, i, j) - i)
    mid = top if over <= under else top - 1
    return min(max(mid, lo), hi - 1)


def _threshold_worker(args) -> np.ndarray:
    """Per trial, how many leading points of the ascending thinning grid
    `p_grid` span.

    Spanning is non-increasing in p, so the spanning points form a prefix
    of the grid and bisection over `spans_at` finds its length exactly. Any
    probe inside [lo, hi) keeps the bisection's invariant, so the counts
    are those of a plain bisection for any chunking of the trials; only the
    probe order, and so the cost, depends on where the probes go.

    Each probe goes where it splits in half the nonzero counts that this
    call has already found and that lie in [lo, hi] (`_split`). With none
    there it goes to the midpoint, as on the first trial. A trial that
    never spans is left out of these counts, or it would pull probes to
    p = 0, where every device is kept.

    A probe below the trial's floor builds the edges at grid index
    min(mid, warm), with warm = min(K // 2, least - 1) for a K-point grid,
    `least` the smallest of these counts (K while there is none). So a
    trial's first probe goes straight to the split, with its edges built
    at the warm floor. A trial usually spans there, as every earlier
    spanning trial did, and every probe of a trial whose count is at least
    `least` lies at or above it, so one edge build serves its whole search.
    The floor never goes above the midpoint, nor up to the probe: a probe
    below the floor extends the edges by the band between the two floors
    (`_TrialState._build_edges`), but each extension costs more per pair
    than a first build, so extending a build at each probe costs more than
    building once lower. No build goes below p_grid[lo]. A probe below the
    last failed one labels on from that failure's components
    (`_TrialState.roots`).

    A trial that has failed below every count found, and has not spanned,
    gallops down from its failure: it probes hi - 1, then hi - 2, hi - 4,
    ... below each new failure, clamped at 0. Each step extends the edges,
    so the descent enumerates about the pairs of its last floor, where a
    midpoint probe would often build far below the trial's count.

    Once the call has found two nonzero counts, a trial scans for
    protection only the pool firewalls with mark below p_grid[top], `top`
    the largest count found: every probe at or below top is then exact
    (`_TrialState`). A trial probes above top only when it spans there, as
    at most one in n + 1 of exchangeable trials does after n counts; that
    probe first finishes the scan. One count is not enough: two-trial
    chunks would then finish the scan on every trial whose count exceeds
    the first.

    A probe at the top of [lo, hi) (mid == hi - 1) ends the search when it
    spans, and one at the bottom (mid == lo) when it fails; `spans_at`
    then lets the probe that would make the trial's first build try that
    outcome's certificate first. Where both would end it, as on a one-point grid, the probe
    guesses the outcome of the call's previous trial at mid: `bounded`
    after a trial that failed there, `certified` otherwise (the call's
    first trial included). A probe at the bottom tries `bounded` only after
    such a failure: after a trial that spanned there, this one usually
    spans too, which `bounded` cannot prove. A certificate only answers
    what the build would, so the counts depend neither on the certificates
    nor on the chunking.
    """
    config, lambda_pool, p_grid, t0, t1 = args
    k = len(p_grid)
    out = np.zeros(t1 - t0, dtype=np.int64)
    seen = []  # the nonzero counts so far, ascending
    last = k  # the previous trial's count; the first trial's guess spans
    for row, t in enumerate(range(t0, t1)):
        ceiling = p_grid[seen[-1]] if len(seen) > 1 and seen[-1] < k else 1.0
        state = _TrialState(config, *sample_world(
            config, trial_seed(config.master_seed, t), lambda_pool), ceiling)
        lo, hi = 0, k  # p_grid[:lo] spans, p_grid[hi:] does not
        warm = min(k // 2, seen[0] - 1 if seen else k)  # the build floor's index
        step = 1  # the galloping step below a failure
        while lo < hi:
            if lo == 0 and hi < k and (not seen or hi < seen[0]):  # failed below every count
                mid, step = max(hi - step, 0), 2 * step
            else:
                mid = _split(seen, lo, hi)
            # the outcome to certify: a failure that ends the search where
            # the previous trial failed, else a span that ends it
            ends = False if mid == lo and last <= mid else True if mid == hi - 1 else None
            if state.spans_at(p_grid[mid], ends, p_grid[max(min(mid, warm), lo)]):
                lo = mid + 1
            else:
                hi = mid
        out[row] = last = lo
        if lo > 0:
            insort(seen, lo)
        del state  # frees its slot weights and edges before the next trial is built
    return out


def _protected_worker(args) -> np.ndarray:
    """Per trial (row) and r_f value (column), the protected fraction; a
    row of NaN when the device set came up empty. The devices' cells have
    side `_PROTECT_SIDE` times the largest r_f, or 2**-30 of their extent
    when that is smaller (the scan is exact on any cells, and the ids then
    fit in int64). The distinct r_f values are scanned in ascending order,
    each over only the devices that no smaller one protected, and a
    fraction is the count protected so far over n, which is the mean of
    the protected flags exactly; a count needs no unsorting."""
    config, r_fs, t0, t1 = args
    radii = sorted(set(r_fs))
    column = np.searchsorted(radii, r_fs)
    out = np.full((t1 - t0, len(r_fs)), np.nan)
    for row, t in enumerate(range(t0, t1)):
        devices, firewalls, _ = sample_world(
            config, trial_seed(config.master_seed, t), config.lambda_f)
        if devices.n == 0:
            continue
        x, y = devices.points.T
        x0, y0 = devices.window.x_min, devices.window.y_min
        side = max(_PROTECT_SIDE * radii[-1],
                   float(max(x.max() - x0, y.max() - y0)) * 2.0 ** -30)
        grid, _ = CellGrid.binned(x, y, (x0, y0), side)
        counts, protected = [], 0
        for r in radii:
            d2 = grid.min_within(*firewalls.points.T, r)
            rest = (d2 > r * r).nonzero()[0]
            protected += len(d2) - len(rest)
            counts.append(protected)
            grid = grid.subset(rest)
        out[row] = np.divide(counts, devices.n).take(column)
    return out


class SharedPool:
    """`with SharedPool():` makes every fan-out in the block (`_run_chunked`)
    run on one set of worker processes, forked at the first fan-out and
    reaped when the block ends, however it ends: each worker reads EOF on
    its task pipe and exits, after SIGTERM when the block ends in an
    exception. Outside such a block each fan-out forks and reaps its own
    set. The set is sized by the first fan-out, so the block suits calls
    that share `trials` and `workers`, as one command's do."""

    current = None  # the innermost open block

    def __enter__(self):
        self.workers, self.outer, SharedPool.current = [], SharedPool.current, self
        return self

    def __exit__(self, exc_type, *_):
        SharedPool.current = self.outer
        with _Interrupts():
            _reap(self.workers, kill=exc_type is not None)


class _Interrupts:
    """`with _Interrupts() as held:` keeps Ctrl-C from cutting the block
    short. Where SIGINT raises KeyboardInterrupt (Python's default handler,
    in the main thread), the block's handler raises it only inside
    `held.wait`, and only once. A SIGINT anywhere else in the block is
    held: the next `wait` raises it, or the block's end does when the block
    ends without an exception; one after a KeyboardInterrupt is dropped.
    No signal mask changes, so a SIGINT that the kernel hands to another
    thread (NumPy's BLAS threads leave SIGINT unblocked) is held too."""

    pending = waiting = False  # a SIGINT held; a wait under way

    def __call__(self, signum, frame):
        if self.waiting:
            self.waiting = False
            raise KeyboardInterrupt
        self.pending = True

    def __enter__(self):
        self.old = signal.getsignal(signal.SIGINT)
        if (self.old is signal.default_int_handler
                and threading.current_thread() is threading.main_thread()):
            signal.signal(signal.SIGINT, self)
        return self

    def __exit__(self, exc_type, *_):
        if signal.getsignal(signal.SIGINT) is self:
            signal.signal(signal.SIGINT, self.old)
        if self.pending and exc_type is None:
            raise KeyboardInterrupt

    def wait(self, file):
        """pickle.load(file), the one call in the block that SIGINT interrupts."""
        self.waiting = True
        try:
            if self.pending:
                raise KeyboardInterrupt
            return pickle.load(file)
        finally:
            self.waiting = False


def _serve(tasks: int, results: int, pipes: list) -> None:
    """A forked worker's life, which ends only in os._exit: restore the
    SIGINT handler that `_Interrupts` replaced, close every end of `pipes`
    but its own two, then answer each pickled (worker, [args, ...]) read
    from `tasks` with the list of worker(args), or the exception a call
    raised, on `results`, until EOF."""
    code = 1
    try:
        held = signal.getsignal(signal.SIGINT)
        if isinstance(held, _Interrupts):
            signal.signal(signal.SIGINT, held.old)
        for fd in (fd for ends in pipes for fd in ends):
            if fd not in (tasks, results):
                os.close(fd)
        with os.fdopen(tasks, "rb") as rd, os.fdopen(results, "wb") as wr:
            while True:
                try:
                    worker, chunks = pickle.load(rd)
                except EOFError:
                    break
                try:
                    reply = [worker(args) for args in chunks]
                except Exception as exc:
                    reply = exc
                wr.write(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
                wr.flush()
        code = 0
    finally:
        os._exit(code)


def _fork_workers(n: int) -> list:
    """Fork n workers (`_serve`), each on a task pipe and a result pipe of
    its own; (pid, task writer, result reader) per worker. NumPy's random
    module is loaded first, so no worker imports it, and the standard
    streams are flushed, so no worker holds a copy of their buffers. Called
    inside `_Interrupts`, so a Ctrl-C neither cuts the forks short nor
    raises in a new worker before `_serve`."""
    np.random.default_rng  # loads numpy.random, a lazy submodule
    sys.stdout.flush()
    sys.stderr.flush()
    pipes = [os.pipe() + os.pipe() for _ in range(n)]  # task r, task w, result r, result w
    workers = []
    try:
        for tr, tw, rr, rw in pipes:
            pid = os.fork()
            if pid == 0:
                _serve(tr, rw, pipes)
            workers.append((pid, os.fdopen(tw, "wb"), os.fdopen(rr, "rb")))
    except BaseException:
        for _, tw, rr, _ in pipes[len(workers):]:
            os.close(tw)
            os.close(rr)
        _reap(workers, kill=True)
        raise
    finally:
        for tr, _, _, rw in pipes:
            os.close(tr)
            os.close(rw)
    return workers


def _reap(workers: list, kill: bool) -> list[int]:
    """Send SIGTERM first when `kill`, close the pipes, whose EOF ends an
    idle worker, wait for every worker and empty the list; their exit
    codes, -N for signal N. Called inside `_Interrupts`, so a second
    Ctrl-C cannot cut the reaping short."""
    try:
        for pid, tasks, results in workers:
            if kill:
                os.kill(pid, signal.SIGTERM)
            with contextlib.suppress(OSError):  # a dead worker: its unread task is dropped
                tasks.close()
            results.close()
        return [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _, _ in workers]
    finally:
        workers.clear()


def _reply(workers: list, k: int, held: _Interrupts):
    """Worker k's reply, read by `held.wait`; a RuntimeError naming its exit
    code, once every worker is reaped, when it died first."""
    try:
        return held.wait(workers[k][2])
    except (EOFError, pickle.UnpicklingError):
        pid = workers[k][0]
        code = _reap(workers, kill=True)[k]
        raise RuntimeError(f"worker process {pid} died mid-chunk "
                           f"with exit status {code}") from None


def _run_chunked(worker, common, trials: int, workers: int) -> np.ndarray:
    """Run `worker` over min(workers, trials) trial ranges (chunks) and
    concatenate the results in trial order.

    On Linux more than one chunk fans out over forked worker processes, at
    most one per CPU: the open `SharedPool`'s, or a set of its own. Chunk i
    goes to worker i mod n, and each worker answers with the results of its
    chunks in order. A worker's exception is raised here with its type and
    message; a worker that dies makes this raise RuntimeError, with every
    worker reaped. Ctrl-C raises KeyboardInterrupt only while this waits for
    a reply (`_Interrupts`), once every worker is terminated and reaped. One
    chunk, or another platform, runs the chunks in this process, in order,
    with the same results."""
    chunks = min(workers, trials)
    bounds = np.linspace(0, trials, chunks + 1, dtype=int)
    jobs = [common + (int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]
    if chunks <= 1 or not sys.platform.startswith("linux"):
        return np.concatenate([worker(args) for args in jobs], axis=0)
    shared = SharedPool.current
    procs = [] if shared is None else shared.workers
    replies = None
    with _Interrupts() as held:
        try:
            if not procs:
                procs.extend(_fork_workers(min(chunks, len(os.sched_getaffinity(0)))))
            n = min(len(procs), chunks)
            for k in range(n):
                procs[k][1].write(pickle.dumps((worker, jobs[k::n]), pickle.HIGHEST_PROTOCOL))
                procs[k][1].flush()
            replies = [_reply(procs, k, held) for k in range(n)]
        finally:  # SIGTERM first unless every worker replied
            if replies is None or shared is None:
                _reap(procs, kill=replies is None)
    out = [None] * chunks
    for k, reply in enumerate(replies):
        if isinstance(reply, BaseException):
            raise reply
        out[k::n] = reply
    return np.concatenate(out, axis=0)


def estimate_percolation_probability(config: NetworkConfig, trials: int,
                                     workers: int = 1) -> PercolationEstimate:
    """`sweep_lambda_f` at the one value config.lambda_f: the fraction of
    independent realizations whose ISG spans both axes."""
    return sweep_lambda_f(config, (config.lambda_f,), trials, workers)[0]


def sweep_lambda_f(config: NetworkConfig, lambda_f_values, trials: int,
                   workers: int = 1) -> list[PercolationEstimate]:
    """Percolation estimates over a grid of firewall intensities, in the
    order given (duplicates included).

    All grid points of one trial share the same device set and the same
    thinned firewall pool, so each trial's spanning indicator is
    non-increasing along the grid.
    """
    values = [float(v) for v in lambda_f_values]
    if not values:
        return []
    if not all(math.isfinite(v) and v >= 0 for v in values):
        raise ValueError("lambda_f values must be finite and >= 0")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    lambda_pool = max(values)
    p_values = [v / lambda_pool if lambda_pool > 0 else 0.0 for v in values]
    p_grid = sorted(set(p_values))
    counts = _run_chunked(_threshold_worker, (config, lambda_pool, tuple(p_grid)),
                          trials, workers)
    # a trial spans at grid index j exactly when its count exceeds j
    spanning = (counts[:, None] > np.searchsorted(p_grid, p_values)).sum(axis=0)
    return [PercolationEstimate.from_counts(int(n), trials, replace(config, lambda_f=v))
            for n, v in zip(spanning, values)]


def check_cell_grid(config: NetworkConfig) -> None:
    """Raise ValueError when a trial's cells of side 0.7 r_r over the window
    would number more than 2**62, which `CellGrid.binned` refuses: every
    device lies in the window, so its cells never outnumber the window's."""
    w, side = config.window, _CELL_SIDE * config.r_r
    # in floats: a side that underflows makes the ratios inf, which
    # math.floor refuses; dividing, not multiplying, the two counts never
    # overflows
    cols, rows = np.floor(w.width / side) + 1.0, np.floor(w.height / side) + 1.0
    if cols > 2.0 ** 62 / rows:
        raise ValueError(f"cells of side 0.7 r_r = {side:.6g} over the window number "
                         "more than 2**62; raise r_r or shrink the window")


def critical_grid(config: NetworkConfig, lambda_f_max: float | None = None,
                  step: float | None = None) -> tuple[float, float, int]:
    """(ceiling, step, grid_n) of a critical search, with the defaults filled
    in: the grid j * step / 8, j = 0..grid_n, reaches lambda_f_max, and its
    last point, the ceiling, is lambda_f_max rounded up onto it.

    Raises ValueError when the ceiling or the step is not > 0, or when the
    grid would have more than MAX_GRID_POINTS points; the size is checked
    before anything is built.
    """
    if lambda_f_max is None:
        # r_f >= r_r, so 4 r_f^2 - r_r^2 >= 3 r_r^2 > 0 (or inf, which the
        # ceiling check below refuses)
        lambda_f_max = 1.5 * LC1_APPROX / (4.0 * config.r_f ** 2 - config.r_r ** 2)
    if step is None:
        step = lambda_f_max / 9.0
    if not (lambda_f_max > 0 and step > 0):
        raise ValueError("lambda_f_max and step must be > 0")
    delta = step / 8.0
    intervals = lambda_f_max / delta - 1e-9 if delta > 0 else math.inf
    if not intervals <= MAX_GRID_POINTS - 1:  # inf and nan included
        raise ValueError(f"the search grid step / 8 = {delta:.6g} up to lambda_f_max "
                         f"{lambda_f_max:.6g} has more than {MAX_GRID_POINTS} points; "
                         "raise the step or lower lambda_f_max")
    # a ceiling below one grid step rounds up to that step, not down to 0
    grid_n = max(1, int(math.ceil(intervals)))
    return grid_n * delta, step, grid_n


def find_critical_firewall_intensity(config: NetworkConfig, *,
                                     lambda_f_max: float | None = None,
                                     step: float | None = None,
                                     trials: int = 50,
                                     epsilon: float = 0.02,
                                     workers: int = 1) -> CriticalSearchResult:
    """Smallest firewall intensity at which the spanning probability has
    dropped to (at most) epsilon.

    Estimates the spanning probability from the same trials at every grid
    point j * step / 8 up to lambda_f_max (rounded up onto the grid), which
    makes the estimates non-increasing along the grid, and returns the first
    point with theta_hat <= epsilon. Returns 0 when the network does not
    percolate even without firewalls; raises SearchExhaustedError when the
    estimate stays above epsilon all the way to lambda_f_max.
    """
    lambda_pool, step, grid_n = critical_grid(config, lambda_f_max, step)
    if not (0 < epsilon < 1):
        raise ValueError("epsilon must be in (0, 1)")
    if trials < 1:
        raise ValueError("trials must be >= 1")

    delta = step / 8.0
    p_grid = tuple(j / grid_n for j in range(grid_n + 1))
    counts = _run_chunked(_threshold_worker, (config, lambda_pool, p_grid),
                          trials, workers)
    spanning = (counts[:, None] > np.arange(grid_n + 1)).sum(axis=0)
    evaluated = tuple((j * delta, PercolationEstimate.from_counts(
                           int(n), trials, replace(config, lambda_f=j * delta)))
                      for j, n in enumerate(spanning))
    j_crit = next((j for j, (_, est) in enumerate(evaluated)
                   if est.theta_hat <= epsilon), None)
    if j_crit is None:
        raise SearchExhaustedError(
            f"theta_hat > {epsilon} up to lambda_f_max {lambda_pool:.6g}; "
            "raise lambda_f_max or epsilon", evaluated)
    # j_crit is an order statistic of the counts, the least j that at least
    # a share 1 - epsilon of them do not exceed; the ranks bound that
    # quantile, and a count past the grid (a trial spanning at
    # lambda_f_max) has no upper limit either
    lo, hi = _rank_interval(trials, epsilon)
    c = np.sort(counts)
    upper = c[hi - 1] * delta if hi <= trials and c[hi - 1] <= grid_n else math.inf
    return CriticalSearchResult(lambda_f_critical=j_crit * delta,
                                evaluated=evaluated, epsilon=epsilon,
                                trials=trials, step=step, resolution=delta,
                                lambda_f_max=lambda_pool,
                                interval=(float(c[lo - 1] * delta) if lo else 0.0,
                                          float(upper)))


def estimate_protected_fraction(config: NetworkConfig, trials: int,
                                workers: int = 1) -> ProtectedFractionEstimate:
    """`sweep_protected_fraction` at the one value config.r_f."""
    return sweep_protected_fraction(config, (config.r_f,), trials, workers)[0]


def sweep_protected_fraction(config: NetworkConfig, r_f_values, trials: int,
                             workers: int = 1) -> list[ProtectedFractionEstimate]:
    """Mean protected share of devices at each r_f, in the order given
    (duplicates included), from trials whose worlds every r_f shares.

    Trials with an empty device set are skipped and counted. Raises
    NoDevicesError when every trial came up empty.
    """
    values = [replace(config, r_f=float(v)).r_f for v in r_f_values]  # checks each r_f
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if config.lambda_r <= 0:
        raise ValueError("lambda_r must be > 0 to estimate a device fraction")
    if not values:
        return []
    fractions = _run_chunked(_protected_worker, (config, tuple(values)), trials, workers)
    kept = fractions[~np.isnan(fractions[:, 0])]
    m = len(kept)
    if m == 0:
        raise NoDevicesError("all trials produced empty device sets")
    return [ProtectedFractionEstimate(
                float(col.mean()),
                float(np.std(col, ddof=1) / math.sqrt(m)) if m > 1 else 0.0,
                m, trials - m)
            for col in kept.T]


def _window_size(config: NetworkConfig) -> float:
    w = config.window
    if abs(w.width - w.height) > 1e-12 * max(w.width, w.height):
        raise ValueError("CSV schema expects a square window")
    return w.width


def write_sweep_csv(estimates, path_or_file, header_lines=()) -> None:
    """Sweep rows: lambda_r,r_r,lambda_f,r_f,window_size,trials,theta_hat,std_err,seed."""
    rows = [(c.lambda_r, c.r_r, c.lambda_f, c.r_f, _window_size(c), est.trials,
             est.theta_hat, est.std_err, c.master_seed)
            for est in estimates for c in (est.config,)]
    write_csv(path_or_file, "lambda_r,r_r,lambda_f,r_f,window_size,trials,theta_hat,"
              "std_err,seed", rows, header_lines)


def write_critical_csv(rows, path_or_file, header_lines=()) -> None:
    """Critical-search rows: lambda_r,lambda_f_critical,epsilon,step,trials_per_point.

    `rows` is an iterable of (lambda_r, CriticalSearchResult).
    """
    write_csv(path_or_file, "lambda_r,lambda_f_critical,epsilon,step,trials_per_point",
              [(lambda_r, res.lambda_f_critical, res.epsilon, res.step, res.trials)
               for lambda_r, res in rows], header_lines)
