"""Spanning-cluster detection, percolation probability estimation, the
search for the critical firewall intensity, and protected fractions.

A trial percolates when one ISG component touches boundary strips of width
r_r on both axes (left-right and bottom-top). Estimates over multiple trials
use per-trial derived seeds. Every estimate samples one firewall pool per
trial and thins it with per-firewall uniform marks, so the kept set at
intensity x is an exact Poisson process of intensity x and is nested across
intensities. Nesting makes every trial's spanning indicator non-increasing
in the firewall intensity: on an ascending grid of thinning fractions the
spanning points form a prefix, whose length one bisection finds exactly.
Sweeps, point estimates and the critical search all read their counts off
that per-trial prefix length.

Each probe of the bisection runs on a cell graph of the trial
(`_TrialState`). Devices are binned into square cells of diagonal < r_r, so
the susceptible devices of one cell are always a clique and each cell can
stand as one node. Two cells are joined at a thinning fraction p exactly
when some linked device pair across them has both ends susceptible at p,
and a cell touches a boundary strip exactly when one of its devices in the
strip is susceptible; each of these is a threshold on one weight. A probe
compares the weights with p and labels a graph of a few thousand nodes,
with the same outcome as labelling every susceptible device pair. The live
edges, stored sorted by first node, are the rows of a CSR as they stand;
its labels are not canonical, as spanning only asks which nodes share one.

The edge weights are computed by the first probe, and again by any probe
below the lowest fraction probed so far (the floor), from only the devices
still susceptible at the floor. This is exact: an edge weight is a min over
the weights of its two devices, so a device below the floor only gives
weights that no probe at or above the floor keeps. A trial probed once at
p = 1 therefore enumerates pairs only among the devices with no pool
firewall within r_f.

The same cell grid gives each device its protection: the smallest mark of
a pool firewall within r_f. Each firewall scans the device slices of the
cell columns its disc can touch, found by binary search in the devices
sorted by cell, and keeps the devices with dx*dx + dy*dy <= r_f*r_f. The
scanned range is that of r_f plus a small pad, binned by the same function
as the devices, so no device the test accepts lies outside it; the one
kd-tree a trial builds is the pair enumeration's, over the kept devices.

Protected fractions need no thinning. r_f enters neither the world nor the
trial seed, so a sweep over r_f reads every fraction off one nearest-firewall
query per trial, bounded at the largest r_f.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .network import (NetworkConfig, Realization, nearest_firewall_distance,
                      radius_pairs, sample_world)
from .spatial import open_csv, trial_seed

__all__ = [
    "PercolationEstimate",
    "CriticalSearchResult",
    "ProtectedFractionEstimate",
    "SearchExhaustedError",
    "NoDevicesError",
    "detect_spanning",
    "estimate_percolation_probability",
    "sweep_lambda_f",
    "find_critical_firewall_intensity",
    "estimate_protected_fraction",
    "sweep_protected_fraction",
    "write_sweep_csv",
    "write_critical_csv",
]

_DEFAULT_LC1 = 1.44  # unit-range critical intensity used for search defaults
_CHUNK = 1 << 18  # device pairs or candidates per pass, to bound the temporaries


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


class ProtectedFractionEstimate(NamedTuple):
    mean_fraction: float
    std_err: float
    trials_used: int
    trials_skipped: int


def _strip_masks(xy: np.ndarray, config: NetworkConfig) -> np.ndarray:
    """(4, n) masks of the points within r_r of the left, right, bottom and
    top window edges (boundary inclusive)."""
    w = config.window
    return np.stack([xy[:, 0] <= w.x_min + config.r_r,
                     xy[:, 0] >= w.x_max - config.r_r,
                     xy[:, 1] <= w.y_min + config.r_r,
                     xy[:, 1] >= w.y_max - config.r_r])


def _spans_from_labels(labels, k, strips) -> tuple[bool, bool]:
    """Spanning flags given component labels and `_strip_masks` rows."""
    if k == 0:
        return (False, False)
    hit = np.zeros((4, k), dtype=bool)
    for row, mask in enumerate(strips):
        if mask.any():
            hit[row, labels[mask]] = True
    spans_lr = bool((hit[0] & hit[1]).any())
    spans_bt = bool((hit[2] & hit[3]).any())
    return (spans_lr, spans_bt)


def detect_spanning(realization: Realization) -> tuple[bool, bool]:
    """(spans left-right, spans bottom-top) for one realization's ISG.

    A component spans left-right when it holds a susceptible device with
    x <= x_min + r_r and another with x >= x_max - r_r; bottom-top likewise
    on y. Percolation for the trial is declared when both flags hold.
    """
    xy = realization.devices.points.take(realization.isg.vertices, axis=0)
    return _spans_from_labels(realization.isg.component_label,
                              realization.isg.n_components,
                              _strip_masks(xy, realization.config))


def _min_marks(xy, cell_id, stride, cell_of, pool_xy, marks, r_f) -> np.ndarray:
    """Per device, the smallest mark among the pool firewalls within r_f of
    it (closed ball), inf when there is none.

    The devices are sorted by `cell_id = cx * stride + cy`, where (cx, cy) =
    `cell_of(xy)`, so the devices in rows lo..hi of one column are one
    slice. A device is within r_f of firewall f = (fx, fy) when
    dx*dx + dy*dy <= r_f*r_f, the sum `cKDTree` compares.

    f scans the cells from cell_of(f - reach) to cell_of(f + reach), clipped
    to the grid, and that range holds every device the test accepts. Such a
    device has |x - fx| <= r_f (1 + 4 eps), eps the unit roundoff. The pad
    of reach over r_f, 1e-9 (r_f + the largest |coordinate| of a firewall),
    exceeds that and the rounding of fx -+ reach together, so the device's
    x lies between the rounded fx - reach and fx + reach, and likewise y.
    `cell_of` is the devices' own binning and is non-decreasing in each
    coordinate, so the device's cell lies between the two bound cells.
    """
    min_mark = np.full(len(xy), np.inf)
    if len(xy) == 0 or len(pool_xy) == 0:
        return min_mark
    reach = r_f + 1e-9 * (r_f + np.abs(pool_xy).max())
    lo = np.maximum(cell_of(pool_xy - reach), 0)
    hi = np.minimum(cell_of(pool_xy + reach), (cell_id[-1] // stride, stride - 1))
    # one slice per (firewall, column) of the range, ordered by firewall
    n_cols = np.maximum(hi[:, 0] - lo[:, 0] + 1, 0)
    fw = np.repeat(np.arange(len(pool_xy)), n_cols)
    col = np.arange(len(fw)) - np.repeat(np.cumsum(n_cols) - n_cols - lo[:, 0], n_cols)
    start = np.searchsorted(cell_id, col * stride + lo[fw, 1], side="left")
    lens = np.maximum(np.searchsorted(cell_id, col * stride + hi[fw, 1],
                                      side="right") - start, 0)
    # each pass takes the slices whose candidates begin in one _CHUNK window
    (x, y), (fx, fy) = xy.T.copy(), pool_xy.T.copy()  # contiguous for `take`
    offset = np.cumsum(lens) - lens
    for at in range(0, int(lens.sum()), _CHUNK):
        a, b = np.searchsorted(offset, (at, at + _CHUNK))
        n = lens[a:b]
        idx = np.arange(n.sum()) + np.repeat(start[a:b] - (np.cumsum(n) - n), n)
        f = np.repeat(fw[a:b], n)
        dx = x.take(idx) - fx.take(f)
        dy = y.take(idx) - fy.take(f)
        hit = dx * dx + dy * dy <= r_f * r_f
        np.minimum.at(min_mark, idx[hit], marks[f[hit]])
    return min_mark


class _TrialState:
    """One trial's world, probed at any thinning fraction p through a cell
    graph.

    A pool firewall is kept at fraction p when its mark is < p; marks are
    uniform on [0, 1), so p = 0 keeps none and p = 1 keeps all. Device i is
    susceptible at p exactly when `min_mark[i] >= p`, where min_mark[i] is
    the smallest mark among pool firewalls within r_f of it (inf when none).
    `_min_marks` reads it off the cell grid below, with no kd-tree: the
    devices are sorted by cell id cx * stride + cy, so the rows one firewall
    can reach in one column are one slice.

    The devices are binned into square cells of side 0.7 * r_r, whose
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

    The strip weights are computed once, but the edges only at probe time,
    from the devices with min_mark >= `floor`, the lowest fraction probed
    so far. This is exact: an edge weight is a min over the min_marks of
    its two devices, so a device below the floor only gives weights
    < floor, which no probe at p >= floor keeps. A probe at p >= floor
    reuses the edges; the first probe, and any probe below the floor,
    builds them with floor = p. The edges are kept as endpoint arrays
    (`edge_a` non-decreasing), so a probe's live edges form a CSR directly.
    Its weak components are the cell graph's, numbered in no fixed order.
    """

    __slots__ = ("xy", "min_mark", "head", "tail", "cell_ids", "stride",
                 "r_r", "strip_w", "floor", "edge_a", "edge_b", "edge_w")

    def __init__(self, config: NetworkConfig, lambda_pool: float, tseed: int):
        devices, pool, marks = sample_world(config, tseed, lambda_pool)
        origin, side = (config.window.x_min, config.window.y_min), 0.7 * config.r_r

        def cell_of(xy):
            return np.floor((xy - origin) / side).astype(np.int64)

        # node = occupied cell, numbered in (cx, cy) order; devices sorted by
        # node, so that every pair i < j of any subset has node[i] <= node[j]
        cell = cell_of(devices.points)
        self.stride = int(cell[:, 1].max(initial=0)) + 1
        cell_id = cell[:, 0] * self.stride + cell[:, 1]
        order = np.argsort(cell_id)
        self.xy = devices.points.take(order, axis=0)
        cell, cell_id = cell.take(order, axis=0), cell_id[order]
        first = np.empty(len(cell_id), dtype=bool)  # first device of its node
        first[:1] = True
        np.not_equal(cell_id[1:], cell_id[:-1], out=first[1:])
        node = np.cumsum(first) - 1
        self.cell_ids = cell_id[first]
        self.min_mark = _min_marks(self.xy, cell_id, self.stride, cell_of,
                                   pool.points, marks, config.r_f)
        self.r_r = config.r_r

        # a linked pair lies at most 2 cells apart per axis, so its offset
        # (dx, dy) from the lower node has dx in 0..2 and dy in -2..2, and
        # head[i] + tail[j] = 13 * node[i] + 5 * dx + dy is unique per cell
        # pair; slot 0 of a node is its own cell, whose pairs need no edge
        self.head = 13 * node - 5 * cell[:, 0] - cell[:, 1]
        self.tail = 5 * cell[:, 0] + cell[:, 1]

        self.strip_w = np.full((4, len(self.cell_ids)), -np.inf)
        for row, mask in enumerate(_strip_masks(self.xy, config)):
            np.maximum.at(self.strip_w[row], node[mask], self.min_mark[mask])
        self.floor = math.nan  # no edges yet: `p >= nan` fails for every p

    def _build_edges(self, floor: float) -> None:
        """Cell edges and their weights among the devices with min_mark >= floor."""
        keep = self.min_mark >= floor
        min_mark, head, tail = self.min_mark[keep], self.head[keep], self.tail[keep]
        pairs = radius_pairs(self.xy.compress(keep, axis=0), self.r_r)
        best = np.full(len(self.cell_ids) * 13, -np.inf)
        for lo in range(0, len(pairs), _CHUNK):
            i, j = pairs[lo:lo + _CHUNK].T
            np.maximum.at(best, head[i] + tail[j],
                          np.minimum(min_mark[i], min_mark[j]))
        slots = np.flatnonzero(best > -np.inf)
        slots = slots[slots % 13 != 0]
        a, off = np.divmod(slots, 13)
        dx = (off + 2) // 5
        dy = off - 5 * dx
        b = np.searchsorted(self.cell_ids, self.cell_ids[a] + dx * self.stride + dy)
        self.edge_a, self.edge_b = a, b.astype(np.int32)  # a ascends with slots
        self.edge_w = best[slots]
        self.floor = floor

    def spans_at(self, p: float) -> bool:
        """Does the ISG at thinning fraction p span both axes?"""
        if not p >= self.floor:
            self._build_edges(p)
        n = len(self.cell_ids)
        live = self.edge_w >= p
        b = self.edge_b[live]
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(self.edge_a[live], minlength=n), out=indptr[1:])
        graph = csr_matrix((np.ones(len(b)), b, indptr), shape=(n, n))
        k, labels = connected_components(graph, directed=True, connection="weak")
        lr, bt = _spans_from_labels(labels, k, self.strip_w >= p)
        return lr and bt


def _threshold_worker(args) -> np.ndarray:
    """Per trial, how many leading points of the ascending thinning grid
    `p_grid` span.

    Spanning is non-increasing in p, so the spanning points form a prefix
    of the grid and bisection over `spans_at` finds its length exactly.
    """
    config, lambda_pool, p_grid, t0, t1 = args
    out = np.zeros(t1 - t0, dtype=np.int64)
    for row, t in enumerate(range(t0, t1)):
        state = _TrialState(config, lambda_pool, trial_seed(config.master_seed, t))
        lo, hi = 0, len(p_grid)  # p_grid[:lo] spans, p_grid[hi:] does not
        while lo < hi:
            mid = (lo + hi) // 2
            if state.spans_at(p_grid[mid]):
                lo = mid + 1
            else:
                hi = mid
        out[row] = lo
    return out


def _protected_worker(args) -> np.ndarray:
    """Per trial (row) and r_f value (column), the protected fraction; a
    row of NaN when the device set came up empty."""
    config, r_fs, t0, t1 = args
    out = np.full((t1 - t0, len(r_fs)), np.nan)
    for row, t in enumerate(range(t0, t1)):
        devices, firewalls, _ = sample_world(
            config, trial_seed(config.master_seed, t), config.lambda_f)
        if devices.n == 0:
            continue
        dist = nearest_firewall_distance(devices, firewalls, max(r_fs))
        out[row] = (dist[:, None] <= np.asarray(r_fs)).mean(axis=0)
    return out


def _run_chunked(worker, common, trials: int, workers: int) -> np.ndarray:
    """Run `worker` over trial ranges, deterministically in trial order."""
    if workers <= 1:
        return worker(common + (0, trials))
    workers = min(workers, trials)
    bounds = np.linspace(0, trials, workers + 1, dtype=int)
    chunks = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(worker, common + (a, b)) for a, b in chunks]
        parts = [f.result() for f in futures]
    return np.concatenate(parts, axis=0)


def estimate_percolation_probability(config: NetworkConfig, trials: int,
                                     workers: int = 1) -> PercolationEstimate:
    """Fraction of independent realizations whose ISG spans both axes.

    Deterministic given (config, trials, master_seed) for any worker count.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    counts = _run_chunked(_threshold_worker, (config, config.lambda_f, (1.0,)),
                          trials, workers)
    return PercolationEstimate.from_counts(int(counts.sum()), trials, config)


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
    if lambda_f_max is None:
        denom = 4.0 * config.r_f ** 2 - config.r_r ** 2
        if not denom > 0:
            raise ValueError("the default lambda_f_max, 1.5 * 1.44 / (4 r_f^2 - r_r^2), "
                             "needs 2 * r_f > r_r; pass lambda_f_max")
        lambda_f_max = 1.5 * _DEFAULT_LC1 / denom
    if step is None:
        step = lambda_f_max / 9.0
    if not (lambda_f_max > 0 and step > 0):
        raise ValueError("lambda_f_max and step must be > 0")
    if not (0 < epsilon < 1):
        raise ValueError("epsilon must be in (0, 1)")
    if trials < 1:
        raise ValueError("trials must be >= 1")

    delta = step / 8.0
    grid_n = int(math.ceil(lambda_f_max / delta - 1e-9))
    lambda_pool = grid_n * delta  # snap the search ceiling onto the grid
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
    return CriticalSearchResult(lambda_f_critical=j_crit * delta,
                                evaluated=evaluated, epsilon=epsilon,
                                trials=trials, step=step, resolution=delta,
                                lambda_f_max=lambda_pool)


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
    with open_csv(path_or_file, header_lines) as fh:
        fh.write("lambda_r,r_r,lambda_f,r_f,window_size,trials,theta_hat,std_err,seed\n")
        for est in estimates:
            c = est.config
            fh.write(f"{c.lambda_r!r},{c.r_r!r},{c.lambda_f!r},{c.r_f!r},"
                     f"{_window_size(c)!r},{est.trials},{est.theta_hat!r},"
                     f"{est.std_err!r},{c.master_seed}\n")


def write_critical_csv(rows, path_or_file, header_lines=()) -> None:
    """Critical-search rows: lambda_r,lambda_f_critical,epsilon,step,trials_per_point.

    `rows` is an iterable of (lambda_r, CriticalSearchResult).
    """
    with open_csv(path_or_file, header_lines) as fh:
        fh.write("lambda_r,lambda_f_critical,epsilon,step,trials_per_point\n")
        for lambda_r, res in rows:
            fh.write(f"{lambda_r!r},{res.lambda_f_critical!r},{res.epsilon!r},"
                     f"{res.step!r},{res.trials}\n")
