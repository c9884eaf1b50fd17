"""Per-trial world sampling, the spatial index, and the realization type,
which labels each device by its infection-susceptible graph (ISG) component.

Devices connect when within the D2D range r_r of each other (closed ball).
A device is protected when some firewall lies within r_f of it (closed ball:
dx*dx + dy*dy <= r_f*r_f, `CellGrid.min_within`); the ISG is
the device graph restricted to the susceptible (unprotected) devices.
`percolation.build_isg` reads one realization's ISG off the trial kernel.

Every spatial query runs on one index, `CellGrid`: points binned into square
cells, held as x, y and cell-id columns in cell order and scanned column by
column (cell lists, Allen & Tildesley, *Computer Simulation of Liquids*, ch. 5).
Components come from min-label hooking with pointer jumping
(`_component_roots`). Both are plain NumPy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spatial import PointSet, Window, sample_ppp, split_seed

__all__ = [
    "NetworkConfig",
    "Realization",
    "sample_world",
]

_BLOCK = 1 << 10  # query points per block of a scan
_CHUNK = 1 << 13  # candidate pairs per pass of a scan
# Above this many cells per point, building a grid's dense start table costs
# more than the binary searches it saves. Timed on a grid build and full scan
# of 2 k to 30 k uniform points, the table was faster at every size up to 12
# cells per point, and binary search from 16-24 at 2 k and 64 at 30 k.
_TABLE_CELLS_PER_POINT = 16

# NumPy's Poisson sampler refuses a larger mean ("lam value too large")
_POISSON_MEAN_MAX = float(np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max))

# sub-stream ids under a trial seed
_STREAM_DEVICES = 0
_STREAM_FIREWALLS = 1
_STREAM_THINNING_MARKS = 2


@dataclass(frozen=True)
class NetworkConfig:
    """All model parameters for one network scenario.

    Firewalls are sampled on the window expanded by `firewall_margin` on each
    side; the default 0 samples both processes on the same window. Firewalls
    must outrange devices (r_f >= r_r).
    """

    lambda_r: float
    r_r: float
    lambda_f: float
    r_f: float
    window: Window
    master_seed: int = 0
    firewall_margin: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.lambda_r) or self.lambda_r < 0:
            raise ValueError("lambda_r must be finite and >= 0")
        if not math.isfinite(self.lambda_f) or self.lambda_f < 0:
            raise ValueError("lambda_f must be finite and >= 0")
        if not (self.r_r > 0 and math.isfinite(self.r_r)):
            raise ValueError("r_r must be > 0")
        if not (self.r_f > 0 and math.isfinite(self.r_f)):
            raise ValueError("r_f must be > 0")
        # every distance test compares squares: a range whose square
        # overflows float64 (above ~1.34e154) or underflows to 0 (below
        # ~1.5e-162) cannot be tested
        for name in ("r_r", "r_f"):
            r = getattr(self, name)
            if not math.isfinite(r * r):
                raise ValueError(f"{name} = {r:.6g} is too large: its square "
                                 "overflows a float")
            if r * r == 0.0:
                raise ValueError(f"{name} = {r:.6g} is too small: its square "
                                 "underflows to 0")
        if self.r_f < self.r_r:
            raise ValueError(f"r_f < r_r ({self.r_f:.6g} < {self.r_r:.6g}): firewalls "
                             "must outrange devices; raise r_f to at least r_r")
        if not (math.isfinite(self.firewall_margin) and self.firewall_margin >= 0):
            raise ValueError("firewall_margin must be finite and >= 0")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")

    def firewall_window(self) -> Window:
        return self.window.expand(self.firewall_margin)


@dataclass(frozen=True)
class Realization:
    """One sampled world: devices, firewalls and each device's ISG label.

    `label[i]`, in sampling order, is -1 when device i is protected, else the
    root of its cell's node in the trial kernel's labelling: two susceptible
    devices share a label exactly when they share an ISG component."""

    config: NetworkConfig
    devices: PointSet
    firewalls: PointSet
    label: np.ndarray

    def __post_init__(self):
        self.label.setflags(write=False)


class CellGrid:
    """Points binned into square cells of side `side` anchored at `origin`,
    held in cell order as the columns `x`, `y` and `cell_id`.

    Cell (cx, cy) = floor((p - origin) / side), every point at or above
    `origin`, has id cx * stride + cy (so cx = cell_id // stride), and the
    points in rows lo..hi of column cx are rows start(id(cx, lo)) up to
    start(id(cx, hi) + 1). `start` reads a dense table of cell starts (a
    `bincount` and a `cumsum`) on a grid of at most `_TABLE_CELLS_PER_POINT`
    cells per point, and binary-searches the sorted cell ids on a sparser
    one; both give the same index.
    """

    __slots__ = ("origin", "side", "stride", "n_cols", "x", "y", "cell_id", "_table")

    def __init__(self, x, y, cell_id, origin, side, stride, n_cols):
        """A grid over the points (x, y) of cells `cell_id`, in cell order."""
        self.origin, self.side = (float(origin[0]), float(origin[1])), float(side)
        self.stride, self.n_cols = stride, n_cols
        self.x, self.y, self.cell_id = x, y, cell_id
        n_cells = n_cols * stride
        self._table = None
        if n_cells <= _TABLE_CELLS_PER_POINT * len(x):
            self._table = np.zeros(n_cells + 1, dtype=np.int64)
            np.cumsum(np.bincount(cell_id, minlength=n_cells), out=self._table[1:])

    @classmethod
    def binned(cls, x, y, origin, side: float) -> tuple["CellGrid", np.ndarray]:
        """The grid over the points (x, y) and the order that sorts them into it.

        The order is the stable sort of the cell ids, so a cell's points keep
        their order in (x, y). On a grid of at most 2**16 cells, as on every
        benchmark trial's, it sorts the ids as 16-bit keys, which NumPy
        sorts stably by radix: 0.12 ms for 20 k points on a 2-core Xeon,
        where the int64 quicksort takes 0.32 ms. On more cells it sorts the
        int64 ids stably.

        Raises ValueError when the cell ids would not fit in int64."""
        cx, cy = np.floor((x - origin[0]) / side), np.floor((y - origin[1]) / side)
        n_cols, stride = cx.max(initial=0) + 1, cy.max(initial=0) + 1
        if n_cols * stride > 2.0 ** 62:
            raise ValueError(f"cells of side {side:.6g} over these points number "
                             "more than 2**62; the range is too small for the window")
        cell_id = cx.astype(np.int64) * int(stride) + cy.astype(np.int64)
        if n_cols * stride <= 2 ** 16:
            order = np.argsort(cell_id.astype(np.uint16), kind="stable")
        else:
            order = np.argsort(cell_id, kind="stable")
        grid = cls(x.take(order), y.take(order), cell_id.take(order), origin, side,
                   int(stride), int(n_cols))
        return grid, order

    def subset(self, kept: np.ndarray) -> "CellGrid":
        """The grid, with the same cells, over the points of ascending indices
        `kept`."""
        return CellGrid(self.x.take(kept), self.y.take(kept), self.cell_id.take(kept),
                        self.origin, self.side, self.stride, self.n_cols)

    def start(self, ids: np.ndarray) -> np.ndarray:
        """Per cell id in 0..n_cols * stride, the index of its first point
        (of the next occupied cell's when it is empty)."""
        if self._table is not None:
            return self._table.take(ids)
        return np.searchsorted(self.cell_id, ids)

    def scan(self, qx: np.ndarray, qy: np.ndarray, r: float, first=None):
        """Yield (q, j, d2) chunks over candidate pairs of a query point
        (qx[q], qy[q]) and a grid point j, d2 = dx*dx + dy*dy. The candidates
        hold every pair with d2 <= r*r.

        Query q = (x, y) scans the columns that hold x -+ reach, reach =
        r + pad, and those between, clipped to the grid. In a column whose
        x-range lies `gap` from q, it scans the rows that hold
        y -+ sqrt(reach**2 - gap**2). The pad, 1e-9 (r + side + the largest
        |coordinate| of a query or of `origin`), exceeds the rounding of the
        column edges and of q by far, so `gap` (taken pad below them) never
        exceeds the |dx| of a point binned into that column. A pair the test
        accepts has dx*dx + dy*dy <= r*r (1 + 5 eps) exactly, eps the
        unit roundoff, so |dy| <= sqrt(r*r (1 + 5 eps) - gap**2). reach**2
        exceeds r*r (1 + 5 eps) by about 2 r pad, which keeps the rounded
        half-width about pad above that bound, more than the rounding of
        y -+ it. The rows come from the grid's own binning, non-decreasing in
        y, so the point's row lies in the scanned range.

        With `first`, the queries are the grid's own points, and each scans
        forward: the columns from its own on, and in its own column the
        points from index first[q] on. With first[i] = start(cell_id[i] + 1),
        each pair in two cells then comes up once as (i, j), i < j.
        """
        if len(qx) == 0 or len(self.x) == 0:
            return
        x0, y0 = self.origin
        pad = 1e-9 * (r + self.side + max(np.abs(qx).max(), np.abs(qy).max())
                      + max(abs(x0), abs(y0)))
        # blocks of queries and chunks of candidates keep every temporary
        # small, which spares the page faults of fresh large allocations
        for q0 in range(0, len(qx), _BLOCK):
            block = slice(q0, q0 + _BLOCK)
            q, start, lens = self._slices(qx[block], qy[block], r + pad, pad,
                                          None if first is None else first[block],
                                          None if first is None
                                          else self.cell_id[block] // self.stride)
            q += q0
            # each pass takes the slices whose candidates begin in one _CHUNK window
            offset = np.cumsum(lens) - lens
            for at in range(0, int(lens.sum()), _CHUNK):
                a, b = np.searchsorted(offset, (at, at + _CHUNK))
                n = lens[a:b]
                j = np.arange(n.sum()) + np.repeat(start[a:b] - (np.cumsum(n) - n), n)
                qq = np.repeat(q[a:b], n)
                dx = self.x.take(j) - qx.take(qq)
                dy = self.y.take(j) - qy.take(qq)
                yield qq, j, dx * dx + dy * dy

    def min_within(self, qx: np.ndarray, qy: np.ndarray, r: float,
                   value: np.ndarray | None = None) -> np.ndarray:
        """Per grid point, the least value[q] over the query points q with
        d2 <= r*r (closed ball), or the least such d2 when `value` is None;
        inf where no query point is in range. Each query scans the grid, whose
        candidates hold every pair the test accepts."""
        best = np.full(len(self.x), np.inf)
        for q, j, d2 in self.scan(qx, qy, r):
            hit = (d2 <= r * r).nonzero()[0]
            np.minimum.at(best, j.take(hit),
                          d2.take(hit) if value is None else value.take(q.take(hit)))
        return best

    def _slices(self, qx, qy, reach, pad, first, own_col):
        """(query, start, length) of one slice per query and column of its
        range, ordered by query: `scan`'s row windows, for queries at
        (qx, qy) that scan forward from `own_col` when it is given."""
        (x0, y0), side = self.origin, self.side
        lo = own_col if own_col is not None else np.floor((qx - reach - x0) / side)
        lo = np.maximum(lo, 0).astype(np.int64)
        hi = np.minimum(np.floor((qx + reach - x0) / side), self.n_cols - 1).astype(np.int64)
        n_cols = np.maximum(hi - lo + 1, 0)
        q = np.repeat(np.arange(len(qx)), n_cols)
        col = np.arange(len(q)) - np.repeat(np.cumsum(n_cols) - n_cols - lo, n_cols)
        x, y = qx.take(q), qy.take(q)
        left = x0 + col * side
        gap = np.maximum(np.maximum(left - x, x - (left + side)) - pad, 0.0)
        h = np.sqrt(np.maximum(reach * reach - gap * gap, 0.0))
        row_lo = np.minimum(np.maximum(np.floor((y - h - y0) / side), 0), self.stride)
        row_hi = np.minimum(np.maximum(np.floor((y + h - y0) / side), -1), self.stride - 1)
        base = col * self.stride
        start, stop = (self.start(base + k.astype(np.int64)) for k in (row_lo, row_hi + 1))
        if first is not None:
            own = (col == own_col.take(q)).nonzero()[0]
            start[own] = first.take(q.take(own))
        return q, start, np.maximum(stop - start, 0)


def _component_roots(n: int, a: np.ndarray, b: np.ndarray,
                     start: np.ndarray | None = None) -> np.ndarray:
    """Per vertex of the undirected graph on 0..n-1 with edges (a[k], b[k]),
    the smallest vertex of its component.

    Min-label hooking with pointer jumping (Shiloach & Vishkin, J.
    Algorithms 3, 57, 1982). Each round hooks every root onto the smallest
    root across its edges, then jumps every pointer to its root; an edge
    whose ends share a root is dropped for good. Pointers only decrease and
    only follow edges, so a component's smallest vertex points nowhere else
    and is, at the end, the root of every vertex in it.

    `start`, when given, is this function's result for a subgraph on the
    same vertices (left unchanged): the labelling goes on from that
    partition, so `a`, `b` need hold only the edges the subgraph lacks.
    """
    parent = np.arange(n) if start is None else start.copy()
    while len(a):
        ra, rb = parent.take(a), parent.take(b)
        split = (ra != rb).nonzero()[0]
        a, b, ra, rb = (v.take(split) for v in (a, b, ra, rb))
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = parent.take(parent)
            if not (up != parent).any():
                break
            parent = up
    return parent


def sample_world(config: NetworkConfig, tseed: int,
                 lambda_f: float) -> tuple[PointSet, PointSet, np.ndarray]:
    """(devices, firewalls, marks) of trial seed `tseed`.

    Devices are sampled at config.lambda_r on the window and firewalls at
    `lambda_f` on the firewall window; `marks` holds one uniform [0, 1)
    thinning mark per firewall. Each draws from its own sub-stream of
    `tseed`, so the devices do not depend on `lambda_f`.
    """
    devices = sample_ppp(config.lambda_r, config.window,
                         split_seed(tseed, _STREAM_DEVICES))
    firewalls = sample_ppp(lambda_f, config.firewall_window(),
                           split_seed(tseed, _STREAM_FIREWALLS))
    marks = np.random.default_rng(
        split_seed(tseed, _STREAM_THINNING_MARKS)).random(firewalls.n)
    return devices, firewalls, marks


def check_sample_means(config: NetworkConfig, lambda_f: float) -> None:
    """Raise ValueError when `sample_world(config, _, lambda_f)` would ask
    NumPy's Poisson sampler for a mean at or above the largest it takes:
    lambda_r times the window area for the devices, lambda_f times the
    firewall window area for the pool."""
    for what, mean in (("device count lambda_r", config.lambda_r * config.window.area),
                       ("firewall-pool count lambda_f",
                        lambda_f * config.firewall_window().area)):
        if not mean < _POISSON_MEAN_MAX:
            raise ValueError(f"the mean {what} * area = {mean:.6g} is at or above "
                             f"NumPy's Poisson limit {_POISSON_MEAN_MAX:.6g}; "
                             "lower the intensity or the window")
