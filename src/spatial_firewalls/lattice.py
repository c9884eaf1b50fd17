"""Numerical validators for the lattice couplings behind the closed-form
bounds: hexagonal closed faces, square-lattice open edges, and the
edge-dependency geometry.

All point-in-region tests are boundary inclusive, matching the closed-ball
distance convention used everywhere else.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .bounds import _ceil_ratio
from .network import NetworkConfig, Realization

_CHUNK = 1 << 18  # point pairs per pass of `_any_pair_beyond`, to bound the temporaries
# Largest coupling lattice `verify_open_edge_coupling` takes, in cells of its
# widest array. Over the coupling suite's worlds at r_r = 0.1-0.3 the check
# peaked at 76-96 bytes per cell (tracemalloc), so the cap holds one check
# to about 0.4 GB; at the suite's 50-wide window it admits r_r >= 0.06.
MAX_COUPLING_CELLS = 1 << 22

__all__ = [
    "HexFace",
    "BlockingCounterexample",
    "PocketSurvey",
    "closed_face_mc_frequency",
    "blocking_counterexample_search",
    "pocket_pair_survey",
    "OpenEdgeCheck",
    "verify_open_edge_coupling",
    "check_coupling_lattice",
    "MAX_COUPLING_CELLS",
    "count_dependent_edges_bruteforce",
    "independence_offsets",
]

_EPS = 1e-12


@dataclass(frozen=True)
class HexFace:
    """Flat-top regular hexagon, centred on the origin, with three
    designated corner triangles.

    The side equals the D2D range. The hexagon splits into six equilateral
    center triangles; the designated ones are the alternate three at the
    upper, lower-left, and lower-right corners. They are pairwise
    non-adjacent (they share only the center point).
    """

    side: float = 1.0

    def __post_init__(self):
        if not (self.side > 0):
            raise ValueError("side must be > 0")

    def vertices(self) -> np.ndarray:
        """Six corners, counterclockwise from angle 0."""
        ang = np.deg2rad(np.arange(0, 360, 60))
        return np.column_stack([self.side * np.cos(ang), self.side * np.sin(ang)])

    def triangles(self) -> list[np.ndarray]:
        """The three designated triangles as (3, 2) vertex arrays."""
        v = self.vertices()
        o = np.zeros(2)
        return [np.array([o, v[1], v[2]]),   # upper
                np.array([o, v[3], v[4]]),   # lower-left
                np.array([o, v[5], v[0]])]   # lower-right

    def sector(self, xy: np.ndarray) -> np.ndarray:
        """Angular third of the face a point falls in (0, 1, or 2).

        Sector boundaries run from the center through the vertices at 0, 120
        and 240 degrees, so each sector contains exactly one of the three
        hexagon edges not backed by a designated triangle. Those vertices are
        covered by every admissible firewall placement, which is what pins
        uncovered pockets inside single sectors.
        """
        xy = np.atleast_2d(xy)
        ang = np.arctan2(xy[:, 1], xy[:, 0])
        return (np.floor(np.mod(ang, 2 * np.pi) / (2 * np.pi / 3))).astype(int) % 3


def _points_in_triangle(tri: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """Boundary-inclusive point-in-triangle mask.

    The edge cross products are products of two coordinate differences, so
    their rounding scales with the square of the vertices' largest
    |coordinate|, and so does the tolerance: the test reads the same at any
    length scale."""
    xy = np.atleast_2d(xy)
    a, b, c = tri
    scale = max(abs(float(v)) for v in (*a, *b, *c))
    tol = _EPS * scale * scale
    d1 = (b[0] - a[0]) * (xy[:, 1] - a[1]) - (b[1] - a[1]) * (xy[:, 0] - a[0])
    d2 = (c[0] - b[0]) * (xy[:, 1] - b[1]) - (c[1] - b[1]) * (xy[:, 0] - b[0])
    d3 = (a[0] - c[0]) * (xy[:, 1] - c[1]) - (a[1] - c[1]) * (xy[:, 0] - c[0])
    neg = (d1 < -tol) | (d2 < -tol) | (d3 < -tol)
    pos = (d1 > tol) | (d2 > tol) | (d3 > tol)
    return ~(neg & pos)


def _sample_triangle(tri: np.ndarray, n: int, rng) -> np.ndarray:
    a, b, c = (np.asarray(t, dtype=float) for t in tri)
    u = np.sqrt(rng.random(n))
    v = rng.random(n)
    return (1 - u)[:, None] * a + (u * (1 - v))[:, None] * b + (u * v)[:, None] * c


def _sample_hexagon(face: HexFace, n: int, rng) -> np.ndarray:
    v = face.vertices()
    o = np.zeros(2)
    which = rng.integers(0, 6, n)
    out = np.empty((n, 2))
    for k in range(6):
        m = which == k
        if m.any():
            out[m] = _sample_triangle(np.array([o, v[k], v[(k + 1) % 6]]),
                                      int(m.sum()), rng)
    return out


def closed_face_mc_frequency(lambda_f: float, r_r: float, samples: int,
                             seed: int) -> float:
    """Monte Carlo frequency of closed faces under firewall intensity lambda_f.

    Samples a Poisson process on the face's bounding box per repetition and
    tests closure; the expected value is the closed-form triangle-occupancy
    product.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    face = HexFace(side=r_r)
    (x0, y0), (x1, y1) = face.vertices().min(axis=0), face.vertices().max(axis=0)
    area = (x1 - x0) * (y1 - y0)
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for _ in range(samples):  # drawn in this order, so the random stream is fixed
        n = rng.poisson(lambda_f * area)
        xs.append(rng.uniform(x0, x1, n))
        ys.append(rng.uniform(y0, y1, n))
    xy = np.column_stack([np.concatenate(xs), np.concatenate(ys)])
    owner = np.repeat(np.arange(samples), [len(x) for x in xs])
    hits = [np.bincount(owner[_points_in_triangle(tri, xy)], minlength=samples)
            for tri in face.triangles()]
    return int((np.min(hits, axis=0) > 0).sum()) / samples


@dataclass(frozen=True)
class BlockingCounterexample:
    """A susceptible pair within D2D range that crosses a closed face."""

    firewalls: np.ndarray
    p: tuple[float, float]
    q: tuple[float, float]
    pair_distance: float
    clearance_p: float
    clearance_q: float


@dataclass(frozen=True)
class PocketSurvey:
    """Exploratory tally of uncovered close pairs inside a closed face.

    `same_sector_pairs` counts pairs huddling in one boundary pocket; such
    pairs occur for adversarial firewall placements but do not cross the
    face. `crossing_pairs` counts pairs spanning different sectors, the event
    the blocking argument rules out.
    """

    trials: int
    same_sector_pairs: int
    crossing_pairs: int


def _uncovered_close_pairs(face: HexFace, trials: int, seed: int):
    """Yield uncovered pairs within the D2D range over random one-firewall-
    per-triangle configurations, four pairs drawn per configuration.
    r_f = r_r = side."""
    rng = np.random.default_rng(seed)
    side = face.side
    fw = np.stack([_sample_triangle(t, trials, rng) for t in face.triangles()],
                  axis=1)

    def clearance(pt, idx):  # distance from each pt[idx] to its nearest firewall
        dx = fw[idx, :, 0] - pt[idx, None, 0]
        dy = fw[idx, :, 1] - pt[idx, None, 1]
        return np.sqrt(dx * dx + dy * dy).min(axis=1)

    for _ in range(4):
        p = _sample_hexagon(face, trials, rng)
        q = _sample_hexagon(face, trials, rng)
        # cheapest test first: most pairs are farther apart than the range
        dx, dy = p[:, 0] - q[:, 0], p[:, 1] - q[:, 1]
        dist = np.sqrt(dx * dx + dy * dy)
        idx = np.flatnonzero(dist <= side)
        dp = clearance(p, idx)
        keep = dp > side
        idx, dp = idx[keep], dp[keep]
        dq = clearance(q, idx)
        keep = dq > side
        for i, di, ei in zip(idx[keep], dp[keep], dq[keep]):
            yield (p[i], q[i], fw[i], float(di), float(ei), float(dist[i]),
                   (int(face.sector(p[i])[0]), int(face.sector(q[i])[0])))


def blocking_counterexample_search(side: float, trials: int,
                                   seed: int) -> Optional[BlockingCounterexample]:
    """Search for a susceptible pair within D2D range that crosses a closed
    face (r_f = r_r = side, one firewall per designated triangle).

    A pair crosses when its endpoints fall in different angular sectors of
    the face; the blocking argument predicts no such pair exists, so the
    search is expected to return None. Uncovered pairs confined to a single
    sector occur in boundary pockets for adversarial placements and are not
    counterexamples; use pocket_pair_survey to observe them.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    face = HexFace(side=side)
    for p, q, fw, dp, dq, dist, sectors in _uncovered_close_pairs(face, trials, seed):
        if sectors[0] != sectors[1]:
            return BlockingCounterexample(firewalls=fw, p=tuple(p), q=tuple(q),
                                          pair_distance=dist,
                                          clearance_p=dp, clearance_q=dq)
    return None


def pocket_pair_survey(side: float, trials: int, seed: int) -> PocketSurvey:
    """Count every uncovered close pair, split by whether it crosses sectors."""
    same = crossing = 0
    for *_, sectors in _uncovered_close_pairs(HexFace(side=side), trials, seed):
        if sectors[0] == sectors[1]:
            same += 1
        else:
            crossing += 1
    return PocketSurvey(trials=trials, same_sector_pairs=same, crossing_pairs=crossing)


class OpenEdgeCheck(NamedTuple):
    violations: int
    open_edges: int
    edges_scanned: int


def _any_pair_beyond(xy: np.ndarray, sizes: np.ndarray, r2: float) -> np.ndarray:
    """Per group of points, listed in `xy` one after another with the given
    sizes, whether some pair has dx*dx + dy*dy > r2; passes of ~_CHUNK pairs."""
    beyond = np.zeros(len(sizes), dtype=bool)
    pairs = sizes * sizes
    offset = np.cumsum(pairs) - pairs
    first = np.cumsum(sizes) - sizes
    for at in range(0, int(pairs.sum()), _CHUNK):
        a, b = np.searchsorted(offset, (at, at + _CHUNK))
        n = pairs[a:b]
        g = np.repeat(np.arange(a, b), n)
        k = np.arange(len(g)) - np.repeat(np.cumsum(n) - n, n)  # pair in its group
        d = (xy.take(first[g] + k // sizes[g], axis=0)
             - xy.take(first[g] + k % sizes[g], axis=0))
        beyond[g[d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] > r2]] = True
    return beyond


def check_coupling_lattice(config: NetworkConfig) -> None:
    """Raise ValueError when `verify_open_edge_coupling` on a world of
    `config` could allocate arrays over more than MAX_COUPLING_CELLS lattice
    cells: the firewall blocks span (n_cols + 2c) x (n_rows + 2c) cells of
    side r_r / sqrt(5), c = ceil(r_f / side), bounded here in floats so
    that no ratio overflows."""
    w, s = config.window, config.r_r / math.sqrt(5.0)
    c = config.r_f / s + 1.0
    if not (w.width / s + 2.0 * c) * (w.height / s + 2.0 * c) <= MAX_COUPLING_CELLS:
        raise ValueError(f"the coupling lattice of side r_r / sqrt(5) = {s:.6g} over a "
                         f"{w.width:.6g} x {w.height:.6g} window, with firewall blocks "
                         f"of r_f = {config.r_f:.6g}, has more than {MAX_COUPLING_CELLS} "
                         "cells; raise r_r or shrink the window")


def verify_open_edge_coupling(realization: Realization) -> OpenEdgeCheck:
    """Check the local cluster property on every open edge inside the window.

    For each open edge, asserts that (i) every device pair inside the two
    squares is within the D2D range, (ii) all those devices are susceptible,
    and (iii) they share one ISG component. Returns the tally, whose
    `violations` counts the edges violating any clause (the coupling
    argument predicts 0).

    The lattice starts at the window corner. Clause (i) holds on an edge
    whose two cells' bounding box, w by h, has w*w + h*h <= r_r**2: rounded
    subtraction, squaring and addition are monotone, so no pair's dx*dx +
    dy*dy exceeds it. Only the other edges have their pairs tested.

    Raises ValueError, before any allocation, on a lattice that
    `check_coupling_lattice` refuses.
    """
    cfg = realization.config
    check_coupling_lattice(cfg)
    w = cfg.window
    s = cfg.r_r / math.sqrt(5.0)
    c = _ceil_ratio(cfg.r_f, s)
    n_cols = int(math.floor(w.width / s))
    n_rows = int(math.floor(w.height / s))
    if n_cols < 1 or n_rows < 2:
        return OpenEdgeCheck(0, 0, 0)
    origin = (w.x_min, w.y_min)

    # firewalls in the (2c+1) x (2c+1) cells around each cell, as a
    # four-term difference of prefix sums led by a zero row and column; an
    # edge's dependency region is the union of its two cells' blocks
    k = 2 * c + 1
    shape = (n_cols + k - 1, n_rows + k - 1)
    fcells = np.floor((realization.firewalls.points - origin) / s).astype(np.int64) + c
    fcells = fcells[((fcells >= 0) & (fcells < shape)).all(axis=1)]
    fw_cum = np.pad(np.bincount(np.ravel_multi_index(tuple(fcells.T), shape),
                                minlength=shape[0] * shape[1]).reshape(shape)
                    .cumsum(axis=0).cumsum(axis=1), ((1, 0), (1, 0)))
    clear = (fw_cum[k:, k:] - fw_cum[:-k, k:] - fw_cum[k:, :-k] + fw_cum[:-k, :-k]
             ).ravel() == 0

    # devices binned on the n_cols x n_rows cells, which lie in the window
    cells = np.floor((realization.devices.points - origin) / s).astype(np.int64)
    binned = np.flatnonzero(((cells >= 0) & (cells < (n_cols, n_rows))).all(axis=1))
    cell = np.ravel_multi_index(tuple(cells[binned].T), (n_cols, n_rows))
    count = np.bincount(cell, minlength=n_cols * n_rows)

    # scanned edges join occupied cells (i, j) and (i, j+1), or (i, j) and
    # (i+1, j); open ones have no firewall in either cell's block
    occupied = count.reshape(n_cols, n_rows) > 0
    ids = np.arange(n_cols * n_rows).reshape(n_cols, n_rows)
    h, v = occupied[:, :-1] & occupied[:, 1:], occupied[:-1] & occupied[1:]
    edges = np.stack([np.concatenate([ids[:, :-1][h], ids[:-1][v]]),
                      np.concatenate([ids[:, 1:][h], ids[1:][v]])])
    a, b = edges[:, clear[edges].all(axis=0)]

    # per-cell min and max of x, y and the ISG label, which reads -1 on a
    # protected device (labels are small integers, exact as floats)
    tally = np.column_stack([realization.devices.points, realization.label]
                            ).take(binned, axis=0)
    lo = np.full((n_cols * n_rows, 3), np.inf)
    hi = -lo
    np.minimum.at(lo, cell, tally)
    np.maximum.at(hi, cell, tally)
    lo, hi = np.minimum(lo[a], lo[b]), np.maximum(hi[a], hi[b])  # per open edge

    # clause (i): pairs are tested only on the edges whose box exceeds r_r
    r2 = cfg.r_r ** 2
    bw, bh = hi[:, 0] - lo[:, 0], hi[:, 1] - lo[:, 1]
    wide = np.flatnonzero(bw * bw + bh * bh > r2)
    slices = np.column_stack([a[wide], b[wide]]).ravel()  # both cells of each
    lens = count[slices]
    idx = np.arange(lens.sum()) + np.repeat(
        (np.cumsum(count) - count)[slices] - (np.cumsum(lens) - lens), lens)
    far = np.zeros(len(a), dtype=bool)
    far[wide] = _any_pair_beyond(tally[np.argsort(cell)[idx], :2],
                                 lens[::2] + lens[1::2], r2)

    # clause (ii): no label -1; clause (iii): a single label
    violations = int((far | (lo[:, 2] < 0) | (hi[:, 2] != lo[:, 2])).sum())
    return OpenEdgeCheck(violations, len(a), edges.shape[1])


def count_dependent_edges_bruteforce(a: int, b: int) -> int:
    """Enumerate every lattice edge inside the (2a-2) x (2b-1)-cell region,
    the maximal region around a reference edge whose edges all depend on it
    for a dependency region of a x b cells (a, b >= 2).

    Horizontal and vertical edges counted separately by explicit iteration.
    This is the closed form 8ab - 2a - 6b + 1 rearranged, not an independent
    check of it: that is `tests/oracles.dependent_edges`, which counts the
    edges whose dependency regions overlap a reference edge's.
    """
    a, b = int(a), int(b)
    if a < 2 or b < 2:
        raise ValueError("need a >= 2 and b >= 2")
    rows, cols = 2 * a - 2, 2 * b - 1  # rows of cells along y, columns along x
    count = 0
    for y in range(rows + 1):        # horizontal edges on each lattice line
        for _x in range(cols):
            count += 1
    for _y in range(rows):           # vertical edges between lattice lines
        for x in range(cols + 1):
            count += 1
    return count


def independence_offsets(r_f: float, s: float) -> tuple[float, float]:
    """Minimal (horizontal, vertical) edge separations guaranteeing disjoint
    dependency regions: (2 s ceil(r_f / s), 2 s ceil(r_f / s) + 2 s)."""
    if not (r_f > 0 and s > 0):
        raise ValueError("r_f and s must be > 0")
    c = _ceil_ratio(r_f, s)
    return (2.0 * s * c, 2.0 * s * c + 2.0 * s)

