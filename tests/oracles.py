"""Brute-force references shared by the tests. Every distance comes from a
full dx*dx + dy*dy matrix, or from SciPy's kd-tree and then the same
squared test, and every component from SciPy's `connected_components`, so
no reference runs the package's cell grid or labelling. The worlds the
tests build are small, except those of `threshold_counts`, which takes the
benchmark's. `SquareEdge` is the reference geometry of the coupling
lattice's dependency regions."""
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from spatial_firewalls.network import sample_world
from spatial_firewalls.spatial import trial_seed


def squared_distances(a, b):
    """The (len(a), len(b)) matrix of dx*dx + dy*dy between two point arrays."""
    a, b = np.reshape(a, (-1, 2)), np.reshape(b, (-1, 2))
    dx = a[:, None, 0] - b[None, :, 0]
    dy = a[:, None, 1] - b[None, :, 1]
    return dx * dx + dy * dy


def covered(devices_xy, firewalls_xy, r_f):
    """Per device, whether some firewall lies within r_f by the squared test
    dx*dx + dy*dy <= r_f*r_f, the package's one protection rule."""
    return (squared_distances(devices_xy, firewalls_xy) <= r_f * r_f).any(axis=1)


def min_within(devices_xy, firewalls_xy, r):
    """Per device, the least dx*dx + dy*dy to a firewall with
    dx*dx + dy*dy <= r*r, inf when there is none."""
    d2 = squared_distances(devices_xy, firewalls_xy)
    return np.where(d2 <= r * r, d2, np.inf).min(axis=1, initial=np.inf)


def components(xy, r):
    """(labels, count) of the graph linking the points xy with
    dx*dx + dy*dy <= r*r."""
    linked = sparse.csr_matrix(squared_distances(xy, xy) <= r * r)
    k, labels = connected_components(linked, directed=False)
    return labels, k


def same_partition(a, b):
    """Do the label arrays a and b split their indices into the same
    classes, whatever the label values?"""
    a, b = np.asarray(a).tolist(), np.asarray(b).tolist()
    if len(a) != len(b):
        return False
    pairs = {}
    if any(pairs.setdefault(x, y) != y for x, y in zip(a, b)):
        return False
    return len(set(pairs.values())) == len(pairs)


def isg(devices_xy, firewalls_xy, r_r, r_f):
    """(is_protected, vertices, labels, n_components) of the ISG of devices
    xy under the firewalls (all kept)."""
    protected = covered(devices_xy, firewalls_xy, r_f)
    vertices = np.flatnonzero(~protected)
    labels, k = components(np.reshape(devices_xy, (-1, 2))[vertices], r_r)
    return protected, vertices, labels, k


def spans(xy, labels, window, r_r):
    """(left-right, bottom-top): whether one component of the points xy
    holds a point within r_r of each edge of the axis (boundary inclusive)."""
    x, y = xy[:, 0], xy[:, 1]
    lr = np.intersect1d(labels[x <= window.x_min + r_r], labels[x >= window.x_max - r_r])
    bt = np.intersect1d(labels[y <= window.y_min + r_r], labels[y >= window.y_max - r_r])
    return len(lr) > 0, len(bt) > 0


def world_spans(cfg, devices, pool, marks, p):
    """Does the ISG of the world span both axes with the pool firewalls of
    mark < p kept?"""
    _, vertices, labels, _ = isg(devices.points, pool.points[marks < p], cfg.r_r, cfg.r_f)
    lr, bt = spans(devices.points[vertices], labels, cfg.window, cfg.r_r)
    return lr and bt


def certificate_spans(xy, cell_id, stride, n_cells, window, r):
    """Does the per-device certificate graph of the points xy, listed by
    ascending cell id (id cx * stride + cy, n_cells cells in all), span
    both axes? The points of one cell are linked to each other, and each
    point i to the first listed point whose cell id is at least
    min(cell_id[i] + off, n_cells), for off in stride, 1, stride + 1 and
    stride - 1, when the two lie within r. Every device keeps its own
    links: none is merged per cell."""
    xy, cell_id = np.reshape(xy, (-1, 2)), np.asarray(cell_id)
    if len(xy) == 0:
        return False
    d2 = squared_distances(xy, xy)
    linked = cell_id[:, None] == cell_id[None, :]
    for off in (stride, 1, stride + 1, stride - 1):
        later = cell_id[None, :] >= np.minimum(cell_id + off, n_cells)[:, None]
        i = np.flatnonzero(later.any(axis=1))
        j = later[i].argmax(axis=1)  # the first listed point of a later cell
        hit = d2[i, j] <= r * r
        linked[i[hit], j[hit]] = True
    _, labels = connected_components(sparse.csr_matrix(linked), directed=False)
    lr, bt = spans(xy, labels, window, r)
    return lr and bt


def threshold_counts(config, lambda_pool, p_grid, t0, t1):
    """Per trial t0..t1-1 of `config`, how many leading points of the
    ascending thinning grid `p_grid` span, as `_threshold_worker` counts
    them, from the world `sample_world` gives at `lambda_pool`.

    A device's least firewall mark within r_f comes from SciPy's
    `cKDTree.sparse_distance_matrix` at r_f (1 + 1e-9) and the device pairs
    from `query_pairs` at r_r (1 + 1e-9), each then cut by the squared test
    dx*dx + dy*dy <= r*r; components come from `connected_components` over
    the pairs of devices kept at p (min_mark >= p), the strips from
    `spans`, and the count from a plain bisection."""
    counts = []
    for t in range(t0, t1):
        devices, pool, marks = sample_world(config, trial_seed(config.master_seed, t),
                                            lambda_pool)
        xy, n = devices.points, devices.n
        tree = cKDTree(xy)
        min_mark = np.full(n, np.inf)
        near = tree.sparse_distance_matrix(cKDTree(pool.points), config.r_f * (1 + 1e-9),
                                           output_type="ndarray")
        i, j = near["i"], near["j"]
        d = xy[i] - pool.points[j]
        hit = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] <= config.r_f * config.r_f
        np.minimum.at(min_mark, i[hit], marks[j[hit]])
        pairs = tree.query_pairs(config.r_r * (1 + 1e-9), output_type="ndarray")
        d = xy[pairs[:, 0]] - xy[pairs[:, 1]]
        pairs = pairs[d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] <= config.r_r * config.r_r]

        def spans_at(p):
            kept = min_mark >= p
            a, b = pairs[kept[pairs].all(axis=1)].T
            graph = sparse.coo_matrix((np.ones(len(a)), (a, b)), shape=(n, n))
            _, labels = connected_components(graph, directed=False)
            lr, bt = spans(xy[kept], labels[kept], config.window, config.r_r)
            return lr and bt

        lo, hi = 0, len(p_grid)
        while lo < hi:
            mid = (lo + hi) // 2
            if spans_at(p_grid[mid]):
                lo = mid + 1
            else:
                hi = mid
        counts.append(lo)
    return np.array(counts, dtype=np.int64)


@dataclass(frozen=True)
class SquareEdge:
    """One edge of the coupling square lattice (side s = r_r / sqrt(5)).

    Horizontal edge (i, j) runs from (i s, j s) to ((i+1) s, j s); its two
    squares are the cells below and above. Vertical edge (i, j) runs from
    (i s, j s) to (i s, (j+1) s); squares left and right. The firewall range
    r_f fixes the dependency region. Coordinates are relative to `origin`.
    """

    orientation: str
    i: int
    j: int
    side: float
    r_f: float
    origin: tuple = (0.0, 0.0)

    def _cell_rect(self, ci, cj):
        s = self.side
        ox, oy = self.origin
        return (ox + ci * s, oy + cj * s, ox + (ci + 1) * s, oy + (cj + 1) * s)

    def squares(self):
        """The two adjacent cells sharing this edge, each as (x0, y0, x1, y1)."""
        if self.orientation == "h":
            return (self._cell_rect(self.i, self.j - 1),
                    self._cell_rect(self.i, self.j))
        return (self._cell_rect(self.i - 1, self.j),
                self._cell_rect(self.i, self.j))

    def union_rect(self):
        """Bounds of the two squares' union; its diagonal equals side*sqrt(5)."""
        (ax0, ay0, ax1, ay1), (bx0, by0, bx1, by1) = self.squares()
        return (min(ax0, bx0), min(ay0, by0), max(ax1, bx1), max(ay1, by1))

    def a_region(self):
        """Cell-aligned dependency region containing the four corner disks of
        radius r_f. Spans (2c+1) x (2c+2) cells with c = ceil(r_f / side),
        less one part in 1e9 for rounding."""
        c = math.ceil(self.r_f / self.side - 1e-9)
        s = self.side
        x0, y0, x1, y1 = self.union_rect()
        return (x0 - c * s, y0 - c * s, x1 + c * s, y1 + c * s)


def dependent_edges(reference):
    """How many edges of the coupling lattice, of both orientations and the
    reference itself included, have a dependency region
    (`SquareEdge.a_region`) whose interior overlaps the reference edge's.
    Regions that only touch, to within 1e-9 of a side for rounding, do not
    overlap. Counted by testing every edge whose indices lie within a wide
    margin of the reference's, so no closed form enters."""
    x0, y0, x1, y1 = reference.a_region()
    s = reference.side
    reach = int((x1 - x0 + y1 - y0) / s) + 1  # past any region's width or height
    count = 0
    for orientation in ("h", "v"):
        for i in range(reference.i - reach, reference.i + reach + 1):
            for j in range(reference.j - reach, reference.j + reach + 1):
                u0, v0, u1, v1 = replace(reference, orientation=orientation,
                                         i=i, j=j).a_region()
                count += (min(x1, u1) - max(x0, u0) > 1e-9 * s
                          and min(y1, v1) - max(y0, v0) > 1e-9 * s)
    return count
