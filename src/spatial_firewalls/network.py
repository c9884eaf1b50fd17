"""Per-trial world sampling, device graph construction, protected/susceptible
classification, and the infection-susceptible graph (ISG).

Devices connect when within the D2D range r_r of each other (closed ball).
A device is protected when some firewall lies within r_f of it; the ISG is
the device graph restricted to the susceptible (unprotected) devices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .spatial import PointSet, Window, sample_ppp, split_seed

__all__ = [
    "NetworkConfig",
    "Classification",
    "IsgGraph",
    "Realization",
    "classify_devices",
    "nearest_firewall_distance",
    "build_rgg",
    "sample_world",
    "build_isg",
    "save_realization_csv",
]

# sub-stream ids under a trial seed
_STREAM_DEVICES = 0
_STREAM_FIREWALLS = 1
_STREAM_THINNING_MARKS = 2


@dataclass(frozen=True)
class NetworkConfig:
    """All model parameters for one network scenario.

    Firewalls are sampled on the window expanded by `firewall_margin` on each
    side; the default 0 samples both processes on the same window. Firewalls
    are assumed to outrange devices (r_f >= r_r) unless explicitly overridden.
    """

    lambda_r: float
    r_r: float
    lambda_f: float
    r_f: float
    window: Window
    master_seed: int = 0
    firewall_margin: float = 0.0
    allow_small_firewall_range: bool = False

    def __post_init__(self):
        if not math.isfinite(self.lambda_r) or self.lambda_r < 0:
            raise ValueError("lambda_r must be finite and >= 0")
        if not math.isfinite(self.lambda_f) or self.lambda_f < 0:
            raise ValueError("lambda_f must be finite and >= 0")
        if not (self.r_r > 0 and math.isfinite(self.r_r)):
            raise ValueError("r_r must be > 0")
        if not (self.r_f > 0 and math.isfinite(self.r_f)):
            raise ValueError("r_f must be > 0")
        if self.r_f < self.r_r and not self.allow_small_firewall_range:
            raise ValueError(
                "r_f < r_r; set allow_small_firewall_range=True to override")
        if not (math.isfinite(self.firewall_margin) and self.firewall_margin >= 0):
            raise ValueError("firewall_margin must be finite and >= 0")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")

    def firewall_window(self) -> Window:
        return self.window.expand(self.firewall_margin)


@dataclass(frozen=True)
class Classification:
    """Partition of device indices into protected and susceptible."""

    is_protected: np.ndarray  # bool, one flag per device index

    def __post_init__(self):
        mask = np.asarray(self.is_protected, dtype=bool)
        mask.setflags(write=False)
        object.__setattr__(self, "is_protected", mask)

    @property
    def protected_idx(self) -> np.ndarray:
        return np.flatnonzero(self.is_protected)

    @property
    def susceptible_idx(self) -> np.ndarray:
        return np.flatnonzero(~self.is_protected)


@dataclass(frozen=True)
class IsgGraph:
    """Graph over a subset of device indices with fixed-radius adjacency.

    `vertices[i]` is the device index of local vertex i; adjacency is stored
    in CSR form over local vertex positions. Component labels are canonical:
    the component containing the smallest vertex gets label 0, the component
    containing the smallest vertex not in it gets label 1, and so on. So the
    labels of the slow reference path (`build_isg`), which the realization
    CSV dump writes and clause (iii) of `lattice.verify_open_edge_coupling`
    compares, depend only on the partition. (The trial kernel's probes label
    their cell graphs without this relabel: spanning needs only equality.)
    """

    vertices: np.ndarray
    indptr: np.ndarray
    adj_indices: np.ndarray
    component_label: np.ndarray
    n_components: int

    def __post_init__(self):
        for name in ("vertices", "indptr", "adj_indices", "component_label"):
            getattr(self, name).setflags(write=False)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def neighbors(self, local_v: int) -> np.ndarray:
        return self.adj_indices[self.indptr[local_v]:self.indptr[local_v + 1]]


@dataclass(frozen=True)
class Realization:
    """One sampled world: devices, firewalls, classification and the ISG."""

    config: NetworkConfig
    trial_seed: int
    devices: PointSet
    firewalls: PointSet
    classification: Classification
    isg: IsgGraph


def nearest_firewall_distance(devices: PointSet, firewalls: PointSet,
                              r: float) -> np.ndarray:
    """Per device, the nearest firewall's distance where it is <= r (the bound
    only prunes), some distance > r elsewhere: `dist <= r_f` tests any r_f <= r."""
    if not (r > 0):
        raise ValueError("r_f must be > 0")
    if devices.n == 0 or firewalls.n == 0:
        return np.full(devices.n, np.inf)
    dist, _ = cKDTree(firewalls.points).query(devices.points, k=1,
                                              distance_upper_bound=r * (1 + 1e-9))
    return dist


def classify_devices(devices: PointSet, firewalls: PointSet, r_f: float) -> Classification:
    """Mark device i protected iff its nearest firewall is within r_f (closed)."""
    return Classification(nearest_firewall_distance(devices, firewalls, r_f) <= r_f)


def _canonical_labels(n: int, pairs: np.ndarray) -> tuple[np.ndarray, int]:
    """Connected-component labels over n vertices, canonicalized so label ids
    follow the order of each component's smallest vertex."""
    if n == 0:
        return np.zeros(0, dtype=np.int64), 0
    if len(pairs) == 0:
        return np.arange(n, dtype=np.int64), n
    ones = np.ones(len(pairs), dtype=np.int8)
    graph = sparse.coo_matrix((ones, (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    k, labels = connected_components(graph, directed=False)
    _, first = np.unique(labels, return_index=True)
    remap = np.empty(k, dtype=np.int64)
    remap[np.argsort(first, kind="stable")] = np.arange(k)
    return remap[labels], k


def radius_pairs(xy: np.ndarray, radius: float) -> np.ndarray:
    """All index pairs at Euclidean distance <= radius, as an (m, 2) array."""
    if len(xy) < 2:
        return np.empty((0, 2), dtype=np.int64)
    # sliding-midpoint splits build faster than median splits on uniform
    # points; the pairs found do not depend on the tree's shape
    return cKDTree(xy, balanced_tree=False).query_pairs(radius, output_type="ndarray")


def _graph_from_pairs(vertices: np.ndarray, n_local: int, pairs: np.ndarray) -> IsgGraph:
    labels, k = _canonical_labels(n_local, pairs)
    if len(pairs):
        both = np.concatenate([pairs, pairs[:, ::-1]])
        order = np.lexsort((both[:, 1], both[:, 0]))
        both = both[order]
        counts = np.bincount(both[:, 0], minlength=n_local)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        adj = both[:, 1]
    else:
        indptr = np.zeros(n_local + 1, dtype=np.int64)
        adj = np.empty(0, dtype=np.int64)
    return IsgGraph(vertices=np.asarray(vertices, dtype=np.int64),
                    indptr=np.asarray(indptr, dtype=np.int64),
                    adj_indices=np.asarray(adj, dtype=np.int64),
                    component_label=labels, n_components=k)


def build_rgg(points: PointSet, radius: float) -> IsgGraph:
    """Geometric graph over all points of a set: edges at distance <= radius."""
    if not (radius > 0):
        raise ValueError("radius must be > 0")
    pairs = radius_pairs(points.points, radius)
    return _graph_from_pairs(np.arange(points.n), points.n, pairs)


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


def build_isg(config: NetworkConfig, trial_seed: int) -> Realization:
    """Sample one realization and build its infection-susceptible graph.

    Equivalent to building the full device graph and deleting the protected
    vertices together with their incident edges.
    """
    devices, firewalls, _ = sample_world(config, trial_seed, config.lambda_f)
    classification = classify_devices(devices, firewalls, config.r_f)
    susceptible = classification.susceptible_idx
    pairs = radius_pairs(devices.points.take(susceptible, axis=0), config.r_r)
    isg = _graph_from_pairs(susceptible, len(susceptible), pairs)
    return Realization(config=config, trial_seed=int(trial_seed), devices=devices,
                       firewalls=firewalls, classification=classification, isg=isg)


def save_realization_csv(realization: Realization, path) -> None:
    """Debug dump: rows of `x,y,kind,component`.

    kind is firewall / protected / susceptible; component is the ISG component
    label for susceptible rows and -1 otherwise.
    """
    comp = np.full(realization.devices.n, -1, dtype=np.int64)
    comp[realization.isg.vertices] = realization.isg.component_label
    protected = realization.classification.is_protected
    with open(path, "w") as fh:
        fh.write("x,y,kind,component\n")
        for i, (x, y) in enumerate(realization.devices.points):
            kind = "protected" if protected[i] else "susceptible"
            fh.write(f"{x:.9g},{y:.9g},{kind},{comp[i]}\n")
        for x, y in realization.firewalls.points:
            fh.write(f"{x:.9g},{y:.9g},firewall,-1\n")
