"""Brute-force references shared by the tests. Every distance comes from a
full dx*dx + dy*dy matrix and every component from SciPy's
`connected_components`, so no reference runs the package's cell grid or
labelling. The worlds the tests build are small."""
import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components


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
