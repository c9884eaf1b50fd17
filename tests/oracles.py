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
