"""Hexagonal-face and square-lattice coupling validators."""
import math

import numpy as np
import pytest

from spatial_firewalls import (HexFace, NetworkConfig, SquareEdge, Window,
                               blocking_counterexample_search, build_isg,
                               closed_face_mc_frequency,
                               closed_face_probability,
                               count_dependent_edges_bruteforce,
                               hex_face_closed, independence_offsets,
                               pocket_pair_survey, square_edge_open,
                               subcritical_sufficient_intensity, trial_seed,
                               verify_open_edge_coupling)
from spatial_firewalls.lattice import _points_in_triangle


def test_hexagon_vertices_and_triangles():
    face = HexFace(side=2.0)
    v = face.vertices()
    assert np.allclose(np.linalg.norm(v, axis=1), 2.0)
    tris = face.triangles()
    assert len(tris) == 3
    for tri in tris:
        # equilateral with side r_r, contained in the face
        d = [np.linalg.norm(tri[i] - tri[(i + 1) % 3]) for i in range(3)]
        assert np.allclose(d, 2.0)
        assert face.contains(tri).all()
    # pairwise non-adjacent: triangles share only the center point
    for i in range(3):
        for j in range(i + 1, 3):
            shared = [tuple(p) for p in tris[i] if
                      any(np.allclose(p, q) for q in tris[j])]
            assert shared == [(0.0, 0.0)]


def test_hex_face_closed_cases():
    face = HexFace(side=2.0)
    assert not hex_face_closed(face, np.empty((0, 2)))
    centroids = np.array([tri.mean(axis=0) for tri in face.triangles()])
    assert hex_face_closed(face, centroids)
    assert not hex_face_closed(face, centroids[:2])


def test_closed_face_mc_matches_formula():
    r_r = 2.0
    base = subcritical_sufficient_intensity(r_r)
    for k, mult in enumerate((0.5, 1.0, 2.0)):
        lam = mult * base
        freq = closed_face_mc_frequency(lam, r_r, samples=2000, seed=40 + k)
        p = closed_face_probability(lam, r_r)
        se = math.sqrt(p * (1 - p) / 2000)
        assert abs(freq - p) <= 3 * se


def _closed_face_mc_reference(lambda_f, r_r, samples, seed):
    """Per-sample reference for `closed_face_mc_frequency`: the loop it
    replaced, one Poisson draw and one closure test per sample."""
    face = HexFace(side=r_r)
    v = face.vertices()
    x0, y0 = v[:, 0].min(), v[:, 1].min()
    x1, y1 = v[:, 0].max(), v[:, 1].max()
    area = (x1 - x0) * (y1 - y0)
    rng = np.random.default_rng(seed)
    tris = face.triangles()
    closed = 0
    for _ in range(samples):
        n = int(rng.poisson(lambda_f * area))
        xy = np.column_stack([rng.uniform(x0, x1, n), rng.uniform(y0, y1, n)])
        if n and all(_points_in_triangle(t, xy).any() for t in tris):
            closed += 1
    return closed / samples


@pytest.mark.parametrize("r_r", [1.0, 2.0])
@pytest.mark.parametrize("mult", [0.0, 0.01, 0.5, 2.0])
def test_closed_face_mc_matches_per_sample_reference(mult, r_r):
    # at 0.01 x the subcritical intensity most samples hold no point at all
    lam = mult * subcritical_sufficient_intensity(r_r)
    for samples in (1, 700):
        for seed in (0, 7, 40):
            assert (closed_face_mc_frequency(lam, r_r, samples, seed)
                    == _closed_face_mc_reference(lam, r_r, samples, seed))


def test_blocking_search_no_crossing_pair():
    assert blocking_counterexample_search(2.0, 20000, seed=3) is None


def test_worst_case_fixture_blocks_crossing():
    # firewalls at alternate outer corners, devices at every extreme spot:
    # each device pair is protected on one side or farther apart than r_r
    face = HexFace(side=2.0)
    v = face.vertices()
    firewalls = np.array([v[2], v[4], v[0]])  # one per designated triangle
    tris = face.triangles()
    for fw, tri in zip(firewalls, tris):
        assert any(np.allclose(fw, corner) for corner in tri)
    mids = np.array([(v[k] + v[(k + 1) % 6]) / 2 for k in range(6)])
    devices = np.vstack([v, mids, [[0.0, 0.0]]])
    cover = np.linalg.norm(devices[:, None, :] - firewalls[None, :, :],
                           axis=2).min(axis=1) <= 2.0
    for i in range(len(devices)):
        for j in range(i + 1, len(devices)):
            close = np.linalg.norm(devices[i] - devices[j]) <= 2.0
            assert cover[i] or cover[j] or not close


def test_pocket_pairs_exist_but_never_cross():
    # adversarial placements can leave uncovered pairs inside one sector;
    # crossing pairs must not occur
    survey = pocket_pair_survey(2.0, 100000, seed=11)
    assert survey.crossing_pairs == 0
    assert survey.same_sector_pairs > 0


def test_square_edge_geometry():
    s = 2.0 / math.sqrt(5)
    edge = SquareEdge("h", 3, 4, side=s, r_f=2.0)
    x0, y0, x1, y1 = edge.union_rect()
    assert (x1 - x0, y1 - y0) == pytest.approx((s, 2 * s))
    assert math.hypot(x1 - x0, y1 - y0) == pytest.approx(2.0)  # diagonal = r_r
    ax0, ay0, ax1, ay1 = edge.a_region()
    c = 3  # ceil(sqrt(5) * r_f / r_r)
    assert (ax1 - ax0) / s == pytest.approx(2 * c + 1)
    assert (ay1 - ay0) / s == pytest.approx(2 * c + 2)
    vert = SquareEdge("v", 3, 4, side=s, r_f=2.0)
    vx0, vy0, vx1, vy1 = vert.a_region()
    assert (vx1 - vx0) / s == pytest.approx(2 * c + 2)
    assert (vy1 - vy0) / s == pytest.approx(2 * c + 1)


def test_square_edge_open_cases():
    s = 1.0
    edge = SquareEdge("h", 0, 1, side=s, r_f=1.0)
    (s1, s2) = edge.squares()
    dev_both = np.array([[0.5, 0.5], [0.5, 1.5]])
    assert not square_edge_open(edge, np.empty((0, 2)), np.empty((0, 2)))
    assert not square_edge_open(edge, dev_both[:1], np.empty((0, 2)))
    assert square_edge_open(edge, dev_both, np.empty((0, 2)))
    inside_a = np.array([[edge.a_region()[0] + 0.01, edge.a_region()[1] + 0.01]])
    assert not square_edge_open(edge, dev_both, inside_a)
    outside_a = np.array([[edge.a_region()[2] + 0.5, edge.a_region()[3] + 0.5]])
    assert square_edge_open(edge, dev_both, outside_a)


def test_open_edge_coupling_no_firewalls():
    # every two-sided occupied edge is open without firewalls
    cfg = NetworkConfig(lambda_r=1.5, r_r=2, lambda_f=0, r_f=2,
                        window=Window.square(40), master_seed=3)
    r = build_isg(cfg, trial_seed(3, 0))
    check = verify_open_edge_coupling(r, detail=True)
    assert check.violations == 0
    assert check.open_edges > 100


def test_open_edge_coupling_empty_devices():
    cfg = NetworkConfig(lambda_r=0.0, r_r=2, lambda_f=0.1, r_f=2,
                        window=Window.square(40), master_seed=3)
    r = build_isg(cfg, trial_seed(3, 0))
    check = verify_open_edge_coupling(r, detail=True)
    assert check == (0, 0, 0)


def test_open_edge_coupling_random_mix():
    k = 0
    open_total = 0
    for lr in (0.3, 0.8, 1.5):
        for lf_mult in (0.0, 0.3, 0.8, 1.2):
            lf = lf_mult * subcritical_sufficient_intensity(2.0)
            cfg = NetworkConfig(lambda_r=lr, r_r=2, lambda_f=lf, r_f=2,
                                window=Window.square(50), master_seed=19)
            r = build_isg(cfg, trial_seed(19, k))
            check = verify_open_edge_coupling(r, detail=True)
            assert check.violations == 0
            assert verify_open_edge_coupling(r) == 0   # plain int path agrees
            open_total += check.open_edges
            k += 1
    assert open_total > 0                              # the suite is not vacuous


def test_dependent_edge_count_examples():
    assert count_dependent_edges_bruteforce(4, 3) == 71
    assert count_dependent_edges_bruteforce(2, 2) == 17


def test_dependent_edge_count_matches_formula():
    for a in range(2, 9):
        for b in range(2, 9):
            assert (count_dependent_edges_bruteforce(a, b)
                    == 8 * a * b - 2 * a - 6 * b + 1)


def test_dependent_edge_count_invalid():
    with pytest.raises(ValueError):
        count_dependent_edges_bruteforce(1, 5)
    with pytest.raises(ValueError):
        count_dependent_edges_bruteforce(3, 1)


def _rect_overlap_area(r1, r2):
    w = min(r1[2], r2[2]) - max(r1[0], r2[0])
    h = min(r1[3], r2[3]) - max(r1[1], r2[1])
    return max(w, 0.0) * max(h, 0.0)


@pytest.mark.parametrize("r_f,s", [(1.0, 1.0), (2.0, 2.0 / math.sqrt(5)), (3.3, 0.7)])
def test_independence_offsets_disjoint_oracle(r_f, s):
    dx, dy = independence_offsets(r_f, s)
    c = math.ceil(r_f / s - 1e-9)
    assert (dx, dy) == pytest.approx((2 * s * c, 2 * s * c + 2 * s))
    e1 = SquareEdge("h", 0, 0, side=s, r_f=r_f)
    e2 = SquareEdge("h", int(round(dx / s)), int(round(dy / s)), side=s, r_f=r_f)
    assert _rect_overlap_area(e1.a_region(), e2.a_region()) == pytest.approx(0.0)
    e3 = SquareEdge("h", int(round(dx / s)) - 1, int(round(dy / s)) - 1,
                    side=s, r_f=r_f)
    assert _rect_overlap_area(e1.a_region(), e3.a_region()) > 0


def test_independence_offsets_unit_case():
    assert independence_offsets(1.0, 1.0) == (2.0, 4.0)
