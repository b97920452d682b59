"""Geometry kernels checked against closed forms and scalar brute force."""

import numpy as np
import pytest

from rftwin.geometry import (
    _EDGE_TOL,
    FacetPack,
    coplanarity_error,
    cross,
    facet_area,
    facet_normal,
    is_convex,
    pad_quad,
    reflect_direction,
    unit,
    yaw_matrix,
)

SQUARE_XY = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                      [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])


def pack_of(*worlds):
    """Stacked pack of one list of facet vertex arrays per snapshot."""
    verts = np.array([[pad_quad(np.asarray(v, dtype=float)) for v in w] for w in worlds])
    normals = np.array([[facet_normal(v) for v in w] for w in worlds])
    return FacetPack.stacked(verts, normals)


def in_first_facet(pack, points):
    """contains of each point (n, 3) against facet 0 of snapshot 0."""
    zero = np.zeros(len(points), int)
    return pack.contains(points, (zero, zero))


def blocked(pack, starts, ends, eps):
    """segments_blocked of every segment in snapshot 0."""
    return pack.segments_blocked(starts, ends, eps, np.zeros(len(starts), int))


def segment_hits_facet(p, q, vertices, eps=0.0):
    """Scalar reference: intersection point of segment pq with one facet,
    or None.  Hits within eps meters of either endpoint do not count."""
    v = np.asarray(vertices, dtype=float)
    n = facet_normal(v)
    d = q - p
    denom = float(np.dot(d, n))
    if abs(denom) < 1e-12:
        return None
    t = (float(np.dot(n, v[0])) - float(np.dot(p, n))) / denom
    margin = eps / max(float(np.linalg.norm(d)), 1e-12)
    if not (margin < t < 1.0 - margin):
        return None
    x = p + t * d
    if not in_first_facet(pack_of([v]), x[None])[0]:
        return None
    return x


def random_convex_polygon(rng, n_vertices):
    """Convex planar polygon in a random orientation, plus its 2D shoelace area.

    Vertices sit on a circle in angular order (hence convex), then go through
    a random invertible affine map, which preserves convexity.
    """
    angles = 2.0 * np.pi * (np.arange(n_vertices)
                            + rng.uniform(0.15, 0.85, n_vertices)) / n_vertices
    pts2 = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    mat = rng.normal(size=(2, 2))
    while abs(np.linalg.det(mat)) < 0.3:
        mat = rng.normal(size=(2, 2))
    hull2 = pts2 @ mat.T
    shoelace = 0.5 * abs(np.sum(
        hull2[:, 0] * np.roll(hull2[:, 1], -1) - np.roll(hull2[:, 0], -1) * hull2[:, 1]))
    # random orthonormal frame
    a = unit(rng.normal(size=3))
    b = unit(np.cross(a, rng.normal(size=3)))
    c = np.cross(a, b)
    origin = rng.normal(size=3)
    verts = origin + hull2[:, 0][:, None] * b + hull2[:, 1][:, None] * c
    return verts, shoelace


def test_unit_normalizes_and_rejects_zero():
    v = unit(np.array([3.0, 0.0, 4.0]))
    assert np.allclose(v, [0.6, 0.0, 0.8])
    with pytest.raises(ValueError):
        unit(np.zeros(3))


def test_facet_normal_follows_winding():
    assert np.allclose(facet_normal(SQUARE_XY), [0.0, 0.0, 1.0])
    assert np.allclose(facet_normal(SQUARE_XY[::-1]), [0.0, 0.0, -1.0])


def test_cross_is_numpy_cross_bit_for_bit():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=(2, 50, 3)) * 10.0 ** rng.integers(-8, 8, size=(2, 50, 1))
    assert cross(a, b).tobytes() == np.cross(a, b).tobytes()
    assert cross(a[:, None], b[None]).tobytes() == np.cross(a[:, None], b[None]).tobytes()
    for u, v in zip(a, b):
        assert cross(u, v).tobytes() == np.cross(u, v).tobytes()


def test_facet_area_matches_shoelace_oracle():
    rng = np.random.default_rng(11)
    for n in (3, 4, 4, 5, 6):
        verts, shoelace = random_convex_polygon(rng, n)
        assert facet_area(verts) == pytest.approx(shoelace, rel=1e-12)


def test_coplanarity_error_measures_out_of_plane_offset():
    assert coplanarity_error(SQUARE_XY, facet_normal(SQUARE_XY)) == 0.0
    bent = SQUARE_XY.copy()
    bent[3, 2] = 0.01
    assert coplanarity_error(bent, facet_normal(bent)) == pytest.approx(0.01, rel=1e-12)


def test_is_convex_accepts_square_rejects_chevron():
    assert is_convex(SQUARE_XY, facet_normal(SQUARE_XY))
    chevron = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0],
                        [1.0, 0.2, 0.0], [2.0, 1.0, 0.0]])
    assert not is_convex(chevron, facet_normal(chevron))


def test_is_convex_matches_the_rolled_edge_test():
    """Successor edges taken by index decide as np.roll did, on random
    triangles and quads, some convex, some not, some wound backwards."""
    rng = np.random.default_rng(17)
    verdicts = []
    for n in (3, 4) * 100:
        v = rng.normal(size=(n, 3))
        v[3:] -= ((v[3:] - v[0]) @ facet_normal(v))[:, None] * facet_normal(v)
        normal = facet_normal(v) * rng.choice([1.0, -1.0])
        edges = np.roll(v, -1, axis=0) - v
        rolled = bool(np.all(np.cross(edges, np.roll(edges, -1, axis=0)) @ normal >= -_EDGE_TOL))
        assert is_convex(v, normal) == rolled
        verdicts.append(rolled)
    assert 0 < sum(verdicts) < len(verdicts)


def test_mirror_point_involution_and_midpoint_on_plane():
    def mirror_point(p, n, offset):
        """Point mirror across {x : n . x = offset}: the mirror law about the
        plane point offset * n."""
        return offset * n + reflect_direction(p - offset * n, n)

    rng = np.random.default_rng(5)
    for _ in range(20):
        n = unit(rng.normal(size=3))
        offset = float(rng.normal())
        p = rng.normal(size=3)
        m = mirror_point(p, n, offset)
        assert np.allclose(mirror_point(m, n, offset), p, atol=1e-12)
        assert float(0.5 * (p + m) @ n) == pytest.approx(offset, abs=1e-12)
    assert np.allclose(mirror_point(np.array([1.0, 2.0, 3.0]),
                                    np.array([0.0, 0.0, 1.0]), 0.0),
                       [1.0, 2.0, -3.0])


def test_reflect_direction_mirror_law():
    k = reflect_direction(np.array([1.0, 0.0, -1.0]), np.array([0.0, 0.0, 1.0]))
    assert np.allclose(k, [1.0, 0.0, 1.0])
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = unit(rng.normal(size=3))
        k_in = unit(rng.normal(size=3))
        k_out = reflect_direction(k_in, n)
        assert np.linalg.norm(k_out) == pytest.approx(1.0, abs=1e-12)
        # tangential component preserved, normal component flipped
        assert float(k_out @ n) == pytest.approx(-float(k_in @ n), abs=1e-12)


def test_yaw_matrix_rotates_x_to_y():
    r = yaw_matrix(np.pi / 2)
    assert np.allclose(r @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-12)
    assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)


def test_contains_accepts_convex_interior_rejects_exterior():
    rng = np.random.default_rng(7)
    verts, _ = random_convex_polygon(rng, 4)
    pack = pack_of([verts])
    # interior points from strictly positive convex weights
    w = rng.dirichlet(np.ones(4), size=50) * 0.9 + 0.025
    w /= w.sum(axis=1, keepdims=True)
    inside = w @ verts
    assert np.all(in_first_facet(pack, inside))
    # points pushed out past each edge midpoint
    centroid = verts.mean(axis=0)
    mids = 0.5 * (verts + np.roll(verts, -1, axis=0))
    outside = centroid + 1.3 * (mids - centroid)
    assert not np.any(in_first_facet(pack, outside))


def test_contains_triangle_uses_padded_vertex():
    tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    pack = pack_of([tri])
    assert in_first_facet(pack, np.array([[0.2, 0.2, 0.0]]))[0]
    assert not in_first_facet(pack, np.array([[0.7, 0.7, 0.0]]))[0]


def test_reach_holds_every_point_contains_accepts():
    """Points that contains accepts just outside each corner of a facet,
    where the slack of its two edges meets, and off the plane, lie in the
    facet's reach over both epochs: slivers with corners of 1e-7 rad,
    triangles and quads, up to 10 km from the origin."""
    rng = np.random.default_rng(11)
    tol = 0.9e-9                                     # within contains' _EDGE_TOL
    sliver = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0], [5.0, 1e-6, 0.0]])
    shapes = [sliver, sliver[[0, 1, 2, 2]] + [0.0, 0.0, 1.0],
              *(random_convex_polygon(rng, n)[0] for n in (3, 4, 4))]
    shifts = [np.zeros(3), [7990.0, -5990.0, 0.0], rng.uniform(-5770.0, 5770.0, 3)]
    accepted = 0
    for verts in shapes:
        for shift in shifts:
            # Two epochs 1 mm apart along the normal.
            v = verts + shift
            n = facet_normal(v)
            pack = pack_of([v], [v + 1e-3 * n])
            lo, hi = pack.reach()
            w = np.cross(n, np.roll(v, -1, axis=0) - v)        # side_e = (p - v_e) . w_e
            for i in range(len(v)):
                a, b = w[i - 1], w[i]
                if not a.any() or not b.any():
                    continue
                gram = np.array([[a @ a, a @ b], [a @ b, b @ b]])
                x, y = np.linalg.solve(gram, [-tol, -tol])
                for lift in (0.0, 5e-6, -5e-6):
                    p = v[i] + x * a + y * b + lift * n
                    if in_first_facet(pack, p[None])[0]:
                        accepted += 1
                        assert np.all(lo[0] <= p) and np.all(p <= hi[0])
    assert accepted >= 40


def test_segments_blocked_matches_scalar_brute_force():
    rng = np.random.default_rng(8)
    facets = [random_convex_polygon(rng, n)[0] for n in (3, 4, 4)]
    pack = pack_of(facets)
    starts = rng.normal(scale=2.0, size=(200, 3))
    ends = rng.normal(scale=2.0, size=(200, 3))
    eps = 1e-4
    fast = blocked(pack, starts, ends, eps)
    slow = np.array([
        any(segment_hits_facet(p, q, v, eps) is not None for v in facets)
        for p, q in zip(starts, ends)
    ])
    assert np.array_equal(fast, slow)
    # A stacked pack of five snapshots, each segment tested in its own.
    worlds = [[random_convex_polygon(rng, n)[0] for n in (3, 4, 4)] for _ in range(5)]
    stacked = pack_of(*worlds)
    snapshot = rng.integers(0, len(worlds), len(starts))
    fast = stacked.segments_blocked(starts, ends, eps, snapshot)
    slow = np.array([
        any(segment_hits_facet(p, q, v, eps) is not None for v in worlds[k])
        for p, q, k in zip(starts, ends, snapshot)
    ])
    assert np.array_equal(fast, slow)
    assert 0 < np.count_nonzero(slow) < len(slow)


def test_segments_touching_a_facet_are_not_blocked_by_it():
    pack = pack_of([SQUARE_XY])
    on_facet = np.array([0.5, 0.5, 0.0])
    above = np.array([0.5, 0.5, 1.0])
    below = np.array([0.5, 0.5, -1.0])
    assert not blocked(pack, above[None], on_facet[None], 1e-4)[0]
    assert blocked(pack, above[None], below[None], 1e-4)[0]


def test_segment_parallel_to_plane_is_clear():
    pack = pack_of([SQUARE_XY])
    p = np.array([0.1, 0.1, 0.5])
    q = np.array([0.9, 0.9, 0.5])
    assert not blocked(pack, p[None], q[None], 1e-4)[0]
    assert segment_hits_facet(p, q, SQUARE_XY) is None


def test_segment_hits_facet_returns_crossing_point():
    hit = segment_hits_facet(np.array([0.25, 0.5, 1.0]),
                             np.array([0.25, 0.5, -1.0]), SQUARE_XY)
    assert np.allclose(hit, [0.25, 0.5, 0.0], atol=1e-12)
    miss = segment_hits_facet(np.array([2.0, 2.0, 1.0]),
                              np.array([2.0, 2.0, -1.0]), SQUARE_XY)
    assert miss is None
