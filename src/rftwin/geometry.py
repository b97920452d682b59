"""Planar-facet geometry kernels shared by the scene and ray-tracing layers."""

from __future__ import annotations

import numpy as np

COPLANARITY_TOL = 1e-6   # m, max vertex distance from the facet plane
MIN_FACET_AREA = 1e-9    # m^2
_EDGE_TOL = 1e-9         # m^2, point-in-polygon cross-product slack
_REACH_SLACK = 1e-5      # m, FacetPack.reach's margin


def unit(v: np.ndarray) -> np.ndarray:
    """v / |v| over the last axis; a zero-length vector raises ValueError.
    The length is sqrt(vecdot(v, v)), the bits of np.linalg.norm of one
    vector."""
    v = np.asarray(v, dtype=float)
    n = np.sqrt(np.vecdot(v, v))
    if np.any(n == 0.0):
        raise ValueError("zero-length vector has no direction")
    return v / n[..., None]


def cross(a, b) -> np.ndarray:
    """Cross product over the last axis, broadcasting, written by component:
    the same bits as numpy's cross without its per-call axis handling.  Two
    single 3-vectors go through Python floats, which is faster at that size."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    single = a.ndim == b.ndim == 1
    (ax, ay, az), (bx, by, bz) = ((v.tolist() if single else (v[..., 0], v[..., 1], v[..., 2]))
                                  for v in (a, b))
    out = [ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx]
    return np.array(out) if single else np.stack(out, axis=-1)


def facet_normal(vertices: np.ndarray) -> np.ndarray:
    """Unit normal from the first three vertices, right-handed in vertex
    order; vertices (..., n, 3) give normals (..., 3)."""
    v = np.asarray(vertices, dtype=float)
    return unit(cross(v[..., 1, :] - v[..., 0, :], v[..., 2, :] - v[..., 0, :]))


def facet_area(vertices: np.ndarray) -> float:
    v = np.asarray(vertices, dtype=float)
    area = 0.0
    for i in range(1, len(v) - 1):
        area += 0.5 * np.linalg.norm(cross(v[i] - v[0], v[i + 1] - v[0]))
    return float(area)


def coplanarity_error(vertices: np.ndarray, normal: np.ndarray) -> float:
    """Max distance of the remaining vertices from the plane of the first
    three, whose unit normal (facet_normal) is given."""
    v = np.asarray(vertices, dtype=float)
    if len(v) <= 3:
        return 0.0
    return float(np.max(np.abs((v[3:] - v[0]) @ normal)))


def is_convex(vertices: np.ndarray, normal: np.ndarray) -> bool:
    """Convexity with winding consistent with the facet's unit normal
    (facet_normal)."""
    v = np.asarray(vertices, dtype=float)
    ahead = np.arange(1, len(v) + 1) % len(v)           # each vertex's successor
    edges = v[ahead] - v
    return bool(np.all(cross(edges, edges[ahead]) @ normal >= -_EDGE_TOL))


def reflect_direction(k_in: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """Mirror law: k_r = k_i - 2 (k_i . n) n, over the last axis."""
    return k_in - 2.0 * np.vecdot(k_in, normal)[..., None] * normal


def yaw_matrix(yaw) -> np.ndarray:
    """Rotation by yaw about z; yaws of shape (...) give (..., 3, 3)."""
    c, s = np.cos(yaw), np.sin(yaw)
    zero, one = np.zeros_like(c), np.ones_like(c)
    return np.stack([np.stack(row, axis=-1)
                     for row in ((c, -s, zero), (s, c, zero), (zero, zero, one))], axis=-2)


def pad_quad(vertices: np.ndarray) -> np.ndarray:
    """A facet's (..., 3 or 4, 3) vertices as a quad: a triangle repeats its
    last vertex."""
    return vertices if vertices.shape[-2] == 4 else vertices[..., [0, 1, 2, 2], :]


class FacetPack:
    """Stacked facet arrays of snapshots, for vectorized hit/occlusion tests.

    Triangles are padded to quads by repeating the last vertex; the degenerate
    edge has a zero edge normal and never rejects a point.  Every array has a
    leading snapshot axis, and pack[k] is the facets of snapshot k as views
    on them.
    """

    @classmethod
    def stacked(cls, verts: np.ndarray, normals: np.ndarray) -> FacetPack:
        """Pack of quads (..., F, 4, 3) with unit normals (..., F, 3)."""
        pack = cls.__new__(cls)
        pack.n_facets = verts.shape[-3]
        pack.verts, pack.normals = verts, normals
        pack.offsets = np.einsum("...fj,...fj->...f", normals, verts[..., 0, :])
        # In-plane edge normals n x e, pointing into the facet for a
        # right-handed winding: (e x r) . n = (n x e) . r for r = p - v.
        edges = verts[..., [1, 2, 3, 0], :] - verts
        pack.edge_normals = cross(normals[..., None, :], edges)    # (..., F, 4, 3)
        return pack

    def __getitem__(self, k) -> FacetPack:
        pack = FacetPack.__new__(FacetPack)
        pack.n_facets = self.n_facets
        pack.verts, pack.normals, pack.offsets, pack.edge_normals = (
            self.verts[k], self.normals[k], self.offsets[k], self.edge_normals[k])
        return pack

    def subset(self, mask) -> FacetPack:
        """The pack of the facets where mask (F,) holds, as C-ordered
        copies (mask indexing would put the facet axis outermost in
        memory)."""
        pack = FacetPack.__new__(FacetPack)
        pack.verts, pack.normals, pack.offsets, pack.edge_normals = (
            np.compress(mask, a, axis=a.ndim - k)
            for a, k in ((self.verts, 3), (self.normals, 2), (self.offsets, 1),
                         (self.edge_normals, 3)))
        pack.n_facets = pack.offsets.shape[-1]
        return pack

    def edge_slack(self) -> np.ndarray:
        """Per facet of a stacked pack, a scale s such that contains
        accepts a point p only if c + (p - c) / (1 + s) is inside the
        facet, c its vertex centroid.

        contains accepts side_e(p) >= -_EDGE_TOL on each edge e; side_e is
        affine, so s = _EDGE_TOL / min_e side_e(c) will do.  (A flat
        _EDGE_TOL / |e| would not: at a sharp corner accepted points lie
        farther from the polygon.)  s depends only on the facet's shape,
        which rigid motion keeps, so it is taken at the first epoch and
        doubled for the rounding of the pose.
        """
        verts, w = self.verts[0], self.edge_normals[0]        # (F, 4, 3)
        side = np.vecdot(verts.mean(axis=1, keepdims=True) - verts, w)
        # The zero edge of a triangle padded to a quad rejects no point.
        side[~w.any(axis=-1)] = np.inf
        return 2.0 * _EDGE_TOL / side.min(axis=1)

    def reach(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper corners (F, 3) of boxes that hold, at every
        epoch of a stacked pack, each point within _REACH_SLACK of a
        facet's plane that contains accepts on that facet.

        Such a point lies in the facet scaled by 1 + s about its centroid,
        s the edge_slack, which moves each coordinate by at most s times
        the facet's extent along it.  _REACH_SLACK adds a quad's lift off
        the plane (at most COPLANARITY_TOL) and the rounding of a segment's
        plane crossing, for scenes within 10 km of the origin.
        """
        lo, hi = self.verts.min(axis=(0, 2)), self.verts.max(axis=(0, 2))
        pad = self.edge_slack()[:, None] * (hi - lo) + _REACH_SLACK
        return lo - pad, hi + pad

    def contains(self, points: np.ndarray, facet_idx) -> np.ndarray:
        """Point-in-facet mask, the one containment kernel of the tracer:
        points[..., 3] is tested against the facets pack.verts[facet_idx]
        (same leading shape), such as an (epochs, facets) index tuple of a
        stacked pack."""
        verts, w = self.verts[facet_idx], self.edge_normals[facet_idx]
        p = np.asarray(points, dtype=float)[..., None, :]
        side = ((p[..., 0] - verts[..., 0]) * w[..., 0]
                + (p[..., 1] - verts[..., 1]) * w[..., 1]
                + (p[..., 2] - verts[..., 2]) * w[..., 2])
        return np.all(side >= -_EDGE_TOL, axis=-1)

    def segments_blocked(self, starts: np.ndarray, ends: np.ndarray,
                         eps: float, snapshot: np.ndarray) -> np.ndarray:
        """True per segment if any facet of its snapshot intersects it
        strictly inside.

        Hits within eps meters of either endpoint do not count, so segments
        that terminate on a facet are not occluded by it.  snapshot holds
        each segment's snapshot index.  Only the (segment, facet) pairs
        whose plane crossing lies inside the span are tested for
        containment.
        """
        p = np.atleast_2d(np.asarray(starts, dtype=float))
        q = np.atleast_2d(np.asarray(ends, dtype=float))
        blocked = np.zeros(len(p), dtype=bool)
        if self.n_facets == 0 or not len(p):
            return blocked
        d = q - p                                     # (S, 3)
        lengths = np.linalg.norm(d, axis=1)
        normals = self.normals[snapshot]              # (S, F, 3)
        denom = np.einsum("sj,sfj->sf", d, normals)
        num = self.offsets[snapshot] - np.einsum("sj,sfj->sf", p, normals)
        safe = np.abs(denom) > 1e-12
        t = np.where(safe, num / np.where(safe, denom, 1.0), -1.0)
        margin = eps / np.maximum(lengths, 1e-12)
        seg, fac = np.nonzero((t > margin[:, None]) & (t < 1.0 - margin[:, None]))
        hit = p[seg] + t[seg, fac][:, None] * d[seg]
        blocked[seg[self.contains(hit, (snapshot[seg], fac))]] = True
        return blocked
