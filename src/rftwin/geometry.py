"""Planar-facet geometry kernels shared by the scene and ray-tracing layers."""

from __future__ import annotations

import numpy as np

COPLANARITY_TOL = 1e-6   # m, max vertex distance from the facet plane
MIN_FACET_AREA = 1e-9    # m^2
_EDGE_TOL = 1e-9         # m^2, point-in-polygon cross-product slack


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


def coplanarity_error(vertices: np.ndarray) -> float:
    """Max distance of the remaining vertices from the plane of the first three."""
    v = np.asarray(vertices, dtype=float)
    if len(v) <= 3:
        return 0.0
    n = facet_normal(v)
    return float(np.max(np.abs((v[3:] - v[0]) @ n)))


def is_convex(vertices: np.ndarray) -> bool:
    """Convexity with winding consistent with the facet normal."""
    v = np.asarray(vertices, dtype=float)
    n = facet_normal(v)
    edges = np.roll(v, -1, axis=0) - v
    return bool(np.all(cross(edges, np.roll(edges, -1, axis=0)) @ n >= -_EDGE_TOL))


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
    """Stacked facet arrays of a snapshot, for vectorized hit/occlusion tests.

    Triangles are padded to quads by repeating the last vertex; the degenerate
    edge has a zero edge normal and never rejects a point.  A pack of many
    snapshots (stacked) has a leading snapshot axis on every array, and
    pack[k] is the pack of snapshot k as views on them.
    """

    def __init__(self, vertex_arrays, normals=None):
        verts = np.empty((len(vertex_arrays), 4, 3))
        for i, v in enumerate(vertex_arrays):
            verts[i] = pad_quad(np.asarray(v, dtype=float))
        if normals is None:
            normals = [facet_normal(v) for v in vertex_arrays]
        self._fill(verts, np.array(normals, dtype=float).reshape(len(verts), 3))

    @classmethod
    def stacked(cls, verts: np.ndarray, normals: np.ndarray) -> FacetPack:
        """Pack of quads (..., F, 4, 3) with unit normals (..., F, 3)."""
        pack = cls.__new__(cls)
        pack._fill(verts, normals)
        return pack

    def _fill(self, verts, normals):
        self.n_facets = verts.shape[-3]
        self.verts, self.normals = verts, normals
        self.offsets = np.einsum("...fj,...fj->...f", normals, verts[..., 0, :])
        # In-plane edge normals n x e, pointing into the facet for a
        # right-handed winding: (e x r) . n = (n x e) . r for r = p - v.
        edges = verts[..., [1, 2, 3, 0], :] - verts
        self.edge_normals = cross(normals[..., None, :], edges)    # (..., F, 4, 3)

    def __getitem__(self, k) -> FacetPack:
        pack = FacetPack.__new__(FacetPack)
        pack.n_facets = self.n_facets
        pack.verts, pack.normals, pack.offsets, pack.edge_normals = (
            self.verts[k], self.normals[k], self.offsets[k], self.edge_normals[k])
        return pack

    def contains(self, points: np.ndarray, facet_idx=None) -> np.ndarray:
        """Point-in-facet mask, the one containment kernel of the tracer.

        With facet_idx, points[..., 3] is tested against facet facet_idx[...]
        (same leading shape).  Without it, points[..., F, 3] is tested against
        the pack, facet f on the second to last axis; a size-1 axis there
        broadcasts against every facet.
        """
        verts, w = self.verts, self.edge_normals
        if facet_idx is not None:
            verts, w = verts[facet_idx], w[facet_idx]
        p = np.asarray(points, dtype=float)[..., None, :]
        side = ((p[..., 0] - verts[..., 0]) * w[..., 0]
                + (p[..., 1] - verts[..., 1]) * w[..., 1]
                + (p[..., 2] - verts[..., 2]) * w[..., 2])
        return np.all(side >= -_EDGE_TOL, axis=-1)

    def segments_blocked(self, starts: np.ndarray, ends: np.ndarray,
                         eps: float, snapshot=None) -> np.ndarray:
        """True per segment if any facet intersects it strictly inside.

        Hits within eps meters of either endpoint do not count, so segments
        that terminate on a facet are not occluded by it.  A stacked pack
        takes each segment's snapshot index in snapshot.
        """
        p = np.atleast_2d(np.asarray(starts, dtype=float))
        q = np.atleast_2d(np.asarray(ends, dtype=float))
        if self.n_facets == 0:
            return np.zeros(len(p), dtype=bool)
        d = q - p                                     # (S, 3)
        lengths = np.linalg.norm(d, axis=1)
        if snapshot is None:
            facets = None
            denom = d @ self.normals.T                # (S, F)
            num = self.offsets[None, :] - p @ self.normals.T
        else:
            facets = (snapshot[:, None], np.arange(self.n_facets))
            normals = self.normals[snapshot]          # (S, F, 3)
            denom = np.einsum("sj,sfj->sf", d, normals)
            num = self.offsets[snapshot] - np.einsum("sj,sfj->sf", p, normals)
        safe = np.abs(denom) > 1e-12
        t = np.where(safe, num / np.where(safe, denom, 1.0), -1.0)
        margin = eps / np.maximum(lengths, 1e-12)
        inside_span = (t > margin[:, None]) & (t < 1.0 - margin[:, None])
        hit = p[:, None, :] + t[..., None] * d[:, None, :]
        return np.any(inside_span & self.contains(hit, facets), axis=1)
