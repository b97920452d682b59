"""Planar-facet geometry kernels shared by the scene and ray-tracing layers."""

from __future__ import annotations

import numpy as np

COPLANARITY_TOL = 1e-6   # m, max vertex distance from the facet plane
MIN_FACET_AREA = 1e-9    # m^2
_EDGE_TOL = 1e-9         # m^2, point-in-polygon cross-product slack


def unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("zero-length vector has no direction")
    return v / n


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
    """Unit normal from the first three vertices, right-handed in vertex order."""
    v = np.asarray(vertices, dtype=float)
    return unit(cross(v[1] - v[0], v[2] - v[0]))


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


def yaw_matrix(yaw: float) -> np.ndarray:
    c, s = np.cos(yaw), np.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class FacetPack:
    """Stacked facet arrays for one snapshot, for vectorized hit/occlusion tests.

    Triangles are padded to quads by repeating the last vertex; the degenerate
    edge has a zero edge normal and never rejects a point.
    """

    def __init__(self, vertex_arrays, normals=None):
        f = len(vertex_arrays)
        verts = np.empty((f, 4, 3))
        for i, v in enumerate(vertex_arrays):
            v = np.asarray(v, dtype=float)
            verts[i, : len(v)] = v
            if len(v) == 3:
                verts[i, 3] = v[2]
        self.n_facets = f
        self.verts = verts
        if normals is None:
            normals = [facet_normal(v) for v in vertex_arrays]
        self.normals = np.array(normals, dtype=float).reshape(f, 3)
        self.offsets = np.einsum("fj,fj->f", self.normals, verts[:, 0])
        # In-plane edge normals n x e, pointing into the facet for a
        # right-handed winding: (e x r) . n = (n x e) . r for r = p - v.
        edges = verts[:, [1, 2, 3, 0]] - verts
        self.edge_normals = cross(self.normals[:, None], edges)    # (F, 4, 3)

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
                         eps: float) -> np.ndarray:
        """True per segment if any facet intersects it strictly inside.

        Hits within eps meters of either endpoint do not count, so segments
        that terminate on a facet are not occluded by it.
        """
        p = np.atleast_2d(np.asarray(starts, dtype=float))
        q = np.atleast_2d(np.asarray(ends, dtype=float))
        if self.n_facets == 0:
            return np.zeros(len(p), dtype=bool)
        d = q - p                                     # (S, 3)
        lengths = np.linalg.norm(d, axis=1)
        denom = d @ self.normals.T                    # (S, F)
        num = self.offsets[None, :] - p @ self.normals.T
        safe = np.abs(denom) > 1e-12
        t = np.where(safe, num / np.where(safe, denom, 1.0), -1.0)
        margin = eps / np.maximum(lengths, 1e-12)
        inside_span = (t > margin[:, None]) & (t < 1.0 - margin[:, None])
        hit = p[:, None, :] + t[..., None] * d[:, None, :]
        return np.any(inside_span & self.contains(hit), axis=1)

