"""Ray tracing over one world snapshot: LOS, specular images, diffuse samples.

Specular paths come from the image method (Allen & Berkley, 1979), run as
one vectorized pass over a chain table.  For F facets and orders 1..K the
table holds every facet sequence without an immediate repeat,
sum_k F (F-1)^(k-1) chains (301 for F = 7, K = 3), built once per (F, K)
and ordered by order, then facet indices; that is the order paths come out
in.  Per snapshot the pass
  1. mirrors the transmitter through every facet prefix (nested images),
  2. intersects back to front, from the receiver through the last facet's
     image to the first, keeping chains whose every hit lies strictly
     inside its image segment,
  3. keeps the chains whose hits lie inside their facets with the points
     before and after each hit strictly in front of it, and
  4. drops chains with an occluded segment, sliced from the same
     (chains, K+2, 3) point table in one batched occlusion test.

Diffuse paths use a deterministic stratified sample pattern per
facet (centroid-jittered grid, seeded from TraceConfig), so reruns of the
same scene and config reproduce the exact same paths.

Doppler is assembled analytically: each segment contributes the projection
of its endpoint velocities onto the segment direction.  For specular points
the in-plane migration of the reflection point does not change path length
to first order (the mirror law makes the length stationary), so the rigid
body velocity of the touched facet is exactly the right rate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .geometry import facet_area, reflect_direction, unit
from .kinematics import WorldSnapshot
from .scene import Scene

_FRONT_EPS = 1e-9   # m, strict front-side margin
_PARAM_EPS = 1e-9   # unitless span margin for image-line intersections


@dataclass(frozen=True)
class TraceConfig:
    """Tracer knobs; defaults match the shipped fixtures.

    diffuse_samples_per_facet is a base count; facets larger than
    subdivide_area get proportionally more samples, rounded up to a full
    stratification grid.  The jitter seed makes sample patterns reproducible.
    """

    max_specular_order: int = 2
    diffuse_enabled: bool = True
    diffuse_samples_per_facet: int = 16
    occlusion_epsilon: float = 1e-4
    seed: int = 1729
    subdivide_area: float = 25.0

    def __post_init__(self):
        if not 0 <= self.max_specular_order <= 3:
            raise ValueError("max_specular_order must be between 0 and 3")
        if self.diffuse_samples_per_facet < 1:
            raise ValueError("diffuse_samples_per_facet must be >= 1")
        if self.occlusion_epsilon <= 0:
            raise ValueError("occlusion_epsilon must be positive")


@dataclass
class PathGeometry:
    """One propagation path at one instant.

    points runs TX, interaction(s)..., RX.  k_in/k_out/k_mirror hold the
    incident, outgoing and mirror-law unit vectors per interaction.  For
    diffuse paths effective_area is the patch area represented by the sample
    and sample_index identifies the sample within its facet's pattern.
    """

    kind: str
    tx_id: str
    rx_id: str
    points: np.ndarray
    facet_indices: tuple[int, ...]
    total_length: float
    k_in: np.ndarray
    k_out: np.ndarray
    k_mirror: np.ndarray
    effective_area: float | None = None
    sample_index: int | None = None

    @property
    def order(self) -> int:
        return len(self.facet_indices)

    @property
    def departure(self) -> np.ndarray:
        return unit(self.points[1] - self.points[0])

    @property
    def arrival(self) -> np.ndarray:
        return unit(self.points[-1] - self.points[-2])

    @property
    def segment_lengths(self) -> np.ndarray:
        return np.linalg.norm(np.diff(self.points, axis=0), axis=1)

    @property
    def key(self) -> tuple:
        """Association key, stable across epochs of one simulation."""
        return (self.kind, self.facet_indices, self.sample_index)


def _path_from_points(kind, tx_id, rx_id, points, facet_indices, normals,
                      effective_area=None, sample_index=None) -> PathGeometry:
    pts = np.asarray(points, dtype=float)
    segs = np.diff(pts, axis=0)
    lengths = np.linalg.norm(segs, axis=1)
    units = segs / lengths[:, None]
    k_in = units[:-1] if len(facet_indices) else np.zeros((0, 3))
    k_out = units[1:] if len(facet_indices) else np.zeros((0, 3))
    k_mirror = np.array([reflect_direction(k_in[i], normals[i])
                         for i in range(len(facet_indices))]).reshape(-1, 3)
    return PathGeometry(kind, tx_id, rx_id, pts, tuple(facet_indices),
                        float(lengths.sum()), k_in, k_out, k_mirror,
                        effective_area, sample_index)


def trace_los(snap: WorldSnapshot, tx_id: str, rx_id: str,
              config: TraceConfig = TraceConfig()) -> PathGeometry | None:
    """Direct path, or None when blocked or for a co-located pair."""
    txp = snap.transceiver_state(tx_id).position
    rxp = snap.transceiver_state(rx_id).position
    if np.linalg.norm(rxp - txp) < 1e-9:
        return None
    blocked = snap.pack.segments_blocked(txp[None], rxp[None],
                                         config.occlusion_epsilon)
    if bool(blocked[0]):
        return None
    return _path_from_points("los", tx_id, rx_id, [txp, rxp], (), [])


def trace_specular(snap: WorldSnapshot, tx_id: str, rx_id: str,
                   config: TraceConfig = TraceConfig()) -> list[PathGeometry]:
    """Specular paths up to config.max_specular_order, image method.

    Paths come out in chain-table order: by order, then facet indices.
    """
    txp = snap.transceiver_state(tx_id).position
    rxp = snap.transceiver_state(rx_id).position
    pack = snap.pack
    if pack.n_facets == 0 or config.max_specular_order == 0:
        return []

    table = _chain_table(pack.n_facets, config.max_specular_order)
    ok, pts = _trace_chains(pack, txp, rxp, table)
    idx = np.flatnonzero(ok)
    if idx.size:
        # Occlusion over every segment of every survivor; the zero-length
        # TX -> TX segments of the left padding never count as blocked.
        legs = pts[idx]
        blocked = pack.segments_blocked(legs[:, :-1].reshape(-1, 3),
                                        legs[:, 1:].reshape(-1, 3),
                                        config.occlusion_epsilon)
        idx = idx[~blocked.reshape(len(idx), -1).any(axis=1)]

    paths = []
    for c in idx:
        h = table.hops[c]
        seq = table.seq[c, -h:]
        paths.append(_path_from_points("specular", tx_id, rx_id, pts[c, -h - 2:],
                                       tuple(seq.tolist()), pack.normals[seq]))
    return paths


@dataclass(frozen=True)
class _ChainTable:
    """Every candidate facet sequence of orders 1..K, one row per chain.

    Rows run by order, then facet indices, and exclude immediate repeats
    (a facet cannot face itself), so there are sum_k F (F-1)^(k-1) of them.
    Sequences are right-aligned: column K-1 holds every chain's last facet
    and the left padding (0, masked by ``live``) belongs to no chain.
    The back-to-front pass of the image method visits the last facet first,
    so its step j touches the rows with hops > j, the suffix from first[j],
    using step_facets[j] and the nested image in image_rows[j].
    """

    seq: np.ndarray             # (C, K) facet indices
    hops: np.ndarray            # (C,) chain order
    live: np.ndarray            # (C, K) True where seq is part of the chain
    first: tuple                # per step j: first row with hops > j
    step_facets: tuple          # per step j: facet of the depth-(hops - j) image
    image_rows: tuple           # per step j: row of that image in the image array


@functools.lru_cache(maxsize=8)
def _chain_table(n_facets: int, max_order: int) -> _ChainTable:
    """Chain table for a facet count, cached: it depends on nothing else.

    Nested images are stored densely, depth d over every d-facet prefix, in
    one array with depth d starting at row F + F^2 + ... + F^(d-1).
    """
    f, k_max = n_facets, max_order
    seqs, hops, codes = [], [], []
    for k in range(1, k_max + 1):
        s = np.indices((f,) * k).reshape(k, -1).T
        s = s[np.all(s[:, 1:] != s[:, :-1], axis=1)]
        seqs.append(np.pad(s, ((0, 0), (k_max - k, 0))))
        hops.append(np.full(len(s), k))
        # code[:, d] is the image row of the depth-(d+1) prefix
        code = np.empty_like(s)
        prefix = np.zeros(len(s), dtype=s.dtype)
        for d in range(k):
            prefix = prefix * f + s[:, d]
            code[:, d] = prefix + sum(f ** i for i in range(1, d + 1))
        codes.append(code)
    seq = np.concatenate(seqs)
    hop = np.concatenate(hops)
    first, step_facets, image_rows = [], [], []
    for j in range(k_max):
        first.append(int(np.searchsorted(hop, j + 1)))
        step_facets.append(seq[first[-1]:, k_max - 1 - j])
        image_rows.append(np.concatenate([c[:, c.shape[1] - 1 - j]
                                          for c in codes if c.shape[1] > j]))
    live = np.arange(k_max)[None, :] >= (k_max - hop)[:, None]
    return _ChainTable(seq, hop, live, tuple(first), tuple(step_facets),
                      tuple(image_rows))


def _trace_chains(pack, txp, rxp, table: _ChainTable):
    """All chains of the table through the image method in one pass.

    Returns the mask of chains that pass the span, front-side and
    containment tests, and the (C, K+2, 3) point table: TX, the hits, RX,
    right-aligned like table.seq, with the left padding repeating TX.
    """
    n, off = pack.normals, pack.offsets
    k_max = table.seq.shape[1]
    image = txp - 2.0 * (txp @ n.T - off)[:, None] * n
    images = [image]
    for _ in range(1, k_max):
        image = image[..., None, :] - 2.0 * (image @ n.T - off)[..., None] * n
        images.append(image.reshape(-1, 3))
    images = np.concatenate(images)

    pts = np.empty((len(table.hops), k_max + 2, 3))
    pts[:, :-1] = txp
    pts[:, -1] = rxp
    ok = np.ones(len(table.hops), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        # Back to front: intersect the line from each image to the point
        # after it (RX first) with the image's facet.
        for j in range(k_max):
            lo, fac, src = table.first[j], table.step_facets[j], images[table.image_rows[j]]
            nf = n[fac]
            d = pts[lo:, k_max + 1 - j] - src
            denom = np.einsum("cj,cj->c", d, nf)
            t = (off[fac] - np.einsum("cj,cj->c", src, nf)) / denom
            ok[lo:] &= (np.abs(denom) > 1e-12) & (t > _PARAM_EPS) & (t < 1.0 - _PARAM_EPS)
            pts[lo:, k_max - j] = src + t[:, None] * d
    # Each hit inside its facet, with the points before and after it
    # strictly in front of the facet; only chains still in span are tested.
    rows = np.flatnonzero(ok)
    seq, p = table.seq[rows], pts[rows]
    nrm, offs = n[seq], off[seq]
    good = ((np.einsum("ckj,ckj->ck", p[:, :-2], nrm) - offs > _FRONT_EPS)
            & (np.einsum("ckj,ckj->ck", p[:, 2:], nrm) - offs > _FRONT_EPS)
            & pack.contains(p[:, 1:-1], seq))
    ok[rows] = np.all(good | ~table.live[rows], axis=1)
    return ok, pts


@dataclass
class _SamplePattern:
    weights: np.ndarray       # (M, n_vertices) convex vertex weights
    n_samples: int


def diffuse_sample_count(area: float, config: TraceConfig) -> int:
    """Samples for one facet: base count scaled by area, as a full grid."""
    target = config.diffuse_samples_per_facet * max(
        1, int(np.ceil(area / config.subdivide_area)))
    side = int(np.ceil(np.sqrt(target)))
    return side * side


def diffuse_sample_pattern(facet_index: int, n_vertices: int, area: float,
                           config: TraceConfig) -> _SamplePattern:
    """Deterministic stratified pattern in facet parameter space.

    A sqrt(n) x sqrt(n) grid jittered around each cell centroid, seeded by
    (config.seed, facet index).  Quads map bilinearly, triangles through the
    folded-square map, both expressed as convex weights over the vertices so
    world points are a single matrix product with the posed vertices.
    """
    m = diffuse_sample_count(area, config)
    side = int(round(np.sqrt(m)))
    rng = np.random.default_rng([config.seed, facet_index])
    jitter = 0.8 * (rng.random((m, 2)) - 0.5)
    grid = np.stack(np.meshgrid(np.arange(side), np.arange(side),
                                indexing="ij"), axis=-1).reshape(-1, 2)
    uv = (grid + 0.5 + jitter) / side
    u, v = uv[:, 0], uv[:, 1]
    if n_vertices == 4:
        weights = np.stack([(1 - u) * (1 - v), u * (1 - v), u * v, (1 - u) * v], axis=1)
    else:
        fold = u + v > 1.0
        u = np.where(fold, 1.0 - u, u)
        v = np.where(fold, 1.0 - v, v)
        weights = np.stack([1.0 - u - v, u, v], axis=1)
    return _SamplePattern(weights, m)


def trace_diffuse(snap: WorldSnapshot, tx_id: str, rx_id: str,
                  config: TraceConfig = TraceConfig(),
                  patterns: dict | None = None) -> list[PathGeometry]:
    """Single-bounce diffuse paths from the stratified facet samples.

    Samples facing away from either endpoint or with a blocked leg are
    dropped; each survivor carries effective_area = facet area / n_samples.
    """
    if not config.diffuse_enabled or snap.pack.n_facets == 0:
        return []
    txp = snap.transceiver_state(tx_id).position
    rxp = snap.transceiver_state(rx_id).position
    pack = snap.pack

    points, owners, sample_ids, areas = [], [], [], []
    for fi, facet in enumerate(snap.facets):
        sd_tx = float(txp @ pack.normals[fi]) - pack.offsets[fi]
        sd_rx = float(rxp @ pack.normals[fi]) - pack.offsets[fi]
        if sd_tx <= _FRONT_EPS or sd_rx <= _FRONT_EPS:
            continue
        nv = len(facet.vertices)
        area = facet_area(facet.vertices)
        if patterns is not None and facet.index in patterns:
            pat = patterns[facet.index]
        else:
            pat = diffuse_sample_pattern(facet.index, nv, area, config)
        pts = pat.weights @ facet.vertices[:nv]
        points.append(pts)
        owners.append(np.full(pat.n_samples, fi))
        sample_ids.append(np.arange(pat.n_samples))
        areas.append(np.full(pat.n_samples, area / pat.n_samples))
    if not points:
        return []

    pts = np.concatenate(points)
    owners = np.concatenate(owners)
    sample_ids = np.concatenate(sample_ids)
    areas = np.concatenate(areas)

    blocked_in = pack.segments_blocked(np.broadcast_to(txp, pts.shape), pts,
                                       config.occlusion_epsilon)
    blocked_out = pack.segments_blocked(pts, np.broadcast_to(rxp, pts.shape),
                                        config.occlusion_epsilon)
    keep = ~(blocked_in | blocked_out)

    paths = []
    for p, fi, si, a in zip(pts[keep], owners[keep], sample_ids[keep], areas[keep]):
        paths.append(_path_from_points(
            "diffuse", tx_id, rx_id, [txp, p, rxp], (int(snap.facets[fi].index),),
            [pack.normals[fi]], effective_area=float(a), sample_index=int(si)))
    return paths


def build_sample_patterns(scene: Scene, config: TraceConfig) -> dict:
    """Precompute per-facet sample patterns keyed by scene facet index."""
    return {f.index: diffuse_sample_pattern(f.index, len(f.vertices), f.area, config)
            for f in scene.facets}


def path_doppler(path: PathGeometry, snap: WorldSnapshot, f_c: float,
                 speed_of_light: float | None = None) -> float:
    """Doppler shift in Hz; positive while the total path length shrinks.

    nu = -(f_c / c) d(total_length)/dt, with the rate assembled from the
    snapshot velocity field at the two endpoints and every interaction point.
    """
    from .em import SPEED_OF_LIGHT
    c = SPEED_OF_LIGHT if speed_of_light is None else speed_of_light
    vels = [snap.transceiver_state(path.tx_id).velocity]
    for fi, pt in zip(path.facet_indices, path.points[1:-1]):
        vels.append(snap.point_velocity(fi, pt))
    vels.append(snap.transceiver_state(path.rx_id).velocity)
    vels = np.asarray(vels)
    segs = np.diff(path.points, axis=0)
    units = segs / np.linalg.norm(segs, axis=1)[:, None]
    rate = float(np.einsum("sj,sj->", units, np.diff(vels, axis=0)))
    return -(f_c / c) * rate
