"""Ray tracing over blocks of world snapshots: LOS, specular images, diffuse
samples.

Specular paths come from the image method (Allen & Berkley, 1979), run as
one vectorized pass over a chain table.  For F facets and orders 1..K the
table holds every facet sequence without an immediate repeat,
sum_k F (F-1)^(k-1) chains (301 for F = 7, K = 3), built once per (F, K)
and ordered by order, then facet indices; that is the order paths come out
in.  The pass runs over a SnapshotBlock, with a leading epoch axis on
every array; one instant is the block of one epoch.  It
  0. prunes the table to the chains whose facets can see each other at some
     epoch of the block (the visibility tree of beam tracing, Funkhouser et
     al., 1998): TX in front of the first facet, RX in front of the last,
     and each consecutive pair partly in front of each other.  These are
     loosened forms of the tests of steps 2 and 3, so no survivor is lost;
     the steps below run on the kept rows only,
  1. mirrors the transmitter through every facet prefix (nested images),
  2. intersects back to front, from the receiver through the last facet's
     image to the first, keeping chains whose every hit lies strictly
     inside its image segment,
  3. keeps the chains whose hits lie inside their facets with the points
     before and after each hit strictly in front of it, and
  4. drops chains with an occluded segment, sliced from the same
     (epochs, chains, K+2, 3) point table in one batched occlusion test.
LOS and diffuse tracing run over a block the same way.

Diffuse paths use a deterministic stratified sample pattern per
facet (centroid-jittered grid, seeded from TraceConfig), so reruns of the
same scene and config reproduce the exact same paths.

Every tracer returns a PathTable, the one path form from here to the .cir
file: struct-of-arrays columns, one row per path, with the frame (epoch
within the block) of each row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .geometry import _EDGE_TOL
from .kinematics import SnapshotBlock
from .scene import Scene

_FRONT_EPS = 1e-9   # m, strict front-side margin
_PARAM_EPS = 1e-9   # unitless span margin for image-line intersections
# Rows of one tracing pass over a block of snapshots, epochs times chains
# (image method) or epochs times diffuse samples: bounds its point and
# occlusion tables to a few MB in large scenes.
_CHAIN_ROWS = 1 << 15
_MAX_FACET_SAMPLES = _CHAIN_ROWS    # diffuse samples one facet may have


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
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


KINDS = ("los", "specular", "diffuse")     # path kind code = position


@dataclass
class PathTable:
    """Paths of one link, one row per path, in .cir column order.

    kind indexes KINDS and hops counts interactions.  Rows are right-aligned
    like the chain table: a path of h hops has its facets in facets[i, K-h:]
    (-1 before them) and its points TX, hits..., RX in points[i, K-h:] (TX
    repeated before them), so points[:, -1] is always the receiver.  Facet
    indices are positions in the snapshot's facet list.  sample is the
    diffuse sample index within its facet's pattern and area the patch it
    stands for; they are -1 and 0 for the other kinds.  The tracers fill the
    geometry columns and frame, the row's epoch within the block.
    simulate_cir stacks a block's tables by frame and adds the snapshot
    columns of each row's epoch (SnapshotBlock.attach): velocity beside
    points, the hit facets' normals and the antenna boresights.  Then it
    adds the complex amplitude a, the delay tau [s] and the Doppler nu [Hz].
    The table of a channel.Cir, simulated or read from a .cir file, has
    only the .cir columns and frame, the row's frame in the episode.
    """

    kind: np.ndarray                            # (n,) uint8
    hops: np.ndarray                            # (n,) uint8
    facets: np.ndarray                          # (n, K) int32
    sample: np.ndarray                          # (n,) int32
    points: np.ndarray | None = None            # (n, K + 2, 3)
    area: np.ndarray | None = None              # (n,)
    a: np.ndarray | None = None                 # (n,) complex
    tau: np.ndarray | None = None               # (n,)
    nu: np.ndarray | None = None                # (n,)
    frame: np.ndarray | None = None             # (n,) int
    velocity: np.ndarray | None = None          # (n, K + 2, 3)
    normals: np.ndarray | None = None           # (n, K, 3)
    tx_boresight: np.ndarray | None = None      # (n, 3)
    rx_boresight: np.ndarray | None = None      # (n, 3)

    def __len__(self) -> int:
        return len(self.kind)

    def _columns(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def take(self, rows) -> PathTable:
        """The table restricted to rows (an index array, a mask or a slice)."""
        return PathTable(**{k: None if v is None else v[rows]
                            for k, v in self._columns().items()})

    def cir_columns(self) -> PathTable:
        """The table with only the .cir columns and frame."""
        return PathTable(self.kind, self.hops, self.facets, self.sample,
                         a=self.a, tau=self.tau, nu=self.nu, frame=self.frame)

    @staticmethod
    def concat(tables) -> PathTable:
        """Rows of every table in order, padded on the left to the widest K."""
        k = max(t.facets.shape[1] for t in tables)

        def column(name):
            parts = [getattr(t, name) for t in tables]
            if any(p is None for p in parts):
                return None
            if name in ("facets", "points"):
                parts = [_pad_left(p, k if name == "facets" else k + 2) for p in parts]
            return np.concatenate(parts)
        return PathTable(**{name: column(name) for name in tables[0]._columns()})

    def first(self) -> np.ndarray:
        """Per row, the column of its TX in points, which is also the column
        of its first facet in facets and of its first segment: K - hops."""
        return self.facets.shape[1] - self.hops.astype(int)

    def left_aligned(self) -> tuple[tuple, np.ndarray]:
        """Index that shifts a per-point (n, K + 2, ...) column left so every
        row starts at its TX, and the (n, K + 2) mask of the columns on the
        path.  Past the RX, where the mask is False, the index repeats RX."""
        width = self.points.shape[1]
        cols = np.arange(width) + self.first()[:, None]
        return (np.arange(len(self))[:, None], np.minimum(cols, width - 1)), cols < width

    @staticmethod
    def facet_rows(hops: np.ndarray, flat: np.ndarray) -> np.ndarray:
        """Right-aligned, -1 padded facet rows from their flat concatenation."""
        width = int(hops.max(initial=0))
        facets = np.full((len(hops), width), -1, np.int32)
        facets[_live(hops, width)] = flat
        return facets

    def segment_lengths(self) -> np.ndarray:
        """(n, K + 1) segment lengths, zero over the left padding."""
        return np.linalg.norm(np.diff(self.points, axis=1), axis=2)

    def keys(self) -> list[tuple]:
        """Association key per path, (kind, facet tuple, sample or None);
        stable across the epochs of one simulation."""
        return [(KINDS[k], tuple(f for f in row if f >= 0), None if s < 0 else s)
                for k, row, s in zip(self.kind.tolist(), self.facets.tolist(),
                                     self.sample.tolist())]

    def key_rows(self) -> np.ndarray:
        """The keys as int rows: kind, sample, facets."""
        return np.column_stack([self.kind, self.sample, self.facets]).astype(np.int64)


def _live(hops: np.ndarray, width: int) -> np.ndarray:
    """(n, width) mask of the columns that right-aligned rows of hops
    entries fill."""
    return np.arange(width) >= (width - hops.astype(int))[:, None]


def _pad_left(column: np.ndarray, width: int) -> np.ndarray:
    """Facets padded with -1, or points with their first point (TX), on the
    left to width columns."""
    pad = width - column.shape[1]
    if pad == 0:
        return column
    out = np.empty((len(column), width) + column.shape[2:], column.dtype)
    out[:, :pad] = -1 if column.ndim == 2 else column[:, :1]
    out[:, pad:] = column
    return out


def _table(kind: str, facets, points, sample=None, area=None, frame=None) -> PathTable:
    n = len(facets)
    return PathTable(np.full(n, KINDS.index(kind), np.uint8),
                     np.count_nonzero(facets >= 0, axis=1).astype(np.uint8),
                     facets.astype(np.int32),
                     np.full(n, -1, np.int32) if sample is None else sample.astype(np.int32),
                     points, np.zeros(n) if area is None else area, frame=frame)


def trace_los(block: SnapshotBlock, tx_id: str, rx_id: str,
              config: TraceConfig = TraceConfig()) -> PathTable:
    """Direct path, at most one row per epoch, in epoch order: none where
    it is blocked or for a co-located pair."""
    txp = block.states[tx_id].position
    rxp = block.states[rx_id].position
    apart = rxp - txp
    live = np.sqrt(np.vecdot(apart, apart)) >= 1e-9
    live &= ~block.pack.segments_blocked(txp, rxp, config.occlusion_epsilon,
                                         np.arange(len(block)))
    frame = np.flatnonzero(live)
    return _table("los", np.empty((len(frame), 0), int),
                  np.stack([txp[frame], rxp[frame]], axis=1), frame=frame)


def trace_specular(block: SnapshotBlock, tx_id: str, rx_id: str,
                   config: TraceConfig = TraceConfig()) -> PathTable:
    """Specular paths up to config.max_specular_order, image method.

    Paths come out epoch by epoch, and within an epoch in chain-table
    order: by order, then facet indices.
    """
    k_max = config.max_specular_order
    n_facets = block.pack.n_facets
    if n_facets == 0 or k_max == 0 or not len(block):
        return _table("specular", np.empty((0, k_max), int),
                      np.empty((0, k_max + 2, 3)), frame=np.empty(0, int))

    full = _chain_table(n_facets, k_max)
    step = max(1, _CHAIN_ROWS // len(full.hops))
    tables = []
    for lo in range(0, len(block), step):
        part = block.view(slice(lo, lo + step))
        txp, rxp = part.states[tx_id].position, part.states[rx_id].position
        table = full.subset(np.flatnonzero(_viable_chains(part.pack, txp, rxp, full)
                                           .any(axis=0)))
        ok, pts = _trace_chains(part.pack, txp, rxp, table)
        frame, idx = np.nonzero(ok)
        if idx.size:
            # Occlusion over every segment of every survivor; the zero-length
            # TX -> TX segments of the left padding never count as blocked.
            legs = pts[frame, idx]
            blocked = part.pack.segments_blocked(legs[:, :-1].reshape(-1, 3),
                                                 legs[:, 1:].reshape(-1, 3),
                                                 config.occlusion_epsilon,
                                                 np.repeat(frame, k_max + 1))
            clear = ~blocked.reshape(len(idx), -1).any(axis=1)
            frame, idx = frame[clear], idx[clear]
        tables.append(_table("specular", np.where(table.live[idx], table.seq[idx], -1),
                             pts[frame, idx], frame=lo + frame))
    return tables[0] if len(tables) == 1 else PathTable.concat(tables)


@dataclass(frozen=True)
class _ChainTable:
    """Candidate facet sequences of orders 1..K, one row per chain.

    The full table (_chain_table) holds every sequence without an immediate
    repeat (a facet cannot face itself), sum_k F (F-1)^(k-1) rows by order,
    then facet indices; subset keeps some of its rows in that order.
    Sequences are right-aligned: column K-1 holds every chain's last facet
    and the left padding (0, masked by ``live``) belongs to no chain.
    images[:, c] is the row, in the dense image array, of the image through
    the facet prefix ending at seq[:, c].  The back-to-front pass of the
    image method visits the last facet first, so its step j touches the rows
    with hops > j, the suffix from first[j], using step_facets[j] and the
    nested image in image_rows[j].
    """

    seq: np.ndarray             # (C, K) facet indices
    hops: np.ndarray            # (C,) chain order
    images: np.ndarray          # (C, K) image rows, right-aligned like seq
    live: np.ndarray            # (C, K) True where seq is part of the chain
    first: tuple                # per step j: first row with hops > j
    step_facets: tuple          # per step j: facet of the depth-(hops - j) image
    image_rows: tuple           # per step j: row of that image in the image array

    @classmethod
    def of(cls, seq, hops, images) -> _ChainTable:
        """The table of rows sorted by hops, with the per-step slices."""
        k_max = seq.shape[1]
        first = tuple(int(np.searchsorted(hops, j + 1)) for j in range(k_max))
        return cls(seq, hops, images, _live(hops, k_max), first,
                   tuple(seq[lo:, k_max - 1 - j] for j, lo in enumerate(first)),
                   tuple(images[lo:, k_max - 1 - j] for j, lo in enumerate(first)))

    def subset(self, rows) -> _ChainTable:
        """The table of the given rows, an increasing index array."""
        return _ChainTable.of(self.seq[rows], self.hops[rows], self.images[rows])


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
        code = np.zeros((len(s), k_max), dtype=s.dtype)
        prefix = np.zeros(len(s), dtype=s.dtype)
        for d in range(k):
            prefix = prefix * f + s[:, d]
            code[:, k_max - k + d] = prefix + sum(f ** i for i in range(1, d + 1))
        codes.append(code)
    return _ChainTable.of(np.concatenate(seqs), np.concatenate(hops), np.concatenate(codes))


def _viable_chains(pack, txp, rxp, table: _ChainTable) -> np.ndarray:
    """(E, C) mask of the chains of the table whose facets can see each
    other at each epoch of a stacked pack: TX in front of the first facet,
    RX in front of the last, and each consecutive pair mutually partly in
    front, some point of each facet in front of the other's plane.

    Every chain that _trace_chains keeps is viable at that epoch: its TX and
    RX tests are the full pass's, and each hit it keeps is one that contains
    accepts, in front of the facets before and after it.  contains reaches
    past the vertices in two ways, and the vertex test is widened for both:
      - it accepts side_e(p) >= -_EDGE_TOL on each edge e.  side_e is affine,
        so with c the vertex centroid and s = _EDGE_TOL / min_e side_e(c),
        q = c + (p - c) / (1 + s) is inside, and the distance of p to
        another plane, affine too, is at most hi + s (hi - lo), hi and lo
        its extremes over the vertices.  (A flat _EDGE_TOL / |e| would not
        do: at a sharp corner accepted points lie farther from the polygon.)
      - it sees only the in-plane part of p - v, and a quad's fourth vertex
        may lie off the plane, by lift; projecting the vertices onto the
        plane moves that bound by at most (1 + 2 s) lift.
    s and lift depend only on a facet's shape, which rigid motion keeps, so
    they are taken at the first epoch and doubled for the rounding of the
    pose.  Testing against _FRONT_EPS / 2 covers the rounding of the full
    pass's hits and dot products, a few ulps of the coordinates and images,
    for scenes within 10 km of the origin.
    """
    n, off = pack.normals, pack.offsets                  # (E, F, 3), (E, F)
    e, f = off.shape
    # dist[e, p, b]: point p against the plane of facet b, for the points
    # TX, RX and vertex v of facet a at 2 + v F + a
    points = np.concatenate([txp[:, None], rxp[:, None],
                             pack.verts.transpose(0, 2, 1, 3).reshape(e, 4 * f, 3)], axis=1)
    dist = np.matmul(points, n.transpose(0, 2, 1)) - off[:, None]
    eps = 0.5 * _FRONT_EPS
    tx_front, rx_front = dist[:, 0] > eps, dist[:, 1] > eps
    dist = dist[:, 2:].reshape(e, 4, f, f)
    hi, lo = dist.max(axis=1), dist.min(axis=1)           # (E, a, b)
    verts, w = pack.verts[0], pack.edge_normals[0]        # (F, 4, 3)
    side = np.vecdot(verts.mean(axis=1, keepdims=True) - verts, w)
    # The zero edge of a triangle padded to a quad rejects no point.
    side[~w.any(axis=-1)] = np.inf
    s = 2.0 * _EDGE_TOL / side.min(axis=1)                # (F,)
    lift = 2.0 * np.abs(np.diagonal(dist[0], axis1=1, axis2=2)).max(axis=0)
    partly = hi + s[:, None] * (hi - lo) > (eps - (1.0 + 2.0 * s) * lift)[:, None]
    mutual = (partly & partly.transpose(0, 2, 1)).reshape(e, f * f)
    seq, k_max = table.seq, table.seq.shape[1]
    ok = (tx_front[:, seq[np.arange(len(seq)), k_max - table.hops]]
          & rx_front[:, seq[:, -1]])
    for j in range(k_max - 1):
        ok &= mutual[:, seq[:, j] * f + seq[:, j + 1]] | ~table.live[:, j]
    return ok


def _trace_chains(pack, txp, rxp, table: _ChainTable):
    """All chains of the table through the image method in one pass over a
    stacked pack of E snapshots, with the TX and RX positions txp and rxp
    (E, 3).

    Returns the (E, C) mask of chains that pass the span, front-side and
    containment tests, and the (E, C, K+2, 3) point table: TX, the hits,
    RX, right-aligned like table.seq, with the left padding repeating TX.
    """
    n, off = pack.normals, pack.offsets                  # (E, F, 3), (E, F)
    e, f = off.shape
    k_max = table.seq.shape[1]
    # Depth d images have shape (E, F, ..., F, 3) with d facet axes; the
    # facet arrays broadcast over all but the last of them.
    image = txp[:, None] - 2.0 * (np.matmul(txp[:, None], n.transpose(0, 2, 1))[:, 0]
                                  - off)[..., None] * n
    images = [image]
    for depth in range(1, k_max):
        ones = (1,) * depth
        image = (image[..., None, :]
                 - 2.0 * (np.matmul(image, n.transpose(0, 2, 1).reshape((e,) + ones[1:] + (3, f)))
                          - off.reshape((e,) + ones + (f,)))[..., None]
                 * n.reshape((e,) + ones + (f, 3)))
        images.append(image.reshape(e, -1, 3))
    images = np.concatenate(images, axis=1)

    pts = np.empty((e, len(table.hops), k_max + 2, 3))
    pts[:, :, :-1] = txp[:, None, None]
    pts[:, :, -1] = rxp[:, None]
    ok = np.ones((e, len(table.hops)), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        # Back to front: intersect the line from each image to the point
        # after it (RX first) with the image's facet.
        for j in range(k_max):
            lo, fac, src = table.first[j], table.step_facets[j], images[:, table.image_rows[j]]
            nf = n[:, fac]
            d = pts[:, lo:, k_max + 1 - j] - src
            denom = np.einsum("ecj,ecj->ec", d, nf)
            t = (off[:, fac] - np.einsum("ecj,ecj->ec", src, nf)) / denom
            ok[:, lo:] &= (np.abs(denom) > 1e-12) & (t > _PARAM_EPS) & (t < 1.0 - _PARAM_EPS)
            pts[:, lo:, k_max - j] = src + t[..., None] * d
    # Each hit inside its facet, with the points before and after it
    # strictly in front of the facet; only chains still in span are tested.
    snap, rows = np.nonzero(ok)
    seq, p = table.seq[rows], pts[snap, rows]
    at = (snap[:, None], seq)
    nrm, offs = n[at], off[at]
    good = ((np.einsum("ckj,ckj->ck", p[:, :-2], nrm) - offs > _FRONT_EPS)
            & (np.einsum("ckj,ckj->ck", p[:, 2:], nrm) - offs > _FRONT_EPS)
            & pack.contains(p[:, 1:-1], at))
    ok[snap, rows] = np.all(good | ~table.live[rows], axis=1)
    return ok, pts


@dataclass
class _SamplePattern:
    weights: np.ndarray       # (M, n_vertices) convex vertex weights
    n_samples: int


# Relative slack of the area blocks' ceil: a facet whose area lands a few
# ulps above a multiple of subdivide_area after a rigid move keeps its count.
_AREA_RTOL = 1e-9


def diffuse_sample_count(area: float, config: TraceConfig) -> int:
    """Samples for one facet: base count scaled by area, as a full grid; more
    than _MAX_FACET_SAMPLES (32768) is a ValueError.  The area counts in
    blocks of subdivide_area, rounded up past a relative _AREA_RTOL, so
    the count depends on the facet's shape and not on its pose."""
    blocks = area / config.subdivide_area
    target = config.diffuse_samples_per_facet * max(1, math.ceil(blocks * (1.0 - _AREA_RTOL)))
    side = math.isqrt(target - 1) + 1
    if side * side > _MAX_FACET_SAMPLES:
        raise ValueError(f"diffuse_samples_per_facet = {config.diffuse_samples_per_facet} "
                         f"gives a facet of area {area:.6g} {side * side} samples, above "
                         f"the cap of {_MAX_FACET_SAMPLES}")
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


def trace_diffuse(block: SnapshotBlock, tx_id: str, rx_id: str,
                  config: TraceConfig = TraceConfig(),
                  patterns: dict | None = None) -> PathTable:
    """Single-bounce diffuse paths from the stratified facet samples.

    Samples of facets facing away from either endpoint, or with a blocked
    leg, are dropped; each survivor carries area = facet area / n_samples.
    patterns (from build_sample_patterns) holds the scene facets' patterns;
    without it they are built per call.  Rigid motion leaves both the
    patterns and the facet areas unchanged.  Rows come out by epoch, then
    facet, then sample.
    """
    facets = block.scene.facets if config.diffuse_enabled else []
    if not facets or not len(block):
        return _table("diffuse", np.empty((0, 1), int), np.empty((0, 3, 3)),
                      frame=np.empty(0, int))
    pats = [patterns[f.index] if patterns is not None and f.index in patterns
            else diffuse_sample_pattern(f.index, len(f.vertices), f.area, config)
            for f in facets]
    # Per pattern sample, facet by facet: its facet, index and area.
    counts = [p.n_samples for p in pats]
    owner = np.repeat(np.arange(len(pats)), counts)
    sample = np.concatenate([np.arange(c) for c in counts])
    area = np.repeat([f.area / c for f, c in zip(facets, counts)], counts)
    eps = config.occlusion_epsilon
    step = max(1, _CHAIN_ROWS // len(owner))
    tables = []
    for lo in range(0, len(block), step):
        part = block.view(slice(lo, lo + step))
        pack = part.pack
        txp, rxp = part.states[tx_id].position, part.states[rx_id].position
        front = ((np.einsum("ej,efj->ef", txp, pack.normals) - pack.offsets > _FRONT_EPS)
                 & (np.einsum("ej,efj->ef", rxp, pack.normals) - pack.offsets > _FRONT_EPS))
        frame, rows = np.nonzero(front[:, owner])
        points = np.concatenate([np.matmul(p.weights, pack.verts[:, i, :len(f.vertices)])
                                 for i, (f, p) in enumerate(zip(facets, pats))], axis=1)
        pts = points[frame, rows]
        keep = ~(pack.segments_blocked(txp[frame], pts, eps, frame)
                 | pack.segments_blocked(pts, rxp[frame], eps, frame))
        frame, rows = frame[keep], rows[keep]
        legs = np.stack([txp[frame], pts[keep], rxp[frame]], axis=1)
        tables.append(_table("diffuse", owner[rows, None], legs, sample[rows], area[rows],
                             frame=lo + frame))
    return PathTable.concat(tables)


def build_sample_patterns(scene: Scene, config: TraceConfig) -> dict:
    """Precompute per-facet sample patterns keyed by scene facet index."""
    return {f.index: diffuse_sample_pattern(f.index, len(f.vertices), f.area, config)
            for f in scene.facets}
