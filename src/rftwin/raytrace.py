"""Ray tracing over blocks of world snapshots: LOS, specular images, diffuse
samples.

Specular paths come from the image method (Allen & Berkley, 1979), run as
one vectorized pass over the chains of a visibility tree (beam tracing,
Funkhouser et al., 1998).  A chain is a facet sequence of order 1..K
without an immediate repeat; of the sum_k F (F-1)^(k-1) such sequences
(301 for F = 7, K = 3) only those whose facets can see each other are
built.  Chains come out by order, then facet indices; that is the order
paths come out in.  The pass runs over a SnapshotBlock, with a leading
epoch axis on every array; one instant is the block of one epoch.  It
  0. grows the chains prefix by prefix from per-epoch front tests: TX in
     front of the first facet, each consecutive pair partly in front of
     each other, and RX in front of the last.  These are loosened forms of
     the tests of steps 2 and 3, so no survivor is lost,
  1. mirrors the transmitter through the grown prefixes only, depth by
     depth (nested images),
  2. intersects back to front, from the receiver through the last facet's
     image to the first, keeping chains whose every hit lies strictly
     inside its image segment,
  3. keeps the chains whose hits lie inside their facets with the points
     before and after each hit strictly in front of it, and
  4. drops chains with an occluded segment, sliced from the same
     (epochs, chains, K+2, 3) point table in one batched occlusion test.
LOS and diffuse tracing run over a block the same way.  A tracer traces
the whole block it is given, save a specular block that outgrows _CHAIN_ROWS.

Diffuse paths use a deterministic stratified sample pattern per
facet (centroid-jittered grid, seeded from TraceConfig), so reruns of the
same scene and config reproduce the exact same paths.

Every tracer returns a PathTable, the one path form from here to the .cir
file: struct-of-arrays columns, one row per path, with the frame (epoch
within the block) of each row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .kinematics import SnapshotBlock
from .scene import Scene

_FRONT_EPS = 1e-9   # m, strict front-side margin
_PARAM_EPS = 1e-9   # unitless span margin for image-line intersections
# Rows of one tracing pass, epochs times chains or diffuse samples: it sizes
# simulate_cir's passes, and trace_specular halves a block with more rows,
# so point and occlusion tables stay a few MB in large scenes.
_CHAIN_ROWS = 1 << 15
_MAX_FACET_SAMPLES = _CHAIN_ROWS    # diffuse samples one facet may have


def pass_epochs(rows_per_epoch: int) -> int:
    """Epochs of one pass whose rows, rows_per_epoch per epoch, fit the
    _CHAIN_ROWS budget; one at least."""
    return max(1, _CHAIN_ROWS // rows_per_epoch)


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
    simulate_cir stacks a block's tables and adds the snapshot columns of
    each row's epoch (SnapshotBlock.attach): velocity beside points, the
    hit facets' normals and the antenna boresights.  Then it adds the
    complex amplitude a, the delay tau [s] and the Doppler nu [Hz].
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

    def key_ids(self, at=slice(None)) -> np.ndarray:
        """One integer id per row of self[at], the same for the rows of one
        key: the rank of the row's (kind, sample, facets) among their
        distinct keys in lexicographic order."""
        keys = np.stack([self.kind[at], self.sample[at], *self.facets[at].T]).astype(np.int64)
        order = np.lexsort(keys)
        keys = keys[:, order]
        new = np.ones(len(order), dtype=bool)         # first row of each key in order
        new[1:] = np.any(keys[:, 1:] != keys[:, :-1], axis=0)
        ids = np.empty(len(order), dtype=np.intp)
        ids[order] = np.cumsum(new) - 1
        return ids


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

    Paths come out epoch by epoch, and within an epoch by order, then facet
    indices.
    """
    k_max = config.max_specular_order
    if block.pack.n_facets == 0 or k_max == 0 or not len(block):
        return _table("specular", np.empty((0, k_max), int),
                      np.empty((0, k_max + 2, 3)), frame=np.empty(0, int))

    txp, rxp = block.states[tx_id].position, block.states[rx_id].position
    table = _grow_chains(*_front_masks(block.pack, txp, rxp), k_max)
    if len(block) * len(table.hops) > _CHAIN_ROWS and len(block) > 1:
        # Too many rows for one pass: trace each half, which may grow fewer
        # chains, on its own.
        half = (len(block) + 1) // 2
        head, tail = (trace_specular(block.view(at), tx_id, rx_id, config)
                      for at in (slice(0, half), slice(half, None)))
        tail.frame += half
        return PathTable.concat([head, tail])
    frame, idx, legs = _trace_chains(block.pack, txp, rxp, table)
    # Occlusion over every segment of every survivor but the zero-length
    # TX -> TX segments of the left padding.
    hops = table.hops[idx]
    on = _live(hops + 1, k_max + 1)
    blocked = np.zeros(on.shape, dtype=bool)
    blocked[on] = block.pack.segments_blocked(legs[:, :-1][on], legs[:, 1:][on],
                                              config.occlusion_epsilon, frame.repeat(hops + 1))
    clear = ~blocked.any(axis=1)
    facets = np.where(_live(hops, k_max), table.seq[idx], -1)
    return _table("specular", facets[clear], legs[clear], frame=frame[clear])


@dataclass(frozen=True)
class _ChainTable:
    """The chains of one tracing pass, one row each by order, then facet
    indices, and the tree of facet prefixes they grow from.

    seq holds each chain's facets right-aligned, after a left padding that
    belongs to no chain.  tree[d] = (parent, facet) lists the prefixes of
    d + 1 facets: the row of each one's first d facets in tree[d - 1] (0 at
    d = 0) and its last facet.  Numbered depth by depth, prefix r has its
    nested image at row r of _nested_images; images[:, c] is the row of the
    chain's prefix ending at seq[:, c].
    """

    seq: np.ndarray             # (C, K) facet indices
    hops: np.ndarray            # (C,) chain order, increasing
    images: np.ndarray          # (C, K) image rows, right-aligned like seq
    tree: tuple                 # per depth d: (parent, facet) of its prefixes


def _front_masks(pack, txp, rxp):
    """Per epoch of a stacked pack, the (E, F) masks of the facets that TX
    and RX are in front of, and the (E, F, F) mask of the facet pairs
    mutually partly in front, some point of each facet in front of the
    other's plane.

    Every chain that _trace_chains keeps passes these tests at that epoch:
    its TX and RX tests are the full pass's, and each hit it keeps is one
    that contains accepts, in front of the facets before and after it.
    contains reaches past the vertices in two ways, and the vertex test is
    widened for both:
      - with c the vertex centroid and s the pack's edge_slack, it accepts
        p only if c + (p - c) / (1 + s) is inside, so the distance of p to
        another plane, affine, is at most hi + s (hi - lo), hi and lo its
        extremes over the vertices.
      - it sees only the in-plane part of p - v, and a quad's fourth vertex
        may lie off the plane, by lift; projecting the vertices onto the
        plane moves that bound by at most (1 + 2 s) lift.
    lift, like s, depends only on a facet's shape, which rigid motion
    keeps, so it is taken at the first epoch and doubled for the rounding
    of the pose.  Testing against _FRONT_EPS / 2 covers the rounding of the
    full pass's hits and dot products, a few ulps of the coordinates and
    images, for scenes within 10 km of the origin.
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
    hi = np.maximum(np.maximum(dist[:, 0], dist[:, 1]), np.maximum(dist[:, 2], dist[:, 3]))
    lo = np.minimum(np.minimum(dist[:, 0], dist[:, 1]), np.minimum(dist[:, 2], dist[:, 3]))
    s = pack.edge_slack()                                 # (F,)
    lift = 2.0 * np.abs(np.diagonal(dist[0], axis1=1, axis2=2)).max(axis=0)
    partly = hi + s[:, None] * (hi - lo) > (eps - (1.0 + 2.0 * s) * lift)[:, None]
    return tx_front, rx_front, partly & partly.transpose(0, 2, 1)


def _grow_chains(tx_front, rx_front, mutual, k_max: int) -> _ChainTable:
    """The chains of orders 1..k_max that pass the front masks at one epoch:
    TX in front of the first facet, each consecutive pair distinct and
    mutual, RX in front of the last.  Prefixes grow depth by depth, each
    alive at the epochs where its own tests pass, by the facets mutual with
    its last one at such an epoch; the last order grows chains only.
    """
    mutual = mutual & ~np.eye(tx_front.shape[1], dtype=bool)
    grown = tx_front[:, None]               # (E, prefix, next facet), the root first
    rows = np.zeros((1, k_max), int)        # right-aligned image rows of the prefixes
    tree, chains, n_rows = [], [], 0
    for depth in range(k_max):
        if depth:
            grown = alive[:, :, None] & mutual[:, facet]
        if depth == k_max - 1:
            grown = grown & rx_front[:, None]
        parent, facet = np.nonzero(grown.any(axis=0))
        rows = np.concatenate([rows[parent, 1:], np.arange(n_rows, n_rows + len(facet))[:, None]],
                              axis=1)
        tree.append((parent, facet))
        n_rows += len(facet)
        if depth == k_max - 1:
            chains.append(rows)
            break
        alive = grown[:, parent, facet]
        chains.append(rows[(alive & rx_front[:, facet]).any(axis=0)])
    images = np.concatenate(chains)
    facets = np.concatenate([facet for _, facet in tree])
    return _ChainTable(facets[images], np.repeat(np.arange(1, k_max + 1), list(map(len, chains))),
                       images, tuple(tree))


def _nested_images(pack, txp, table: _ChainTable) -> np.ndarray:
    """(E, R, 3) images of TX through the R prefixes of the table's tree,
    numbered depth by depth.  A depth takes the dot products of the images
    before it with every normal in one batched (E, P, 3) x (E, 3, F)
    product and picks each prefix's column.  The product has two rows at
    least, so BLAS runs a matrix product, whose rounding does not depend
    on P."""
    n, off = pack.normals, pack.offsets                  # (E, F, 3), (E, F)
    nt = n.transpose(0, 2, 1)
    image = txp[:, None] - 2.0 * (np.matmul(txp[:, None], nt)[:, 0] - off)[..., None] * n
    images = [image[:, table.tree[0][1]]]
    for parent, facet in table.tree[1:]:
        image = images[-1]
        dots = np.matmul(image if image.shape[1] > 1 else image.repeat(2, axis=1), nt)
        images.append(image[:, parent]
                      - 2.0 * (dots[:, parent, facet] - off[:, facet])[..., None] * n[:, facet])
    return np.concatenate(images, axis=1)


def _trace_chains(pack, txp, rxp, table: _ChainTable):
    """All chains of the table through the image method in one pass over a
    stacked pack of E snapshots, with the TX and RX positions txp and rxp
    (E, 3).

    Returns the epochs and table rows of the chains that pass the span,
    front-side and containment tests, by epoch, then row, and their (N,
    K+2, 3) points: TX, the hits, RX, right-aligned, the padding TX.
    """
    n, off = pack.normals, pack.offsets                  # (E, F, 3), (E, F)
    k_max = table.seq.shape[1]
    images = _nested_images(pack, txp, table)
    ok = np.ones((len(off), len(table.hops)), dtype=bool)
    # Back to front: step j intersects the line from the image of column
    # K-1-j to the point after it (RX first) with the image's facet, on the
    # rows with hops > j, from first[j] on.
    first = np.searchsorted(table.hops, np.arange(1, k_max + 1)).tolist()
    hits = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j, lo in enumerate(first):
            fac, src = table.seq[lo:, -1 - j], images[:, table.images[lo:, -1 - j]]
            nf = n[:, fac]
            d = (hits[-1][:, lo - first[j - 1]:] if j else rxp[:, None]) - src
            denom = np.einsum("ecj,ecj->ec", d, nf)
            t = (off[:, fac] - np.einsum("ecj,ecj->ec", src, nf)) / denom
            ok[:, lo:] &= (np.abs(denom) > 1e-12) & (t > _PARAM_EPS) & (t < 1.0 - _PARAM_EPS)
            hits.append(src + t[..., None] * d)
    # Each hit inside its facet, with the points before and after it
    # strictly in front of the facet; only chains still in span are tested.
    snap, rows = np.nonzero(ok)
    p = np.empty((len(rows), k_max + 2, 3))
    p[:, :-1] = txp[snap, None]
    p[:, -1] = rxp[snap]
    p[:, k_max] = hits[0][snap, rows]
    for j, lo in enumerate(first[1:], 1):
        on = rows >= lo
        p[on, k_max - j] = hits[j][snap[on], rows[on] - lo]
    seq = table.seq[rows]
    at = (snap[:, None], seq)
    nrm, offs = n[at], off[at]
    good = ((np.einsum("ckj,ckj->ck", p[:, :-2], nrm) - offs > _FRONT_EPS)
            & (np.einsum("ckj,ckj->ck", p[:, 2:], nrm) - offs > _FRONT_EPS)
            & pack.contains(p[:, 1:-1], at))
    keep = np.all(good | ~_live(table.hops[rows], k_max), axis=1)
    return snap[keep], rows[keep], p[keep]


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

    Between fixed transceivers a sample of a static facet is settled: its
    point, its front test and the verdict of every static occluder are the
    same at each epoch, so they are taken at the first epoch of the block.
    The moving facets are tested at each epoch, for a settled sample only
    if its legs' bounding box meets a moving facet's FacetPack.reach over
    the block: legs outside every reach cannot be blocked by the movers.

    A moving facet's samples are not tested against that facet.  A leg ends
    at its sample, on the facet's plane up to rounding, and starts at TX or
    RX, which the front test puts in front of the plane; so it meets the
    plane only next to the sample, where segments_blocked's endpoint margin
    (occlusion_epsilon) ignores the crossing.  A crossing farther out needs
    a leg that rises less than (the sample's distance off the plane) /
    occlusion_epsilon rad over the facet: about 2e-11 rad for rounding at
    10 m and 1e-2 rad for a quad's lift of COPLANARITY_TOL.  Such a hit is
    an artifact of the sample's offset, not an obstruction.
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
    still = block.still_facets(tx_id, rx_id)[:-1]               # (F,)
    settled = still[owner]
    # Per sample, its facet's place among the moving facets; -1 if settled.
    mover = np.where(settled, -1, np.cumsum(~still)[owner] - 1)
    pack = block.pack
    txp, rxp = block.states[tx_id].position, block.states[rx_id].position
    front = ((np.einsum("ej,efj->ef", txp, pack.normals) - pack.offsets > _FRONT_EPS)
             & (np.einsum("ej,efj->ef", rxp, pack.normals) - pack.offsets > _FRONT_EPS))
    points = np.concatenate([np.broadcast_to(
        np.matmul(p.weights, pack.verts[:1 if still[i] else len(block), i, :len(f.vertices)]),
        (len(block), p.n_samples, 3)) for i, (f, p) in enumerate(zip(facets, pats))], axis=1)

    def blocked(occluders, frame, pts):
        """Per sample point at its epoch, whether a leg to it is blocked."""
        if not occluders.n_facets:
            return np.zeros(len(frame), dtype=bool)
        return (occluders.segments_blocked(txp[frame], pts, eps, frame)
                | occluders.segments_blocked(pts, rxp[frame], eps, frame))

    statics, movers = pack.subset(still), pack.subset(~still)
    keep = front[:, owner]
    # Settled samples: the static occluders at the first epoch, and the
    # moving ones at each epoch if their legs come within reach.
    once = np.flatnonzero(keep[0] & settled)
    keep[:, once[blocked(statics[:1], np.zeros(len(once), int), points[0, once])]] = False
    exposed = ~settled
    if len(once):
        reach_lo, reach_hi = movers.reach()
        ends_lo = np.minimum(points[0, once], np.minimum(txp[0], rxp[0]))
        ends_hi = np.maximum(points[0, once], np.maximum(txp[0], rxp[0]))
        exposed[once] = ((ends_lo[:, None] <= reach_hi)
                         & (ends_hi[:, None] >= reach_lo)).all(axis=2).any(axis=1)
    frame, rows = np.nonzero(keep)
    pts = points[frame, rows]
    clear = np.ones(len(rows), dtype=bool)
    test = np.flatnonzero(exposed[rows])
    group = mover[rows[test]]
    for m in np.unique(group).tolist():
        at = test[group == m]
        occluders = movers if m < 0 else movers.subset(np.arange(movers.n_facets) != m)
        clear[at] = ~blocked(occluders, frame[at], pts[at])
    test = np.flatnonzero(~settled[rows])
    clear[test] &= ~blocked(statics, frame[test], pts[test])
    frame, rows = frame[clear], rows[clear]
    legs = np.stack([txp[frame], pts[clear], rxp[frame]], axis=1)
    return _table("diffuse", owner[rows, None], legs, sample[rows], area[rows], frame=frame)


def build_sample_patterns(scene: Scene, config: TraceConfig) -> dict:
    """Precompute per-facet sample patterns keyed by scene facet index."""
    return {f.index: diffuse_sample_pattern(f.index, len(f.vertices), f.area, config)
            for f in scene.facets}
