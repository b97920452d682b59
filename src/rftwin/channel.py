"""Time-varying channel impulse responses over a chirp epoch grid.

simulate_cir runs an episode in blocks of _BLOCK_CHIRPS chirps, in three
passes over each block:

1. the world at every epoch of the block at once (kinematics.snapshots),
   quasi-static within each chirp;
2. LOS, specular and diffuse tracing over the whole block, and one block
   table of their rows, ordered by epoch, with a frame column and the
   snapshot columns of each row's epoch;
3. amplitude, Doppler and delay of every row of the block in one call each.

Paths whose delay exceeds the unambiguous beat-spectrum span f_samp / slope
are then dropped and counted per frame.  The kept rows of every block form
one episode table, a Cir.  What is fixed for the episode (spline
interpolants, diffuse sample patterns, the amplitude model's
LinkConstants) is built once.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .container import now, read_container, write_container
from .em import SPEED_OF_LIGHT, LinkConstants, amplitudes_of
# snapshot is not called here any more; perfbench's span recorder still
# looks it up in this module.
from .kinematics import build_trajectories, snapshot, snapshots  # noqa: F401
from .raytrace import (KINDS, PathTable, TraceConfig, build_sample_patterns,
                       trace_diffuse, trace_los, trace_specular)
from .scene import Scene, SceneError

# Chirps per block pass: large enough to spread the fixed cost of the
# vectorized passes, small enough that the block table and the temporaries
# of the amplitude pass stay a few MB at the tens of paths per chirp of the
# shipped scenes.
_BLOCK_CHIRPS = 64


@dataclass(frozen=True)
class ChirpConfig:
    """FMCW timing; defaults reproduce the validated 79 GHz configuration."""

    f_c: float = 79.0e9
    bandwidth: float = 4.0e9
    t_chirp: float = 112.86e-6
    t_idle: float = 13.0e-6
    slope: float = 35.44e12
    f_samp: float = 18.75e6
    n_chirps_total: int = 4096

    def __post_init__(self):
        for name in ("f_c", "bandwidth", "t_chirp", "t_idle", "slope", "f_samp"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"ChirpConfig.{name} must be finite, got {value}")
            if value < 0 or (name != "t_idle" and value == 0):
                raise ValueError(f"ChirpConfig.{name} must be positive")
        if self.n_chirps_total < 1:
            raise ValueError("n_chirps_total must be >= 1")
        if self.samples_per_chirp < 2:
            raise ValueError(f"samples per chirp floor(t_chirp * f_samp) is "
                             f"{self.samples_per_chirp}; at least 2 are needed")
        swept = self.slope * self.t_chirp
        if abs(swept - self.bandwidth) > 1e-3 * self.bandwidth:
            raise ValueError(
                f"slope * t_chirp = {swept:.6g} Hz is not within 0.1% of the "
                f"bandwidth {self.bandwidth:.6g} Hz")

    @property
    def pri(self) -> float:
        """Chirp repetition interval, t_chirp + t_idle."""
        return self.t_chirp + self.t_idle

    @property
    def samples_per_chirp(self) -> int:
        return int(np.floor(self.t_chirp * self.f_samp))

    @property
    def max_delay(self) -> float:
        """Largest unambiguous path delay, f_samp / slope."""
        return self.f_samp / self.slope

    def window_duration(self, n_chirps: int) -> float:
        return n_chirps * self.pri

    def to_dict(self) -> dict:
        return asdict(self)


def max_range(config: ChirpConfig, mode: str = "mono") -> float:
    """Unambiguous range in meters; mono-static halves the two-way span."""
    if mode not in ("mono", "bi"):
        raise ValueError("mode must be 'mono' or 'bi'")
    span = SPEED_OF_LIGHT * config.max_delay
    return span / 2.0 if mode == "mono" else span


@dataclass(frozen=True)
class SensingLink:
    """TX/RX pairing; a co-identified pair is the mono-static radar mode."""

    tx_id: str
    rx_id: str

    @property
    def mono_static(self) -> bool:
        return self.tx_id == self.rx_id


@dataclass
class Cir:
    """Impulse response of an episode, one table for all of its frames.

    paths holds the .cir columns of every kept row, a, tau and nu filled,
    in frame order; its frame column is the row's frame position in the
    episode.  epoch_index, t and n_dropped are per frame: the epoch on the
    chirp grid, its time and the rows dropped beyond the maximum delay.
    """

    paths: PathTable
    epoch_index: np.ndarray         # (F,) int
    t: np.ndarray                   # (F,) float
    n_dropped: np.ndarray           # (F,) int

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, frames: slice) -> Cir:
        """The sub-episode of a slice of consecutive frames, such as
        cir[lo:hi]; its frame column counts from the slice start."""
        at = range(len(self))[frames]
        if not isinstance(at, range) or at.step != 1:
            raise TypeError("a Cir takes a slice of consecutive frames, such as cir[k:k + 1]")
        lo, hi = np.searchsorted(self.paths.frame, [at.start, at.stop])
        paths = self.paths.take(slice(lo, hi))
        paths.frame = paths.frame - at.start
        return Cir(paths, self.epoch_index[frames], self.t[frames], self.n_dropped[frames])


def doppler_of(paths: PathTable, f_c: float) -> np.ndarray:
    """Doppler shift per path in Hz; positive while the path shortens.

    nu = -(f_c / c) d(length)/dt.  Each segment contributes the projection
    of its endpoint velocities onto its direction: the transceivers' and,
    at every hit, the rigid-body velocity of the touched facet (the table's
    velocity column).  For specular points the in-plane migration of the
    reflection point does not change path length to first order (the
    mirror law makes the length stationary), so that velocity is exactly
    the right rate.  Rows are left-aligned (TX in column 0) before the sum,
    so a path's Doppler does not depend on the padding of the table it sits
    in.  The table carries its snapshot columns (SnapshotBlock.attach), as
    in amplitudes_of.
    """
    index, live = paths.left_aligned()
    pts, vel = paths.points[index], paths.velocity[index]
    segs = np.diff(pts, axis=1)
    norms = np.linalg.norm(segs, axis=2)
    units = np.where(live[:, 1:, None], segs / np.maximum(norms, 1e-300)[..., None], 0.0)
    rate = np.einsum("nsj,nsj->n", units, np.diff(vel, axis=1))
    return -(f_c / SPEED_OF_LIGHT) * rate


# The .cir columns of no rows, the start of every episode table.
_NO_PATHS = PathTable(*(np.zeros(0, np.uint8),) * 2, np.zeros((0, 0), np.int32),
                      np.zeros(0, np.int32), a=np.zeros(0, complex), tau=np.zeros(0),
                      nu=np.zeros(0), frame=np.zeros(0, int))


def simulate_cir(scene: Scene, link: SensingLink, config: ChirpConfig,
                 trace: TraceConfig = TraceConfig(), t0: float = 0.0,
                 n_chirps: int | None = None) -> Cir:
    """Impulse response of the episode on the chirp epoch grid t0 + k * pri.

    Deterministic for a fixed scene, configs and t0.  Raises SceneError when
    t0 is not finite or the epoch grid is not covered by every body
    trajectory.
    """
    scene.transceiver(link.tx_id)
    scene.transceiver(link.rx_id)
    if not math.isfinite(t0):
        raise SceneError(f"episode start t0 must be finite, got {t0}")
    n = config.n_chirps_total if n_chirps is None else n_chirps
    span = scene.t_span
    t_end = t0 + (n - 1) * config.pri
    if span is not None and (t0 < span[0] - 1e-12 or t_end > span[1] + 1e-12):
        raise SceneError(
            f"epoch grid [{t0:.6g}, {t_end:.6g}] s not covered by body "
            f"trajectories [{span[0]:.6g}, {span[1]:.6g}] s")

    tx, rx = link.tx_id, link.rx_id
    times = t0 + np.arange(max(n, 0)) * config.pri
    trajectories = build_trajectories(scene)
    patterns = build_sample_patterns(scene, trace) if trace.diffuse_enabled else None
    constants = LinkConstants(scene, tx, rx, config.f_c)
    kept, dropped = [_NO_PATHS], [np.zeros(0, int)]
    for lo in range(0, len(times), _BLOCK_CHIRPS):
        snaps = snapshots(scene, times[lo:lo + _BLOCK_CHIRPS], trajectories)
        parts = [] if link.mono_static else [trace_los(snaps, tx, rx, trace)]
        parts.append(trace_specular(snaps, tx, rx, trace))
        if trace.diffuse_enabled:
            parts.append(trace_diffuse(snaps, tx, rx, trace, patterns))
        # Rows by epoch, and within an epoch LOS, specular, diffuse.
        block = PathTable.concat(parts)
        block = snaps.attach(block.take(np.argsort(block.frame, kind="stable")), tx, rx)
        block.a = amplitudes_of(block, scene, tx, rx, config.f_c, constants=constants)
        block.nu = doppler_of(block, config.f_c)
        block.tau = block.segment_lengths().sum(axis=1) / SPEED_OF_LIGHT
        keep = block.tau < config.max_delay
        kept.append(block.cir_columns().take(keep))
        kept[-1].frame += lo
        dropped.append(np.bincount(block.frame[~keep], minlength=len(snaps.t)))
    return Cir(PathTable.concat(kept), np.arange(len(times)), times, np.concatenate(dropped))


def frame_stats(cir: Cir) -> dict:
    """Per-frame telemetry of an episode: for every path kind that occurs,
    the min, mean and max of its rows per frame, and the same of the rows
    dropped beyond the maximum delay."""
    def stats(values: np.ndarray) -> dict:
        if not len(values):
            return {"min": 0, "mean": 0.0, "max": 0}
        return {"min": int(values.min()), "mean": float(values.mean()), "max": int(values.max())}

    n = len(cir)
    per_frame = np.bincount(cir.paths.frame * len(KINDS) + cir.paths.kind,
                            minlength=n * len(KINDS)).reshape(n, len(KINDS))
    return {"paths_per_frame": {kind: stats(per_frame[:, j])
                                for j, kind in enumerate(KINDS) if per_frame[:, j].any()},
            "dropped_per_frame": stats(cir.n_dropped)}


CIR_MAGIC = b"RFTCIR1\n"


def save_cir(path, cir: Cir, config: ChirpConfig,
             link: SensingLink, trace: TraceConfig | None = None,
             t0: float = 0.0, extra: dict | None = None,
             frozen_clock: bool = False) -> None:
    """Write an episode in the little-endian binary layout described in README.

    Layout: 8-byte magic, u32 header length, UTF-8 JSON header, then per
    frame u32 epoch_index, f64 t, u32 n_paths, u32 n_dropped followed by
    f64 arrays a_re, a_im, tau, nu, u8 kind codes, u8 hop counts, i32 facet
    indices (concatenated) and i32 sample indices (-1 when absent).
    """
    header = {"format": "rftwin-cir", "version": 1,
              "config": config.to_dict(),
              "link": {"tx": link.tx_id, "rx": link.rx_id},
              "t0": t0, "n_frames": len(cir),
              "created": "frozen" if frozen_clock else now()}
    if trace is not None:
        header["trace"] = asdict(trace)
    if extra:
        header.update(extra)

    write_container(path, CIR_MAGIC, header, _cir_payload(cir))


_FRAME_HEAD = np.dtype([("epoch", "<u4"), ("t", "<f8"), ("n_paths", "<u4"), ("n_dropped", "<u4")])
_PAYLOAD_CHUNK = 1 << 16        # 2-byte units gathered per written chunk


def _runs(source: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """source[start:start + size] for every run, concatenated."""
    ends = np.cumsum(sizes)
    return source[np.repeat(starts - ends + sizes, sizes) + np.arange(ends[-1])]


def _cir_payload(cir: Cir):
    """The .cir payload in chunks of whole frames, gathered from the
    episode's columns: a frame is its header, then the run of its rows (or
    facets) in every column.  With each frame's kind and hop codes joined
    first, every run has an even size, so the gather moves 2-byte units."""
    if not len(cir):
        return
    p = cir.paths
    n = np.bincount(p.frame, minlength=len(cir))
    first, live = np.cumsum(n) - n, p.facets >= 0
    n_facets = np.bincount(p.frame, live.sum(axis=1), minlength=len(n)).astype(int)
    codes = _runs(np.concatenate([p.kind, p.hops]).astype(np.uint8),
                  np.column_stack([first, first + len(p)]).ravel(), np.repeat(n, 2))
    heads = np.empty(len(n), _FRAME_HEAD)
    heads["epoch"], heads["t"], heads["n_paths"], heads["n_dropped"] = (
        cir.epoch_index, cir.t, n, cir.n_dropped)
    columns = [(heads, np.ones_like(n))]
    columns += [(col.astype("<f8"), n) for col in (p.a.real, p.a.imag, p.tau, p.nu)]
    columns += [(codes, 2 * n), (p.facets[live].astype("<i4"), n_facets),
                (p.sample.astype("<i4"), n)]
    source = np.concatenate([col.view(np.uint8) for col, _ in columns]).view(np.uint16)
    sizes = np.column_stack([count * col.itemsize // 2 for col, count in columns])
    starts = (np.cumsum([0] + [col.nbytes // 2 for col, _ in columns[:-1]])
              + np.cumsum(sizes, axis=0) - sizes)
    offset = np.cumsum(sizes.sum(axis=1)) - sizes.sum(axis=1)
    for group in np.split(np.arange(len(n)), np.flatnonzero(np.diff(offset // _PAYLOAD_CHUNK)) + 1):
        yield _runs(source, starts[group].ravel(), sizes[group].ravel())


def load_cir(path) -> tuple[Cir, dict]:
    """Read a CIR file back into its episode table plus its JSON header.

    One pass walks the frame headers and joins the frames' column bytes;
    each column is then cut from them for the whole file at once.  Facet
    rows are as wide as the file's largest hop count.
    """
    header, body = read_container(path, CIR_MAGIC, "CIR")
    missing = sorted({"config", "link", "t0", "n_frames"} - set(header))
    if missing:
        raise ValueError(f"{path}: header lacks {', '.join(missing)}")
    n_frames = header["n_frames"]
    if not isinstance(n_frames, int) or n_frames < 0:
        raise ValueError(f"{path}: bad frame count {n_frames!r}")
    raw = memoryview(body.raw)
    heads, floats, codes, ints, n_facets = [], [], [], [], []
    for _ in range(n_frames):
        heads.append(body.unpack("<Id II"))
        count = heads[-1][2]
        start = body.skip(34 * count)           # a_re, a_im, tau, nu, kind, hops
        n_facets.append(sum(raw[start + 33 * count:start + 34 * count]))
        body.skip(4 * (n_facets[-1] + count))   # facet indices, sample indices
        floats.append(raw[start:start + 32 * count])
        codes.append(raw[start + 32 * count:start + 34 * count])
        ints.append(raw[start + 34 * count:body.offset])
    body.end()

    # Frame k's block of c columns starts at c * first[k] in the joined
    # bytes, so item r of column j sits at r + (c - 1) * first[k] + j * n[k].
    heads = np.array(heads, _FRAME_HEAD)
    n = heads["n_paths"].astype(np.intp)
    n_facets = np.array(n_facets, dtype=np.intp)
    first = np.cumsum(n) - n
    rows = np.arange(n.sum())
    floats = np.frombuffer(b"".join(floats), "<f8")
    a_re, a_im, tau, nu = (floats[rows + np.repeat(3 * first + j * n, n)] for j in range(4))
    codes = np.frombuffer(b"".join(codes), np.uint8)
    kind, hops = (codes[rows + np.repeat(first + j * n, n)] for j in range(2))
    ints = np.frombuffer(b"".join(ints), "<i4")
    flat = ints[np.arange(n_facets.sum()) + np.repeat(first, n_facets)]
    sample = ints[rows + np.repeat(np.cumsum(n_facets), n)]
    frame = np.repeat(np.arange(n_frames), n)
    bad = np.concatenate([frame[kind >= len(KINDS)],
                          np.repeat(np.arange(n_frames), n_facets)[flat < 0]])
    if bad.size:
        raise ValueError(f"{path}: frame {heads['epoch'][bad.min()]}: unknown kind code "
                         "or negative facet index")

    a = np.empty(len(rows), dtype=complex)
    a.real, a.imag = a_re, a_im
    paths = PathTable(kind, hops, PathTable.facet_rows(hops, flat), sample, a=a, tau=tau,
                      nu=nu, frame=frame)
    return Cir(paths, heads["epoch"].astype(int), heads["t"].astype(float),
               heads["n_dropped"].astype(int)), header


def cir_to_csv(path, cir: Cir) -> None:
    """Flat CSV export: one row per path per frame."""
    from .csvtext import CSV_CHUNK, csv_lines, float_text, text_cells
    with open(path, "wb") as fh:
        fh.write(b"epoch_index,t,kind,delay_s,doppler_hz,a_real,a_imag,facets,sample_index\n")
        p = cir.paths
        if not len(p):
            return
        epochs = text_cells([str(e) for e in cir.epoch_index.tolist()])
        times = float_text(cir.t)
        facet_rows, facet_of = np.unique(p.facets, axis=0, return_inverse=True)
        kinds, facet_of = text_cells(KINDS), facet_of.reshape(-1)
        facets = text_cells(["|".join(str(f) for f in row if f >= 0)
                             for row in facet_rows.tolist()])
        sample_ids, sample_of = np.unique(p.sample, return_inverse=True)
        samples = text_cells(["" if s < 0 else str(s) for s in sample_ids.tolist()])
        floats = np.column_stack([p.tau, p.nu, p.a.real, p.a.imag])
        for lo in range(0, len(p), CSV_CHUNK // 4):
            at = slice(lo, lo + CSV_CHUNK // 4)
            fh.write(csv_lines(epochs[p.frame[at], None], times[p.frame[at], None],
                               kinds[p.kind[at], None], float_text(floats[at]),
                               facets[facet_of[at], None], samples[sample_of[at], None]))
