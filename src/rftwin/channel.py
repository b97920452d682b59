"""Time-varying channel impulse responses over a chirp epoch grid.

simulate_cir poses the world once at every epoch of the episode
(kinematics.snapshots), quasi-static within each chirp, and runs the
episode in passes, each a view of that world.  A pass holds as many chirps
as fit the row budget (raytrace.pass_epochs) at the link's bound of rows
per chirp: the LOS row, F^2 specular chains and every diffuse sample.  The
shipped episodes run in one pass, long ones in several, so memory stays
bounded.  No other layer splits an episode, except that trace_specular
runs its image pass on parts, by the same rule, of a pass whose chain tree
outgrows F^2 chains.  Each pass runs in two steps:

1. LOS, specular and diffuse tracing over the whole pass, and one block
   table of their rows with a frame column, the row's epoch in the pass;
2. the snapshot columns of each row's epoch, and amplitude, Doppler and
   delay of the pass's rows in one call each.  A row between fixed
   transceivers that touches only static facets is episode-static: its a,
   tau and nu are the same at every epoch, so they are computed for the
   first row of its key in the pass and copied to the others.

Paths whose delay exceeds the unambiguous beat-spectrum span f_samp / slope
are then dropped and counted per frame, and the .cir columns of the kept
rows are taken once, in frame order.  The kept rows of every pass form
one episode table, a Cir, which carries the chirp config, link and trace
settings it was traced under.  The posed world is built once per episode.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .container import now, open_container, read_container
from .em import SPEED_OF_LIGHT, amplitudes_of
# snapshot is not called here any more; perfbench's span recorder still
# looks it up in this module.
from .kinematics import snapshot, snapshots  # noqa: F401
from .raytrace import (KINDS, PathTable, TraceConfig, diffuse_sample_count, pass_epochs,
                       trace_diffuse, trace_los, trace_specular)
from .scene import Scene, SceneError


# Most fast-time samples a chirp may have: 31 times the default 2116, so one
# beat row is at most 1 MB and a 128-chirp map at most 64 MB.
MAX_SAMPLES_PER_CHIRP = 1 << 16


@dataclass(frozen=True)
class ChirpConfig:
    """FMCW timing; defaults reproduce the validated 79 GHz configuration.

    Every field must be finite and positive (t_idle may be 0), slope *
    t_chirp must be within 0.1% of the bandwidth, and a chirp must have
    from 2 to MAX_SAMPLES_PER_CHIRP (65536) samples, floor(t_chirp *
    f_samp); ValueError otherwise.  The same check serves the command-line
    flags and the config in a .cir header.
    """

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
        if not self.t_chirp * self.f_samp < MAX_SAMPLES_PER_CHIRP + 1:
            raise ValueError(f"samples per chirp floor(t_chirp * f_samp) = "
                             f"floor({self.t_chirp * self.f_samp!r}) is above the cap of "
                             f"{MAX_SAMPLES_PER_CHIRP}")
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


@dataclass
class Cir:
    """Impulse response of an episode, one table for all of its frames.

    paths holds the .cir columns of every kept row, a, tau and nu filled,
    in frame order; its frame column is the row's frame position in the
    episode.  epoch_index, t and n_dropped are per frame: the epoch on the
    chirp grid, its time and the rows dropped beyond the maximum delay.
    config, link and trace are the settings the episode was traced under,
    the one source of them for synthesis, prediction and the .cir header.
    """

    paths: PathTable
    epoch_index: np.ndarray         # (F,) int
    t: np.ndarray                   # (F,) float
    n_dropped: np.ndarray           # (F,) int
    config: ChirpConfig
    link: SensingLink
    trace: TraceConfig

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, frames: slice) -> Cir:
        """The sub-episode of a slice of consecutive frames, such as
        cir[lo:hi], under the episode's settings; its frame column counts
        from the slice start."""
        at = range(len(self))[frames]
        if not isinstance(at, range) or at.step != 1:
            raise TypeError("a Cir takes a slice of consecutive frames, such as cir[k:k + 1]")
        lo, hi = np.searchsorted(self.paths.frame, [at.start, at.stop])
        paths = self.paths.take(slice(lo, hi))
        paths.frame = paths.frame - at.start
        return Cir(paths, self.epoch_index[frames], self.t[frames], self.n_dropped[frames],
                   self.config, self.link, self.trace)


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
                 trace: TraceConfig = TraceConfig(), t0: float = 0.0) -> Cir:
    """Impulse response of the episode of config.n_chirps_total chirps on
    the epoch grid t0 + k * pri.

    Deterministic for a fixed scene, configs and t0.  Raises SceneError when
    t0 is not finite or the epoch grid is not covered by every body
    trajectory.
    """
    scene.transceiver(link.tx_id)
    scene.transceiver(link.rx_id)
    if not math.isfinite(t0):
        raise SceneError(f"episode start t0 must be finite, got {t0}")
    n = config.n_chirps_total
    span = scene.t_span
    t_end = t0 + (n - 1) * config.pri
    if span is not None and (t0 < span[0] - 1e-12 or t_end > span[1] + 1e-12):
        raise SceneError(
            f"epoch grid [{t0:.6g}, {t_end:.6g}] s not covered by body "
            f"trajectories [{span[0]:.6g}, {span[1]:.6g}] s")

    tx, rx = link.tx_id, link.rx_id
    times = t0 + np.arange(n) * config.pri
    world = snapshots(scene, times)
    samples = (sum(diffuse_sample_count(f.area, trace) for f in scene.facets)
               if trace.diffuse_enabled else 0)
    step = pass_epochs(1 + len(scene.facets) ** 2 + samples)
    kept, dropped = [_NO_PATHS], [np.zeros(0, int)]
    for lo in range(0, len(times), step):
        snaps = world.view(slice(lo, lo + step))
        parts = [trace_los(snaps, tx, rx, trace), trace_specular(snaps, tx, rx, trace)]
        if trace.diffuse_enabled:
            parts.append(trace_diffuse(snaps, tx, rx, trace))
        block = PathTable.concat(parts)
        # An episode-static row takes a, nu and tau from the first row of
        # its key in the pass; each tracer's rows come by epoch.
        static = np.flatnonzero(snaps.still_facets(tx, rx)[block.facets].all(axis=1))
        ids = block.key_ids(static)
        first = np.full(ids.max(initial=-1) + 1, len(block))
        np.minimum.at(first, ids, static)
        rows = np.arange(len(block))
        source = rows.copy()
        source[static] = first[ids]
        own = source == rows
        evaluated = snaps.attach(block.take(own), tx, rx)
        at = (np.cumsum(own) - 1)[source]
        block.a = amplitudes_of(evaluated, scene, tx, rx, config.f_c)[at]
        block.nu = doppler_of(evaluated, config.f_c)[at]
        block.tau = (evaluated.segment_lengths().sum(axis=1) / SPEED_OF_LIGHT)[at]
        keep = block.tau < config.max_delay
        # The kept rows by epoch, and within an epoch LOS, specular, diffuse.
        order = np.argsort(block.frame, kind="stable")
        kept.append(block.cir_columns().take(order[keep[order]]))
        kept[-1].frame += lo
        dropped.append(np.bincount(block.frame[~keep], minlength=len(snaps.t)))
    return Cir(PathTable.concat(kept), np.arange(len(times)), times, np.concatenate(dropped),
               config, link, trace)


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


def save_cir(path, cir: Cir, extra: dict | None = None, frozen_clock: bool = False) -> None:
    """Write an episode in the little-endian binary layout described in README:
    8-byte magic, u32 header length, UTF-8 JSON header, then one record per
    frame, laid out by _frame_layout.  The header holds the episode's
    config, link and trace; its t0 is the first frame's time, 0.0 for an
    episode of no frames."""
    header = {"format": "rftwin-cir", "version": 1,
              "config": cir.config.to_dict(),
              "link": {"tx": cir.link.tx_id, "rx": cir.link.rx_id},
              "trace": asdict(cir.trace), "t0": float(cir.t[0]) if len(cir) else 0.0,
              "n_frames": len(cir), "created": "frozen" if frozen_clock else now()}
    if extra:
        header.update(extra)
    with open_container(path, CIR_MAGIC, header) as fh:
        for run in _cir_payload(cir):
            fh.write(run)


@functools.lru_cache(maxsize=256)
def _frame_layout(n_paths: int, n_facets: int) -> np.dtype:
    """The record of a .cir frame with n_paths rows and n_facets facet
    indices: the frame head (epoch index, time, path count, dropped count),
    then the frame's columns a_re, a_im, tau and nu (f64), kind codes and
    hop counts (u8), its facet indices, row after row (i32), and sample
    indices (i32, -1 when absent).  _frame_layout(0, 0) is the head alone."""
    rows = (n_paths,)
    return np.dtype([("epoch", "<u4"), ("t", "<f8"), ("n_paths", "<u4"), ("n_dropped", "<u4"),
                     *[(name, "<f8", rows) for name in ("a_re", "a_im", "tau", "nu")],
                     ("kind", np.uint8, rows), ("hops", np.uint8, rows),
                     ("facets", "<i4", (n_facets,)), ("sample", "<i4", rows)])


def _cir_payload(cir: Cir):
    """The .cir payload, one array of frame records per run of consecutive
    frames that share a layout, the same path and facet counts.  Each
    record's fields are sliced from the episode's columns."""
    p = cir.paths
    n = np.bincount(p.frame, minlength=len(cir))
    live = p.facets >= 0
    n_facets = np.bincount(p.frame, live.sum(axis=1), minlength=len(cir)).astype(int)
    per_frame = {"epoch": cir.epoch_index, "t": cir.t, "n_paths": n, "n_dropped": cir.n_dropped}
    per_row = {"a_re": p.a.real, "a_im": p.a.imag, "tau": p.tau, "nu": p.nu,
               "kind": p.kind, "hops": p.hops, "sample": p.sample}
    facets = p.facets[live]
    first, facet_first = np.cumsum(n) - n, np.cumsum(n_facets) - n_facets
    starts = np.flatnonzero((np.diff(n, prepend=-1) != 0) | (np.diff(n_facets, prepend=-1) != 0))
    for k, m in zip(starts.tolist(), np.diff(starts, append=len(cir)).tolist()):
        c, f, lo, facet_lo = (int(v[k]) for v in (n, n_facets, first, facet_first))
        run = np.empty(m, _frame_layout(c, f))
        for name, column in per_frame.items():
            run[name] = column[k:k + m]
        for name, column in per_row.items():
            run[name] = column[lo:lo + m * c].reshape(m, c)
        run["facets"] = facets[facet_lo:facet_lo + m * f].reshape(m, f)
        yield run


def load_cir(path) -> tuple[Cir, dict]:
    """Read a CIR file back into its episode table plus its JSON header.

    The episode's config, link and trace are built from the header.  One
    pass walks the frame heads; a frame's facet count is the sum of its
    hop counts.  Each run of consecutive frames that share a layout is then
    read as one array of frame records.  Facet rows are as wide as the
    file's largest hop count.  A header that lacks a key, a frame count
    that is not a JSON integer of at least 0, settings that their
    constructors reject, and a NaN or infinity in a t, tau, nu or a column
    raise one ValueError naming the file.
    """
    header, body = read_container(path, CIR_MAGIC, "CIR")
    missing = sorted({"config", "link", "trace", "t0", "n_frames"} - set(header))
    if missing:
        raise ValueError(f"{path}: header lacks {', '.join(missing)}")
    n_frames = header["n_frames"]
    if type(n_frames) is not int or n_frames < 0:
        raise ValueError(f"{path}: bad frame count {n_frames!r}")
    settings = []
    for key, what, build in (("config", "chirp config", lambda d: ChirpConfig(**d)),
                             ("link", "link", lambda d: SensingLink(d["tx"], d["rx"])),
                             ("trace", "trace settings", lambda d: TraceConfig(**d))):
        try:
            settings.append(build(header[key]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: bad {what} in the header: {exc}") from exc
    raw = memoryview(body.raw)
    head = _frame_layout(0, 0)
    count_at = head.fields["n_paths"][1]
    runs = []                                   # [(n_paths, n_facets), offset, frames]
    for k in range(n_frames):
        start = body.skip(head.itemsize)
        count = int.from_bytes(raw[start + count_at:start + count_at + 4], "little")
        if count > len(raw):
            raise ValueError(f"{path}: frame {k} declares {count} paths, more than the "
                             "file holds")
        hops = start + _frame_layout(count, 0).fields["hops"][1]
        layout = (count, sum(raw[hops:hops + count]))
        body.skip(_frame_layout(*layout).itemsize - head.itemsize)
        if runs and runs[-1][0] == layout:
            runs[-1][2] += 1
        else:
            runs.append([layout, start, 1])
    body.end()

    records = [np.frombuffer(body.raw, _frame_layout(*layout), m, start)
               for layout, start, m in runs] or [np.zeros(0, head)]

    def column(name):
        return np.concatenate([r[name].reshape(-1) for r in records])

    epoch, kind, hops, flat = column("epoch"), column("kind"), column("hops"), column("facets")
    frame = np.repeat(np.arange(n_frames), column("n_paths"))
    bad = np.concatenate([frame[kind >= len(KINDS)], np.repeat(frame, hops)[flat < 0]])
    if bad.size:
        raise ValueError(f"{path}: frame {epoch[bad.min()]}: unknown kind code "
                         "or negative facet index")

    floats = {name: column(name) for name in ("t", "tau", "nu", "a_re", "a_im")}
    for name, values in floats.items():
        if not np.isfinite(values).all():
            raise ValueError(f"{path}: the {name} column holds a NaN or infinite value")
    a = np.empty(len(kind), dtype=complex)
    a.real, a.imag = floats["a_re"], floats["a_im"]
    paths = PathTable(kind, hops, PathTable.facet_rows(hops, flat), column("sample"), a=a,
                      tau=floats["tau"], nu=floats["nu"], frame=frame)
    return Cir(paths, epoch.astype(int), floats["t"], column("n_dropped").astype(int),
               *settings), header


def cir_to_csv(path, cir: Cir) -> None:
    """Flat CSV export: one row per path per frame.  Each distinct float of
    the delay, Doppler and amplitude columns of a write chunk (an
    episode-static path repeats its values in every frame) is formatted
    once, found by its bits, so -0.0 keeps its sign."""
    from .csvtext import CSV_CHUNK, csv_lines, float_text, take_cells, text_cells
    with open(path, "wb") as fh:
        fh.write(b"epoch_index,t,kind,delay_s,doppler_hz,a_real,a_imag,facets,sample_index\n")
        p = cir.paths
        if not len(p):
            return
        epochs = text_cells([str(e) for e in cir.epoch_index.tolist()])
        times = float_text(cir.t)
        # Facet and sample text once per path key.
        key_of = p.key_ids()
        first = np.zeros(key_of.max() + 1, np.int64)
        first[key_of] = np.arange(len(p))
        kinds = text_cells(KINDS)
        facets = text_cells(["|".join(str(f) for f in row if f >= 0)
                             for row in p.facets[first].tolist()])
        samples = text_cells(["" if s < 0 else str(s) for s in p.sample[first].tolist()])
        floats = np.column_stack([p.tau, p.nu, p.a.real, p.a.imag])
        for lo in range(0, len(p), CSV_CHUNK // 4):
            at = slice(lo, lo + CSV_CHUNK // 4)
            bits, value_of = np.unique(floats[at].view(np.int64), return_inverse=True)
            values = np.ascontiguousarray(float_text(bits.view(np.float64)))
            fh.write(csv_lines(epochs[p.frame[at], None], times[p.frame[at], None],
                               kinds[p.kind[at], None],
                               take_cells(values, value_of.reshape(-1, 4)),
                               facets[key_of[at], None], samples[key_of[at], None]))
