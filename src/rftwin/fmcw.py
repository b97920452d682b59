"""FMCW dechirp signal synthesis and delay-Doppler processing.

Beat model: after stretch processing, a path with complex amplitude a_n,
delay tau_n and Doppler nu_n contributes to chirp k, fast-time sample m at
t_m = m / f_samp:

    a_n exp(j 2 pi (slope tau_n t_m + f_c tau_n - slope tau_n^2 / 2))
        * exp(j 2 pi nu_n (t_k - t_ref))

The residual video phase term (slope tau^2 / 2) is kept.  Since a_n already
carries exp(-j 2 pi f_c tau_n), the carrier terms cancel and slow-time phase
evolves purely through the Doppler phasor, one rotation of 2 pi nu pri per
chirp.  t_ref is the first synthesized epoch, keeping the phasor argument
small so slowly drifting Doppler does not skew the apparent frequency.

Factored synthesis: with w_n the constant part of a path's phasor and
omega_n = 2 pi slope tau_n / f_samp, the fast-time index splits as
m = B q + r with B = ceil(sqrt(samples_per_chirp)), and

    row[B q + r] = sum_n (w_n exp(j omega_n B q)) exp(j omega_n r),

one (Q x P) @ (P x B) complex product per chirp, built from P (Q + B)
exponentials instead of P samples_per_chirp.  Both exponent arguments are
rounded apart, which moves each tone by a few ulps of its largest argument
(2 pi slope tau t_m, at most about 1.3e4 rad): every sample stays within
1e-11 of the largest sample of the direct sum.

Processing: range_fft is the one windowed fast-time FFT.  pdp_series takes
it over every beat row, and delay_doppler reads the range spectra of one
window's rows; range_windows transforms each row once for a sequence of
overlapping windows.  Both axes divide by the window sum (coherent gain),
so an on-grid path of amplitude a peaks at |a| in the map, directly
comparable to the analytic prediction of predicted_map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channel import ChirpConfig, Cir
from .raytrace import PathTable
from .container import now, read_container, write_container

BOLTZMANN = 1.380649e-23                  # J/K, exact since the 2019 SI

# Cosine-sum coefficients a_k of w = sum_k a_k cos(k x), x over [-pi, pi).
# Hamming's second one is 1 - 0.54, which is one ulp away from 0.46.
_WINDOWS = {"hann": (0.5, 0.5), "hamming": (0.54, 1.0 - 0.54),
            "blackman": (0.42, 0.50, 0.08), "boxcar": (1.0,)}


def window_taps(name: str, n: int) -> np.ndarray:
    """Periodic (DFT-even) analysis window of n taps; see _WINDOWS for the
    supported names.  The arithmetic is scipy's general_cosine with one
    extra tap dropped, so the taps equal get_window(name, n, fftbins=True)."""
    if name not in _WINDOWS:
        raise ValueError(f"unknown window '{name}', expected one of {tuple(_WINDOWS)}")
    if n < 1:
        raise ValueError(f"window length must be at least 1, got {n}")
    if n == 1:
        return np.ones(1)
    x = np.linspace(-np.pi, np.pi, n + 1)
    w = np.zeros(n + 1)
    for k, a in enumerate(_WINDOWS[name]):
        w += a * np.cos(k * x)
    return w[:-1]


@dataclass(frozen=True)
class NoiseConfig:
    """Complex AWGN at the receiver, relative to unit transmit amplitude.

    The floor is thermal noise over the sampled band plus the noise figure:
    10 log10(k T f_samp / 1 mW) + NF dBm, scaled against tx_power_dbm.
    """

    enabled: bool = False
    noise_figure_db: float = 15.0
    tx_power_dbm: float = 12.0
    temperature_k: float = 290.0
    seed: int = 0

    def __post_init__(self):
        for name in ("noise_figure_db", "tx_power_dbm"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"NoiseConfig.{name} must be finite, got {value}")
        if not 0.0 < self.temperature_k < math.inf:
            raise ValueError(f"NoiseConfig.temperature_k must be finite and positive, "
                             f"got {self.temperature_k}")
        if self.seed < 0:
            raise ValueError(f"NoiseConfig.seed must be a non-negative integer, got {self.seed}")

    def floor_dbm(self, f_samp: float) -> float:
        return (10.0 * np.log10(BOLTZMANN * self.temperature_k * f_samp / 1e-3)
                + self.noise_figure_db)

    def sample_variance(self, f_samp: float) -> float:
        """Per-sample complex noise variance in normalized signal units."""
        return 10.0 ** ((self.floor_dbm(f_samp) - self.tx_power_dbm) / 10.0)


# Budget of a synth_beat block: about 1 MB of exponentials and products,
# like the temporaries of one _PDP_BLOCK_ROWS range_fft.
_SYNTH_BLOCK_BYTES = 1 << 20


def synth_beat(cir: Cir, config: ChirpConfig,
               noise: NoiseConfig = NoiseConfig()) -> np.ndarray:
    """Dechirped I/Q samples, one row per frame, in the factored form of the
    module docstring.

    Each path's slow-time phase is the running integral of its Doppler
    over the frames where it appears (trapezoid rule, keyed by path), so a
    drifting nu evolves the phase correctly; for constant nu this equals
    nu * (t - t_first).  Frames go through np.matmul in blocks, padded to
    the block's largest path count with zero weights, so an empty frame
    gives a zero row.  Noise draws are keyed by (seed, epoch_index), so a
    given frame always receives the same noise regardless of batch
    boundaries.
    """
    n_s = config.samples_per_chirp
    beats = np.empty((len(cir), n_s), dtype=complex)
    if not len(cir):
        return beats
    paths = cir.paths
    counts = np.bincount(paths.frame, minlength=len(cir))
    phi = _phase_trails(_path_ids(paths), cir.t[paths.frame], paths.nu)
    const = 2.0 * np.pi * (config.f_c * paths.tau
                           - 0.5 * config.slope * paths.tau ** 2) + phi
    weights = paths.a * np.exp(1j * const)

    # t_m at m = B q and at m = r, with the bits of the direct form's t_m.
    t_m = np.arange(n_s) / config.f_samp
    b = math.isqrt(max(n_s - 1, 0)) + 1
    t_q, t_r = t_m[::b], t_m[:b]
    q = len(t_q)
    omega = 2.0 * np.pi * config.slope
    block = max(1, _SYNTH_BLOCK_BYTES
                // (16 * (q * b + 2 * (q + b) * max(int(counts.max()), 1))))
    bounds = np.concatenate([[0], np.cumsum(counts)])
    for f0 in range(0, len(cir), block):
        f1 = min(f0 + block, len(cir))
        live = np.arange(counts[f0:f1].max()) < counts[f0:f1, None]
        w = np.zeros(live.shape, dtype=complex)
        tau = np.zeros(live.shape)
        w[live] = weights[bounds[f0]:bounds[f1]]
        tau[live] = paths.tau[bounds[f0]:bounds[f1]]
        left = w[:, None, :] * np.exp(1j * (omega * (tau[:, None, :] * t_q[:, None])))
        right = np.exp(1j * (omega * (tau[:, :, None] * t_r)))
        beats[f0:f1] = np.matmul(left, right).reshape(f1 - f0, q * b)[:, :n_s]
    if noise.enabled:
        sigma = np.sqrt(noise.sample_variance(config.f_samp) / 2.0)
        for row, epoch in zip(beats, cir.epoch_index.tolist()):
            rng = np.random.default_rng([noise.seed, epoch])
            row += sigma * (rng.standard_normal(n_s) + 1j * rng.standard_normal(n_s))
    return beats


def _phase_trails(ids: np.ndarray, t: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Slow-time phase of every path row: 0 at the first row of its key,
    then the previous row's phase plus pi (nu_prev + nu) (t - t_prev).

    The rows are sorted by key once; the sums then run one occurrence rank
    at a time over all keys, in the order and with the bits of a row-by-row
    update.
    """
    order = np.argsort(ids, kind="stable")
    t, nu, key = t[order], nu[order], ids[order]
    step = np.pi * (nu[:-1] + nu[1:]) * (t[1:] - t[:-1])
    index = np.arange(len(key))
    starts = np.ones(len(key), dtype=bool)
    starts[1:] = key[1:] != key[:-1]
    rank = index - np.maximum.accumulate(np.where(starts, index, 0))
    by_rank = np.argsort(rank, kind="stable")
    bounds = np.cumsum(np.bincount(rank))
    phase = np.zeros(len(key))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        at = by_rank[lo:hi]
        phase[at] = phase[at - 1] + step[at - 1]
    phi = np.empty_like(phase)
    phi[order] = phase
    return phi


def _path_ids(paths: PathTable) -> np.ndarray:
    """One integer id per path key: the id of every row of paths."""
    rows = paths.key_rows()
    order = np.lexsort(rows.T)
    new = np.ones(len(rows), dtype=bool)          # first row of each key in order
    new[1:] = np.any(rows[order[1:]] != rows[order[:-1]], axis=1)
    ids = np.empty(len(rows), dtype=np.intp)
    ids[order] = np.cumsum(new) - 1
    return ids


def delay_axis(config: ChirpConfig, n_bins: int) -> np.ndarray:
    """Beat-spectrum bins mapped to path delay: freq / slope."""
    return np.arange(n_bins) * (config.f_samp / n_bins) / config.slope


# Rows per range_fft call in pdp_series and range_windows: about 1 MB of
# temporaries at 2116 samples per chirp, small enough that the allocator
# reuses them from block to block instead of mapping fresh pages for each.
_PDP_BLOCK_ROWS = 32


def range_fft(samples: np.ndarray, window: str = "hann", zero_pad: bool = False,
              out: np.ndarray | None = None) -> np.ndarray:
    """Windowed fast-time FFT over the last axis, normalized by the window
    sum; written into out when given.  A block of rows gives the bits of
    each row on its own."""
    n = samples.shape[-1]
    w = window_taps(window, n)
    spectrum = np.fft.fft(samples * w, n=2 * n if zero_pad else n, axis=-1, out=out)
    spectrum /= w.sum()
    return spectrum


def range_windows(beats: np.ndarray, starts, n_chirps: int, window: str = "hann",
                  zero_pad: bool = False):
    """Range spectra (range_fft) of the n_chirps beat rows from each of the
    ascending starts, one window after the other: the rows argument of
    delay_doppler.

    Every beat row is transformed once, however many windows hold it.  The
    spectra live in a buffer of n_chirps rows, or 2 n_chirps when windows
    overlap; each window is a view into it, valid until the next is drawn.
    """
    overlap = any(b - a < n_chirps for a, b in zip(starts, starts[1:]))
    buffer = np.empty(((2 if overlap else 1) * n_chirps,
                       beats.shape[1] * (2 if zero_pad else 1)), dtype=complex)
    base = done = 0         # buffer[i] holds beat row base + i; rows below done are in
    for start in starts:
        end = start + n_chirps
        if start >= done:
            base = done = start
        elif end - base > len(buffer):        # move the shared rows to the front
            buffer[:done - start] = buffer[start - base:done - base]
            base = start
        for lo in range(done, end, _PDP_BLOCK_ROWS):
            hi = min(lo + _PDP_BLOCK_ROWS, end)
            range_fft(beats[lo:hi], window, zero_pad, out=buffer[lo - base:hi - base])
        done = end
        yield buffer[start - base:end - base]


@dataclass
class DelayDopplerMap:
    """Power map in dB over (doppler, delay) with its axes and provenance."""

    power_db: np.ndarray
    delay_axis: np.ndarray
    doppler_axis: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def doppler_bin(self) -> float:
        return float(self.doppler_axis[1] - self.doppler_axis[0])

    @property
    def delay_bin(self) -> float:
        return float(self.delay_axis[1] - self.delay_axis[0])

    def power_linear(self) -> np.ndarray:
        return 10.0 ** (self.power_db / 10.0)


def _power_db(power: np.ndarray) -> np.ndarray:
    """10 log10 of power floored at 1e-30, computed in place in power."""
    np.maximum(power, 1e-30, out=power)
    np.log10(power, out=power)
    power *= 10.0
    return power


def _epochs(beats: np.ndarray, times) -> np.ndarray:
    """times as a float array; ValueError unless it has one epoch per beat row."""
    times = np.asarray(times, dtype=float)
    if times.shape != beats.shape[:1]:
        raise ValueError(f"{len(times)} epoch times for {len(beats)} beat rows")
    return times


def _map_axes(times, config: ChirpConfig, t0_index: int, n_chirps: int, n_delay: int,
              windows: list[str], zero_pad: bool) -> tuple[np.ndarray, np.ndarray, dict]:
    """Delay axis, Doppler axis and metadata of the n_chirps-epoch window
    starting at t0_index; ValueError if the window leaves the epochs."""
    if t0_index < 0 or t0_index + n_chirps > len(times):
        raise ValueError(f"window [{t0_index}, {t0_index + n_chirps}) outside "
                         f"the {len(times)} available frames")
    meta = {"n_chirps": n_chirps, "t_window": config.window_duration(n_chirps),
            "t0": float(times[t0_index]), "t0_index": t0_index,
            "windows": windows, "zero_pad": zero_pad, "config": config.to_dict()}
    return (delay_axis(config, n_delay),
            np.fft.fftshift(np.fft.fftfreq(n_chirps, d=config.pri)), meta)


# Delay columns per slow-time FFT in delay_doppler: about 1 MB of complex
# temporaries at 128 chirps.
_MAP_BLOCK_COLUMNS = 512


def delay_doppler(rows: np.ndarray, times: np.ndarray, config: ChirpConfig,
                  t0_index: int = 0, window_fast: str = "hann",
                  window_slow: str = "hann") -> DelayDopplerMap:
    """Delay-Doppler power map of one window of len(rows) chirps.

    rows holds range_fft(beats[t0_index:t0_index + len(rows)], window_fast,
    zero_pad), as range_windows yields it, and times the epoch of every
    beat row.  Rows twice as wide as samples_per_chirp are zero-padded.
    Doppler bins are spaced 1 / (n_chirps * pri) and span +-1 / (2 pri),
    centered on zero, with approaching targets at positive Doppler.  The
    slow-time FFT runs over blocks of delay columns, which gives the bits
    of one FFT over the whole window.
    """
    n_chirps, n_delay = rows.shape
    zero_pad = n_delay == 2 * config.samples_per_chirp
    if not zero_pad and n_delay != config.samples_per_chirp:
        raise ValueError(f"{n_delay} delay bins, expected {config.samples_per_chirp} "
                         f"or {2 * config.samples_per_chirp} (zero-padded)")
    d_axis, nu_axis, meta = _map_axes(np.asarray(times, dtype=float), config, t0_index,
                                      n_chirps, n_delay, [window_fast, window_slow],
                                      zero_pad)
    w_slow = window_taps(window_slow, n_chirps)
    power = np.empty((n_chirps, n_delay))
    for lo in range(0, n_delay, _MAP_BLOCK_COLUMNS):
        cols = slice(lo, lo + _MAP_BLOCK_COLUMNS)
        grid = np.fft.fft(rows[:, cols] * w_slow[:, None], axis=0)
        grid /= w_slow.sum()
        power[:, cols] = np.fft.fftshift(np.abs(grid) ** 2, axes=0)
    return DelayDopplerMap(_power_db(power), d_axis, nu_axis, meta)


@dataclass
class PdpSeries:
    """Per-chirp range-profile powers in dB, one row per epoch."""

    power_db: np.ndarray
    delay_axis: np.ndarray
    times: np.ndarray
    metadata: dict = field(default_factory=dict)


def pdp_series(beats: np.ndarray, times: np.ndarray, config: ChirpConfig,
               window: str = "hann") -> PdpSeries:
    """Range profile of every row of the beat matrix; times holds their epochs."""
    times = _epochs(beats, times)
    power_db = np.empty(beats.shape)
    for start in range(0, len(beats), _PDP_BLOCK_ROWS):
        rows = slice(start, start + _PDP_BLOCK_ROWS)
        block = np.abs(range_fft(beats[rows], window), out=power_db[rows])
        _power_db(np.square(block, out=block))
    return PdpSeries(power_db, delay_axis(config, beats.shape[1]), times,
                     metadata={"window": window, "config": config.to_dict()})


def _window_response_table(window: str, n: int, oversample: int = 64,
                           span_bins: float = 8.0):
    """|DTFT| of a window vs frequency offset in bins, normalized to 1 at 0;
    n taps repeat every n bins, so a short window wraps its one period."""
    w = window_taps(window, n)
    spec = np.abs(np.fft.fft(w, n * oversample)) / w.sum()
    offsets = np.arange(int(span_bins * oversample) + 1)
    return offsets / oversample, spec[offsets % len(spec)]


def predicted_map(cir: Cir, config: ChirpConfig,
                  t0_index: int = 0, n_chirps: int = 128,
                  window_fast: str = "hann") -> DelayDopplerMap:
    """Analytic delay-Doppler prediction from the episode's paths.

    Each path of the mid-window frame contributes its power |a_n|^2 on the
    delay bin nearest tau_n, spread over Doppler by the discrete slow-time
    spectrum of the path's beat tone.  That spectrum is computed from the
    path's apparent slow-time phasor at nu_n plus two stretch-processing
    effects of a migrating delay: the fast-time window response sampled at
    the drifting beat-tone offset (scalloping and range-walk smearing) and
    the extra phase slope from the window centroid.  For a static path this
    reduces to |a_n|^2 sinc^2((nu_n - nu) T_w) on its delay bin.  The axes
    match delay_doppler without padding; the Doppler comparison assumes a
    boxcar slow-time window.
    """
    n_delay = config.samples_per_chirp
    d_axis, nu_axis, meta = _map_axes(cir.t, config, t0_index, n_chirps, n_delay,
                                      ["analytic", "analytic"], False)
    power = np.zeros((n_chirps, n_delay))
    delay_step = d_axis[1] - d_axis[0]
    t_centroid = (n_delay - 1) / (2.0 * config.f_samp)
    offs, resp = _window_response_table(window_fast, n_delay)
    window = cir[t0_index:t0_index + n_chirps]
    paths = window.paths
    ids = _path_ids(paths)
    # First and last (t, tau) of every path key in the window.
    t = window.t[paths.frame]
    tau = paths.tau
    first = np.unique(ids, return_index=True)[1]
    last = len(ids) - 1 - np.unique(ids[::-1], return_index=True)[1]

    mid = paths.frame == n_chirps // 2
    p, mid_ids = paths.take(mid), ids[mid]
    bin_idx = np.round(p.tau / delay_step).astype(int)
    inside = (bin_idx >= 0) & (bin_idx < n_delay)
    a, nu, tau_mid = p.a[inside], p.nu[inside], p.tau[inside]
    bin_idx, mid_ids = bin_idx[inside], mid_ids[inside]
    (t_a, tau_a), (t_b, tau_b) = ((t[r], tau[r]) for r in (first[mid_ids], last[mid_ids]))
    moving = t_b > t_a
    tau_dot = np.where(moving, (tau_b - tau_a) / np.where(moving, t_b - t_a, 1.0), 0.0)
    apparent = nu + config.slope * tau_dot * t_centroid
    m = np.arange(n_chirps)
    tau_m = tau_mid[:, None] + tau_dot[:, None] * (m - n_chirps // 2) * config.pri
    gain = np.interp(np.abs(tau_m / delay_step - bin_idx[:, None]), offs, resp)
    tone = gain * np.exp(2j * np.pi * apparent[:, None] * config.pri * m)
    col = np.abs(np.fft.fftshift(np.fft.fft(tone, axis=1), axes=1)) ** 2 / n_chirps ** 2
    np.add.at(power.T, bin_idx, np.abs(a)[:, None] ** 2 * col)
    return DelayDopplerMap(_power_db(power), d_axis, nu_axis, meta)


MAP_MAGIC = b"RFTDDM1\n"


def save_map(path, ddm: DelayDopplerMap, frozen_clock: bool = False) -> None:
    """Binary map container: magic, JSON header, f64 axes, f64 dB grid."""
    meta = dict(ddm.metadata)
    meta["created"] = "frozen" if frozen_clock else now()
    header = {"format": "rftwin-ddm", "version": 1,
              "n_doppler": int(ddm.power_db.shape[0]),
              "n_delay": int(ddm.power_db.shape[1]),
              "metadata": meta}
    write_container(path, MAP_MAGIC, header,
                    (np.ascontiguousarray(a, dtype="<f8")
                     for a in (ddm.delay_axis, ddm.doppler_axis, ddm.power_db)))


def load_map(path) -> DelayDopplerMap:
    header, body = read_container(path, MAP_MAGIC, "delay-Doppler map")
    n_dop, n_del = header["n_doppler"], header["n_delay"]
    d_axis, nu_axis = body.take("<f8", n_del).copy(), body.take("<f8", n_dop).copy()
    power = body.take("<f8", n_dop * n_del).reshape(n_dop, n_del).copy()
    body.end()
    return DelayDopplerMap(power, d_axis, nu_axis, header["metadata"])


def map_to_csv(path, ddm: DelayDopplerMap) -> None:
    """One `delay_s,doppler_hz,power_db` line per cell, Doppler-major; a
    block's distinct powers (mostly the -300 dB floor) are formatted once."""
    from .csvtext import CSV_CHUNK, csv_lines, float_text
    delays = float_text(ddm.delay_axis)[None, :, None]
    dopplers = float_text(ddm.doppler_axis)[:, None, None]
    step = max(1, CSV_CHUNK // max(ddm.power_db.shape[1], 1))
    with open(path, "wb") as fh:
        fh.write(b"delay_s,doppler_hz,power_db\n")
        for lo in range(0, len(dopplers), step):
            block = np.ascontiguousarray(ddm.power_db[lo:lo + step], dtype=np.float64)
            bits, index = np.unique(block.view(np.int64), return_inverse=True)
            power = float_text(bits.view(np.float64))[index.reshape(block.shape)]
            fh.write(csv_lines(delays, dopplers[lo:lo + step], power[:, :, None]))


def map_to_pgm(path, ddm: DelayDopplerMap, vmin: float | None = None,
               vmax: float | None = None) -> None:
    """8-bit PGM heatmap plus a text sidecar recording the dB scale.

    Rows run from the highest Doppler at the top to the lowest at the
    bottom; columns run from zero delay on the left.
    """
    if vmax is None:
        vmax = float(ddm.power_db.max())
    if vmin is None:
        vmin = vmax - 80.0
    scaled = np.clip((ddm.power_db - vmin) / (vmax - vmin), 0.0, 1.0)
    pixels = np.flipud(np.round(255.0 * scaled).astype(np.uint8))
    h, w = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(pixels.tobytes())
    sidecar = Path(str(path) + ".txt")
    sidecar.write_text(
        "rftwin delay-Doppler PGM sidecar\n"
        f"db_min {vmin!r}\ndb_max {vmax!r}\n"
        f"delay_start_s {float(ddm.delay_axis[0])!r}\n"
        f"delay_step_s {ddm.delay_bin!r}\n"
        f"doppler_start_hz {float(ddm.doppler_axis[0])!r}\n"
        f"doppler_step_hz {ddm.doppler_bin!r}\n"
        "orientation rows_top_to_bottom=doppler_high_to_low\n")


def pdp_to_csv(path, pdp: PdpSeries) -> None:
    """Text PDP series: a `t` line with the delay axis, then one line per
    epoch holding its time and its row of dB powers."""
    from .csvtext import CSV_CHUNK, csv_lines, float_text, text_cells
    step = max(1, CSV_CHUNK // (pdp.power_db.shape[1] + 1))
    with open(path, "wb") as fh:
        fh.write(csv_lines(text_cells(["t"])[None], float_text(pdp.delay_axis)[None]))
        for lo in range(0, len(pdp.times), step):
            fh.write(csv_lines(float_text(pdp.times[lo:lo + step])[:, None],
                               float_text(pdp.power_db[lo:lo + step])))


PDP_MAGIC = b"RFTPDP1\n"


def save_pdp(path, pdp: PdpSeries, frozen_clock: bool = False) -> None:
    meta = dict(pdp.metadata)
    meta["created"] = "frozen" if frozen_clock else now()
    header = {"format": "rftwin-pdp", "version": 1,
              "n_epochs": int(pdp.power_db.shape[0]),
              "n_delay": int(pdp.power_db.shape[1]),
              "metadata": meta}
    write_container(path, PDP_MAGIC, header,
                    (np.ascontiguousarray(a, dtype="<f8")
                     for a in (pdp.times, pdp.delay_axis, pdp.power_db)))


def load_pdp(path) -> PdpSeries:
    header, body = read_container(path, PDP_MAGIC, "PDP")
    n_e, n_d = header["n_epochs"], header["n_delay"]
    times, d_axis = body.take("<f8", n_e).copy(), body.take("<f8", n_d).copy()
    power = body.take("<f8", n_e * n_d).reshape(n_e, n_d).copy()
    body.end()
    return PdpSeries(power, d_axis, times, header["metadata"])
