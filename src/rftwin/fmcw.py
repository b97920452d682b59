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
step_n = 2 pi slope tau_n / f_samp, the fast-time index splits as
m = B q + r with B = ceil(sqrt(samples_per_chirp)), and

    row[B q + r] = sum_n (w_n exp(j step_n B q)) exp(j step_n r),

one (Q x P) @ (P x B) complex product per chirp.  Both power tables are
filled by doubling from anchor phasors exp(j step_n s) and exp(j step_n B s)
at s = 1, 2, 4, ..., about 2 log2(B) exponentials per path.  A table entry
is a product of at most that many anchors, each rounded once from an
argument of at most about 1.3e4 rad: every sample stays within 1e-11 of
the largest sample of the direct sum.

Processing runs pass by pass: beat_passes synthesizes a pass of beat rows,
range_fft is the one windowed fast-time FFT and transforms each row once,
pdp_series takes the power of a pass's spectra, PdpWriter appends it to
the PDP files, and window_maps keeps the passes that windows still to come
span and makes each window's map once its last row is in.  Both axes
scale by the reciprocal of the window sum (coherent gain), with the bits of
a complex division by it, so an on-grid path of amplitude a peaks at |a| in
the map, directly comparable to the analytic prediction of predicted_map.
delay_doppler transforms its columns in place, block by block, and writes
magnitudes straight into the fftshifted rows of the map.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channel import MAX_SAMPLES_PER_CHIRP, ChirpConfig, Cir
from .container import now, open_container, read_container

BOLTZMANN = 1.380649e-23                  # J/K, exact since the 2019 SI
T0_K = 290.0                              # K, where a noise figure is defined (Friis, 1944)

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
    10 log10(k T0 f_samp / 1 mW) + NF dBm, scaled against tx_power_dbm.
    """

    enabled: bool = False
    noise_figure_db: float = 15.0
    tx_power_dbm: float = 12.0
    seed: int = 0

    def __post_init__(self):
        for name in ("noise_figure_db", "tx_power_dbm"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"NoiseConfig.{name} must be finite, got {value}")
        if self.seed < 0:
            raise ValueError(f"NoiseConfig.seed must be a non-negative integer, got {self.seed}")

    def floor_dbm(self, f_samp: float) -> float:
        return (10.0 * np.log10(BOLTZMANN * T0_K * f_samp / 1e-3)
                + self.noise_figure_db)

    def sample_variance(self, f_samp: float) -> float:
        """Per-sample complex noise variance in normalized signal units."""
        return 10.0 ** ((self.floor_dbm(f_samp) - self.tx_power_dbm) / 10.0)


# Budget of one pass, in complex values: process synthesizes, range-
# transforms and writes the PDP of pass_frames(samples_per_chirp) beat rows
# at a time (30 rows, about 1 MB, at 2116 samples per chirp), and synthesis
# builds its power tables, anchors and products for as many frames of a
# pass as fit it.  Blocks of about 1 MB are small enough that the allocator
# reuses them from one to the next instead of mapping fresh pages for each.
_PASS_VALUES = 1 << 16


def pass_frames(values_per_frame: int) -> int:
    """Frames of one pass whose values_per_frame complex values each fit the
    _PASS_VALUES budget; one at least."""
    return max(1, _PASS_VALUES // values_per_frame)


def beat_passes(cir: Cir, noise: NoiseConfig = NoiseConfig(), lo: int = 0,
                hi: int | None = None):
    """Dechirped I/Q samples of frames [lo, hi) of the episode (hi None: to
    its end) under its chirp config, in the factored form of the module
    docstring, one pass after the other: (first frame, rows) pairs, rows a
    new (frames, samples_per_chirp) array of pass_frames(samples_per_chirp)
    frames, fewer in the last pass, that the caller may overwrite.

    Each path's slow-time phase is the running integral of its Doppler
    over the frames where it appears (trapezoid rule, keyed by path), so a
    drifting nu evolves the phase correctly; for constant nu this equals
    nu * (t - t_first).  The phases are summed once per call, over the
    whole episode.  Frames go through np.matmul in blocks, padded to the
    block's largest path count with zero weights, so an empty frame gives a
    zero row; the power tables put the power axis first, so each doubling
    step is one contiguous multiply, and np.matmul reads them transposed.
    Noise draws are keyed by (seed, epoch_index), so a given frame always
    receives the same noise regardless of pass boundaries.
    """
    config = cir.config
    n_s = config.samples_per_chirp
    span = range(len(cir))[lo:hi]
    if not span:
        return
    paths = cir.paths
    counts = np.bincount(paths.frame, minlength=len(cir))
    phi = _phase_trails(paths.key_ids(), cir.t[paths.frame], paths.nu)
    const = 2.0 * np.pi * (config.f_c * paths.tau
                           - 0.5 * config.slope * paths.tau ** 2) + phi
    weights = paths.a * np.exp(1j * const)

    # Anchor (t, s) fills rows [s, 2 s) of table t from rows [0, s): the
    # q table (t = 0) steps B s samples, the r table (t = 1) s samples.
    b = math.isqrt(max(n_s - 1, 0)) + 1
    q = -(-n_s // b)
    fills = ([(0, 2 ** k) for k in range((q - 1).bit_length())]
             + [(1, 2 ** k) for k in range((b - 1).bit_length())])
    hops = np.array([s * (b, 1)[t] for t, s in fills], float)[:, None, None]
    step = paths.tau * (2.0 * np.pi * config.slope / config.f_samp)
    block = pass_frames(q * b + (q + b + len(hops) + 1) * max(int(counts.max()), 1))
    bounds = np.concatenate([[0], np.cumsum(counts)])
    sigma = np.sqrt(noise.sample_variance(config.f_samp) / 2.0)
    for p0 in range(span.start, span.stop, pass_frames(n_s)):
        p1 = min(p0 + pass_frames(n_s), span.stop)
        beats = np.empty((p1 - p0, n_s), dtype=complex)
        for f0 in range(p0, p1, block):
            f1 = min(f0 + block, p1)
            live = np.arange(counts[f0:f1].max()) < counts[f0:f1, None]
            tables = left, right = [np.empty((n,) + live.shape, dtype=complex) for n in (q, b)]
            arg = np.zeros(live.shape)
            left[0], right[0] = 0.0, 1.0
            left[0][live] = weights[bounds[f0]:bounds[f1]]
            arg[live] = step[bounds[f0]:bounds[f1]]
            for (t, s), anchor in zip(fills, np.exp(1j * (hops * arg))):
                part = tables[t][s:2 * s]
                np.multiply(tables[t][:len(part)], anchor, out=part)
            product = np.matmul(left.transpose(1, 0, 2), right.transpose(1, 2, 0))
            beats[f0 - p0:f1 - p0] = product.reshape(f1 - f0, q * b)[:, :n_s]
        if noise.enabled:
            for row, epoch in zip(beats, cir.epoch_index[p0:p1].tolist()):
                rng = np.random.default_rng([noise.seed, epoch])
                row += sigma * (rng.standard_normal(n_s) + 1j * rng.standard_normal(n_s))
        yield p0, beats


def synth_beat(cir: Cir, noise: NoiseConfig = NoiseConfig()) -> np.ndarray:
    """Dechirped I/Q samples of the whole episode, one row per frame: the
    passes of beat_passes stacked."""
    beats = np.empty((len(cir), cir.config.samples_per_chirp), dtype=complex)
    for lo, rows in beat_passes(cir, noise):
        beats[lo:lo + len(rows)] = rows
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


def delay_axis(config: ChirpConfig, n_bins: int) -> np.ndarray:
    """Beat-spectrum bins mapped to path delay: freq / slope."""
    return np.arange(n_bins) * (config.f_samp / n_bins) / config.slope


def range_fft(samples: np.ndarray, window: str = "hann", zero_pad: bool = False,
              out: np.ndarray | None = None) -> np.ndarray:
    """Windowed fast-time FFT over the last axis, normalized by the window
    sum; written into out (C-contiguous rows) when given.  A block of rows
    gives the bits of each row on its own.

    The normalization multiplies the real and imaginary parts by the
    reciprocal of the window sum.  numpy's complex division by the sum
    computes (re + im 0) (1 / sum) and (im - re 0) (1 / sum), so on finite
    input the products have its bits up to the sign of a zero part; a
    spectrum with a zero part then takes numpy's division by 1, which
    applies that signed-zero rule."""
    n = samples.shape[-1]
    w = window_taps(window, n)
    spectrum = np.fft.fft(samples * w, n=2 * n if zero_pad else n, axis=-1, out=out)
    parts = spectrum.view(np.float64)
    # Dividing the parts by the sum instead would round differently.
    parts *= 1.0 / w.sum()
    if not parts.all():
        spectrum[(spectrum.real == 0.0) | (spectrum.imag == 0.0)] /= 1.0
    return spectrum


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


# _power_db of zero power, the value of every cell no path reaches.
_FLOOR_DB = float(_power_db(np.zeros(1))[0])


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


# Most cells, zero-padded ones counted, of a map the commands make: a 128 MB
# power grid, the zero-padded 128-chirp window at MAX_SAMPLES_PER_CHIRP.
MAX_MAP_CELLS = 128 * 2 * MAX_SAMPLES_PER_CHIRP

# Delay columns per slow-time FFT in delay_doppler: one reusable 1 MB complex
# block at 128 chirps.
_MAP_BLOCK_COLUMNS = 512


def delay_doppler(rows, times: np.ndarray, config: ChirpConfig,
                  t0_index: int = 0, window_fast: str = "hann",
                  window_slow: str = "hann") -> DelayDopplerMap:
    """Delay-Doppler power map of one window of n_chirps chirps.

    rows holds range_fft(beats[t0_index:t0_index + n_chirps], window_fast,
    zero_pad): one array, or a sequence of row blocks that stack to it, such
    as the slices of the passes a window of window_maps spans.  times holds
    the epoch of every beat row.  Rows twice as wide as samples_per_chirp are
    zero-padded.
    Doppler bins are spaced 1 / (n_chirps * pri) and span +-1 / (2 pri),
    centered on zero, with approaching targets at positive Doppler.  The
    slow-time FFT runs in place over blocks of delay columns, which gives
    the bits of one FFT over the whole window.  As in range_fft, the
    normalization multiplies by the reciprocal of the window sum, the bits
    of numpy's complex division up to the sign of zero parts, which the
    magnitude drops.  The magnitudes go straight into the fftshifted rows
    of the map and are squared there.
    """
    blocks = (rows,) if isinstance(rows, np.ndarray) else tuple(rows)
    n_chirps, n_delay = sum(len(block) for block in blocks), blocks[0].shape[1]
    zero_pad = n_delay == 2 * config.samples_per_chirp
    if not zero_pad and n_delay != config.samples_per_chirp:
        raise ValueError(f"{n_delay} delay bins, expected {config.samples_per_chirp} "
                         f"or {2 * config.samples_per_chirp} (zero-padded)")
    d_axis, nu_axis, meta = _map_axes(np.asarray(times, dtype=float), config, t0_index,
                                      n_chirps, n_delay, [window_fast, window_slow],
                                      zero_pad)
    w_slow = window_taps(window_slow, n_chirps)
    scale = 1.0 / w_slow.sum()
    half = n_chirps // 2                 # fftshift moves bins [0, n - half) up by half
    power = np.empty((n_chirps, n_delay))
    block = np.empty((n_chirps, min(n_delay, _MAP_BLOCK_COLUMNS)), dtype=complex)
    for lo in range(0, n_delay, _MAP_BLOCK_COLUMNS):
        hi = min(lo + _MAP_BLOCK_COLUMNS, n_delay)
        grid = block[:, :hi - lo]
        at = 0
        for part in blocks:
            np.multiply(part[:, lo:hi], w_slow[at:at + len(part), None],
                        out=grid[at:at + len(part)])
            at += len(part)
        np.fft.fft(grid, axis=0, out=grid)
        grid.view(np.float64)[...] *= scale
        np.abs(grid[:n_chirps - half], out=power[half:, lo:hi])
        np.abs(grid[n_chirps - half:], out=power[:half, lo:hi])
    return DelayDopplerMap(_power_db(np.square(power, out=power)), d_axis, nu_axis, meta)


def window_maps(passes, times: np.ndarray, config: ChirpConfig, starts, n_chirps: int,
                window_fast: str = "hann", window_slow: str = "hann"):
    """delay_doppler of the n_chirps-row window from each of the ascending
    starts, as (start, map) pairs, from passes of range spectra: (first
    row, rows) pairs of consecutive rows in order, such as beat_passes with
    its rows replaced by their range_fft.

    A window's map is made as soon as its last row has come, from the
    slices of the passes it spans, so no row is copied or transformed
    again however many windows hold it.  Only the passes that a window
    still to come reads are kept: one window of rows plus at most two
    passes.  Every pass is consumed, those after the last window too, and
    the kept passes are let go before the last map is handed out.
    """
    starts = list(starts)
    kept, k = [], 0
    for lo, rows in passes:
        if k == len(starts):
            continue
        kept = [(a, r) for a, r in kept + [(lo, rows)] if a + len(r) > starts[k]]
        while k < len(starts) and starts[k] + n_chirps <= lo + len(rows):
            start, k = starts[k], k + 1
            end = start + n_chirps
            ddm = delay_doppler([r[max(start - a, 0):end - a] for a, r in kept
                                 if a < end and a + len(r) > start],
                                times, config, t0_index=start,
                                window_fast=window_fast, window_slow=window_slow)
            if k == len(starts):
                kept = []
            yield start, ddm
            del ddm


@dataclass
class PdpSeries:
    """Per-chirp range-profile powers in dB, one row per epoch."""

    power_db: np.ndarray
    delay_axis: np.ndarray
    times: np.ndarray
    metadata: dict = field(default_factory=dict)


def pdp_series(rows: np.ndarray, times: np.ndarray, config: ChirpConfig,
               window: str = "hann") -> PdpSeries:
    """Range profile of every beat row: rows holds their range spectra
    (range_fft(beats, window)) and times their epochs."""
    times = np.asarray(times, dtype=float)
    if times.shape != rows.shape[:1]:
        raise ValueError(f"{len(times)} epoch times for {len(rows)} beat rows")
    power = np.abs(rows)
    return PdpSeries(_power_db(np.square(power, out=power)), delay_axis(config, rows.shape[1]),
                     times, metadata={"window": window, "config": config.to_dict()})


def _sin_pi_over(g: np.ndarray, n: int) -> np.ndarray:
    """sin(pi g / n), taken of g less its nearest multiple of n: exactly 0
    at those multiples and accurate near them, where g - turns n is exact
    (the table's offsets are multiples of 1/64)."""
    turns = np.round(g / n)
    return np.sin(np.pi * (g - turns * n) / n) * (1.0 - 2.0 * (turns % 2))


def _dirichlet(g: np.ndarray, n: int) -> np.ndarray:
    """sum_m exp(-2j pi g m / n) over m < n: exp(-j pi g (n - 1) / n)
    sin(pi g) / sin(pi g / n), and n where g is a multiple of n."""
    den = _sin_pi_over(g, n)
    on = den == 0
    ratio = _sin_pi_over(g, 1) / np.where(on, 1.0, den)
    return np.where(on, n, ratio * np.exp(-1j * np.pi * g * (n - 1) / n))


@functools.lru_cache(maxsize=8)
def _window_response_table(window: str, n: int):
    """|DTFT| of a window vs frequency offset in bins, normalized by the tap
    sum (1 at 0), at 64 points per bin over 8 bins; n taps repeat every n
    bins, so a short window wraps its one period.  Cached, as read-only
    arrays: it depends on nothing else.

    Closed form (Harris 1978): tap m of the cosine sum is
    sum_k a_k (-1)^k cos(2 pi k m / n), so its DTFT is
    sum_k a_k (-1)^k (D(f - k) + D(f + k)) / 2 with D the Dirichlet kernel
    of _dirichlet.  One tap is a boxcar, as in window_taps."""
    offs = np.arange(8 * 64 + 1) / 64
    coeffs = np.array(_WINDOWS[window] if n > 1 else (1.0,))
    k = np.arange(1 - len(coeffs), len(coeffs))
    weight = np.where(k == 0, 1.0, 0.5) * coeffs[np.abs(k)] * (-1.0) ** k
    spec = weight @ _dirichlet(offs + k[:, None], n)
    resp = np.abs(spec) / window_taps(window, n).sum()
    offs.flags.writeable = resp.flags.writeable = False
    return offs, resp


def predicted_map(cir: Cir, t0_index: int = 0, n_chirps: int = 128,
                  window_fast: str = "hann", window_slow: str = "hann") -> DelayDopplerMap:
    """Analytic delay-Doppler prediction from the episode's paths, under its
    chirp config.

    Each path of the mid-window frame contributes its power |a_n|^2 on the
    delay bin nearest tau_n, spread over Doppler by the discrete slow-time
    spectrum of the path's beat tone.  That spectrum is computed from the
    path's apparent slow-time phasor at nu_n plus two stretch-processing
    effects of a migrating delay: the fast-time window response sampled at
    the drifting beat-tone offset (scalloping and range-walk smearing) and
    the extra phase slope from the window centroid.  For a static path this
    reduces to |a_n|^2 sinc^2((nu_n - nu) T_w) on its delay bin under a
    boxcar slow-time window.  The tone is weighted by the taps of
    window_slow before its Doppler FFT and the power divided by their sum
    squared, as delay_doppler does, so the prediction matches a map
    processed with the same two windows, hann in both by default as in
    delay_doppler; a boxcar's taps of one leave the tone's bits as they
    are.  The axes match delay_doppler without padding; the metadata keeps
    the windows "analytic" and names the modeled ones under model_windows.

    The window response is read from the closed-form table of
    _window_response_table.  Powers accumulate only in the delay columns
    that paths hit, and every other cell is the dB of zero power, so the
    work beyond filling the map follows the paths, not the cells.
    """
    config = cir.config
    n_delay = config.samples_per_chirp
    d_axis, nu_axis, meta = _map_axes(cir.t, config, t0_index, n_chirps, n_delay,
                                      ["analytic", "analytic"], False)
    meta["model_windows"] = [window_fast, window_slow]
    delay_step = d_axis[1] - d_axis[0]
    t_centroid = (n_delay - 1) / (2.0 * config.f_samp)
    offs, resp = _window_response_table(window_fast, n_delay)
    window = cir[t0_index:t0_index + n_chirps]
    paths = window.paths
    ids = paths.key_ids()
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
    w = window_taps(window_slow, n_chirps)
    tone = gain * np.exp(2j * np.pi * apparent[:, None] * config.pri * m) * w
    col = np.abs(np.fft.fftshift(np.fft.fft(tone, axis=1), axes=1)) ** 2 / w.sum() ** 2
    used, column = np.unique(bin_idx, return_inverse=True)
    hit = np.zeros((n_chirps, len(used)))
    np.add.at(hit.T, column, np.abs(a)[:, None] ** 2 * col)
    power = np.full((n_chirps, n_delay), _FLOOR_DB)
    power[:, used] = _power_db(hit)
    return DelayDopplerMap(power, d_axis, nu_axis, meta)


MAP_MAGIC = b"RFTDDM1\n"


def save_map(path, ddm: DelayDopplerMap, frozen_clock: bool = False) -> None:
    """Binary map container: magic, JSON header, f64 axes, f64 dB grid."""
    with _grid_file(path, MAP_MAGIC, "rftwin-ddm", ("n_delay", "n_doppler"),
                    (ddm.delay_axis, ddm.doppler_axis), ddm.metadata, frozen_clock) as fh:
        fh.write(np.ascontiguousarray(ddm.power_db, dtype="<f8"))


def load_map(path) -> DelayDopplerMap:
    """Map of a .ddm file; ValueError unless it has at least one bin on each
    axis and any metadata t_window is a finite number."""
    d_axis, nu_axis, power, meta = _load_grid(path, MAP_MAGIC, "delay-Doppler map",
                                              ("n_doppler", "n_delay"), ("n_delay", "n_doppler"))
    t_window = meta.get("t_window", 0.0)
    if type(t_window) not in (int, float) or not abs(t_window) <= sys.float_info.max:
        raise ValueError(f"{path}: metadata t_window must be a finite number, "
                         f"got {t_window!r}")
    return DelayDopplerMap(power, d_axis, nu_axis, meta)


def map_to_csv(path, ddm: DelayDopplerMap) -> None:
    """One `delay_s,doppler_hz,power_db` line per cell, Doppler-major.

    Most cells hold the floor _FLOOR_DB, which no path reaches.  A run of
    floor cells in row r is one join of its delays' text with r's tail
    `,doppler,-300.0\\n`.  Only the reached cells are formatted, a block of
    at most CSV_CHUNK of them at a time, and each run of consecutive
    reached cells is a slice of its block's text."""
    from .csvtext import CSV_CHUNK, csv_lines, float_text, take_cells
    power = np.ascontiguousarray(ddm.power_db, dtype=np.float64)
    n_cols = power.shape[1]
    bits = power.reshape(-1).view(np.int64)
    cells = np.flatnonzero(bits != np.float64(_FLOOR_DB).view(np.int64))
    delays, dopplers = float_text(ddm.delay_axis), float_text(ddm.doppler_axis)
    heads = csv_lines(delays[:, None]).split(b"\n")[:-1]
    floor = f",{_FLOOR_DB!r}\n".encode()
    tails = [b"," + text + floor for text in csv_lines(dopplers[:, None]).split(b"\n")[:-1]]

    with open(path, "wb") as fh:
        def floor_run(lo, hi):
            while lo < hi:                          # cells [lo, hi), row by row
                r, c = divmod(lo, n_cols)
                count = min(n_cols - c, hi - lo)
                fh.write(tails[r].join(heads[c:c + count]))
                fh.write(tails[r])
                lo += count

        fh.write(b"delay_s,doppler_hz,power_db\n")
        done = 0
        for at in range(0, len(cells), CSV_CHUNK):
            block = cells[at:at + CSV_CHUNK]
            rows, cols = np.divmod(block, n_cols)
            text = csv_lines(take_cells(delays, cols)[:, None], take_cells(dopplers, rows)[:, None],
                             float_text(bits[block].view(np.float64))[:, None])
            runs = np.flatnonzero(np.diff(block, prepend=-2) != 1)   # each run's first cell
            stops = np.append(runs[1:], len(block))
            cuts = [0, len(text)]
            if len(runs) > 1:                       # byte offsets where the later runs start
                newlines = np.flatnonzero(np.frombuffer(text, np.uint8) == 10)
                cuts[1:1] = (newlines[runs[1:] - 1] + 1).tolist()
            lines = memoryview(text)
            for lo, last, a, b in zip(block[runs].tolist(), block[stops - 1].tolist(),
                                      cuts, cuts[1:]):
                floor_run(done, lo)
                fh.write(lines[a:b])
                done = last + 1
        floor_run(done, len(bits))


def map_to_pgm(path, ddm: DelayDopplerMap) -> None:
    """8-bit PGM heatmap plus a text sidecar recording the dB scale: black
    at 80 dB below the map's peak or lower, white at the peak.

    Rows run from the highest Doppler at the top to the lowest at the
    bottom; columns run from zero delay on the left.
    """
    vmax = float(ddm.power_db.max())
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
    epoch holding its time and its row of dB powers.  Without delay bins
    the lines are `t,` and each time with a comma: one empty field stands
    for the empty row."""
    with PdpWriter(pdp.times, pdp.delay_axis, pdp.metadata, csv_path=path) as writer:
        writer.write(pdp.power_db)


PDP_MAGIC = b"RFTPDP1\n"


def save_pdp(path, pdp: PdpSeries, frozen_clock: bool = False) -> None:
    """Binary PDP container: magic, JSON header, f64 times and delay axis,
    f64 dB grid."""
    with PdpWriter(pdp.times, pdp.delay_axis, pdp.metadata, bin_path=path,
                   frozen_clock=frozen_clock) as writer:
        writer.write(pdp.power_db)


class PdpWriter:
    """A PDP series written block by block, with the bytes that save_pdp
    (bin_path) and pdp_to_csv (csv_path) give the whole series.

    times, delay_axis and metadata are those of the whole series; entering
    the context opens the files and writes their headers.  Each write
    appends a block of rows of dB powers, the rows after those written
    before.  The text goes out in chunks of CSV_CHUNK values whatever the
    blocks, rows short of a chunk waiting for the next block.  Leaving the
    context closes the files, and raises ValueError if it is left without
    an exception before a row for every time came.
    """

    def __init__(self, times, delay_axis, metadata: dict, bin_path=None, csv_path=None,
                 frozen_clock: bool = False):
        self.times = np.asarray(times, dtype=float)
        self.delay_axis = np.asarray(delay_axis, dtype=float)
        self.metadata, self.frozen_clock = metadata, frozen_clock
        self.bin_path, self.csv_path, self.rows = bin_path, csv_path, 0

    def _cells(self, values: np.ndarray) -> np.ndarray:
        """Text fields of rows of values; one empty field without delay bins."""
        from .csvtext import float_text
        return float_text(values) if len(self.delay_axis) else np.zeros((1, 1, 0), np.uint8)

    def __enter__(self) -> PdpWriter:
        from .csvtext import csv_lines, float_text, text_cells
        self._bin = self._csv = None
        with contextlib.ExitStack() as files:
            if self.bin_path is not None:
                self._bin = files.enter_context(_grid_file(
                    self.bin_path, PDP_MAGIC, "rftwin-pdp", ("n_epochs", "n_delay"),
                    (self.times, self.delay_axis), self.metadata, self.frozen_clock))
            if self.csv_path is not None:
                self._csv = files.enter_context(open(self.csv_path, "wb"))
                self._csv.write(csv_lines(text_cells(["t"])[None],
                                          self._cells(self.delay_axis[None])))
                self._time_text = float_text(self.times)[:, None]
                self._waiting = np.zeros((0, len(self.delay_axis)))
            self._files = files.pop_all()
        return self

    def __exit__(self, kind, value, traceback) -> None:
        self._files.close()
        if kind is None and self.rows != len(self.times):
            raise ValueError(f"{self.rows} PDP rows written for {len(self.times)} epochs")

    def write(self, power_db: np.ndarray) -> None:
        from .csvtext import CSV_CHUNK, csv_lines
        if self._bin is not None:
            self._bin.write(np.ascontiguousarray(power_db, dtype="<f8"))
        self.rows += len(power_db)
        if self._csv is not None:
            power = np.concatenate([self._waiting, power_db])
            first = self.rows - len(power)
            step = max(1, CSV_CHUNK // (len(self.delay_axis) + 1))
            done = len(power) if self.rows >= len(self.times) else len(power) // step * step
            for lo in range(0, done, step):
                self._csv.write(csv_lines(self._time_text[first + lo:first + min(lo + step, done)],
                                          self._cells(power[lo:min(lo + step, done)])))
            self._waiting = power[done:]


def load_pdp(path) -> PdpSeries:
    """PDP series of a .pdp file; ValueError unless it has at least one
    epoch and one delay bin."""
    times, d_axis, power, meta = _load_grid(path, PDP_MAGIC, "PDP", ("n_epochs", "n_delay"),
                                            ("n_epochs", "n_delay"))
    return PdpSeries(power, d_axis, times, meta)


@contextlib.contextmanager
def _grid_file(path, magic: bytes, name: str, axis_keys, axes, metadata: dict,
               frozen_clock: bool):
    """The .ddm and .pdp container up to its grid: a header with the format
    name, the length of each axis under axis_keys and the metadata with its
    "created" time, then the two axes as little-endian f64.  Yields the
    open file, to which the caller appends the grid's rows, little-endian
    f64, in one or more row blocks."""
    header = {"format": name, "version": 1,
              "metadata": {**metadata, "created": "frozen" if frozen_clock else now()}}
    header.update((key, len(axis)) for key, axis in zip(axis_keys, axes))
    with open_container(path, magic, header) as fh:
        for axis in axes:
            fh.write(np.ascontiguousarray(axis, dtype="<f8"))
        yield fh


def _load_grid(path, magic: bytes, what: str, shape_keys, axis_keys):
    """The two axes, grid and metadata of a _grid_file container; the axes'
    lengths are the header sizes named by axis_keys.  ValueError unless both
    sizes are JSON integers of at least 1."""
    header, body = read_container(path, magic, what)
    for key in shape_keys:
        n = header.get(key)
        if type(n) is not int or n < 1:
            raise ValueError(f"{path}: header {key} must be a positive integer, got {n!r}")
    axes = [body.take("<f8", header[key]) for key in axis_keys]
    rows, cols = (header[key] for key in shape_keys)
    grid = body.take("<f8", rows * cols).reshape(rows, cols)
    body.end()
    return *axes, grid, header["metadata"]
