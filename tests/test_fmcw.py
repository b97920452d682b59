"""Beat synthesis and delay-Doppler processing against closed-form tones."""

import functools
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import constants
from scipy.constants import Boltzmann
from scipy.signal import get_window

from conftest import (FIXTURES, FLOAT_BITS, episode, frames_of, static_crossing_doc, tap_table,
                      window_map)
from rftwin.channel import ChirpConfig, SensingLink, simulate_cir
from rftwin import fmcw
from rftwin.raytrace import PathTable, TraceConfig
from rftwin.scene import load_scene, scene_from_dict
from rftwin.csvtext import CSV_CHUNK
from rftwin.fmcw import (
    BOLTZMANN,
    DelayDopplerMap,
    NoiseConfig,
    PdpSeries,
    PdpWriter,
    beat_passes,
    delay_axis,
    delay_doppler,
    load_map,
    load_pdp,
    map_to_csv,
    map_to_pgm,
    pdp_series,
    pdp_to_csv,
    predicted_map,
    range_fft,
    save_map,
    save_pdp,
    synth_beat,
    window_maps,
    window_taps,
)

CFG = ChirpConfig(n_chirps_total=256)
NS = CFG.samples_per_chirp                      # 2116
DELAY_STEP = (CFG.f_samp / NS) / CFG.slope      # one delay bin in seconds
DOPPLER_STEP = 1.0 / (128 * CFG.pri)            # one Doppler bin at N = 128


def tap(amplitude, delay, doppler):
    return amplitude, delay, doppler


def make_cir(taps, n, t0=0.0):
    """An episode of n frames under CFG carrying the same taps, each tap its
    own path key."""
    a, tau, nu = zip(*taps) if taps else ((), (), ())
    return episode(((k, t0 + k * CFG.pri, tap_table(a, tau, nu), 0) for k in range(n)), CFG)


def wrap(phi):
    return np.angle(np.exp(1j * phi))


def test_window_taps_values_and_validation():
    n = 16
    hann = window_taps("hann", n)
    k = np.arange(n)
    assert np.allclose(hann, 0.5 - 0.5 * np.cos(2 * np.pi * k / n), atol=1e-12)
    assert np.array_equal(window_taps("boxcar", n), np.ones(n))
    assert len(window_taps("hamming", n)) == n
    assert len(window_taps("blackman", n)) == n
    with pytest.raises(ValueError, match="unknown window"):
        window_taps("kaiser9000", n)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            window_taps("hann", bad)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["hann", "hamming", "blackman", "boxcar"]),
       st.integers(min_value=1, max_value=4208))
def test_window_taps_match_scipy_bits(name, n):
    assert window_taps(name, n).tobytes() == get_window(name, n, fftbins=True).tobytes()


@pytest.mark.parametrize("name", ["hann", "hamming", "blackman", "boxcar"])
def test_window_response_table_repeats_short_windows(name):
    """n taps have a DTFT of period n bins: a window shorter than the 8-bin
    span repeats its one period.  The closed form agrees with the direct
    DTFT sum and, from 9 taps up, with the first 8 * 64 + 1 points of the
    64-times padded FFT to 16 ulps of the peak: the two round differently
    (largest gap seen 6.9e-16)."""
    for n in [*range(1, 13), 128, 2116]:
        offs, resp = fmcw._window_response_table(name, n)
        assert len(offs) == len(resp) == 8 * 64 + 1
        w = window_taps(name, n)
        if n <= 12:
            dtft = np.abs(np.exp(-2j * np.pi * np.outer(offs / n, np.arange(n))) @ w) / w.sum()
            assert np.allclose(resp, dtft, rtol=0.0, atol=1e-12)
        if n >= 9:
            spec = np.abs(np.fft.fft(w, n * 64)) / w.sum()
            assert np.abs(resp - spec[:8 * 64 + 1]).max() <= 16 * np.finfo(float).eps


def test_window_response_table_is_cached_read_only():
    """predicted_map reads one cached table per (window, n); a write to it
    would reach every later prediction, so it raises."""
    tables = fmcw._window_response_table("hann", 2116)
    assert fmcw._window_response_table("hann", 2116) is tables
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0


def test_boltzmann_literal_is_codata():
    assert BOLTZMANN == constants.k


def test_beat_tone_sits_at_slope_times_delay():
    tau = 160 * DELAY_STEP          # exactly on delay bin 160
    beats = synth_beat(make_cir([tap(1.0, tau, 0.0)], 1))
    spec = np.abs(range_fft(beats[0], window="boxcar"))
    assert np.argmax(spec) == 160
    # on-grid boxcar tone: normalized peak equals the tap amplitude
    assert spec[160] == pytest.approx(1.0, rel=1e-12)
    # tone frequency itself: slope * tau
    assert CFG.slope * tau == pytest.approx(160 * CFG.f_samp / NS, rel=1e-12)


def test_beat_constant_phase_term():
    tau = 160 * DELAY_STEP
    a = 0.5 * np.exp(-2j * np.pi * CFG.f_c * tau)   # carrier phase convention
    beats = synth_beat(make_cir([tap(a, tau, 0.0)], 1))
    # at the first fast-time sample the f_c tau terms cancel, leaving the
    # residual video phase -pi slope tau^2
    expected = wrap(-np.pi * CFG.slope * tau ** 2)
    assert np.angle(beats[0, 0]) == pytest.approx(expected, abs=1e-9)
    assert abs(beats[0, 0]) == pytest.approx(0.5, rel=1e-12)


def test_slow_time_phase_advance_per_chirp():
    nu = 1106.6
    tau = 200 * DELAY_STEP
    beats = synth_beat(make_cir([tap(1.0, tau, nu)], 4))
    for k in range(3):
        step = np.angle(beats[k + 1, 0] * np.conj(beats[k, 0]))
        assert step == pytest.approx(wrap(2 * np.pi * nu * CFG.pri), abs=1e-9)
    # the engineering rule of thumb for this Doppler: about 0.875 rad per chirp
    assert 2 * np.pi * nu * CFG.pri == pytest.approx(0.875, abs=1e-3)


def test_parseval_with_documented_scaling():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(NS) + 1j * rng.standard_normal(NS)
    for window in ("hann", "boxcar"):
        w = window_taps(window, NS)
        spec = range_fft(x, window=window)
        lhs = np.sum(np.abs(spec) ** 2) * w.sum() ** 2 / NS
        rhs = np.sum(np.abs(x * w) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_zero_padding_doubles_bins_and_keeps_peak():
    tau = 300 * DELAY_STEP
    beats = synth_beat(make_cir([tap(1.0, tau, 0.0)], 1))
    spec = np.abs(range_fft(beats[0], window="hann", zero_pad=True))
    assert len(spec) == 2 * NS
    assert np.argmax(spec) == 600
    axis = delay_axis(CFG, 2 * NS)
    assert axis[600] == pytest.approx(tau, rel=1e-12)
    assert axis[1] == pytest.approx(DELAY_STEP / 2.0, rel=1e-12)


def test_hann_highest_sidelobe_level():
    # half-bin offset samples the sidelobes at their peaks; an on-grid tone
    # would sample them at their nulls and hide the window's leakage floor
    tau = 400.5 * DELAY_STEP
    beats = synth_beat(make_cir([tap(1.0, tau, 0.0)], 1))
    spec = np.abs(range_fft(beats[0], window="hann"))
    k = np.arange(NS)
    mainlobe = np.abs(k - 400.5) < 2.5
    worst_db = 20 * np.log10(spec[(~mainlobe) & (k < NS // 2)].max())
    assert -33.5 < worst_db < -31.0     # textbook Hann first sidelobe -31.5 dB
    # scalloping: the sampled peak of a half-bin tone is about 1.42 dB down
    assert 20 * np.log10(spec[mainlobe].max()) == pytest.approx(-1.42, abs=0.02)


def test_tone_separation_resolved_and_merged():
    t1, t2_far, t2_near = 400 * DELAY_STEP, 403 * DELAY_STEP, 400.8 * DELAY_STEP
    resolved = synth_beat(make_cir([tap(1.0, t1, 0.0),
                                       tap(-1.0, t2_far, 0.0)], 1))
    spec = np.abs(range_fft(resolved[0], window="hann"))
    region = spec[395:410]
    local_max = [i for i in range(1, len(region) - 1)
                 if region[i] >= region[i - 1] and region[i] >= region[i + 1]
                 and region[i] > 0.25 * region.max()]
    assert len(local_max) == 2

    merged = synth_beat(make_cir([tap(1.0, t1, 0.0),
                                     tap(1.0, t2_near, 0.0)], 1))
    spec = np.abs(range_fft(merged[0], window="hann"))
    region = spec[395:410]
    local_max = [i for i in range(1, len(region) - 1)
                 if region[i] >= region[i - 1] and region[i] >= region[i + 1]
                 and region[i] > 0.25 * region.max()]
    assert len(local_max) == 1


def test_map_axes_spacing_and_metadata():
    cir = make_cir([tap(1.0, 160 * DELAY_STEP, 0.0)], 128)
    beats, times = synth_beat(cir), cir.t
    ddm = window_map(beats, times, CFG, n_chirps=128)
    assert ddm.power_db.shape == (128, NS)
    assert ddm.doppler_bin == pytest.approx(DOPPLER_STEP, rel=1e-12)
    assert ddm.doppler_axis[0] == pytest.approx(-64 * DOPPLER_STEP, rel=1e-12)
    assert ddm.doppler_axis[64] == 0.0
    assert ddm.delay_bin == pytest.approx(DELAY_STEP, rel=1e-12)
    assert ddm.metadata["t_window"] == pytest.approx(0.01611008, rel=1e-12)
    assert ddm.metadata["windows"] == ["hann", "hann"]
    assert ddm.metadata["t0_index"] == 0
    assert ddm.metadata["config"]["f_c"] == CFG.f_c
    rows = range_fft(beats)
    with pytest.raises(ValueError, match="outside"):
        delay_doppler(rows, times, CFG, t0_index=1)
    with pytest.raises(ValueError, match="outside"):
        delay_doppler(rows[:64], times, CFG, t0_index=-1)
    with pytest.raises(ValueError, match=f"{NS - 1} delay bins, expected {NS} or {2 * NS}"):
        delay_doppler(rows[:, 1:], times, CFG)
    with pytest.raises(ValueError, match="127 epoch times for 128 beat rows"):
        pdp_series(rows, times[:-1], CFG)


def test_on_grid_path_power_is_exact():
    a = 0.01
    tau = 160 * DELAY_STEP
    cir = make_cir([tap(a, tau, 0.0)], 128)
    ddm = window_map(synth_beat(cir), cir.t, CFG, n_chirps=128)
    i, j = np.unravel_index(np.argmax(ddm.power_db), ddm.power_db.shape)
    assert (i, j) == (64, 160)      # zero Doppler row, the tap's delay bin
    assert ddm.power_linear()[i, j] == pytest.approx(a * a, rel=1e-9)
    assert ddm.power_db[i, j] == pytest.approx(20 * np.log10(a), abs=1e-8)


def test_approaching_target_lands_at_positive_doppler():
    nu = 17 * DOPPLER_STEP
    cir = make_cir([tap(1.0, 160 * DELAY_STEP, nu)], 128)
    times = cir.t
    ddm = window_map(synth_beat(cir), times, CFG, n_chirps=128)
    i, j = np.unravel_index(np.argmax(ddm.power_db), ddm.power_db.shape)
    assert ddm.doppler_axis[i] == pytest.approx(nu, rel=1e-12)
    assert j == 160
    receding = synth_beat(make_cir([tap(1.0, 160 * DELAY_STEP, -nu)], 128))
    i2, _ = np.unravel_index(np.argmax(window_map(receding, times, CFG).power_db),
                             (128, NS))
    assert window_map(receding, times, CFG).doppler_axis[i2] == pytest.approx(-nu)


def test_doppler_beyond_nyquist_folds():
    f_rep = 1.0 / CFG.pri
    nu = 69 * DOPPLER_STEP          # 5 bins past the +Nyquist edge (64 bins)
    cir = make_cir([tap(1.0, 160 * DELAY_STEP, nu)], 128)
    ddm = window_map(synth_beat(cir), cir.t, CFG, n_chirps=128)
    i, _ = np.unravel_index(np.argmax(ddm.power_db), ddm.power_db.shape)
    assert ddm.doppler_axis[i] == pytest.approx(nu - f_rep, rel=1e-9)


def test_predicted_map_matches_processed_on_grid():
    a, tau, nu = 0.02, 160 * DELAY_STEP, 17 * DOPPLER_STEP
    cir = make_cir([tap(a, tau, nu)], 128)
    beats = synth_beat(cir)
    proc = window_map(beats, cir.t, CFG, n_chirps=128,
                      window_fast="boxcar", window_slow="boxcar")
    pred = predicted_map(cir, n_chirps=128, window_slow="boxcar")
    pi = np.unravel_index(np.argmax(pred.power_db), pred.power_db.shape)
    qi = np.unravel_index(np.argmax(proc.power_db), proc.power_db.shape)
    assert pi == qi == (64 + 17, 160)
    assert pred.power_db[pi] == pytest.approx(proc.power_db[qi], abs=1e-6)
    assert np.array_equal(pred.delay_axis, proc.delay_axis)
    assert np.array_equal(pred.doppler_axis, proc.doppler_axis)
    assert pred.metadata["windows"] == ["analytic", "analytic"]


def test_predicted_map_doppler_mainlobe_shape():
    # off-grid Doppler spreads as the slow-time spectrum of a boxcar phasor
    a, tau = 1.0, 160 * DELAY_STEP
    nu = 17.5 * DOPPLER_STEP
    cir = make_cir([tap(a, tau, nu)], 128)
    pred = predicted_map(cir, n_chirps=128, window_slow="boxcar")
    col = pred.power_linear()[:, 160]
    mm = np.arange(128)
    expect = np.array([
        abs(np.exp(2j * np.pi * (nu - f) * CFG.pri * mm).sum()) ** 2 / 128 ** 2
        for f in pred.doppler_axis])
    assert np.allclose(col, expect, atol=1e-12)
    # and stays close to the continuum sinc^2 form
    t_w = 128 * CFG.pri
    sinc_form = np.sinc((nu - pred.doppler_axis) * t_w) ** 2
    assert np.max(np.abs(col - sinc_form)) < 1e-4


@pytest.mark.parametrize("window_slow", ["boxcar", "hann", "blackman"])
def test_predicted_map_models_the_slow_time_window(window_slow):
    """An on-grid tap peaks at the power of the map processed with the same
    windows, an off-grid tap's column is the window's spectrum of its tone
    over the tap sum squared, and the hann map is the default's bits."""
    a, tau = 0.02, 160 * DELAY_STEP
    cir = make_cir([tap(a, tau, 17 * DOPPLER_STEP)], 128)
    proc = window_map(synth_beat(cir), cir.t, CFG, n_chirps=128, window_slow=window_slow)
    pred = predicted_map(cir, n_chirps=128, window_slow=window_slow)
    assert pred.metadata["model_windows"] == ["hann", window_slow]
    assert pred.metadata["windows"] == ["analytic", "analytic"]
    pi = np.unravel_index(np.argmax(pred.power_db), pred.power_db.shape)
    assert pi == np.unravel_index(np.argmax(proc.power_db), proc.power_db.shape) == (81, 160)
    assert pred.power_db[pi] == pytest.approx(proc.power_db[pi], abs=1e-6)
    if window_slow == "hann":
        assert pred.power_db.tobytes() == predicted_map(cir, n_chirps=128).power_db.tobytes()

    nu = 17.5 * DOPPLER_STEP
    pred = predicted_map(make_cir([tap(1.0, tau, nu)], 128), n_chirps=128,
                         window_slow=window_slow)
    w, mm = window_taps(window_slow, 128), np.arange(128)
    expect = [abs((w * np.exp(2j * np.pi * (nu - f) * CFG.pri * mm)).sum()) ** 2 / w.sum() ** 2
              for f in pred.doppler_axis]
    assert np.allclose(pred.power_linear()[:, 160], expect, atol=1e-12)


def test_the_default_maps_of_a_window_agree():
    """predicted_map and delay_doppler with their default windows, over the
    first 128 chirps of a scenario_b mono episode of specular paths: every
    peak within 60 dB of the maximum pairs up, in the same cell, within
    0.05 dB.  A boxcar slow window puts the prediction 1.42 dB off the
    default map at its strongest peak."""
    from rftwin.analysis import match_maps

    config = replace(CFG, n_chirps_total=128)
    cir = simulate_cir(load_scene(FIXTURES / "scenario_b.json"), SensingLink("UE", "UE"),
                       config, TraceConfig(diffuse_enabled=False), t0=0.1)
    processed = delay_doppler(range_fft(synth_beat(cir)), cir.t, config)
    report = match_maps(predicted_map(cir), processed, threshold_db=60.0)
    assert report.max_power_error_db <= 0.05, report.summary()
    assert len(report.matches) == 2
    assert not report.unmatched_reference and not report.unmatched_test
    assert report.max_delay_bin_error == report.max_doppler_bin_error == 0
    boxcar = match_maps(predicted_map(cir, window_slow="boxcar"), processed)
    assert boxcar.max_power_error_db == pytest.approx(1.42, abs=0.01)


def test_predicted_map_rounds_delay_to_nearest_bin():
    cir = make_cir([tap(1.0, 160.4 * DELAY_STEP, 0.0)], 128)
    pred = predicted_map(cir, n_chirps=128)
    assert np.argmax(pred.power_db[64]) == 160
    cir = make_cir([tap(1.0, 160.6 * DELAY_STEP, 0.0)], 128)
    pred = predicted_map(cir, n_chirps=128)
    assert np.argmax(pred.power_db[64]) == 161
    with pytest.raises(ValueError, match="outside"):
        predicted_map(cir, t0_index=64, n_chirps=128)


def dense_predicted_map(cir, t0_index=0, n_chirps=128, window_fast="hann"):
    """predicted_map as it was, accumulating into a zero map of every delay
    bin and taking the dB of all of it: the reference for the one that
    accumulates only the columns that paths hit."""
    config = cir.config
    n_delay = config.samples_per_chirp
    d_axis = delay_axis(config, n_delay)
    power = np.zeros((n_chirps, n_delay))
    delay_step = d_axis[1] - d_axis[0]
    t_centroid = (n_delay - 1) / (2.0 * config.f_samp)
    offs, resp = fmcw._window_response_table(window_fast, n_delay)
    window = cir[t0_index:t0_index + n_chirps]
    paths = window.paths
    ids = paths.key_ids()
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
    return 10.0 * np.log10(np.maximum(power, 1e-30))


def drifting_cir(delays_at, n=128, empty_frame=None):
    """An episode of n frames whose taps sit at delays_at(k) in frame k, with
    amplitudes 1, 0.5, 0.25, ... and Dopplers 3.3, 6.6, ... bins; frame
    empty_frame carries no paths."""
    def frame(k):
        tau = [] if k == empty_frame else delays_at(k)
        return tap_table(0.5 ** np.arange(len(tau)),
                         np.asarray(tau, float) * DELAY_STEP,
                         3.3 * DOPPLER_STEP * np.arange(1, len(tau) + 1))
    return episode(((k, k * CFG.pri, frame(k), 0) for k in range(n)), CFG)


@pytest.mark.parametrize("window_fast", ["hann", "boxcar"])
@pytest.mark.parametrize("case", ["empty_mid_frame", "beyond_last_bin", "shared_bins"])
def test_predicted_map_equals_the_dense_reference(case, window_fast):
    """The bytes of a map accumulated over every delay bin, when the middle
    frame has no paths (every cell at the floor), when paths lie past the
    last delay bin or before the first, and when several paths, some of
    them drifting, land on one delay bin."""
    if case == "empty_mid_frame":
        cir = drifting_cir(lambda k: [160.0, 300.2], empty_frame=64)
    elif case == "beyond_last_bin":
        cir = drifting_cir(lambda k: [2116.0 + 0.01 * k, 2115.4, 500.0, -0.6, 9000.0])
    else:
        cir = drifting_cir(lambda k: [160.0, 160.3 - 0.002 * k, 159.7, 700.0, 160.45 - 0.001 * k])
    got = predicted_map(cir, n_chirps=128, window_fast=window_fast,
                        window_slow="boxcar").power_db
    want = dense_predicted_map(cir, n_chirps=128, window_fast=window_fast)
    assert got.tobytes() == want.tobytes()
    hit = np.flatnonzero((got > -300.0).any(axis=0)).tolist()
    assert hit == {"empty_mid_frame": [], "beyond_last_bin": [500, 2115],
                   "shared_bins": [160, 700]}[case]


def test_pdp_series_static_path():
    cir = make_cir([tap(0.1, 160 * DELAY_STEP, 0.0)], 16)
    beats = synth_beat(cir)
    pdp = pdp_series(range_fft(beats), cir.t, CFG)
    assert pdp.power_db.shape == (16, NS)
    assert np.array_equal(np.argmax(pdp.power_db, axis=1), np.full(16, 160))
    assert np.allclose(pdp.times, cir.t)
    assert pdp.metadata["window"] == "hann"
    assert pdp.power_db[0, 160] == pytest.approx(20 * np.log10(0.1), abs=1e-8)
    # range_fft transforms every row of the matrix as it does a single row
    rows = range_fft(beats, window="hamming", zero_pad=True)
    assert rows.shape == (16, 2 * NS)
    assert np.allclose(rows[5], range_fft(beats[5], window="hamming", zero_pad=True),
                       rtol=1e-12, atol=1e-15)


def direct_beats(cir, noise=NoiseConfig()):
    """The direct sum: one weights @ exp(outer(tau, t_m)) per frame, with
    each key's phase trail updated frame by frame."""
    config = cir.config
    n_s = config.samples_per_chirp
    t_m = np.arange(n_s) / config.f_samp
    trail = {}                          # key -> (t, nu, phase) when last seen
    beats = np.empty((len(cir), n_s), dtype=complex)
    for row, (epoch, t, p, _) in zip(beats, frames_of(cir)):
        keys = p.keys()
        t_prev, nu_prev, phi_prev = np.array(
            [trail.get(k, (np.nan,) * 3) for k in keys]).reshape(-1, 3).T
        phi = phi_prev + np.pi * (nu_prev + p.nu) * (t - t_prev)
        phi[np.isnan(t_prev)] = 0.0
        trail.update(zip(keys, zip([t] * len(p), p.nu.tolist(), phi.tolist())))
        const = 2.0 * np.pi * (config.f_c * p.tau
                               - 0.5 * config.slope * p.tau ** 2) + phi
        weights = p.a * np.exp(1j * const)
        tones = np.exp(1j * (2.0 * np.pi * config.slope) * np.outer(p.tau, t_m))
        row[:] = weights @ tones
        if noise.enabled:
            sigma = np.sqrt(noise.sample_variance(config.f_samp) / 2.0)
            rng = np.random.default_rng([noise.seed, epoch])
            row += sigma * (rng.standard_normal(n_s) + 1j * rng.standard_normal(n_s))
    return beats


# 2104 samples per chirp: not a square, so the factored rows are cut.
CFG_2104 = ChirpConfig(f_samp=18.65e6, n_chirps_total=256)


@settings(max_examples=40, deadline=None)
@given(config=st.sampled_from([CFG, CFG_2104]), n_frames=st.integers(1, 6),
       pool=st.integers(0, 70), seed=st.integers(0, 2 ** 32 - 1), noise=st.booleans())
def test_factored_synthesis_matches_direct_sum(config, n_frames, pool, seed, noise):
    """Random frames of 0-70 paths drawn from a pool of keys, so paths
    appear, vanish and reappear and some frames are empty."""
    rng = np.random.default_rng(seed)
    frames = []
    for k in range(n_frames):
        ids = np.flatnonzero(rng.random(pool) < rng.choice([0.0, 0.3, 0.8, 1.0]))
        n = len(ids)
        paths = PathTable(np.ones(n, np.uint8), np.ones(n, np.uint8),
                          ids.astype(np.int32)[:, None], np.full(n, -1, np.int32),
                          a=rng.standard_normal(n) + 1j * rng.standard_normal(n),
                          tau=rng.uniform(0.0, config.max_delay, n),
                          nu=rng.uniform(-0.5, 0.5, n) / config.pri)
        frames.append((k, k * config.pri, paths, 0))
    cir = episode(frames, config)
    cfg_noise = NoiseConfig(enabled=noise, seed=seed % 1000)
    got, want = synth_beat(cir, cfg_noise), direct_beats(cir, cfg_noise)
    assert got.shape == want.shape == (n_frames, config.samples_per_chirp)
    assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()


@pytest.mark.parametrize("window", ["hann", "hamming", "blackman", "boxcar"])
@pytest.mark.parametrize("zero_pad", [False, True])
@pytest.mark.parametrize("n", [64, NS])
def test_range_fft_equals_complex_division_bit_for_bit(window, zero_pad, n):
    """range_fft scales by the reciprocal of the window sum; every bit,
    signed zeros included, equals numpy's complex division by the sum.  An
    all-zero row times blackman's tiny negative first tap gives -0 inputs."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
    x[1] = 0.0
    x[3].imag = 0.0
    taps = window_taps(window, n)
    want = np.fft.fft(x * taps, 2 * n if zero_pad else n) / taps.sum()
    assert range_fft(x, window, zero_pad).tobytes() == want.tobytes()
    out = np.empty((7, want.shape[1]), dtype=complex)
    got = range_fft(x, window, zero_pad, out=out[1:6])
    assert got.base is out and out[1:6].tobytes() == want.tobytes()


def spectra_passes(beats, rows, window, zero_pad, seen=None):
    """range_fft of beats in passes of rows rows, as (first row, spectra)
    pairs; the first row of each pass drawn goes into seen."""
    for lo in range(0, len(beats), rows):
        if seen is not None:
            seen.append(lo)
        yield lo, range_fft(beats[lo:lo + rows], window, zero_pad)


@pytest.mark.parametrize("zero_pad", [False, True])
@pytest.mark.parametrize("stride", [7, 45])
@pytest.mark.parametrize("n", [40, 41])
def test_shared_range_rows_give_per_window_maps_bit_for_bit(zero_pad, stride, n):
    """window_maps over passes of range spectra gives, for each window, the
    bits of delay_doppler on range_fft of that window alone, which are
    those of one slow-time FFT over the whole window, for every window name
    in both roles and passes of 1, 7 and 30 rows: a window is read as the
    slices of the 2 to 41 passes it spans.  An odd n splits the fftshift
    unevenly, and beat row 50 is all zero.  Every pass is drawn, also
    after the last window."""
    cir = make_cir([tap(0.05, 160 * DELAY_STEP, 3 * DOPPLER_STEP),
                          tap(0.02, 420.3 * DELAY_STEP, -11.4 * DOPPLER_STEP)], 100)
    beats = synth_beat(cir, NoiseConfig(enabled=True, seed=3))
    beats[50] = 0.0
    times = cir.t
    starts = list(range(0, len(beats) - n + 1, stride))
    names = ["hann", "hamming", "blackman", "boxcar"]
    for rows, (fast, slow) in zip([1, 7, 30, 7], zip(names, names[1:] + names[:1])):
        seen, made = [], []
        for start, ddm in window_maps(spectra_passes(beats, rows, fast, zero_pad, seen), times,
                                      CFG, starts, n, fast, slow):
            made.append(start)
            fresh = range_fft(beats[start:start + n], fast, zero_pad)
            alone = delay_doppler(fresh, times, CFG, t0_index=start,
                                  window_fast=fast, window_slow=slow)
            w = window_taps(slow, n)
            grid = np.fft.fftshift(np.fft.fft(fresh * w[:, None], axis=0), axes=0)
            grid /= w.sum()
            whole = 10.0 * np.log10(np.maximum(np.abs(grid) ** 2, 1e-30))
            assert ddm.power_db.tobytes() == alone.power_db.tobytes() == whole.tobytes()
            assert ddm.metadata == alone.metadata
            assert ddm.metadata["zero_pad"] is zero_pad
            assert ddm.metadata["windows"] == [fast, slow]
            assert ddm.metadata["t0_index"] == start
        assert made == starts
        assert seen == list(range(0, len(beats), rows))


@functools.cache
def synthesis_episodes():
    """Episodes for the pass tests: scenario_b mono with diffuse paths, and
    the static crossing BS -> UE, whose plate starts to block the LOS at
    t = 0.375 s, so frames lose paths partway."""
    b = simulate_cir(load_scene(FIXTURES / "scenario_b.json"), SensingLink("UE", "UE"),
                     replace(CFG, n_chirps_total=70), TraceConfig(), t0=0.1)
    crossing = simulate_cir(scene_from_dict(static_crossing_doc()), SensingLink("BS", "UE"),
                            ChirpConfig(t_idle=5e-3, n_chirps_total=70),
                            TraceConfig(diffuse_samples_per_facet=4), t0=0.2)
    return {"scenario_b": b, "static_crossing": crossing}


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from(["scenario_b", "static_crossing"]), lo=st.integers(0, 70),
       size=st.integers(0, 70), rows=st.integers(1, 40), noise=st.booleans())
@example(case="static_crossing", lo=0, size=70, rows=1, noise=True)
@example(case="static_crossing", lo=29, size=37, rows=6, noise=False)
@example(case="scenario_b", lo=3, size=66, rows=30, noise=True)
def test_synthesis_over_a_frame_range_equals_the_one_shot_matrix(case, lo, size, rows, noise):
    """beat_passes over frames [lo, hi) in passes of `rows` rows gives, bit
    for bit, those rows of the matrix that one np.matmul block over the
    whole episode gives.  The pass budget also sizes synthesis's blocks,
    so they pad to other path counts than the one-shot block."""
    cir = synthesis_episodes()[case]
    hi = min(lo + size, len(cir))
    noise = NoiseConfig(enabled=noise, seed=lo)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fmcw, "_PASS_VALUES", 1 << 40)
        whole = synth_beat(cir, noise)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fmcw, "_PASS_VALUES", rows * cir.config.samples_per_chirp)
        passes = list(beat_passes(cir, noise, lo, hi))
    firsts = list(range(lo, hi, rows))
    assert [first for first, _ in passes] == firsts
    assert [len(block) for _, block in passes] == [min(rows, hi - f) for f in firsts]
    got = np.concatenate([block for _, block in passes]) if passes else whole[:0]
    assert got.tobytes() == whole[lo:hi].tobytes()
    counts = np.bincount(cir.paths.frame, minlength=len(cir))
    assert (case == "static_crossing") == (counts.min() < counts.max())


def test_noise_defaults_off_and_floor_formula():
    noise = NoiseConfig()
    assert not noise.enabled
    expected_floor = (10 * np.log10(Boltzmann * 290.0 * CFG.f_samp / 1e-3) + 15.0)
    assert noise.floor_dbm(CFG.f_samp) == pytest.approx(expected_floor, abs=1e-9)
    assert noise.sample_variance(CFG.f_samp) == pytest.approx(
        10 ** ((expected_floor - 12.0) / 10.0), rel=1e-12)
    cir = make_cir([tap(1.0, 160 * DELAY_STEP, 0.0)], 4)
    clean = synth_beat(cir)
    default = synth_beat(cir, NoiseConfig())
    assert np.array_equal(clean, default)


def test_noise_config_validation():
    for kwargs, message in (({"noise_figure_db": np.nan}, "noise_figure_db must be finite"),
                            ({"tx_power_dbm": np.inf}, "tx_power_dbm must be finite"),
                            ({"seed": -1}, "seed must be a non-negative integer, got -1")):
        with pytest.raises(ValueError, match=message):
            NoiseConfig(enabled=True, **kwargs)
    NoiseConfig(enabled=True, seed=0)


def test_noise_is_deterministic_and_keyed_by_epoch():
    cir = make_cir([tap(0.001, 500 * DELAY_STEP, 0.0)], 48)
    noisy = NoiseConfig(enabled=True, seed=5)
    a = synth_beat(cir, noisy)
    b = synth_beat(cir, noisy)
    assert np.array_equal(a, b)
    c = synth_beat(cir, NoiseConfig(enabled=True, seed=6))
    assert not np.array_equal(a[0], c[0])
    # per-epoch keying: a tail batch reproduces the same noise draws
    tail = synth_beat(cir[32:], noisy)
    assert np.array_equal(a[32:], tail)


def test_noise_variance_matches_config():
    cir = make_cir([], 64)
    noise = NoiseConfig(enabled=True, seed=11)
    beats = synth_beat(cir, noise)
    samples = beats.ravel()
    var = np.mean(np.abs(samples) ** 2)
    assert var == pytest.approx(noise.sample_variance(CFG.f_samp), rel=0.02)
    assert np.mean(samples).real == pytest.approx(0.0, abs=5e-3 * np.sqrt(var))


def small_map():
    cir = make_cir([tap(0.05, 160 * DELAY_STEP, 3 * 1.0 / (16 * CFG.pri))], 16)
    return window_map(synth_beat(cir), cir.t, CFG, n_chirps=16)


def test_map_file_roundtrip_and_frozen_determinism(tmp_path):
    ddm = small_map()
    out = tmp_path / "map.ddm"
    save_map(out, ddm, frozen_clock=True)
    back = load_map(out)
    assert np.array_equal(back.power_db, ddm.power_db)
    assert np.array_equal(back.delay_axis, ddm.delay_axis)
    assert np.array_equal(back.doppler_axis, ddm.doppler_axis)
    assert back.metadata["n_chirps"] == 16
    assert back.metadata["created"] == "frozen"
    # Views of the file's buffer, writable as the copies they replaced were.
    assert all(a.flags.writeable for a in (back.power_db, back.delay_axis, back.doppler_axis))
    out2 = tmp_path / "map2.ddm"
    save_map(out2, ddm, frozen_clock=True)
    assert out.read_bytes() == out2.read_bytes()
    junk = tmp_path / "junk.ddm"
    junk.write_bytes(b"XXXXXXXX" + b"\x00" * 16)
    with pytest.raises(ValueError, match="not a rftwin delay-Doppler"):
        load_map(junk)


def test_loaded_arrays_are_aligned_for_every_header_length(tmp_path):
    """The payload starts at byte 12 + header length; padding the metadata
    by one character at a time puts that offset at every residue mod 8, and
    each time the map and PDP arrays come back 8-byte aligned, writable and
    sharing one file buffer."""
    ddm = small_map()
    pdp = pdp_series(range_fft(np.ones((4, 8), complex)), np.arange(4) * CFG.pri, CFG)
    files = ((save_map, load_map, ddm, "map.ddm", "doppler_axis"),
             (save_pdp, load_pdp, pdp, "series.pdp", "times"))
    residues = set()
    for pad in range(8):
        for save, load, data, name, axis in files:
            data.metadata["pad"] = "x" * pad
            save(tmp_path / name, data, frozen_clock=True)
            back = load(tmp_path / name)
            raw = (tmp_path / name).read_bytes()
            residues.add((12 + int.from_bytes(raw[8:12], "little")) % 8)
            arrays = [back.power_db, back.delay_axis, getattr(back, axis)]
            assert all(a.flags.aligned and a.flags.writeable for a in arrays)
            assert all(a.base is arrays[0].base for a in arrays)
            assert back.power_db.tobytes() == data.power_db.tobytes()
    assert residues == set(range(8))


@pytest.mark.parametrize("t_window", [True, float("nan"), float("inf"), 10 ** 400],
                         ids=["bool", "nan", "inf", "huge-int"])
def test_load_map_rejects_a_t_window_that_is_not_a_finite_number(tmp_path, t_window):
    """test_cli covers a string, null and empty axes; a bool, a non-finite
    float and an int beyond the float range are not finite numbers either."""
    ddm = small_map()
    ddm.metadata["t_window"] = t_window
    out = tmp_path / "bad.ddm"
    save_map(out, ddm, frozen_clock=True)
    with pytest.raises(ValueError, match=re.escape(f"{out}: metadata t_window")):
        load_map(out)


def test_map_csv_export(tmp_path):
    ddm = small_map()
    ddm.power_db[0, :3] = (-0.0, np.nan, -np.inf)
    out = tmp_path / "map.csv"
    map_to_csv(out, ddm)
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == "delay_s,doppler_hz,power_db"
    assert len(lines) == 1 + ddm.power_db.size
    tau, nu, p = lines[1].split(",")
    assert float(tau) == ddm.delay_axis[0]
    assert float(nu) == ddm.doppler_axis[0]
    assert p == "-0.0"
    # One line per cell, Doppler-major, every float written by repr.
    cells = "".join(f"{tau!r},{nu!r},{p!r}\n"
                    for nu, row in zip(ddm.doppler_axis.tolist(), ddm.power_db.tolist())
                    for tau, p in zip(ddm.delay_axis.tolist(), row))
    assert text == "delay_s,doppler_hz,power_db\n" + cells


def test_map_pgm_export(tmp_path):
    ddm = small_map()
    out = tmp_path / "map.pgm"
    map_to_pgm(out, ddm)
    raw = out.read_bytes()
    header, rest = raw.split(b"\n", 1)
    assert header == b"P5"
    dims, rest = rest.split(b"\n", 1)
    w, h = (int(x) for x in dims.split())
    assert (h, w) == ddm.power_db.shape
    maxval, pixels = rest.split(b"\n", 1)
    assert maxval == b"255"
    assert len(pixels) == h * w
    # top-left pixel is the highest Doppler row
    top_row = np.frombuffer(pixels[:w], np.uint8)
    assert np.array_equal(
        top_row,
        np.round(255 * np.clip(
            (ddm.power_db[-1] - (ddm.power_db.max() - 80.0)) / 80.0,
            0, 1)).astype(np.uint8))
    sidecar = (tmp_path / "map.pgm.txt").read_text()
    assert "db_max" in sidecar and "doppler_step_hz" in sidecar
    assert repr(ddm.doppler_bin) in sidecar


def test_pdp_series_blocks_match_whole_matrix(tmp_path):
    """The PDP of range spectra taken in passes is that of the whole
    matrix, and a PdpWriter fed the passes' blocks writes the bytes that
    save_pdp and pdp_to_csv give the whole series; one row short, leaving
    it raises."""
    rng = np.random.default_rng(5)
    rows = fmcw.pass_frames(96)
    n = 2 * rows + 37
    beats = rng.standard_normal((n, 96)) + 1j * rng.standard_normal((n, 96))
    beats[3] = 0.0                                  # clipped to the -300 dB floor
    times = np.arange(n) * CFG.pri
    pdp = pdp_series(range_fft(beats, "blackman"), times, CFG, window="blackman")
    whole = 10.0 * np.log10(np.maximum(np.abs(range_fft(beats, "blackman")) ** 2, 1e-30))
    assert pdp.power_db.tobytes() == whole.tobytes()
    assert pdp.power_db.shape == (n, 96) and len(pdp.delay_axis) == 96
    save_pdp(tmp_path / "whole.pdp", pdp, frozen_clock=True)
    pdp_to_csv(tmp_path / "whole.csv", pdp)
    blocks = [pdp_series(range_fft(beats[lo:lo + rows], "blackman"), times[lo:lo + rows], CFG,
                         window="blackman") for lo in range(0, n, rows)]
    with PdpWriter(times, pdp.delay_axis, pdp.metadata, tmp_path / "passes.pdp",
                   tmp_path / "passes.csv", True) as writer:
        for block in blocks:
            writer.write(block.power_db)
    for suffix in (".pdp", ".csv"):
        assert ((tmp_path / f"passes{suffix}").read_bytes()
                == (tmp_path / f"whole{suffix}").read_bytes())
    with pytest.raises(ValueError, match=f"{n - 1} PDP rows written for {n} epochs"):
        with PdpWriter(times, pdp.delay_axis, pdp.metadata, tmp_path / "short.pdp") as writer:
            writer.write(pdp_series(range_fft(beats[:-1]), times[:-1], CFG).power_db)


def test_pdp_file_roundtrip_and_csv(tmp_path):
    cir = make_cir([tap(0.05, 160 * DELAY_STEP, 0.0)], 8)
    pdp = pdp_series(range_fft(synth_beat(cir)), cir.t, CFG)
    out = tmp_path / "series.pdp"
    save_pdp(out, pdp, frozen_clock=True)
    back = load_pdp(out)
    assert np.array_equal(back.power_db, pdp.power_db)
    assert np.array_equal(back.times, pdp.times)
    assert np.array_equal(back.delay_axis, pdp.delay_axis)
    assert back.metadata["created"] == "frozen"
    assert all(a.flags.writeable for a in (back.power_db, back.times, back.delay_axis))
    junk = tmp_path / "junk.pdp"
    junk.write_bytes(b"YYYYYYYY" + b"\x00" * 16)
    with pytest.raises(ValueError, match="not a rftwin PDP"):
        load_pdp(junk)

    csv = tmp_path / "series.csv"
    pdp_to_csv(csv, pdp)
    lines = csv.read_text().splitlines()
    assert len(lines) == 1 + 8
    assert lines[0] == "t," + ",".join(repr(d) for d in pdp.delay_axis.tolist())
    for line, t, row in zip(lines[1:], pdp.times.tolist(), pdp.power_db.tolist()):
        assert line == ",".join(repr(v) for v in [t, *row])


def reference_map_csv(path, ddm):
    """map_to_csv as it was, one repr call per float: the byte reference."""
    delays = [f"{tau!r}," for tau in ddm.delay_axis.tolist()]
    with open(path, "w") as fh:
        fh.write("delay_s,doppler_hz,power_db\n")
        for nu, row in zip(ddm.doppler_axis.tolist(), ddm.power_db):
            doppler = f"{nu!r},"
            fh.write("".join([f"{tau}{doppler}{p!r}\n"
                              for tau, p in zip(delays, row.tolist())]))


def reference_pdp_csv(path, pdp):
    """pdp_to_csv as it was, one repr call per float: the byte reference."""
    with open(path, "w") as fh:
        fh.write("t," + ",".join(map(repr, pdp.delay_axis.tolist())) + "\n")
        for t, row in zip(pdp.times.tolist(), pdp.power_db):
            fh.write(f"{t!r}," + ",".join(map(repr, row.tolist())) + "\n")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_map_and_pdp_round_trips_are_bit_exact(tmp_path_factory, data):
    def f64(n):
        return np.array(data.draw(st.lists(FLOAT_BITS, min_size=n, max_size=n)),
                        np.uint64).view(np.float64)

    rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
    ddm = DelayDopplerMap(f64(rows * cols).reshape(rows, cols), f64(cols), f64(rows),
                          {"n_chirps": rows})
    pdp = PdpSeries(f64(rows * cols).reshape(rows, cols), f64(cols), f64(rows),
                    {"window": "hann"})
    directory = tmp_path_factory.mktemp("maps")
    save_map(directory / "r.ddm", ddm, frozen_clock=True)
    save_pdp(directory / "r.pdp", pdp, frozen_clock=True)
    back_map, back_pdp = load_map(directory / "r.ddm"), load_pdp(directory / "r.pdp")
    for got, want in ((back_map.power_db, ddm.power_db),
                      (back_map.delay_axis, ddm.delay_axis),
                      (back_map.doppler_axis, ddm.doppler_axis),
                      (back_pdp.power_db, pdp.power_db),
                      (back_pdp.delay_axis, pdp.delay_axis),
                      (back_pdp.times, pdp.times)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert back_map.metadata == {"n_chirps": rows, "created": "frozen"}
    assert back_pdp.metadata == {"window": "hann", "created": "frozen"}
    # The CSV writers equal their per-value references byte for byte.
    for write, reference, item, name in ((map_to_csv, reference_map_csv, ddm, "m"),
                                         (pdp_to_csv, reference_pdp_csv, pdp, "p")):
        write(directory / f"{name}.csv", item)
        reference(directory / f"{name}_ref.csv", item)
        assert (directory / f"{name}.csv").read_bytes() == (directory / f"{name}_ref.csv").read_bytes()


def test_csv_writers_match_their_references_across_blocks(tmp_path):
    """Maps and PDPs larger than one CSV block: a 40 x 2116 map and a PDP
    row of 20000 values, with the -300 dB floor, signed zeros, powers
    repeated in every block and exponent-form delays after a 0.0 first bin;
    maps with more reached cells than CSV_CHUNK: 9 x 2116 without floor,
    12 x 2116 with floor runs at row starts and ends and inside rows (runs
    cut by block edges), one column, and rows wider than a block; then
    empty shapes, with and without epochs or delay bins."""
    rng = np.random.default_rng(11)
    repeated = np.concatenate([rng.normal(-60.0, 20.0, 40), [-300.0] * 200, [0.0, -0.0]])
    power = rng.choice(repeated, (40, 2116))
    power[::3, ::7] = rng.normal(-60.0, 20.0, power[::3, ::7].shape)
    delay = np.arange(2116) * 2.500298702351641e-10
    doppler = (np.arange(40) - 20.0) * 38.75968992248062
    row = rng.choice(repeated, (1, 20000))
    row[0, ::11] = rng.normal(-60.0, 20.0, row[0, ::11].shape)
    cases = [(map_to_csv, reference_map_csv, DelayDopplerMap(power, delay, doppler, {})),
             (pdp_to_csv, reference_pdp_csv, PdpSeries(row, np.arange(20000) * 2.5e-10,
                                                        np.array([0.1]), {})),
             (pdp_to_csv, reference_pdp_csv, PdpSeries(power, delay, doppler * 1e-6, {}))]
    dense = rng.normal(-60.0, 20.0, (9, 2116))
    runs = rng.normal(-60.0, 20.0, (12, 2116))
    runs[::2, :300] = runs[1::2, -500:] = runs[3, 1000:1200] = fmcw._FLOOR_DB
    column = rng.normal(-60.0, 20.0, (30000, 1))
    column[rng.random(30000) < 0.3] = fmcw._FLOOR_DB
    wide = rng.normal(-60.0, 20.0, (2, 20000))
    wide[1, 5000:5010] = fmcw._FLOOR_DB
    for grid in (dense, runs, column, wide):
        assert (grid != fmcw._FLOOR_DB).sum() > CSV_CHUNK
        cases.append((map_to_csv, reference_map_csv,
                      DelayDopplerMap(grid, np.arange(grid.shape[1]) * 2.5e-10,
                                      np.arange(len(grid)) - 4.0, {})))
    for rows, cols in ((0, 2116), (40, 0), (0, 0)):
        cases.append((map_to_csv, reference_map_csv,
                      DelayDopplerMap(power[:rows, :cols], delay[:cols], doppler[:rows], {})))
    for rows, cols in ((0, 2116), (3, 0), (0, 0)):
        cases.append((pdp_to_csv, reference_pdp_csv,
                      PdpSeries(power[:rows, :cols], delay[:cols], doppler[:rows] * 1e-6, {})))
    for k, (write, reference, item) in enumerate(cases):
        write(tmp_path / f"{k}.csv", item)
        reference(tmp_path / f"{k}_ref.csv", item)
        assert (tmp_path / f"{k}.csv").read_bytes() == (tmp_path / f"{k}_ref.csv").read_bytes(), k


FLOOR_BITS = int(np.float64(fmcw._FLOOR_DB).view(np.uint64))
MAP_BITS = st.one_of(st.just(FLOOR_BITS), FLOAT_BITS)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_map_csv_floor_runs_match_the_reference(tmp_path_factory, data):
    """Floor runs at the start or end of a row, as the whole row or nowhere
    in it, among -0.0, NaN, +-inf and arbitrary float bits (floor cells
    drawn among them make runs inside rows too)."""
    rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 8))
    bits = np.array(data.draw(st.lists(MAP_BITS, min_size=rows * cols, max_size=rows * cols)),
                    np.uint64).reshape(rows, cols)
    for row in bits:
        layout = data.draw(st.sampled_from(["start", "end", "whole", "none"]))
        n = data.draw(st.integers(0, cols))
        if layout == "start":
            row[:n] = FLOOR_BITS
        elif layout == "end":
            row[cols - n:] = FLOOR_BITS
        elif layout == "whole":
            row[:] = FLOOR_BITS
        else:
            row[row == FLOOR_BITS] = np.float64(-0.0).view(np.uint64)
    axes = np.array(data.draw(st.lists(FLOAT_BITS, min_size=rows + cols, max_size=rows + cols)),
                    np.uint64).view(np.float64)
    ddm = DelayDopplerMap(bits.view(np.float64), axes[:cols], axes[cols:], {})
    directory = tmp_path_factory.mktemp("runs")
    map_to_csv(directory / "m.csv", ddm)
    reference_map_csv(directory / "m_ref.csv", ddm)
    assert (directory / "m.csv").read_bytes() == (directory / "m_ref.csv").read_bytes()


def test_beat_frames_cover_episode(plates_episode):
    beats, times = plates_episode.beats, plates_episode.times
    assert isinstance(beats, np.ndarray) and beats.dtype == complex
    assert beats.shape == (256, NS)
    assert times.shape == (256,)
    assert times[1] - times[0] == pytest.approx(CFG.pri)
