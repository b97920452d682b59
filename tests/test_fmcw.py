"""Beat synthesis and delay-Doppler processing against closed-form tones."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import constants
from scipy.constants import Boltzmann
from scipy.signal import get_window

from conftest import FLOAT_BITS, episode, frames_of, tap_table, window_map
from rftwin.channel import ChirpConfig
from rftwin import fmcw
from rftwin.raytrace import PathTable
from rftwin.fmcw import (
    BOLTZMANN,
    DelayDopplerMap,
    NoiseConfig,
    PdpSeries,
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
    range_windows,
    save_map,
    save_pdp,
    synth_beat,
    window_taps,
)

CFG = ChirpConfig(n_chirps_total=256)
NS = CFG.samples_per_chirp                      # 2116
DELAY_STEP = (CFG.f_samp / NS) / CFG.slope      # one delay bin in seconds
DOPPLER_STEP = 1.0 / (128 * CFG.pri)            # one Doppler bin at N = 128


def tap(amplitude, delay, doppler):
    return amplitude, delay, doppler


def make_cir(taps, n, t0=0.0):
    """An episode of n frames carrying the same taps, each tap its own path
    key."""
    a, tau, nu = zip(*taps) if taps else ((), (), ())
    return episode((k, t0 + k * CFG.pri, tap_table(a, tau, nu), 0) for k in range(n))


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
    span repeats its one period, and from 9 taps up the table is the first
    8 * 64 + 1 points of the padded FFT, bit for bit."""
    for n in range(1, 13):
        offs, resp = fmcw._window_response_table(name, n)
        assert len(offs) == len(resp) == 8 * 64 + 1
        w = window_taps(name, n)
        dtft = np.abs(np.exp(-2j * np.pi * np.outer(offs / n, np.arange(n))) @ w) / w.sum()
        assert np.allclose(resp, dtft, rtol=0.0, atol=1e-12)
        if n >= 9:
            spec = np.abs(np.fft.fft(w, n * 64)) / w.sum()
            assert resp.tobytes() == spec[:8 * 64 + 1].tobytes()


def test_boltzmann_literal_is_codata():
    assert BOLTZMANN == constants.k


def test_beat_tone_sits_at_slope_times_delay():
    tau = 160 * DELAY_STEP          # exactly on delay bin 160
    beats = synth_beat(make_cir([tap(1.0, tau, 0.0)], 1), CFG)
    spec = np.abs(range_fft(beats[0], window="boxcar"))
    assert np.argmax(spec) == 160
    # on-grid boxcar tone: normalized peak equals the tap amplitude
    assert spec[160] == pytest.approx(1.0, rel=1e-12)
    # tone frequency itself: slope * tau
    assert CFG.slope * tau == pytest.approx(160 * CFG.f_samp / NS, rel=1e-12)


def test_beat_constant_phase_term():
    tau = 160 * DELAY_STEP
    a = 0.5 * np.exp(-2j * np.pi * CFG.f_c * tau)   # carrier phase convention
    beats = synth_beat(make_cir([tap(a, tau, 0.0)], 1), CFG)
    # at the first fast-time sample the f_c tau terms cancel, leaving the
    # residual video phase -pi slope tau^2
    expected = wrap(-np.pi * CFG.slope * tau ** 2)
    assert np.angle(beats[0, 0]) == pytest.approx(expected, abs=1e-9)
    assert abs(beats[0, 0]) == pytest.approx(0.5, rel=1e-12)


def test_slow_time_phase_advance_per_chirp():
    nu = 1106.6
    tau = 200 * DELAY_STEP
    beats = synth_beat(make_cir([tap(1.0, tau, nu)], 4), CFG)
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
    beats = synth_beat(make_cir([tap(1.0, tau, 0.0)], 1), CFG)
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
    beats = synth_beat(make_cir([tap(1.0, tau, 0.0)], 1), CFG)
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
                                       tap(-1.0, t2_far, 0.0)], 1), CFG)
    spec = np.abs(range_fft(resolved[0], window="hann"))
    region = spec[395:410]
    local_max = [i for i in range(1, len(region) - 1)
                 if region[i] >= region[i - 1] and region[i] >= region[i + 1]
                 and region[i] > 0.25 * region.max()]
    assert len(local_max) == 2

    merged = synth_beat(make_cir([tap(1.0, t1, 0.0),
                                     tap(1.0, t2_near, 0.0)], 1), CFG)
    spec = np.abs(range_fft(merged[0], window="hann"))
    region = spec[395:410]
    local_max = [i for i in range(1, len(region) - 1)
                 if region[i] >= region[i - 1] and region[i] >= region[i + 1]
                 and region[i] > 0.25 * region.max()]
    assert len(local_max) == 1


def test_map_axes_spacing_and_metadata():
    cir = make_cir([tap(1.0, 160 * DELAY_STEP, 0.0)], 128)
    beats, times = synth_beat(cir, CFG), cir.t
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
        pdp_series(beats, times[:-1], CFG)


def test_on_grid_path_power_is_exact():
    a = 0.01
    tau = 160 * DELAY_STEP
    cir = make_cir([tap(a, tau, 0.0)], 128)
    ddm = window_map(synth_beat(cir, CFG), cir.t, CFG, n_chirps=128)
    i, j = np.unravel_index(np.argmax(ddm.power_db), ddm.power_db.shape)
    assert (i, j) == (64, 160)      # zero Doppler row, the tap's delay bin
    assert ddm.power_linear()[i, j] == pytest.approx(a * a, rel=1e-9)
    assert ddm.power_db[i, j] == pytest.approx(20 * np.log10(a), abs=1e-8)


def test_approaching_target_lands_at_positive_doppler():
    nu = 17 * DOPPLER_STEP
    cir = make_cir([tap(1.0, 160 * DELAY_STEP, nu)], 128)
    times = cir.t
    ddm = window_map(synth_beat(cir, CFG), times, CFG, n_chirps=128)
    i, j = np.unravel_index(np.argmax(ddm.power_db), ddm.power_db.shape)
    assert ddm.doppler_axis[i] == pytest.approx(nu, rel=1e-12)
    assert j == 160
    receding = synth_beat(make_cir([tap(1.0, 160 * DELAY_STEP, -nu)], 128), CFG)
    i2, _ = np.unravel_index(np.argmax(window_map(receding, times, CFG).power_db),
                             (128, NS))
    assert window_map(receding, times, CFG).doppler_axis[i2] == pytest.approx(-nu)


def test_doppler_beyond_nyquist_folds():
    f_rep = 1.0 / CFG.pri
    nu = 69 * DOPPLER_STEP          # 5 bins past the +Nyquist edge (64 bins)
    cir = make_cir([tap(1.0, 160 * DELAY_STEP, nu)], 128)
    ddm = window_map(synth_beat(cir, CFG), cir.t, CFG, n_chirps=128)
    i, _ = np.unravel_index(np.argmax(ddm.power_db), ddm.power_db.shape)
    assert ddm.doppler_axis[i] == pytest.approx(nu - f_rep, rel=1e-9)


def test_predicted_map_matches_processed_on_grid():
    a, tau, nu = 0.02, 160 * DELAY_STEP, 17 * DOPPLER_STEP
    cir = make_cir([tap(a, tau, nu)], 128)
    beats = synth_beat(cir, CFG)
    proc = window_map(beats, cir.t, CFG, n_chirps=128,
                      window_fast="boxcar", window_slow="boxcar")
    pred = predicted_map(cir, CFG, n_chirps=128)
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
    pred = predicted_map(cir, CFG, n_chirps=128)
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


def test_predicted_map_rounds_delay_to_nearest_bin():
    cir = make_cir([tap(1.0, 160.4 * DELAY_STEP, 0.0)], 128)
    pred = predicted_map(cir, CFG, n_chirps=128)
    assert np.argmax(pred.power_db[64]) == 160
    cir = make_cir([tap(1.0, 160.6 * DELAY_STEP, 0.0)], 128)
    pred = predicted_map(cir, CFG, n_chirps=128)
    assert np.argmax(pred.power_db[64]) == 161
    with pytest.raises(ValueError, match="outside"):
        predicted_map(cir, CFG, t0_index=64, n_chirps=128)


def test_pdp_series_static_path():
    cir = make_cir([tap(0.1, 160 * DELAY_STEP, 0.0)], 16)
    beats = synth_beat(cir, CFG)
    pdp = pdp_series(beats, cir.t, CFG)
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


def direct_beats(cir, config, noise=NoiseConfig()):
    """The direct sum: one weights @ exp(outer(tau, t_m)) per frame, with
    each key's phase trail updated frame by frame."""
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
    cir = episode(frames)
    cfg_noise = NoiseConfig(enabled=noise, seed=seed % 1000)
    got, want = synth_beat(cir, config, cfg_noise), direct_beats(cir, config, cfg_noise)
    assert got.shape == want.shape == (n_frames, config.samples_per_chirp)
    assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()


@pytest.mark.parametrize("zero_pad", [False, True])
@pytest.mark.parametrize("stride", [7, 45])
def test_shared_range_rows_give_per_window_maps_bit_for_bit(zero_pad, stride):
    """Each window's rows from range_windows are range_fft of that window
    alone, and delay_doppler on them gives the bits of one slow-time FFT
    over the whole window, for every window name in both roles."""
    n = 40                      # more than one range_fft block per window
    cir = make_cir([tap(0.05, 160 * DELAY_STEP, 3 * DOPPLER_STEP),
                          tap(0.02, 420.3 * DELAY_STEP, -11.4 * DOPPLER_STEP)], 100)
    beats = synth_beat(cir, CFG, NoiseConfig(enabled=True, seed=3))
    times = cir.t
    starts = list(range(0, len(beats) - n + 1, stride))
    names = ["hann", "hamming", "blackman", "boxcar"]
    for fast, slow in zip(names, names[1:] + names[:1]):
        shared = range_windows(beats, starts, n, fast, zero_pad)
        for start, rows in zip(starts, shared):
            fresh = range_fft(beats[start:start + n], fast, zero_pad)
            assert rows.tobytes() == fresh.tobytes()
            ddm = delay_doppler(rows, times, CFG, t0_index=start,
                                window_fast=fast, window_slow=slow)
            w = window_taps(slow, n)
            grid = np.fft.fftshift(np.fft.fft(fresh * w[:, None], axis=0), axes=0)
            grid /= w.sum()
            whole = 10.0 * np.log10(np.maximum(np.abs(grid) ** 2, 1e-30))
            assert ddm.power_db.tobytes() == whole.tobytes()
            assert ddm.metadata["zero_pad"] is zero_pad
            assert ddm.metadata["windows"] == [fast, slow]
            assert ddm.metadata["t0_index"] == start


def test_noise_defaults_off_and_floor_formula():
    noise = NoiseConfig()
    assert not noise.enabled
    expected_floor = (10 * np.log10(Boltzmann * 290.0 * CFG.f_samp / 1e-3) + 15.0)
    assert noise.floor_dbm(CFG.f_samp) == pytest.approx(expected_floor, abs=1e-9)
    assert noise.sample_variance(CFG.f_samp) == pytest.approx(
        10 ** ((expected_floor - 12.0) / 10.0), rel=1e-12)
    cir = make_cir([tap(1.0, 160 * DELAY_STEP, 0.0)], 4)
    clean = synth_beat(cir, CFG)
    default = synth_beat(cir, CFG, NoiseConfig())
    assert np.array_equal(clean, default)


def test_noise_config_validation():
    for kwargs, message in (({"noise_figure_db": np.nan}, "noise_figure_db must be finite"),
                            ({"tx_power_dbm": np.inf}, "tx_power_dbm must be finite"),
                            ({"temperature_k": 0.0}, "temperature_k must be finite and positive"),
                            ({"temperature_k": np.inf}, "temperature_k must be finite"),
                            ({"temperature_k": np.nan}, "temperature_k must be finite"),
                            ({"seed": -1}, "seed must be a non-negative integer, got -1")):
        with pytest.raises(ValueError, match=message):
            NoiseConfig(enabled=True, **kwargs)
    NoiseConfig(enabled=True, seed=0, temperature_k=1e-3)


def test_noise_is_deterministic_and_keyed_by_epoch():
    cir = make_cir([tap(0.001, 500 * DELAY_STEP, 0.0)], 48)
    noisy = NoiseConfig(enabled=True, seed=5)
    a = synth_beat(cir, CFG, noisy)
    b = synth_beat(cir, CFG, noisy)
    assert np.array_equal(a, b)
    c = synth_beat(cir, CFG, NoiseConfig(enabled=True, seed=6))
    assert not np.array_equal(a[0], c[0])
    # per-epoch keying: a tail batch reproduces the same noise draws
    tail = synth_beat(cir[32:], CFG, noisy)
    assert np.array_equal(a[32:], tail)


def test_noise_variance_matches_config():
    cir = make_cir([], 64)
    noise = NoiseConfig(enabled=True, seed=11)
    beats = synth_beat(cir, CFG, noise)
    samples = beats.ravel()
    var = np.mean(np.abs(samples) ** 2)
    assert var == pytest.approx(noise.sample_variance(CFG.f_samp), rel=0.02)
    assert np.mean(samples).real == pytest.approx(0.0, abs=5e-3 * np.sqrt(var))


def small_map():
    cir = make_cir([tap(0.05, 160 * DELAY_STEP, 3 * 1.0 / (16 * CFG.pri))], 16)
    return window_map(synth_beat(cir, CFG), cir.t, CFG, n_chirps=16)


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
    out2 = tmp_path / "map2.ddm"
    save_map(out2, ddm, frozen_clock=True)
    assert out.read_bytes() == out2.read_bytes()
    junk = tmp_path / "junk.ddm"
    junk.write_bytes(b"XXXXXXXX" + b"\x00" * 16)
    with pytest.raises(ValueError, match="not a rftwin delay-Doppler"):
        load_map(junk)


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


def test_pdp_series_blocks_match_whole_matrix():
    rng = np.random.default_rng(5)
    n = 2 * fmcw._PDP_BLOCK_ROWS + 37
    beats = rng.standard_normal((n, 96)) + 1j * rng.standard_normal((n, 96))
    beats[3] = 0.0                                  # clipped to the -300 dB floor
    pdp = pdp_series(beats, np.arange(n) * CFG.pri, CFG, window="blackman")
    whole = 10.0 * np.log10(np.maximum(np.abs(range_fft(beats, "blackman")) ** 2, 1e-30))
    assert pdp.power_db.tobytes() == whole.tobytes()
    assert pdp.power_db.shape == (n, 96) and len(pdp.delay_axis) == 96


def test_pdp_file_roundtrip_and_csv(tmp_path):
    cir = make_cir([tap(0.05, 160 * DELAY_STEP, 0.0)], 8)
    pdp = pdp_series(synth_beat(cir, CFG), cir.t, CFG)
    out = tmp_path / "series.pdp"
    save_pdp(out, pdp, frozen_clock=True)
    back = load_pdp(out)
    assert np.array_equal(back.power_db, pdp.power_db)
    assert np.array_equal(back.times, pdp.times)
    assert np.array_equal(back.delay_axis, pdp.delay_axis)
    assert back.metadata["created"] == "frozen"
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


def test_beat_frames_cover_episode(plates_episode):
    beats, times = plates_episode.beats, plates_episode.times
    assert isinstance(beats, np.ndarray) and beats.dtype == complex
    assert beats.shape == (256, NS)
    assert times.shape == (256,)
    assert times[1] - times[0] == pytest.approx(CFG.pri)
