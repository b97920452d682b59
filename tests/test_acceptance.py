"""Release gate: ten end-to-end checks with pinned tolerances.

Each test prints a single ``ACCEPTANCE NN PASS/FAIL`` line carrying the
measured numbers, so a log scrape shows the whole checklist at a glance.
The thresholds are frozen here on purpose: loosening one is a release
decision, not a test fix.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import replace

import numpy as np
from scipy.optimize import minimize

from conftest import FIXTURES, episode, tap_table, two_ray_doc, window_map
from rftwin.analysis import extract_peaks, ridge_fraction
from rftwin.channel import ChirpConfig, max_range
from rftwin.cli import main
from rftwin.em import lobe_density, specular_reduction
from rftwin.fmcw import pdp_series, predicted_map, range_rows, synth_beat, window_taps
from rftwin.kinematics import snapshot
from rftwin.raytrace import trace_specular
from rftwin.scene import scene_from_dict


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_unambiguous_range():
    config = ChirpConfig()
    mono = max_range(config, "mono")
    bi = max_range(config, "bi")
    ok = abs(mono - 79.4) <= 0.1 and abs(bi - 158.8) <= 0.1
    _verdict(1, ok, f"max range mono {mono:.4f} m (expect 79.4 +/- 0.1), "
                    f"bi {bi:.4f} m (expect 158.8 +/- 0.1)")


def test_criterion_02_window_duration_identity():
    config = ChirpConfig()
    t_w = config.window_duration(128)
    product = 128 * (config.t_chirp + config.t_idle)
    ok = (t_w == product
          and abs(t_w - 16.11e-3) <= 5e-6
          and abs(t_w - 0.01611008) <= 1e-12 * 0.01611008)
    _verdict(2, ok, f"T_w(128) = {t_w * 1e3:.5f} ms, "
                    f"N * (t_chirp + t_idle) = {product * 1e3:.5f} ms")


def test_criterion_03_crossing_car_map(scenario_b_episode):
    ep = scenario_b_episode
    runtime = ep.seconds["simulate"] + ep.seconds["synth"]
    n = 128
    start = len(ep.beats) - n      # closest approach sits at the episode end
    ddm = window_map(ep.beats, ep.times, ep.config, t0_index=start, n_chirps=n)
    movers = [p for p in extract_peaks(ddm, threshold_db=40.0)
              if abs(p.doppler_hz) > 300.0]
    top = max(movers, key=lambda p: p.power_db)

    static = replace(ep.cir, paths=ep.cir.paths.take(np.abs(ep.cir.paths.nu) < 5.0))
    static_map = window_map(synth_beat(static, ep.config), ep.times,
                            ep.config, t0_index=start, n_chirps=n)
    ridge = ridge_fraction(static_map)

    ok = (abs(top.delay_s - 62e-9) <= ddm.delay_bin
          and abs(top.doppler_hz - 1106.6) <= ddm.doppler_bin
          and ridge >= 0.9
          and runtime < 60.0
          and len(ep.cir) == 4096
          and len(ep.scene.facets) <= 50)
    _verdict(3, ok, f"car peak {top.delay_s * 1e9:.3f} ns / "
                    f"{top.doppler_hz:.1f} Hz (expect 62 ns / 1106.6 Hz within "
                    f"{ddm.delay_bin * 1e9:.3f} ns / {ddm.doppler_bin:.1f} Hz), "
                    f"static ridge {ridge:.4f} (need >= 0.9), "
                    f"sim+synth {runtime:.1f} s over {len(ep.cir)} chirps, "
                    f"{len(ep.scene.facets)} facets")


def _hann_response(n_delay: int) -> tuple[np.ndarray, np.ndarray]:
    """|DTFT| of the fast-time Hann window vs offset in bins, peak = 1."""
    w = window_taps("hann", n_delay)
    spec = np.abs(np.fft.fft(w, n_delay * 64)) / w.sum()
    count = 8 * 64 + 1
    return np.arange(count) / 64.0, spec[:count]


def _slow_leak(delta_bins: float, n: int = 128, window: str = "boxcar") -> float:
    """Slow-time window response at a wrapped Doppler-bin offset, 1 at 0."""
    x = abs(delta_bins) % n
    x = min(x, n - x)
    if x < 1e-9:
        return 1.0
    if window == "boxcar":
        return abs(np.sin(np.pi * x) / (n * np.sin(np.pi * x / n)))
    w = window_taps(window, n)
    return abs(np.exp(-2j * np.pi * x * np.arange(n) / n) @ w) / w.sum()


def _box_peak(power_db: np.ndarray, row: int, col: int,
              half: int = 3) -> tuple[int, int, float]:
    r0, r1 = max(row - half, 0), min(row + half + 1, power_db.shape[0])
    c0, c1 = max(col - half, 0), min(col + half + 1, power_db.shape[1])
    sub = power_db[r0:r1, c0:c1]
    i, j = np.unravel_index(int(np.argmax(sub)), sub.shape)
    return r0 + i, c0 + j, float(sub[i, j])


def test_criterion_04_predicted_vs_processed(plates_episode,
                                             scenario_b_episode,
                                             scenario_c_episode):
    """Every isolated path: analytic map peak == processed map peak, with a
    boxcar and with a hann slow-time window modeled and processed.

    A mid-window path counts as isolated when the projected leakage from
    every other path into its cell (fast-window response x slow-time
    window response) stays 23 dB under its own power.  That keeps the
    check honest: cells fed by several paths have no single-path truth.
    """
    started = time.perf_counter()
    floor = 10.0 ** (-50.0 / 20.0)
    checks = {"boxcar": [], "hann": []}
    jobs = ((plates_episode, (0, 64)),
            (scenario_b_episode, tuple(range(0, 3585, 512))),
            (scenario_c_episode, tuple(range(0, 3585, 512))))
    for (ep, windows), window_slow in itertools.product(jobs, checks):
        cfg = ep.config
        n_delay = cfg.samples_per_chirp
        offs, resp = _hann_response(n_delay)
        delay_bin = (cfg.f_samp / n_delay) / cfg.slope
        doppler_bin = 1.0 / cfg.window_duration(128)
        for w in windows:
            mid = ep.cir[w + 64:w + 65]
            amps = np.abs(mid.paths.a)
            tb = mid.paths.tau / delay_bin
            nb = mid.paths.nu / doppler_bin
            proc = window_map(ep.beats, ep.times, cfg, t0_index=w, n_chirps=128,
                              window_fast="hann", window_slow=window_slow)
            pred = predicted_map(ep.cir, cfg, t0_index=w, n_chirps=128,
                                 window_slow=window_slow)
            a_top = amps.max()
            for i in range(len(mid.paths)):
                col = int(round(tb[i]))
                if (amps[i] < a_top * 10.0 ** (-25.0 / 20.0)
                        or not 3 <= col < n_delay - 3
                        or abs(nb[i]) > 60.0):
                    continue
                leak = sum(amps[q] ** 2
                           * np.interp(abs(tb[q] - tb[i]), offs, resp,
                                       right=floor) ** 2
                           * _slow_leak(nb[q] - nb[i], window=window_slow) ** 2
                           for q in range(len(mid.paths)) if q != i)
                if leak > amps[i] ** 2 * 10.0 ** (-23.0 / 10.0):
                    continue
                row = 64 + int(round(nb[i]))
                pk_pred = _box_peak(pred.power_db, row, col)
                pk_proc = _box_peak(proc.power_db, row, col)
                checks[window_slow].append((abs(pk_pred[0] - pk_proc[0]),
                                            abs(pk_pred[1] - pk_proc[1]),
                                            abs(pk_pred[2] - pk_proc[2])))
    elapsed = time.perf_counter() - started
    ok, detail = elapsed < 300.0, []
    for window_slow, found in checks.items():
        worst_row, worst_col, worst_db = (max(c[j] for c in found) for j in range(3))
        ok &= (worst_row <= 1 and worst_col <= 1 and worst_db <= 1.5 and len(found) >= 20)
        detail.append(f"{window_slow} slow window: {len(found)} isolated paths over 18 "
                      f"windows, worst offset {worst_row} Doppler / {worst_col} delay bins "
                      f"(gate 1), worst power gap {worst_db:.3f} dB (gate 1.5)")
    _verdict(4, ok, "; ".join(detail) + f"; {elapsed:.1f} s (gate 300)")


def test_criterion_05_doppler_matches_delay_rate(plates_episode,
                                                 scenario_b_episode,
                                                 scenario_c_episode):
    total = 0
    worst = 0.0
    for ep in (plates_episode, scenario_b_episode, scenario_c_episode):
        f_c = ep.config.f_c
        series: dict = {}
        p, epochs, times = ep.cir.paths, ep.cir.epoch_index.tolist(), ep.cir.t.tolist()
        for key, k, tau, nu in zip(p.keys(), p.frame.tolist(), p.tau, p.nu):
            series.setdefault(key, []).append((epochs[k], times[k], tau, nu))
        for recs in series.values():
            if len(recs) < 3:
                continue
            recs.sort()
            epoch = np.array([r[0] for r in recs])
            t = np.array([r[1] for r in recs])
            tau = np.array([r[2] for r in recs])
            nu = np.array([r[3] for r in recs])
            d = np.diff(epoch)
            interior = (d[:-1] == 1) & (d[1:] == 1)
            if not interior.any():
                continue
            fd = -f_c * (tau[2:] - tau[:-2]) / (t[2:] - t[:-2])
            err = np.abs(nu[1:-1] - fd)[interior]
            tol = np.maximum(2.0, 1e-3 * np.abs(nu[1:-1]))[interior]
            total += int(interior.sum())
            worst = max(worst, float((err / tol).max()))
    ok = total >= 1000 and worst <= 1.0
    _verdict(5, ok, f"{total} path-epochs (need >= 1000): worst "
                    f"|nu + f_c dtau/dt| at {worst:.4f} of the "
                    f"max(2 Hz, 1e-3 |nu|) budget")


def test_criterion_06_scattering_split_and_lobe():
    s = np.random.default_rng(123).random(10_000)
    r = specular_reduction(s)
    worst_split = float(np.max(np.abs(r * r + s * s - 1.0)))

    rng = np.random.default_rng(20260825)
    estimates = {}
    for alpha in (1, 4, 16):
        cos_psi = rng.random(100_000)   # uniform in solid angle on a hemisphere
        gains = lobe_density(cos_psi, alpha)
        estimates[alpha] = float(2.0 * np.pi * gains.mean())

    psi = np.linspace(0.0, np.pi, 181)
    monotone = all(np.all(np.diff(lobe_density(np.cos(psi), alpha)) < 0.0)
                   for alpha in (1, 4, 16))

    ok = (worst_split <= 1e-12
          and all(abs(v - 1.0) <= 0.01 for v in estimates.values())
          and monotone)
    _verdict(6, ok, "R^2 + S^2 - 1 worst "
                    f"{worst_split:.2e} over 1e4 draws; lobe integrals "
                    + ", ".join(f"alpha={a}: {v:.6f}"
                                for a, v in estimates.items())
                    + f" (need 1 +/- 0.01); monotone in angle: {monotone}")


def _corridor_doc() -> dict:
    pattern = {"peak_gain_dbi": 5.0, "hpbw_azimuth_deg": 90.0,
               "hpbw_elevation_deg": 60.0}
    return {
        "materials": [{"preset": "metal"}],
        "facets": [
            {"vertices": [[0.0, -1.0, 0.0], [0.0, 9.0, 0.0],
                          [0.0, 9.0, 3.0], [0.0, -1.0, 3.0]],
             "material": "metal"},
            {"vertices": [[6.0, -1.0, 0.0], [6.0, -1.0, 3.0],
                          [6.0, 9.0, 3.0], [6.0, 9.0, 0.0]],
             "material": "metal"},
        ],
        "transceivers": [
            {"id": "BS", "role": "BS", "position": [1.5, 0.0, 1.5],
             "boresight": [1.0, 0.0, 0.0], "pattern": dict(pattern)},
            {"id": "UE", "role": "UE", "position": [4.5, 8.0, 1.5],
             "boresight": [-1.0, 0.0, 0.0], "pattern": dict(pattern)},
        ],
    }


def test_criterion_07_image_method_geometry():
    # Ground bounce between an elevated mast and a street-level terminal.
    snap = snapshot(scene_from_dict(two_ray_doc()), 0.0)
    paths = trace_specular(snap, "BS", "UE")
    row = paths.keys().index(("specular", (0,), None))
    bounce = paths.points[row, -2]
    length = float(paths.segment_lengths()[row].sum())
    txp = snap.states["BS"].position[0]
    rxp = snap.states["UE"].position[0]

    def around(xy):
        q = np.array([xy[0], xy[1], 0.0])
        return np.linalg.norm(q - txp) + np.linalg.norm(rxp - q)

    best = minimize(around, x0=[20.0, 0.0], method="Nelder-Mead",
                    options={"xatol": 1e-10, "fatol": 1e-12,
                             "maxiter": 20_000, "maxfev": 20_000})
    point_err = float(np.linalg.norm(
        bounce - np.array([best.x[0], best.x[1], 0.0])))
    length_err = abs(length - float(best.fun))
    pinned = (abs(bounce[0] - 26.087) <= 5e-4
              and abs(length - 32.129) <= 5e-4)

    # Double bounce down a corridor: length must equal the unfolded
    # straight line from the twice-mirrored transmitter image.
    snap2 = snapshot(scene_from_dict(_corridor_doc()), 0.0)
    tx2 = snap2.states["BS"].position[0]
    rx2 = snap2.states["UE"].position[0]
    paths2 = trace_specular(snap2, "BS", "UE")
    lengths2 = paths2.segment_lengths().sum(axis=1)
    order2 = [(facets, lengths2[i]) for i, (_, facets, _) in enumerate(paths2.keys())
              if len(facets) == 2]
    worst_unfold = 0.0
    for facets, total in order2:
        image = tx2
        for f in facets:
            n, offset = snap2.pack.normals[0, f], float(snap2.pack.offsets[0, f])
            image = image - 2.0 * (float(image @ n) - offset) * n
        worst_unfold = max(worst_unfold,
                           abs(total - float(np.linalg.norm(rx2 - image))))

    ok = (point_err <= 1e-6 and length_err <= 1e-6 and pinned
          and len(order2) >= 1 and worst_unfold <= 1e-6)
    _verdict(7, ok, f"bounce at x = {bounce[0]:.6f} m, length "
                    f"{length:.6f} m (expect 26.087 / 32.129); vs "
                    f"brute force {point_err:.2e} m point, {length_err:.2e} m "
                    f"length; {len(order2)} double bounces, unfolded-image "
                    f"length gap {worst_unfold:.2e} m")


def test_criterion_08_doppler_mainlobe_nulls():
    config = ChirpConfig(n_chirps_total=128)
    n = 128
    null_offset = 1.0 / config.window_duration(n)   # first nulls at nu0 +/- this

    def tone_map(nu):
        amp = 0.5 * np.exp(-2j * np.pi * config.f_c * 40e-9)
        cir = episode((k, k * config.pri, tap_table([amp], [40e-9], [nu]), 0)
                      for k in range(n))
        beats = synth_beat(cir, config)
        ddm = window_map(beats, cir.t, config, t0_index=0, n_chirps=n,
                         window_fast="boxcar", window_slow="boxcar")
        return ddm, beats

    # On the Doppler grid the bin spacing equals 1/T_w, so both first nulls
    # land exactly on the neighbouring bins and must sample to ~zero.
    nu_on = 17 * null_offset
    ddm, _ = tone_map(nu_on)
    col = ddm.power_linear()[:, int(np.argmax(ddm.power_linear().max(axis=0)))]
    pk = int(np.argmax(col))
    on_ok = (abs(ddm.doppler_axis[pk] - nu_on) <= 1e-9
             and col[pk - 1] <= 1e-20 * col[pk]
             and col[pk + 1] <= 1e-20 * col[pk]
             and abs(ddm.doppler_axis[pk + 1] - (nu_on + null_offset)) <= 1e-9
             and abs(ddm.doppler_axis[pk - 1] - (nu_on - null_offset)) <= 1e-9)

    # Off the grid the nulls sit between bins; localize them on the
    # underlying slow-time spectrum and check they sit within one bin.
    nu_off = 1106.6
    ddm2, beats2 = tone_map(nu_off)
    tbin = int(np.argmax(ddm2.power_linear().max(axis=0)))
    seq = np.array([np.fft.fft(b)[tbin] / len(b) for b in beats2])
    m = np.arange(n)

    def spectrum(nus):
        return np.abs(np.exp(-2j * np.pi * config.pri * np.outer(nus, m)) @ seq)

    peak_amp = float(spectrum(np.array([nu_off]))[0])
    worst_loc = 0.0
    worst_depth = 0.0
    for side in (-1.0, 1.0):
        target = nu_off + side * null_offset
        grid = np.linspace(target - null_offset, target + null_offset, 4001)
        vals = spectrum(grid)
        worst_loc = max(worst_loc, abs(float(grid[np.argmin(vals)]) - target))
        worst_depth = max(worst_depth, float(vals.min()) / peak_amp)

    ok = (abs(null_offset - 62.1) <= 0.1 and on_ok
          and worst_loc <= ddm2.doppler_bin and worst_depth <= 1e-6)
    _verdict(8, ok, f"1/T_w = {null_offset:.4f} Hz (expect 62.1 +/- 0.1); "
                    f"on-grid null bins at +/-{null_offset:.2f} Hz sample to "
                    f"<= 1e-20 of peak: {on_ok}; off-grid nulls localized "
                    f"within {worst_loc:.4f} Hz of nu0 +/- 1/T_w "
                    f"(bin {ddm2.doppler_bin:.2f} Hz), depth {worst_depth:.1e}")


def test_criterion_09_platform_motion_pdp(scenario_c_episode):
    ep = scenario_c_episode
    runtime = ep.seconds["simulate"] + ep.seconds["synth"]
    pdp = pdp_series(range_rows(ep.beats.copy()), ep.times, ep.config)
    dominant_drift = int(np.ptp(np.argmax(pdp.power_db, axis=1)))

    delay_bin = (ep.config.f_samp / ep.config.samples_per_chirp) / ep.config.slope
    lo: dict = {}
    hi: dict = {}
    count: dict = {}
    for key, tau in zip(ep.cir.paths.keys(), ep.cir.paths.tau.tolist()):
        lo[key] = min(lo.get(key, np.inf), tau)
        hi[key] = max(hi.get(key, -np.inf), tau)
        count[key] = count.get(key, 0) + 1
    los_span = (hi[("los", (), None)] - lo[("los", (), None)]) / delay_bin
    secondary = max((hi[k] - lo[k]) / delay_bin for k in lo
                    if k[0] != "los" and count[k] >= 128)

    ok = (dominant_drift <= 1 and los_span < 1.0 and secondary > 3.0
          and runtime < 60.0)
    _verdict(9, ok, f"dominant PDP bin drift {dominant_drift} (gate 1), LOS "
                    f"delay span {los_span:.3f} bins (< 1), widest secondary "
                    f"span {secondary:.2f} bins (> 3), sim+synth {runtime:.1f} s")


def test_criterion_10_frozen_clock_determinism(tmp_path):
    scene = str(FIXTURES / "scenario_b.json")
    outs = []
    for label in ("a", "b"):
        out = tmp_path / label
        assert main(["simulate", "--scene", scene, "--tx", "UE",
                     "--chirps", "256", "--tag", "run", "-o", str(out),
                     "--frozen-clock"]) == 0
        assert main(["process", "--cir", str(out / "run.cir"), "-N", "128",
                     "--export", "bin,csv,pgm", "--tag", "run",
                     "-o", str(out), "--frozen-clock"]) == 0
        assert main(["predict", "--cir", str(out / "run.cir"), "-N", "128",
                     "--export", "bin,csv,pgm", "--tag", "run",
                     "-o", str(out), "--frozen-clock"]) == 0
        outs.append(out)

    names = sorted(p.name for p in outs[0].iterdir())
    same_names = names == sorted(p.name for p in outs[1].iterdir())
    differing = [nm for nm in names
                 if (outs[0] / nm).read_bytes() != (outs[1] / nm).read_bytes()
                 ] if same_names else names

    # The comparison stage itself must also rerun identically for
    # identical inputs, regardless of where the report lands.
    for out in outs:
        assert main(["compare",
                     "--reference", str(outs[0] / "run_pred_w000000.ddm"),
                     "--test", str(outs[0] / "run_w000000.ddm"),
                     "--tag", "rep", "-o", str(out)]) == 0
    reports_match = ((outs[0] / "rep_report.json").read_bytes()
                     == (outs[1] / "rep_report.json").read_bytes())

    ok = same_names and not differing and reports_match
    _verdict(10, ok, f"{len(names)} pipeline artifacts byte-identical across "
                     f"independent reruns ({', '.join(differing) or 'no diffs'}); "
                     f"compare reports identical: {reports_match}")
