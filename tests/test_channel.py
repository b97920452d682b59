"""Chirp timing, CIR simulation semantics and the CIR file round-trip."""

import functools
import json
import re
import struct
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rftwin import channel, raytrace
from rftwin.channel import (
    ChirpConfig,
    SensingLink,
    cir_to_csv,
    doppler_of,
    frame_stats,
    load_cir,
    max_range,
    save_cir,
    simulate_cir,
)
from rftwin.csvtext import CSV_CHUNK
from rftwin.em import (
    _FREE_SPACE,
    SPEED_OF_LIGHT,
    antenna_angles,
    complex_permittivity,
    fresnel,
    lobe_density,
    specular_reduction,
)
from rftwin.geometry import reflect_direction
from rftwin.kinematics import snapshot
from rftwin.raytrace import (
    KINDS,
    PathTable,
    TraceConfig,
    build_sample_patterns,
    trace_diffuse,
    trace_los,
    trace_specular,
)
from rftwin.scene import SceneError, load_scene, scene_from_dict

from conftest import (FIXTURES, NO_PATHS, episode, frames_of, plates_scene_doc, spin_rig_doc,
                      static_crossing_doc)

C = SPEED_OF_LIGHT


def mono_plate_doc(distance=6.0):
    """Radar at the origin staring at one square plate."""
    return {
        "materials": [{"preset": "metal"}],
        "facets": [
            {"vertices": [[distance, 0.5, 0.5], [distance, -0.5, 0.5],
                          [distance, -0.5, 1.5], [distance, 0.5, 1.5]],
             "material": "metal"},
        ],
        "transceivers": [
            {"id": "UE", "role": "UE", "position": [0.0, 0.0, 1.0],
             "boresight": [1.0, 0.0, 0.0],
             "pattern": {"peak_gain_dbi": 5.0, "hpbw_azimuth_deg": 90.0,
                         "hpbw_elevation_deg": 60.0}},
            {"id": "BS", "role": "BS", "position": [0.0, 2.0, 1.0],
             "boresight": [1.0, 0.0, 0.0],
             "pattern": {"peak_gain_dbi": 8.0, "hpbw_azimuth_deg": 30.0,
                         "hpbw_elevation_deg": 30.0}},
        ],
    }


def test_default_timing_tables():
    config = ChirpConfig()
    assert config.pri == pytest.approx(125.86e-6, rel=1e-12)
    assert config.samples_per_chirp == 2116
    assert config.max_delay == pytest.approx(18.75e6 / 35.44e12, rel=1e-12)
    assert config.window_duration(128) == pytest.approx(0.01611008, rel=1e-12)
    assert config.window_duration(128) == pytest.approx(128 * config.pri, rel=1e-15)
    again = ChirpConfig(**config.to_dict())
    assert again == config


def test_chirp_config_validation():
    with pytest.raises(ValueError, match="f_c"):
        ChirpConfig(f_c=-1.0)
    with pytest.raises(ValueError, match="bandwidth"):
        ChirpConfig(bandwidth=0.0)
    with pytest.raises(ValueError, match="n_chirps_total"):
        ChirpConfig(n_chirps_total=0)
    with pytest.raises(ValueError, match="slope"):
        ChirpConfig(slope=30.0e12)
    for name in ("f_c", "bandwidth", "t_chirp", "t_idle", "slope", "f_samp"):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"ChirpConfig.{name} must be finite"):
                ChirpConfig(**{name: value})
    # fewer than two samples per chirp: floor(t_chirp * f_samp) of 0 and 1
    for f_samp in (1.0, 1.0e4):
        with pytest.raises(ValueError, match="at least 2"):
            ChirpConfig(f_samp=f_samp)
    assert ChirpConfig(f_samp=17.8e3).samples_per_chirp == 2
    # zero idle time is allowed
    ChirpConfig(t_idle=0.0)


def test_max_range_mono_and_bi():
    config = ChirpConfig()
    span = C * config.f_samp / config.slope
    assert max_range(config, "bi") == pytest.approx(span, rel=1e-15)
    assert max_range(config, "mono") == pytest.approx(span / 2.0, rel=1e-15)
    with pytest.raises(ValueError):
        max_range(config, "tri")


def test_static_plate_delay_and_doppler():
    scene = scene_from_dict(mono_plate_doc(6.0))
    cir = simulate_cir(scene, SensingLink("UE", "UE"), ChirpConfig(n_chirps_total=2),
                       TraceConfig(diffuse_enabled=False))
    assert len(cir) == 2
    assert cir.paths.keys() == [("specular", (0,), None)] * 2
    assert cir.paths.frame.tolist() == [0, 1]
    assert cir.paths.tau == pytest.approx(12.0 / C, rel=1e-12)
    assert cir.paths.nu == pytest.approx(0.0, abs=1e-9)
    assert cir.n_dropped.tolist() == [0, 0] and cir.epoch_index.tolist() == [0, 1]
    assert cir.t[1] - cir.t[0] == pytest.approx(ChirpConfig().pri)


def test_mono_link_has_no_los_bi_link_does():
    scene = scene_from_dict(mono_plate_doc(6.0))
    trace = TraceConfig(diffuse_enabled=False)
    one = ChirpConfig(n_chirps_total=1)
    mono = simulate_cir(scene, SensingLink("UE", "UE"), one, trace)
    assert all(kind != "los" for kind, _, _ in mono.paths.keys())
    bi = simulate_cir(scene, SensingLink("BS", "UE"), one, trace)
    assert bi.paths.keys()[0] == ("los", (), None)
    assert bi.paths.tau[0] == pytest.approx(2.0 / C, rel=1e-12)


def test_unknown_link_endpoint_raises():
    scene = scene_from_dict(mono_plate_doc())
    with pytest.raises(SceneError, match="unknown transceiver"):
        simulate_cir(scene, SensingLink("UE", "XX"), ChirpConfig(n_chirps_total=1))


def test_non_finite_episode_start_raises():
    # With bodies the span check let NaN through; without bodies there is
    # no span check at all.
    for doc in (spin_rig_doc(), mono_plate_doc()):
        for t0 in (np.nan, np.inf):
            with pytest.raises(SceneError, match="t0 must be finite"):
                simulate_cir(scene_from_dict(doc), SensingLink("UE", "UE"),
                             ChirpConfig(n_chirps_total=2), t0=t0)


def test_epoch_grid_must_be_covered_by_trajectories():
    doc = mono_plate_doc()
    doc["bodies"] = [{"id": "cart", "waypoints": [[0.0, 0, 0, 0], [1.0, 1, 0, 0]]}]
    doc["facets"][0]["body"] = "cart"
    scene = scene_from_dict(doc)
    with pytest.raises(SceneError, match="not covered"):
        simulate_cir(scene, SensingLink("UE", "UE"), ChirpConfig(),
                     TraceConfig(diffuse_enabled=False), t0=0.9)
    # a grid that fits the span is fine
    cir = simulate_cir(scene, SensingLink("UE", "UE"), ChirpConfig(n_chirps_total=16),
                       TraceConfig(diffuse_enabled=False), t0=0.5)
    assert len(cir) == 16


def test_paths_beyond_unambiguous_delay_are_dropped_and_counted():
    reach = max_range(ChirpConfig(), "mono")
    scene = scene_from_dict(mono_plate_doc(np.ceil(reach) + 15.0))
    one = ChirpConfig(n_chirps_total=1)
    cir = simulate_cir(scene, SensingLink("UE", "UE"), one, TraceConfig(diffuse_enabled=False))
    assert len(cir.paths) == 0
    assert cir.n_dropped.tolist() == [1]
    near = scene_from_dict(mono_plate_doc(np.floor(reach) - 5.0))
    cir = simulate_cir(near, SensingLink("UE", "UE"), one, TraceConfig(diffuse_enabled=False))
    assert len(cir.paths) == 1
    assert cir.n_dropped.tolist() == [0]


def test_frame_doppler_matches_per_path_recompute(plates_episode):
    ep = plates_episode
    frame = ep.cir[97:98]
    snap = snapshot(ep.scene, frame.t[0])
    traced = trace_specular(snap, "UE", "UE", ep.trace)
    assert traced.keys() == frame.paths.keys()
    assert len(frame.paths) == 3
    assert frame.paths.nu == pytest.approx(
        doppler_of(snap.attach(traced, "UE", "UE"), ep.config.f_c), abs=1e-9)
    assert frame.paths.tau == pytest.approx(
        traced.segment_lengths().sum(axis=1) / C, rel=1e-12)


def test_association_keys_stable_across_epochs(plates_episode):
    keys0 = set(plates_episode.cir[:1].paths.keys())
    keys_last = set(plates_episode.cir[-1:].paths.keys())
    assert keys0 == keys_last
    assert ("specular", (1,), None) in keys0


def test_cir_file_roundtrip(tmp_path, plates_episode):
    ep = plates_episode
    subset = ep.cir[:3]
    path = tmp_path / "plates.cir"
    save_cir(path, subset, ep.config, ep.link, trace=ep.trace,
             extra={"scene": "calibration_plates", "seed": 1729},
             frozen_clock=True)
    back, header = load_cir(path)
    assert header["created"] == "frozen"
    assert header["format"] == "rftwin-cir"
    assert header["config"] == ep.config.to_dict()
    assert header["link"] == {"tx": "UE", "rx": "UE"}
    assert header["n_frames"] == 3
    assert header["scene"] == "calibration_plates"
    assert header["trace"]["diffuse_enabled"] is False
    assert len(back) == 3
    assert_same_cir(back, subset)
    # An episode of no frames, which simulate_cir never makes, round-trips.
    save_cir(tmp_path / "none.cir", ep.cir[0:0], ep.config, ep.link, ep.trace)
    none, header = load_cir(tmp_path / "none.cir")
    assert header["n_frames"] == len(none) == 0
    assert_same_cir(none, ep.cir[0:0])


def test_cir_saves_are_deterministic_with_frozen_clock(tmp_path, plates_episode):
    ep = plates_episode
    p1, p2 = tmp_path / "a.cir", tmp_path / "b.cir"
    for p in (p1, p2):
        save_cir(p, ep.cir[:2], ep.config, ep.link, trace=ep.trace, frozen_clock=True)
    assert p1.read_bytes() == p2.read_bytes()


def test_cir_header_t0_is_the_first_frame_time(tmp_path):
    """A header's t0 agrees with the frames it holds, for a sub-episode
    too; an episode of no frames writes 0.0."""
    scene = scene_from_dict(mono_plate_doc())
    link, trace = SensingLink("UE", "UE"), TraceConfig(diffuse_enabled=False)
    config = ChirpConfig(n_chirps_total=6)
    cir = simulate_cir(scene, link, config, trace, t0=0.1)
    for name, part, t0 in (("tail", cir[3:], cir.t[3]), ("none", cir[0:0], 0.0)):
        save_cir(tmp_path / f"{name}.cir", part, config, link, trace)
        header = load_cir(tmp_path / f"{name}.cir")[1]
        assert header["t0"] == t0 and type(header["t0"]) is float


def assert_same_cir(got, want):
    """Every .cir field of every frame equal, bit for bit."""
    assert got.epoch_index.tolist() == want.epoch_index.tolist()
    assert got.n_dropped.tolist() == want.n_dropped.tolist()
    assert got.t.astype(np.float64).tobytes() == want.t.astype(np.float64).tobytes()
    assert got.paths.frame.tolist() == want.paths.frame.tolist()
    assert got.paths.keys() == want.paths.keys()
    for col in ("kind", "hops", "sample", "a", "tau", "nu"):
        assert getattr(got.paths, col).tobytes() == getattr(want.paths, col).tobytes(), col


def test_load_cir_rejects_foreign_files(tmp_path):
    bad = tmp_path / "junk.cir"
    bad.write_bytes(b"NOTACIR\n" + b"\x00" * 32)
    with pytest.raises(ValueError, match="not a rftwin CIR"):
        load_cir(bad)


def test_load_cir_rejects_unknown_kind_codes(tmp_path, plates_episode):
    ep = plates_episode
    frame = ep.cir[:1]
    frame.paths.kind = np.full(len(frame.paths), 3, np.uint8)
    path = tmp_path / "kind3.cir"
    save_cir(path, frame, ep.config, ep.link, ep.trace)
    with pytest.raises(ValueError, match="unknown kind code"):
        load_cir(path)


def test_load_cir_rejects_negative_facets_and_bad_frame_counts(tmp_path, plates_episode):
    ep = plates_episode
    path = tmp_path / "plates.cir"
    save_cir(path, ep.cir[:3], ep.config, ep.link, ep.trace)
    raw = bytearray(path.read_bytes())
    hlen = struct.unpack_from("<I", raw, 8)[0]
    at = 12 + hlen                                  # frame 0 header
    n = struct.unpack_from("<I", raw, at + 12)[0]
    at += 20 + 34 * n + 4 * (sum(raw[at + 20 + 33 * n:at + 20 + 34 * n]) + n)
    n = struct.unpack_from("<I", raw, at + 12)[0]   # frame 1: negate its first facet
    struct.pack_into("<i", raw, at + 20 + 34 * n, -7)
    path.write_bytes(raw)
    with pytest.raises(ValueError, match="frame 1: unknown kind code or negative facet"):
        load_cir(path)
    header = json.loads(raw[12:12 + hlen].decode())
    for count in (-1, 2.5, "3"):
        header["n_frames"] = count
        blob = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + hlen:])
        with pytest.raises(ValueError, match=f"bad frame count {count!r}"):
            load_cir(path)


def test_load_cir_rejects_path_counts_beyond_the_file(tmp_path, plates_episode):
    """A frame head whose path count is more than the file's bytes, up to
    the u32 maximum, is a ValueError naming the file and the frame."""
    ep = plates_episode
    path = tmp_path / "plates.cir"
    save_cir(path, ep.cir[:2], ep.config, ep.link, ep.trace)
    raw = bytearray(path.read_bytes())
    at = 12 + struct.unpack_from("<I", raw, 8)[0]     # frame 0 header
    for count in (len(raw) + 1, 2 ** 26, 2 ** 32 - 1):
        struct.pack_into("<I", raw, at + 12, count)
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: frame 0 declares {count} "):
            load_cir(path)


def test_cir_csv_export(tmp_path, plates_episode):
    ep = plates_episode
    out = tmp_path / "plates.csv"
    cir_to_csv(out, ep.cir[:4])
    lines = out.read_text().splitlines()
    n_paths = len(ep.cir[:4].paths)
    assert lines[0].startswith("epoch_index,t,kind,")
    assert len(lines) == 1 + n_paths
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[2] in ("los", "specular", "diffuse")
    # delays survive the text round-trip exactly (repr formatting)
    assert float(first[3]) == ep.cir.paths.tau[0]
    # Over several write chunks the CSV and the .cir payload equal the old
    # per-frame writers byte for byte.
    many = episode(frames_of(ep.cir) * 6)
    cir_to_csv(tmp_path / "many.csv", many)
    reference_cir_csv(tmp_path / "ref.csv", many)
    assert (tmp_path / "many.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    save_cir(tmp_path / "many.cir", many, ep.config, ep.link, ep.trace, frozen_clock=True)
    assert (tmp_path / "many.cir").read_bytes().endswith(b"".join(reference_cir_payload(many)))


def test_cir_payload_of_episodes_whose_layout_changes_between_frames(tmp_path, plates_episode):
    """The plates episode with one path dropped from every odd frame (256
    one-frame runs of two layouts), then with a third layout and one run of
    20 frames in the middle of its layout's records: the file equals the
    per-frame payload and reads back the same."""
    ep = plates_episode
    frames = frames_of(ep.cir)
    for name, drops in (("odd", [k % 2 for k in range(len(frames))]),
                        ("mixed", [0 if 200 <= k < 220 else k % 2 + k // 64 % 2
                                   for k in range(len(frames))])):
        cir = episode((epoch, t, p.take(slice(0, len(p) - drop)), n_dropped)
                      for (epoch, t, p, n_dropped), drop in zip(frames, drops))
        counts = np.bincount(cir.paths.frame, minlength=len(cir))
        assert np.unique(counts).size == 1 + max(drops)
        assert np.count_nonzero(np.diff(counts)) == np.count_nonzero(np.diff(drops))
        path = tmp_path / f"{name}.cir"
        save_cir(path, cir, ep.config, ep.link, ep.trace, frozen_clock=True)
        assert path.read_bytes().endswith(b"".join(reference_cir_payload(cir)))
        back, header = load_cir(path)
        assert header["n_frames"] == len(cir)
        assert_same_cir(back, cir)


def test_cir_csv_export_of_empty_episodes(tmp_path):
    for k, cir in enumerate((episode([]), episode([(0, 0.0, NO_PATHS, 0),
                                                    (1, 1.2586e-4, NO_PATHS, 3)]))):
        cir_to_csv(tmp_path / f"{k}.csv", cir)
        reference_cir_csv(tmp_path / f"{k}_ref.csv", cir)
        assert (tmp_path / f"{k}.csv").read_bytes() == (tmp_path / f"{k}_ref.csv").read_bytes()


def test_cir_csv_export_formats_each_distinct_value_once(tmp_path):
    """The CSV of an episode whose static paths repeat their values frame
    after frame, over several write chunks, with Dopplers of -0.0 and 0.0
    side by side, and of a free-space episode without facet columns, which
    has a -0.0 Doppler in every frame: the per-value reference's bytes."""
    free = simulate_cir(scene_from_dict(free_space_doc()), SensingLink("BS", "UE"),
                        ChirpConfig(n_chirps_total=5),
                        TraceConfig(max_specular_order=0, diffuse_enabled=False))
    assert free.paths.facets.shape == (5, 0) and np.signbit(free.paths.nu).all()
    scene, link, trace, config, _, _ = BLOCK_CASES["static_crossing"]
    crossing = simulate_cir(scene, link, replace(config, n_chirps_total=2 * B + 5), trace,
                            t0=0.66)
    frames = frames_of(crossing) * 12
    signed = frames[0][2].take(slice(None))
    signed.nu = np.where(np.arange(len(signed)) % 2, 0.0, -0.0)
    frames.insert(B, (B, frames[B][1], signed, 0))
    many = episode(frames)
    assert len(many.paths) > CSV_CHUNK // 4
    for name, cir in (("free", free), ("many", many)):
        cir_to_csv(tmp_path / f"{name}.csv", cir)
        reference_cir_csv(tmp_path / f"{name}_ref.csv", cir)
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / f"{name}_ref.csv").read_bytes()


def test_diffuse_taps_round_trip_with_sample_index(tmp_path):
    doc = plates_scene_doc()
    scene = scene_from_dict(doc)
    config = ChirpConfig(n_chirps_total=2)
    cir = simulate_cir(scene, SensingLink("UE", "UE"), config,
                       TraceConfig(diffuse_samples_per_facet=4), t0=0.0)
    assert (cir[:1].paths.sample >= 0).any()
    path = tmp_path / "d.cir"
    save_cir(path, cir, config, SensingLink("UE", "UE"), TraceConfig())
    back, _ = load_cir(path)
    assert_same_cir(back, cir)


def _swap_key(key):
    kind, facets, sample = key
    return kind, facets[::-1], sample


@settings(max_examples=30, deadline=None)
@given(t=st.floats(0.05, 1.95))
def test_swapping_tx_and_rx_keeps_every_delay_and_doppler(t):
    """Reciprocity on the spin rig: UE -> BS traces every BS -> UE path
    backwards (facet sequences reversed) with the same tau and nu.  LOS and
    specular a agree to a few ulps: |a| to 16 ulps, the phase to that of 8
    ulps of tau.  Diffuse a is not reciprocal by design: fresnel is taken at
    the TX-side incidence angle only (docs/scene-format.md), so swapping the
    ends scales a diffuse row by |Gamma(cos_s)| / |Gamma(cos_i)| and turns it
    by the difference of their phases, to 1e-9 of each."""
    scene = scene_from_dict(spin_rig_doc())
    config = ChirpConfig(n_chirps_total=1)
    trace = TraceConfig(max_specular_order=3, diffuse_samples_per_facet=4)
    fwd, back = (simulate_cir(scene, SensingLink(tx, rx), config, trace, t0=t).paths
                 for tx, rx in (("BS", "UE"), ("UE", "BS")))
    assert len(fwd) >= 4
    rows = {_swap_key(key): i for i, key in enumerate(back.keys())}
    assert sorted(rows) == sorted(fwd.keys())
    order = [rows[key] for key in fwd.keys()]
    assert back.tau[order] == pytest.approx(fwd.tau, rel=1e-12)
    assert back.nu[order] == pytest.approx(fwd.nu, rel=1e-9, abs=1e-6)

    eps = np.finfo(float).eps
    a, b = fwd.a, back.a[order]
    turn = np.angle(b / a)
    exact = fwd.kind != KINDS.index("diffuse")
    assert exact.sum() >= 2
    assert np.all(np.abs(np.abs(b) - np.abs(a))[exact] <= 16 * eps * np.abs(a[exact]))
    assert np.all(np.abs(turn[exact]) <= 2 * np.pi * config.f_c * 8 * eps * fwd.tau[exact])

    snap = snapshot(scene, t)
    hits = trace_diffuse(snap, "BS", "UE", trace)
    at = {(f, s): i for i, (_, (f,), s) in enumerate(hits.keys())}
    diffuse = np.flatnonzero(~exact)
    assert len(diffuse) >= 2
    for i in diffuse:
        _, (f,), s = fwd.keys()[i]
        tx, hit, rx = hits.points[at[f, s]]
        n = snap.pack.normals[0, f]
        material = scene.materials[scene.facets[f].material_id]
        eps = complex_permittivity(material.rel_permittivity, material.conductivity, config.f_c)
        k_in, k_out = (d / np.linalg.norm(d) for d in (hit - tx, rx - hit))
        (g_in, ph_in), (g_out, ph_out) = (fresnel(eps, c) for c in (abs(k_in @ n), k_out @ n))
        assert abs(b[i]) == pytest.approx(abs(a[i]) * g_out / g_in, rel=1e-9)
        assert np.angle(np.exp(1j * (turn[i] - (ph_out - ph_in)))) == pytest.approx(0.0, abs=1e-9)


def _moved(doc, shift, yaw):
    """The scene document turned by yaw about z and shifted horizontally:
    static vertices, fixed transceivers and waypoints, with any yaw column
    turned too.  Body-frame vertices and mounts ride along unchanged."""
    c, s = np.cos(yaw), np.sin(yaw)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    place = lambda p: (rot @ np.asarray(p, dtype=float) + [*shift, 0.0]).tolist()
    doc = json.loads(json.dumps(doc))
    for f in doc["facets"]:
        if "body" not in f:
            f["vertices"] = [place(v) for v in f["vertices"]]
    for trx in doc["transceivers"]:
        if "position" in trx:
            trx["position"] = place(trx["position"])
            trx["boresight"] = (rot @ np.asarray(trx["boresight"], dtype=float)).tolist()
    for body in doc.get("bodies", []):
        body["waypoints"] = [[w[0], *place(w[1:4]), *(y + yaw for y in w[4:])]
                             for w in body["waypoints"]]
    return doc


@functools.lru_cache(maxsize=None)
def _scenario_b_mono(shift=(0.0, 0.0), yaw=0.0):
    doc = _moved(json.loads((FIXTURES / "scenario_b.json").read_text()), shift, yaw)
    return simulate_cir(scene_from_dict(doc), SensingLink("UE", "UE"),
                        ChirpConfig(n_chirps_total=64),
                        TraceConfig(max_specular_order=3, diffuse_samples_per_facet=8),
                        t0=0.1).paths


@settings(max_examples=25, deadline=None)
@given(r=st.floats(0.0, 1700.0), bearing=st.floats(-np.pi, np.pi), yaw=st.floats(-np.pi, np.pi))
@example(r=float(np.hypot(1500.0, 800.0)), bearing=float(np.arctan2(800.0, 1500.0)), yaw=0.3)
def test_rigid_motion_keeps_every_path(r, bearing, yaw):
    """scenario_b mono UE (order 3, 8 diffuse samples, 64 chirps) moved
    rigidly, up to 1.7 km and by any yaw about z, keeps every path key in
    every frame.  Rounding of the moved coordinates bounds the rest; the
    margins stand about ten times above the largest errors seen over 150
    moves: tau 1.4e-13 relative, nu 5.2e-11 Hz, |a| 1.3e-12 relative and
    phase 1.7e-9 rad."""
    base = _scenario_b_mono()
    moved = _scenario_b_mono((r * np.cos(bearing), r * np.sin(bearing)), yaw)
    assert moved.frame.tolist() == base.frame.tolist()
    assert moved.keys() == base.keys()
    assert np.all(np.abs(moved.tau - base.tau) <= 1e-12 * base.tau)
    assert np.all(np.abs(moved.nu - base.nu) <= 1e-9)
    assert np.all(np.abs(np.abs(moved.a) - np.abs(base.a)) <= 1e-11 * np.abs(base.a))
    assert np.all(np.abs(np.angle(moved.a / base.a)) <= 2e-8)


def _frame_strategy(draw, epoch):
    n = draw(st.integers(0, 6))
    hops = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    width = draw(st.integers(max(hops, default=0), 3))
    facets = np.full((n, width), -1, np.int32)
    for i, h in enumerate(hops):
        facets[i, width - h:] = draw(st.lists(st.integers(0, 2 ** 31 - 1),
                                              min_size=h, max_size=h))
    ints = st.lists(st.integers(-1, 2 ** 31 - 1), min_size=n, max_size=n)
    floats = st.lists(st.floats(width=64), min_size=2 * n, max_size=2 * n)
    a = np.array(draw(floats)).view(complex)
    paths = PathTable(np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)),
                               np.uint8),
                      np.array(hops, np.uint8), facets, np.array(draw(ints), np.int32), a=a,
                      tau=np.array(draw(floats))[:n], nu=np.array(draw(floats))[n:])
    return epoch, draw(st.floats(width=64)), paths, draw(st.integers(0, 2 ** 32 - 1))


def reference_cir_payload(cir):
    """save_cir's payload as it was written, frame by frame."""
    for epoch, t, p, n_dropped in frames_of(cir):
        yield struct.pack("<Id II", epoch, t, len(p), n_dropped)
        for col in (p.a.real, p.a.imag, p.tau, p.nu):
            yield np.ascontiguousarray(col, dtype="<f8").tobytes()
        yield from (p.kind.astype(np.uint8).tobytes(), p.hops.astype(np.uint8).tobytes(),
                    p.facets[p.facets >= 0].astype("<i4").tobytes(),
                    p.sample.astype("<i4").tobytes())


def reference_cir_csv(path, cir):
    """cir_to_csv as it was, one repr call per float: the byte reference."""
    with open(path, "w") as fh:
        fh.write("epoch_index,t,kind,delay_s,doppler_hz,a_real,a_imag,facets,sample_index\n")
        for epoch, t, p, _ in frames_of(cir):
            for k, tau, nu, re, im, row, s in zip(
                    p.kind.tolist(), p.tau.tolist(), p.nu.tolist(), p.a.real.tolist(),
                    p.a.imag.tolist(), p.facets.tolist(), p.sample.tolist()):
                facets = "|".join(str(f) for f in row if f >= 0)
                fh.write(f"{epoch},{t!r},{KINDS[k]},{tau!r},{nu!r},{re!r},{im!r},"
                         f"{facets},{'' if s < 0 else s}\n")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cir_round_trip_is_exact_for_random_frames(tmp_path_factory, data):
    cir = episode(_frame_strategy(data.draw, epoch)
                  for epoch in range(data.draw(st.integers(0, 4))))
    directory = tmp_path_factory.mktemp("cir")
    path = directory / "random.cir"
    save_cir(path, cir, ChirpConfig(), SensingLink("UE", "UE"), TraceConfig(), frozen_clock=True)
    back, header = load_cir(path)
    assert header["n_frames"] == len(back) == len(cir)
    assert_same_cir(back, cir)
    assert path.read_bytes().endswith(b"".join(reference_cir_payload(cir)))
    # The CSV export equals its per-value reference byte for byte.
    cir_to_csv(directory / "random.csv", cir)
    reference_cir_csv(directory / "ref.csv", cir)
    assert (directory / "random.csv").read_bytes() == (directory / "ref.csv").read_bytes()


# -- the per-snapshot pass that the block pass replaced, kept as its reference

def reference_amplitudes(paths, snap, scene, tx_id, rx_id, f_c):
    """amplitudes_of as it was evaluated one snapshot at a time: material
    tables, facet materials, normals and antenna frames rebuilt from the
    scene and the snapshot, a block of one epoch, on every call."""
    if not len(paths):
        return np.zeros(0, dtype=complex)
    lam = SPEED_OF_LIGHT / f_c
    hop_mask = paths.facets >= 0
    first = paths.first()
    rows = np.arange(len(paths))
    segs = np.diff(paths.points, axis=1)
    seg_len = np.linalg.norm(segs, axis=2)
    units = segs / np.where(seg_len > 0.0, seg_len, 1.0)[..., None]
    k_in, k_out = units[:, :-1], units[:, 1:]
    departures = segs[rows, first]
    arrivals = segs[:, -1]
    departures = departures / np.sqrt(np.vecdot(departures, departures))[:, None]
    arrivals = arrivals / np.sqrt(np.vecdot(arrivals, arrivals))[:, None]
    is_diffuse = paths.kind == KINDS.index("diffuse")
    lengths = seg_len.sum(axis=1)
    spread_len = np.where(is_diffuse, seg_len[rows, first] * seg_len[:, -1], lengths)

    tx_gain_db = scene.transceiver(tx_id).pattern.gain_db(
        *antenna_angles(snap.states[tx_id].boresight[0], departures))
    rx_gain_db = scene.transceiver(rx_id).pattern.gain_db(
        *antenna_angles(snap.states[rx_id].boresight[0], -arrivals))
    gain_factor = 10.0 ** ((tx_gain_db + rx_gain_db) / 20.0)

    materials = list(scene.materials.values())
    mat_index = {m.name: j for j, m in enumerate(materials)}
    materials.append(_FREE_SPACE)
    eps_table = np.array([complex_permittivity(m.rel_permittivity, m.conductivity, f_c)
                          for m in materials])
    s_table = np.array([m.scattering_coeff for m in materials])
    r_table = specular_reduction(s_table)
    alpha_table = np.array([m.lobe_exponent for m in materials], dtype=float)
    mat_at = np.array([mat_index[f.material_id] for f in snap.scene.facets] + [-1])[paths.facets]
    normals = np.concatenate([snap.pack.normals[0], np.zeros((1, 3))])[paths.facets]
    k_mir = reflect_direction(k_in, normals)
    cos_i = np.clip(np.abs(np.einsum("nkj,nkj->nk", k_in, normals)), 0.0, 1.0)
    gamma_mag, gamma_phase = fresnel(eps_table[mat_at], cos_i)

    split = np.where(is_diffuse[:, None], s_table[mat_at], r_table[mat_at])
    cos_s = np.clip(np.einsum("nkj,nkj->nk", k_out, normals), 0.0, 1.0)
    dot = np.clip(np.einsum("nkj,nkj->nk", k_mir, k_out), -1.0, 1.0)
    f_lobe = lobe_density(dot, alpha_table[mat_at])
    patch = np.sqrt(np.maximum(paths.area[:, None] * cos_i * cos_s * f_lobe, 0.0))
    patch = np.where(is_diffuse[:, None], patch, 1.0)

    factor = np.where(hop_mask, split * gamma_mag * patch, 1.0)
    spread = lam / (4.0 * np.pi * spread_len)
    magnitude = spread * gain_factor * np.prod(factor, axis=1)
    phase = (-2.0 * np.pi * f_c * lengths / SPEED_OF_LIGHT
             + np.sum(np.where(hop_mask, gamma_phase, 0.0), axis=1))
    return magnitude * np.exp(1j * phase)


def reference_doppler(paths, snap, tx_id, rx_id, f_c):
    """doppler_of as it was evaluated one snapshot at a time, with the
    velocity of every point looked up in the snapshot, a block of one
    epoch."""
    vel = np.zeros(paths.points.shape)
    vel[:, :-1] = snap.states[tx_id].velocity[0]
    vel[:, -1] = snap.states[rx_id].velocity[0]
    hit_vel = vel[:, 1:-1]
    hit_vel[paths.facets >= 0] = 0.0
    owner = np.array([f.body_id for f in snap.scene.facets] + [None], dtype=object)[paths.facets]
    for j, body_id in enumerate(snap.body_ids):
        on = owner == body_id
        if on.any():
            hit_vel[on] = snap.point_velocity(0, j, paths.points[:, 1:-1][on])

    index, live = paths.left_aligned()
    pts, vel = paths.points[index], vel[index]
    segs = np.diff(pts, axis=1)
    norms = np.linalg.norm(segs, axis=2)
    units = np.where(live[:, 1:, None], segs / np.maximum(norms, 1e-300)[..., None], 0.0)
    rate = np.einsum("nsj,nsj->n", units, np.diff(vel, axis=1))
    return -(f_c / SPEED_OF_LIGHT) * rate


def reference_cir(scene, link, config, trace, t0, n):
    """simulate_cir one chirp at a time: snapshot, trace, amplitude, Doppler,
    delay and the drop beyond the maximum delay per chirp."""
    tx, rx = link.tx_id, link.rx_id
    frames = []
    for k in range(n):
        t_k = t0 + k * config.pri
        snap = snapshot(scene, t_k)
        paths = PathTable.concat([trace_los(snap, tx, rx, trace),
                                  trace_specular(snap, tx, rx, trace),
                                  trace_diffuse(snap, tx, rx, trace)])
        paths.a = reference_amplitudes(paths, snap, scene, tx, rx, config.f_c)
        paths.nu = reference_doppler(paths, snap, tx, rx, config.f_c)
        paths.tau = paths.segment_lengths().sum(axis=1) / SPEED_OF_LIGHT
        keep = paths.tau < config.max_delay
        frames.append((k, t_k, paths.take(keep), len(keep) - int(np.count_nonzero(keep))))
    return episode(frames)


def free_space_doc():
    pattern = {"peak_gain_dbi": 5.0, "hpbw_azimuth_deg": 90.0, "hpbw_elevation_deg": 60.0}
    return {"materials": [], "facets": [],
            "transceivers": [
                {"id": "BS", "role": "BS", "position": [0.0, 0.0, 2.0],
                 "boresight": [1.0, 0.0, 0.0], "pattern": dict(pattern)},
                {"id": "UE", "role": "UE", "position": [20.0, 3.0, 1.5],
                 "boresight": [-1.0, 0.0, 0.0], "pattern": dict(pattern)}]}


def crossing_plate_doc():
    """A plate sliding across the radar's beam at 4 m/s: its specular path
    exists only while the mirror point lies on it, t in (0.375, 0.625) s."""
    doc = mono_plate_doc()
    doc["facets"] = [{"vertices": [[0.0, 0.5, -0.5], [0.0, -0.5, -0.5],
                                   [0.0, -0.5, 0.5], [0.0, 0.5, 0.5]],
                      "material": "metal", "body": "slider"}]
    doc["bodies"] = [{"id": "slider", "waypoints": [[0.0, 6.0, -2.0, 1.0, 0.0],
                                                    [1.0, 6.0, 2.0, 1.0, 0.0]]}]
    return doc


def turntable_doc():
    """A plate turning about a vertical axis 6 m ahead of the radars: its
    normal and the velocity of every hit on it change from chirp to chirp."""
    doc = mono_plate_doc()
    doc["facets"] = [{"vertices": [[0.0, -0.5, -0.5], [0.0, 0.5, -0.5],
                                   [0.0, 0.5, 0.5], [0.0, -0.5, 0.5]],
                      "material": "metal", "body": "table"}]
    doc["bodies"] = [{"id": "table", "waypoints": [[0.0, 6.0, 0.0, 1.0, np.pi - 0.3],
                                                   [1.0, 6.0, 0.0, 1.0, np.pi + 0.3]]}]
    return doc


def canyon_doc():
    """scenario_b in a street canyon: nine 4.9 m concrete walls on each side
    of the road, F = 25.  At order 3 between BS and UE its chain tree keeps
    about 2,100 chains, more than F^2."""
    doc = json.loads((FIXTURES / "scenario_b.json").read_text())
    for i in range(9):
        x = 12.0 + 5.0 * i
        doc["facets"].append({"vertices": [[x, 6, 0], [x + 4.9, 6, 0], [x + 4.9, 6, 5], [x, 6, 5]],
                              "material": "concrete"})
        x = -10.0 + 5.0 * i
        doc["facets"].append({"vertices": [[x + 4.9, -6, 0], [x, -6, 0], [x, -6, 5],
                                           [x + 4.9, -6, 5]], "material": "concrete"})
    return doc


B = 64      # chirps per pass in most examples below
# name -> (scene, link, trace, chirp config, body span, most chirps drawn)
BLOCK_CASES = {
    "spin_bs_ue": (scene_from_dict(spin_rig_doc()), SensingLink("BS", "UE"),
                   TraceConfig(max_specular_order=3, diffuse_samples_per_facet=4),
                   ChirpConfig(), (0.0, 2.0), 2 * B + 5),
    "spin_ue_bs": (scene_from_dict(spin_rig_doc()), SensingLink("UE", "BS"),
                   TraceConfig(max_specular_order=3, diffuse_samples_per_facet=4),
                   ChirpConfig(), (0.0, 2.0), 2 * B + 5),
    "plates": (scene_from_dict(plates_scene_doc()), SensingLink("UE", "UE"),
               TraceConfig(diffuse_enabled=False), ChirpConfig(), (0.0, 0.1), 2 * B + 5),
    "scenario_b": (load_scene(FIXTURES / "scenario_b.json"), SensingLink("UE", "UE"),
                   TraceConfig(), ChirpConfig(), (0.0, 2.0), B + 5),
    "free_space_mono": (scene_from_dict(free_space_doc()), SensingLink("BS", "BS"),
                        TraceConfig(), ChirpConfig(), (0.0, 1.0), B + 5),
    "free_space_bi": (scene_from_dict(free_space_doc()), SensingLink("BS", "UE"),
                      TraceConfig(), ChirpConfig(), (0.0, 1.0), B + 5),
    "crossing": (scene_from_dict(crossing_plate_doc()), SensingLink("UE", "UE"),
                 TraceConfig(diffuse_enabled=False), ChirpConfig(t_idle=5e-3),
                 (0.0, 1.0), 2 * B + 5),
    "turntable": (scene_from_dict(turntable_doc()), SensingLink("UE", "BS"),
                  TraceConfig(diffuse_samples_per_facet=4), ChirpConfig(t_idle=1e-3),
                  (0.0, 1.0), 2 * B + 5),
    "static_crossing": (scene_from_dict(static_crossing_doc()), SensingLink("BS", "UE"),
                        TraceConfig(diffuse_samples_per_facet=4), ChirpConfig(t_idle=5e-3),
                        (0.0, 2.0), 2 * B + 5),
    "static_crossing_cart": (scene_from_dict(static_crossing_doc(rx_on_cart=True)),
                             SensingLink("BS", "UE"), TraceConfig(diffuse_samples_per_facet=4),
                             ChirpConfig(t_idle=5e-3), (0.0, 2.0), 2 * B + 5),
    "canyon": (scene_from_dict(canyon_doc()), SensingLink("BS", "UE"),
               TraceConfig(max_specular_order=3, diffuse_enabled=False), ChirpConfig(),
               (0.0, 2.0), 40),
}


def rows_per_chirp(scene, trace):
    """The per-chirp row bound that sizes simulate_cir's passes: the LOS
    row, F^2 specular chains and every diffuse sample."""
    patterns = build_sample_patterns(scene, trace) if trace.diffuse_enabled else {}
    return 1 + len(scene.facets) ** 2 + sum(p.n_samples for p in patterns.values())


def traced_passes(budget, *args, **kwargs):
    """simulate_cir under a row budget, and the chirps of each of its
    passes."""
    with (mock.patch.object(raytrace, "_CHAIN_ROWS", budget),
          mock.patch.object(channel, "trace_specular", wraps=trace_specular) as spy):
        cir = simulate_cir(*args, **kwargs)
    return cir, [len(call.args[0]) for call in spy.call_args_list]


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(sorted(BLOCK_CASES)), n_draw=st.integers(1, 2 * B + 5),
       start=st.floats(0.0, 1.0), per_pass=st.integers(16, 2 * B + 5))
@example(case="plates", n_draw=B + 3, start=0.0, per_pass=B)
@example(case="spin_bs_ue", n_draw=2 * B + 1, start=0.5, per_pass=B)
@example(case="spin_ue_bs", n_draw=B - 1, start=0.9, per_pass=1)
@example(case="scenario_b", n_draw=B + 1, start=0.1, per_pass=7)
@example(case="crossing", n_draw=2 * B + 5, start=0.45, per_pass=2 * B + 5)
@example(case="turntable", n_draw=2 * B + 5, start=0.4, per_pass=B)
@example(case="free_space_mono", n_draw=3, start=0.0, per_pass=1)
@example(case="free_space_bi", n_draw=B + 2, start=0.0, per_pass=B)
@example(case="static_crossing", n_draw=2 * B + 5, start=0.5, per_pass=B)
@example(case="static_crossing_cart", n_draw=2 * B + 5, start=0.5, per_pass=B)
@example(case="canyon", n_draw=40, start=0.05, per_pass=16)
def test_block_pass_is_bit_identical_to_the_per_snapshot_pass(case, n_draw, start, per_pass):
    """The pass split against the per-snapshot reference, every .cir column
    bit for bit: a row budget of per_pass chirps at the link's row bound
    gives passes of per_pass chirps and a remainder, down to one chirp per
    pass; also chirps without paths, a free-space scene, episode-static
    paths that a moving plate blocks for part of the episode, between fixed
    mounts and towards a UE on a cart, and a canyon whose chain tree
    outgrows F^2, so trace_specular runs its image pass on parts of each
    pass.  (ChirpConfig rejects an episode without chirps.)"""
    scene, link, trace, config, (lo, hi), most = BLOCK_CASES[case]
    n = min(n_draw, most)
    t0 = lo + start * (hi - lo - (n - 1) * config.pri)
    with mock.patch.object(raytrace, "_trace_chains", wraps=raytrace._trace_chains) as chains:
        got, passes = traced_passes(per_pass * rows_per_chirp(scene, trace), scene, link,
                                    replace(config, n_chirps_total=n), trace, t0=t0)
    assert passes == [min(per_pass, n - k) for k in range(0, n, per_pass)]
    want = reference_cir(scene, link, config, trace, t0, n)
    assert len(got) == len(want) == n
    assert_same_cir(got, want)
    assert got.paths.facets.tobytes() == want.paths.facets.tobytes()
    if case == "crossing" and n == 2 * B + 5 and start == 0.45:
        counts = np.bincount(got.paths.frame, minlength=n)
        assert 0 in counts and 1 in counts
    if case == "canyon" and (n, per_pass) == (40, 16):
        # Passes of 16, 16 and 8 chirps, each traced in 4-chirp parts.
        assert [len(call.args[1]) for call in chains.call_args_list] == [4] * 10
    if case.startswith("static_crossing") and n == 2 * B + 5 and start == 0.5:
        # The pass boundary lies inside the occlusion of the LOS, of the
        # wall's specular path and of some of its diffuse samples.
        p = got.paths
        los, wall, diffuse = (np.bincount(p.frame[p.kind == k], minlength=n) for k in range(3))
        assert los[[B - 1, B]].tolist() == [0, 0] and los[-1] == 1
        assert wall[[0, B - 1, B]].tolist() == [1, 0, 0]
        assert max(diffuse[B - 1], diffuse[B]) < diffuse[0]


def test_shipped_episodes_run_in_one_pass_and_long_ones_in_several():
    """Under the tracers' row budget the three benchmark-shaped episodes
    (scenario_b mono UE with diffuse paths, BS -> UE at order 3, the
    plates) run in one pass each; a 4096-chirp scenario_b mono episode
    runs in passes of 202 chirps, 162 rows per chirp."""
    scenario_b = load_scene(FIXTURES / "scenario_b.json")
    for scene, link, trace, t0, n in (
            (scenario_b, SensingLink("UE", "UE"), TraceConfig(), 0.1, 128),
            (scenario_b, SensingLink("BS", "UE"),
             TraceConfig(max_specular_order=3, diffuse_enabled=False), 0.1, 128),
            (scene_from_dict(plates_scene_doc()), SensingLink("UE", "UE"),
             TraceConfig(diffuse_enabled=False), 0.0, 256)):
        assert traced_passes(raytrace._CHAIN_ROWS, scene, link, ChirpConfig(n_chirps_total=n),
                             trace, t0=t0)[1] == [n]
    assert rows_per_chirp(scenario_b, TraceConfig()) == 162
    cir, passes = traced_passes(raytrace._CHAIN_ROWS, scenario_b, SensingLink("UE", "UE"),
                                ChirpConfig(), TraceConfig(), t0=0.1)
    assert passes == [202] * 20 + [56] and len(cir) == 4096


def test_an_episode_builds_each_sample_pattern_once():
    """Every pass of an episode takes its diffuse patterns from one cache
    entry: scenario_b's 7 facets give 7 builds over 5 passes, and a
    repeated episode builds none."""
    scene, link = load_scene(FIXTURES / "scenario_b.json"), SensingLink("UE", "UE")
    raytrace._facet_set_patterns.cache_clear()
    with mock.patch.object(raytrace, "diffuse_sample_pattern",
                           wraps=raytrace.diffuse_sample_pattern) as build:
        for builds in (len(scene.facets), 0):
            build.reset_mock()
            _, passes = traced_passes(162 * 8, scene, link, ChirpConfig(n_chirps_total=40),
                                      TraceConfig(), t0=0.1)
            assert passes == [8] * 5 and build.call_count == builds


def test_frame_stats_on_the_plates(plates_episode):
    stats = frame_stats(plates_episode.cir)
    assert stats == {"paths_per_frame": {"specular": {"min": 3, "mean": 3.0, "max": 3}},
                     "dropped_per_frame": {"min": 0, "mean": 0.0, "max": 0}}
    # Frames cut from the episode: the kinds and drops of those frames only.
    cir = episode((epoch, 0.0, paths.take(slice(k)), n_dropped + k)
                  for k, (epoch, _, paths, n_dropped)
                  in enumerate(frames_of(plates_episode.cir[:4])))
    stats = frame_stats(cir)
    assert stats["paths_per_frame"] == {"specular": {"min": 0, "mean": 1.5, "max": 3}}
    assert stats["dropped_per_frame"] == {"min": 0, "mean": 1.5, "max": 3}
    assert frame_stats(episode([])) == {"paths_per_frame": {},
                                        "dropped_per_frame": {"min": 0, "mean": 0.0, "max": 0}}


def test_frame_slices_are_sub_episodes(plates_episode):
    """cir[lo:hi] holds the rows, epochs, times and drops of frames lo..hi-1,
    with frame positions counted from lo; frames_of(episode(...)) inverts
    episode, and a slice of a slice is the slice of the whole."""
    cir = plates_episode.cir
    part = cir[5:9]
    assert len(part) == 4 and part.epoch_index.tolist() == [5, 6, 7, 8]
    assert part.t.tobytes() == cir.t[5:9].tobytes()
    rows = (cir.paths.frame >= 5) & (cir.paths.frame < 9)
    assert part.paths.tau.tobytes() == cir.paths.tau[rows].tobytes()
    assert part.paths.frame.tolist() == (cir.paths.frame[rows] - 5).tolist()
    assert_same_cir(part[1:3], cir[6:8])
    assert_same_cir(episode(frames_of(part)), part)
    assert len(cir[9:5]) == len(cir[9:5].paths) == 0
    assert_same_cir(cir[-2:], cir[len(cir) - 2:])
    for frames in (3, slice(None, None, 2)):
        with pytest.raises(TypeError, match="slice of consecutive frames"):
            cir[frames]
