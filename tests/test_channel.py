"""Chirp timing, CIR simulation semantics and the CIR file round-trip."""

import json
import struct

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from rftwin.channel import (
    ChirpConfig,
    CirFrame,
    SensingLink,
    cir_to_csv,
    doppler_of,
    load_cir,
    max_range,
    save_cir,
    simulate_cir,
)
from rftwin.em import SPEED_OF_LIGHT
from rftwin.kinematics import snapshot
from rftwin.raytrace import PathTable, TraceConfig, trace_specular
from rftwin.scene import SceneError, scene_from_dict

from conftest import plates_scene_doc, spin_rig_doc

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
    frames = simulate_cir(scene, SensingLink("UE", "UE"), ChirpConfig(),
                          TraceConfig(diffuse_enabled=False), n_chirps=2)
    assert len(frames) == 2
    for fr in frames:
        assert fr.paths.keys() == [("specular", (0,), None)]
        assert fr.paths.tau[0] == pytest.approx(12.0 / C, rel=1e-12)
        assert fr.paths.nu[0] == pytest.approx(0.0, abs=1e-9)
        assert fr.n_dropped == 0
    assert frames[1].t - frames[0].t == pytest.approx(ChirpConfig().pri)


def test_mono_link_has_no_los_bi_link_does():
    scene = scene_from_dict(mono_plate_doc(6.0))
    trace = TraceConfig(diffuse_enabled=False)
    mono = simulate_cir(scene, SensingLink("UE", "UE"), ChirpConfig(), trace,
                        n_chirps=1)
    assert all(kind != "los" for kind, _, _ in mono[0].paths.keys())
    assert SensingLink("UE", "UE").mono_static
    bi = simulate_cir(scene, SensingLink("BS", "UE"), ChirpConfig(), trace,
                      n_chirps=1)
    assert bi[0].paths.keys()[0] == ("los", (), None)
    assert not SensingLink("BS", "UE").mono_static
    assert bi[0].paths.tau[0] == pytest.approx(2.0 / C, rel=1e-12)


def test_unknown_link_endpoint_raises():
    scene = scene_from_dict(mono_plate_doc())
    with pytest.raises(SceneError, match="unknown transceiver"):
        simulate_cir(scene, SensingLink("UE", "XX"), ChirpConfig(), n_chirps=1)


def test_epoch_grid_must_be_covered_by_trajectories():
    doc = mono_plate_doc()
    doc["bodies"] = [{"id": "cart", "waypoints": [[0.0, 0, 0, 0], [1.0, 1, 0, 0]]}]
    doc["facets"][0]["body"] = "cart"
    scene = scene_from_dict(doc)
    with pytest.raises(SceneError, match="not covered"):
        simulate_cir(scene, SensingLink("UE", "UE"), ChirpConfig(),
                     TraceConfig(diffuse_enabled=False), t0=0.9)
    # a grid that fits the span is fine
    frames = simulate_cir(scene, SensingLink("UE", "UE"), ChirpConfig(),
                          TraceConfig(diffuse_enabled=False), t0=0.5, n_chirps=16)
    assert len(frames) == 16


def test_paths_beyond_unambiguous_delay_are_dropped_and_counted():
    reach = max_range(ChirpConfig(), "mono")
    scene = scene_from_dict(mono_plate_doc(np.ceil(reach) + 15.0))
    frames = simulate_cir(scene, SensingLink("UE", "UE"), ChirpConfig(),
                          TraceConfig(diffuse_enabled=False), n_chirps=1)
    assert len(frames[0].paths) == 0
    assert frames[0].n_dropped == 1
    near = scene_from_dict(mono_plate_doc(np.floor(reach) - 5.0))
    frames = simulate_cir(near, SensingLink("UE", "UE"), ChirpConfig(),
                          TraceConfig(diffuse_enabled=False), n_chirps=1)
    assert len(frames[0].paths) == 1
    assert frames[0].n_dropped == 0


def test_frame_doppler_matches_per_path_recompute(plates_episode):
    ep = plates_episode
    frame = ep.frames[97]
    snap = snapshot(ep.scene, frame.t)
    traced = trace_specular(snap, "UE", "UE", ep.trace)
    assert traced.keys() == frame.paths.keys()
    assert len(frame.paths) == 3
    assert frame.paths.nu == pytest.approx(
        doppler_of(traced, snap, "UE", "UE", ep.config.f_c), abs=1e-9)
    assert frame.paths.tau == pytest.approx(
        traced.segment_lengths().sum(axis=1) / C, rel=1e-12)


def test_association_keys_stable_across_epochs(plates_episode):
    keys0 = set(plates_episode.frames[0].paths.keys())
    keys_last = set(plates_episode.frames[-1].paths.keys())
    assert keys0 == keys_last
    assert ("specular", (1,), None) in keys0


def test_cir_file_roundtrip(tmp_path, plates_episode):
    ep = plates_episode
    subset = ep.frames[:3]
    path = tmp_path / "plates.cir"
    save_cir(path, subset, ep.config, ep.link, trace=ep.trace, t0=ep.t0,
             extra={"scene": "calibration_plates", "seed": 1729},
             frozen_clock=True)
    frames, header = load_cir(path)
    assert header["created"] == "frozen"
    assert header["format"] == "rftwin-cir"
    assert header["config"] == ep.config.to_dict()
    assert header["link"] == {"tx": "UE", "rx": "UE"}
    assert header["n_frames"] == 3
    assert header["scene"] == "calibration_plates"
    assert header["trace"]["diffuse_enabled"] is False
    assert len(frames) == 3
    for got, want in zip(frames, subset):
        assert_same_frame(got, want)


def test_cir_saves_are_deterministic_with_frozen_clock(tmp_path, plates_episode):
    ep = plates_episode
    p1, p2 = tmp_path / "a.cir", tmp_path / "b.cir"
    for p in (p1, p2):
        save_cir(p, ep.frames[:2], ep.config, ep.link, trace=ep.trace,
                 t0=ep.t0, frozen_clock=True)
    assert p1.read_bytes() == p2.read_bytes()


def assert_same_frame(got, want):
    """Every .cir field equal, bit for bit."""
    assert (got.epoch_index, got.n_dropped) == (want.epoch_index, want.n_dropped)
    assert np.float64(got.t).tobytes() == np.float64(want.t).tobytes()
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
    frame = ep.frames[0]
    frame = CirFrame(frame.epoch_index, frame.t, frame.paths.take(slice(None)))
    frame.paths.kind = np.full(len(frame.paths), 3, np.uint8)
    path = tmp_path / "kind3.cir"
    save_cir(path, [frame], ep.config, ep.link)
    with pytest.raises(ValueError, match="unknown kind code"):
        load_cir(path)


def test_load_cir_rejects_negative_facets_and_bad_frame_counts(tmp_path, plates_episode):
    ep = plates_episode
    path = tmp_path / "plates.cir"
    save_cir(path, ep.frames[:3], ep.config, ep.link)
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


def test_cir_csv_export(tmp_path, plates_episode):
    ep = plates_episode
    out = tmp_path / "plates.csv"
    cir_to_csv(out, ep.frames[:4])
    lines = out.read_text().splitlines()
    n_paths = sum(len(fr.paths) for fr in ep.frames[:4])
    assert lines[0].startswith("epoch_index,t,kind,")
    assert len(lines) == 1 + n_paths
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[2] in ("los", "specular", "diffuse")
    # delays survive the text round-trip exactly (repr formatting)
    assert float(first[3]) == ep.frames[0].paths.tau[0]


def test_diffuse_taps_round_trip_with_sample_index(tmp_path):
    doc = plates_scene_doc()
    scene = scene_from_dict(doc)
    config = ChirpConfig(n_chirps_total=2)
    frames = simulate_cir(scene, SensingLink("UE", "UE"), config,
                          TraceConfig(diffuse_samples_per_facet=4), t0=0.0)
    assert (frames[0].paths.sample >= 0).any()
    path = tmp_path / "d.cir"
    save_cir(path, frames, config, SensingLink("UE", "UE"))
    back, _ = load_cir(path)
    for got, want in zip(back, frames):
        assert_same_frame(got, want)


def _swap_key(key):
    kind, facets, sample = key
    return kind, facets[::-1], sample


@settings(max_examples=30, deadline=None)
@given(t=st.floats(0.05, 1.95))
def test_swapping_tx_and_rx_keeps_every_delay_and_doppler(t):
    """Reciprocity on the spin rig: UE -> BS traces every BS -> UE path
    backwards (facet sequences reversed) with the same tau and nu."""
    scene = scene_from_dict(spin_rig_doc())
    config = ChirpConfig()
    trace = TraceConfig(max_specular_order=3, diffuse_samples_per_facet=4)
    fwd, back = (simulate_cir(scene, SensingLink(tx, rx), config, trace, t0=t,
                              n_chirps=1)[0].paths
                 for tx, rx in (("BS", "UE"), ("UE", "BS")))
    assert len(fwd) >= 4
    rows = {_swap_key(key): i for i, key in enumerate(back.keys())}
    assert sorted(rows) == sorted(fwd.keys())
    order = [rows[key] for key in fwd.keys()]
    assert back.tau[order] == pytest.approx(fwd.tau, rel=1e-12)
    assert back.nu[order] == pytest.approx(fwd.nu, rel=1e-9, abs=1e-6)


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
    return CirFrame(epoch, draw(st.floats(width=64)), paths,
                    draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cir_round_trip_is_exact_for_random_frames(tmp_path_factory, data):
    frames = [_frame_strategy(data.draw, epoch)
              for epoch in range(data.draw(st.integers(0, 4)))]
    path = tmp_path_factory.mktemp("cir") / "random.cir"
    save_cir(path, frames, ChirpConfig(), SensingLink("UE", "UE"), frozen_clock=True)
    back, header = load_cir(path)
    assert header["n_frames"] == len(back) == len(frames)
    for got, want in zip(back, frames):
        assert_same_frame(got, want)
