"""End-to-end command-line pipeline runs on a small three-plate scene."""

import contextlib
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, REPO_ROOT, plates_scene_doc
from rftwin import cli
from rftwin.channel import ChirpConfig, load_cir
from rftwin.cli import main
from rftwin.fmcw import NoiseConfig, delay_doppler, load_map, range_fft, synth_beat
from rftwin.raytrace import TraceConfig


def write_scene(directory):
    path = directory / "plates.json"
    path.write_text(json.dumps(plates_scene_doc()))
    return path


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One simulate/process/predict/compare pass shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    scene = write_scene(root)
    out = root / "out"
    assert main(["simulate", "--scene", str(scene), "--tx", "UE",
                 "--chirps", "16", "--no-diffuse", "--t0", "0.0",
                 "--tag", "run", "-o", str(out), "--frozen-clock"]) == 0
    assert main(["process", "--cir", str(out / "run.cir"), "-N", "8",
                 "--export", "bin,csv,pgm", "--tag", "run", "-o", str(out),
                 "--frozen-clock"]) == 0
    assert main(["predict", "--cir", str(out / "run.cir"), "-N", "8",
                 "--tag", "run", "-o", str(out), "--frozen-clock"]) == 0
    assert main(["compare", "--reference", str(out / "run_pred_w000000.ddm"),
                 "--test", str(out / "run_w000000.ddm"),
                 "--tag", "run", "-o", str(out)]) == 0
    return {"root": root, "scene": scene, "out": out}


def test_simulate_outputs(artifacts, capsys):
    out = artifacts["out"]
    assert (out / "run.cir").is_file()
    assert (out / "run_paths.csv").is_file()
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["frames"] == 16
    assert summary["paths_per_kind"].get("specular", 0) > 0
    assert summary["seed"] == 1729
    csv_lines = (out / "run_paths.csv").read_text().splitlines()
    assert csv_lines[0].startswith("epoch")
    assert len(csv_lines) > 16


def test_simulate_takes_t0_from_the_frames(tmp_path):
    """The summary and the .cir header both state the first frame's time:
    --t0 -0.0 starts the frames at +0.0, and both say so."""
    out = tmp_path / "out"
    assert main(["simulate", "--scene", str(write_scene(tmp_path)), "--tx", "UE",
                 "--chirps", "4", "--no-diffuse", "--t0", "-0.0", "--tag", "neg",
                 "-o", str(out), "--frozen-clock"]) == 0
    cir, header = load_cir(out / "neg.cir")
    summary = json.loads((out / "neg_summary.json").read_text())
    for t0 in (header["t0"], summary["t0"]):
        assert t0 == cir.t[0] and math.copysign(1.0, t0) == 1.0


def test_process_outputs(artifacts):
    out = artifacts["out"]
    # 16 beat frames, 8-chirp windows, default stride N: starts at 0 and 8
    for start in ("000000", "000008"):
        for ext in (".ddm", ".csv", ".pgm"):
            assert (out / f"run_w{start}{ext}").is_file()
        assert (out / f"run_w{start}.pgm.txt").is_file()
    assert (out / "run.pdp").is_file()
    assert (out / "run_pdp.csv").is_file()


def test_compare_report(artifacts):
    report = json.loads((artifacts["out"] / "run_report.json").read_text())
    assert report["gate_bins"] == 3
    assert len(report["matches"]) >= 1
    for m in report["matches"]:
        assert abs(m["delay_bin_error"]) <= 3
    assert "matched" in report["summary"]


def test_info_describes_every_artifact(artifacts, capsys):
    out = artifacts["out"]
    assert main(["info", str(artifacts["scene"])]) == 0
    assert "3 facets" in capsys.readouterr().out
    assert main(["info", str(out / "run.cir")]) == 0
    captured = capsys.readouterr().out
    assert "16 frames" in captured and '"f_c"' in captured
    assert main(["info", str(out / "run_w000000.ddm")]) == 0
    assert "delay-Doppler map" in capsys.readouterr().out
    assert main(["info", str(out / "run.pdp")]) == 0
    assert "PDP series" in capsys.readouterr().out


def test_info_rejects_unknown_file(tmp_path, capsys):
    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"\x00" * 64)
    assert main(["info", str(junk)]) == 2
    assert "unrecognized" in capsys.readouterr().err


def test_missing_scene_is_input_error(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code = main(["simulate", "--scene", str(missing), "--tx", "UE"])
    assert code == 2
    assert str(missing) in capsys.readouterr().err


def test_bad_chirp_count_is_input_error(tmp_path, capsys):
    scene = write_scene(tmp_path)
    code = main(["simulate", "--scene", str(scene), "--tx", "UE",
                 "--chirps", "0", "-o", str(tmp_path)])
    assert code == 2
    assert "n_chirps_total" in capsys.readouterr().err


def test_oversized_diffuse_patterns_are_input_errors(tmp_path, capsys, monkeypatch):
    """Rejected from the sample count alone: no pattern is ever built."""
    import rftwin.raytrace

    def no_pattern(*args):
        raise AssertionError("a diffuse sample pattern was built")
    monkeypatch.setattr(rftwin.raytrace, "diffuse_sample_pattern", no_pattern)
    for count in ("100000000", "32769", str(10 ** 30)):
        code = main(["simulate", "--scene", str(FIXTURES / "scenario_b.json"), "--tx", "UE",
                     "--t0", "0.1", "--chirps", "2", "--diffuse-samples", count,
                     "-o", str(tmp_path)])
        assert code == 2
        assert "above the cap of 32768" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_chirps_with_too_many_samples_are_input_errors(artifacts, tmp_path, capsys,
                                                      monkeypatch):
    """A t_chirp * f_samp that overflows, or gives more than 65536 samples
    per chirp, exits 2 from the chirp flags and from a .cir header: the
    check runs before any episode is traced or synthesized."""
    import rftwin.channel
    import rftwin.fmcw
    from rftwin.channel import MAX_SAMPLES_PER_CHIRP

    def no_episode(*args, **kwargs):
        raise AssertionError("an episode was traced or synthesized")
    for module, name in ((rftwin.channel, "simulate_cir"), (rftwin.fmcw, "beat_passes"),
                         (rftwin.fmcw, "predicted_map")):
        monkeypatch.setattr(module, name, no_episode)
    edge = {"t_chirp": 2.0 ** -10, "slope": 4.0e9 * 2 ** 10}     # exact products
    assert ChirpConfig(f_samp=2.0 ** 26, **edge).samples_per_chirp == MAX_SAMPLES_PER_CHIRP == 65536
    cases = [({"t_chirp": 1e308}, "inf"), ({"f_samp": 1.1e12}, "124146000.0"),
             ({"f_samp": 2.0 ** 26 + 2 ** 10, **edge}, "65537.0")]
    raw = (artifacts["out"] / "run.cir").read_bytes()
    for change, product in cases:
        with pytest.raises(ValueError, match=re.escape(f"floor({product}) is above the cap of "
                                                       "65536") + "$"):
            ChirpConfig(**change)
        flags = [f"--{key.replace('_', '-')}={change[key]!r}" for key in sorted(change)]
        assert main(["simulate", "--scene", str(FIXTURES / "scenario_b.json"), "--tx", "UE",
                     "--chirps", "4", *flags, "-o", str(tmp_path)]) == 2, flags
        assert "above the cap of 65536" in capsys.readouterr().err
        bad = tmp_path / "bad.cir"
        bad.write_bytes(_rewrite_header(raw, lambda h: {**h, "config": {**h["config"], **change}}))
        for command in ("process", "predict"):
            assert main([command, "--cir", str(bad), "-N", "8", "-o", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {bad}: bad chirp config in the header: ")
            assert "above the cap of 65536" in err
    assert list(tmp_path.iterdir()) == [tmp_path / "bad.cir"]


def test_a_map_above_the_cell_cap_is_an_input_error(tmp_path, capsys, monkeypatch):
    """A .cir of 20,000 empty frames at 65536 samples per chirp is about
    400 KB, and a 20,000-chirp window of it would be 1.3e9 map cells.
    process and predict exit 2 for any window of more than MAX_MAP_CELLS
    cells, zero-padded columns counted, before they synthesize, transform
    or predict anything; a window at the cap reaches synthesis."""
    import numpy as np

    import rftwin.fmcw
    from rftwin.channel import Cir, SensingLink, save_cir
    from rftwin.fmcw import MAX_MAP_CELLS

    from conftest import episode

    def allocation(*args, **kwargs):
        raise RuntimeError("a map was allocated")
    for name in ("beat_passes", "window_maps", "delay_doppler", "predicted_map"):
        monkeypatch.setattr(rftwin.fmcw, name, allocation)
    n = 20_000
    config = ChirpConfig(f_samp=2.0 ** 26, t_chirp=2.0 ** -10, slope=4.0e9 * 2 ** 10,
                         n_chirps_total=n)
    assert config.samples_per_chirp == 65536 and MAX_MAP_CELLS == 2 * 128 * 65536
    cir = Cir(episode([]).paths, np.arange(n), np.arange(n) * config.pri, np.zeros(n, int),
              config, SensingLink("UE", "UE"), TraceConfig())
    path = tmp_path / "long.cir"
    save_cir(path, cir)
    assert path.stat().st_size < 500_000
    sink = ["-o", str(tmp_path / "out")]
    for command, flags, bins in (("predict", ["-N", "20000"], 65536),
                                 ("process", ["-N", "20000"], 65536),
                                 ("predict", ["-N", "257"], 65536),
                                 ("process", ["-N", "257"], 65536),
                                 ("process", ["-N", "129", "--zero-pad"], 131072)):
        assert main([command, "--cir", str(path), *flags, *sink]) == 2, (command, flags)
        cells = int(flags[1]) * bins
        assert (f"error: a window of {flags[1]} chirps by {bins} delay bins is {cells} map "
                f"cells, more than the cap of {MAX_MAP_CELLS}\n") == capsys.readouterr().err
    for command, flags in (("predict", ["-N", "256"]), ("process", ["-N", "256"]),
                           ("process", ["-N", "128", "--zero-pad"])):
        assert main([command, "--cir", str(path), *flags, *sink]) == 4
        assert "a map was allocated" in capsys.readouterr().err
    assert not (tmp_path / "out").exists() or not list((tmp_path / "out").iterdir())


def test_mono_mode_requires_matching_rx(tmp_path, capsys):
    scene = write_scene(tmp_path)
    code = main(["simulate", "--scene", str(scene), "--tx", "UE",
                 "--rx", "BS", "-o", str(tmp_path)])
    assert code == 2
    assert "mono-static" in capsys.readouterr().err


def test_bi_mode_requires_rx(tmp_path, capsys):
    scene = write_scene(tmp_path)
    code = main(["simulate", "--scene", str(scene), "--mode", "bi",
                 "--tx", "UE", "-o", str(tmp_path)])
    assert code == 2
    assert "--rx" in capsys.readouterr().err


def test_process_validates_window_and_format(artifacts, tmp_path, capsys):
    cir = str(artifacts["out"] / "run.cir")
    sink = ["-o", str(tmp_path)]
    assert main(["process", "--cir", cir, "-N", "0"] + sink) == 2
    assert "positive" in capsys.readouterr().err
    assert main(["process", "--cir", cir, "-N", "8",
                 "--export", "png"] + sink) == 2
    assert "unknown export format" in capsys.readouterr().err
    assert main(["process", "--cir", cir, "-N", "64"] + sink) == 2
    assert "exceeds" in capsys.readouterr().err
    assert main(["process", "--cir", cir, "-N", "8",
                 "--t0-index", "12"] + sink) == 2
    assert "no complete" in capsys.readouterr().err
    # a rejected run must not leave partial artifacts behind
    assert list(tmp_path.iterdir()) == []


def test_process_rejects_negative_t0_index(artifacts, tmp_path, capsys):
    cir = str(artifacts["out"] / "run.cir")
    assert main(["process", "--cir", cir, "-N", "8", "--t0-index", "-5",
                 "-o", str(tmp_path)]) == 2
    assert "--t0-index" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_process_rejects_zero_stride(artifacts, tmp_path, capsys):
    cir = str(artifacts["out"] / "run.cir")
    assert main(["process", "--cir", cir, "-N", "8", "--stride", "0",
                 "-o", str(tmp_path)]) == 2
    assert "--stride must be a positive integer" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("count", ["0", "-1"])
def test_process_rejects_num_windows_below_one(artifacts, tmp_path, capsys, count):
    cir = str(artifacts["out"] / "run.cir")
    assert main(["process", "--cir", cir, "-N", "8", "--num-windows", count,
                 "-o", str(tmp_path)]) == 2
    assert "--num-windows must be a positive integer" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_truncated_map_and_padded_pdp_are_input_errors(artifacts, tmp_path, capsys):
    out = artifacts["out"]
    ddm = (out / "run_w000000.ddm").read_bytes()
    cut = tmp_path / "cut.ddm"
    cut.write_bytes(ddm[:-8])
    assert main(["compare", "--reference", str(out / "run_pred_w000000.ddm"),
                 "--test", str(cut), "-o", str(tmp_path)]) == 2
    assert "truncated" in capsys.readouterr().err
    for name in ("run.pdp", "run_w000000.ddm", "run.cir"):
        padded = tmp_path / f"padded_{name}"
        padded.write_bytes((out / name).read_bytes() + b"\0" * 8)
        assert main(["info", str(padded)]) == 2, name
        assert "8 bytes after the declared payload" in capsys.readouterr().err


def test_info_on_static_scene(tmp_path, capsys):
    doc = plates_scene_doc()
    doc["facets"] = doc["facets"][:1]
    doc["bodies"] = []
    path = tmp_path / "static.json"
    path.write_text(json.dumps(doc))
    assert main(["info", str(path)]) == 0
    out = capsys.readouterr().out
    assert "0 bodies" in out and "static" in out


def test_info_on_truncated_artifacts_is_input_error(artifacts, tmp_path, capsys):
    out = artifacts["out"]
    for name in ("run.cir", "run_w000000.ddm", "run.pdp"):
        raw = (out / name).read_bytes()
        for keep in (12, 40, len(raw) // 2, len(raw) - 1):
            cut = tmp_path / f"cut_{keep}_{name}"
            cut.write_bytes(raw[:keep])
            assert main(["info", str(cut)]) == 2, (name, keep)
            assert str(cut) in capsys.readouterr().err


def test_cir_cut_inside_a_facet_block_is_input_error(artifacts, tmp_path, capsys):
    raw = (artifacts["out"] / "run.cir").read_bytes()
    at = 12 + struct.unpack_from("<I", raw, 8)[0]         # first frame header
    for _ in range(3):                                    # skip frames 0 and 1, then cut
        n = struct.unpack_from("<I", raw, at + 12)[0]
        hops = raw[at + 20 + 33 * n:at + 20 + 34 * n]
        facets = at + 20 + 34 * n
        at = facets + 4 * (sum(hops) + n)
    assert sum(hops) >= 2
    cut = tmp_path / "cut.cir"
    cut.write_bytes(raw[:facets + 6])                     # one facet and a half
    assert main(["process", "--cir", str(cut), "-N", "8", "-o", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert str(cut) in err and f"payload truncated at byte {facets + 6}" in err
    assert list(tmp_path.iterdir()) == [cut]


def test_non_finite_scene_is_input_error(tmp_path, capsys):
    doc = plates_scene_doc()
    doc["facets"][0]["vertices"][2][1] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--scene", str(path), "--tx", "UE", "--chirps", "4",
                 "--no-diffuse", "-o", str(tmp_path)]) == 2
    assert "finite" in capsys.readouterr().err


def test_compare_mismatched_windows_is_contract_error(artifacts, tmp_path, capsys):
    out = artifacts["out"]
    cir = str(out / "run.cir")
    assert main(["process", "--cir", cir, "-N", "4", "--num-windows", "1",
                 "--tag", "short", "-o", str(tmp_path)]) == 0
    code = main(["compare", "--reference", str(out / "run_w000000.ddm"),
                 "--test", str(tmp_path / "short_w000000.ddm"),
                 "-o", str(tmp_path)])
    assert code == 3
    assert "different axes" in capsys.readouterr().err


def test_frozen_clock_reruns_are_byte_identical(tmp_path):
    scene = write_scene(tmp_path)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["simulate", "--scene", str(scene), "--tx", "UE",
                     "--chirps", "16", "--no-diffuse", "--tag", "run",
                     "-o", str(out), "--frozen-clock"]) == 0
        assert main(["process", "--cir", str(out / "run.cir"), "-N", "8",
                     "--num-windows", "1", "--export", "bin,pgm",
                     "--tag", "run", "-o", str(out), "--frozen-clock"]) == 0
        assert main(["predict", "--cir", str(out / "run.cir"), "-N", "8",
                     "--tag", "run", "-o", str(out), "--frozen-clock"]) == 0
        outs.append(out)
    for name in ("run.cir", "run_paths.csv", "run_summary.json", "run.pdp",
                 "run_w000000.ddm", "run_w000000.pgm", "run_w000000.pgm.txt",
                 "run_pred_w000000.ddm"):
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical reruns"


def test_process_without_a_pdp_export_skips_the_pdp(artifacts, tmp_path, monkeypatch):
    cir = str(artifacts["out"] / "run.cir")
    common = ["-N", "8", "--tag", "run", "--frozen-clock"]
    assert main(["process", "--cir", cir, "--export", "bin,pgm", "-o", str(tmp_path / "bin"),
                 *common]) == 0

    def no_pdp(*args, **kwargs):
        raise AssertionError("pdp_series ran for a map-only export")

    monkeypatch.setattr("rftwin.fmcw.pdp_series", no_pdp)
    assert main(["process", "--cir", cir, "--export", "pgm", "-o", str(tmp_path / "pgm"),
                 *common]) == 0
    assert sorted(p.name for p in (tmp_path / "pgm").iterdir()) == [
        "run_w000000.pgm", "run_w000000.pgm.txt", "run_w000008.pgm", "run_w000008.pgm.txt"]
    for path in (tmp_path / "pgm").iterdir():
        assert path.read_bytes() == (tmp_path / "bin" / path.name).read_bytes()


def test_process_transforms_each_beat_row_once(artifacts, tmp_path, monkeypatch):
    """Without --zero-pad the PDP and every map, overlapping windows
    included, read one range_fft of each of the 16 beat rows."""
    seen = []

    def counting(samples, window="hann", zero_pad=False, out=None):
        assert not zero_pad
        first = samples.__array_interface__["data"][0]
        seen.extend(first + i * samples.strides[0] for i in range(len(samples)))
        return range_fft(samples, window, zero_pad, out)

    monkeypatch.setattr("rftwin.fmcw.range_fft", counting)
    assert main(["process", "--cir", str(artifacts["out"] / "run.cir"), "-N", "8",
                 "--stride", "3", "--export", "bin,csv,pgm", "--tag", "run",
                 "-o", str(tmp_path), "--frozen-clock"]) == 0
    assert len(seen) == len(set(seen)) == 16


def test_zero_padded_process_keeps_the_unpadded_pdp(artifacts, tmp_path):
    """--zero-pad maps are 2 n_s wide, with the bits of delay_doppler on
    range_fft(beats[w], zero_pad=True) for overlapping windows, and the
    .pdp is the unpadded run's byte for byte."""
    cir = artifacts["out"] / "run.cir"
    common = ["-N", "8", "--stride", "3", "--noise", "--window", "blackman",
              "--window-slow", "hamming", "--tag", "run", "--frozen-clock"]
    for name, flags in (("pad", ["--zero-pad"]), ("flat", [])):
        assert main(["process", "--cir", str(cir), "-o", str(tmp_path / name),
                     *flags, *common]) == 0
    pdp = [(tmp_path / name / "run.pdp").read_bytes() for name in ("pad", "flat")]
    assert pdp[0] == pdp[1]
    episode = load_cir(cir)[0]
    config = episode.config
    beats = synth_beat(episode, NoiseConfig(enabled=True))
    for start in (0, 3, 6):
        ddm = load_map(tmp_path / "pad" / f"run_w{start:06d}.ddm")
        rows = range_fft(beats[start:start + 8], "blackman", zero_pad=True)
        want = delay_doppler(rows, episode.t, config, t0_index=start,
                             window_fast="blackman", window_slow="hamming")
        assert ddm.power_db.shape == (8, 2 * config.samples_per_chirp)
        assert ddm.power_db.tobytes() == want.power_db.tobytes()
        assert ddm.metadata["zero_pad"] is True
    assert not (tmp_path / "pad" / "run_w000009.ddm").exists()


def test_process_memory_and_work_do_not_grow_with_the_episode(tmp_path, monkeypatch):
    """scenario_b mono (no diffuse paths) at 128 and 1024 chirps, one
    128-chirp window.  With the PDP written (--export bin), the tracemalloc
    peak of process grows by at most per_frame bytes per extra frame, for
    the .cir records, their path table, the phase trails and the time axes
    (about 250 measured), plus slack, one pass of beat rows (1 MB): the
    long episode's window ends inside a full pass, the short one's in a
    pass of 8 rows.  A whole-episode beat matrix would add 16 * 2116 bytes
    per frame and its PDP 8 * 2116.  With --export pgm only the window's
    frames, rounded up to a pass, are synthesized."""
    import tracemalloc

    import rftwin.fmcw
    from rftwin.fmcw import pass_frames

    per_frame, slack = 512, 1 << 20
    common = ["-o", str(tmp_path), "--frozen-clock"]
    for chirps in (128, 1024):
        assert main(["simulate", "--scene", str(FIXTURES / "scenario_b.json"), "--tx", "UE",
                     "--t0", "0.1", "--no-diffuse", "--chirps", str(chirps),
                     "--tag", f"b{chirps}", *common]) == 0

    def process(chirps, export):
        return main(["process", "--cir", str(tmp_path / f"b{chirps}.cir"), "-N", "128",
                     "--num-windows", "1", "--export", export, "--tag", f"p{chirps}", *common])

    assert process(128, "bin") == 0                 # caches and lazy imports
    peaks = {}
    for chirps in (128, 1024):
        tracemalloc.start()
        try:
            assert process(chirps, "bin") == 0
            peaks[chirps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1024] - peaks[128] <= (1024 - 128) * per_frame + slack, peaks

    rows = []
    real = rftwin.fmcw.beat_passes

    def counting(*args, **kwargs):
        for first, block in real(*args, **kwargs):
            rows.append(len(block))
            yield first, block

    monkeypatch.setattr(rftwin.fmcw, "beat_passes", counting)
    assert process(1024, "pgm") == 0
    assert 128 <= sum(rows) <= 128 + pass_frames(ChirpConfig().samples_per_chirp)


def test_default_out_dir_comes_from_environment(tmp_path, monkeypatch, capsys):
    scene = write_scene(tmp_path)
    env_out = tmp_path / "envout"
    monkeypatch.setenv("RFTWIN_OUT", str(env_out))
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--scene", str(scene), "--tx", "UE",
                 "--chirps", "4", "--no-diffuse", "--tag", "envrun"]) == 0
    assert (env_out / "envrun.cir").is_file()


def test_maps_and_pdps_record_the_simulate_seed(tmp_path):
    from rftwin.fmcw import load_map, load_pdp

    scene = write_scene(tmp_path)
    common = ["--tag", "run", "-o", str(tmp_path), "--frozen-clock"]
    assert main(["simulate", "--scene", str(scene), "--tx", "UE", "--chirps", "8",
                 "--no-diffuse", "--seed", "7"] + common) == 0
    cir = str(tmp_path / "run.cir")
    assert main(["process", "--cir", cir, "-N", "8"] + common) == 0
    assert main(["predict", "--cir", cir, "-N", "8"] + common) == 0
    assert load_pdp(tmp_path / "run.pdp").metadata["seed"] == 7
    assert load_map(tmp_path / "run_w000000.ddm").metadata["seed"] == 7
    assert load_map(tmp_path / "run_pred_w000000.ddm").metadata["seed"] == 7


def test_process_validates_before_synthesis(artifacts, tmp_path, capsys, monkeypatch):
    """Every flag is checked before beat_passes, process's one way into
    synthesis, is called, and no file is written before it."""
    import rftwin.fmcw

    def beat_passes(*args, **kwargs):
        raise RuntimeError("synthesis reached")

    monkeypatch.setattr(rftwin.fmcw, "beat_passes", beat_passes)
    cir = str(artifacts["out"] / "run.cir")
    sink = ["-o", str(tmp_path)]
    assert main(["process", "--cir", cir, "-N", "8", "--export", "foo"] + sink) == 2
    assert "unknown export format 'foo'" in capsys.readouterr().err
    assert main(["process", "--cir", cir, "-N", "8", "--t0-index", "12"] + sink) == 2
    assert ("no complete 8-chirp window starts at index 12 in 16 beat frames"
            in capsys.readouterr().err)
    assert main(["process", "--cir", cir, "-N", "8", "--window", "foo"] + sink) == 2
    assert "--window: unknown window 'foo'" in capsys.readouterr().err
    assert main(["process", "--cir", cir, "-N", "8", "--window-slow", "kaiser"] + sink) == 2
    assert "--window-slow: unknown window 'kaiser'" in capsys.readouterr().err
    assert main(["process", "--cir", cir, "-N", "1", "--export", "pgm"] + sink) == 2
    assert "--N must be a positive integer of at least 2, got 1" in capsys.readouterr().err
    for flags, message in ((["--noise-seed", "-1"], "seed must be a non-negative integer"),
                           (["--noise-figure", "nan"], "noise_figure_db must be finite"),
                           (["--tx-power", "inf"], "tx_power_dbm must be finite")):
        assert main(["process", "--cir", cir, "-N", "8", "--noise"] + flags + sink) == 2
        assert message in capsys.readouterr().err
    # a valid command does reach the patched synthesis
    assert main(["process", "--cir", cir, "-N", "8"] + sink) == 4
    assert "synthesis reached" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spec", ["", ",", " , "])
@pytest.mark.parametrize("command", ["process", "predict"])
def test_an_export_list_without_a_format_is_an_input_error(artifacts, tmp_path, capsys,
                                                           command, spec):
    """An --export list that names no format would write nothing; process
    and predict exit 2 naming the flag, and write no file."""
    cir = str(artifacts["out"] / "run.cir")
    assert main([command, "--cir", cir, "-N", "8", "--export", spec,
                 "-o", str(tmp_path)]) == 2
    assert "--export names no format" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_compare_validates_gate_and_threshold_before_loading(artifacts, tmp_path, capsys,
                                                             monkeypatch):
    import rftwin.fmcw

    def load_map(path):
        raise RuntimeError("map loaded")

    monkeypatch.setattr(rftwin.fmcw, "load_map", load_map)
    ddm = str(artifacts["out"] / "run_w000000.ddm")
    pair = ["compare", "--reference", ddm, "--test", ddm, "-o", str(tmp_path)]
    for flags, message in ((["--gate", "-1"], "--gate must be >= 0, got -1"),
                           (["--threshold", "nan"], "--threshold must be finite and >= 0"),
                           (["--threshold", "inf"], "--threshold must be finite and >= 0"),
                           (["--threshold", "-5"], "--threshold must be finite and >= 0")):
        assert main(pair + flags) == 2
        assert message in capsys.readouterr().err
    # a gate of 0 and a threshold of 0 dB are valid and reach the loader
    assert main(pair + ["--gate", "0", "--threshold", "0"]) == 4
    assert "map loaded" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_predict_rejects_a_one_chirp_window(artifacts, tmp_path, capsys):
    cir = str(artifacts["out"] / "run.cir")
    assert main(["predict", "--cir", cir, "-N", "1", "-o", str(tmp_path)]) == 2
    assert "--N must be a positive integer of at least 2, got 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_predict_models_the_windows_of_process(artifacts, tmp_path, capsys):
    """predict models process's windows, hann in both axes by default, and
    names them in the map metadata; --window-slow boxcar gives the boxcar
    prediction bit for bit, and an unknown window is an input error."""
    from rftwin.fmcw import predicted_map

    cir_path = str(artifacts["out"] / "run.cir")
    cir = load_cir(cir_path)[0]
    default = load_map(artifacts["out"] / "run_pred_w000000.ddm")
    assert default.metadata["model_windows"] == ["hann", "hann"]
    assert (default.power_db.tobytes()
            == predicted_map(cir, n_chirps=8, window_fast="hann",
                             window_slow="hann").power_db.tobytes())
    predict = ["predict", "--cir", cir_path, "-N", "8", "--tag", "run", "--frozen-clock"]
    assert main(predict + ["--window-slow", "boxcar", "-o", str(tmp_path / "box")]) == 0
    box = load_map(tmp_path / "box" / "run_pred_w000000.ddm")
    assert box.metadata["model_windows"] == ["hann", "boxcar"]
    assert box.power_db.tobytes() == predicted_map(cir, n_chirps=8, window_fast="hann",
                                                   window_slow="boxcar").power_db.tobytes()
    for flag in ("--window", "--window-slow"):
        assert main(predict + [flag, "foo", "-o", str(tmp_path / "foo")]) == 2
        assert f"{flag}: unknown window 'foo'" in capsys.readouterr().err
    assert not (tmp_path / "foo").exists()


def test_compare_names_a_foreign_file_once(artifacts, tmp_path, capsys):
    cir = str(artifacts["out"] / "run.cir")
    assert main(["compare", "--reference", cir, "--test", cir, "-o", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {cir}: not a rftwin delay-Doppler map file\n"


def test_negative_seed_is_input_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--scene", str(write_scene(tmp_path)), "--tx", "UE",
                 "--chirps", "4", "--seed", "-1", "-o", str(out)]) == 2
    assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("f_samp", ["1", "10000"])
def test_fewer_than_two_samples_per_chirp_is_input_error(tmp_path, capsys, f_samp):
    out = tmp_path / "out"
    assert main(["simulate", "--scene", str(write_scene(tmp_path)), "--tx", "UE",
                 "--chirps", "4", "--f-samp", f_samp, "-o", str(out)]) == 2
    assert "at least 2 are needed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("f_samp, samples", [("17.8e3", 2), ("35.5e3", 4), ("70.9e3", 8)])
def test_short_chirps_run_the_whole_chain(tmp_path, f_samp, samples):
    """Windows shorter than the prediction's 8-bin response table."""
    from rftwin.fmcw import load_map

    common = ["--tag", "run", "-o", str(tmp_path), "--frozen-clock"]
    cir = str(tmp_path / "run.cir")
    assert main(["simulate", "--scene", str(write_scene(tmp_path)), "--tx", "UE",
                 "--chirps", "8", "--no-diffuse", "--f-samp", f_samp] + common) == 0
    assert main(["process", "--cir", cir, "-N", "8", "--export", "bin,csv,pgm"] + common) == 0
    assert main(["predict", "--cir", cir, "-N", "8"] + common) == 0
    assert load_map(tmp_path / "run_pred_w000000.ddm").power_db.shape == (8, samples)
    assert main(["compare", "--reference", str(tmp_path / "run_pred_w000000.ddm"),
                 "--test", str(tmp_path / "run_w000000.ddm")] + common) == 0


NO_SCIPY_RUN = """
import sys
import rftwin.analysis, rftwin.channel, rftwin.cli, rftwin.fmcw, rftwin.kinematics, rftwin.scene
from rftwin.cli import main
scene, out = sys.argv[1:]
common = ["--tag", "run", "-o", out, "--frozen-clock"]
assert main(["info", scene]) == 0
assert main(["simulate", "--scene", scene, "--tx", "UE", "--t0", "0.1",
             "--chirps", "16", *common]) == 0
assert main(["process", "--cir", out + "/run.cir", "-N", "8",
             "--export", "bin,csv,pgm", *common]) == 0
assert main(["predict", "--cir", out + "/run.cir", "-N", "8", *common]) == 0
assert main(["compare", "--reference", out + "/run_pred_w000000.ddm",
             "--test", out + "/run_w000000.ddm", *common]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_commands_run_without_scipy(tmp_path):
    """numpy is the only numeric dependency: importing rftwin and running
    every command loads no scipy module."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    run = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN,
                          str(FIXTURES / "scenario_b.json"), str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "run_w000008.ddm").is_file()


def test_the_cli_starts_without_numpy():
    """rftwin and its CLI load the library lazily: importing rftwin.cli,
    building the parser and answering a usage error load no numpy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    code = ("import contextlib, io, sys, rftwin.cli\n"
            "rftwin.cli.build_parser()\n"
            "with contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            "        rftwin.cli.main(['simulate', '--tx', 'UE'])\n"
            "    except SystemExit as exc:\n"
            "        print(exc.code)\n"
            "print('numpy' in sys.modules)\n")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["2", "False"]


def static_scene(directory):
    """The plates scene without its bodies: the static plate alone."""
    doc = plates_scene_doc()
    doc["facets"], doc["bodies"] = doc["facets"][:1], []
    path = directory / "static.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("flag, value", [
    ("--t0", "nan"), ("--t0", "inf"), ("--f-c", "nan"), ("--f-c", "inf"),
    ("--bandwidth", "nan"), ("--slope", "nan"), ("--t-chirp", "nan"),
    ("--t-idle", "nan"), ("--f-samp", "nan")])
def test_non_finite_chirp_and_epoch_flags_are_input_errors(tmp_path, capsys, flag, value):
    for scene, name in ((FIXTURES / "scenario_b.json", "b"), (static_scene(tmp_path), "static")):
        out = tmp_path / name
        assert main(["simulate", "--scene", str(scene), "--tx", "UE", "--chirps", "4",
                     flag, value, "-o", str(out)]) == 2, (flag, value, name)
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("command", ["process", "predict"])
@pytest.mark.parametrize("change, message", [
    ({"f_c": -1.0}, "ChirpConfig.f_c must be positive"),
    ({"colour": "red"}, "colour"),
    ({"f_c": "x"}, "bad chirp config"),
    ({"f_samp": 1.0}, "at least 2 are needed")])
def test_malformed_header_chirp_config_is_input_error(artifacts, tmp_path, capsys,
                                                     command, change, message):
    raw = (artifacts["out"] / "run.cir").read_bytes()
    hlen = struct.unpack_from("<I", raw, 8)[0]
    header = json.loads(raw[12:12 + hlen].decode())
    header["config"].update(change)
    blob = json.dumps(header, sort_keys=True).encode()
    bad = tmp_path / "bad.cir"
    bad.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + hlen:])
    assert main([command, "--cir", str(bad), "-N", "8", "-o", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and message in err
    assert list(tmp_path.iterdir()) == [bad]


def _rewrite_header(raw: bytes, change) -> bytes:
    """A container with its JSON header replaced by change(header)."""
    hlen = struct.unpack_from("<I", raw, 8)[0]
    blob = json.dumps(change(json.loads(raw[12:12 + hlen].decode()))).encode()
    return raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + hlen:]


def test_episode_values_no_trace_writes_are_input_errors(artifacts, tmp_path, capsys):
    """A .cir with a NaN or infinite frame time, delay, Doppler or amplitude
    does not load: info, process and predict exit 2 naming the file and the
    column.  One with amplitudes whose power overflows loads, and process
    and predict exit 2 as well: numpy's floating-point errors raise there,
    and a traced episode never sets them off."""
    from rftwin.channel import save_cir

    nan = float("nan")
    for name, column, value in (("a", "a", 1e300), ("tau", "tau", nan), ("a_re", "a", nan),
                                ("a_im", "a", complex(0.0, nan)), ("nu", "nu", float("inf")),
                                ("t", "t", nan)):
        cir = load_cir(artifacts["out"] / "run.cir")[0]
        (cir.t if column == "t" else getattr(cir.paths, column))[:] = value
        bad = tmp_path / f"{name}.cir"
        save_cir(bad, cir)
        want = (f"error: {bad}: the {name} column holds a NaN or infinite value\n"
                if name != "a" else "error: the input's values break the arithmetic (")
        argvs = [[command, "--cir", str(bad), "-N", "8", "-o", str(tmp_path)]
                 for command in ("process", "predict")] + [["info", str(bad)]] * (name != "a")
        for argv in argvs:
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(want), err


# The commands that read each artifact of the shared run, after its path.
_READERS = {"run.cir": (["info"], ["process", "--cir"], ["predict", "--cir"]),
            "run_w000000.ddm": (["info"], ["compare", "--reference", "PRED", "--test"]),
            "run.pdp": (["info"],)}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_artifacts_never_are_an_internal_error(artifacts, data):
    """The shared run's 16-chirp .cir, its .ddm and its .pdp, with a few
    bytes overwritten (in the header or anywhere), cut short, or with one
    header value swapped for a value of another JSON type: every command
    that reads the file exits 0, 2 or 3, never 4."""
    from conftest import swap_json_value

    name = data.draw(st.sampled_from(sorted(_READERS)))
    raw = (artifacts["out"] / name).read_bytes()
    how = data.draw(st.sampled_from(["overwrite", "truncate", "swap"]))
    if how == "overwrite":
        end = 12 + struct.unpack_from("<I", raw, 8)[0]
        at = data.draw(st.integers(0, end - 1) | st.integers(0, len(raw) - 1))
        mutant = bytearray(raw)
        patch = data.draw(st.binary(min_size=1, max_size=8))[:len(raw) - at]
        mutant[at:at + len(patch)] = patch
    elif how == "truncate":
        mutant = raw[:data.draw(st.integers(0, len(raw) - 1))]
    else:
        def swap(header):
            swap_json_value(data.draw, header)
            return header
        mutant = _rewrite_header(raw, swap)
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / name
        bad.write_bytes(mutant)
        pred = str(artifacts["out"] / "run_pred_w000000.ddm")
        for reader in _READERS[name]:
            argv = [pred if arg == "PRED" else arg for arg in reader] + [str(bad)]
            if reader[0] != "info":
                argv += ["-N", "8"] * (reader[0] != "compare") + ["-o", tmp]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2, 3), (how, argv, err.getvalue())


def _without(key):
    return lambda header: {k: v for k, v in header.items() if k != key}


def _with_metadata(value):
    return lambda header: {**header, "metadata": value}


@pytest.mark.parametrize("name, change, command, message", [
    ("run.cir", lambda header: [1], "info", "header is not a JSON object"),
    ("run.cir", lambda header: [1], "process", "header is not a JSON object"),
    ("run_w000000.ddm", lambda header: [1], "info", "header is not a JSON object"),
    ("run_w000000.ddm", lambda header: [1], "compare", "header is not a JSON object"),
    ("run.pdp", lambda header: [1], "info", "header is not a JSON object"),
    ("run.cir", _without("link"), "info", "header lacks link"),
    ("run.cir", _without("link"), "process", "header lacks link"),
    ("run.cir", _without("t0"), "info", "header lacks t0"),
    ("run_w000000.ddm", _with_metadata("x"), "info", "metadata is not a JSON object"),
    ("run_w000000.ddm", _with_metadata("x"), "compare", "metadata is not a JSON object"),
    ("run.pdp", _with_metadata(None), "info", "metadata is not a JSON object")],
    ids=["cir-list-info", "cir-list-process", "ddm-list-info", "ddm-list-compare",
         "pdp-list-info", "cir-no-link-info", "cir-no-link-process", "cir-no-t0-info",
         "ddm-str-metadata-info", "ddm-str-metadata-compare", "pdp-null-metadata-info"])
def test_malformed_container_headers_are_input_errors(artifacts, tmp_path, capsys,
                                                      name, change, command, message):
    out = artifacts["out"]
    bad = tmp_path / f"bad_{name}"
    bad.write_bytes(_rewrite_header((out / name).read_bytes(), change))
    argv = {"info": ["info", str(bad)],
            "process": ["process", "--cir", str(bad), "-N", "8", "-o", str(tmp_path)],
            "compare": ["compare", "--reference", str(out / "run_pred_w000000.ddm"),
                        "--test", str(bad), "-o", str(tmp_path)]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and message in err
    assert list(tmp_path.iterdir()) == [bad]


@pytest.mark.parametrize("change, message", [
    (lambda h: {**h, "config": {**h["config"], "f_samp": "18.75e6"}}, "bad chirp config"),
    (lambda h: {**h, "config": {**h["config"], "f_samp": 10 ** 400}}, "bad chirp config"),
    (lambda h: {**h, "config": [1]}, "bad chirp config"),
    (lambda h: {**h, "link": {"tx": "UE"}}, "bad link"),
    (lambda h: {**h, "link": "UE"}, "bad link"),
    (lambda h: {**h, "trace": {**h["trace"], "seed": -1}}, "bad trace settings"),
    (lambda h: {**h, "trace": {**h["trace"], "seed": "1729"}}, "bad trace settings"),
    (_without("trace"), "header lacks trace"),
    (lambda h: {**h, "n_frames": True}, "bad frame count True"),
    (lambda h: {**h, "n_frames": 16.0}, "bad frame count 16.0")],
    ids=["f_samp-str", "f_samp-huge-int", "config-list", "link-no-rx",
         "link-str", "trace-seed", "trace-seed-str", "no-trace", "n_frames-true",
         "n_frames-float"])
def test_rejected_cir_headers_are_input_errors_of_every_reader(artifacts, tmp_path, capsys,
                                                               change, message):
    """A .cir header whose config, link or trace its constructor rejects, or
    whose frame count is not a JSON integer: load_cir raises one ValueError
    naming the file, and info, process and predict exit 2 with it, writing
    nothing."""
    bad = tmp_path / "bad.cir"
    bad.write_bytes(_rewrite_header((artifacts["out"] / "run.cir").read_bytes(), change))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{bad}: {message}')}"):
        load_cir(bad)
    for argv in (["info", str(bad)],
                 ["process", "--cir", str(bad), "-N", "8", "-o", str(tmp_path)],
                 ["predict", "--cir", str(bad), "-N", "8", "-o", str(tmp_path)]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith(f"error: {bad}: {message}")
    assert list(tmp_path.iterdir()) == [bad]


@pytest.mark.parametrize("edit, key", [("t_window-str", "t_window"), ("t_window-null", "t_window"),
                                       ("no-doppler", "n_doppler"), ("no-delay", "n_delay")])
def test_info_on_bad_map_metadata_or_empty_map_is_input_error(artifacts, tmp_path, capsys,
                                                               edit, key):
    from rftwin.fmcw import DelayDopplerMap, load_map, save_map

    ddm = load_map(artifacts["out"] / "run_w000000.ddm")
    power, d_axis, nu_axis, meta = ddm.power_db, ddm.delay_axis, ddm.doppler_axis, ddm.metadata
    if edit == "no-doppler":
        power, nu_axis = power[:0], nu_axis[:0]
    elif edit == "no-delay":
        power, d_axis = power[:, :0], d_axis[:0]
    else:
        meta["t_window"] = "0.001" if edit == "t_window-str" else None
    bad = tmp_path / "bad.ddm"
    save_map(bad, DelayDopplerMap(power, d_axis, nu_axis, meta))
    assert main(["info", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and key in err


def test_grid_header_sizes_must_be_positive_integers(artifacts, tmp_path, capsys):
    """A .ddm or .pdp whose size key is true, -1, 1.0 or missing: the loader
    raises a ValueError naming the file and the key, and info exits 2."""
    from rftwin.fmcw import load_pdp

    for name, load, keys in (("run_w000000.ddm", load_map, ("n_doppler", "n_delay")),
                             ("run.pdp", load_pdp, ("n_epochs", "n_delay"))):
        raw = (artifacts["out"] / name).read_bytes()
        for key in keys:
            for label, change in (("true", lambda h: {**h, key: True}),
                                  ("minus-one", lambda h: {**h, key: -1}),
                                  ("float", lambda h: {**h, key: 1.0}),
                                  ("missing", _without(key))):
                bad = tmp_path / f"{label}_{key}_{name}"
                bad.write_bytes(_rewrite_header(raw, change))
                with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: header {key} "):
                    load(bad)
                assert main(["info", str(bad)]) == 2, (name, key, label)
                err = capsys.readouterr().err
                assert err.startswith(f"error: {bad}: header {key} "), err


def test_grid_header_sizes_of_zero_are_rejected(artifacts, tmp_path, capsys):
    """A .ddm or .pdp with zero Doppler bins, epochs or delay bins: the
    loader raises a ValueError naming the file and the key, and info exits 2."""
    from rftwin.fmcw import load_pdp

    for name, load, keys in (("run_w000000.ddm", load_map, ("n_doppler", "n_delay")),
                             ("run.pdp", load_pdp, ("n_epochs", "n_delay"))):
        raw = (artifacts["out"] / name).read_bytes()
        for key in keys:
            bad = tmp_path / f"zero_{key}_{name}"
            bad.write_bytes(_rewrite_header(raw, lambda h: {**h, key: 0}))
            with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: header {key} .* got 0$"):
                load(bad)
            assert main(["info", str(bad)]) == 2, (name, key)
            err = capsys.readouterr().err
            assert err.startswith(f"error: {bad}: header {key} "), err


def test_summary_reports_per_frame_counts_and_drops(artifacts, tmp_path):
    summary = json.loads((artifacts["out"] / "run_summary.json").read_text())
    # Every chirp of the plates sees each of the three plates once.
    assert summary["paths_per_kind"] == {"specular": 48}
    assert summary["paths_per_frame"] == {"specular": {"min": 3, "mean": 3.0, "max": 3}}
    assert summary["dropped_per_frame"] == {"min": 0, "mean": 0.0, "max": 0}
    assert summary["dropped_beyond_max_delay"] == 0
    # The static plate beyond the unambiguous range: one drop per frame.
    doc = plates_scene_doc()
    doc["facets"], doc["bodies"] = doc["facets"][:1], []
    for vertex in doc["facets"][0]["vertices"]:
        vertex[0] = 400.0
    far = tmp_path / "far.json"
    far.write_text(json.dumps(doc))
    assert main(["simulate", "--scene", str(far), "--tx", "UE", "--chirps", "5",
                 "--no-diffuse", "--tag", "far", "-o", str(tmp_path), "--frozen-clock"]) == 0
    summary = json.loads((tmp_path / "far_summary.json").read_text())
    assert summary["paths_per_kind"] == {} and summary["paths_per_frame"] == {}
    assert summary["dropped_per_frame"] == {"min": 1, "mean": 1.0, "max": 1}
    assert summary["dropped_beyond_max_delay"] == 5


# Command lines for the shared parser: every subcommand, flags set and left
# at their defaults, and calls that argparse rejects.
ARGVS = (
    ["simulate", "--scene", "s.json", "--tx", "UE", "--no-diffuse", "--max-order", "3",
     "--chirps", "70", "--t-idle", "0.005", "--frozen-clock", "--tag", "a"],
    ["simulate", "--scene", "s.json", "--mode", "bi", "--tx", "BS", "--rx", "UE"],
    ["process", "--cir", "x.cir", "-N", "8", "--stride", "4", "--zero-pad", "--noise",
     "--export", "bin,csv", "--window-slow", "boxcar", "-o", "out"],
    ["process", "--cir", "x.cir"],
    ["predict", "--cir", "x.cir", "--window", "blackman", "--t0-index", "3"],
    ["compare", "--reference", "a.ddm", "--test", "b.ddm", "--gate", "5",
     "--threshold", "20"],
    ["info", "scene.json"],
    ["simulate", "--tx", "UE"],
    ["process", "--cir", "x.cir", "-N", "eight"],
    ["bogus"],
    [],
)


def parsed(parser, argv):
    """The namespace's fields, or the exit code argparse gives up with."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code


@settings(max_examples=30, deadline=None)
@given(order=st.lists(st.sampled_from(range(len(ARGVS))), min_size=2, max_size=12))
def test_the_shared_parser_keeps_no_state_between_calls(order):
    """main's parser is built once per process; any interleaving of
    subcommands, flags and rejected calls parses each command line as a
    parser of its own would."""
    assert cli._parser() is cli._parser()
    for i in order:
        assert parsed(cli._parser(), ARGVS[i]) == parsed(cli.build_parser(), ARGVS[i])


def test_main_is_reentrant(tmp_path, capsys, monkeypatch):
    """A simulate after calls with other flags, an input error and a usage
    error writes what a first call would: the defaults of every flag.  A
    handler replaced after the parser was built is the one main calls."""
    cli._parser()
    monkeypatch.setattr(cli, "cmd_info", lambda args: 7)
    assert main(["info", "anything"]) == 7
    monkeypatch.undo()
    scene = write_scene(tmp_path)
    assert main(["simulate", "--scene", str(scene), "--tx", "UE", "--chirps", "4",
                 "--no-diffuse", "--max-order", "3", "--seed", "5", "--t0", "0.01",
                 "--frozen-clock", "--tag", "a", "-o", str(tmp_path)]) == 0
    assert main(["info", str(tmp_path / "missing.cir")]) == 2
    with pytest.raises(SystemExit):
        main(["simulate", "--scene", str(scene)])
    with pytest.raises(SystemExit) as usage:
        main(["--threads", "1", "info", str(tmp_path / "missing.cir")])
    assert usage.value.code == 2
    assert main(["simulate", "--scene", str(scene), "--tx", "UE", "--chirps", "4",
                 "--tag", "b", "-o", str(tmp_path)]) == 0
    _, header = load_cir(tmp_path / "b.cir")
    assert header["trace"] == asdict(TraceConfig())
    assert (header["t0"], header["seed"]) == (0.0, 1729)
    assert header["created"] != "frozen"
    assert json.loads((tmp_path / "b_summary.json").read_text())["frames"] == 4
