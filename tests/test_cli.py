"""End-to-end command-line pipeline runs on a small three-plate scene."""

import json
import os
import struct
import subprocess
import sys

import pytest

from conftest import FIXTURES, REPO_ROOT, plates_scene_doc
from rftwin.cli import main


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


def test_default_out_dir_comes_from_environment(tmp_path, monkeypatch, capsys):
    scene = write_scene(tmp_path)
    env_out = tmp_path / "envout"
    monkeypatch.setenv("RFTWIN_OUT", str(env_out))
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--scene", str(scene), "--tx", "UE",
                 "--chirps", "4", "--no-diffuse", "--tag", "envrun"]) == 0
    assert (env_out / "envrun.cir").is_file()


def test_threads_flag_validation(monkeypatch, capsys):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    assert main(["--threads", "0", "info", "whatever"]) == 2
    assert "--threads" in capsys.readouterr().err
    junk_ok = main(["--threads", "2", "info", "/definitely/not/a/file"])
    assert junk_ok == 2           # threads accepted, then input error on file
    assert os.environ["OMP_NUM_THREADS"] == "2"


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
    import rftwin.fmcw

    def synth_beat(*args, **kwargs):
        raise RuntimeError("synthesis reached")

    monkeypatch.setattr(rftwin.fmcw, "synth_beat", synth_beat)
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
