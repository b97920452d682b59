"""One benchmark run in a fresh process: repeated CLI episodes plus checks.

An episode is the README chain ``simulate -> process -> predict ->
compare`` driven in-process through ``rftwin.cli.main(argv)`` into a
scratch directory.  Every command and every output check is one operation;
a non-zero exit code or a failed check counts as a failed operation.

Usage (normally started by run.py):
    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --scene SCENE --workdir DIR --result OUT.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import struct
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import rftwin.cli as cli  # noqa: E402
import rftwin.channel  # noqa: E402,F401  (the numeric stack the handlers import)
# Bound here, before any span wrapper is installed, so the output checks
# never record spans.
from rftwin.analysis import extract_peaks  # noqa: E402
from rftwin.fmcw import load_map  # noqa: E402
from calibrate import SpeedProbe  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import (PRI, SAMPLES_PER_CHIRP, WINDOW, WORKLOADS, Workload,  # noqa: E402
                       candidate_chains, commands, max_order, n_facets, plates)

KIND_NAMES = {0: "los", 1: "specular", 2: "diffuse"}
# Layer metrics worked out from sizes and counts rather than timed.
COMPUTED = ("raytrace.candidate_chains_per_chirp", "fmcw.synth_tone_evals",
            "fmcw.delay_doppler_mb_per_window")
# Compare report tolerance on every matched peak, in bins, and the margin
# below the compare threshold within which a reference peak may go unmatched.
DELAY_BIN_TOL = 0
DOPPLER_BIN_TOL = 1
EDGE_DB = 3.0


# -- output readers, independent of the library's own loaders ---------------

def _container(path: Path, magic: bytes) -> tuple[dict, bytes, int]:
    raw = path.read_bytes()
    if raw[:8] != magic:
        raise ValueError(f"{path}: bad magic")
    hlen = struct.unpack_from("<I", raw, 8)[0]
    return json.loads(raw[12:12 + hlen]), raw, 12 + hlen


def cir_counts(path: Path) -> tuple[dict[str, int], int, int]:
    """Kept paths per kind, dropped paths and frame count of a .cir file."""
    header, raw, off = _container(path, b"RFTCIR1\n")
    counts: dict[str, int] = {}
    dropped = 0
    for _ in range(header["n_frames"]):
        _, _, n, n_drop = struct.unpack_from("<Id II", raw, off)
        off += 20 + 32 * n
        kinds = np.frombuffer(raw, np.uint8, n, off)
        hops = np.frombuffer(raw, np.uint8, n, off + n)
        off += 2 * n + 4 * int(hops.sum()) + 4 * n
        for code, c in zip(*np.unique(kinds, return_counts=True)):
            counts[KIND_NAMES[int(code)]] = counts.get(KIND_NAMES[int(code)], 0) + int(c)
        dropped += n_drop
    if off != len(raw):
        raise ValueError(f"{path}: {len(raw) - off} trailing bytes")
    return counts, dropped, header["n_frames"]


def read_map(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Delay axis, Doppler axis and dB grid of a .ddm file."""
    header, raw, off = _container(path, b"RFTDDM1\n")
    n_dop, n_del = header["n_doppler"], header["n_delay"]
    delay = np.frombuffer(raw, "<f8", n_del, off)
    doppler = np.frombuffer(raw, "<f8", n_dop, off + 8 * n_del)
    grid = np.frombuffer(raw, "<f8", n_dop * n_del, off + 8 * (n_del + n_dop))
    return delay, doppler, grid.reshape(n_dop, n_del)


# -- output checks: each returns True when the output is correct ------------

def check_counts(workload: Workload, out: Path, tag: str) -> bool:
    """CIR and run summary hold exactly the workload's per-chirp path counts."""
    expected = {k: v * workload.chirps for k, v in workload.paths_per_chirp.items()}
    counts, dropped, frames = cir_counts(out / f"{tag}.cir")
    summary = json.loads((out / f"{tag}_summary.json").read_text())
    return (counts == expected and dropped == 0 and frames == workload.chirps
            and summary["paths_per_kind"] == expected
            and summary["dropped_beyond_max_delay"] == 0)


def check_report(out: Path, tag: str) -> bool:
    """Every matched peak within the bin tolerances, and every reference peak
    clear of the compare threshold by EDGE_DB matched.

    The analytic prediction assumes a boxcar slow-time window.  Under the
    default hann window a processed peak differs from its prediction by up
    to the scalloping difference (about 2.5 dB), so a weak peak near the
    threshold can fall on either side of it in the two maps.
    """
    report = json.loads((out / f"{tag}_report.json").read_text())
    matches = report["matches"]
    if not matches or any(abs(m["delay_bin_error"]) > DELAY_BIN_TOL
                          or abs(m["doppler_bin_error"]) > DOPPLER_BIN_TOL
                          for m in matches):
        return False
    if report["unmatched_reference"] == 0:
        return True
    matched = {(m["ref_doppler_bin"], m["ref_delay_bin"]) for m in matches}
    strong = extract_peaks(load_map(report["reference"]), report["threshold_db"] - EDGE_DB)
    return all((p.doppler_bin, p.delay_bin) in matched for p in strong)


def check_plates(workload: Workload, seed: int, out: Path, tag: str) -> bool:
    """Each plate's peak lies within one bin of 2R/c and -2 rdot f_c / c.

    R is taken at the window's middle chirp, as predicted_map does.
    """
    for w in range(workload.windows):
        start = w * workload.stride
        delay, doppler, grid = read_map(out / f"{tag}_w{start:06d}.ddm")
        t_mid = (start + WINDOW // 2) * PRI
        floor = grid.max() - 30.0
        for plate in plates(seed):
            i = int(np.argmin(np.abs(doppler - plate.doppler)))
            j = int(round(plate.delay(t_mid) / (delay[1] - delay[0])))
            box = grid[max(i - 3, 0):i + 4, max(j - 3, 0):j + 4]
            bi, bj = np.unravel_index(np.argmax(box), box.shape)
            di, dj = bi + max(i - 3, 0) - i, bj + max(j - 3, 0) - j
            if abs(di) > 1 or abs(dj) > 1 or box[bi, bj] < floor:
                return False
    return True


# -- one episode ------------------------------------------------------------

def run_episode(workload: Workload, scene: Path, seed: int, out: Path,
                recorder: SpanRecorder | None = None) -> dict:
    """Run the four commands into ``out``, time them and check the outputs.

    ``intervals`` holds each command's perf_counter start and end;
    ``calibrate`` turns them into seconds.
    """
    out.mkdir(parents=True, exist_ok=True)
    tag = "ep"
    intervals, failures = {}, []
    for name, argv in commands(workload, scene, seed, out, tag):
        t = time.perf_counter()
        if recorder is None:
            code = cli.main(argv)
        else:
            with recorder.span(f"cli.{name}"):
                code = cli.main(argv)
        intervals[name] = (t, time.perf_counter())
        if code != 0:
            failures.append(name)

    checks = {"counts": lambda: check_counts(workload, out, tag),
              "report": lambda: check_report(out, tag)}
    if workload.fixture is None:
        checks["plates"] = lambda: check_plates(workload, seed, out, tag)
    for name, check in checks.items():
        try:
            ok = check()
        except (OSError, ValueError, KeyError, struct.error):
            ok = False
        if not ok:
            failures.append(f"check_{name}")

    result = {"traced": recorder is not None, "intervals": intervals,
              "raw_pipeline_s": sum(t1 - t0 for t0, t1 in intervals.values()),
              "attempted": len(intervals) + len(checks),
              "failures": failures, "cir_sha256": None,
              "peaks_matched": 0, "peaks_unmatched": 0, "paths": {}, "dropped": 0}
    try:
        result["cir_sha256"] = hashlib.sha256((out / f"{tag}.cir").read_bytes()).hexdigest()
        result["paths"], result["dropped"], _ = cir_counts(out / f"{tag}.cir")
        report = json.loads((out / f"{tag}_report.json").read_text())
        result["peaks_matched"] = len(report["matches"])
        result["peaks_unmatched"] = report["unmatched_reference"] + report["unmatched_test"]
    except (OSError, ValueError, KeyError, struct.error):
        pass
    shutil.rmtree(out)
    return result


# -- per-layer metrics from the traced episodes -----------------------------

def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def calibrate(episode: dict, probe: SpeedProbe) -> None:
    """Add wall (``raw_times``) and calibrated (``times``) command seconds."""
    episode["raw_times"], episode["times"], episode["factors"] = {}, {}, {}
    for name, (t0, t1) in episode["intervals"].items():
        net, scale = probe.interval(t0, t1)
        episode["raw_times"][name] = t1 - t0
        episode["times"][name] = net * scale
        episode["factors"][name] = scale
    episode["pipeline_s"] = sum(episode["times"].values())


def calibrated_self_times(recorder: SpanRecorder, probe: SpeedProbe,
                          traced: list[dict]) -> list[float]:
    """Span self times without the probe's kernel time, in reference seconds.

    Every top-level span is one command of one traced episode, in order, and
    every span inside it takes that command's scale factor.
    """
    owned = probe.owned()
    scales = iter([e["factors"][c] for e in traced for c in e["factors"]])
    scale = 1.0
    out = []
    for index, (span, self_s) in enumerate(zip(recorder.spans, recorder.self_times())):
        if span[1] < 0:
            scale = next(scales)
        out.append((self_s - owned.get(index, 0.0)) * scale)
    return out


def layer_metrics(workload: Workload, scene: Path, seed: int, recorder: SpanRecorder,
                  probe: SpeedProbe, episodes: list[dict]) -> tuple[dict, dict]:
    """Every per-layer metric as {name: (value, unit)}, and the traced
    episodes' summed self seconds per command and layer."""
    from rftwin.raytrace import TraceConfig, build_sample_patterns
    from rftwin.scene import load_scene

    traced = [e for e in episodes if e["traced"]]
    plain = [e for e in episodes if not e["traced"]]
    n = len(traced)
    chirps = workload.chirps * n
    paths_ep = sum(traced[0]["paths"].values())
    kept = {k: sum(e["paths"].get(k, 0) for e in traced) for k in ("los", "specular", "diffuse")}
    traced_paths = sum(kept.values()) + sum(e["dropped"] for e in traced)

    calls: dict[str, list[float]] = {}
    in_process: dict[str, list[float]] = {}
    breakdown: dict[str, dict[str, float]] = {}     # command -> layer -> self s
    for (name, root), self_s in zip(((s[0], s[2]) for s in recorder.spans),
                                    calibrated_self_times(recorder, probe, traced)):
        calls.setdefault(name, []).append(self_s)
        if root == "cli.process":
            in_process.setdefault(name, []).append(self_s)
        layers = breakdown.setdefault(root, {})
        layers[name] = layers.get(name, 0.0) + self_s
    total = {name: sum(v) for name, v in calls.items()}
    total_of = lambda name: total.get(name, 0.0)  # noqa: E731

    def ms_per_call(name, source=calls):
        v = [1e3 * s for s in source.get(name, [])]
        return _pct(v, 50), _pct(v, 90)

    m: dict[str, tuple[float, str]] = {}
    m["scene.load_scene_ms"] = (ms_per_call("scene.load_scene")[0], "ms")
    for layer, name in (("kinematics.snapshot", "kinematics.snapshot_ms_per_chirp"),
                        ("raytrace.los", "raytrace.los_ms_per_chirp"),
                        ("raytrace.specular", "raytrace.specular_ms_per_chirp"),
                        ("raytrace.diffuse", "raytrace.diffuse_ms_per_chirp")):
        p50, p90 = ms_per_call(layer)
        m[name] = (p50, "ms")
        m[name + "_p90"] = (p90, "ms")
    for kind in ("los", "specular", "diffuse"):
        m[f"raytrace.{kind}_paths_per_chirp"] = (kept[kind] / chirps, "count")
    m["channel.dropped_frac"] = ((traced_paths - sum(kept.values())) / max(traced_paths, 1), "ratio")
    chains = candidate_chains(n_facets(scene), max_order(workload))
    m["raytrace.candidate_chains_per_chirp"] = (chains, "count")
    m["raytrace.specular_yield"] = (kept["specular"] / (chirps * chains), "ratio")
    samples = 0
    if workload.diffuse:
        patterns = build_sample_patterns(load_scene(scene), TraceConfig(seed=seed))
        samples = sum(p.n_samples for p in patterns.values())
    m["raytrace.diffuse_yield"] = (kept["diffuse"] / (chirps * samples) if samples else 0.0, "ratio")
    m["em.amplitudes_us_per_path"] = (1e6 * total_of("em.amplitudes") / max(traced_paths, 1), "us")
    m["channel.simulate_self_ms_per_chirp"] = (1e3 * total_of("channel.simulate") / chirps, "ms")
    m["channel.save_cir_ms"] = (ms_per_call("channel.save_cir")[0], "ms")
    m["channel.cir_to_csv_ms"] = (ms_per_call("channel.cir_to_csv")[0], "ms")
    loads = len(calls.get("channel.load_cir", []))
    m["channel.load_cir_us_per_path"] = (1e6 * total_of("channel.load_cir") / max(loads * paths_ep, 1), "us")
    m["fmcw.synth_us_per_path_chirp"] = (1e6 * total_of("fmcw.synth") / max(sum(kept.values()), 1), "us")
    m["fmcw.synth_tone_evals"] = (paths_ep * SAMPLES_PER_CHIRP, "count")
    for layer, name in (("fmcw.delay_doppler", "fmcw.delay_doppler_ms_per_window"),
                        ("fmcw.save_map", "fmcw.save_map_ms_per_window"),
                        ("fmcw.map_to_csv", "fmcw.map_to_csv_ms_per_window"),
                        ("fmcw.map_to_pgm", "fmcw.map_to_pgm_ms_per_window")):
        p50, p90 = ms_per_call(layer, in_process)
        m[name] = (p50, "ms")
        m[name + "_p90"] = (p90, "ms")
    # Arrays delay_doppler materialises per window: the stacked block, range
    # FFT, slow-windowed rows and Doppler FFT (complex128), |grid|^2 and dB (f8).
    m["fmcw.delay_doppler_mb_per_window"] = (WINDOW * SAMPLES_PER_CHIRP * (4 * 16 + 2 * 8) / 1e6, "MB")
    m["fmcw.pdp_ms_per_chirp"] = (1e3 * total_of("fmcw.pdp") / chirps, "ms")
    m["fmcw.pdp_to_csv_ms"] = (ms_per_call("fmcw.pdp_to_csv")[0], "ms")
    m["fmcw.predicted_map_ms"] = (ms_per_call("fmcw.predicted_map")[0], "ms")
    m["analysis.match_maps_ms"] = (ms_per_call("analysis.match_maps")[0], "ms")
    m["analysis.peaks_matched"] = (_median([e["peaks_matched"] for e in traced]), "count")
    m["analysis.peaks_unmatched"] = (_median([e["peaks_unmatched"] for e in traced]), "count")
    for command in ("simulate", "process", "predict", "compare"):
        m[f"cli.{command}_self_ms"] = (ms_per_call(f"cli.{command}")[0], "ms")
    traced_s = _median([e["pipeline_s"] for e in traced])
    plain_s = _median([e["pipeline_s"] for e in plain])
    m["trace.pipeline_s"] = (traced_s, "s")
    m["trace.overhead_s"] = (traced_s - plain_s, "s")
    return m, breakdown


# -- the run ----------------------------------------------------------------

def environment() -> dict:
    import platform
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        scene: Path, workdir: Path, spans_path: Path | None = None) -> dict:
    """Warm up, then repeat episodes for ``seconds`` under the speed probe.

    With ``trace`` the episodes alternate untraced and traced in pairs whose
    order flips each pair; otherwise every episode is untraced.
    """
    out = workdir / "episode"
    recorder = SpanRecorder()
    episodes: list[dict] = []
    with SpeedProbe(owner=recorder.current) as probe:
        warmup = run_episode(workload, scene, seed, out)
        deadline = time.perf_counter() + seconds
        while True:
            pair = len(episodes) // 2
            traced = trace and (len(episodes) + pair) % 2 == 1
            if traced:
                with recorder.installed():
                    episodes.append(run_episode(workload, scene, seed, out, recorder))
            else:
                episodes.append(run_episode(workload, scene, seed, out))
            typical = _median([e["raw_pipeline_s"] for e in episodes])
            if time.perf_counter() + typical > deadline and (not trace or len(episodes) % 2 == 0):
                break
    for e in [warmup, *episodes]:
        calibrate(e, probe)

    # Same seed, same inputs: every episode's CIR must repeat the warm-up's bytes.
    for e in episodes:
        e["attempted"] += 1
        if e["cir_sha256"] is None or e["cir_sha256"] != warmup["cir_sha256"]:
            e["failures"].append("check_repeat")

    result = {"warmup": warmup, "episodes": episodes,
              "attempted": sum(e["attempted"] for e in [warmup, *episodes]),
              "failed": sum(len(e["failures"]) for e in [warmup, *episodes]),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
              "probe_samples": len(probe.samples), "environment": environment()}
    if trace:
        traced = [e for e in episodes if e["traced"]]
        result["layers"], result["breakdown"] = layer_metrics(
            workload, scene, seed, recorder, probe, episodes)
        result["computed"] = list(COMPUTED)
        result["span_self_s"] = sum(sum(v.values()) for v in result["breakdown"].values())
        result["traced_pipeline_s"] = sum(e["pipeline_s"] for e in traced)
        if spans_path is not None:
            recorder.dump(spans_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scene", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                 args.scene, args.workdir, args.spans)
    args.result.write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
