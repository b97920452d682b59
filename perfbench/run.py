"""rftwin benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Times set-up in fresh processes, then starts one worker process
(perfbench/worker.py) that repeats the simulate -> process -> predict ->
compare chain for S seconds and checks every output.  Prints a report and,
as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the ``end_to_end`` list of BENCHMARK.json with
``--trace 0`` and the ``per_layer`` list with ``--trace 1``.  The full
record (seed, environment, every metric, sample counts) goes to
``.perfbench_out/<workload>-seed<N>-trace<T>.json``; a traced run also
writes its spans to ``.perfbench_out/<workload>-seed<N>-spans.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, scene_path  # noqa: E402

SETUP_RUNS = 5
# Child processes run single-threaded so runs do not contend for the cores.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def child_env() -> dict:
    return {**os.environ, **THREAD_ENV}


def time_setup(scene: Path) -> tuple[list[float], list[float]]:
    """Calibrated and wall seconds of SETUP_RUNS fresh start-up processes."""
    argv = [sys.executable, str(HERE / "startup.py"), str(scene)]
    calibrated, wall = [], []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(argv, env=child_env(), capture_output=True,
                              text=True, timeout=60)
        if done.returncode != 0:
            raise BenchError(f"start-up process failed:\n{done.stderr}")
        seconds, raw = json.loads(done.stdout)
        calibrated.append(seconds)
        wall.append(raw)
    return calibrated, wall


def run_worker(args, scene: Path, workdir: Path, result: Path,
               spans: Path | None, budget: float) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scene", str(scene),
            "--workdir", str(workdir), "--result", str(result)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    proc = subprocess.Popen(argv, env=child_env(), stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=budget)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {budget:.0f} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not result.is_file():
        raise BenchError(f"worker exited with code {code}")
    return json.loads(result.read_text())


def environment(worker_env: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {**worker_env, "nproc": os.cpu_count(), "cpu": cpu,
            "threads": THREAD_ENV}


def end_to_end(workload, setup: list[float], run: dict, key: str = "") -> dict:
    """End-to-end metrics of the untraced episodes: {name: (value, unit)}.

    Times are calibrated seconds; ``key="raw_"`` gives the wall-clock ones.
    """
    plain = [e for e in run["episodes"] if not e["traced"]]
    med = statistics.median
    return {
        "setup_s": (med(setup), "s"),
        "simulate_chirps_per_s": (med(workload.chirps / e[key + "times"]["simulate"] for e in plain), "1/s"),
        "process_chirps_per_s": (med(workload.chirps / e[key + "times"]["process"] for e in plain), "1/s"),
        "pipeline_s": (med(e[key + "pipeline_s"] for e in plain), "s"),
    }


def select(metrics: dict, declared: list[dict]) -> dict:
    """The metrics BENCHMARK.json declares, in its order and with its units."""
    out = {}
    for spec in declared:
        value, unit = metrics[spec["name"]]
        if unit != spec["unit"]:
            raise BenchError(f"{spec['name']}: unit {unit}, declared {spec['unit']}")
        out[spec["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception so the worker is stopped and the
    # scratch directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.perf_counter()
    workload = WORKLOADS[args.workload]

    try:
        spec_path = ROOT / "BENCHMARK.json"
        for needed in (spec_path, ROOT / "src" / "rftwin" / "cli.py",
                       *([ROOT / workload.fixture] if workload.fixture else [])):
            if not needed.is_file():
                raise BenchError(f"missing {needed.relative_to(ROOT)}: run from a "
                                 f"full checkout of the repository")
        spec = json.loads(spec_path.read_text())
        out_dir = ROOT / ".perfbench_out"
        workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        spans = out_dir / f"{stem}-spans.json" if args.trace else None
        try:
            scene = scene_path(workload, args.seed, ROOT, workdir)
            setup, setup_raw = time_setup(scene)
            budget = DEADLINE_S - (time.perf_counter() - started)
            run = run_worker(args, scene, workdir, workdir / "result.json", spans, budget)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    episodes = [run["warmup"], *run["episodes"]]
    attempted, failed = run["attempted"], run["failed"]
    metrics = end_to_end(workload, setup, run)
    wall = end_to_end(workload, setup_raw, run, "raw_")
    metrics["peak_rss_mb"] = (run["peak_rss_mb"], "MB")
    metrics["failed_frac"] = (failed / attempted, "ratio")
    if args.trace:
        metrics.update({k: tuple(v) for k, v in run["layers"].items()})
    env = environment(run["environment"])
    plain = sum(not e["traced"] for e in run["episodes"])
    traced = len(run["episodes"]) - plain

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}: medians over {plain} untraced + {traced} "
          f"traced episodes of {workload.chirps} chirps after 1 warm-up; "
          f"setup over {SETUP_RUNS} processes")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"  {'metric':40s} {'calibrated':>14s} {'unit':5s} {'wall clock':>14s}")
    for name, (value, unit) in metrics.items():
        raw = f"{wall[name][0]:14.6g}" if name in wall else ""
        note = "  (computed)" if name in run.get("computed", ()) else ""
        print(f"  {name:40s} {value:14.6g} {unit:5s} {raw}{note}")
    for command, layers in run.get("breakdown", {}).items():
        whole = sum(layers.values())
        shares = sorted(layers.items(), key=lambda kv: -kv[1])
        print(f"  {command} self time by layer ({whole:.3f} s over {traced} traced episodes): "
              + ", ".join(f"{k} {100 * v / whole:.0f}%" for k, v in shares if v >= 0.01 * whole))
    problems = sorted({f for e in episodes for f in e["failures"]})
    print(f"operations: {attempted} attempted, {failed} failed"
          + (f" ({', '.join(problems)})" if problems else ""))

    try:
        section = spec["per_layer"] if args.trace else spec["end_to_end"]
        line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": select(metrics, section)}
    except (BenchError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "chirps": workload.chirps,
              "episodes": {"untraced": plain, "traced": traced, "warmup": 1},
              "setup_s": {"calibrated": setup, "wall": setup_raw},
              "environment": env,
              "episode_seconds": [
                  {"traced": e["traced"], "calibrated": e["times"], "wall": e["raw_times"]}
                  for e in run["episodes"]],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "wall_metrics": {k: {"value": v, "unit": u} for k, (v, u) in wall.items()},
              "result": line}
    (out_dir / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
