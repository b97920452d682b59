"""Self-test of the benchmark at smoke size (a warm-up plus one or two episodes).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402
from workloads import WORKLOADS, commands, scene_path  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(name: str, trace: bool, tmp_path: Path, seed: int = 7) -> dict:
    workload = WORKLOADS[name]
    scene = scene_path(workload, seed, ROOT, tmp_path)
    return worker.run(workload, seed, 0.0, trace, scene, tmp_path)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_has_every_declared_metric_with_its_unit(trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "plates_sliding",
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(line["metrics"][m["name"]]["value"], (int, float))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_yields_every_layer_metric(name, tmp_path):
    result = _run(name, True, tmp_path)
    assert result["failed"] == 0
    units = {m: u for m, (_, u) in result["layers"].items()}
    for m in SPEC["per_layer"]:
        assert units[m["name"]] == m["unit"]


def test_traced_self_times_add_up_to_traced_pipeline(tmp_path):
    result = _run("plates_sliding", True, tmp_path)
    # Every span's self time, the cli.* command spans included, partitions
    # the traced commands' time.
    assert result["span_self_s"] == pytest.approx(result["traced_pipeline_s"], rel=0.01)


def test_tampered_compare_report_counts_as_failed(tmp_path, monkeypatch):
    original = worker.cli.cmd_compare

    def tampered(args):
        code = original(args)
        path = Path(args.out) / f"{args.tag}_report.json"
        report = json.loads(path.read_text())
        report["matches"][0]["doppler_bin_error"] = 5
        path.write_text(json.dumps(report))
        return code

    monkeypatch.setattr(worker.cli, "cmd_compare", tampered)
    result = _run("plates_sliding", False, tmp_path)
    episodes = [result["warmup"], *result["episodes"]]
    assert all("check_report" in e["failures"] for e in episodes)
    assert result["failed"] == len(episodes)
    assert 0 < result["failed"] / result["attempted"] < 1


def test_plate_check_rejects_other_geometry(tmp_path):
    workload = WORKLOADS["plates_sliding"]
    scene = scene_path(workload, 3, ROOT, tmp_path)
    out = tmp_path / "out"
    for _, argv in commands(workload, scene, 3, out):
        assert worker.cli.main(argv) == 0
    assert worker.check_plates(workload, 3, out, "ep")
    assert not worker.check_plates(workload, 4, out, "ep")
