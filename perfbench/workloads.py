"""The benchmark's workloads: what each run feeds the rftwin CLI.

Each workload is one closed-loop chain of four CLI commands
(simulate -> process -> predict -> compare) repeated for the run's length
in a single process.  A workload fixes the scene, the command arguments
and the path counts every chirp must produce; the run seed sets the
diffuse jitter (``--seed``) and, for the calibration plates, the plate
ranges and radial rates.

This module imports nothing from rftwin and no numeric library, so the
parent process that times set-up stays light.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

SPEED_OF_LIGHT = 299_792_458.0
# Default ChirpConfig of rftwin.channel; the benchmark never overrides it.
F_C = 79.0e9
PRI = 112.86e-6 + 13.0e-6
F_SAMP = 18.75e6
SAMPLES_PER_CHIRP = math.floor(112.86e-6 * F_SAMP)
WINDOW = 128            # -N of process and predict on every workload


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    chirps: int
    simulate_args: tuple[str, ...]
    process_args: tuple[str, ...]
    # Kept paths per chirp by kind; the tracer must reproduce them exactly.
    paths_per_chirp: dict[str, int] = field(default_factory=dict)
    fixture: str | None = None      # shipped scene, else generated per seed

    @property
    def stride(self) -> int:
        args = list(self.process_args)
        return int(args[args.index("--stride") + 1]) if "--stride" in args else WINDOW

    @property
    def windows(self) -> int:
        return (self.chirps - WINDOW) // self.stride + 1

    @property
    def diffuse(self) -> bool:
        return "--no-diffuse" not in self.simulate_args


WORKLOADS = {w.name: w for w in (
    Workload(
        name="tour_mono",
        why="README tour: mono-static scenario_b with diffuse paths and "
            "bin+csv+pgm exports; stresses per-path layers, synthesis and "
            "the exporters",
        chirps=128,
        simulate_args=("--tx", "UE", "--t0", "0.1"),
        process_args=("--export", "bin,csv,pgm"),
        paths_per_chirp={"specular": 2, "diffuse": 64},
        fixture="fixtures/scenario_b.json"),
    Workload(
        name="bistatic_order3",
        why="bi-static BS->UE on scenario_b at specular order 3, no diffuse; "
            "the order-3 image search dominates and synthesis is bypassed",
        chirps=128,
        simulate_args=("--mode", "bi", "--tx", "BS", "--rx", "UE",
                       "--t0", "0.1", "--max-order", "3", "--no-diffuse"),
        process_args=(),
        paths_per_chirp={"los": 1, "specular": 1},
        fixture="fixtures/scenario_b.json"),
    Workload(
        name="plates_sliding",
        why="seeded calibration plates with closed-form delay/Doppler; "
            "stride-4 overlapping windows make delay_doppler and save_map "
            "dominate while tracing stays cheap",
        chirps=256,
        simulate_args=("--tx", "UE", "--no-diffuse"),
        process_args=("--stride", "4", "--window-slow", "boxcar"),
        paths_per_chirp={"specular": 3}),
)}


# Calibration plates: the layout of the test suite's plate fixture with the
# ranges and radial rates drawn from the run seed.  One static plate straight
# ahead, one approaching at +20 deg and one receding at -20 deg.  A moving
# body faces along its velocity, so the receding plate uses the reversed
# winding to keep its front face towards the radar.
PLATE_BEARINGS_DEG = (0.0, 20.0, -20.0)
PLATE_T_MID = (WINDOW // 2) * PRI       # centre of the first window


@dataclass(frozen=True)
class Plate:
    bearing_deg: float
    range_m: float           # at PLATE_T_MID
    rate_mps: float          # d(range)/dt, negative while approaching

    def range_at(self, t: float) -> float:
        return self.range_m + self.rate_mps * (t - PLATE_T_MID)

    def position(self, t: float) -> list[float]:
        b = math.radians(self.bearing_deg)
        r = self.range_at(t)
        return [r * math.cos(b), r * math.sin(b), 1.0]

    def delay(self, t: float) -> float:
        return 2.0 * self.range_at(t) / SPEED_OF_LIGHT

    @property
    def doppler(self) -> float:
        return -2.0 * self.rate_mps * F_C / SPEED_OF_LIGHT


def plates(seed: int) -> list[Plate]:
    """Plate geometry for a seed: separated ranges, rates of opposite sign."""
    rng = random.Random(seed)
    return [Plate(PLATE_BEARINGS_DEG[0], rng.uniform(4.0, 7.0), 0.0),
            Plate(PLATE_BEARINGS_DEG[1], rng.uniform(8.0, 11.0), -rng.uniform(0.5, 2.5)),
            Plate(PLATE_BEARINGS_DEG[2], rng.uniform(12.0, 15.0), rng.uniform(0.5, 2.5))]


def plates_scene_doc(seed: int) -> dict:
    square = [[0.0, -0.1, -0.1], [0.0, 0.1, -0.1], [0.0, 0.1, 0.1], [0.0, -0.1, 0.1]]
    reversed_square = [square[1], square[0], square[3], square[2]]
    static, approaching, receding = plates(seed)
    r0 = static.range_m
    pattern = {"peak_gain_dbi": 5.0, "hpbw_azimuth_deg": 90.0,
               "hpbw_elevation_deg": 60.0}
    return {
        "name": f"calibration_plates_seed{seed}",
        "materials": [{"preset": "metal"}],
        "transceivers": [{"id": "UE", "role": "UE", "position": [0.0, 0.0, 1.0],
                          "boresight": [1.0, 0.0, 0.0], "pattern": pattern}],
        "facets": [
            {"vertices": [[r0, 0.1, 0.9], [r0, -0.1, 0.9],
                          [r0, -0.1, 1.1], [r0, 0.1, 1.1]], "material": "metal"},
            {"vertices": square, "material": "metal", "body": "plate_b"},
            {"vertices": reversed_square, "material": "metal", "body": "plate_c"},
        ],
        "bodies": [
            {"id": body, "waypoints": [[0.0] + p.position(0.0), [0.1] + p.position(0.1)]}
            for body, p in (("plate_b", approaching), ("plate_c", receding))],
    }


def scene_path(workload: Workload, seed: int, root: Path, workdir: Path) -> Path:
    """Scene file the run traces: the shipped fixture or a generated one."""
    if workload.fixture is not None:
        return root / workload.fixture
    path = workdir / f"{workload.name}_seed{seed}.json"
    path.write_text(json.dumps(plates_scene_doc(seed), indent=1) + "\n")
    return path


def n_facets(scene: Path) -> int:
    return len(json.loads(scene.read_text())["facets"])


def candidate_chains(facets: int, max_order: int) -> int:
    """Facet sequences the image method tries per chirp: sum F (F-1)^(k-1)."""
    return sum(facets * (facets - 1) ** (k - 1) for k in range(1, max_order + 1))


def max_order(workload: Workload) -> int:
    args = list(workload.simulate_args)
    return int(args[args.index("--max-order") + 1]) if "--max-order" in args else 2


def commands(workload: Workload, scene: Path, seed: int, out: Path,
             tag: str = "ep") -> list[tuple[str, list[str]]]:
    """The four CLI invocations of one episode, in order."""
    common = ["--tag", tag, "-o", str(out), "--frozen-clock"]
    cir = str(out / f"{tag}.cir")
    return [
        ("simulate", ["simulate", "--scene", str(scene), *workload.simulate_args,
                      "--chirps", str(workload.chirps), "--seed", str(seed), *common]),
        ("process", ["process", "--cir", cir, "-N", str(WINDOW),
                     *workload.process_args, *common]),
        ("predict", ["predict", "--cir", cir, "-N", str(WINDOW), *common]),
        ("compare", ["compare", "--reference", str(out / f"{tag}_pred_w000000.ddm"),
                     "--test", str(out / f"{tag}_w000000.ddm"), *common]),
    ]
