"""Shared fixtures: simulated episodes are expensive, so build them once.

Three scenes are exercised across the suite:

* ``scenario_b`` (repo fixture): mono-static UE, static facade + ground,
  one car crossing the beam.  Full 4096-chirp episode.
* ``scenario_c`` (repo fixture): bi-static BS -> car-mounted UE with a wall
  reflection.  Full 4096-chirp episode, reduced diffuse density to keep the
  suite fast (the CLI default stays at 16 samples per facet).
* the calibration plates: three small metal mirrors at known ranges and
  constant radial rates, built inline below.  Every delay/Doppler number for
  them is available in closed form, which makes them the reference fixture
  for map-level checks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from rftwin.channel import ChirpConfig, Cir, SensingLink, simulate_cir
from rftwin.fmcw import delay_doppler, range_fft, synth_beat
from rftwin.raytrace import PathTable, TraceConfig
from rftwin.scene import Scene, load_scene, scene_from_dict

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "fixtures"

# Calibration plate layout: bearing from the radar, range at the middle of
# the first 128-chirp window, and d(range)/dt (negative = approaching).
PLATE_BEARINGS_DEG = (0.0, 20.0, -20.0)
PLATE_RANGES_M = (6.0, 9.3, 14.0)
PLATE_RATES_MPS = (0.0, -2.0302, 0.9556)
PLATE_T_MID = 64 * 125.86e-6   # window center with the default chirp timing

# Float64 bit patterns: every special value plus arbitrary bits (NaN payloads,
# subnormals, finite values of any magnitude).
_SPECIAL_BITS = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf]).view(np.uint64).tolist()
FLOAT_BITS = st.one_of(st.sampled_from(_SPECIAL_BITS), st.integers(0, 2 ** 64 - 1))

# One strategy per JSON type, keyed by the Python type json.loads gives.
_JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(-10.0, 10.0),
                         st.text(max_size=3))
_JSON_TYPES = {type(None): st.none(), bool: st.booleans(),
               float: st.one_of(st.integers(-10 ** 6, 10 ** 6), st.floats(-1e6, 1e6)),
               str: st.text(max_size=4), list: st.lists(_JSON_LEAVES, max_size=3),
               dict: st.dictionaries(st.text(max_size=3), _JSON_LEAVES, max_size=2)}


def _json_paths(value, at=()):
    """The key path of every value inside a JSON document."""
    items = value.items() if isinstance(value, dict) else enumerate(value) \
        if isinstance(value, list) else ()
    return [path for key, v in items for path in [at + (key,), *_json_paths(v, at + (key,))]]


def swap_json_value(draw, doc) -> None:
    """Replace one value of a JSON document in place, a leaf or a whole list
    or object, with a value of another JSON type; draw picks both."""
    where = draw(st.sampled_from(_json_paths(doc)))
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    kind = float if type(parent[where[-1]]) is int else type(parent[where[-1]])
    others = [t for t in _JSON_TYPES if t is not kind]
    parent[where[-1]] = draw(st.sampled_from(others).flatmap(_JSON_TYPES.get))


SCENARIO_B_T0 = 0.1
SCENARIO_C_T0 = 2.74223872


@dataclass
class Episode:
    """One simulated link: scene, geometry trace, CIR episode, beat matrix
    and the epoch of every frame."""

    scene: Scene
    config: ChirpConfig
    trace: TraceConfig
    link: SensingLink
    t0: float
    cir: Cir
    beats: np.ndarray
    times: np.ndarray
    seconds: dict = field(default_factory=dict)


def _run_episode(scene, config, trace, link, t0) -> Episode:
    started = time.perf_counter()
    cir = simulate_cir(scene, link, config, trace, t0=t0)
    t_sim = time.perf_counter() - started
    started = time.perf_counter()
    beats = synth_beat(cir, config)
    t_synth = time.perf_counter() - started
    return Episode(scene, config, trace, link, t0, cir, beats, cir.t,
                   {"simulate": t_sim, "synth": t_synth})


def window_map(beats, times, config, t0_index=0, n_chirps=128, window_fast="hann",
               window_slow="hann", zero_pad=False):
    """delay_doppler of the n_chirps beat rows from t0_index, with the rows
    range-transformed for this window alone."""
    rows = range_fft(beats[t0_index:t0_index + n_chirps], window_fast, zero_pad)
    return delay_doppler(rows, times, config, t0_index=t0_index,
                         window_fast=window_fast, window_slow=window_slow)


def tap_table(a=(), tau=(), nu=()) -> PathTable:
    """The .cir columns of one frame of specular taps, tap i on facet i (one
    key per tap)."""
    n = len(tau)
    return PathTable(np.ones(n, np.uint8), np.ones(n, np.uint8),
                     np.arange(n, dtype=np.int32)[:, None], np.full(n, -1, np.int32),
                     a=np.asarray(a, dtype=complex), tau=np.asarray(tau, dtype=float),
                     nu=np.asarray(nu, dtype=float))


# The .cir columns of no rows: an episode without frames.
NO_PATHS = PathTable(np.zeros(0, np.uint8), np.zeros(0, np.uint8), np.zeros((0, 0), np.int32),
                     np.zeros(0, np.int32), a=np.zeros(0, complex), tau=np.zeros(0),
                     nu=np.zeros(0))


def episode(frames) -> Cir:
    """The Cir of per-frame tables: frames holds (epoch_index, t, paths,
    n_dropped) per frame.  Only the .cir columns of the tables are kept,
    padded on the left to the widest facet rows."""
    frames = list(frames)
    tables = [paths for _, _, paths, _ in frames]
    paths = PathTable.concat([NO_PATHS] + tables).cir_columns()
    paths.frame = np.repeat(np.arange(len(frames)), [len(table) for table in tables])
    columns = [np.array([fr[j] for fr in frames], dtype=dtype)
               for j, dtype in ((0, int), (1, float), (3, int))]
    return Cir(paths, *columns)


def frames_of(cir: Cir) -> list[tuple]:
    """(epoch_index, t, paths, n_dropped) of every frame of an episode, each
    paths cut with the frame slice cir[k:k + 1]."""
    return [(int(cir.epoch_index[k]), float(cir.t[k]), cir[k:k + 1].paths,
             int(cir.n_dropped[k])) for k in range(len(cir))]


def plate_position(index: int, t: float) -> np.ndarray:
    """World position of a calibration plate center at time t."""
    bearing = np.radians(PLATE_BEARINGS_DEG[index])
    axis = np.array([np.cos(bearing), np.sin(bearing), 0.0])
    dist = PLATE_RANGES_M[index] + PLATE_RATES_MPS[index] * (t - PLATE_T_MID)
    return dist * axis + np.array([0.0, 0.0, 1.0])


def plates_scene_doc() -> dict:
    """Scene dict for the calibration plates (radar at the origin, z=1)."""
    square = [[0.0, -0.1, -0.1], [0.0, 0.1, -0.1], [0.0, 0.1, 0.1], [0.0, -0.1, 0.1]]
    reversed_square = [square[1], square[0], square[3], square[2]]
    static_plate = [[6.0, 0.1, 0.9], [6.0, -0.1, 0.9],
                    [6.0, -0.1, 1.1], [6.0, 0.1, 1.1]]
    return {
        "name": "calibration_plates",
        "materials": [{"preset": "metal"}],
        "transceivers": [
            {"id": "UE", "role": "UE", "position": [0.0, 0.0, 1.0],
             "boresight": [1.0, 0.0, 0.0],
             "pattern": {"peak_gain_dbi": 5.0, "hpbw_azimuth_deg": 90.0,
                         "hpbw_elevation_deg": 60.0}},
        ],
        "facets": [
            {"vertices": static_plate, "material": "metal"},
            {"vertices": square, "material": "metal", "body": "plate_b"},
            {"vertices": reversed_square, "material": "metal", "body": "plate_c"},
        ],
        "bodies": [
            {"id": "plate_b",
             "waypoints": [[0.0] + plate_position(1, 0.0).tolist(),
                           [0.1] + plate_position(1, 0.1).tolist()]},
            {"id": "plate_c",
             "waypoints": [[0.0] + plate_position(2, 0.0).tolist(),
                           [0.1] + plate_position(2, 0.1).tolist()]},
        ],
    }


def two_ray_doc() -> dict:
    """Elevated BS, distant UE, reflective ground patch under the hop."""
    pattern = {"peak_gain_dbi": 5.0, "hpbw_azimuth_deg": 90.0,
               "hpbw_elevation_deg": 60.0}
    return {
        "materials": [{"preset": "concrete"}],
        "facets": [
            {"vertices": [[10.0, -5.0, 0.0], [30.0, -5.0, 0.0],
                          [30.0, 5.0, 0.0], [10.0, 5.0, 0.0]],
             "material": "concrete"},
        ],
        "transceivers": [
            {"id": "BS", "role": "BS", "position": [0.0, 0.0, 10.0],
             "boresight": [1.0, 0.0, -0.3], "pattern": dict(pattern)},
            {"id": "UE", "role": "UE", "position": [30.0, 0.0, 1.5],
             "boresight": [-1.0, 0.0, 0.0], "pattern": dict(pattern)},
        ],
    }


def spin_rig_doc() -> dict:
    """A translating, yawing body carrying the UE, plus a static wall."""
    pattern = {"peak_gain_dbi": 5.0, "hpbw_azimuth_deg": 90.0,
               "hpbw_elevation_deg": 60.0}
    return {
        "materials": [{"preset": "metal"}],
        "facets": [
            {"vertices": [[8.0, -2.0, 0.0], [8.0, -2.0, 3.0],
                          [8.0, 2.0, 3.0], [8.0, 2.0, 0.0]], "material": "metal"},
            {"vertices": [[0.6, -0.4, 0.0], [0.6, 0.4, 0.0],
                          [0.6, 0.4, 0.8], [0.6, -0.4, 0.8]],
             "material": "metal", "body": "rig"},
        ],
        "transceivers": [
            {"id": "BS", "role": "BS", "position": [0.0, -6.0, 2.0],
             "boresight": [0.5, 1.0, -0.1], "pattern": dict(pattern)},
            {"id": "UE", "role": "UE", "body": "rig",
             "offset_position": [0.3, 0.2, 1.1], "offset_boresight": [1.0, 0.0, 0.0],
             "pattern": dict(pattern)},
        ],
        "bodies": [
            {"id": "rig", "waypoints": [[0.0, 2.0, 1.0, 0.0, 0.1],
                                        [1.0, 3.0, 2.5, 0.0, 0.9],
                                        [2.0, 3.5, 4.0, 0.0, 1.4]]},
        ],
    }


def static_crossing_doc(rx_on_cart=False, shift=(0.0, 0.0, 0.0)):
    """A fixed BS and UE 10 m apart along x, a static wall along y = 4 m
    and a 3 m wide plate sliding across at 4 m/s through x = 2.5 m.  The
    plate blocks the LOS for t in [0.375, 1.125] s, the BS leg of the
    wall's specular path for t in [0.875, 1.625] s and the BS legs of some
    of the wall's diffuse samples in between.  A static panel at y = 2 m
    shades the UE legs of the wall's samples with x in [2, 4] m at all
    times, and those of the samples of a low sign gliding along the wall
    with x in [3, 4.75] m.  With rx_on_cart the UE rides a cart creeping
    along x instead.  shift moves the whole scene by that many metres."""
    pattern = {"peak_gain_dbi": 5.0, "hpbw_azimuth_deg": 120.0, "hpbw_elevation_deg": 90.0}
    doc = {
        "materials": [{"preset": "concrete"}, {"preset": "metal"}],
        "facets": [
            {"vertices": [[0.0, 4.0, 0.0], [10.0, 4.0, 0.0], [10.0, 4.0, 3.0], [0.0, 4.0, 3.0]],
             "material": "concrete"},
            {"vertices": [[0.0, 1.5, -1.0], [0.0, -1.5, -1.0], [0.0, -1.5, 1.0], [0.0, 1.5, 1.0]],
             "material": "metal", "body": "slider"},
            {"vertices": [[-1.0, 0.0, -0.4], [1.0, 0.0, -0.4], [1.0, 0.0, 0.4], [-1.0, 0.0, 0.4]],
             "material": "metal", "body": "sign"},
            {"vertices": [[6.0, 2.0, 0.0], [7.0, 2.0, 0.0], [7.0, 2.0, 3.0], [6.0, 2.0, 3.0]],
             "material": "concrete"},
        ],
        "transceivers": [
            {"id": "BS", "role": "BS", "position": [0.0, 0.0, 1.5],
             "boresight": [1.0, 0.5, 0.0], "pattern": dict(pattern)},
            {"id": "UE", "role": "UE", "position": [10.0, 0.0, 1.5],
             "boresight": [-1.0, 0.5, 0.0], "pattern": dict(pattern)},
        ],
        "bodies": [{"id": "slider", "waypoints": [[0.0, 2.5, -3.0, 1.5, 0.0],
                                                  [2.0, 2.5, 5.0, 1.5, 0.0]]},
                   {"id": "sign", "waypoints": [[0.0, 3.0, 3.5, 0.6, 0.0],
                                                [2.0, 5.0, 3.5, 0.6, 0.0]]}],
    }
    if rx_on_cart:
        doc["transceivers"][1] = {"id": "UE", "role": "UE", "body": "cart",
                                  "offset_position": [0.0, 0.0, 1.5],
                                  "offset_boresight": [-1.0, 0.5, 0.0], "pattern": dict(pattern)}
        doc["bodies"].append({"id": "cart", "waypoints": [[0.0, 10.0, 0.0, 0.0, 0.0],
                                                          [2.0, 9.0, 0.0, 0.0, 0.0]]})
    place = lambda p: np.add(p, shift).tolist()
    for f in doc["facets"]:
        if "body" not in f:
            f["vertices"] = [place(v) for v in f["vertices"]]
    for trx in doc["transceivers"]:
        if "position" in trx:
            trx["position"] = place(trx["position"])
    for body in doc["bodies"]:
        body["waypoints"] = [[w[0], *place(w[1:4]), *w[4:]] for w in body["waypoints"]]
    return doc


@pytest.fixture(scope="session")
def plates_episode() -> Episode:
    scene = scene_from_dict(plates_scene_doc())
    config = ChirpConfig(n_chirps_total=256)
    trace = TraceConfig(diffuse_enabled=False)
    return _run_episode(scene, config, trace, SensingLink("UE", "UE"), t0=0.0)


@pytest.fixture(scope="session")
def scenario_b_episode() -> Episode:
    scene = load_scene(FIXTURES / "scenario_b.json")
    config = ChirpConfig()
    trace = TraceConfig()
    return _run_episode(scene, config, trace, SensingLink("UE", "UE"),
                        t0=SCENARIO_B_T0)


@pytest.fixture(scope="session")
def scenario_c_episode() -> Episode:
    scene = load_scene(FIXTURES / "scenario_c.json")
    config = ChirpConfig()
    trace = TraceConfig(diffuse_samples_per_facet=8)
    return _run_episode(scene, config, trace, SensingLink("BS", "UE"),
                        t0=SCENARIO_C_T0)
