"""Scene schema: materials, patterns, facet validation, JSON round-trip."""

import contextlib
import io
import json
import tempfile
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rftwin.em import antenna_angles, specular_reduction
from rftwin.geometry import unit
from rftwin.scene import (
    AntennaPattern,
    Material,
    SceneError,
    Transceiver,
    load_scene,
    material_defaults,
    scene_from_dict,
)

PATTERN = {"peak_gain_dbi": 5.0, "hpbw_azimuth_deg": 90.0, "hpbw_elevation_deg": 60.0}


def small_scene_doc():
    return {
        "name": "roundtrip",
        "materials": [{"preset": "metal"},
                      {"name": "custom", "rel_permittivity": 4.0, "conductivity": 0.1,
                       "scattering_coeff": 0.5, "lobe_exponent": 3}],
        "facets": [
            {"vertices": [[5.0, -1.0, 0.0], [5.0, -1.0, 2.0], [5.0, 1.0, 2.0],
                          [5.0, 1.0, 0.0]], "material": "custom"},
            {"vertices": [[0.5, -0.5, 0.0], [0.5, 0.5, 0.0], [0.5, 0.0, 1.0]],
             "material": "metal", "body": "cart"},
        ],
        "transceivers": [
            {"id": "BS", "role": "BS", "position": [0.0, 0.0, 3.0],
             "boresight": [1.0, 0.0, -0.3], "pattern": dict(PATTERN),
             "tx_power_dbm": 23.0, "noise_figure_db": 9.0},
            {"id": "UE", "role": "UE", "body": "cart",
             "offset_position": [0.1, 0.0, 0.5], "offset_boresight": [1.0, 0.0, 0.0],
             "pattern": dict(PATTERN)},
        ],
        "bodies": [
            {"id": "cart", "waypoints": [[0.0, 0.0, 0.0, 0.0, 0.2],
                                         [1.0, 1.0, 0.0, 0.0, 0.3],
                                         [2.0, 2.0, 1.0, 0.0, 0.4]]},
        ],
    }


def test_material_presets_conserve_power_and_values():
    presets = material_defaults()
    assert set(presets) == {"metal", "glass", "concrete", "brick"}
    for m in presets.values():
        assert specular_reduction(m.scattering_coeff) ** 2 + m.scattering_coeff ** 2 == \
            pytest.approx(1.0)
    assert presets["metal"].conductivity == 1.0e7
    assert presets["metal"].scattering_coeff == 0.05
    assert presets["concrete"].rel_permittivity == 5.24
    assert presets["brick"].lobe_exponent == 2
    # scattering rises and lobes widen from mirror-like to rough materials
    order = [presets[n] for n in ("metal", "glass", "concrete", "brick")]
    assert all(a.scattering_coeff < b.scattering_coeff for a, b in zip(order, order[1:]))
    assert all(a.lobe_exponent > b.lobe_exponent for a, b in zip(order, order[1:]))


@pytest.mark.parametrize("kwargs", [
    {"rel_permittivity": 0.5},
    {"conductivity": -1.0},
    {"scattering_coeff": 1.2},
    {"lobe_exponent": 0},
    {"lobe_exponent": 2.5},
])
def test_material_validation(kwargs):
    base = {"name": "bad", "rel_permittivity": 2.0, "conductivity": 0.0,
            "scattering_coeff": 0.3, "lobe_exponent": 4}
    base.update(kwargs)
    with pytest.raises(SceneError, match="bad"):
        Material(**base)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["rel_permittivity", "conductivity"])
def test_non_finite_material_constants_are_rejected(field, value, tmp_path, capsys):
    from conftest import FIXTURES
    from rftwin.cli import main

    doc = json.loads((FIXTURES / "scenario_b.json").read_text())
    concrete = asdict(material_defaults()["concrete"])
    concrete[field] = value
    doc["materials"] = [concrete if m == {"preset": "concrete"} else m
                        for m in doc["materials"]]
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SceneError, match=f"'concrete': {field} must be finite"):
        load_scene(path)
    assert main(["simulate", "--scene", str(path), "--tx", "UE", "--t0", "0.1",
                 "--chirps", "2", "-o", str(tmp_path)]) == 2
    assert f"{field} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "scene.cir").exists()


def _scene_b_with(tmp_path, mutate):
    from conftest import FIXTURES

    doc = json.loads((FIXTURES / "scenario_b.json").read_text())
    mutate({t["id"]: t for t in doc["transceivers"]})
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("trx,field,match", [
    ("UE", ("pattern", "peak_gain_dbi"), "peak_gain_dbi must be finite"),
    ("UE", ("pattern", "hpbw_azimuth_deg"), "beamwidths must be finite and positive"),
    ("UE", ("pattern", "hpbw_elevation_deg"), "beamwidths must be finite and positive"),
])
def test_non_finite_antenna_and_link_fields_are_rejected(trx, field, match, value, tmp_path,
                                                         capsys):
    from rftwin.cli import main

    def mutate(trxs):
        entry = trxs[trx]
        for key in field[:-1]:
            entry = entry[key]
        entry[field[-1]] = value
    path = _scene_b_with(tmp_path, mutate)
    with pytest.raises(SceneError, match=match):
        load_scene(path)
    assert main(["simulate", "--scene", str(path), "--tx", "UE", "--t0", "0.1",
                 "--chirps", "2", "-o", str(tmp_path)]) == 2
    assert match in capsys.readouterr().err
    assert not (tmp_path / "scene.cir").exists()


def test_transceiver_noise_keys_are_ignored(tmp_path):
    """tx_power_dbm and noise_figure_db are not scene fields (process --noise
    takes both from its flags): a scene carrying them, finite or not, loads
    as the same scene without them, and save writes neither."""
    keys = ("tx_power_dbm", "noise_figure_db")

    def strip(trxs):
        for entry in trxs.values():
            for key in keys:
                entry.pop(key, None)

    def poison(trxs):
        for entry in trxs.values():
            entry.update(tx_power_dbm=float("nan"), noise_figure_db=float("inf"))

    scenes = []
    for name, mutate in (("plain", strip), ("poisoned", poison)):
        (tmp_path / name).mkdir()
        scenes.append(load_scene(_scene_b_with(tmp_path / name, mutate)))
    assert scenes[0] == scenes[1]
    saved = tmp_path / "saved.json"
    scenes[1].save(saved)
    for entry in json.loads(saved.read_text())["transceivers"]:
        assert not set(keys) & set(entry), entry


@pytest.mark.parametrize("link", [["--tx", "UE"], ["--mode", "bi", "--tx", "UE", "--rx", "BS"]])
def test_zero_boresight_is_rejected(link, tmp_path, capsys):
    from rftwin.cli import main

    trx = link[-1]
    path = _scene_b_with(tmp_path, lambda trxs: trxs[trx].update(boresight=[0, 0, 0]))
    with pytest.raises(SceneError, match=f"'{trx}': boresight must have nonzero length"):
        load_scene(path)
    assert main(["simulate", "--scene", str(path), *link, "--t0", "0.1",
                 "--chirps", "2", "-o", str(tmp_path)]) == 2
    assert "boresight must have nonzero length" in capsys.readouterr().err
    doc = small_scene_doc()
    doc["transceivers"][1]["offset_boresight"] = [0.0, 0.0, 0.0]
    with pytest.raises(SceneError, match="'UE': offset_boresight must have nonzero length"):
        scene_from_dict(doc)


def _simulate_scene_b_with(path, mutate):
    """Exit code and stderr of a short simulate run on scenario_b edited by
    mutate, written to path."""
    from conftest import FIXTURES
    from rftwin.cli import main

    doc = json.loads((FIXTURES / "scenario_b.json").read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["simulate", "--scene", str(path), "--tx", "UE", "--t0", "0.1",
                     "--chirps", "4", "-o", str(path.parent)])
    return code, err.getvalue()


EXPLICIT_MATERIAL = {"name": "custom", "rel_permittivity": "a", "conductivity": 0.1,
                     "scattering_coeff": 0.5, "lobe_exponent": 3}


@pytest.mark.parametrize("mutate,match", [
    (lambda d: d.update(facets=5), "facets must be a list of objects"),
    (lambda d: d["facets"].__setitem__(2, 5), "facets must be a list of objects"),
    (lambda d: d["facets"][0].update(material=["concrete"]), "facet 0: material must be a string"),
    (lambda d: d["facets"][3].update(body=["car"]), "facet 3: body must be a string"),
    (lambda d: d["materials"].append(3), "materials must be a list of objects"),
    (lambda d: d.update(materials={"a": 1}), "materials must be a list of objects"),
    (lambda d: d["materials"].append(EXPLICIT_MATERIAL),
     "material 'custom': rel_permittivity must be a number"),
    (lambda d: d["bodies"].append(1), "bodies must be a list of objects"),
    (lambda d: d["transceivers"][0].update(id=["UE"]), "transceiver id must be a string"),
    (lambda d: d["transceivers"][0].update(position=[1, 2]), "'UE': position must be 3 numbers"),
])
def test_malformed_scene_json_is_an_input_error_naming_the_file(mutate, match, tmp_path):
    code, err = _simulate_scene_b_with(tmp_path / "scene.json", mutate)
    assert code == 2
    assert f"{tmp_path / 'scene.json'}: " in err and match in err
    assert not (tmp_path / "scene.cir").exists()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_value_of_another_json_type_never_is_an_internal_error(data):
    """Any one value of scenario_b, a leaf or a whole list or object, swapped
    for a value of another JSON type is rejected with exit code 2 or, where
    it is ignored, simulated: never an internal error (exit 4)."""
    from conftest import swap_json_value

    with tempfile.TemporaryDirectory() as tmp:
        code, err = _simulate_scene_b_with(Path(tmp) / "scene.json",
                                           lambda doc: swap_json_value(data.draw, doc))
    assert code in (0, 2), err


def test_pattern_gain_peak_halfpower_and_floor():
    p = AntennaPattern(**PATTERN)
    assert p.gain_db(0.0, 0.0) == pytest.approx(5.0)
    assert p.gain_db(45.0, 0.0) == pytest.approx(2.0)    # -3 dB at half the beamwidth
    assert p.gain_db(0.0, 30.0) == pytest.approx(2.0)
    assert p.gain_db(180.0, 90.0) == pytest.approx(5.0 - 30.0)   # relative floor
    grid = p.gain_db(np.array([0.0, 45.0, 90.0]), np.zeros(3))
    assert grid.shape == (3,)
    assert np.all(np.diff(grid) < 0.0)
    assert np.min(grid) >= 5.0 - 30.0


def test_pattern_rejects_nonpositive_beamwidths():
    with pytest.raises(SceneError):
        AntennaPattern(5.0, 0.0, 60.0)
    with pytest.raises(SceneError):
        AntennaPattern(5.0, 90.0, -10.0)


def test_boresight_angles_principal_directions():
    def angles(boresight, direction):
        return antenna_angles(boresight, unit(np.array(direction)))

    b = [1.0, 0.0, 0.0]
    assert angles(b, [1.0, 0.0, 0.0]) == pytest.approx((0.0, 0.0))
    az, el = angles(b, [0.0, 1.0, 0.0])
    assert (az, el) == pytest.approx((90.0, 0.0))
    az, el = angles(b, [0.0, 0.0, 1.0])
    assert el == pytest.approx(90.0)
    az, el = angles(b, [1.0, 0.0, 1.0])
    assert (az, el) == pytest.approx((0.0, 45.0))
    # vertical boresight falls back to a horizontal reference axis
    az, el = angles([0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    assert el == pytest.approx(90.0)
    # a stack of directions gives the same angles, row by row
    rows = np.array([unit(np.array(d)) for d in
                     ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0])])
    az, el = antenna_angles(b, rows)
    assert az == pytest.approx([0.0, 90.0, 0.0])
    assert el == pytest.approx([0.0, 0.0, 45.0])


def test_facet_validation_messages_name_the_facet():
    doc = small_scene_doc()
    doc["facets"][0]["vertices"][3][0] = 5.1   # bend one corner off-plane
    with pytest.raises(SceneError, match="facet 0"):
        scene_from_dict(doc)

    doc = small_scene_doc()
    doc["facets"][0]["vertices"] = [[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]]
    with pytest.raises(SceneError, match="facet 0"):
        scene_from_dict(doc)

    doc = small_scene_doc()
    doc["facets"][1]["vertices"] = [[0, 0, 0], [2, 0, 0], [1, 0.2, 0], [2, 1, 0],
                                    ][:3] + [[0.9, 0.1, 0]]
    with pytest.raises(SceneError, match="facet 1"):
        scene_from_dict(doc)


def test_facet_normal_area_from_scene():
    scene = scene_from_dict(small_scene_doc())
    wall = scene.facets[0]
    assert np.allclose(wall.normal, [-1.0, 0.0, 0.0])
    assert wall.area == pytest.approx(4.0)
    tri = scene.facets[1]
    assert tri.area == pytest.approx(0.5)
    assert scene.materials[wall.material_id].name == "custom"


def test_body_waypoint_validation():
    doc = small_scene_doc()
    doc["bodies"][0]["waypoints"] = [[0.0, 0.0, 0.0, 0.0]]
    with pytest.raises(SceneError, match="cart"):
        scene_from_dict(doc)

    doc = small_scene_doc()
    doc["bodies"][0]["waypoints"] = [[0.0, 0, 0, 0], [0.0, 1, 0, 0]]
    with pytest.raises(SceneError, match="strictly increase"):
        scene_from_dict(doc)

    doc = small_scene_doc()
    doc["bodies"][0]["waypoints"] = [[0.0, 0, 0], [1.0, 1, 0]]
    with pytest.raises(SceneError, match=r"\[t,x,y,z\]"):
        scene_from_dict(doc)


@pytest.mark.parametrize("mutate,match", [
    (lambda d: d["facets"][0].update(material="nope"), "unknown material"),
    (lambda d: d["facets"][1].update(body="ghost"), "unknown body"),
    (lambda d: d["materials"].append({"preset": "plutonium"}), "unknown material preset"),
    (lambda d: d["materials"].append({"preset": "metal"}), "duplicate material"),
    (lambda d: d["transceivers"].append(dict(d["transceivers"][0])), "duplicate transceiver"),
    (lambda d: d["bodies"].append(dict(d["bodies"][0])), "duplicate body"),
    (lambda d: d.update(transceivers=[]), "no transceivers"),
    (lambda d: d["transceivers"][1].update(body="ghost"), "unknown body"),
    (lambda d: d["facets"][0].pop("material"), "missing material"),
])
def test_reference_validation(mutate, match):
    doc = small_scene_doc()
    mutate(doc)
    with pytest.raises(SceneError, match=match):
        scene_from_dict(doc)


@pytest.mark.parametrize("mutate,match", [
    (lambda d: d["facets"][0]["vertices"][1].__setitem__(2, float("nan")), "facet 0"),
    (lambda d: d["facets"][1]["vertices"][0].__setitem__(0, float("inf")), "facet 1"),
    (lambda d: d["bodies"][0]["waypoints"][1].__setitem__(2, float("nan")), "waypoint positions"),
    (lambda d: d["bodies"][0]["waypoints"][2].__setitem__(0, float("inf")), "waypoint times"),
    (lambda d: d["bodies"][0]["waypoints"][0].__setitem__(4, float("nan")), "waypoint yaws"),
    (lambda d: d["transceivers"][0]["position"].__setitem__(0, float("nan")), "position"),
    (lambda d: d["transceivers"][0]["boresight"].__setitem__(1, float("-inf")), "boresight"),
    (lambda d: d["transceivers"][1]["offset_position"].__setitem__(2, float("nan")),
     "offset_position"),
    (lambda d: d["transceivers"][1]["offset_boresight"].__setitem__(0, float("nan")),
     "offset_boresight"),
])
def test_non_finite_numbers_are_rejected(mutate, match, tmp_path):
    doc = small_scene_doc()
    mutate(doc)
    with pytest.raises(SceneError, match=match):
        scene_from_dict(doc)
    # the JSON NaN / Infinity literals take the same route through load_scene
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SceneError, match="finite"):
        load_scene(path)


def test_transceiver_needs_exactly_one_mount():
    with pytest.raises(SceneError, match="exactly one"):
        Transceiver("X", "UE", AntennaPattern(**PATTERN),
                    position=(0, 0, 0), boresight=(1, 0, 0),
                    body_id="cart", offset_position=(0, 0, 0),
                    offset_boresight=(1, 0, 0))
    with pytest.raises(SceneError, match="exactly one"):
        Transceiver("X", "UE", AntennaPattern(**PATTERN))
    with pytest.raises(SceneError, match="role"):
        Transceiver("X", "relay", AntennaPattern(**PATTERN),
                    position=(0, 0, 0), boresight=(1, 0, 0))


def test_scene_roundtrip_through_json(tmp_path):
    scene = scene_from_dict(small_scene_doc())
    path = tmp_path / "scene.json"
    scene.save(path)
    again = load_scene(path)
    assert again == scene
    assert again.name == "roundtrip"
    assert not again.transceivers["UE"].is_fixed
    assert again.bodies["cart"].yaws is not None


def test_scene_save_writes_material_and_pattern_fields_in_declaration_order(tmp_path):
    """Materials and antenna patterns are saved as their dataclass fields,
    every field in declaration order."""
    scene = scene_from_dict(small_scene_doc())
    path = tmp_path / "scene.json"
    scene.save(path)
    doc = json.loads(path.read_text())
    material_keys = [f.name for f in fields(Material)]
    assert doc["materials"] and all(list(m) == material_keys for m in doc["materials"])
    pattern_keys = [f.name for f in fields(AntennaPattern)]
    assert doc["transceivers"]
    assert all(list(t["pattern"]) == pattern_keys for t in doc["transceivers"])


def test_scene_t_span():
    scene = scene_from_dict(small_scene_doc())
    assert scene.t_span == (0.0, 2.0)
    doc = small_scene_doc()
    doc["facets"] = doc["facets"][:1]
    doc["transceivers"] = doc["transceivers"][:1]
    doc["bodies"] = []
    assert scene_from_dict(doc).t_span is None


def test_unknown_transceiver_lookup():
    scene = scene_from_dict(small_scene_doc())
    with pytest.raises(SceneError, match="unknown transceiver"):
        scene.transceiver("XX")


def test_load_scene_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(SceneError, match="nope.json"):
        load_scene(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SceneError, match="invalid JSON"):
        load_scene(bad)


def test_repo_fixture_scenes_load():
    from conftest import FIXTURES
    for name in ("scenario_b.json", "scenario_c.json"):
        scene = load_scene(FIXTURES / name)
        assert scene.facets and scene.transceivers
