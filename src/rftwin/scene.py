"""Scene description: facets, materials, antennas, transceivers, mobile bodies.

A scene is a JSON document with top-level keys ``units``, ``materials``,
``facets``, ``transceivers`` and ``bodies`` (see docs/scene-format.md).
All geometry is in meters, time in seconds, angles in radians unless a field
name says otherwise (antenna patterns use degrees, matching datasheets).

Facets are one-sided convex planar polygons (3 or 4 vertices) and interact
with rays only on the side their normal points to.  Facets owned by a mobile
body are given in the body frame and ride along with it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .geometry import (COPLANARITY_TOL, MIN_FACET_AREA, coplanarity_error,
                       facet_area, facet_normal, is_convex)


class SceneError(ValueError):
    """Scene file could not be parsed or failed validation."""


def _require_finite(values, what: str) -> None:
    if not np.all(np.isfinite(np.asarray(values, dtype=float))):
        raise SceneError(f"{what} must be finite numbers")


# JSON checks of scene_from_dict: a value of the wrong JSON type is a
# SceneError naming the field, not a TypeError from deeper down.
def _objects(doc: dict, key: str) -> list:
    """doc[key], a list of JSON objects; empty when absent."""
    value = doc.get(key, [])
    if not isinstance(value, list) or not all(isinstance(d, dict) for d in value):
        raise SceneError(f"{key} must be a list of objects")
    return value


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise SceneError(f"{what} must be a string, got {value!r}")
    return value


def _number(value, what: str, kind: str = "a number"):
    """value, a number; JSON true and false are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise SceneError(f"{what} must be {kind}, got {value!r}")
    return value


def _numbers(value, what: str):
    """value, a number, an array or nested lists of numbers in rows of equal
    length; one leaf of each type is checked."""
    for leaf in {type(v): v for v in np.asarray(value, dtype=object).flat}.values():
        _number(leaf, what, "numbers in rows of equal length")
    return value


# Relative gain floor of the parabolic-in-dB pattern model.
PATTERN_FLOOR_DB = 30.0


@dataclass(frozen=True)
class Material:
    """Surface material: dielectric constants plus the diffuse power split.

    Attributes
    ----------
    rel_permittivity : real part of the relative permittivity, finite, >= 1.
    conductivity : S/m, finite, >= 0.
    scattering_coeff : fraction of the reflected field fed into the diffuse
        lobe, in [0, 1].  The specular reduction follows from power
        conservation: reduction**2 + scattering_coeff**2 = 1.
    lobe_exponent : integer >= 1; larger values give a narrower diffuse lobe.
    """

    name: str
    rel_permittivity: float
    conductivity: float
    scattering_coeff: float
    lobe_exponent: int

    def __post_init__(self):
        if not 1.0 <= self.rel_permittivity < np.inf:
            raise SceneError(f"material '{self.name}': rel_permittivity must be finite and >= 1")
        if not 0.0 <= self.conductivity < np.inf:
            raise SceneError(f"material '{self.name}': conductivity must be finite and >= 0")
        if not 0.0 <= self.scattering_coeff <= 1.0:
            raise SceneError(f"material '{self.name}': scattering_coeff must be in [0, 1]")
        if int(self.lobe_exponent) != self.lobe_exponent or self.lobe_exponent < 1:
            raise SceneError(f"material '{self.name}': lobe_exponent must be an integer >= 1")


def material_defaults() -> dict[str, Material]:
    """Built-in material presets usable by name in scene files.

    Values are representative of common exterior materials around 79 GHz.
    Metal is almost purely specular; brick scatters more than glass.
    """
    presets = [
        Material("metal", 1.0, 1.0e7, 0.05, 32),
        Material("glass", 6.27, 0.79, 0.15, 16),
        Material("concrete", 5.24, 1.41, 0.35, 4),
        Material("brick", 3.91, 0.05, 0.45, 2),
    ]
    return {m.name: m for m in presets}


@dataclass(frozen=True)
class AntennaPattern:
    """Separable parabolic-in-dB pattern with a relative floor.

    gain_db(az, el) = peak - 3 [(az / (hpbw_az/2))^2 + (el / (hpbw_el/2))^2],
    never less than peak - 30 dB.  Angles in degrees; the -3 dB points sit at
    half the stated beamwidth off boresight in each principal plane.
    """

    peak_gain_dbi: float
    hpbw_azimuth_deg: float
    hpbw_elevation_deg: float

    def __post_init__(self):
        if not -np.inf < self.peak_gain_dbi < np.inf:
            raise SceneError("antenna peak_gain_dbi must be finite")
        if not (0.0 < self.hpbw_azimuth_deg < np.inf and 0.0 < self.hpbw_elevation_deg < np.inf):
            raise SceneError("antenna beamwidths must be finite and positive")

    def gain_db(self, az_deg, el_deg):
        az = np.asarray(az_deg, dtype=float)
        el = np.asarray(el_deg, dtype=float)
        roll_off = 3.0 * ((az / (0.5 * self.hpbw_azimuth_deg)) ** 2
                          + (el / (0.5 * self.hpbw_elevation_deg)) ** 2)
        out = self.peak_gain_dbi - np.minimum(roll_off, PATTERN_FLOOR_DB)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class Transceiver:
    """A radio head: BS or UE, with a pattern and exactly one mount.

    Either ``position``/``boresight`` are set (fixed mount) or ``body_id``
    with ``offset_position``/``offset_boresight`` (riding a mobile body,
    offsets in the body frame).
    """

    id: str
    role: str
    pattern: AntennaPattern
    position: tuple | None = None
    boresight: tuple | None = None
    body_id: str | None = None
    offset_position: tuple | None = None
    offset_boresight: tuple | None = None

    def __post_init__(self):
        if self.role not in ("BS", "UE"):
            raise SceneError(f"transceiver '{self.id}': role must be 'BS' or 'UE'")
        fixed = self.position is not None and self.boresight is not None
        mounted = (self.body_id is not None and self.offset_position is not None
                   and self.offset_boresight is not None)
        if fixed == mounted:
            raise SceneError(
                f"transceiver '{self.id}': exactly one of a fixed pose or a body mount must be set")
        for name in ("position", "boresight", "offset_position", "offset_boresight"):
            value = getattr(self, name)
            if value is not None:
                _require_finite(value, f"transceiver '{self.id}': {name}")
                v = np.asarray(value, dtype=float)
                if v.shape != (3,):
                    raise SceneError(f"transceiver '{self.id}': {name} must be 3 numbers")
                # geometry.unit's test: the squared length must not be 0
                if name.endswith("boresight") and not np.vecdot(v, v) > 0.0:
                    raise SceneError(f"transceiver '{self.id}': {name} must have nonzero length")

    @property
    def is_fixed(self) -> bool:
        return self.position is not None

    def to_dict(self) -> dict:
        out = {
            "id": self.id,
            "role": self.role,
            "pattern": asdict(self.pattern),
        }
        if self.is_fixed:
            out["position"] = list(self.position)
            out["boresight"] = list(self.boresight)
        else:
            out["body"] = self.body_id
            out["offset_position"] = list(self.offset_position)
            out["offset_boresight"] = list(self.offset_boresight)
        return out


@dataclass
class Facet:
    """One-sided convex planar polygon with a material, optionally on a body."""

    vertices: np.ndarray
    material_id: str
    body_id: str | None = None
    index: int = -1
    # Computed once from the vertices, which the checks also use; snapshots
    # read both for every facet at every epoch.
    normal: np.ndarray = field(init=False, repr=False, compare=False)
    area: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] not in (3, 4) or v.shape[1] != 3:
            raise SceneError(f"facet {self.index}: needs 3 or 4 xyz vertices")
        _require_finite(v, f"facet {self.index}: vertices")
        self.vertices = v
        self.area = facet_area(v)
        if self.area <= MIN_FACET_AREA:
            raise SceneError(f"facet {self.index}: degenerate area")
        try:
            self.normal = facet_normal(v)
        except ValueError:
            # collinear leading vertices leave the plane normal undefined
            raise SceneError(f"facet {self.index}: degenerate vertex layout") from None
        err = coplanarity_error(v, self.normal)
        if err > COPLANARITY_TOL:
            raise SceneError(f"facet {self.index}: vertices deviate {err:.2e} m from a plane")
        if not is_convex(v, self.normal):
            raise SceneError(f"facet {self.index}: polygon must be convex with consistent winding")

    def to_dict(self) -> dict:
        out = {"vertices": self.vertices.tolist(), "material": self.material_id}
        if self.body_id is not None:
            out["body"] = self.body_id
        return out


@dataclass
class MobileBody:
    """Rigid body following waypoints [t, x, y, z] or [t, x, y, z, yaw].

    Timestamps must be strictly increasing and there must be at least two
    waypoints.  When yaw is omitted it is derived from the velocity heading.
    """

    id: str
    times: np.ndarray
    positions: np.ndarray
    yaws: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        p = np.asarray(self.positions, dtype=float)
        if len(t) < 2:
            raise SceneError(f"body '{self.id}': needs at least two waypoints")
        _require_finite(t, f"body '{self.id}': waypoint times")
        _require_finite(p, f"body '{self.id}': waypoint positions")
        if self.yaws is not None:
            _require_finite(self.yaws, f"body '{self.id}': waypoint yaws")
        if np.any(np.diff(t) <= 0.0):
            raise SceneError(f"body '{self.id}': waypoint timestamps must strictly increase")
        if p.shape != (len(t), 3):
            raise SceneError(f"body '{self.id}': positions must be (n, 3)")
        self.times, self.positions = t, p
        if self.yaws is not None:
            y = np.asarray(self.yaws, dtype=float)
            if y.shape != t.shape:
                raise SceneError(f"body '{self.id}': yaw must be given at every waypoint or not at all")
            self.yaws = y

    @property
    def t_span(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])

    def to_dict(self) -> dict:
        if self.yaws is None:
            wp = [[t, *p] for t, p in zip(self.times, self.positions)]
        else:
            wp = [[t, *p, y] for t, p, y in zip(self.times, self.positions, self.yaws)]
        return {"id": self.id, "waypoints": wp}


@dataclass
class Scene:
    """Validated scene: materials by name, indexed facets, transceivers, bodies."""

    materials: dict[str, Material]
    facets: list[Facet]
    transceivers: dict[str, Transceiver]
    bodies: dict[str, MobileBody] = field(default_factory=dict)
    name: str = "scene"

    def transceiver(self, tid: str) -> Transceiver:
        try:
            return self.transceivers[tid]
        except KeyError:
            raise SceneError(f"unknown transceiver '{tid}'") from None

    @property
    def t_span(self) -> tuple[float, float] | None:
        """Time range covered by every body trajectory, None if all static."""
        if not self.bodies:
            return None
        spans = [b.t_span for b in self.bodies.values()]
        return max(s[0] for s in spans), min(s[1] for s in spans)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "units": "m,s,rad",
            "materials": [asdict(m) for m in self.materials.values()],
            "facets": [f.to_dict() for f in self.facets],
            "transceivers": [t.to_dict() for t in self.transceivers.values()],
            "bodies": [b.to_dict() for b in self.bodies.values()],
        }

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    def __eq__(self, other) -> bool:
        return isinstance(other, Scene) and self.to_dict() == other.to_dict()


def _material_from_dict(d: dict) -> Material:
    if "preset" in d:
        presets = material_defaults()
        name = _string(d["preset"], "material preset")
        if name not in presets:
            raise SceneError(f"unknown material preset '{name}'")
        base = presets[name]
        return Material(_string(d.get("name", name), "material name"), base.rel_permittivity,
                        base.conductivity, base.scattering_coeff, base.lobe_exponent)
    try:
        name = _string(d["name"], "material name")
        return Material(name, *(_number(d[key], f"material '{name}': {key}") for key in (
            "rel_permittivity", "conductivity", "scattering_coeff", "lobe_exponent")))
    except KeyError as e:
        raise SceneError(f"material entry missing field {e}") from None


def _transceiver_from_dict(d: dict) -> Transceiver:
    try:
        tid = _string(d["id"], "transceiver id")
        if not isinstance(d["pattern"], dict):
            raise SceneError(f"transceiver '{tid}': pattern must be an object")
        pattern = {key: _number(value, f"transceiver '{tid}': pattern {key}")
                   for key, value in d["pattern"].items()}
        fields = {}
        for key in ("position", "boresight", "offset_position", "offset_boresight"):
            if key in d:
                value = _numbers(d[key], f"transceiver '{tid}': {key}")
                fields[key] = tuple(value) if isinstance(value, list) else value
        if d.get("body") is not None:
            fields["body_id"] = _string(d["body"], f"transceiver '{tid}': body")
        return Transceiver(tid, d["role"], AntennaPattern(**pattern), **fields)
    except KeyError as e:
        raise SceneError(f"transceiver entry missing field {e}") from None
    except TypeError as e:
        raise SceneError(f"bad transceiver entry: {e}") from None


def _body_from_dict(d: dict) -> MobileBody:
    bid = _string(d.get("id"), "body id")
    wp = np.asarray(_numbers(d.get("waypoints"), f"body '{bid}': waypoints"), dtype=float)
    if wp.ndim != 2 or wp.shape[1] not in (4, 5):
        raise SceneError(f"body '{bid}': waypoints must be [t,x,y,z] or [t,x,y,z,yaw]")
    yaws = wp[:, 4] if wp.shape[1] == 5 else None
    return MobileBody(bid, wp[:, 0], wp[:, 1:4], yaws)


def scene_from_dict(doc: dict) -> Scene:
    if not isinstance(doc, dict):
        raise SceneError("scene document must be a JSON object")
    materials = {}
    for d in _objects(doc, "materials"):
        m = _material_from_dict(d)
        if m.name in materials:
            raise SceneError(f"duplicate material '{m.name}'")
        materials[m.name] = m

    bodies = {}
    for d in _objects(doc, "bodies"):
        b = _body_from_dict(d)
        if b.id in bodies:
            raise SceneError(f"duplicate body '{b.id}'")
        bodies[b.id] = b

    facets = []
    for i, d in enumerate(_objects(doc, "facets")):
        if "material" not in d:
            raise SceneError(f"facet {i}: missing material reference")
        body = d.get("body")
        f = Facet(np.asarray(_numbers(d.get("vertices"), f"facet {i}: vertices"), dtype=float),
                  _string(d["material"], f"facet {i}: material"),
                  None if body is None else _string(body, f"facet {i}: body"), index=i)
        if f.material_id not in materials:
            raise SceneError(f"facet {i}: unknown material '{f.material_id}'")
        if f.body_id is not None and f.body_id not in bodies:
            raise SceneError(f"facet {i}: unknown body '{f.body_id}'")
        facets.append(f)

    transceivers = {}
    for d in _objects(doc, "transceivers"):
        t = _transceiver_from_dict(d)
        if t.id in transceivers:
            raise SceneError(f"duplicate transceiver '{t.id}'")
        if t.body_id is not None and t.body_id not in bodies:
            raise SceneError(f"transceiver '{t.id}': unknown body '{t.body_id}'")
        transceivers[t.id] = t

    if not transceivers:
        raise SceneError("scene has no transceivers")
    return Scene(materials, facets, transceivers, bodies,
                 name=_string(doc.get("name", "scene"), "scene name"))


def load_scene(path) -> Scene:
    """Load and validate a scene JSON file."""
    p = Path(path)
    if not p.exists():
        raise SceneError(f"scene file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise SceneError(f"{p}: invalid JSON ({e})") from None
    return scene_from_dict(doc)
