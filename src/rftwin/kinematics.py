"""Rigid-body kinematics: waypoint interpolation and per-epoch world snapshots.

Trajectories are interpolated with a natural cubic spline per coordinate
(linear when only two waypoints exist), so position is C2 and velocity is the
exact analytic derivative of the interpolant.  Yaw comes from the waypoints
when given, otherwise from the velocity heading.  No extrapolation: asking
for a time outside a body's waypoint span is an error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .geometry import FacetPack, cross, facet_normal, yaw_matrix
from .scene import Facet, Scene, Transceiver


class TrajectoryRangeError(ValueError):
    """Requested time lies outside a body's waypoint span."""


@dataclass(frozen=True)
class PoseSample:
    """Body state at one instant: planar yaw attitude plus full 3D velocity."""

    t: float
    position: np.ndarray
    velocity: np.ndarray
    yaw: float
    yaw_rate: float

    @property
    def rotation(self) -> np.ndarray:
        return yaw_matrix(self.yaw)


class _Trajectory:
    """Callable interpolant for one body, built once and evaluated per epoch."""

    def __init__(self, times, positions, yaws=None):
        self.t0, self.t1 = float(times[0]), float(times[-1])
        if len(times) == 2:
            self._pos = CubicSpline(times, positions, axis=0, bc_type=((1, _lin_v(times, positions)),) * 2)
        else:
            self._pos = CubicSpline(times, positions, axis=0, bc_type="natural")
        self._vel = self._pos.derivative()
        self._acc = self._vel.derivative()
        if yaws is not None:
            y = np.unwrap(np.asarray(yaws, dtype=float))
            if len(times) == 2:
                self._yaw = CubicSpline(times, y, bc_type=((1, _lin_v(times, y)),) * 2)
            else:
                self._yaw = CubicSpline(times, y, bc_type="natural")
            self._yaw_rate = self._yaw.derivative()
        else:
            self._yaw = None

    def sample(self, t: float) -> PoseSample:
        if not (self.t0 - 1e-12 <= t <= self.t1 + 1e-12):
            raise TrajectoryRangeError(
                f"t={t} outside trajectory span [{self.t0}, {self.t1}]")
        pos = self._pos(t)
        vel = self._vel(t)
        if self._yaw is not None:
            yaw, rate = float(self._yaw(t)), float(self._yaw_rate(t))
        else:
            yaw, rate = self._heading(t, vel)
        return PoseSample(float(t), np.asarray(pos, dtype=float),
                          np.asarray(vel, dtype=float), yaw, rate)

    def _heading(self, t, vel):
        vx, vy = float(vel[0]), float(vel[1])
        speed_sq = vx * vx + vy * vy
        if speed_sq < 1e-18:
            return 0.0, 0.0
        acc = self._acc(t)
        rate = (vx * float(acc[1]) - vy * float(acc[0])) / speed_sq
        return float(np.arctan2(vy, vx)), rate


def _lin_v(times, values):
    v = (np.asarray(values[-1], dtype=float) - np.asarray(values[0], dtype=float))
    return v / (float(times[-1]) - float(times[0]))


def interpolate(body, t: float) -> PoseSample:
    """Pose of one mobile body at time t (see MobileBody for waypoint rules)."""
    return _Trajectory(body.times, body.positions, body.yaws).sample(t)


@dataclass(frozen=True)
class TransceiverState:
    position: np.ndarray
    boresight: np.ndarray
    velocity: np.ndarray


@dataclass
class SnapshotFacet:
    """World-frame facet at the snapshot instant, keyed by its scene index.
    Rigid motion keeps the area of the scene facet."""

    index: int
    vertices: np.ndarray
    normal: np.ndarray
    area: float
    material_id: str
    body_id: str | None


class WorldSnapshot:
    """Frozen world at one instant: posed facets, a velocity field, radio poses.

    Velocities follow the rigid field v + omega x r of the owning body, with
    omega = yaw_rate * z.  Static facets and fixed transceivers have zero
    velocity.  The transforms are rigid, so facet shape is preserved.
    """

    def __init__(self, t: float, facets, body_poses, transceiver_states):
        self.t = float(t)
        self.facets: list[SnapshotFacet] = facets
        self.body_poses: dict[str, PoseSample] = body_poses
        self.transceiver_states: dict[str, TransceiverState] = transceiver_states
        self.pack = FacetPack([f.vertices for f in facets], [f.normal for f in facets])

    def body_point_velocity(self, body_id: str, point: np.ndarray) -> np.ndarray:
        """Rigid-field velocity of the body at point, or at each row of an
        (..., 3) array of points."""
        pose = self.body_poses[body_id]
        r = np.asarray(point) - pose.position
        return pose.velocity + cross((0.0, 0.0, pose.yaw_rate), r)

    def transceiver_state(self, tid: str) -> TransceiverState:
        return self.transceiver_states[tid]


def _pose_transceiver(trx: Transceiver, body_poses) -> TransceiverState:
    if trx.is_fixed:
        return TransceiverState(np.asarray(trx.position, dtype=float),
                                np.asarray(trx.boresight, dtype=float),
                                np.zeros(3))
    pose = body_poses[trx.body_id]
    rot = pose.rotation
    offset = rot @ np.asarray(trx.offset_position, dtype=float)
    position = pose.position + offset
    boresight = rot @ np.asarray(trx.offset_boresight, dtype=float)
    velocity = pose.velocity + cross((0.0, 0.0, pose.yaw_rate), offset)
    return TransceiverState(position, boresight, velocity)


def snapshot(scene: Scene, t: float,
             trajectories: dict | None = None) -> WorldSnapshot:
    """Build the world at time t.

    trajectories may carry prebuilt interpolants (from build_trajectories) to
    avoid refitting splines when sampling many epochs.
    """
    if trajectories is None:
        trajectories = build_trajectories(scene)
    body_poses = {bid: traj.sample(t) for bid, traj in trajectories.items()}

    facets = []
    for f in scene.facets:
        if f.body_id is None:
            facets.append(SnapshotFacet(f.index, f.vertices, f.normal, f.area,
                                        f.material_id, None))
        else:
            pose = body_poses[f.body_id]
            verts = pose.position + f.vertices @ pose.rotation.T
            facets.append(SnapshotFacet(f.index, verts, facet_normal(verts), f.area,
                                        f.material_id, f.body_id))

    states = {tid: _pose_transceiver(trx, body_poses)
              for tid, trx in scene.transceivers.items()}
    return WorldSnapshot(t, facets, body_poses, states)


def build_trajectories(scene: Scene) -> dict[str, _Trajectory]:
    return {bid: _Trajectory(b.times, b.positions, b.yaws)
            for bid, b in scene.bodies.items()}
