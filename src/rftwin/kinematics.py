"""Rigid-body kinematics: waypoint interpolation and per-epoch world snapshots.

Trajectories are interpolated with a cubic spline per coordinate, so
position is C2 and velocity is the exact analytic derivative of the
interpolant.  The end conditions are natural (zero second derivative at the
first and last waypoint) from three waypoints up; with two waypoints the
first derivative at both ends is the chord slope, so the body moves in a
straight line at constant velocity.  Yaw, unwrapped, is interpolated the
same way when the waypoints give it; otherwise it comes from the velocity
heading.  No extrapolation: asking for a time outside a body's waypoint span
is an error.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

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


class _Spline:
    """Cubic spline through (times, values) with values of shape (n, m),
    with the end conditions of the module docstring.

    The knot slopes solve the tridiagonal system of scipy's CubicSpline, and
    each interval holds Hermite power-form coefficients summed in the order
    scipy's PPoly sums them, so with two knots the bits are scipy's.
    """

    def __init__(self, times, values):
        x = np.asarray(times, dtype=float)
        y = np.asarray(values, dtype=float)
        dx = np.diff(x)[:, None]
        slope = np.diff(y, axis=0) / dx
        s = np.vstack([slope, slope]) if len(x) == 2 else _natural_slopes(dx, y, slope)
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        c3, c2 = t / dx, (slope - s[:-1]) / dx - t
        c1, c0, zero = s[:-1], y[:-1], np.zeros_like(c3)
        # Per interval, terms of 0 + sum_k c_k u^k for value, first and
        # second derivative side by side; the derivative coefficients are
        # PPoly.derivative's products.
        d1 = (c1, 2.0 * c2, 3.0 * c3)
        self._coef = np.stack([np.hstack(row) for row in (
            (zero, zero, zero), (c0, d1[0], d1[1]), (c1, d1[1], 2.0 * d1[2]),
            (c2, d1[2], zero), (c3, zero, zero))], axis=1)
        self._knots = x.tolist()

    def __call__(self, t: float) -> np.ndarray:
        """(3, m) rows: value, first and second derivative at t; beyond the
        knots the end polynomials extend."""
        i = min(max(bisect_right(self._knots, t) - 1, 0), len(self._knots) - 2)
        u = t - self._knots[i]
        u2 = u * u
        powers = np.array([1.0, 1.0, u, u2, u2 * u])[:, None]
        return (self._coef[i] * powers).sum(axis=0).reshape(3, -1)


def _natural_slopes(dx, y, slope):
    """Knot slopes of the natural spline: tridiagonal elimination without
    pivoting, which the diagonal dominance of the system allows."""
    n = len(y)
    lower = np.r_[dx[1:, 0], dx[-1, 0]]             # row i + 1, column i
    diag = 2.0 * np.r_[dx[0, 0], dx[:-1, 0] + dx[1:, 0], dx[-1, 0]]
    upper = np.r_[dx[0, 0], dx[:-1, 0]]             # row i, column i + 1
    rhs = np.empty_like(y)
    rhs[0], rhs[-1] = 3.0 * (y[1] - y[0]), 3.0 * (y[-1] - y[-2])
    rhs[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    for i in range(1, n):
        f = lower[i - 1] / diag[i - 1]
        diag[i] -= f * upper[i - 1]
        rhs[i] -= f * rhs[i - 1]
    s = np.empty_like(y)
    s[-1] = rhs[-1] / diag[-1]
    for i in range(n - 2, -1, -1):
        s[i] = (rhs[i] - upper[i] * s[i + 1]) / diag[i]
    return s


class _Trajectory:
    """Callable interpolant for one body, built once and evaluated per epoch:
    one spline over the position columns and, when given, the unwrapped yaw."""

    def __init__(self, times, positions, yaws=None):
        self.t0, self.t1 = float(times[0]), float(times[-1])
        self._has_yaw = yaws is not None
        values = np.asarray(positions, dtype=float)
        if self._has_yaw:
            values = np.column_stack([values, np.unwrap(np.asarray(yaws, dtype=float))])
        self._spline = _Spline(times, values)

    def sample(self, t: float) -> PoseSample:
        if not (self.t0 - 1e-12 <= t <= self.t1 + 1e-12):
            raise TrajectoryRangeError(
                f"t={t} outside trajectory span [{self.t0}, {self.t1}]")
        (pos, vel, acc) = self._spline(t)
        if self._has_yaw:
            yaw, rate = float(pos[3]), float(vel[3])
        else:
            yaw, rate = _heading(vel, acc)
        return PoseSample(float(t), pos[:3], vel[:3], yaw, rate)


def _heading(vel, acc):
    vx, vy = float(vel[0]), float(vel[1])
    speed_sq = vx * vx + vy * vy
    if speed_sq < 1e-18:
        return 0.0, 0.0
    rate = (vx * float(acc[1]) - vy * float(acc[0])) / speed_sq
    return float(np.arctan2(vy, vx)), rate


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
