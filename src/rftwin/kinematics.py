"""Rigid-body kinematics: waypoint interpolation and world snapshots.

Trajectories are interpolated with a cubic spline per coordinate, so
position is C2 and velocity is the exact analytic derivative of the
interpolant.  The end conditions are natural (zero second derivative at the
first and last waypoint) from three waypoints up; with two waypoints the
first derivative at both ends is the chord slope, so the body moves in a
straight line at constant velocity.  Yaw, unwrapped, is interpolated the
same way when the waypoints give it; otherwise it comes from the velocity
heading.  No extrapolation: asking for a time outside a body's waypoint span
is an error.

snapshots() poses the world at many epochs at once: one spline evaluation
per body over the epoch array, and posed facets, their pack and the
transceiver states as arrays with a leading epoch axis.  That SnapshotBlock
is the one form of the world; snapshot() is the block of one epoch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import FacetPack, cross, facet_normal, pad_quad, yaw_matrix
from .scene import Scene


class TrajectoryRangeError(ValueError):
    """Requested time lies outside a body's waypoint span."""


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
        self._knots = x

    def __call__(self, t) -> np.ndarray:
        """Rows of value, first and second derivative: (3, m) at a scalar t,
        (n, 3, m) at n times; beyond the knots the end polynomials extend."""
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(self._knots, t, side="right") - 1,
                    0, len(self._knots) - 2)
        u = t - self._knots[i]
        u2 = u * u
        one = np.ones_like(u)
        powers = np.stack([one, one, u, u2, u2 * u], axis=-1)[..., None]
        return (self._coef[i] * powers).sum(axis=-2).reshape(t.shape + (3, -1))


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
    """Callable interpolant for one body, built once and evaluated per block
    of epochs: one spline over the position columns and, when given, the
    unwrapped yaw."""

    def __init__(self, times, positions, yaws=None):
        self.t0, self.t1 = float(times[0]), float(times[-1])
        self._has_yaw = yaws is not None
        values = np.asarray(positions, dtype=float)
        if self._has_yaw:
            values = np.column_stack([values, np.unwrap(np.asarray(yaws, dtype=float))])
        self._spline = _Spline(times, values)

    def poses(self, times) -> tuple[np.ndarray, ...]:
        """Position (n, 3), velocity (n, 3), yaw (n,) and yaw rate (n,) at
        each of n times."""
        times = np.asarray(times, dtype=float)
        outside = ~((self.t0 - 1e-12 <= times) & (times <= self.t1 + 1e-12))
        if outside.any():
            raise TrajectoryRangeError(
                f"t={times[outside][0]} outside trajectory span [{self.t0}, {self.t1}]")
        pos, vel, acc = np.moveaxis(self._spline(times), -2, 0)
        yaw, rate = (pos[:, 3], vel[:, 3]) if self._has_yaw else _heading(vel, acc)
        return pos[:, :3], vel[:, :3], yaw, rate


def _heading(vel, acc):
    """Yaw and yaw rate of the velocity heading; 0 for a body at rest."""
    vx, vy = vel[:, 0], vel[:, 1]
    speed_sq = vx * vx + vy * vy
    still = speed_sq < 1e-18
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = (vx * acc[:, 1] - vy * acc[:, 0]) / speed_sq
    return np.where(still, 0.0, np.arctan2(vy, vx)), np.where(still, 0.0, rate)


@dataclass(frozen=True)
class TransceiverState:
    """Position, boresight and velocity of a radio head; in a SnapshotBlock
    each is an (n, 3) array over the epochs."""

    position: np.ndarray
    boresight: np.ndarray
    velocity: np.ndarray

    def __getitem__(self, k) -> TransceiverState:
        return TransceiverState(self.position[k], self.boresight[k], self.velocity[k])


class SnapshotBlock:
    """The world at n epochs, as arrays with a leading epoch axis.

    Body poses come from one spline evaluation per body over the epochs,
    facets are posed into one stacked FacetPack, and every transceiver's
    state is an (n, 3) TransceiverState.  Velocities follow the rigid field
    v + omega x r of the owning body, with omega = yaw_rate * z.  Static
    facets and fixed transceivers have zero velocity.
    """

    def __init__(self, scene: Scene, times, trajectories: dict):
        self.scene = scene
        self.t = np.asarray(times, dtype=float).reshape(-1)
        n = len(self.t)
        self.body_ids = list(trajectories)
        body = {b: j for j, b in enumerate(self.body_ids)}
        # Body pose arrays: (n, B, 3) position and velocity, (n, B) yaw and rate.
        if self.body_ids:
            columns = zip(*(trajectories[b].poses(self.t) for b in self.body_ids))
            (self.body_position, self.body_velocity, self.body_yaw,
             self.body_yaw_rate) = (np.stack(c, axis=1) for c in columns)
        else:
            self.body_position = self.body_velocity = np.zeros((n, 0, 3))
            self.body_yaw = self.body_yaw_rate = np.zeros((n, 0))
        rotation = yaw_matrix(self.body_yaw)                        # (n, B, 3, 3)
        # Scene facet -> owning body column, -1 for static facets and for the
        # -1 padding of path tables.
        self.facet_body = np.array([body.get(f.body_id, -1) for f in scene.facets] + [-1])

        verts = np.empty((n, len(scene.facets), 4, 3))
        normals = np.empty((n, len(scene.facets), 3))
        for i, f in enumerate(scene.facets):
            if f.body_id is None:
                verts[:, i], normals[:, i] = pad_quad(f.vertices), f.normal
            else:
                j = body[f.body_id]
                posed = (self.body_position[:, j, None]
                         + np.matmul(f.vertices, rotation[:, j].transpose(0, 2, 1)))
                verts[:, i], normals[:, i] = pad_quad(posed), facet_normal(posed)
        self.pack = FacetPack.stacked(verts, normals)

        self.states = {}
        for tid, trx in scene.transceivers.items():
            if trx.is_fixed:
                state = [np.repeat(np.asarray(v, dtype=float)[None], n, axis=0)
                         for v in (trx.position, trx.boresight, (0.0, 0.0, 0.0))]
            else:
                j = body[trx.body_id]
                rot = rotation[:, j]
                offset = np.matmul(rot, np.asarray(trx.offset_position, dtype=float))
                state = [self.body_position[:, j] + offset,
                         np.matmul(rot, np.asarray(trx.offset_boresight, dtype=float)),
                         self.body_velocity[:, j] + cross(self._omega(self.body_yaw_rate[:, j]),
                                                          offset)]
            self.states[tid] = TransceiverState(*state)

    def __len__(self) -> int:
        return len(self.t)

    def view(self, epochs: slice) -> SnapshotBlock:
        """The block of a slice of the epochs, as views on these arrays."""
        block = SnapshotBlock.__new__(SnapshotBlock)
        block.scene, block.body_ids, block.facet_body = self.scene, self.body_ids, self.facet_body
        for name in ("t", "body_position", "body_velocity", "body_yaw", "body_yaw_rate"):
            setattr(block, name, getattr(self, name)[epochs])
        block.pack = self.pack[epochs]
        block.states = {tid: state[epochs] for tid, state in self.states.items()}
        return block

    @staticmethod
    def _omega(yaw_rate):
        """Angular velocity vectors (..., 3) of yaw rates (...)."""
        zero = np.zeros_like(yaw_rate)
        return np.stack([zero, zero, yaw_rate], axis=-1)

    def point_velocity(self, epoch, body, points) -> np.ndarray:
        """Rigid-field velocity of body column body at epoch index epoch at
        points, element-wise over the leading axes of all three."""
        r = points - self.body_position[epoch, body]
        omega = self._omega(self.body_yaw_rate[epoch, body])
        return self.body_velocity[epoch, body] + cross(omega, r)

    def attach(self, paths, tx_id: str, rx_id: str):
        """Fill the snapshot columns of a path table whose frame column
        indexes this block's epochs, and return it.

        velocity (n, K+2, 3) follows points: the TX velocity up to the TX
        column, at each hit the rigid-body velocity of the touched facet
        (zero on static facets), the RX velocity last.  normals (n, K, 3)
        are the hit facets' normals, zero in the -1 padding.  tx_boresight
        and rx_boresight are the antenna boresights of each row's epoch.
        """
        k, facets = paths.frame, paths.facets
        tx, rx = self.states[tx_id], self.states[rx_id]
        paths.tx_boresight, paths.rx_boresight = tx.boresight[k], rx.boresight[k]
        normals = self.pack.normals
        normals = np.concatenate([normals, np.zeros((len(normals), 1, 3))], axis=1)
        paths.normals = normals[k[:, None], facets]

        vel = np.empty(paths.points.shape)
        vel[:, :-1] = tx.velocity[k][:, None]
        vel[:, -1] = rx.velocity[k]
        hit_vel = vel[:, 1:-1]
        hit_vel[facets >= 0] = 0.0
        owner = self.facet_body[facets]
        on = owner >= 0
        if on.any():
            hit_vel[on] = self.point_velocity(np.broadcast_to(k[:, None], on.shape)[on],
                                              owner[on], paths.points[:, 1:-1][on])
        paths.velocity = vel
        return paths


def snapshots(scene: Scene, times, trajectories: dict | None = None) -> SnapshotBlock:
    """The world at each of the times.

    trajectories may carry prebuilt interpolants (from build_trajectories) to
    avoid refitting splines for every block of epochs.
    """
    if trajectories is None:
        trajectories = build_trajectories(scene)
    return SnapshotBlock(scene, times, trajectories)


def snapshot(scene: Scene, t: float, trajectories: dict | None = None) -> SnapshotBlock:
    """The world at time t: the block of one epoch."""
    return snapshots(scene, [t], trajectories)


def build_trajectories(scene: Scene) -> dict[str, _Trajectory]:
    return {bid: _Trajectory(b.times, b.positions, b.yaws)
            for bid, b in scene.bodies.items()}
