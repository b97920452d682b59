"""Trajectory interpolation and snapshot kinematics against finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from rftwin.kinematics import (
    TrajectoryRangeError,
    _Spline,
    build_trajectories,
    snapshot,
)
from rftwin.scene import MobileBody, Scene, scene_from_dict

PATTERN = {"peak_gain_dbi": 5.0, "hpbw_azimuth_deg": 90.0, "hpbw_elevation_deg": 60.0}


def trajectory(body):
    """The interpolant snapshot samples for this body."""
    return build_trajectories(Scene({}, [], {}, {body.id: body}))[body.id]


def fd_velocity(traj, t, h=1e-5):
    a = traj.sample(t - h).position
    b = traj.sample(t + h).position
    return (b - a) / (2.0 * h)


def test_linear_motion_is_exact():
    traj = trajectory(MobileBody("b", [0.0, 2.0], [[0.0, 1.0, 0.0], [4.0, 1.0, 2.0]]))
    mid = traj.sample(1.0)
    assert np.allclose(mid.position, [2.0, 1.0, 1.0], atol=1e-12)
    assert np.allclose(mid.velocity, [2.0, 0.0, 1.0], atol=1e-12)
    start = traj.sample(0.0)
    assert np.allclose(start.velocity, [2.0, 0.0, 1.0], atol=1e-12)


def test_derived_yaw_follows_heading():
    traj = trajectory(MobileBody("b", [0.0, 2.0], [[10.0, 5.0, 0.0], [6.0, 5.0, 0.0]]))
    pose = traj.sample(1.0)
    assert pose.yaw == pytest.approx(np.pi)        # moving along -x
    assert pose.yaw_rate == pytest.approx(0.0, abs=1e-12)
    traj = trajectory(MobileBody("b", [0.0, 2.0], [[0.0, 0.0, 0.0], [2.0, 2.0, 0.0]]))
    assert traj.sample(0.5).yaw == pytest.approx(np.pi / 4)


def test_spline_velocity_matches_finite_difference():
    rng = np.random.default_rng(12)
    times = np.array([0.0, 1.0, 2.5, 4.0, 5.0])
    waypoints = rng.normal(scale=5.0, size=(5, 3))
    traj = trajectory(MobileBody("b", times, waypoints))
    for t in (0.3, 1.7, 2.5, 3.9, 4.7):
        pose = traj.sample(t)
        assert np.allclose(pose.velocity, fd_velocity(traj, t), atol=1e-6)
    # interpolant passes through the waypoints
    for t, p in zip(times, waypoints):
        assert np.allclose(traj.sample(t).position, p, atol=1e-12)


def test_given_yaw_and_yaw_rate_fd():
    times = [0.0, 1.0, 2.0, 3.0]
    pos = [[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]]
    yaws = [0.0, 0.4, 0.9, 1.0]
    traj = trajectory(MobileBody("b", times, pos, yaws))
    for t in (0.5, 1.5, 2.5):
        pose = traj.sample(t)
        h = 1e-5
        rate_fd = (traj.sample(t + h).yaw - traj.sample(t - h).yaw) / (2 * h)
        assert pose.yaw_rate == pytest.approx(rate_fd, abs=1e-6)


def test_yaw_unwrap_across_pi():
    # +170 deg to -170 deg should take the short way through 180
    y0, y1 = np.radians(170.0), np.radians(-170.0)
    traj = trajectory(MobileBody("b", [0.0, 1.0], [[0, 0, 0], [1, 0, 0]], [y0, y1]))
    mid = traj.sample(0.5).yaw
    assert mid == pytest.approx(np.pi, abs=1e-9)


def test_derived_yaw_rate_matches_curvature():
    # quarter-turn style arc sampled from a circle of radius 5 at 1 rad/s
    ts = np.linspace(0.0, 1.0, 9)
    pos = np.stack([5.0 * np.cos(ts), 5.0 * np.sin(ts), np.zeros_like(ts)], axis=1)
    traj = trajectory(MobileBody("b", ts, pos))
    pose = traj.sample(0.5)
    # heading of circular motion advances at the angular rate of the circle
    # (loose: a natural spline through 9 samples bends slightly at the ends)
    assert pose.yaw_rate == pytest.approx(1.0, rel=2e-2)
    h = 1e-5
    rate_fd = (traj.sample(0.5 + h).yaw - traj.sample(0.5 - h).yaw) / (2 * h)
    assert pose.yaw_rate == pytest.approx(rate_fd, abs=1e-5)


def test_no_extrapolation():
    traj = trajectory(MobileBody("b", [0.0, 1.0], [[0, 0, 0], [1, 0, 0]]))
    with pytest.raises(TrajectoryRangeError):
        traj.sample(-0.5)
    with pytest.raises(TrajectoryRangeError):
        traj.sample(1.5)
    # endpoints themselves are valid
    traj.sample(0.0)
    traj.sample(1.0)


def moving_scene_doc():
    return {
        "materials": [{"preset": "metal"}],
        "facets": [
            {"vertices": [[2.0, -0.5, 0.0], [2.0, 0.5, 0.0], [2.0, 0.5, 1.0],
                          [2.0, -0.5, 1.0]], "material": "metal", "body": "rig"},
            {"vertices": [[8.0, -1.0, 0.0], [8.0, -1.0, 2.0], [8.0, 1.0, 2.0],
                          [8.0, 1.0, 0.0]], "material": "metal"},
        ],
        "transceivers": [
            {"id": "BS", "role": "BS", "position": [0.0, 0.0, 1.0],
             "boresight": [1.0, 0.0, 0.0], "pattern": dict(PATTERN)},
            {"id": "UE", "role": "UE", "body": "rig",
             "offset_position": [0.5, 0.0, 1.0], "offset_boresight": [0.0, 1.0, 0.0],
             "pattern": dict(PATTERN)},
        ],
        "bodies": [
            {"id": "rig", "waypoints": [[0.0, 0.0, 0.0, 0.0, 0.0],
                                        [1.0, 1.0, 0.5, 0.0, 0.6],
                                        [2.0, 2.0, 2.0, 0.0, 1.2]]},
        ],
    }


def test_snapshot_poses_body_facets_rigidly():
    scene = scene_from_dict(moving_scene_doc())
    snap = snapshot(scene, 1.0)
    moved = snap.pack.verts[0, :len(scene.facets[0].vertices)]
    pose = snap.body_poses["rig"]
    expected = pose.position + scene.facets[0].vertices @ pose.rotation.T
    assert np.allclose(moved, expected, atol=1e-12)
    # rigid: area and edge lengths preserved
    assert np.linalg.norm(moved[1] - moved[0]) == pytest.approx(1.0)
    static = snap.pack.verts[1, :len(scene.facets[1].vertices)]
    assert np.allclose(static, scene.facets[1].vertices)


def test_mounted_transceiver_pose_and_velocity():
    scene = scene_from_dict(moving_scene_doc())
    snap = snapshot(scene, 1.0)
    ue = snap.transceiver_state("UE")
    pose = snap.body_poses["rig"]
    assert np.allclose(ue.position, pose.position + pose.rotation @ [0.5, 0.0, 1.0])
    assert np.allclose(ue.boresight, pose.rotation @ [0.0, 1.0, 0.0])
    # velocity includes the omega x r lever-arm term; verify with central FD
    h = 1e-5
    traj = build_trajectories(scene)
    p_plus = snapshot(scene, 1.0 + h, traj).transceiver_state("UE").position
    p_minus = snapshot(scene, 1.0 - h, traj).transceiver_state("UE").position
    assert np.allclose(ue.velocity, (p_plus - p_minus) / (2 * h), atol=1e-6)
    bs = snap.transceiver_state("BS")
    assert np.allclose(bs.velocity, 0.0)


def test_point_velocity_matches_fd_of_posed_point():
    scene = scene_from_dict(moving_scene_doc())
    traj = build_trajectories(scene)
    t, h = 0.8, 1e-5
    snap = snapshot(scene, t, traj)
    corner_local = scene.facets[0].vertices[2]

    def world_corner(tt):
        pose = snap.body_poses["rig"] if tt == t else None
        s = snapshot(scene, tt, traj)
        p = s.body_poses["rig"]
        return p.position + p.rotation @ corner_local

    v_fd = (world_corner(t + h) - world_corner(t - h)) / (2 * h)
    corner_world = world_corner(t)
    assert np.allclose(snap.body_point_velocity("rig", corner_world), v_fd, atol=1e-6)
    # the same field evaluated on a stack of points
    stacked = snap.body_point_velocity("rig", np.stack([corner_world] * 2))
    assert np.allclose(stacked, v_fd, atol=1e-6)


def test_trajectories_reused_across_snapshots():
    scene = scene_from_dict(moving_scene_doc())
    traj = build_trajectories(scene)
    a = snapshot(scene, 0.5, traj)
    b = snapshot(scene, 0.5)
    assert np.allclose(a.pack.verts[0], b.pack.verts[0])
    assert a.t == b.t == 0.5


def knots(min_size, max_size):
    """Strictly increasing knot times and (n, 2) values for the spline oracles."""
    gaps = st.lists(st.floats(0.05, 5.0), min_size=min_size - 1, max_size=max_size - 1)
    value = st.floats(-100.0, 100.0)
    return st.tuples(st.floats(-10.0, 10.0), gaps).flatmap(
        lambda g: st.tuples(
            st.just(np.cumsum([g[0], *g[1]])),
            st.lists(st.tuples(value, value), min_size=len(g[1]) + 1,
                     max_size=len(g[1]) + 1).map(np.array),
            st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8)))


def sample_both(spline, reference, times, fractions):
    """(ours, scipy's) value, first and second derivative at the fractions of
    the span, the knots, and 1e-12 beyond either end."""
    ts = [times[0] + f * (times[-1] - times[0]) for f in fractions]
    ts += [*times.tolist(), times[0] - 1e-12, times[-1] + 1e-12]
    ours = np.array([spline(t) for t in ts])                     # (t, 3, m)
    theirs = np.stack([reference(ts, nu) for nu in range(3)], axis=1)
    return ours, theirs


@settings(max_examples=150, deadline=None)
@given(knots(2, 2))
def test_two_knot_spline_is_scipys_clamped_spline_bit_for_bit(case):
    times, values, fractions = case
    slope = (values[1] - values[0]) / (times[1] - times[0])
    reference = CubicSpline(times, values, bc_type=((1, slope), (1, slope)))
    ours, theirs = sample_both(_Spline(times, values), reference, times, fractions)
    assert ours.tobytes() == theirs.tobytes()


@settings(max_examples=150, deadline=None)
@given(knots(3, 8))
def test_natural_spline_matches_scipy(case):
    times, values, fractions = case
    reference = CubicSpline(times, values, bc_type="natural")
    ours, theirs = sample_both(_Spline(times, values), reference, times, fractions)
    for nu in range(3):
        scale = np.abs(theirs[:, nu]).max()
        np.testing.assert_allclose(ours[:, nu], theirs[:, nu], rtol=1e-9, atol=1e-9 * scale)
