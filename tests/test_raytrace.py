"""Ray tracer against brute-force minimization, image identities and FD Doppler."""

import functools
import itertools
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from rftwin import raytrace
from rftwin.channel import ChirpConfig, doppler_of
from rftwin.geometry import FacetPack, facet_area, facet_normal
from rftwin.kinematics import snapshot, snapshots
from rftwin.raytrace import (
    _FRONT_EPS,
    PathTable,
    TraceConfig,
    _table,
    build_sample_patterns,
    diffuse_sample_count,
    diffuse_sample_pattern,
    trace_diffuse,
    trace_los,
    trace_specular,
)
from rftwin.scene import load_scene, scene_from_dict

from conftest import FIXTURES, spin_rig_doc, static_crossing_doc, two_ray_doc

PATTERN = {"peak_gain_dbi": 5.0, "hpbw_azimuth_deg": 90.0, "hpbw_elevation_deg": 60.0}
F_C = 79e9
C = 3.0e8


def corridor_doc():
    """Two parallel walls for multi-bounce image identities."""
    return {
        "materials": [{"preset": "metal"}],
        "facets": [
            {"vertices": [[0.0, 0.0, 0.0], [0.0, 10.0, 0.0],
                          [0.0, 10.0, 3.0], [0.0, 0.0, 3.0]], "material": "metal"},
            {"vertices": [[5.0, 10.0, 0.0], [5.0, 0.0, 0.0],
                          [5.0, 0.0, 3.0], [5.0, 10.0, 3.0]], "material": "metal"},
        ],
        "transceivers": [
            {"id": "BS", "role": "BS", "position": [1.0, 2.0, 1.0],
             "boresight": [1.0, 1.0, 0.0], "pattern": dict(PATTERN)},
            {"id": "UE", "role": "UE", "position": [4.0, 8.0, 1.2],
             "boresight": [-1.0, -1.0, 0.0], "pattern": dict(PATTERN)},
        ],
    }


def total_length(points):
    return float(np.linalg.norm(np.diff(points, axis=0), axis=1).sum())


def lengths(paths):
    return paths.segment_lengths().sum(axis=1)


def by_facets(paths):
    """Row index per facet sequence."""
    return {facets: i for i, (_, facets, _) in enumerate(paths.keys())}


def path_points(paths, i):
    """TX, hits..., RX of row i, without the left padding."""
    return paths.points[i, paths.first()[i]:]


def test_ground_bounce_matches_brute_force_minimum():
    scene = scene_from_dict(two_ray_doc())
    snap = snapshot(scene, 0.0)
    paths = trace_specular(snap, "BS", "UE", TraceConfig(max_specular_order=1))
    assert len(paths) == 1
    bounce = path_points(paths, 0)
    length = lengths(paths)[0]

    tx = np.array([0.0, 0.0, 10.0])
    rx = np.array([30.0, 0.0, 1.5])

    def path_len(p2):
        p = np.array([p2[0], p2[1], 0.0])
        return np.linalg.norm(p - tx) + np.linalg.norm(rx - p)

    res = minimize(path_len, x0=[20.0, 1.0], method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-12})
    assert res.success
    assert np.allclose(bounce[1][:2], res.x, atol=1e-6)
    assert length == pytest.approx(res.fun, abs=1e-6)
    # closed form: image of the BS below the ground plane
    x_star = 30.0 * 10.0 / 11.5
    assert bounce[1] == pytest.approx([x_star, 0.0, 0.0], abs=1e-9)
    assert length == pytest.approx(np.hypot(30.0, 11.5), abs=1e-9)
    # mirror law at the bounce point
    k_in, k_out = (np.diff(bounce, axis=0).T / np.linalg.norm(np.diff(bounce, axis=0), axis=1)).T
    n = snap.pack.normals[0, 0]
    assert np.allclose(k_in - 2.0 * (k_in @ n) * n, k_out, atol=1e-12)


def test_double_bounce_length_equals_unfolded_image_distance():
    scene = scene_from_dict(corridor_doc())
    snap = snapshot(scene, 0.0)
    paths = trace_specular(snap, "BS", "UE", TraceConfig(max_specular_order=2))
    by_seq = by_facets(paths)
    assert set(by_seq) == {(0,), (1,), (0, 1), (1, 0)}
    length = lengths(paths)

    tx = np.array([1.0, 2.0, 1.0])
    rx = np.array([4.0, 8.0, 1.2])

    def mirror_x(p, plane_x):
        out = p.copy()
        out[0] = 2.0 * plane_x - p[0]
        return out

    left_right = np.linalg.norm(mirror_x(mirror_x(tx, 0.0), 5.0) - rx)
    right_left = np.linalg.norm(mirror_x(mirror_x(tx, 5.0), 0.0) - rx)
    assert length[by_seq[(0, 1)]] == pytest.approx(left_right, abs=1e-6)
    assert length[by_seq[(1, 0)]] == pytest.approx(right_left, abs=1e-6)
    # both bounce points on their walls, path length consistent with points
    p = path_points(paths, by_seq[(0, 1)])
    assert p[1][0] == pytest.approx(0.0, abs=1e-9)
    assert p[2][0] == pytest.approx(5.0, abs=1e-9)
    assert length[by_seq[(0, 1)]] == pytest.approx(total_length(p), abs=1e-12)


def test_triple_bounce_length_identity():
    scene = scene_from_dict(corridor_doc())
    snap = snapshot(scene, 0.0)
    paths = trace_specular(snap, "BS", "UE", TraceConfig(max_specular_order=3))
    by_seq = by_facets(paths)
    assert (0, 1, 0) in by_seq and (1, 0, 1) in by_seq

    tx = np.array([1.0, 2.0, 1.0])
    rx = np.array([4.0, 8.0, 1.2])
    img = tx.copy()
    for plane in (0.0, 5.0, 0.0):
        img[0] = 2.0 * plane - img[0]
    assert lengths(paths)[by_seq[(0, 1, 0)]] == pytest.approx(
        np.linalg.norm(img - rx), abs=1e-6)


def test_los_occlusion_toggle():
    doc = two_ray_doc()
    doc["facets"].append({"vertices": [[15.0, -1.0, 0.0], [15.0, -1.0, 12.0],
                                       [15.0, 1.0, 12.0], [15.0, 1.0, 0.0]],
                          "material": "concrete"})
    scene = scene_from_dict(doc)
    snap = snapshot(scene, 0.0)
    assert len(trace_los(snap, "BS", "UE")) == 0
    # the screen also shadows the ground bounce
    assert len(trace_specular(snap, "BS", "UE", TraceConfig(max_specular_order=1))) == 0

    doc["facets"][1]["vertices"] = [[15.0, 3.0, 0.0], [15.0, 3.0, 12.0],
                                    [15.0, 5.0, 12.0], [15.0, 5.0, 0.0]]
    snap = snapshot(scene_from_dict(doc), 0.0)
    los = trace_los(snap, "BS", "UE")
    assert len(los) == 1 and los.kind[0] == 0 and los.hops[0] == 0
    assert lengths(los)[0] == pytest.approx(np.hypot(30.0, 8.5), abs=1e-12)
    assert len(trace_specular(snap, "BS", "UE", TraceConfig(max_specular_order=1))) == 1


def test_colocated_pair_has_no_los():
    """No row at any epoch of a block, for a fixed pair and for scenario_c's
    body-mounted UE, which simulate_cir relies on for a mono link."""
    scene = scene_from_dict(two_ray_doc())
    assert len(trace_los(snapshot(scene, 0.0), "BS", "BS")) == 0
    assert len(trace_los(snapshots(scene, np.linspace(0.0, 1.0, 7)), "BS", "BS")) == 0
    moving = load_scene(FIXTURES / "scenario_c.json")
    block = snapshots(moving, np.linspace(*moving.t_span, 33))
    assert np.ptp(block.states["UE"].position, axis=0).max() > 1.0
    assert len(trace_los(block, "UE", "UE")) == 0
    assert len(trace_los(block, "BS", "UE")) > 0


def test_one_sided_facets_need_both_endpoints_in_front():
    doc = two_ray_doc()
    # flip the ground winding so its normal points down, away from the radios
    doc["facets"][0]["vertices"] = doc["facets"][0]["vertices"][::-1]
    scene = scene_from_dict(doc)
    snap = snapshot(scene, 0.0)
    assert len(trace_specular(snap, "BS", "UE", TraceConfig(max_specular_order=1))) == 0
    assert len(trace_diffuse(snap, "BS", "UE", TraceConfig(diffuse_samples_per_facet=4))) == 0


def test_reflection_foot_outside_facet_is_rejected():
    doc = two_ray_doc()
    # specular foot sits near x = 26.1; a patch ending at x = 20 misses it
    doc["facets"][0]["vertices"] = [[10.0, -5.0, 0.0], [20.0, -5.0, 0.0],
                                    [20.0, 5.0, 0.0], [10.0, 5.0, 0.0]]
    scene = scene_from_dict(doc)
    snap = snapshot(scene, 0.0)
    assert len(trace_specular(snap, "BS", "UE", TraceConfig(max_specular_order=1))) == 0


def test_trace_config_validation():
    with pytest.raises(ValueError):
        TraceConfig(max_specular_order=4)
    with pytest.raises(ValueError):
        TraceConfig(diffuse_samples_per_facet=0)
    with pytest.raises(ValueError):
        TraceConfig(occlusion_epsilon=0.0)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        TraceConfig(seed=-1)
    TraceConfig(seed=0)


def test_trace_config_checks_its_types():
    """The counts and the seed take Python and numpy integers but no bool
    or other number, diffuse_enabled takes a bool only, and
    occlusion_epsilon and subdivide_area take Python and numpy reals but no
    bool: TypeError naming the field otherwise.  The two reals must be
    finite and positive: ValueError naming the field otherwise."""
    config = TraceConfig(max_specular_order=np.int64(3), diffuse_samples_per_facet=np.int32(4),
                         seed=np.uint16(5))
    assert (config.max_specular_order, config.diffuse_samples_per_facet, config.seed) == (3, 4, 5)
    for name in ("max_specular_order", "diffuse_samples_per_facet", "seed"):
        for value in (1.5, 1.0, True, np.float64(2.0), "1", None):
            with pytest.raises(TypeError, match=f"^TraceConfig.{name} must be an integer, "
                                                f"got {re.escape(repr(value))}$"):
                TraceConfig(**{name: value})
    for value in ("no", 0, 1, np.bool_(True), None):
        with pytest.raises(TypeError, match="^TraceConfig.diffuse_enabled must be true or false"):
            TraceConfig(diffuse_enabled=value)
    config = TraceConfig(occlusion_epsilon=np.float32(0.5), subdivide_area=np.int64(3))
    assert (config.occlusion_epsilon, config.subdivide_area) == (0.5, 3)
    for name in ("occlusion_epsilon", "subdivide_area"):
        for value in (True, False, np.bool_(True), "x", "25.0", None, 1j):
            with pytest.raises(TypeError, match=f"^TraceConfig.{name} must be a real number, "
                                                f"got {re.escape(repr(value))}$"):
                TraceConfig(**{name: value})
        for value in (-5.0, 0, 0.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"^{name} must be finite and positive, "
                                                 f"got {re.escape(str(value))}$"):
                TraceConfig(**{name: value})


def test_concat_skips_tables_without_rows_but_keeps_their_width():
    """An empty table adds no row and no copy, yet the facet and point
    columns still take the widest K of every table, and a column that an
    empty table lacks is still None."""
    wide = _table("specular", np.empty((0, 3), int), np.empty((0, 5, 3)), frame=np.empty(0, int))
    los = _table("los", np.empty((2, 0), int), np.arange(12.0).reshape(2, 2, 3),
                 frame=np.arange(2))
    one = _table("specular", np.array([[4]]), np.arange(9.0).reshape(1, 3, 3),
                 frame=np.array([1]))
    got = PathTable.concat([wide, los, wide, one])
    assert got.facets.tolist() == [[-1, -1, -1], [-1, -1, -1], [-1, -1, 4]]
    assert got.points.shape == (3, 5, 3)
    assert (got.points[:, :3] == got.points[:, :1]).all()
    assert got.frame.tolist() == [0, 1, 1] and got.kind.tolist() == [0, 0, 1]
    only = PathTable.concat([los])
    assert only.points.tobytes() == los.points.tobytes() and only.points is not los.points
    no_frame = PathTable(wide.kind, wide.hops, wide.facets, wide.sample)
    assert PathTable.concat([los, no_frame]).frame is None
    empty = PathTable.concat([wide, wide])
    assert len(empty) == 0 and empty.facets.shape == (0, 3)


def test_diffuse_sample_count_scales_with_area():
    config = TraceConfig(diffuse_samples_per_facet=16, subdivide_area=25.0)
    assert diffuse_sample_count(4.0, config) == 16
    assert diffuse_sample_count(25.0, config) == 16
    assert diffuse_sample_count(100.0, config) == 64
    assert diffuse_sample_count(30.0, config) == 36   # 2 blocks -> 32 -> side 6


def test_diffuse_sample_count_ignores_a_rigid_move():
    """scenario_b's facade facet 0 (5 m x 5 m) shifted by (8000, -6000, 0) m
    and turned 0.3 rad about z has an area one rounding above 25 m^2; it
    keeps the 16 samples of the facet at the origin instead of 36."""
    vertices = load_scene(FIXTURES / "scenario_b.json").facets[0].vertices
    c, s = np.cos(0.3), np.sin(0.3)
    yaw = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    moved = vertices @ yaw + [8000.0, -6000.0, 0.0]
    assert facet_area(vertices) == 25.0
    assert facet_area(moved) == 25.00000000000135
    config = TraceConfig()
    assert diffuse_sample_count(facet_area(moved), config) == 16
    assert diffuse_sample_count(25.0 * (1.0 + 1e-6), config) == 36


def test_diffuse_sample_count_is_capped_at_one_tracing_pass():
    assert diffuse_sample_count(4.0, TraceConfig(diffuse_samples_per_facet=181 ** 2)) == 32761
    for base, area in ((181 ** 2 + 1, 4.0), (16385, 30.0), (10 ** 400, 1.0)):
        with pytest.raises(ValueError, match="above the cap of 32768"):
            diffuse_sample_count(area, TraceConfig(diffuse_samples_per_facet=base))


def test_diffuse_pattern_is_deterministic_and_convex():
    config = TraceConfig()
    a = diffuse_sample_pattern(3, 4, 10.0, config)
    b = diffuse_sample_pattern(3, 4, 10.0, config)
    assert np.array_equal(a.weights, b.weights)
    assert not a.weights.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        a.weights[0, 0] = 1.0
    c = diffuse_sample_pattern(3, 4, 10.0, TraceConfig(seed=99))
    assert not np.array_equal(a.weights, c.weights)
    for pat in (a, diffuse_sample_pattern(0, 3, 2.0, config)):
        assert np.all(pat.weights >= 0.0)
        assert np.allclose(pat.weights.sum(axis=1), 1.0, atol=1e-12)


def test_diffuse_paths_cover_facet_and_sum_area():
    scene = scene_from_dict(two_ray_doc())
    snap = snapshot(scene, 0.0)
    config = TraceConfig(diffuse_samples_per_facet=4, subdivide_area=1e9)
    paths = trace_diffuse(snap, "BS", "UE", config)
    assert len(paths) == diffuse_sample_count(200.0, config)
    assert paths.area.sum() == pytest.approx(200.0, rel=1e-12)
    assert snap.pack[0].contains(paths.points[:, 1], np.zeros(len(paths), int)).all()
    assert len(set(paths.sample.tolist())) == len(paths)
    assert (paths.kind == 2).all() and (paths.hops == 1).all() and (paths.facets == 0).all()
    assert lengths(paths) == pytest.approx([total_length(p) for p in paths.points], abs=1e-12)


def test_diffuse_respects_occlusion_per_sample():
    doc = two_ray_doc()
    # low screen at x=19: samples before it lose the hop to the UE, samples
    # between x=19 and x=23.75 lose the hop from the BS (descending ray still
    # below the 2 m top), so only the far end of the patch stays lit
    doc["facets"].append({"vertices": [[19.0, -6.0, 0.0], [19.0, -6.0, 2.0],
                                       [19.0, 6.0, 2.0], [19.0, 6.0, 0.0]],
                          "material": "concrete"})
    scene = scene_from_dict(doc)
    snap = snapshot(scene, 0.0)
    config = TraceConfig(diffuse_samples_per_facet=16, subdivide_area=1e9)
    open_paths = trace_diffuse(snapshot(scene_from_dict(two_ray_doc()), 0.0),
                               "BS", "UE", config)
    paths = trace_diffuse(snap, "BS", "UE", config)
    shadowed = paths.points[paths.facets[:, 0] == 0, 1]
    assert 0 < len(shadowed) < len(open_paths)
    assert (shadowed[:, 0] > 23.74).all()


def test_build_sample_patterns_matches_per_facet_calls():
    scene = scene_from_dict(two_ray_doc())
    config = TraceConfig()
    patterns = build_sample_patterns(scene, config)
    direct = diffuse_sample_pattern(0, 4, scene.facets[0].area, config)
    assert np.array_equal(patterns[0].weights, direct.weights)


def test_sample_patterns_are_shared_and_read_only():
    """Repeated asks for one facet set return the same patterns, which no
    caller can write; another config builds its own."""
    scene = load_scene(FIXTURES / "scenario_b.json")
    a = build_sample_patterns(scene, TraceConfig())
    assert all(p is a[i] for i, p in build_sample_patterns(scene, TraceConfig()).items())
    assert all(not p.weights.flags.writeable for p in a.values())
    other = build_sample_patterns(scene, TraceConfig(seed=99))
    assert not np.array_equal(other[0].weights, a[0].weights)


def test_path_doppler_matches_finite_difference_of_length():
    scene = scene_from_dict(spin_rig_doc())
    config = TraceConfig(diffuse_samples_per_facet=4, subdivide_area=1e9)
    t, h = 0.7, 5e-7

    def all_paths(tt):
        snap = snapshot(scene, tt)
        return snap, PathTable.concat([trace_los(snap, "BS", "UE", config),
                                       trace_specular(snap, "BS", "UE", config),
                                       trace_diffuse(snap, "BS", "UE", config)])

    snap, paths = all_paths(t)
    nu = doppler_of(snap.attach(paths, "BS", "UE"), F_C)
    (_, before), (_, after) = all_paths(t - h), all_paths(t + h)
    length_m = dict(zip(before.keys(), lengths(before)))
    length_p = dict(zip(after.keys(), lengths(after)))
    assert len(paths) >= 6
    checked = 0
    for key, nu_path in zip(paths.keys(), nu):
        if key not in length_m or key not in length_p:
            continue
        rate_fd = (length_p[key] - length_m[key]) / (2.0 * h)
        nu_fd = -(F_C / C) * rate_fd
        assert nu_path == pytest.approx(nu_fd, abs=max(0.5, 1e-4 * abs(nu_fd)))
        checked += 1
    assert checked >= 6


def test_path_doppler_sign_convention():
    # UE riding straight toward the BS: shrinking path, positive Doppler
    doc = spin_rig_doc()
    doc["bodies"][0]["waypoints"] = [[0.0, 4.0, -6.0, 0.0, np.pi],
                                     [1.0, 2.0, -6.0, 0.0, np.pi]]
    scene = scene_from_dict(doc)
    snap = snapshot(scene, 0.5)
    los = trace_los(snap, "BS", "UE")
    assert len(los) == 1
    assert doppler_of(snap.attach(los, "BS", "UE"), F_C)[0] > 0.0


def test_specular_order_and_stable_sort():
    scene = scene_from_dict(corridor_doc())
    snap = snapshot(scene, 0.0)
    paths = trace_specular(snap, "BS", "UE", TraceConfig(max_specular_order=2))
    orders = paths.hops.tolist()
    assert orders == sorted(orders)
    seqs = paths.keys()
    assert len(seqs) == len(set(seqs))
    again = trace_specular(snap, "BS", "UE", TraceConfig(max_specular_order=2))
    assert seqs == again.keys()


def _full_chain_table(n_facets, max_order):
    """Every facet sequence without an immediate repeat, sum_k F (F-1)^(k-1)
    rows by order, then facet indices, with the image rows of the dense
    image array: depth d over every d-facet prefix, starting at row
    F + F^2 + ... + F^(d-1)."""
    f, k_max = n_facets, max_order
    seqs, hops, codes = [], [], []
    for k in range(1, k_max + 1):
        s = np.indices((f,) * k).reshape(k, -1).T
        s = s[np.all(s[:, 1:] != s[:, :-1], axis=1)]
        seqs.append(np.pad(s, ((0, 0), (k_max - k, 0))))
        hops.append(np.full(len(s), k))
        # code[:, d] is the image row of the depth-(d+1) prefix
        code = np.zeros((len(s), k_max), dtype=s.dtype)
        prefix = np.zeros(len(s), dtype=s.dtype)
        for d in range(k):
            prefix = prefix * f + s[:, d]
            code[:, k_max - k + d] = prefix + sum(f ** i for i in range(1, d + 1))
        codes.append(code)
    return raytrace._ChainTable(np.concatenate(seqs), np.concatenate(hops),
                               np.concatenate(codes), None)


def _dense_images(pack, txp, table):
    """Nested images through every facet prefix of every depth, in the rows
    of _full_chain_table, each depth one broadcast over all prefixes."""
    n, off = pack.normals, pack.offsets
    e, f = off.shape
    image = txp[:, None] - 2.0 * (np.matmul(txp[:, None], n.transpose(0, 2, 1))[:, 0]
                                  - off)[..., None] * n
    images = [image]
    for depth in range(1, table.seq.shape[1]):
        ones = (1,) * depth
        image = (image[..., None, :]
                 - 2.0 * (np.matmul(image, n.transpose(0, 2, 1).reshape((e,) + ones[1:] + (3, f)))
                          - off.reshape((e,) + ones + (f,)))[..., None]
                 * n.reshape((e,) + ones + (f, 3)))
        images.append(image.reshape(e, -1, 3))
    return np.concatenate(images, axis=1)


def _dense_specular(block, tx_id, rx_id, config):
    """trace_specular over every chain of the full table with the dense
    nested images: the image pass as it ran before the visibility tree."""
    def every_chain(tx_front, rx_front, mutual, k_max):
        return _full_chain_table(tx_front.shape[1], k_max)
    with mock.patch.object(raytrace, "_grow_chains", every_chain), \
            mock.patch.object(raytrace, "_nested_images", _dense_images):
        return trace_specular(block, tx_id, rx_id, config)


def _chains(table):
    """The table's facet sequences, in row order."""
    return [tuple(row[-h:]) for row, h in zip(table.seq.tolist(), table.hops.tolist())]


def test_chain_table_counts_and_order():
    """With every facet in front of every other and of TX and RX, the tree
    grows the full table: every sequence without an immediate repeat."""
    for f, k in ((1, 3), (2, 3), (7, 3), (5, 2)):
        every = np.ones((2, f), dtype=bool)
        table = raytrace._grow_chains(every, every, np.ones((2, f, f), dtype=bool), k)
        assert len(table.hops) == sum(f * (f - 1) ** (j - 1) for j in range(1, k + 1))
        chains = _chains(table)
        assert chains == sorted(chains, key=lambda c: (len(c), c))
        assert all(a != b for c in chains for a, b in zip(c, c[1:]))
        assert chains == _chains(_full_chain_table(f, k))


@settings(max_examples=200, deadline=None)
@given(e=st.integers(1, 4), f=st.integers(1, 6), k=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1), density=st.floats(0.0, 1.0))
def test_grown_chains_are_those_viable_at_some_epoch(e, f, k, seed, density):
    """_grow_chains keeps, in full-table order, exactly the chains with TX in
    front of the first facet, RX in front of the last and each consecutive
    pair mutual at one and the same epoch; each chain's image rows are the
    rows of its prefixes in the tree, numbered depth by depth."""
    rng = np.random.default_rng(seed)
    tx_front, rx_front = rng.random((e, f)) < density, rng.random((e, f)) < density
    mutual = rng.random((e, f, f)) < density
    table = raytrace._grow_chains(tx_front, rx_front, mutual, k)
    expected = [c for c in _chains(_full_chain_table(f, k))
                if (tx_front[:, c[0]] & rx_front[:, c[-1]]
                    & np.all([mutual[:, a, b] for a, b in zip(c, c[1:])], axis=0)).any()]
    assert _chains(table) == expected
    numbered, depth = [], [()]
    for parent, facet in table.tree:
        depth = [depth[p] + (b,) for p, b in zip(parent.tolist(), facet.tolist())]
        numbered += depth
    for chain, row in zip(_chains(table), table.images.tolist()):
        prefixes = [chain[:d + 1] for d in range(len(chain))]
        assert [numbered[r] for r in row[-len(chain):]] == prefixes


def _inside_facet(point, vertices, normal, tol=1e-9):
    """Scalar point-in-convex-facet test, one edge at a time."""
    for a, b in zip(vertices, np.roll(vertices, -1, axis=0)):
        if float(np.dot(np.cross(b - a, point - a), normal)) < -tol:
            return False
    return True


def _reference_chains(facets, txp, rxp, order):
    """Brute-force image method: every facet sequence of one order, scalar.

    Mirrors TX through the sequence, intersects back to front from RX, and
    keeps the chain when every hit lies inside its facet, strictly within
    its image segment, with the points on either side in front of it.
    Returns {facet sequence: points TX, hits..., RX}; no occlusion test.
    """
    normals = [facet_normal(v) for v in facets]
    offsets = [float(n @ v[0]) for n, v in zip(normals, facets)]
    out = {}
    for seq in itertools.product(range(len(facets)), repeat=order):
        if any(seq[i] == seq[i + 1] for i in range(order - 1)):
            continue
        images = [txp]
        for f in seq:
            p = images[-1]
            images.append(p - 2.0 * (float(p @ normals[f]) - offsets[f]) * normals[f])
        pts, target = [rxp], rxp
        for depth in range(order - 1, -1, -1):
            f, src = seq[depth], images[depth + 1]
            d = target - src
            denom = float(d @ normals[f])
            if abs(denom) < 1e-12:
                break
            t = (offsets[f] - float(src @ normals[f])) / denom
            if not 1e-9 < t < 1.0 - 1e-9:
                break
            target = src + t * d
            if not _inside_facet(target, facets[f], normals[f]):
                break
            pts.append(target)
        else:
            pts = [txp] + pts[::-1]
            if all(float(pts[i] @ normals[f]) - offsets[f] > 1e-9
                   and float(pts[i + 2] @ normals[f]) - offsets[f] > 1e-9
                   for i, f in enumerate(seq)):
                out[seq] = np.array(pts)
    return out


def _rotation(a, b, c):
    ca, sa, cb, sb, cc, sc = np.cos(a), np.sin(a), np.cos(b), np.sin(b), np.cos(c), np.sin(c)
    rz = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cc, -sc], [0.0, sc, cc]])
    return rz @ ry @ rx


def _box_walls(size, scales):
    """Panels on the six faces of [0, size], normals pointing inward.

    Each panel is its face scaled about the face centre, so rays can leave
    through the gaps at the edges and containment decides some chains.
    """
    x, y, z = size
    c = np.array([[0, 0, 0], [x, 0, 0], [x, y, 0], [0, y, 0],
                  [0, 0, z], [x, 0, z], [x, y, z], [0, y, z]], dtype=float)
    faces = [(0, 1, 2, 3), (4, 7, 6, 5), (0, 4, 5, 1),
             (2, 6, 7, 3), (0, 3, 7, 4), (1, 5, 6, 2)]
    walls = []
    for f, s in zip(faces, scales):
        v = c[list(f)]
        centre = v.mean(axis=0)
        walls.append(centre + s * (v - centre))
    return walls


unit_interval = st.floats(0.05, 0.95)
# Strategies for _random_box's arguments: a box of panels in a random pose
# with TX and RX inside it.  Scale 0 leaves a face open, scale 1 closes it
# edge to edge.
random_boxes = dict(
    size=st.tuples(*[st.floats(1.0, 12.0)] * 3),
    tx=st.tuples(*[unit_interval] * 3), rx=st.tuples(*[unit_interval] * 3),
    angles=st.tuples(*[st.floats(-np.pi, np.pi)] * 3),
    shift=st.tuples(*[st.floats(-50.0, 50.0)] * 3),
    scales=st.lists(st.sampled_from([0.0, 0.6, 0.8, 1.0]), min_size=6,
                    max_size=6).filter(any))


def _halves(v):
    """A panel as two coplanar halves, cut across its first and third edges."""
    a, b = 0.5 * (v[0] + v[1]), 0.5 * (v[2] + v[3])
    return [np.array([v[0], a, b, v[3]]), np.array([a, v[1], v[2], b])]


def _tile(size, centre, yaw, pitch, half):
    """A square tile of half-width half inside the box, facing (yaw, pitch)."""
    normal = np.array([np.cos(yaw) * np.cos(pitch), np.sin(yaw) * np.cos(pitch), np.sin(pitch)])
    u = np.cross(normal, [0.0, 0.0, 1.0] if abs(normal[2]) < 0.9 else [1.0, 0.0, 0.0])
    u *= half / np.linalg.norm(u)
    w = np.cross(normal, u)
    c = np.multiply(centre, size)
    return np.array([c - u - w, c + u - w, c + u + w, c - u + w])


def _random_box(size, tx, rx, angles, shift, scales, flips=(False,) * 6,
                splits=(False,) * 6, tile=None):
    """The panels, TX and RX, placed, and their scene; a flipped panel is
    wound the other way, so it faces out of the box, a split one is two
    halves, and tile = (centre, yaw, pitch, half) adds a square tile inside."""
    rot, origin = _rotation(*angles), np.array(shift)
    place = lambda p: np.asarray(p) @ rot.T + origin
    panels = []
    for v, s, flip, split in zip(_box_walls(size, scales), scales, flips, splits):
        if s > 0:
            v = v[::-1] if flip else v
            panels += _halves(v) if split else [v]
    if tile is not None:
        panels.append(_tile(size, *tile))
    facets = [place(v) for v in panels]
    txp, rxp = place(np.multiply(tx, size)), place(np.multiply(rx, size))
    doc = {
        "materials": [{"preset": "metal"}],
        "facets": [{"vertices": v.tolist(), "material": "metal"} for v in facets],
        "transceivers": [
            {"id": "BS", "role": "BS", "position": txp.tolist(),
             "boresight": [1.0, 0.0, 0.0], "pattern": dict(PATTERN)},
            {"id": "UE", "role": "UE", "position": rxp.tolist(),
             "boresight": [1.0, 0.0, 0.0], "pattern": dict(PATTERN)}],
    }
    return facets, txp, rxp, scene_from_dict(doc)


@settings(max_examples=100, deadline=None)
@given(**random_boxes)
def test_image_kernel_matches_brute_force_in_random_boxes(size, tx, rx, angles,
                                                          shift, scales):
    facets, txp, rxp, scene = _random_box(size, tx, rx, angles, shift, scales)
    snap = snapshot(scene, 0.0)
    paths = trace_specular(snap, "BS", "UE", TraceConfig(max_specular_order=3))
    reference = {}
    for order in (1, 2, 3):
        reference.update(_reference_chains(facets, txp, rxp, order))
    # Every full face mirrors once; the panels all lie on the faces of a
    # convex box, so nothing is occluded and every candidate survives.
    assert np.count_nonzero(paths.hops == 1) >= scales.count(1.0)
    seqs = [facets for _, facets, _ in paths.keys()]
    assert seqs == sorted(reference, key=lambda s: (len(s), s))
    for i, seq in enumerate(seqs):
        assert np.abs(path_points(paths, i) - reference[seq]).max() < 1e-9


SPECULAR_COLUMNS = ("kind", "hops", "facets", "sample", "points", "area", "frame")


def assert_same_rows(table, reference):
    for col in SPECULAR_COLUMNS:
        mine, ref = getattr(table, col), getattr(reference, col)
        assert mine.dtype == ref.dtype and mine.shape == ref.shape, col
        assert mine.tobytes() == ref.tobytes(), col



def test_a_near_parallel_image_line_raises_no_warning():
    """A line from the TX image to RX almost in the facet's plane: its
    intersection parameter overflows, and the row fails the span test
    without a RuntimeWarning that a caller's error filter would raise."""
    verts = np.array([[[[0.0, -1.0, -1.0], [0.0, 1.0, -1.0], [0.0, 1.0, 1.0], [0.0, -1.0, 1.0]]]])
    pack = FacetPack.stacked(verts, np.array([[[1.0, 0.0, 1e-310]]]))
    one_chain = raytrace._ChainTable(np.zeros((1, 1), int), np.ones(1, int),
                                     np.zeros((1, 1), int), ((np.zeros(1, int), np.zeros(1, int)),))
    txp, rxp = np.array([[1.0, 0.0, 0.0]]), np.array([[-1.0, 5.0, 3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        snap, rows, points = raytrace._trace_chains(pack, txp, rxp, one_chain)
    assert len(snap) == len(rows) == len(points) == 0

# Shifts that keep every point of a box within 10 km of the origin.
far_shifts = st.builds(
    lambda r, a, b: (r * np.cos(a) * np.cos(b), r * np.sin(a) * np.cos(b), r * np.sin(b)),
    st.floats(0.0, 9975.0), st.floats(-np.pi, np.pi), st.floats(-np.pi / 2, np.pi / 2))


def _dense_kept(pack, txp, rxp, order):
    """The chains of the full table that the image pass keeps, with the
    dense nested images."""
    full = _full_chain_table(pack.n_facets, order)
    with mock.patch.object(raytrace, "_nested_images", _dense_images):
        _, rows, _ = raytrace._trace_chains(pack, txp, rxp, full)
    return full, [_chains(full)[r] for r in rows]


@settings(max_examples=150, deadline=None)
@given(**{**random_boxes, "tx": st.tuples(*[st.floats(-0.5, 1.5)] * 3),
          "rx": st.tuples(*[st.floats(-0.5, 1.5)] * 3),
          "shift": st.one_of(random_boxes["shift"], far_shifts)},
       flips=st.lists(st.booleans(), min_size=6, max_size=6),
       splits=st.lists(st.booleans(), min_size=6, max_size=6),
       tile=st.none() | st.tuples(st.tuples(*[unit_interval] * 3), st.floats(-np.pi, np.pi),
                                  st.floats(-1.5, 1.5), st.floats(0.2, 2.0)),
       order=st.integers(1, 3))
# RX outside the box, behind a panel that a surviving chain starts on.
@example(size=(4.0, 4.0, 4.0), tx=(0.34, 0.44, 0.12), rx=(-0.25, 0.84, 0.79),
         angles=(0.0, 0.0, 0.0), shift=(0.0, 0.0, 0.0), scales=[0.6, 0.8, 1.0, 0.6, 0.6, 1.0],
         flips=[False] * 6, splits=[False] * 6, tile=None, order=2)
# 13 facets: every panel split, and a tile, 10 km from the origin.
@example(size=(7.0, 5.0, 3.0), tx=(0.3, 0.6, 0.5), rx=(0.8, 0.2, 0.4),
         angles=(0.4, -0.2, 0.1), shift=(5773.0, -5773.0, 5760.0), scales=[1.0] * 6,
         flips=[False] * 6, splits=[True] * 6, tile=((0.5, 0.5, 0.5), 0.3, 0.2, 0.8), order=3)
@example(size=(11.0, 2.0, 6.0), tx=(0.1, 0.5, 0.9), rx=(0.9, 0.5, 0.1),
         angles=(2.0, 0.7, -1.1), shift=(-9975.0, 0.0, 0.0), scales=[0.8, 0.6, 1.0, 1.0, 0.8, 0.6],
         flips=[False, True, False, False, False, False], splits=[True, False] * 3, tile=None,
         order=3)
def test_pruned_image_pass_keeps_every_survivor(size, tx, rx, angles, shift, scales,
                                                flips, splits, tile, order):
    """Every chain of the full table that the image pass keeps is grown by
    the tree, and trace_specular is the dense pass bit for bit: up to 13
    facets, split panels and a tile inside, up to 10 km from the origin.
    TX and RX may lie outside the box, behind some panels.  A flipped panel
    faces out of the box, so with TX and RX inside it the tree grows no
    chain that starts or ends on it."""
    facets, txp, rxp, scene = _random_box(size, tx, rx, angles, shift, scales, flips,
                                          splits, tile)
    block = snapshot(scene, 0.0)
    txs, rxs = block.states["BS"].position, block.states["UE"].position
    full, kept = _dense_kept(block.pack, txs, rxs, order)
    grown = raytrace._grow_chains(*raytrace._front_masks(block.pack, txs, rxs), order)
    assert set(kept) <= set(_chains(grown))
    inside = all(0.0 < c < 1.0 for c in tx + rx)
    if inside and any(f for f, s in zip(flips, scales) if s > 0):
        assert len(grown.hops) < len(full.hops)
    config = TraceConfig(max_specular_order=order)
    assert_same_rows(trace_specular(block, "BS", "UE", config),
                     _dense_specular(block, "BS", "UE", config))


def _behind_wall_doc(tx, rx, top, angles):
    """A tall wall at x = 0 facing +x and a wall of height top at x = 10
    facing it, with TX behind the second, so that TX sees the first wall
    only; all turned by _rotation(*angles)."""
    rot = _rotation(*angles)
    place = lambda points: (np.asarray(points) @ rot.T).tolist()
    return {
        "materials": [{"preset": "metal"}],
        "facets": [{"vertices": place([[0.0, 5.0, 12.0], [0.0, -5.0, 12.0], [0.0, -5.0, 0.0],
                                       [0.0, 5.0, 0.0]]), "material": "metal"},
                   {"vertices": place([[10.0, -5.0, top], [10.0, 5.0, top], [10.0, 5.0, 0.0],
                                       [10.0, -5.0, 0.0]]), "material": "metal"}],
        "transceivers": [
            {"id": "BS", "role": "BS", "position": place(tx), "boresight": [-1.0, 0.0, 0.0],
             "pattern": dict(PATTERN)},
            {"id": "UE", "role": "UE", "position": place(rx), "boresight": [1.0, 0.0, 0.0],
             "pattern": dict(PATTERN)}],
    }


@pytest.mark.parametrize("tx, rx, top", [([12.0, 0.3, 14.0], [4.0, 1.0, 1.5], 5.0),
                                         ([11.0, 0.7, 9.0], [6.0, -1.3, 2.5], 6.0),
                                         ([10.5, 0.2, 11.0], [3.0, 0.4, 3.0], 6.0),
                                         ([13.0, 0.2, 11.5], [5.0, 0.4, 1.0], 8.0)])
@pytest.mark.parametrize("angles", [(0.3, -0.4, 0.7), (2.1, 0.9, -1.3)])
def test_a_single_first_facet_keeps_the_dense_bits(tx, rx, top, angles):
    """With one depth-0 prefix the next depth's images still come from a
    matrix product, so chains through it carry the dense pass's bits."""
    block = snapshot(scene_from_dict(_behind_wall_doc(tx, rx, top, angles)), 0.0)
    config = TraceConfig(max_specular_order=3)
    paths = trace_specular(block, "BS", "UE", config)
    assert ("specular", (0, 1), None) in paths.keys()
    assert_same_rows(paths, _dense_specular(block, "BS", "UE", config))


def test_prune_keeps_few_chains_on_scenario_b():
    """BS -> UE on scenario_b at order 3: the image pass of a 64-chirp block
    from t0 = 0.1 runs on fewer than 100 of the 301 chains, and gives the
    dense pass's paths."""
    scene = load_scene(FIXTURES / "scenario_b.json")
    block = snapshots(scene, 0.1 + ChirpConfig().pri * np.arange(64))
    config = TraceConfig(max_specular_order=3)
    with mock.patch.object(raytrace, "_trace_chains", wraps=raytrace._trace_chains) as spy:
        paths = trace_specular(block, "BS", "UE", config)
    assert len(_full_chain_table(7, 3).hops) == 301
    assert [len(call.args[3].hops) < 100 for call in spy.call_args_list] == [True]
    assert len(paths) == 64
    assert_same_rows(paths, _dense_specular(block, "BS", "UE", config))


def epochs(block):
    """Each epoch of a block as the block of that one epoch."""
    return [block.view(slice(k, k + 1)) for k in range(len(block))]


def test_block_tracers_match_per_snapshot_tracing(monkeypatch):
    """LOS and specular tracing over a block of epochs give each epoch's
    per-snapshot rows, in epoch order, also when the specular image pass
    runs on parts of a few epochs of the block's one chain tree; and the
    pruned specular rows are the dense pass's."""
    scene = scene_from_dict(spin_rig_doc())
    block = snapshots(scene, 0.3 + 0.05 * np.arange(20))
    config = TraceConfig(max_specular_order=3)
    columns = ("kind", "hops", "facets", "sample", "points", "area")
    whole = {tracer: tracer(block, "BS", "UE", config) for tracer in (trace_los, trace_specular)}
    assert np.all(np.diff(whole[trace_specular].frame) >= 0)
    assert len(whole[trace_los]) > 0 and len(whole[trace_specular]) >= 20
    for k, snap in enumerate(epochs(block)):
        for tracer, rows in whole.items():
            single = tracer(snap, "BS", "UE", config)
            assert not single.frame.any()
            mine = rows.take(rows.frame == k)
            for col in columns:
                assert getattr(single, col).tobytes() == getattr(mine, col).tobytes(), col
    assert_same_rows(whole[trace_specular], _dense_specular(block, "BS", "UE", config))
    monkeypatch.setattr(raytrace, "_CHAIN_ROWS", 13)     # two chains: parts of 6, 6, 6, 2
    parts = trace_specular(block, "BS", "UE", config)
    for col in columns + ("frame",):
        assert getattr(parts, col).tobytes() == getattr(whole[trace_specular], col).tobytes()


def test_parts_halve_until_their_rows_fit(monkeypatch):
    """A block whose epochs times grown chains exceed _CHAIN_ROWS grows its
    chain tree once, and the image pass runs on consecutive parts of
    pass_epochs(chains) epochs, all on that tree; the parts give the rows
    of the whole block."""
    scene = scene_from_dict(corridor_doc())        # F = 2, six chains at order 3
    block = snapshots(scene, 0.1 * np.arange(7))
    config = TraceConfig(max_specular_order=3)
    whole = trace_specular(block, "BS", "UE", config)
    assert len(whole) == 42
    monkeypatch.setattr(raytrace, "_CHAIN_ROWS", 13)   # 13 // 6 = 2 epochs a part
    with (mock.patch.object(raytrace, "_trace_chains", wraps=raytrace._trace_chains) as spy,
          mock.patch.object(raytrace, "_grow_chains", wraps=raytrace._grow_chains) as grow):
        parts = trace_specular(block, "BS", "UE", config)
    assert grow.call_count == 1
    assert [len(call.args[1]) for call in spy.call_args_list] == [2, 2, 2, 1]
    assert_same_rows(parts, whole)


def _reference_diffuse(snap, tx_id, rx_id, config):
    """The per-facet diffuse tracer over one snapshot, a block of one epoch:
    a Python loop over the facets in front of both endpoints, posed in the
    snapshot's pack, then one occlusion pass per leg through that pack."""
    txp = snap.states[tx_id].position[0]
    rxp = snap.states[rx_id].position[0]
    pack = snap.pack[0]
    points, owners, sample_ids, areas = [], [], [], []
    for fi, facet in enumerate(snap.scene.facets if config.diffuse_enabled else ()):
        sd_tx = float(txp @ pack.normals[fi]) - pack.offsets[fi]
        sd_rx = float(rxp @ pack.normals[fi]) - pack.offsets[fi]
        if sd_tx <= _FRONT_EPS or sd_rx <= _FRONT_EPS:
            continue
        nv = len(facet.vertices)
        pat = diffuse_sample_pattern(facet.index, nv, facet.area, config)
        points.append(pat.weights @ pack.verts[fi, :nv])
        owners.append(np.full(pat.n_samples, fi))
        sample_ids.append(np.arange(pat.n_samples))
        areas.append(np.full(pat.n_samples, facet.area / pat.n_samples))
    if not points:
        return _table("diffuse", np.empty((0, 1), int), np.empty((0, 3, 3)))

    pts = np.concatenate(points)
    epoch = np.zeros(len(pts), int)
    blocked_in = snap.pack.segments_blocked(np.broadcast_to(txp, pts.shape), pts,
                                            config.occlusion_epsilon, epoch)
    blocked_out = snap.pack.segments_blocked(pts, np.broadcast_to(rxp, pts.shape),
                                             config.occlusion_epsilon, epoch)
    keep = ~(blocked_in | blocked_out)
    legs = np.empty((np.count_nonzero(keep), 3, 3))
    legs[:, 0], legs[:, 1], legs[:, 2] = txp, pts[keep], rxp
    return _table("diffuse", np.concatenate(owners)[keep, None], legs,
                  np.concatenate(sample_ids)[keep], np.concatenate(areas)[keep])


def _ground_behind_doc():
    """The two-ray scene with the ground wound downwards: behind both radios."""
    doc = two_ray_doc()
    doc["facets"][0]["vertices"] = doc["facets"][0]["vertices"][::-1]
    return doc


def _grazing_doc():
    """A fixed radar 1 um above the plane of a slab that slides beneath it,
    so every leg to the slab's samples rises about 3e-7 rad over the slab,
    and a gate that sweeps across some of those legs."""
    pattern = {"peak_gain_dbi": 5.0, "hpbw_azimuth_deg": 120.0, "hpbw_elevation_deg": 90.0}
    return {
        "materials": [{"preset": "metal"}],
        "facets": [
            {"vertices": [[-1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [1.0, 1.0, 0.0], [-1.0, 1.0, 0.0]],
             "material": "metal", "body": "slab"},
            {"vertices": [[0.0, 0.3, -0.5], [0.0, -0.3, -0.5], [0.0, -0.3, 0.5], [0.0, 0.3, 0.5]],
             "material": "metal", "body": "gate"},
        ],
        "transceivers": [{"id": "UE", "role": "UE", "position": [0.0, 0.0, 1.0],
                          "boresight": [1.0, 0.0, 0.0], "pattern": pattern}],
        "bodies": [{"id": "slab", "waypoints": [[0.0, 3.0, 0.0, 1.0 - 1e-6, 0.0],
                                                [1.0, 3.0, 0.5, 1.0 - 1e-6, 0.0]]},
                   {"id": "gate", "waypoints": [[0.0, 1.5, -2.0, 1.0, 0.0],
                                                [1.0, 1.5, 2.0, 1.0, 0.0]]}],
    }


# name: (scene, TX, RX).  The spin rig's plate faces away from the UE it
# carries, so it is behind an endpoint at every epoch; scenario_c's UE rides
# on a body, and scenario_b's car facets move.  In static_crossing a plate
# crosses the legs of a static wall's samples between fixed mounts and a
# static panel shades others; in its cart variant the UE rides a body, and
# its far variant lies 10 km from the origin.  grazing's legs barely rise
# over the moving facet they end on, the edge of the argument that lets a
# moving facet's samples skip their own facet.
DIFFUSE_RIGS = {
    "spin": (lambda: scene_from_dict(spin_rig_doc()), "BS", "UE"),
    "spin_reverse": (lambda: scene_from_dict(spin_rig_doc()), "UE", "BS"),
    "scenario_c": (lambda: load_scene(FIXTURES / "scenario_c.json"), "BS", "UE"),
    "scenario_b": (lambda: load_scene(FIXTURES / "scenario_b.json"), "UE", "UE"),
    "ground_behind": (lambda: scene_from_dict(_ground_behind_doc()), "BS", "UE"),
    "static_crossing": (lambda: scene_from_dict(static_crossing_doc()), "BS", "UE"),
    "static_crossing_cart": (lambda: scene_from_dict(static_crossing_doc(rx_on_cart=True)),
                             "BS", "UE"),
    "static_crossing_far": (lambda: scene_from_dict(
        static_crossing_doc(shift=(7990.0, -5990.0, 0.0))), "BS", "UE"),
    "grazing": (lambda: scene_from_dict(_grazing_doc()), "UE", "UE"),
}


@functools.lru_cache(maxsize=None)
def _diffuse_rig(name):
    build, tx, rx = DIFFUSE_RIGS[name]
    return build(), tx, rx


@settings(max_examples=40, deadline=None)
@given(rig=st.sampled_from(sorted(DIFFUSE_RIGS)), n=st.integers(1, 130),
       start=st.floats(0.0, 1.0), step=st.sampled_from([125.86e-6, 2e-3, 1e-2]),
       samples=st.integers(1, 9), seed=st.integers(0, 2 ** 16))
@example(rig="spin", n=130, start=0.2, step=1e-2, samples=4, seed=1729)
@example(rig="spin_reverse", n=129, start=0.5, step=1e-2, samples=9, seed=3)
@example(rig="scenario_c", n=130, start=0.4, step=1e-2, samples=8, seed=1729)
@example(rig="scenario_b", n=65, start=0.1, step=1e-2, samples=16, seed=1)
@example(rig="scenario_b", n=3, start=0.0, step=2e-3, samples=4, seed=9001)
@example(rig="ground_behind", n=1, start=0.0, step=1e-2, samples=4, seed=0)
@example(rig="static_crossing", n=130, start=0.5, step=1e-2, samples=4, seed=1729)
@example(rig="static_crossing", n=130, start=0.3, step=1e-2, samples=9, seed=5)
@example(rig="static_crossing_cart", n=130, start=0.5, step=1e-2, samples=4, seed=1729)
@example(rig="static_crossing_far", n=130, start=0.5, step=1e-2, samples=9, seed=1729)
@example(rig="grazing", n=100, start=0.0, step=1e-2, samples=9, seed=1729)
def test_block_diffuse_tracer_matches_per_facet_reference(rig, n, start, step, samples, seed):
    """A block of 1 to 130 epochs gives, row for row and bit for bit, each
    epoch's rows from the per-facet tracer, in epoch order with their frame.
    The reference tests every leg against every facet, so a moving facet's
    samples, which the tracer tests against the other facets only, keep the
    verdicts of the full test."""
    scene, tx, rx = _diffuse_rig(rig)
    lo, hi = scene.t_span or (0.0, 1.0)
    step = min(step, (hi - lo) / n)
    times = lo + start * ((hi - lo) - (n - 1) * step) + step * np.arange(n)
    config = TraceConfig(diffuse_samples_per_facet=samples, seed=seed)
    block = snapshots(scene, times)
    table = trace_diffuse(block, tx, rx, config)
    parts = []
    for k, snap in enumerate(epochs(block)):
        parts.append(_reference_diffuse(snap, tx, rx, config))
        parts[-1].frame = np.full(len(parts[-1]), k)
    reference = PathTable.concat(parts)
    for col in ("kind", "hops", "facets", "sample", "points", "area", "frame"):
        mine, ref = getattr(table, col), getattr(reference, col)
        assert mine.dtype == ref.dtype and mine.shape == ref.shape, col
        assert mine.tobytes() == ref.tobytes(), col
    if rig.startswith("spin"):
        assert not (table.facets == 1).any()        # the rig plate faces away
    if rig == "ground_behind":
        assert len(table) == 0
    if rig == "grazing" and (n, step, samples) == (100, 1e-2, 9):
        slab = np.bincount(table.frame[table.facets[:, 0] == 0], minlength=n)
        assert slab.max() == 9 and slab.min() < 9      # the gate blocks some legs
    single = trace_diffuse(block.view(slice(n - 1, n)), tx, rx, config)
    assert not single.frame.any()
    assert single.points.tobytes() == table.take(table.frame == n - 1).points.tobytes()
