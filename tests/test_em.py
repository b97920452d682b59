"""Path amplitudes against quadrature, closed forms and in-test reimplementation."""

import cmath

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.constants import epsilon_0
from scipy.integrate import quad

from rftwin.channel import ChirpConfig, SensingLink, simulate_cir
from rftwin.em import (
    EPSILON_0,
    SPEED_OF_LIGHT,
    amplitudes_of,
    antenna_angles,
    complex_permittivity,
    fresnel,
    lobe_density,
    lobe_normalization,
    specular_reduction,
)
from rftwin.kinematics import snapshot
from rftwin.raytrace import KINDS, PathTable, TraceConfig, trace_diffuse, trace_los, trace_specular
from rftwin.scene import Material, SceneError, scene_from_dict

from conftest import spin_rig_doc, two_ray_doc

F_C = 79e9
LAMBDA = SPEED_OF_LIGHT / F_C


def amplitude_of(paths, snap, scene, f_c):
    """Amplitude and dB budget terms of the single row of a BS -> UE table."""
    assert len(paths) == 1
    amps, terms = amplitudes_of(snap.attach(paths, "BS", "UE"), scene, "BS", "UE", f_c,
                                with_breakdown=True)
    return complex(amps[0]), {name: column[0] for name, column in terms.items()}


def geometry(paths, i):
    """Points, length, departure, arrival and per-hop k_in/k_out of row i."""
    pts = paths.points[i, paths.first()[i]:]
    segs = np.diff(pts, axis=0)
    k = segs / np.linalg.norm(segs, axis=1)[:, None]
    return {"points": pts, "length": float(np.linalg.norm(segs, axis=1).sum()),
            "segments": np.linalg.norm(segs, axis=1), "departure": k[0],
            "arrival": k[-1], "k_in": k[:-1], "k_out": k[1:]}


def all_paths(snap, config):
    return PathTable.concat([trace_los(snap, "BS", "UE", config),
                             trace_specular(snap, "BS", "UE", config),
                             trace_diffuse(snap, "BS", "UE", config)])


def fresnel_of(material, theta, f_c):
    """Complex coefficient of the Fresnel kernel for a material at theta."""
    eps = complex_permittivity(material.rel_permittivity, material.conductivity, f_c)
    mag, phase = fresnel(eps, np.cos(theta))
    return complex(mag * np.exp(1j * phase))


def closed_form_gamma(material, theta, f_c):
    """Unpolarized Fresnel coefficient, written out independently."""
    eps = complex(material.rel_permittivity,
                  -material.conductivity / (2 * np.pi * f_c * epsilon_0))
    ct = np.cos(theta)
    root = cmath.sqrt(eps - np.sin(theta) ** 2)
    g_te = (ct - root) / (ct + root)
    g_tm = (eps * ct - root) / (eps * ct + root)
    return 0.5 * (abs(g_te) + abs(g_tm)) * cmath.exp(1j * cmath.phase(g_te))


def test_speed_of_light_engineering_value():
    assert SPEED_OF_LIGHT == 3.0e8


def test_vacuum_permittivity_literal_is_codata():
    assert EPSILON_0 == epsilon_0


def test_split_power_conserves_energy():
    s = np.array([0.0, 0.05, 0.35, 1.0])
    r = specular_reduction(s)
    assert np.allclose(r * r + s * s, 1.0, rtol=0.0, atol=1e-15)
    assert specular_reduction(0.0) == 1.0
    assert specular_reduction(1.0) == 0.0
    # the coefficient's domain is enforced where a material is made
    for bad in (1.0001, -0.1):
        with pytest.raises(SceneError):
            Material("bad", 2.0, 0.0, bad, 1)


def material_terms(s, rel_permittivity, conductivity, lobe_exponent):
    """Per-hop breakdown terms in dB on the two-ray ground patch: the specular
    reflection and the reflections of four diffuse samples."""
    doc = two_ray_doc()
    doc["materials"] = [{"name": "ground", "rel_permittivity": rel_permittivity,
                         "conductivity": conductivity, "scattering_coeff": s,
                         "lobe_exponent": lobe_exponent}]
    doc["facets"][0]["material"] = "ground"
    scene = scene_from_dict(doc)
    snap = snapshot(scene, 0.0)
    specular = trace_specular(snap, "BS", "UE", TraceConfig(max_specular_order=1))
    diffuse = trace_diffuse(snap, "BS", "UE", TraceConfig(diffuse_samples_per_facet=4,
                                                          subdivide_area=1e9))
    assert specular.facets.tolist() == [[0]] and (diffuse.facets == 0).all()
    _, reflection = amplitudes_of(snap.attach(specular, "BS", "UE"), scene,
                                  "BS", "UE", F_C, with_breakdown=True)
    _, scatter = amplitudes_of(snap.attach(diffuse, "BS", "UE"), scene,
                               "BS", "UE", F_C, with_breakdown=True)
    return reflection["hop_db"][0, 0], scatter["hop_db"][:, 0]


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(1.5, 80.0), st.floats(0.0, 100.0),
       st.integers(1, 32))
@example(5e-324, 2.0, 0.0, 1)
@example(2.2250738585e-313, 2.0, 0.0, 1)
def test_reflection_and_scattering_conserve_power(s, rel_permittivity, conductivity,
                                                  lobe_exponent):
    """R^2 + S^2 = 1 as the amplitudes apply them: each factor is read from
    the dB budget against the same material split all-specular (S = 0) or
    all-diffuse (S = 1), which cancels |Gamma|, the lobe and the patch.
    The permittivity stays above 1 so that the surface reflects at all."""
    material = (rel_permittivity, conductivity, lobe_exponent)
    reflection, scatter = material_terms(s, *material)
    mirror, _ = material_terms(0.0, *material)
    _, lobe = material_terms(1.0, *material)
    r = 10.0 ** ((reflection - mirror) / 20.0)
    s_hat = 10.0 ** ((scatter - lobe) / 20.0)
    assert len(s_hat) == 4
    assert np.allclose(r ** 2 + s_hat ** 2, 1.0, rtol=0.0, atol=1e-12)
    assert np.allclose(s_hat, s, rtol=1e-12, atol=0.0)


def test_lobe_normalization_matches_quadrature():
    for alpha in (1, 2, 4, 16, 32):
        integral, err = quad(
            lambda psi, a=alpha: ((1 + np.cos(psi)) / 2) ** a * np.sin(psi),
            0.0, np.pi / 2)
        assert err < 1e-7
        assert lobe_normalization(alpha) == pytest.approx(
            1.0 / (2 * np.pi * integral), rel=1e-12)
    with pytest.raises(ValueError):
        lobe_normalization(0)


def test_lobe_gain_peaks_on_mirror_axis_and_decreases():
    for alpha in (1, 4, 16):
        peak = lobe_density(1.0, alpha)
        assert peak == pytest.approx(lobe_normalization(alpha), rel=1e-12)
        angles = np.linspace(0.0, np.pi / 2, 19)
        gains = lobe_density(np.cos(angles), alpha)
        assert np.all(np.diff(gains) < 0.0)
    # higher exponent concentrates the lobe
    off = np.cos(0.5)
    assert lobe_density(off, 16) / lobe_normalization(16) < \
        lobe_density(off, 1) / lobe_normalization(1)
    # element-wise over the exponent, as the amplitudes index it per hop
    alphas = np.array([1.0, 4.0, 16.0])
    assert np.array_equal(lobe_density(off, alphas),
                          [lobe_density(off, a) for a in (1, 4, 16)])


def test_fresnel_normal_incidence_closed_form():
    for mat in (Material("glassy", 6.27, 0.79, 0.15, 16),
                Material("lossless", 4.0, 0.0, 0.0, 1)):
        got = fresnel_of(mat, 0.0, F_C)
        assert got == pytest.approx(closed_form_gamma(mat, 0.0, F_C), abs=1e-12)
    # lossless eps=4 at normal incidence: |(1-2)/(1+2)| = 1/3, TE phase pi
    g = fresnel_of(Material("lossless", 4.0, 0.0, 0.0, 1), 0.0, F_C)
    assert abs(g) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert np.angle(g) == pytest.approx(np.pi, abs=1e-12)


def test_fresnel_brewster_and_grazing():
    lossless = Material("lossless", 4.0, 0.0, 0.0, 1)
    theta_b = np.arctan(2.0)     # Brewster angle for eps = 4
    g = fresnel_of(lossless, theta_b, F_C)
    # TM vanishes at Brewster, so the unpolarized magnitude is |TE| / 2 = 0.3
    assert abs(g) == pytest.approx(0.3, abs=1e-9)
    for mat in (lossless, Material("metalish", 1.0, 1.0e7, 0.05, 32)):
        assert abs(fresnel_of(mat, np.pi / 2 - 1e-6, F_C)) > 0.99
    # good conductor reflects almost everything at any angle
    metal = Material("metalish", 1.0, 1.0e7, 0.05, 32)
    for theta in (0.0, 0.5, 1.2):
        assert abs(fresnel_of(metal, theta, F_C)) > 0.998


def test_fresnel_passivity_and_domain():
    mat = Material("brickish", 3.91, 0.05, 0.45, 2)
    for theta in np.linspace(0.0, np.pi / 2 - 1e-3, 25):
        assert abs(fresnel_of(mat, theta, F_C)) <= 1.0 + 1e-12
    # the whole domain cos(theta) in [0, 1] in one call, grazing included
    eps = complex_permittivity(mat.rel_permittivity, mat.conductivity, F_C)
    cos_theta = np.linspace(0.0, 1.0, 101)
    mag, phase = fresnel(eps, cos_theta)
    assert mag.shape == phase.shape == cos_theta.shape
    assert np.all(mag <= 1.0 + 1e-12)
    assert mag[0] == pytest.approx(1.0, abs=1e-12)
    expected = [closed_form_gamma(mat, np.arccos(c), F_C) for c in cos_theta]
    assert np.allclose(mag * np.exp(1j * phase), expected, rtol=0.0, atol=1e-12)


def isotropic_pair_doc(distance):
    pattern = {"peak_gain_dbi": 0.0, "hpbw_azimuth_deg": 360.0,
               "hpbw_elevation_deg": 360.0}
    return {
        "materials": [],
        "facets": [],
        "transceivers": [
            {"id": "BS", "role": "BS", "position": [0.0, 0.0, 2.0],
             "boresight": [1.0, 0.0, 0.0], "pattern": dict(pattern)},
            {"id": "UE", "role": "UE", "position": [distance, 0.0, 2.0],
             "boresight": [-1.0, 0.0, 0.0], "pattern": dict(pattern)},
        ],
    }


def test_free_space_amplitude_at_ten_meters():
    scene = scene_from_dict(isotropic_pair_doc(10.0))
    snap = snapshot(scene, 0.0)
    los = trace_los(snap, "BS", "UE")
    amp, _ = amplitude_of(los, snap, scene, F_C)
    assert abs(amp) == pytest.approx(LAMBDA / (4 * np.pi * 10.0), rel=1e-12)
    assert abs(amp) == pytest.approx(3.02e-5, rel=1e-3)
    assert amp / abs(amp) == pytest.approx(
        cmath.exp(-2j * np.pi * F_C * 10.0 / SPEED_OF_LIGHT), abs=1e-9)
    # amplitude scales as 1/d
    far = scene_from_dict(isotropic_pair_doc(20.0))
    snap_far = snapshot(far, 0.0)
    amp_far, _ = amplitude_of(trace_los(snap_far, "BS", "UE"), snap_far, far, F_C)
    assert abs(amp_far) == pytest.approx(abs(amp) / 2.0, rel=1e-12)


def test_free_space_cir_has_one_los_tap():
    # No facets: the LOS row is padded to the width of the diffuse and
    # specular tables, and its padding indexes no facet.
    scene = scene_from_dict(isotropic_pair_doc(10.0))
    cir = simulate_cir(scene, SensingLink("BS", "UE"), ChirpConfig(n_chirps_total=3))
    p = cir.paths
    assert p.frame.tolist() == [0, 1, 2] and cir.n_dropped.tolist() == [0, 0, 0]
    assert (p.kind == KINDS.index("los")).all()
    assert p.facets.shape[1] >= 1 and (p.facets == -1).all()
    assert abs(p.a) == pytest.approx(LAMBDA / (4 * np.pi * 10.0), rel=1e-12)
    assert p.tau == pytest.approx(10.0 / SPEED_OF_LIGHT, rel=1e-12)
    assert (p.nu == 0.0).all()


def pattern_gain_db(trx, direction):
    az, el = antenna_angles(trx.boresight, direction)
    return trx.pattern.gain_db(az, el)


def test_los_amplitude_includes_both_antenna_gains():
    scene = scene_from_dict(two_ray_doc())
    snap = snapshot(scene, 0.0)
    los = trace_los(snap, "BS", "UE")
    amp, terms = amplitude_of(los, snap, scene, F_C)
    geo = geometry(los, 0)
    d = geo["length"]
    g_tx = pattern_gain_db(scene.transceivers["BS"], geo["departure"])
    g_rx = pattern_gain_db(scene.transceivers["UE"], -geo["arrival"])
    expected = LAMBDA / (4 * np.pi * d) * 10 ** ((g_tx + g_rx) / 20.0)
    assert abs(amp) == pytest.approx(expected, rel=1e-12)
    assert terms["tx_gain_db"] == pytest.approx(g_tx)
    assert terms["rx_gain_db"] == pytest.approx(g_rx)


def test_specular_amplitude_reimplemented():
    scene = scene_from_dict(two_ray_doc())
    snap = snapshot(scene, 0.0)
    paths = trace_specular(snap, "BS", "UE", TraceConfig(max_specular_order=1))
    amp, _ = amplitude_of(paths, snap, scene, F_C)
    path = geometry(paths, 0)

    mat = scene.materials["concrete"]
    theta = np.arccos(abs(float(path["k_in"][0] @ snap.pack.normals[0, 0])))
    gamma = closed_form_gamma(mat, theta, F_C)
    g_tx = pattern_gain_db(scene.transceivers["BS"], path["departure"])
    g_rx = pattern_gain_db(scene.transceivers["UE"], -path["arrival"])
    expected_mag = (LAMBDA / (4 * np.pi * path["length"])
                    * 10 ** ((g_tx + g_rx) / 20.0)
                    * specular_reduction(mat.scattering_coeff) * abs(gamma))
    expected_phase = (-2 * np.pi * F_C * path["length"] / SPEED_OF_LIGHT
                      + cmath.phase(gamma))
    assert abs(amp) == pytest.approx(expected_mag, rel=1e-12)
    # compare phases on the circle
    assert amp / abs(amp) == pytest.approx(
        cmath.exp(1j * expected_phase), abs=1e-9)


def test_diffuse_amplitude_reimplemented():
    scene = scene_from_dict(two_ray_doc())
    snap = snapshot(scene, 0.0)
    config = TraceConfig(diffuse_samples_per_facet=4, subdivide_area=1e9)
    paths = trace_diffuse(snap, "BS", "UE", config)
    amps = amplitudes_of(snap.attach(paths, "BS", "UE"), scene, "BS", "UE", F_C)
    mat = scene.materials["concrete"]
    normal = snap.pack.normals[0, 0]
    assert len(paths) == 4
    for i, amp in enumerate(amps):
        path = geometry(paths, i)
        d1, d2 = path["segments"]
        k_in, k_out = path["k_in"][0], path["k_out"][0]
        cos_i = abs(float(k_in @ normal))
        cos_s = max(float(k_out @ normal), 0.0)
        gamma = closed_form_gamma(mat, np.arccos(cos_i), F_C)
        k_mirror = k_in - 2.0 * float(k_in @ normal) * normal
        f_lobe = lobe_density(float(k_mirror @ k_out), mat.lobe_exponent)
        g_tx = pattern_gain_db(scene.transceivers["BS"], path["departure"])
        g_rx = pattern_gain_db(scene.transceivers["UE"], -path["arrival"])
        expected = (LAMBDA / (4 * np.pi * d1 * d2)
                    * 10 ** ((g_tx + g_rx) / 20.0)
                    * mat.scattering_coeff * abs(gamma)
                    * np.sqrt(paths.area[i] * cos_i * cos_s * f_lobe))
        assert abs(amp) == pytest.approx(expected, rel=1e-10)


def test_breakdown_terms_sum_to_magnitude():
    scene = scene_from_dict(spin_rig_doc())
    snap = snapshot(scene, 0.5)
    config = TraceConfig(diffuse_samples_per_facet=4, subdivide_area=1e9)
    paths = all_paths(snap, config)
    assert len(paths) >= 4
    amps, terms = amplitudes_of(snap.attach(paths, "BS", "UE"), scene, "BS", "UE", F_C,
                                with_breakdown=True)
    assert sorted(terms) == ["hop_db", "rx_gain_db", "spreading_db", "tx_gain_db"]
    # One hop term per interaction, in the facets layout; 0 dB in the padding.
    assert terms["hop_db"].shape == paths.facets.shape
    assert (terms["hop_db"][paths.facets < 0] == 0.0).all()
    assert (terms["hop_db"][paths.facets >= 0] != 0.0).all()
    total = (terms["spreading_db"] + terms["tx_gain_db"] + terms["rx_gain_db"]
             + terms["hop_db"].sum(axis=1))
    assert total == pytest.approx(20 * np.log10(np.abs(amps)), abs=1e-9)


def test_vectorized_amplitudes_match_singles():
    scene = scene_from_dict(spin_rig_doc())
    snap = snapshot(scene, 0.5)
    config = TraceConfig(diffuse_samples_per_facet=4, subdivide_area=1e9)
    paths = all_paths(snap, config)
    paths = snap.attach(paths, "BS", "UE")
    batch = amplitudes_of(paths, scene, "BS", "UE", F_C)
    budgets, terms = amplitudes_of(paths, scene, "BS", "UE", F_C, with_breakdown=True)
    assert budgets.tobytes() == batch.tobytes()
    for i, a in enumerate(batch):
        single, single_terms = amplitude_of(paths.take([i]), snap, scene, F_C)
        assert a == pytest.approx(single, rel=1e-12)
        for name, column in terms.items():
            assert single_terms[name] == pytest.approx(column[i], rel=1e-12, abs=1e-12)


def test_empty_path_list():
    scene = scene_from_dict(two_ray_doc())
    snap = snapshot(scene, 0.0)
    empty = trace_specular(snap, "BS", "UE", TraceConfig(max_specular_order=0))
    empty = snap.attach(empty, "BS", "UE")
    assert len(amplitudes_of(empty, scene, "BS", "UE", F_C)) == 0
    amps, terms = amplitudes_of(empty, scene, "BS", "UE", F_C, with_breakdown=True)
    assert len(amps) == 0 and all(len(column) == 0 for column in terms.values())
    assert terms["hop_db"].shape == empty.facets.shape
