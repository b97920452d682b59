"""Electromagnetic path weights: Fresnel reflection, diffuse lobe, amplitudes.

Conventions
-----------
* Power split at a rough surface: the specular amplitude reduction R and the
  scattering coefficient S obey R^2 + S^2 = 1, so energy is conserved.
* Diffuse re-radiation follows a directive lobe around the mirror direction,
  weight proportional to ((1 + k_r . k_s) / 2) ** alpha.  The weight is
  normalized to integrate to 1 over the hemisphere centered on the mirror
  direction, making it a proper angular density (1/sr).
* Reflection coefficients are unpolarized: the magnitude is the mean of the
  TE and TM magnitudes, the phase is taken from the TE coefficient.
* Path phase is -2 pi f_c tau plus the per-interaction reflection phases.

Amplitude models (voltage gain relative to unit transmit amplitude):
  LOS:       lambda / (4 pi d) * sqrt(G_tx G_rx)
  specular:  lambda / (4 pi d_total) * sqrt(G_tx G_rx) * prod_i R_i |Gamma_i|
  diffuse:   lambda / (4 pi d1 d2) * sqrt(G_tx G_rx) * S |Gamma|
             * sqrt(A_eff cos(theta_i) cos(theta_s) f_lobe)
The diffuse form treats each sample as a re-radiating patch: intercepted
flux A_eff cos(theta_i) over the first hop, lobe-shaped re-emission over the
second, which is the (4 pi d1 d2) bi-segment spreading written above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import cross, reflect_direction
from .kinematics import WorldSnapshot
from .raytrace import KINDS, PathTable
from .scene import AntennaPattern, Material, Scene, unit

# Rounded engineering value; the radar timing tables in the validated
# configuration are built on it, and the range identities only reproduce
# with this constant.
SPEED_OF_LIGHT = 3.0e8

# Vacuum permittivity in F/m (CODATA 2022).
EPSILON_0 = 8.8541878188e-12


def split_power(scattering_coeff: float) -> tuple[float, float]:
    """(reflection_reduction, scattering_coeff) with R^2 + S^2 = 1."""
    s = float(scattering_coeff)
    if not 0.0 <= s <= 1.0:
        raise ValueError("scattering coefficient must be in [0, 1]")
    return float(np.sqrt(1.0 - s * s)), s


def lobe_normalization(lobe_exponent: int) -> float:
    """Constant C(alpha) so the lobe integrates to 1 over its hemisphere.

    Closed form of 1 / int_hemisphere ((1 + cos psi)/2)^alpha dOmega with psi
    measured from the lobe axis.
    """
    a = int(lobe_exponent)
    if a < 1:
        raise ValueError("lobe exponent must be >= 1")
    return (a + 1) / (4.0 * np.pi * (1.0 - 2.0 ** -(a + 1)))


def lobe_gain(k_mirror: np.ndarray, k_scatter: np.ndarray,
              lobe_exponent: int) -> float:
    """Normalized diffuse lobe density (1/sr) toward k_scatter."""
    dot = float(np.clip(np.dot(unit(np.asarray(k_mirror, dtype=float)),
                               unit(np.asarray(k_scatter, dtype=float))), -1.0, 1.0))
    return lobe_normalization(lobe_exponent) * ((1.0 + dot) / 2.0) ** lobe_exponent


def _complex_permittivity(rel_permittivity, conductivity, f_c):
    return rel_permittivity - 1j * conductivity / (2.0 * np.pi * f_c * EPSILON_0)


def _fresnel_te_tm(eps, cos_theta):
    sin_sq = 1.0 - cos_theta ** 2
    root = np.sqrt(eps - sin_sq)
    g_te = (cos_theta - root) / (cos_theta + root)
    g_tm = (eps * cos_theta - root) / (eps * cos_theta + root)
    return g_te, g_tm


def fresnel_reflection(material, incidence_angle: float, f_c: float) -> complex:
    """Unpolarized reflection coefficient at incidence_angle from the normal.

    Magnitude is the average of the TE and TM magnitudes, phase follows TE.
    """
    if not 0.0 <= incidence_angle < np.pi / 2.0 + 1e-9:
        raise ValueError("incidence angle must be in [0, pi/2)")
    eps = _complex_permittivity(material.rel_permittivity, material.conductivity, f_c)
    g_te, g_tm = _fresnel_te_tm(eps, np.cos(incidence_angle))
    mag = 0.5 * (abs(g_te) + abs(g_tm))
    return complex(mag * np.exp(1j * np.angle(g_te)))


@dataclass
class PathAmplitude:
    """Complex path weight with a per-term dB budget.

    The breakdown entries (spreading, antenna gains, one entry per
    interaction) sum to 20 log10(magnitude).
    """

    magnitude: float
    phase: float
    breakdown: dict[str, float]

    @property
    def complex_amplitude(self) -> complex:
        return complex(self.magnitude * np.exp(1j * self.phase))


_FREE_SPACE = Material("free space", 1.0, 0.0, 0.0, 1)


def _antenna_frame(boresight: np.ndarray) -> np.ndarray:
    """Rows are the antenna frame axes (x boresight, z near global up)."""
    x = unit(np.asarray(boresight, dtype=float))
    ref = np.array([0.0, 0.0, 1.0])
    if abs(float(np.dot(x, ref))) > 0.999:
        ref = np.array([1.0, 0.0, 0.0])
    y = unit(cross(ref, x))
    return np.stack([x, y, cross(x, y)])


def _gains_db(pattern: AntennaPattern, frame: np.ndarray,
              directions: np.ndarray) -> np.ndarray:
    d = directions @ frame.T
    az = np.degrees(np.arctan2(d[:, 1], d[:, 0]))
    el = np.degrees(np.arctan2(d[:, 2], np.hypot(d[:, 0], d[:, 1])))
    return np.asarray(pattern.gain_db(az, el), dtype=float)


def amplitudes_of(paths: PathTable, snap: WorldSnapshot, scene: Scene,
                  tx_id: str, rx_id: str, f_c: float,
                  with_breakdown: bool = False):
    """Vectorized amplitude evaluation for one snapshot's path table.

    Returns a complex array, or a list of PathAmplitude when with_breakdown
    is set.
    """
    if not len(paths):
        return [] if with_breakdown else np.zeros(0, dtype=complex)

    lam = SPEED_OF_LIGHT / f_c
    hop_mask = paths.facets >= 0                            # (n, k)
    first = paths.first()
    rows = np.arange(len(paths))
    segs = np.diff(paths.points, axis=1)                    # (n, k + 1, 3)
    seg_len = np.linalg.norm(segs, axis=2)
    # Padding segments have zero length and stay zero vectors.
    units = segs / np.where(seg_len > 0.0, seg_len, 1.0)[..., None]
    k_in, k_out = units[:, :-1], units[:, 1:]
    departures = segs[rows, first]
    arrivals = segs[:, -1]
    departures = departures / np.sqrt(np.vecdot(departures, departures))[:, None]
    arrivals = arrivals / np.sqrt(np.vecdot(arrivals, arrivals))[:, None]
    is_diffuse = paths.kind == KINDS.index("diffuse")
    lengths = seg_len.sum(axis=1)
    spread_len = np.where(is_diffuse, seg_len[rows, first] * seg_len[:, -1], lengths)

    tx_gain_db = _gains_db(scene.transceiver(tx_id).pattern,
                           _antenna_frame(snap.transceiver_state(tx_id).boresight),
                           departures)
    rx_gain_db = _gains_db(scene.transceiver(rx_id).pattern,
                           _antenna_frame(snap.transceiver_state(rx_id).boresight),
                           -arrivals)
    gain_factor = 10.0 ** ((tx_gain_db + rx_gain_db) / 20.0)

    # The material tables end in free space and the normals in a zero
    # normal, which the -1 facet padding picks, also in a scene without
    # facets.  The factors of padded slots are masked below.
    materials = list(scene.materials.values())
    mat_index = {m.name: j for j, m in enumerate(materials)}
    materials.append(_FREE_SPACE)
    eps_table = np.array([_complex_permittivity(m.rel_permittivity, m.conductivity, f_c)
                          for m in materials])
    s_table = np.array([m.scattering_coeff for m in materials])
    r_table = np.sqrt(1.0 - s_table ** 2)
    alpha_table = np.array([m.lobe_exponent for m in materials], dtype=float)
    norm_table = np.array([lobe_normalization(m.lobe_exponent) for m in materials])
    mat_at = np.array([mat_index[f.material_id] for f in snap.facets] + [-1])[paths.facets]
    normals = np.concatenate([snap.pack.normals, np.zeros((1, 3))])[paths.facets]
    k_mir = reflect_direction(k_in, normals)
    cos_i = np.clip(np.abs(np.einsum("nkj,nkj->nk", k_in, normals)), 0.0, 1.0)
    eps_at = eps_table[mat_at]
    root = np.sqrt(eps_at - (1.0 - cos_i ** 2))
    # padded hop slots (mask False) can hit 0/0 here; any value works for them
    den_te = cos_i + root
    den_tm = eps_at * cos_i + root
    ok_te = np.abs(den_te) > 1e-30
    ok_tm = np.abs(den_tm) > 1e-30
    g_te = np.where(ok_te, (cos_i - root) / np.where(ok_te, den_te, 1.0), 0.0)
    g_tm = np.where(ok_tm, (eps_at * cos_i - root) / np.where(ok_tm, den_tm, 1.0), 0.0)
    gamma_mag = 0.5 * (np.abs(g_te) + np.abs(g_tm))
    gamma_phase = np.angle(g_te)

    spec_factor = r_table[mat_at] * gamma_mag
    cos_s = np.clip(np.einsum("nkj,nkj->nk", k_out, normals), 0.0, 1.0)
    dot = np.clip(np.einsum("nkj,nkj->nk", k_mir, k_out), -1.0, 1.0)
    f_lobe = norm_table[mat_at] * ((1.0 + dot) / 2.0) ** alpha_table[mat_at]
    patch = np.sqrt(np.maximum(paths.area[:, None] * cos_i * cos_s * f_lobe, 0.0))
    diff_factor = s_table[mat_at] * gamma_mag * patch

    factor = np.where(is_diffuse[:, None], diff_factor, spec_factor)
    factor = np.where(hop_mask, factor, 1.0)
    spread = lam / (4.0 * np.pi * spread_len)
    magnitude = spread * gain_factor * np.prod(factor, axis=1)
    phase = (-2.0 * np.pi * f_c * lengths / SPEED_OF_LIGHT
             + np.sum(np.where(hop_mask, gamma_phase, 0.0), axis=1))
    amps = magnitude * np.exp(1j * phase)
    if not with_breakdown:
        return amps

    out = []
    for i, (kind, facets, _) in enumerate(paths.keys()):
        label = "scatter" if kind == "diffuse" else "reflection"
        with np.errstate(divide="ignore"):
            bd = {"spreading_db": float(20.0 * np.log10(spread[i])),
                  "tx_gain_db": float(tx_gain_db[i]),
                  "rx_gain_db": float(rx_gain_db[i])}
            for j, fi in enumerate(facets):
                bd[f"{label}_{j}_facet_{fi}_db"] = float(
                    20.0 * np.log10(factor[i, first[i] + j]))
        out.append(PathAmplitude(float(magnitude[i]), float(phase[i]), bd))
    return out
