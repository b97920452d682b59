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

amplitudes_of evaluates them over a path table with one element-wise kernel
per quantity: specular_reduction (R from S), lobe_density on
lobe_normalization (f_lobe), fresnel on complex_permittivity (|Gamma| and
the TE phase) and antenna_angles on antenna_frame (azimuth and elevation in
degrees).  The table carries the snapshot columns of each row's epoch
(SnapshotBlock.attach), for one epoch or a block of chirps alike.
amplitudes_of builds its small tables (per material, the facet ->
material index and the antenna frames of fixed transceivers) on every
call, once per pass of simulate_cir.
"""

from __future__ import annotations

import numpy as np

from .geometry import cross, reflect_direction, unit
from .raytrace import KINDS, PathTable
from .scene import Material, Scene

# Rounded engineering value; the radar timing tables in the validated
# configuration are built on it, and the range identities only reproduce
# with this constant.
SPEED_OF_LIGHT = 3.0e8

# Vacuum permittivity in F/m (CODATA 2022).
EPSILON_0 = 8.8541878188e-12


def specular_reduction(scattering_coeff):
    """Specular amplitude reduction R = sqrt(1 - S^2) paired with the
    scattering coefficient S, so that R^2 + S^2 = 1."""
    return np.sqrt(1.0 - np.square(scattering_coeff))


def lobe_normalization(lobe_exponent):
    """Constant C(alpha) so the lobe integrates to 1 over its hemisphere.

    Closed form of 1 / int_hemisphere ((1 + cos psi)/2)^alpha dOmega with psi
    measured from the lobe axis; alpha may be an array.
    """
    b = np.asarray(lobe_exponent) + 1.0
    if np.min(b, initial=2.0) < 2.0:
        raise ValueError("lobe exponent must be >= 1")
    return b / (4.0 * np.pi * (1.0 - 0.5 ** b))


def lobe_density(cos_psi, lobe_exponent, normalization=None):
    """Normalized diffuse lobe density (1/sr) at angle psi from the mirror
    direction, element-wise over cos_psi and lobe_exponent; normalization,
    when given, is lobe_normalization(lobe_exponent) computed beforehand."""
    if normalization is None:
        normalization = lobe_normalization(lobe_exponent)
    return normalization * ((1.0 + cos_psi) / 2.0) ** lobe_exponent


def complex_permittivity(rel_permittivity, conductivity, f_c):
    """eps_r - j sigma / (2 pi f_c eps_0), relative to vacuum."""
    return rel_permittivity - 1j * conductivity / (2.0 * np.pi * f_c * EPSILON_0)


def fresnel(eps, cos_theta):
    """Unpolarized (|Gamma|, TE phase) for the complex relative permittivity
    eps at incidence cos_theta in [0, 1].  A vanishing denominator, which a
    padded hop slot can give as 0/0, yields a coefficient of 0."""
    root = np.sqrt(eps - (1.0 - cos_theta ** 2))
    den_te = cos_theta + root
    den_tm = eps * cos_theta + root
    ok_te = np.abs(den_te) > 1e-30
    ok_tm = np.abs(den_tm) > 1e-30
    g_te = np.where(ok_te, (cos_theta - root) / np.where(ok_te, den_te, 1.0), 0.0)
    g_tm = np.where(ok_tm, (eps * cos_theta - root) / np.where(ok_tm, den_tm, 1.0), 0.0)
    return 0.5 * (np.abs(g_te) + np.abs(g_tm)), np.angle(g_te)


def antenna_frame(boresight):
    """Antenna frame rows x, y, z, (..., 3, 3) for boresights (..., 3): x
    along the boresight, z as close to global up as the boresight allows.
    For a vertical boresight, global x replaces global up as the frame
    reference."""
    x = unit(boresight)
    vertical = np.abs(x[..., 2:]) > 0.999
    y = unit(cross(np.where(vertical, (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)), x))
    return np.stack([x, y, cross(x, y)], axis=-2)


def antenna_angles(boresight, directions, frame=None):
    """Azimuth and elevation in degrees of unit directions (..., 3) in the
    antenna frame of the boresight, element-wise over the leading axes;
    frame, when given, is antenna_frame(boresight) computed beforehand."""
    if frame is None:
        frame = antenna_frame(np.asarray(boresight, dtype=float))
    d = np.vecdot(np.asarray(directions)[..., None, :], frame)
    az = np.degrees(np.arctan2(d[..., 1], d[..., 0]))
    el = np.degrees(np.arctan2(d[..., 2], np.hypot(d[..., 0], d[..., 1])))
    return az, el


_FREE_SPACE = Material("free space", 1.0, 0.0, 0.0, 1)


def amplitudes_of(paths: PathTable, scene: Scene, tx_id: str, rx_id: str, f_c: float,
                  with_breakdown: bool = False):
    """Vectorized amplitude evaluation for a path table that carries its
    snapshot columns (SnapshotBlock.attach).

    Returns the complex amplitudes, and with with_breakdown also their dB
    budget: a dict of the (n,) columns spreading_db, tx_gain_db and
    rx_gain_db and the (n, K) column hop_db, one term per interaction in
    the facets layout and 0 dB in the padding.  Each row's terms sum to
    20 log10 |a|.
    """
    # Per material, ending in free space, which the -1 facet padding picks
    # also in a scene without facets: permittivity, the splits S and R, the
    # lobe exponent and its normalization.
    materials = [*scene.materials.values(), _FREE_SPACE]
    row = {name: j for j, name in enumerate(scene.materials)}
    facet_material = np.array([row[f.material_id] for f in scene.facets] + [-1])
    eps = np.array([complex_permittivity(m.rel_permittivity, m.conductivity, f_c)
                    for m in materials])
    s = np.array([m.scattering_coeff for m in materials])
    alpha = np.array([m.lobe_exponent for m in materials], dtype=float)
    # A fixed transceiver's antenna frame; one on a body follows each row's
    # boresight.
    tx, rx = scene.transceiver(tx_id), scene.transceiver(rx_id)
    tx_frame, rx_frame = (antenna_frame(np.asarray(trx.boresight, dtype=float))
                          if trx.is_fixed else None for trx in (tx, rx))

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

    tx_gain_db = tx.pattern.gain_db(*antenna_angles(paths.tx_boresight, departures, tx_frame))
    rx_gain_db = rx.pattern.gain_db(*antenna_angles(paths.rx_boresight, -arrivals, rx_frame))
    gain_factor = 10.0 ** ((tx_gain_db + rx_gain_db) / 20.0)

    # The -1 facet padding picks free space and a zero normal; the factors
    # of padded slots are masked below.
    mat_at = facet_material[paths.facets]
    normals = paths.normals
    k_mir = reflect_direction(k_in, normals)
    cos_i = np.clip(np.abs(np.einsum("nkj,nkj->nk", k_in, normals)), 0.0, 1.0)
    gamma_mag, gamma_phase = fresnel(eps[mat_at], cos_i)

    split = np.where(is_diffuse[:, None], s[mat_at], specular_reduction(s)[mat_at])
    cos_s = np.clip(np.einsum("nkj,nkj->nk", k_out, normals), 0.0, 1.0)
    dot = np.clip(np.einsum("nkj,nkj->nk", k_mir, k_out), -1.0, 1.0)
    f_lobe = lobe_density(dot, alpha[mat_at], lobe_normalization(alpha)[mat_at])
    patch = np.sqrt(np.maximum(paths.area[:, None] * cos_i * cos_s * f_lobe, 0.0))
    patch = np.where(is_diffuse[:, None], patch, 1.0)

    factor = np.where(hop_mask, split * gamma_mag * patch, 1.0)
    spread = lam / (4.0 * np.pi * spread_len)
    magnitude = spread * gain_factor * np.prod(factor, axis=1)
    phase = (-2.0 * np.pi * f_c * lengths / SPEED_OF_LIGHT
             + np.sum(np.where(hop_mask, gamma_phase, 0.0), axis=1))
    amps = magnitude * np.exp(1j * phase)
    if not with_breakdown:
        return amps

    # A hop's term is a sum of logs: the product of its factors underflows
    # to 0 for a subnormal scattering coefficient, its logs do not.
    with np.errstate(divide="ignore"):
        spread_db = 20.0 * np.log10(spread)
        hop_db = 20.0 * (np.log10(split) + np.log10(gamma_mag) + np.log10(patch))
    return amps, {"spreading_db": spread_db, "tx_gain_db": tx_gain_db,
                  "rx_gain_db": rx_gain_db, "hop_db": np.where(hop_mask, hop_db, 0.0)}
