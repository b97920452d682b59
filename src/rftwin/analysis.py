"""Delay-Doppler map analysis: peak extraction and cross-map comparison."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fmcw import DelayDopplerMap


@dataclass(frozen=True)
class Peak:
    doppler_bin: int
    delay_bin: int
    doppler_hz: float
    delay_s: float
    power_db: float


def extract_peaks(ddm: DelayDopplerMap, threshold_db: float = 30.0,
                  min_separation: int = 2, max_peaks: int = 64) -> list[Peak]:
    """Local maxima within threshold_db of the map peak, strongest first.

    A cell qualifies if it is >= all eight neighbours; peaks closer than
    min_separation bins (Chebyshev distance) to an already accepted
    stronger peak are suppressed.  Only the cells at or above the cut are
    tested, so past one pass over the map the cost follows their number.
    A neighbour index beyond the edge is clipped onto the map, which makes
    it the cell itself or another of its neighbours.
    """
    p = ddm.power_db
    cut = p.max() - threshold_db
    i, j = np.divmod(np.flatnonzero(p >= cut), p.shape[1])
    value = p[i, j]
    is_max = np.ones(len(value), dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di or dj:
                is_max &= value >= p[np.clip(i + di, 0, p.shape[0] - 1),
                                     np.clip(j + dj, 0, p.shape[1] - 1)]
    rows, cols, value = i[is_max].tolist(), j[is_max].tolist(), value[is_max]
    peaks: list[Peak] = []
    for idx in np.argsort(value)[::-1].tolist():
        i, j = rows[idx], cols[idx]
        if any(max(abs(i - q.doppler_bin), abs(j - q.delay_bin)) < min_separation
               for q in peaks):
            continue
        peaks.append(Peak(i, j, float(ddm.doppler_axis[i]),
                          float(ddm.delay_axis[j]), float(p[i, j])))
        if len(peaks) >= max_peaks:
            break
    return peaks


@dataclass(frozen=True)
class PeakMatch:
    reference: Peak
    test: Peak

    @property
    def delay_bin_error(self) -> int:
        return self.test.delay_bin - self.reference.delay_bin

    @property
    def doppler_bin_error(self) -> int:
        return self.test.doppler_bin - self.reference.doppler_bin

    @property
    def power_error_db(self) -> float:
        return self.test.power_db - self.reference.power_db


@dataclass
class MatchReport:
    matches: list[PeakMatch] = field(default_factory=list)
    unmatched_reference: list[Peak] = field(default_factory=list)
    unmatched_test: list[Peak] = field(default_factory=list)

    @property
    def max_delay_bin_error(self) -> int:
        return max((abs(m.delay_bin_error) for m in self.matches), default=0)

    @property
    def max_doppler_bin_error(self) -> int:
        return max((abs(m.doppler_bin_error) for m in self.matches), default=0)

    @property
    def max_power_error_db(self) -> float:
        return max((abs(m.power_error_db) for m in self.matches), default=0.0)

    def summary(self) -> str:
        return (f"{len(self.matches)} matched, "
                f"{len(self.unmatched_reference)} reference-only, "
                f"{len(self.unmatched_test)} test-only; "
                f"max |delay err| {self.max_delay_bin_error} bins, "
                f"max |doppler err| {self.max_doppler_bin_error} bins, "
                f"max |power err| {self.max_power_error_db:.2f} dB")


def _axes_match(a: DelayDopplerMap, b: DelayDopplerMap) -> bool:
    return (a.power_db.shape == b.power_db.shape
            and np.allclose(a.delay_axis, b.delay_axis)
            and np.allclose(a.doppler_axis, b.doppler_axis))


def match_maps(reference: DelayDopplerMap, test: DelayDopplerMap,
               threshold_db: float = 30.0, gate_bins: int = 3,
               min_separation: int = 2) -> MatchReport:
    """Greedy nearest-peak association between two maps on identical axes.

    Reference peaks are visited strongest first; each takes the closest
    unclaimed test peak within gate_bins on both axes.
    """
    if not _axes_match(reference, test):
        raise ValueError("maps have different axes; compare maps produced "
                         "with the same chirp config and window length")
    ref_peaks = extract_peaks(reference, threshold_db, min_separation)
    test_peaks = extract_peaks(test, threshold_db, min_separation)
    report = MatchReport()
    free = list(test_peaks)
    for rp in ref_peaks:
        best = None
        best_d = None
        for tp in free:
            dd = abs(tp.doppler_bin - rp.doppler_bin)
            dt = abs(tp.delay_bin - rp.delay_bin)
            if dd > gate_bins or dt > gate_bins:
                continue
            d = (dd * dd + dt * dt, -tp.power_db)
            if best_d is None or d < best_d:
                best, best_d = tp, d
        if best is None:
            report.unmatched_reference.append(rp)
        else:
            free.remove(best)
            report.matches.append(PeakMatch(rp, best))
    report.unmatched_test = free
    return report


def ridge_fraction(ddm: DelayDopplerMap, half_width_bins: int = 1) -> float:
    """Fraction of total linear map power within +-half_width_bins of zero
    Doppler."""
    power = ddm.power_linear()
    zero = int(np.argmin(np.abs(ddm.doppler_axis)))
    lo = max(zero - half_width_bins, 0)
    hi = min(zero + half_width_bins + 1, power.shape[0])
    return float(power[lo:hi].sum() / power.sum())

