"""Peak extraction and map comparison on hand-built grids."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rftwin.analysis import (
    MatchReport,
    Peak,
    PeakMatch,
    extract_peaks,
    match_maps,
    ridge_fraction,
)
from rftwin.fmcw import DelayDopplerMap


def grid_map(power_linear):
    n_dopp, n_del = power_linear.shape
    return DelayDopplerMap(
        10.0 * np.log10(np.maximum(power_linear, 1e-30)),
        np.arange(n_del) * 1e-9,
        (np.arange(n_dopp) - n_dopp // 2) * 10.0,
        {})


def three_peak_map():
    power = np.full((33, 41), 1e-12)
    power[16, 20] = 1.0      # strongest, on the zero-Doppler row
    power[10, 8] = 0.25      # -6 dB
    power[25, 33] = 0.01     # -20 dB
    return grid_map(power)


def test_extract_peaks_orders_and_locates():
    peaks = extract_peaks(three_peak_map(), threshold_db=30.0)
    assert [(p.doppler_bin, p.delay_bin) for p in peaks] == [
        (16, 20), (10, 8), (25, 33)]
    assert peaks[0].power_db == pytest.approx(0.0, abs=1e-9)
    assert peaks[1].power_db == pytest.approx(-6.0206, abs=1e-3)
    assert peaks[0].doppler_hz == 0.0
    assert peaks[0].delay_s == pytest.approx(20e-9)


def test_extract_peaks_threshold_and_cap():
    ddm = three_peak_map()
    assert len(extract_peaks(ddm, threshold_db=10.0)) == 2   # -20 dB peak cut
    assert len(extract_peaks(ddm, threshold_db=3.0)) == 1
    assert len(extract_peaks(ddm, threshold_db=30.0, max_peaks=2)) == 2


def test_extract_peaks_suppresses_close_neighbours():
    power = np.full((17, 17), 1e-12)
    power[8, 8] = 1.0
    power[8, 10] = 0.9       # separate local max two bins away (dip between)
    power[8, 14] = 0.5       # clear of the main peak
    ddm = grid_map(power)
    peaks = extract_peaks(ddm, threshold_db=30.0, min_separation=3)
    assert [(p.doppler_bin, p.delay_bin) for p in peaks] == [(8, 8), (8, 14)]
    peaks = extract_peaks(ddm, threshold_db=30.0, min_separation=2)
    assert len(peaks) == 3
    # a shoulder cell dominated by its neighbour is never a candidate
    shoulder = np.full((17, 17), 1e-12)
    shoulder[8, 8] = 1.0
    shoulder[8, 9] = 0.95
    shoulder[8, 14] = 0.5
    assert len(extract_peaks(grid_map(shoulder), 30.0, min_separation=1)) == 2


def dense_extract_peaks(ddm, threshold_db=30.0, min_separation=2, max_peaks=64):
    """extract_peaks as it was, comparing every cell of the -inf padded map
    with its eight neighbours: the reference for the candidate-only one."""
    p = ddm.power_db
    cut = p.max() - threshold_db
    pad = np.pad(p, 1, mode="constant", constant_values=-np.inf)
    is_max = np.ones_like(p, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            is_max &= p >= pad[1 + di:1 + di + p.shape[0],
                               1 + dj:1 + dj + p.shape[1]]
    cand = np.argwhere(is_max & (p >= cut))
    order = np.argsort(p[cand[:, 0], cand[:, 1]])[::-1]
    peaks = []
    for idx in order:
        i, j = map(int, cand[idx])
        if any(max(abs(i - q.doppler_bin), abs(j - q.delay_bin)) < min_separation
               for q in peaks):
            continue
        peaks.append(Peak(i, j, float(ddm.doppler_axis[i]),
                          float(ddm.delay_axis[j]), float(p[i, j])))
        if len(peaks) >= max_peaks:
            break
    return peaks


# Small integer dB levels keep max - (max - level) == level exact; a map
# draws its cells from a few of them, so plateaus and ties are common, and
# -inf, NaN and +inf cells ride along.
CELL_DB = st.one_of(st.integers(-6, 6).map(float),
                    st.sampled_from([-np.inf, np.nan, np.inf, -300.0]))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
@example(data=None)
def test_extract_peaks_matches_the_dense_neighbour_test(data):
    """Same Peak lists, in the same order, as the dense reference: on
    plateaus and ties, -inf and NaN cells, edges and corners, 1 x N and
    N x 1 maps, thresholds landing on a cell's value, and various
    min_separation and max_peaks."""
    if data is None:                    # a 1 x N plateau cut at its own level
        power, threshold, sep, cap = np.array([[2.0, 2.0, -np.inf, 2.0, 1.0]]), 0.0, 1, 64
    else:
        rows, cols = data.draw(st.integers(1, 20)), data.draw(st.integers(1, 20))
        levels = data.draw(st.lists(CELL_DB, min_size=1, max_size=5))
        power = np.array(data.draw(st.lists(st.sampled_from(levels), min_size=rows * cols,
                                            max_size=rows * cols))).reshape(rows, cols)
        finite = power[np.isfinite(power)]
        top = power.max()
        at_cell = [float(top - v) for v in finite.tolist()] if np.isfinite(top) else []
        threshold = data.draw(st.sampled_from(at_cell + [0.0, 2.5, 30.0, 1e9]))
        sep = data.draw(st.integers(0, 4))
        cap = data.draw(st.sampled_from([1, 2, 3, 64]))
    ddm = DelayDopplerMap(power, np.arange(power.shape[1]) * 1e-9,
                          (np.arange(power.shape[0]) - power.shape[0] // 2) * 10.0, {})
    assert (extract_peaks(ddm, threshold, sep, cap)
            == dense_extract_peaks(ddm, threshold, sep, cap))


def test_match_identical_maps_is_exact():
    ddm = three_peak_map()
    report = match_maps(ddm, ddm)
    assert len(report.matches) == 3
    assert not report.unmatched_reference and not report.unmatched_test
    assert report.max_delay_bin_error == 0
    assert report.max_doppler_bin_error == 0
    assert report.max_power_error_db == 0.0
    assert "3 matched, 0 reference-only, 0 test-only" in report.summary()


def test_match_shifted_map_reports_bin_errors():
    ref = three_peak_map()
    shifted = grid_map(np.roll(np.roll(10.0 ** (ref.power_db / 10.0), 1, 0), 1, 1))
    shifted = DelayDopplerMap(shifted.power_db, ref.delay_axis,
                              ref.doppler_axis, {})
    report = match_maps(ref, shifted)
    assert len(report.matches) == 3
    assert all(m.delay_bin_error == 1 for m in report.matches)
    assert all(m.doppler_bin_error == 1 for m in report.matches)
    assert report.max_delay_bin_error == 1
    assert report.max_power_error_db == pytest.approx(0.0, abs=1e-9)


def test_match_counts_unpaired_peaks():
    ref = three_peak_map()
    power = 10.0 ** (ref.power_db / 10.0)
    power[25, 33] = 1e-12            # drop the weakest reference peak
    power[4, 4] = 0.1                # and add one the reference lacks
    test = DelayDopplerMap(10 * np.log10(np.maximum(power, 1e-30)),
                           ref.delay_axis, ref.doppler_axis, {})
    report = match_maps(ref, test)
    assert len(report.matches) == 2
    assert len(report.unmatched_reference) == 1
    assert report.unmatched_reference[0].delay_bin == 33
    assert len(report.unmatched_test) == 1
    assert report.unmatched_test[0].delay_bin == 4


def test_match_gate_excludes_far_peaks():
    ref = three_peak_map()
    power = np.full((33, 41), 1e-12)
    power[16, 20] = 1.0
    power[10, 8 + 5] = 0.25          # 5 delay bins off, beyond the 3-bin gate
    power[25, 33] = 0.01
    test = DelayDopplerMap(10 * np.log10(np.maximum(power, 1e-30)),
                           ref.delay_axis, ref.doppler_axis, {})
    report = match_maps(ref, test, gate_bins=3)
    assert len(report.matches) == 2
    assert len(report.unmatched_reference) == 1
    assert len(report.unmatched_test) == 1


def test_match_rejects_mismatched_axes():
    a = three_peak_map()
    b = grid_map(np.full((33, 40), 1e-12))
    with pytest.raises(ValueError, match="different axes"):
        match_maps(a, b)


def test_peak_match_error_properties():
    r = Peak(10, 20, 0.0, 2e-8, -3.0)
    t = Peak(11, 19, 10.0, 1.9e-8, -4.5)
    m = PeakMatch(r, t)
    assert m.doppler_bin_error == 1
    assert m.delay_bin_error == -1
    assert m.power_error_db == pytest.approx(-1.5)
    empty = MatchReport()
    assert empty.max_delay_bin_error == 0
    assert empty.max_power_error_db == 0.0


def test_ridge_fraction():
    power = np.zeros((33, 41))
    power[16, 5] = 4.0               # zero-Doppler row
    assert ridge_fraction(grid_map(power)) == pytest.approx(1.0)
    power[26, 7] = 4.0               # moving target far from the ridge
    assert ridge_fraction(grid_map(power)) == pytest.approx(0.5)
    # widening the ridge window to reach the second peak recovers it
    assert ridge_fraction(grid_map(power), half_width_bins=10) == pytest.approx(1.0)
    power2 = np.zeros((33, 41))
    power2[17, 5] = 1.0              # one bin off zero, inside default width
    assert ridge_fraction(grid_map(power2)) == pytest.approx(1.0)
    power2[18, 5] = 1.0              # two bins off, outside default width
    assert ridge_fraction(grid_map(power2)) == pytest.approx(0.5)

