"""Geometry calibration: target matching, idempotence, failure reporting."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmemsim import calibrate, resonance
from qmemsim.array import build_array
from qmemsim.calibrate import (
    CalibrationError,
    CalibrationTargets,
    calibrate_geometry,
    find_root,
    isolated_sc_trace,
    measure_isolated_tcr,
    sc_branch_resonance,
    tcr_branch_resonance,
)
from qmemsim.cell import tcr_mode_estimate
from qmemsim.resonance import find_resonances
from tests.conftest import ANCHOR, Q_C, TARGETS


class TestBisect:
    """find_root, the calibration's bracketed root-finder."""

    def test_finds_root(self):
        root = find_root(lambda x: x * x - 2.0, 0.0, 2.0, "test")
        assert root == pytest.approx(np.sqrt(2.0), rel=1e-9)

    def test_unbracketed_raises_with_stage(self):
        with pytest.raises(CalibrationError, match="storage"):
            find_root(lambda x: x + 10.0, 0.0, 1.0, "storage cavity length")

    def test_error_inside_fn_propagates(self):
        def fn(x):
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            find_root(fn, 0.0, 1.0, "storage cavity length")

    @pytest.mark.parametrize("rtol", [1e-9, 1e-12, 4 * np.finfo(float).eps])
    def test_each_element_lands_on_its_sign_change(self, rtol):
        c = np.array([1e-6, 0.5, 2.0, 3.0, 7e5])

        def fn(x):
            return x**3 - c

        root = find_root(fn, np.zeros(5), np.full(5, 200.0), "test", rtol=rtol)
        assert root.shape == (5,)
        assert np.all(fn(root * (1.0 - rtol)) * fn(root * (1.0 + rtol)) <= 0)

    def test_one_unbracketed_element_raises_with_stage(self):
        with pytest.raises(CalibrationError, match="coupling resonator length"):
            find_root(lambda x: x - np.array([0.5, 2.0, 0.25]), np.zeros(3), np.ones(3),
                      "coupling resonator length")

    def test_error_inside_fn_propagates_from_a_vector(self):
        def fn(x):
            if np.any(x > 0.7):
                raise ValueError("boom")
            return x - 0.5

        with pytest.raises(ValueError, match="boom"):
            find_root(fn, np.zeros(2), np.array([0.6, 1.0]), "storage cavity length")

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.1, 10.0)), min_size=1,
                    max_size=6))
    def test_vector_elements_equal_their_own_solves(self, cases):
        # an element's iterates depend only on its own values
        r, k = (np.array(v) for v in zip(*cases))

        def fn(x, r=r, k=k):
            return (x - r) * (k + (x - r) ** 2)

        lo, hi = r - 5.0, r + 2.0 * k
        together = find_root(fn, lo, hi, "test")
        for i in range(len(r)):
            alone = find_root(lambda x: fn(x, r[i:i + 1], k[i:i + 1]), lo[i:i + 1],
                              hi[i:i + 1], "test")
            assert together[i] == alone[0]

    def test_bracket_values_give_the_same_root_from_two_calls_fewer(self):
        c = np.array([1e-6, 0.5, 2.0, 3.0, 7e5])
        lo, hi = np.zeros(5), np.full(5, 200.0)
        calls = []

        def fn(x):
            calls.append(x)
            return x**3 - c

        fresh = find_root(fn, lo, hi, "test")
        n_fresh = len(calls)
        calls.clear()
        given = find_root(fn, lo, hi, "test", f_lo=lo**3 - c, f_hi=hi**3 - c)
        assert given.tobytes() == fresh.tobytes()
        assert len(calls) == n_fresh - 2


def test_scan_values_at_bracket_ends_are_the_root_finds_own(template, monkeypatch):
    # find_root starts from the values the scan already holds at each
    # bracket end: they must be the bits its own evaluation would give
    checked = set()

    def checking(fn, lo, hi, stage, rtol=1e-9, f_lo=None, f_hi=None):
        if stage != "input capacitor":  # a memoised trial, not a scan
            assert f_lo is not None and f_hi is not None
            assert f_lo.tobytes() == fn(lo).tobytes()
            assert f_hi.tobytes() == fn(hi).tobytes()
            checked.add(stage)
        return find_root(fn, lo, hi, stage, rtol, f_lo, f_hi)

    monkeypatch.setattr(calibrate, "find_root", checking)
    calibrate_geometry(CalibrationTargets(f_sc=TARGETS[0], l_anchor=ANCHOR, q_c=Q_C), template)
    sc_branch_resonance(template)
    tcr_branch_resonance(template, ANCHOR)
    assert checked == {"storage cavity length", "coupling resonator length",
                       "storage cavity", "coupling resonator"}


class TestCalibratedCell:
    def test_sc_resonance_hits_target(self, cell):
        # a root-find at 1e-9 relative on the length leaves ~10 Hz on the
        # frequency, far inside the 1 MHz calibration tolerance
        assert sc_branch_resonance(cell) == pytest.approx(TARGETS[0], abs=100.0)

    def test_sc_resonance_independent_oracle(self, cell):
        # notch fit of the directly tapped cavity branch, an independent
        # measurement path from the calibration's reactance root-find
        f0 = TARGETS[0]
        grid = np.linspace(f0 - 30e6, f0 + 30e6, 12001)
        freqs, s21 = isolated_sc_trace(cell, grid)
        peaks = find_resonances(freqs, s21, min_depth_db=0.1)
        assert len(peaks) >= 1
        peak = max(peaks, key=lambda p: p.depth_db)
        assert peak.f0 == pytest.approx(f0, abs=1e6)

    def test_tcr_resonance_at_anchor(self, cell):
        assert tcr_branch_resonance(cell, ANCHOR) == pytest.approx(TARGETS[0], abs=10.0)

    def test_coupling_q_matches_target(self, cell):
        peak = measure_isolated_tcr(cell, ANCHOR)
        assert peak.q_coupling == pytest.approx(Q_C, rel=1e-3)

    def test_recalibration_is_fixed_point(self, cell):
        targets = CalibrationTargets(f_sc=TARGETS[0], l_anchor=ANCHOR, q_c=Q_C)
        again = calibrate_geometry(targets, cell)
        for name in ("sc_len", "tcr_half_len", "c_in"):
            a, b = getattr(cell, name), getattr(again, name)
            assert abs(a - b) / abs(a) < 1e-6

    def test_seed_estimate_near_quarter_wave(self, cell):
        # the solved stub is near (slightly below) the bare lambda/4 length
        bare = cell.phase_velocity / (4.0 * TARGETS[0])
        assert 0.9 * bare < cell.sc_len < bare


def test_zero_hidden_below_a_pole_is_rescanned(cell, monkeypatch):
    # a weak input capacitor puts the TCR's zero (6.6319 GHz) 2.2 MHz below
    # its pole, inside one 5.7 MHz step of the scan: Im Z falls while
    # negative across that step, which is scanned again
    weak = replace(cell, c_in=0.5e-15)
    branch = calibrate._tcr_branch_impedance
    scans = []

    def spy(cell_, l_j, f):
        if np.shape(f)[-1] > 1:
            scans.append(np.shape(f))
        return branch(cell_, l_j, f)

    monkeypatch.setattr(calibrate, "_tcr_branch_impedance", spy)
    f_r = tcr_branch_resonance(weak, ANCHOR)
    assert scans == [(1, 600), (1, 600)]

    # oracle: a scan fine enough to step between zero and pole, over the
    # same window, in pieces, refined to 1e-12
    def reactance(f):
        return branch(weak, ANCHOR, f).imag

    near = tcr_mode_estimate(weak, ANCHOR)
    s = np.linspace(0.6 * near, 1.1 * near, 2_000_001)
    x = np.concatenate([reactance(part) for part in np.array_split(s, 20)])
    up = np.flatnonzero((x[:-1] < 0) & (x[1:] >= 0))
    i = up[np.argmin(np.abs(0.5 * (s[up] + s[up + 1]) - near))]
    expected = find_root(reactance, s[i], s[i + 1], "oracle", rtol=1e-12)
    # the calibration's own tolerance; the pole is 3e-4 away
    assert f_r == pytest.approx(expected, rel=1e-9)
    assert reactance(f_r * (1 - 1e-9)) < 0 < reactance(f_r * (1 + 1e-9))


class TestLockstep:
    @settings(max_examples=4, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
        st.floats(1500.0, 3500.0),
        st.floats(190e-12, 250e-12),
    )
    def test_array_cells_equal_single_calibrations(self, template, offsets, q_c, l_anchor):
        # the benchmark's band plan: 6.40-6.90 GHz, at least 60 MHz apart
        free = 0.5e9 - 60e6 * (len(offsets) - 1)
        targets = [6.40e9 + 60e6 * i + free * o for i, o in enumerate(sorted(offsets))]
        array = build_array(targets, template, l_anchor=l_anchor, q_c=q_c)
        for cell_i, f_t in zip(array.cells, targets):
            alone = calibrate_geometry(
                CalibrationTargets(f_sc=f_t, l_anchor=l_anchor, q_c=q_c), template)
            assert cell_i == alone

    def test_network_calls_bounded(self, template, chain_calls):
        # 66 calls on this plan; re-solving each repeated (cell, c_in) trial
        # and each bracket end of a scan made 116
        build_array(TARGETS, template, l_anchor=ANCHOR, q_c=Q_C)
        assert 0 < len(chain_calls) <= 80

    def test_no_cell_solves_a_trial_twice(self, template, monkeypatch):
        # every stage-(ii) solve hands its lengths, one row per cell, to the
        # stage-(iii) peaks: record each row's (target, c_in) there
        rows, trials = [], []
        series, peaks = calibrate._series_resonance, calibrate._isolated_tcr_peaks

        def series_spy(reactance, near, span, n_scan, stage):
            if stage == "coupling resonator length":
                rows.append(len(near))
            return series(reactance, near, span, n_scan, stage)

        def peaks_spy(cell, l_j, f_r):
            trials.extend(zip(np.asarray(f_r).tolist(), np.asarray(cell.c_in).tolist()))
            return peaks(cell, l_j, f_r)

        monkeypatch.setattr(calibrate, "_series_resonance", series_spy)
        monkeypatch.setattr(calibrate, "_isolated_tcr_peaks", peaks_spy)
        build_array(TARGETS, template, l_anchor=ANCHOR, q_c=Q_C)
        assert sum(rows) == len(trials) > 0
        assert len(set(trials)) == len(trials)
        assert {f for f, _ in trials} == set(TARGETS)


class TestFourTargets:
    def test_lengths_strictly_decreasing(self, array):
        sc_lens = [c.sc_len for c in array.cells]
        assert all(b < a for a, b in zip(sc_lens, sc_lens[1:]))
        assert len(set(sc_lens)) == len(sc_lens)

    def test_each_target_within_megahertz(self, array):
        for cell_i, target in zip(array.cells, array.targets):
            assert sc_branch_resonance(cell_i) == pytest.approx(target, abs=1e6)


class TestFailures:
    def test_unreachable_target_names_stage(self, template):
        bad = CalibrationTargets(f_sc=500e9, l_anchor=ANCHOR, q_c=Q_C)
        with pytest.raises(CalibrationError):
            calibrate_geometry(bad, template)

    def test_unreachable_qc_names_stage(self, template):
        bad = CalibrationTargets(f_sc=TARGETS[0], l_anchor=ANCHOR, q_c=1e30)
        with pytest.raises(CalibrationError, match="input capacitor"):
            calibrate_geometry(bad, template)

    def test_target_validation(self):
        with pytest.raises(ValueError):
            CalibrationTargets(f_sc=-1.0, l_anchor=ANCHOR, q_c=Q_C)

    def test_root_outside_its_bracket_names_stage(self, cell, monkeypatch):
        monkeypatch.setattr(resonance, "complex_zeros",
                            lambda fn, seeds, lo, hi: np.full(np.shape(seeds), np.nan + 0j))
        with pytest.raises(CalibrationError, match="coupling resonator"):
            measure_isolated_tcr(cell, ANCHOR)
