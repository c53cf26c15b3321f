"""Geometry calibration: target matching, idempotence, failure reporting."""
import numpy as np
import pytest

from qmemsim import calibrate
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
        monkeypatch.setattr(calibrate, "complex_zeros",
                            lambda fn, seeds, lo, hi: np.full(2, np.nan + 0j))
        with pytest.raises(CalibrationError, match="coupling resonator"):
            measure_isolated_tcr(cell, ANCHOR)
