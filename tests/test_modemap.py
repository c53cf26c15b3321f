"""Mode map and avoided-crossing fit."""
import numpy as np
import pytest

from qmemsim import modemap
from qmemsim.modemap import (
    ModeMap,
    ModeMapRow,
    default_band,
    fit_avoided_crossing,
    hybridized_map,
    mode_map,
)
from tests.conftest import ANCHOR


def synth_coeffs(rng):
    """Random monotone-decreasing cubic bare branch over 10-500 pH, Hz(H)."""
    f0 = rng.uniform(6.8e9, 7.1e9)
    slope = -rng.uniform(1.2e6, 2.5e6) / 1e-12  # Hz per henry
    quad = rng.uniform(-1e3, 1e3) / 1e-24
    cub = rng.uniform(-0.5, 0.5) / 1e-36
    return (cub, quad, slope, f0 - slope * 1e-12 * 0)


class TestSyntheticOracle:
    def test_recovers_known_coupling(self):
        rng = np.random.default_rng(2024)
        l_grid = np.linspace(10e-12, 500e-12, 41)
        for _ in range(20):
            coeffs = synth_coeffs(rng)
            f_b = float(np.polyval(coeffs, 250e-12)) - rng.uniform(-50e6, 50e6)
            g_true = rng.uniform(50e6, 500e6)
            mm = hybridized_map(l_grid, coeffs, f_b, g_true)
            fit = fit_avoided_crossing(mm)
            assert fit.g == pytest.approx(g_true, rel=1e-2)
            assert fit.f_cross == pytest.approx(f_b, rel=1e-3)

    def test_crossing_location_recovered(self):
        coeffs = (0.0, 0.0, -2e6 / 1e-12, 7.0e9)
        f_b = 6.6e9  # crossing at 200 pH for the linear branch
        mm = hybridized_map(np.linspace(10e-12, 500e-12, 41), coeffs, f_b, 250e6)
        fit = fit_avoided_crossing(mm)
        assert fit.l_cross == pytest.approx(200e-12, rel=1e-2)

    def test_vanishing_coupling_degenerates(self):
        coeffs = (0.0, 0.0, -2e6 / 1e-12, 7.0e9)
        mm = hybridized_map(np.linspace(10e-12, 500e-12, 81), coeffs, 6.6e9, 1e5)
        fit = fit_avoided_crossing(mm)
        assert np.min(mm.splitting) < 1e6
        assert fit.g < 1e6
        assert fit.window[1] - fit.window[0] < 5e-12

    def test_crossing_outside_grid_rejected(self):
        coeffs = (0.0, 0.0, -2e6 / 1e-12, 7.0e9)
        mm = hybridized_map(np.linspace(10e-12, 100e-12, 21), coeffs, 6.0e9, 250e6)
        with pytest.raises(ValueError, match="not bracketed"):
            fit_avoided_crossing(mm)

    def test_too_few_rows_rejected(self):
        coeffs = (0.0, 0.0, -2e6 / 1e-12, 7.0e9)
        mm = hybridized_map(np.linspace(150e-12, 260e-12, 5), coeffs, 6.6e9, 250e6)
        with pytest.raises(ValueError, match="8"):
            fit_avoided_crossing(mm)


class TestCellModeMap:
    def test_complete_rows(self, standard_map):
        assert len(standard_map.rows) == 61
        assert standard_map.flagged == ()

    def test_mode_ordering(self, standard_map):
        assert np.all(standard_map.f1 < standard_map.f2)

    def test_unique_interior_minimum(self, standard_map):
        sp = standard_map.splitting
        i = int(np.argmin(sp))
        assert 0 < i < len(sp) - 1
        assert np.all(np.diff(sp[: i + 1]) < 0)
        assert np.all(np.diff(sp[i:]) > 0)

    def test_branch_continuity(self, standard_map):
        # adjacent-row jumps bounded by 5x the local grid-induced change
        for f in (standard_map.f1, standard_map.f2):
            steps = np.abs(np.diff(f))
            local = np.median(steps)
            assert np.max(steps) < 5.0 * max(local, 1e6)

    def test_detuned_rows_exchange_mode_character(self, standard_map, crossing):
        # at 50 pH the coupler branch is the upper mode, at 450 pH the lower
        f_b = crossing.f_cross
        rows = {int(round(r.l_j * 1e12)): r for r in standard_map.rows}
        lo = min(rows, key=lambda k: abs(k - 50))
        hi = min(rows, key=lambda k: abs(k - 450))
        assert abs(rows[lo].f_mode1 - f_b) < abs(rows[lo].f_mode2 - f_b)
        assert abs(rows[hi].f_mode2 - f_b) < abs(rows[hi].f_mode1 - f_b)

    @pytest.mark.parametrize("k", [0, 17, 30, 59])
    def test_rows_do_not_depend_on_their_neighbours(self, cell, k):
        grid = np.linspace(10e-12, 500e-12, 61)
        band = default_band(cell, grid)
        alone = mode_map(cell, grid[k : k + 2], band)
        assert alone.rows[0] == mode_map(cell, grid, band).rows[k]

    def test_splitting_large_when_detuned(self, standard_map, crossing):
        sp_min = np.min(standard_map.splitting)
        first, last = standard_map.rows[0], standard_map.rows[-1]
        assert first.splitting > 1.2 * sp_min
        assert last.splitting > 1.2 * sp_min


class TestCellCrossingFit:
    def test_window_overlaps_anchor_region(self, crossing):
        lo, hi = crossing.window
        assert lo < 250e-12 and hi > 175e-12

    def test_coupling_in_expected_range(self, crossing):
        assert 100e6 <= crossing.g <= 500e6

    def test_crossing_inside_window(self, crossing):
        assert crossing.window[0] <= crossing.l_cross <= crossing.window[1]

    def test_crossing_near_anchor(self, crossing):
        assert crossing.l_cross == pytest.approx(ANCHOR, rel=0.15)

    def test_residual_small(self, crossing):
        assert crossing.residual_rms < 2e6

    def test_bare_branches_cross_at_l_cross(self, crossing):
        assert crossing.bare_coupler(crossing.l_cross) == pytest.approx(
            crossing.f_cross, abs=1e3
        )

    def test_model_branches_match_map(self, standard_map, crossing):
        lo, hi = crossing.branches(standard_map.l)
        assert np.max(np.abs(lo - standard_map.f1)) < 6e6
        assert np.max(np.abs(hi - standard_map.f2)) < 6e6


class TestValidation:
    def test_row_ordering_enforced(self):
        with pytest.raises(ValueError):
            ModeMapRow(l_j=100e-12, f_mode1=7e9, f_mode2=6e9)

    def test_map_sorted_by_inductance(self):
        rows = (
            ModeMapRow(200e-12, 6.0e9, 7.0e9),
            ModeMapRow(100e-12, 6.1e9, 7.1e9),
        )
        with pytest.raises(ValueError):
            ModeMap(rows=rows)

    @pytest.mark.parametrize("band, min_depth_db", [((1e9, 2e9), 0.01), (None, 1e3)])
    def test_rows_without_two_dips_are_flagged(self, cell, band, min_depth_db):
        # no zero in a 1-2 GHz band; no notch of the lossy cell is 1000 dB deep
        mm = mode_map(cell, np.linspace(100e-12, 300e-12, 3), band, min_depth_db)
        assert mm.rows == ()
        assert [reason for _, reason in mm.flagged] == ["0 resonance(s) in band"] * 3

    def test_root_that_left_its_bracket_flags_its_row(self, cell, monkeypatch):
        real = modemap.complex_zeros

        def lose_first_root(fn, seeds, lo, hi):
            roots = real(fn, seeds, lo, hi)
            roots[:, 0] = np.nan
            return roots

        monkeypatch.setattr(modemap, "complex_zeros", lose_first_root)
        mm = mode_map(cell, np.linspace(100e-12, 300e-12, 3))
        assert len(mm.rows) == 2
        assert mm.flagged[0][0] == 100e-12
        assert "left its bracket" in mm.flagged[0][1]

    def test_grid_validation(self, cell):
        with pytest.raises(ValueError):
            mode_map(cell, np.array([5e-12]))
        with pytest.raises(ValueError):
            mode_map(cell, np.array([2e-10, 1e-10]))
