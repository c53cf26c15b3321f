"""Mode map and avoided-crossing fit."""
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import least_squares

from qmemsim import modemap, resonance
from qmemsim.modemap import (
    ModeMap,
    default_band,
    fit_avoided_crossing,
    hybridized_map,
    mode_map,
)
from qmemsim.resonance import LM_TOL, find_root
from tests.conftest import ANCHOR, recorded_fits


def synth_coeffs(rng):
    """Random monotone-decreasing cubic bare branch over 10-500 pH, Hz(H)."""
    f0 = rng.uniform(6.8e9, 7.1e9)
    slope = -rng.uniform(1.2e6, 2.5e6) / 1e-12  # Hz per henry
    quad = rng.uniform(-1e3, 1e3) / 1e-24
    cub = rng.uniform(-0.5, 0.5) / 1e-36
    return (cub, quad, slope, f0 - slope * 1e-12 * 0)


def generator_corpus():
    """Criterion 4's 20 closed-form maps, each with its bare branch, f_b and g."""
    rng = np.random.default_rng(2024)
    l_grid = np.linspace(10e-12, 500e-12, 41)
    corpus = []
    for _ in range(20):
        coeffs = synth_coeffs(rng)
        f_b = float(np.polyval(coeffs, 250e-12)) - rng.uniform(-50e6, 50e6)
        g_true = rng.uniform(50e6, 500e6)
        corpus.append((hybridized_map(l_grid, coeffs, f_b, g_true), coeffs, f_b, g_true))
    return corpus


def reference_roots(mm, fit):
    """l_cross and window of `fit` found independently: sign changes of the
    fitted bare-branch detuning on a dense grid, each polished by find_root,
    the root nearest the same point as the fit's, else the grid end."""
    grid = np.linspace(mm.l[0], mm.l[-1], 4001)

    def root_near(level, near):
        def detuning(x):
            return np.polyval(fit.coeffs, x) - fit.f_cross - level

        v = detuning(grid)
        i = np.nonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0)[0]
        if len(i) == 0:
            return None
        roots = find_root(detuning, grid[i], grid[i + 1], "reference", rtol=1e-12)
        return float(roots[np.argmin(np.abs(roots - near))])

    l_cross = root_near(0.0, mm.l[np.argmin(mm.splitting)])
    lo, hi = root_near(2.0 * fit.g, l_cross), root_near(-2.0 * fit.g, l_cross)
    return l_cross, sorted([mm.l[0] if lo is None else lo, mm.l[-1] if hi is None else hi])


def assert_exact_roots(mm, fit):
    l_cross, window = reference_roots(mm, fit)
    assert fit.l_cross == pytest.approx(l_cross, rel=1e-12, abs=0)
    assert list(fit.window) == pytest.approx(window, rel=1e-12, abs=0)


class TestSyntheticOracle:
    def test_recovers_known_coupling(self):
        for mm, _, f_b, g_true in generator_corpus():
            fit = fit_avoided_crossing(mm)
            assert fit.g == pytest.approx(g_true, rel=1e-2)
            assert fit.f_cross == pytest.approx(f_b, rel=1e-3)

    def test_map_matches_pointwise_model(self):
        # the columns equal the model evaluated one inductance at a time
        for mm, coeffs, f_b, g in generator_corpus():
            for l_j, f1, f2 in mm.rows:
                fa = float(np.polyval(coeffs, l_j))
                mid, gap = 0.5 * (fa + f_b), np.sqrt(0.25 * (fa - f_b) ** 2 + g**2)
                assert (f1, f2) == (mid - gap, mid + gap)

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
        f_b, f1, f2 = crossing.f_cross, standard_map.f1, standard_map.f2
        lo, hi = (np.argmin(np.abs(standard_map.l - l)) for l in (50e-12, 450e-12))
        assert abs(f1[lo] - f_b) < abs(f2[lo] - f_b)
        assert abs(f2[hi] - f_b) < abs(f1[hi] - f_b)

    @pytest.mark.parametrize("k", [0, 17, 30, 59])
    def test_rows_do_not_depend_on_their_neighbours(self, cell, k, monkeypatch):
        grid = np.linspace(10e-12, 500e-12, 61)
        band = default_band(cell, grid)
        # both maps in the full grid's band: a two-row grid derives a narrower one
        monkeypatch.setattr(modemap, "default_band", lambda cell, l_grid: band)
        alone = mode_map(cell, grid[k : k + 2])
        assert alone.rows[0] == mode_map(cell, grid).rows[k]

    def test_splitting_large_when_detuned(self, standard_map, crossing):
        sp = standard_map.splitting
        assert sp[0] > 1.2 * np.min(sp)
        assert sp[-1] > 1.2 * np.min(sp)


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


class TestExactRoots:
    """l_cross and the window edges are the exact in-grid roots of the fitted cubic."""

    def test_generator_corpus(self):
        for mm, *_ in generator_corpus():
            assert_exact_roots(mm, fit_avoided_crossing(mm))

    def test_seed_config_map(self, standard_map, crossing):
        assert_exact_roots(standard_map, crossing)

    def test_leading_coefficient_exactly_zero(self, monkeypatch):
        real = modemap.levenberg_marquardt

        def quadratic(residuals, jacobian, p0):
            p, r, converged = real(residuals, jacobian, p0)
            p[2] = 0.0  # the cubic's leading coefficient
            return p, r, converged

        monkeypatch.setattr(modemap, "levenberg_marquardt", quadratic)
        coeffs = (0.0, 0.0, -2e6 / 1e-12, 7.0e9)
        mm = hybridized_map(np.linspace(10e-12, 500e-12, 41), coeffs, 6.6e9, 150e6)
        fit = fit_avoided_crossing(mm)
        assert fit.coeffs[0] == 0.0
        assert_exact_roots(mm, fit)
        # edges at 50 and 350 pH, crossing at 200 pH
        assert fit.window == pytest.approx((50e-12, 350e-12), rel=1e-3)

    def test_level_off_grid_falls_back_to_grid_end(self):
        # f_b + 2g would sit at -50 pH, below the grid; f_b - 2g at 450 pH
        coeffs = (0.0, 0.0, -2e6 / 1e-12, 7.0e9)
        mm = hybridized_map(np.linspace(10e-12, 500e-12, 41), coeffs, 6.6e9, 250e6)
        fit = fit_avoided_crossing(mm)
        assert fit.window[0] == mm.l[0]
        assert fit.window[1] == pytest.approx(450e-12, rel=1e-3)
        assert_exact_roots(mm, fit)


class TestFitSolver:
    def test_cost_at_the_least_squares_minimum(self, standard_map):
        # MINPACK started from the fit's own answer finds no lower cost
        for mm in [standard_map, *(m for m, *_ in generator_corpus())]:
            fit = fit_avoided_crossing(mm)
            x = mm.l / 1e-12

            def residuals(p):
                lo, hi = modemap._hybridize(np.polyval(p[2:], x), p[0], p[1])
                return np.concatenate([lo - mm.f1 / 1e9, hi - mm.f2 / 1e9])

            p = [fit.f_cross / 1e9, fit.g / 1e9,
                 *(c * 1e-12**k / 1e9 for c, k in zip(fit.coeffs, (3, 2, 1, 0)))]
            ref = least_squares(residuals, p, method="lm", xtol=LM_TOL, ftol=LM_TOL, gtol=LM_TOL)
            cost = 2 * len(x) * (fit.residual_rms / 1e9) ** 2
            assert cost <= 1.01 * (ref.fun @ ref.fun) or cost <= 1e-20

    def test_jacobian_matches_central_differences(self, standard_map, monkeypatch):
        calls = recorded_fits(monkeypatch, modemap)
        fit_avoided_crossing(standard_map)
        residuals, jacobian, p0, (p_fit, _, _) = calls[0]
        for p in (p0, p_fit):
            # each step moves the branches by at most 1e-6 GHz
            steps = 1e-6 / np.max(np.abs(jacobian(p)), axis=0)
            fd = np.stack([(residuals(p + h * e) - residuals(p - h * e)) / (2.0 * h)
                           for h, e in zip(steps, np.eye(len(p)))], axis=1)
            err = np.max(np.abs(jacobian(p) - fd), axis=0)
            assert np.all(err <= 1e-6 * np.max(np.abs(fd), axis=0))

    def test_unconverged_fit_raises(self, standard_map, monkeypatch):
        real = modemap.levenberg_marquardt
        monkeypatch.setattr(modemap, "levenberg_marquardt",
                            lambda *args: (*real(*args)[:2], False))
        with pytest.raises(ValueError, match="did not converge"):
            fit_avoided_crossing(standard_map)


class TestValidation:
    def test_row_ordering_enforced(self):
        with pytest.raises(ValueError):
            ModeMap(l=[100e-12], f1=[7e9], f2=[6e9])

    def test_map_sorted_by_inductance(self):
        with pytest.raises(ValueError):
            ModeMap(l=[200e-12, 100e-12], f1=[6.0e9, 6.1e9], f2=[7.0e9, 7.1e9])

    def test_columns_of_equal_length(self):
        with pytest.raises(ValueError):
            ModeMap(l=[100e-12, 200e-12], f1=[6.0e9], f2=[7.0e9, 7.1e9])

    def test_columns_are_read_only_copies(self):
        l = np.array([100e-12, 200e-12])
        mm = ModeMap(l=l, f1=[6.0e9, 6.1e9], f2=[7.0e9, 7.1e9])
        l[0] = 300e-12
        assert mm.l[0] == 100e-12
        with pytest.raises(ValueError):
            mm.l[0] = 300e-12
        assert mm.rows == ((100e-12, 6.0e9, 7.0e9), (200e-12, 6.1e9, 7.1e9))

    @pytest.mark.parametrize("band, min_depth_db", [((1e9, 2e9), 0.01), (None, 1e3)])
    def test_rows_without_two_dips_are_flagged(self, cell, band, min_depth_db, monkeypatch):
        # no zero in a 1-2 GHz band; no notch of the lossy cell is 1000 dB deep
        if band is not None:
            monkeypatch.setattr(modemap, "default_band", lambda cell, l_grid: band)
        mm = mode_map(cell, np.linspace(100e-12, 300e-12, 3), min_depth_db=min_depth_db)
        assert mm.rows == ()
        assert [reason for _, reason in mm.flagged] == ["0 resonance(s) in band"] * 3

    def test_root_that_left_its_bracket_flags_its_row(self, cell, monkeypatch):
        real = resonance.complex_zeros

        def lose_first_root(fn, seeds, lo, hi):
            roots = real(fn, seeds, lo, hi)
            roots[:, 0] = np.nan
            return roots

        monkeypatch.setattr(resonance, "complex_zeros", lose_first_root)
        mm = mode_map(cell, np.linspace(100e-12, 300e-12, 3))
        assert len(mm.rows) == 2
        assert mm.flagged[0][0] == 100e-12
        assert "left its bracket" in mm.flagged[0][1]

    def test_grid_validation(self, cell):
        with pytest.raises(ValueError):
            mode_map(cell, np.array([5e-12]))
        with pytest.raises(ValueError):
            mode_map(cell, np.array([2e-10, 1e-10]))


def fine_only_map(monkeypatch, cell, l_grid):
    """The map every row of which is seeded by the SCAN_POINTS scan."""
    with monkeypatch.context() as m:
        m.setattr(modemap, "COARSE_POINTS", modemap.SCAN_POINTS)
        return mode_map(cell, l_grid)


class TestCoarseScan:
    def test_rescan_recovers_a_pair_the_coarse_scan_misses(self, cell, monkeypatch):
        # with c_couple = 2 fF the cavity's zero (6.8887 GHz) and pole
        # (6.8910 GHz) at 100 pH lie 2.3 MHz apart, under the 7.7 MHz coarse
        # step: the one coarse sample between them seeds a root that leaves
        # its bracket.  The 0.97 MHz rescan resolves the pair.
        narrow = replace(cell, c_couple=2e-15)
        l_grid = np.array([100e-12, 175e-12])
        scans = []
        real = modemap._scan_rows

        def spy(cell, l_rows, band, n_scan, min_depth_db):
            scans.append((n_scan, l_rows.tolist()))
            return real(cell, l_rows, band, n_scan, min_depth_db)

        monkeypatch.setattr(modemap, "_scan_rows", spy)
        mm = mode_map(narrow, l_grid)
        assert scans == [(modemap.COARSE_POINTS, l_grid.tolist()),
                         (modemap.SCAN_POINTS, [100e-12])]
        with monkeypatch.context() as m:
            m.setattr(modemap, "SCAN_POINTS", modemap.COARSE_POINTS)
            coarse = mode_map(narrow, l_grid)
        assert [l_j for l_j, _ in coarse.flagged] == [100e-12]
        fine = fine_only_map(monkeypatch, narrow, l_grid)
        assert mm.flagged == fine.flagged == ()
        assert mm.rows[0] == fine.rows[0]

    @pytest.mark.parametrize("l_grid", [np.linspace(10e-12, 500e-12, 61),
                                        np.linspace(190e-12, 280e-12, 25)])
    def test_seed_cell_maps_equal_fine_scan(self, cell, l_grid, monkeypatch):
        assert_same_map(mode_map(cell, l_grid), fine_only_map(monkeypatch, cell, l_grid))

    def test_array_cell_map_equals_fine_scan(self, array, monkeypatch):
        l_grid = np.linspace(10e-12, 500e-12, 41)
        cell = array.cells[2]
        assert_same_map(mode_map(cell, l_grid), fine_only_map(monkeypatch, cell, l_grid))


def assert_same_map(mm, fine):
    """Same rows and flags; modes differ only in Newton's last steps from
    other seeds, each of which stops at 4 ulps."""
    assert np.array_equal(mm.l, fine.l) and mm.flagged == fine.flagged
    for col, ref in ((mm.f1, fine.f1), (mm.f2, fine.f2)):
        assert np.all(np.abs(col - ref) <= 4 * np.spacing(ref))
