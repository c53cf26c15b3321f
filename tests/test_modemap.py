"""Mode map and avoided-crossing fit."""
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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
from tests.conftest import ANCHOR, recorded_fits, scalar_peak


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


def test_a_long_rescan_never_holds_its_whole_scan(cell):
    # no notch of the lossy cell is 1000 dB deep, so all 1,000 rows are
    # rescanned at SCAN_POINTS: each network call's Im Z is read for its
    # crossings and dropped, so the peak stays under half of the rescan's
    # Im Z alone (12.8 MB); holding the whole scan peaked at 36.8 MiB
    n_rows = 1000
    tracemalloc.start()
    try:
        mm = mode_map(cell, np.linspace(10e-12, 500e-12, n_rows), min_depth_db=1e3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(mm.flagged) == n_rows
    assert peak < 0.5 * n_rows * modemap.SCAN_POINTS * 8


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


def row_loop(row, seeds, f_zero, f_pole, n_rows, band, min_depth_db):
    """The per-seed row loop that modemap._read_rows replaced, kept as its
    oracle: each row reads its seeds in order, stops at its second kept
    seed or at its first root that left its bracket, and builds a scalar
    peak (scalar_peak) of every other seed it reaches."""
    found = []
    for k in range(n_rows):
        kept = []
        for seed, fz, fp in zip(seeds[row == k], f_zero[row == k], f_pole[row == k]):
            if np.isnan(fz) or np.isnan(fp):
                found.append(f"root seeded at {seed:.6g} Hz left its bracket")
                break
            peak = scalar_peak(fz, fp)
            if band[0] < peak.f0 < band[1] and peak.depth_db >= min_depth_db:
                kept.append(peak.f0)
            if len(kept) == 2:
                found.append(tuple(kept))
                break
        else:
            found.append(f"{len(kept)} resonance(s) in band")
    f12 = np.array([(np.nan, np.nan) if isinstance(r, str) else r for r in found])
    return f12.reshape(n_rows, 2), [r for r in found if isinstance(r, str)]


def read_outcome(read, *args):
    """(f12 bytes, reasons) of a row read-out, or the message it raises."""
    try:
        f12, why = read(*args)
    except ValueError as exc:
        return str(exc)
    return f12.tobytes(), why


#: synthetic roots at 6.5 GHz (each kind's f_zero, f_pole) for a 6-7 GHz band
#: and a 0.01 dB threshold
F = 6.5e9
KINDS = {
    "kept": (F * (1 + 0.5j / 1e5), F * (1 + 0.5j / 1e3)),  # Q_i 1e5, Q_l 1e3: 40 dB
    "lossless": (complex(F), F * (1 + 0.5j / 1e3)),
    "low": (5.5e9 * (1 + 0.5j / 1e5), 5.5e9 * (1 + 0.5j / 1e3)),  # out of band
    "high": (7.5e9 * (1 + 0.5j / 1e5), 7.5e9 * (1 + 0.5j / 1e3)),
    "shallow": (F * (1 + 0.5j / 1.0001e3), F * (1 + 0.5j / 1e3)),  # 8.7e-4 dB
    "left_zero": (complex(np.nan), F * (1 + 0.5j / 1e3)),
    "left_pole": (F * (1 + 0.5j / 1e5), complex(np.nan)),
    "active_zero": (F * (1 - 0.5j / 1e5), F * (1 + 0.5j / 1e3)),
    "active_pole": (F * (1 + 0.5j / 1e5), complex(F)),
    "negative_f0": (-F * (1 - 0.5j / 1e5), F * (1 + 0.5j / 1e3)),
    "negative_ql": (F * (1 + 0.5j / 1e5), -F * (1 - 0.5j / 1e3)),
}
BAND, MIN_DEPTH = (6e9, 7e9), 0.01


def synthetic_rows(rows):
    """(row, seeds, f_zero, f_pole, n_rows) of rows of KINDS names; each
    seed's roots sit at its own frequency, so kept modes tell apart."""
    kinds = [(k, kind) for k, names in enumerate(rows) for kind in names]
    row = np.array([k for k, _ in kinds], dtype=int)
    seeds = 6.1e9 + 1e7 * np.arange(len(kinds))
    scale = seeds / F
    f_zero = np.array([KINDS[kind][0] for _, kind in kinds], dtype=complex) * scale
    f_pole = np.array([KINDS[kind][1] for _, kind in kinds], dtype=complex) * scale
    return row, seeds, f_zero, f_pole, len(rows)


def assert_reads_as_the_loop(rows, min_depth_db=MIN_DEPTH):
    args = (*synthetic_rows(rows), BAND, min_depth_db)
    want = read_outcome(row_loop, *args)
    assert read_outcome(modemap._read_rows, *args) == want
    return want


class TestRowReadout:
    """modemap._read_rows against the row loop it replaced."""

    @pytest.mark.parametrize("cell_edit, l_grid", [
        (None, np.linspace(190e-12, 290e-12, 25)),
        (None, np.linspace(10e-12, 500e-12, 41)),
        (None, np.linspace(10e-12, 500e-12, 61)),
        (None, np.linspace(10e-12, 500e-12, 301)),
        # rows flagged on both scans, for too few modes or a lost root
        ({"c_couple": 3e-15}, np.linspace(10e-12, 500e-12, 41)),
        ({"c_couple": 2e-15}, np.linspace(10e-12, 500e-12, 61)),
    ], ids=["25-zoom", "41", "61", "301", "narrow-41", "narrower-61"])
    def test_seed_cell_maps_equal_the_row_loop(self, cell, cell_edit, l_grid, monkeypatch):
        cell = cell if cell_edit is None else replace(cell, **cell_edit)
        mm = mode_map(cell, l_grid)
        monkeypatch.setattr(modemap, "_read_rows", row_loop)
        want = mode_map(cell, l_grid)
        for col, ref in ((mm.l, want.l), (mm.f1, want.f1), (mm.f2, want.f2)):
            assert col.tobytes() == ref.tobytes()
        assert mm.flagged == want.flagged
        if cell_edit is not None:
            assert any("left its bracket" in reason for _, reason in mm.flagged)
            assert any("resonance(s) in band" in reason for _, reason in mm.flagged)
        else:
            assert mm.flagged == ()

    @pytest.mark.parametrize("rows", [
        [[], ["kept"], ["kept", "kept"], ["kept", "lossless", "kept"], []],
        [["kept", "low", "kept", "high"], ["high", "kept", "kept", "kept", "kept"]],
        [[], [], []],
        [],
    ], ids=["0-1-2-3-seeds", "4-and-5-seeds", "no-seeds", "no-rows"])
    def test_rows_of_any_length(self, rows):
        assert_reads_as_the_loop(rows)

    def test_out_of_band_and_shallow_seeds_are_skipped(self):
        f12, why = assert_reads_as_the_loop(
            [["low", "kept", "shallow", "kept"], ["high", "shallow"], ["shallow", "kept"]])
        assert why == ["0 resonance(s) in band", "1 resonance(s) in band"]

    def test_a_seed_exactly_at_the_depth_threshold_is_kept(self):
        rows = [["kept", "kept"], ["shallow", "kept", "kept"], ["kept", "lossless"]]
        _, _, f_zero, f_pole, _ = synthetic_rows(rows)
        for fz, fp in zip(f_zero, f_pole):  # each seed's own depth as the threshold
            assert_reads_as_the_loop(rows, scalar_peak(fz, fp).depth_db)

    def test_a_lost_root_stops_its_row_only_before_the_second_kept_seed(self):
        _, why = assert_reads_as_the_loop([
            ["kept", "left_zero", "kept"],  # lost before the pair
            ["kept", "kept", "left_pole"],  # after it: the row is complete
            ["left_pole"], ["left_zero", "kept", "kept"], ["low", "left_zero", "left_pole"],
        ])
        assert len(why) == 4 and all("left its bracket" in r for r in why)
        assert why[0] == "root seeded at 6.11e+09 Hz left its bracket"

    @pytest.mark.parametrize("bad", ["active_zero", "active_pole", "negative_f0",
                                     "negative_ql"])
    def test_roots_past_a_rows_stop_are_not_checked(self, bad):
        assert not isinstance(assert_reads_as_the_loop(
            [["kept", "kept", bad], ["left_zero", bad], ["kept", "left_pole", bad, bad]]), str)

    @pytest.mark.parametrize("rows, message", [
        ([["kept", "active_zero", "kept"]], "a passive branch"),
        ([["kept", "kept"], ["active_pole"]], "a passive branch"),
        ([["low", "negative_f0"]], "ResonancePeak.f0 must be positive"),
        ([["shallow", "negative_ql"]], "ResonancePeak.q_loaded must be positive"),
        # the first rejected root the loop reaches is the one that raises
        ([["kept", "negative_f0"], ["active_zero"]], "ResonancePeak.f0 must be positive"),
        ([["kept", "kept", "negative_f0"], ["active_zero"]], "a passive branch"),
    ], ids=["active-zero", "active-pole", "negative-f0", "negative-q_l", "first-row-first",
            "first-reached-first"])
    def test_a_rejected_root_before_a_rows_stop_raises(self, rows, message):
        assert message in assert_reads_as_the_loop(rows)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(sorted(KINDS)), max_size=6), max_size=6))
    def test_random_rows_read_as_the_loop(self, rows):
        assert_reads_as_the_loop(rows)
