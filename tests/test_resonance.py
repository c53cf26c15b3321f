"""Notch-model fitting and complex-frequency roots, against closed forms."""
import contextlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import least_squares

from qmemsim import resonance
from qmemsim.calibrate import _tcr_branch_impedance, measure_isolated_tcr, tcr_branch_resonance
from qmemsim.cell import OFF_BAND, adaptive_sweep
from qmemsim.cli import _parse_state, main
from qmemsim.config import load_config
from qmemsim.jjfet import OFF
from qmemsim.resonance import (
    LM_TOL,
    ResonancePeak,
    _fit_notch,
    _linear_seed,
    _notch_jacobian,
    complex_zeros,
    db,
    find_resonances,
    half_depth_window,
    levenberg_marquardt,
    local_minima,
    notch_s21_model,
    notch_readout,
    peak_from_roots,
    peaks_from_roots,
)
from qmemsim.twoport import notch_s21
from tests.conftest import ANCHOR, recorded_fits, scalar_peak


def synth_grid(f0, ql, span_lw=25.0, n=1201):
    lw = f0 / ql
    return np.linspace(f0 - span_lw * lw, f0 + span_lw * lw, n)


class TestSingleNotch:
    def test_reference_case(self):
        f0, ql, qc = 6.65e9, 1e4, 2e4
        freqs = synth_grid(f0, ql)
        peaks = find_resonances(freqs, notch_s21_model(freqs, f0, ql, qc))
        assert len(peaks) == 1
        p = peaks[0]
        assert p.f0 == pytest.approx(f0, rel=1e-4)
        assert p.q_loaded == pytest.approx(ql, rel=1e-3)
        assert p.q_coupling == pytest.approx(qc, rel=1e-2)

    @pytest.mark.parametrize("ql", [1e3, 1e4, 1e5, 1e6])
    def test_q_range(self, ql):
        f0 = 6.55e9
        qc = 2.0 * ql
        freqs = synth_grid(f0, ql)
        peaks = find_resonances(freqs, notch_s21_model(freqs, f0, ql, qc))
        assert len(peaks) == 1
        assert peaks[0].f0 == pytest.approx(f0, rel=1e-4)
        assert peaks[0].q_loaded == pytest.approx(ql, rel=1e-3)

    def test_randomized_recovery(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            f0 = rng.uniform(4e9, 9e9)
            ql = 10 ** rng.uniform(3, 6)
            qc = ql / rng.uniform(0.3, 0.98)
            freqs = synth_grid(f0, ql, n=1601)
            peaks = find_resonances(freqs, notch_s21_model(freqs, f0, ql, qc))
            assert len(peaks) == 1
            assert peaks[0].f0 == pytest.approx(f0, rel=1e-4)
            assert peaks[0].q_loaded == pytest.approx(ql, rel=1e-3)

    def test_internal_q_consistency(self):
        f0, ql, qc = 6.55e9, 8e3, 1e4
        freqs = synth_grid(f0, ql)
        p = find_resonances(freqs, notch_s21_model(freqs, f0, ql, qc))[0]
        assert p.q_internal is not None
        assert 1.0 / p.q_loaded == pytest.approx(1.0 / p.q_internal + 1.0 / p.q_coupling, rel=1e-6)

    def test_lossless_has_no_internal_q(self):
        f0, ql = 6.55e9, 1e4
        freqs = synth_grid(f0, ql)
        p = find_resonances(freqs, notch_s21_model(freqs, f0, ql, ql))[0]
        assert p.q_internal is None


class TestTraceHandling:
    def test_flat_trace_is_empty(self):
        freqs = np.linspace(5e9, 7e9, 501)
        assert find_resonances(freqs, np.ones_like(freqs, dtype=complex)) == []

    def test_shallow_dip_below_threshold_ignored(self):
        f0, ql, qc = 6.5e9, 1e4, 1e7  # depth ~ 0.009 dB
        freqs = synth_grid(f0, ql)
        assert find_resonances(freqs, notch_s21_model(freqs, f0, ql, qc), min_depth_db=0.05) == []

    def test_two_separated_notches_ordered(self):
        f1, f2 = 6.2e9, 6.8e9
        ql, qc = 2e4, 4e4
        freqs = np.sort(np.concatenate([synth_grid(f1, ql, n=801), synth_grid(f2, ql, n=801)]))
        s21 = notch_s21_model(freqs, f1, ql, qc) * notch_s21_model(freqs, f2, ql, qc)
        peaks = find_resonances(freqs, s21)
        assert len(peaks) == 2
        assert peaks[0].f0 < peaks[1].f0
        assert peaks[0].f0 == pytest.approx(f1, rel=1e-4)
        assert peaks[1].f0 == pytest.approx(f2, rel=1e-4)

    def test_non_monotone_grid_rejected(self):
        freqs = np.array([1e9, 3e9, 2e9])
        with pytest.raises(ValueError):
            find_resonances(freqs, np.ones(3, dtype=complex))

    def test_full_notch_zero_magnitude(self):
        # an exact |S21| = 0 sample must not break the dB conversion
        f0, ql = 6.5e9, 1e4
        freqs = np.unique(np.append(synth_grid(f0, ql), f0))
        s21 = notch_s21_model(freqs, f0, ql, ql)
        assert np.min(np.abs(s21)) < 1e-12
        peaks = find_resonances(freqs, s21)
        assert len(peaks) == 1
        assert peaks[0].f0 == pytest.approx(f0, rel=1e-6)


class TestFitNotch:
    f0, ql, qc = 6.55e9, 1e4, 2e4

    def trace(self):
        freqs = synth_grid(self.f0, self.ql, span_lw=5.0, n=201)
        return freqs, notch_s21_model(freqs, self.f0, self.ql, self.qc)

    def test_start_outside_bounds_returns_none(self):
        # an exact S21 = 1 sample leaves no closed-form seed, so the caller's
        # start is used; log10(1e20) lies beyond the Q_c bound
        freqs, s21 = self.trace()
        s21[0] = 1.0
        assert _linear_seed(freqs, s21) is None
        assert _fit_notch(freqs, s21, self.f0, self.ql, self.qc) is not None
        assert _fit_notch(freqs, s21, self.f0, self.ql, 1e20) is None

    def test_result_outside_bounds_returns_none(self, monkeypatch):
        # the exact optimum Q_l = 0.5 lies below the log10 Q_l >= 0 bound
        freqs = np.linspace(0.7 * self.f0, 1.3 * self.f0, 201)
        s21 = notch_s21_model(freqs, self.f0, 0.5, 1.0)
        results = recorded_fits(monkeypatch, resonance)
        assert _fit_notch(freqs, s21, self.f0, 10.0, 20.0) is None
        p, _, converged = results[-1][-1]
        assert converged
        assert p[1] == pytest.approx(np.log10(0.5))

    def test_unconverged_fit_returns_none(self, monkeypatch):
        freqs, s21 = self.trace()
        real = resonance.levenberg_marquardt
        monkeypatch.setattr(resonance, "levenberg_marquardt",
                            lambda *args: (*real(*args)[:2], False))
        assert _fit_notch(freqs, s21, self.f0, self.ql, self.qc) is None

    def test_programming_error_propagates(self, monkeypatch):
        def broken_model(*args):
            raise AttributeError("bug in the residuals")

        monkeypatch.setattr(resonance, "notch_s21_model", broken_model)
        freqs, s21 = self.trace()
        with pytest.raises(AttributeError, match="bug"):
            _fit_notch(freqs, s21, self.f0, self.ql, self.qc)


def seed_spectrum_traces(tmp_path, states=("on:173.3pH", "off")):
    """The adaptive sweep `spectrum --state <state>` takes on the --seed-config
    file, per state, with that file's reporting depth: (freqs, s21, min_depth_db)."""
    seed = tmp_path / "seed.json"
    assert main(["--seed-config", str(seed)]) == 0
    cfg = load_config(seed)
    traces = []
    for text in states:
        state = _parse_state(text)
        band = OFF_BAND if state is OFF else cfg.sweep.band
        freqs, s21 = adaptive_sweep(cfg.cell, state, band, cfg.sweep.coarse_step,
                                    cfg.sweep.min_depth_db / 2)
        traces.append((freqs, s21, cfg.sweep.min_depth_db))
    return traces


def minpack_lm(residuals, jacobian, p0):
    """Cost and success of scipy's MINPACK Levenberg-Marquardt at LM_TOL."""
    try:
        res = least_squares(residuals, p0, jac=jacobian, method="lm",
                            xtol=LM_TOL, ftol=LM_TOL, gtol=LM_TOL)
    except ValueError:  # non-finite residuals at the start
        return np.nan, False
    return res.fun @ res.fun, res.success


class TestLevenbergMarquardt:
    def test_notch_fits_reach_minpack_cost(self, monkeypatch, cell, tmp_path):
        calls = recorded_fits(monkeypatch, resonance)
        rng = np.random.default_rng(42)
        traces = []
        for f0, ql, qc in [(6.65e9, 1e4, 2e4), (6.55e9, 1e4, 1e4), (6.55e9, 8e3, 1e4),
                           *((6.55e9, ql, 2.0 * ql) for ql in (1e3, 1e4, 1e5, 1e6)),
                           *((rng.uniform(4e9, 9e9), ql, ql / rng.uniform(0.3, 0.98))
                             for ql in 10 ** rng.uniform(3, 6, 25))]:
            freqs = synth_grid(f0, ql, n=1601)
            traces.append((freqs, notch_s21_model(freqs, f0, ql, qc)))
        freqs = np.sort(np.concatenate([synth_grid(6.2e9, 2e4, n=801),
                                        synth_grid(6.8e9, 2e4, n=801)]))
        traces.append((freqs, notch_s21_model(freqs, 6.2e9, 2e4, 4e4)
                       * notch_s21_model(freqs, 6.8e9, 2e4, 4e4)))
        peak = measure_isolated_tcr(cell, ANCHOR)
        lw = peak.f0 / peak.q_loaded
        freqs = np.linspace(peak.f0 - 12 * lw, peak.f0 + 12 * lw, 4001)
        traces.append((freqs, notch_s21(_tcr_branch_impedance(cell, ANCHOR, freqs), cell.z0)))
        for freqs, s21 in traces:
            find_resonances(freqs, s21, min_depth_db=1e-4)
        # TestFitNotch's direct fits: the caller's start, an optimum off the box
        freqs, s21 = TestFitNotch().trace()
        s21[0] = 1.0
        _fit_notch(freqs, s21, 6.55e9, 1e4, 2e4)
        freqs = np.linspace(0.7 * 6.55e9, 1.3 * 6.55e9, 201)
        _fit_notch(freqs, notch_s21_model(freqs, 6.55e9, 0.5, 1.0), 6.55e9, 10.0, 20.0)
        n_synthetic = len(calls)
        # the traces of a characterize-style session: the seed config's ON and
        # OFF spectra, which `spectrum` reads from roots and a measurement fits
        for freqs, s21, min_depth_db in seed_spectrum_traces(tmp_path):
            find_resonances(freqs, s21, min_depth_db)
        assert len(calls) > n_synthetic
        for residuals, jacobian, p0, (p, r, converged) in calls:
            cost = r @ r
            ref_cost, ref_success = minpack_lm(residuals, jacobian, p0)
            assert converged == ref_success
            if converged and not (cost <= 1e-20 and ref_cost <= 1e-20):
                assert cost == pytest.approx(ref_cost, rel=1e-10)

    def test_invariant_to_parameter_scale(self):
        # Marquardt's column scaling: rescaled parameters take the same steps,
        # up to rounding; with plain damping the third scale takes more
        freqs, s21 = TestFitNotch().trace()
        f0_init = 6.55e9 * (1.0 + 0.3e-4)
        evals = []

        def residuals(p):
            evals[-1] += 1
            r = notch_s21_model(freqs, p[0] * f0_init, 10.0 ** p[1], 10.0 ** p[2]) - s21
            return np.concatenate([r.real, r.imag])

        p0 = np.array([1.0, 4.3, np.log10(2e4) - 0.2])
        for scale in ([1.0, 1.0, 1.0], [1e6, 1.0, 1e-6], [1e-6, 1e3, 1.0]):
            scale = np.asarray(scale)
            evals.append(0)
            p, r, converged = levenberg_marquardt(
                lambda q: residuals(q / scale),
                lambda q: _notch_jacobian(q / scale, freqs, f0_init) / scale, scale * p0)
            assert converged and r @ r <= 1e-20
            assert p / scale == pytest.approx([6.55e9 / f0_init, 4.0, np.log10(2e4)], rel=1e-12)
        assert evals == [evals[0]] * 3

    def test_non_finite_start_has_not_converged(self):
        p, r, converged = levenberg_marquardt(lambda p: np.array([np.nan, 1.0]),
                                              lambda p: np.ones((2, 1)), [1.0])
        assert not converged
        assert p.tolist() == [1.0]

    def test_evaluation_budget(self):
        # exp(-p) only approaches its infimum 0: every step lowers the
        # cost by a large fraction, and the budget runs out
        evals = []

        def residuals(p):
            evals.append(p[0])
            return np.exp(-p)

        p, r, converged = levenberg_marquardt(residuals, lambda p: -np.exp(-p)[:, None], [0.0])
        assert not converged
        assert len(evals) == 100
        assert r == np.exp(-p)


@settings(deadline=None)
@given(
    f0=st.floats(1e9, 2e10),
    ql=st.floats(10.0, 1e6),
    ratio=st.floats(1.0, 1e3),
    n=st.integers(7, 401),
    shift=st.floats(-3.0, 3.0),  # window centre offset from f0, in linewidths
)
def test_linear_seed_recovers_exact_model(f0, ql, ratio, n, shift):
    freqs = synth_grid(f0, ql, span_lw=5.0, n=n) + shift * f0 / ql
    seed = _linear_seed(freqs, notch_s21_model(freqs, f0, ql, ql * ratio))
    assert seed == pytest.approx((f0, ql, ql * ratio), rel=1e-9)


@pytest.mark.parametrize("ql, ratio", [(52.0, 1.3), (1e4, 2.0), (1e6, 1e3)])
def test_jacobian_matches_central_differences(ql, ratio):
    f0 = 6.55e9
    freqs = synth_grid(f0, ql, span_lw=5.0, n=101)
    s21 = notch_s21_model(freqs, f0, ql, ql * ratio)
    f0_init = f0 * (1.0 + 0.1 / ql)
    p = np.array([1.0 - 0.2 / ql, np.log10(ql) + 0.01, np.log10(ql * ratio) - 0.02])

    def residuals(p):
        r = notch_s21_model(freqs, p[0] * f0_init, 10.0 ** p[1], 10.0 ** p[2]) - s21
        return np.concatenate([r.real, r.imag])

    steps = (1e-4 / ql, 1e-4, 1e-4)
    fd = np.stack(
        [(residuals(p + h * e) - residuals(p - h * e)) / (2.0 * h) for h, e in zip(steps, np.eye(3))],
        axis=1,
    )
    err = np.max(np.abs(_notch_jacobian(p, freqs, f0_init) - fd), axis=0)
    assert np.all(err <= 1e-6 * np.max(np.abs(fd), axis=0))


def _local_minima_loop(db, min_depth_db):
    """The per-index loop that local_minima replaced; kept as its reference."""
    return [
        i
        for i in range(1, len(db) - 1)
        if db[i] <= db[i - 1] and db[i] < db[i + 1] and -db[i] >= min_depth_db
    ]


# few distinct levels, so plateaus, ties and depths equal to the threshold
# are common
_levels = st.sampled_from([0.0, -0.01, -0.05, -0.5, -3.0, -20.0])


@given(
    db=st.lists(st.one_of(_levels, st.floats(-60.0, 1.0)), max_size=40),
    min_depth_db=st.one_of(st.sampled_from([0.0, 0.01, 0.05, 0.5, 3.0]),
                           st.floats(0.0, 60.0)),
)
def test_local_minima_matches_loop(db, min_depth_db):
    got = local_minima(np.array(db, dtype=float), min_depth_db)
    assert got.tolist() == _local_minima_loop(db, min_depth_db)


def _half_depth_window_loop(db, i):
    """The walk half_depth_window replaced, which ran on while the trace stayed
    below half depth, past a saddle; kept as its reference on monotone skirts."""
    half = db[i] / 2.0
    lo = i
    while lo > 0 and db[lo - 1] < half:
        lo -= 1
    hi = i
    while hi < len(db) - 1 and db[hi + 1] < half:
        hi += 1
    return lo, hi


@settings(deadline=None)
@given(
    ql=st.floats(10.0, 1e6),
    ratio=st.floats(1.0, 1e3),
    n=st.integers(7, 401),
    span_lw=st.floats(0.5, 50.0),
    shift=st.floats(-0.9, 0.9),
)
def test_half_depth_window_matches_loop_on_single_notch(ql, ratio, n, span_lw, shift):
    f0 = 6.55e9
    freqs = synth_grid(f0 * (1.0 + shift * span_lw / ql), ql, span_lw=span_lw, n=n)
    trace = db(notch_s21_model(freqs, f0, ql, ql * ratio))
    dips = local_minima(trace, 0.0)
    if len(dips):
        i = dips[np.argmin(trace[dips])]
        assert half_depth_window(trace, i) == _half_depth_window_loop(trace, i)


def test_half_depth_window_stops_at_saddle():
    # a 0.03 dB dip on the skirt of a 1 dB, Q_l = 50 dip, as the seed cell's
    # OFF spectrum has near 13.45 GHz: below half the shallow dip's depth all
    # the way to the deep one, so a walk past the saddle takes in both
    freqs = np.linspace(12e9, 16e9, 4001)
    s21 = (notch_s21_model(freqs, 14.0e9, 50.0, 440.0)
           * notch_s21_model(freqs, 13.45e9, 2000.0, 2000.0 / 0.003))
    trace = db(s21)
    shallow, deep = local_minima(trace, 0.05)
    assert freqs[shallow] == pytest.approx(13.45e9) and freqs[deep] == pytest.approx(14.0e9)
    lo, hi = half_depth_window(trace, shallow)
    assert not lo <= deep <= hi
    assert trace[hi + 1] < trace[hi]  # the saddle
    # the shallow dip's fit is drawn onto the deep one: it keeps its own,
    # unfitted peak
    peaks = find_resonances(freqs, s21)
    assert [p.f0 for p in peaks] == pytest.approx([13.45e9, 14.0e9], rel=1e-4)
    assert peaks[0].q_loaded is None and peaks[1].q_loaded is not None


@settings(deadline=None)
@given(
    offset=st.floats(0.2e9, 1.0e9),
    side=st.sampled_from([-1.0, 1.0]),
    ql_shallow=st.floats(100.0, 2000.0),
    depth_db=st.floats(0.03, 0.2),
    ql_deep=st.floats(30.0, 80.0),
)
def test_one_peak_per_dip_on_a_skirt(offset, side, ql_shallow, depth_db, ql_deep):
    # a shallow dip on the skirt of a 1 dB dip at 14 GHz
    freqs = np.linspace(12e9, 16e9, 4001)
    k_deep, k_shallow = (1.0 - 10.0 ** (-d / 20.0) for d in (1.0, depth_db))
    s21 = (notch_s21_model(freqs, 14.0e9, ql_deep, ql_deep / k_deep)
           * notch_s21_model(freqs, 14.0e9 + side * offset, ql_shallow, ql_shallow / k_shallow))
    trace = db(s21)
    dips = local_minima(trace, 0.05)
    peaks = find_resonances(freqs, s21)
    assert len(peaks) == len(dips)
    for i, peak in zip(dips, peaks):
        lo, hi = half_depth_window(trace, i)
        if peak.q_loaded is not None:
            assert freqs[max(lo - 1, 0)] <= peak.f0 <= freqs[min(hi + 1, len(freqs) - 1)]


def test_off_spectrum_fit_windows(monkeypatch, tmp_path):
    # the 13.45 GHz dip on the 14 GHz mode's skirt once fitted the whole grid
    [(freqs, s21, min_depth_db)] = seed_spectrum_traces(tmp_path, ["off"])
    calls = recorded_fits(monkeypatch, resonance)
    find_resonances(freqs, s21, min_depth_db)
    points = sum(len(residuals(p0)) // 2 for residuals, _, p0, _ in calls)
    assert 0 < points <= 8000


def test_peak_validation():
    with pytest.raises(ValueError):
        ResonancePeak(f0=-1.0, depth_db=3.0)
    with pytest.raises(ValueError):
        ResonancePeak(f0=6e9, depth_db=3.0, q_loaded=-5.0)


@pytest.mark.parametrize("phase_deg, band", [(80.0, (5.7e9, 6.003e9)), (100.0, (5.997e9, 6.3e9))],
                         ids=["crossing_past_the_top", "crossing_below_the_bottom"])
def test_dip_cut_from_its_crossing_keeps_its_roots(phase_deg, band):
    # Z = alpha (f - f_zero) puts its Im Z up-crossing 5.3 MHz above the
    # zero at a phase of 80 degrees and below it at 100: each band holds
    # the zero in the dip's window but cuts the crossing off, so the
    # sweep's end seeds the roots, as the whole 5.7-6.3 GHz sweep's
    # crossing does
    f_zero = 6e9 + 3e7j
    alpha = 1e-7 * np.exp(1j * np.radians(phase_deg))

    def z(f):
        return alpha * (f - f_zero)

    def peaks(lo, hi):
        freqs = np.linspace(lo, hi, 3001)
        return freqs, peaks_from_roots(freqs, notch_s21(z(freqs), 50.0), 0.01, z, 50.0)

    freqs, [cut] = peaks(*band)
    x = z(freqs).imag
    assert not np.any((x[:-1] < 0) & (x[1:] >= 0))
    _, [whole] = peaks(5.7e9, 6.3e9)
    assert whole.q_loaded is not None
    assert cut.f0 == pytest.approx(f_zero.real, rel=1e-12)
    for q in ("q_loaded", "q_coupling", "q_internal"):
        assert getattr(cut, q) == pytest.approx(getattr(whole, q), rel=1e-12)


class TestComplexRoots:
    """complex_zeros and peak_from_roots against closed forms and notch fits."""

    Z0 = 50.0

    def series_rlc(self, r, l, c):
        def z(f):
            w = 2.0 * np.pi * f
            return r + 1j * w * l + 1.0 / (1j * w * c)

        return z

    def closed_form_root(self, r, l, c):
        """f of the zero of R + jwL + 1/jwC: w = jR/2L + sqrt(1/LC - R^2/4L^2)."""
        return (1j * r / (2 * l) + np.sqrt(1 / (l * c) - r**2 / (4 * l**2))) / (2 * np.pi)

    def test_series_rlc_closed_form(self):
        r, l, c = 0.2, 1e-6, 5.9e-19  # f0 ~ 6.55 GHz, Q_i ~ 2e5, Q_l ~ 1.6e3
        f_r = 1.0 / (2 * np.pi * np.sqrt(l * c))
        z = self.series_rlc(r, l, c)
        f_zero, f_pole = complex_zeros(lambda f: z(f) + [0.0, self.Z0 / 2], [f_r, f_r],
                                       0.99 * f_r, 1.01 * f_r)
        want_zero = self.closed_form_root(r, l, c)
        want_pole = self.closed_form_root(r + self.Z0 / 2, l, c)
        assert abs(f_zero - want_zero) <= 1e-12 * abs(want_zero.imag)
        assert abs(f_pole - want_pole) <= 1e-12 * abs(want_pole.imag)

        peak = peak_from_roots(f_zero, f_pole)
        qi = want_zero.real / (2 * want_zero.imag)
        ql = want_pole.real / (2 * want_pole.imag)
        assert peak.f0 == pytest.approx(want_zero.real, rel=1e-12)
        assert peak.q_internal == pytest.approx(qi, rel=1e-12)
        assert peak.q_loaded == pytest.approx(ql, rel=1e-12)
        assert peak.q_coupling == pytest.approx(1 / (1 / ql - 1 / qi), rel=1e-12)
        assert peak.depth_db == pytest.approx(-20 * np.log10(ql / qi), rel=1e-12)

    def test_lossless_branch_has_real_zero(self, cell):
        lossless = cell.lossless()
        f_r = tcr_branch_resonance(lossless, ANCHOR)
        f_zero = complex_zeros(lambda f: _tcr_branch_impedance(lossless, ANCHOR, f), f_r,
                               0.99 * f_r, 1.01 * f_r)
        assert f_zero.imag == 0.0
        peak = measure_isolated_tcr(lossless, ANCHOR)
        assert peak.q_internal is None
        assert peak.q_coupling == peak.q_loaded

    def test_root_that_leaves_its_bracket_is_nan(self):
        # zeros at every whole GHz; from 6.51 GHz the first Newton step
        # overshoots to about 16.6 GHz
        def fn(f):
            return np.sin(np.pi * f / 1e9)

        assert round(float(complex_zeros(fn, 6.51e9, 1e9, 1e11).real) / 1e9) not in (6, 7)
        assert np.isnan(complex_zeros(fn, 6.51e9, 5.9e9, 7.1e9))
        both = complex_zeros(fn, [6.51e9, 6.02e9], [5.9e9, 5.5e9], [7.1e9, 6.5e9])
        assert np.isnan(both[0])
        assert both[1] == complex_zeros(fn, 6.02e9, 5.5e9, 6.5e9)
        assert both[1] == pytest.approx(6e9, rel=1e-15)

    def test_root_not_converged_is_nan(self):
        # no zero at all: the iteration runs out of steps inside its bracket
        assert np.isnan(complex_zeros(lambda f: np.exp(1j * f / 1e9), 6.5e9, 0.0, 1e12))

    def test_scalar_and_vector_calls_agree_bitwise(self, cell):
        # seeds far from the 6.55 GHz dip leave the bracket: nan, also bitwise
        seeds = np.linspace(6.45e9, 6.65e9, 9)

        def z(f):
            return _tcr_branch_impedance(cell, ANCHOR, f)

        vec = complex_zeros(z, seeds, 6.0e9, 7.0e9)
        assert 0 < np.sum(np.isfinite(vec)) < len(seeds)
        scalar = [complex_zeros(z, seed, 6.0e9, 7.0e9) for seed in seeds]
        assert np.array_equal(vec, scalar, equal_nan=True)

    def test_seed_cell_matches_a_dense_notch_fit(self, cell):
        peak = measure_isolated_tcr(cell, ANCHOR)
        lw = peak.f0 / peak.q_loaded
        freqs = np.linspace(peak.f0 - 12 * lw, peak.f0 + 12 * lw, 4001)
        s21 = notch_s21(_tcr_branch_impedance(cell, ANCHOR, freqs), cell.z0)
        fit = max(find_resonances(freqs, s21, min_depth_db=1e-4), key=lambda p: p.depth_db)
        assert peak.f0 == pytest.approx(fit.f0, rel=1e-6)
        assert peak.q_loaded == pytest.approx(fit.q_loaded, rel=1e-3)
        assert peak.q_coupling == pytest.approx(fit.q_coupling, rel=1e-3)
        assert peak.f0 == pytest.approx(tcr_branch_resonance(cell, ANCHOR), rel=1e-9)

    def test_non_passive_roots_rejected(self):
        with pytest.raises(ValueError):
            peak_from_roots(6.5e9 - 1e3j, 6.5e9 + 1e6j)
        with pytest.raises(ValueError):
            peak_from_roots(6.5e9 + 1e3j, complex(np.nan, np.nan))


#: a root's parts: mostly a passive resonance's, sometimes a lossless, active,
#: failed (nan) or negative-frequency one
ROOT_REAL = st.one_of(st.floats(1e8, 2e10), st.floats(1e8, 2e10), st.floats(-2e10, 0.0),
                      st.just(np.nan))
ROOT_IMAG = st.one_of(st.floats(1e-3, 1e9), st.floats(1e-3, 1e9), st.just(0.0),
                      st.floats(-1e9, -1e-3), st.just(np.nan))
ROOTS = st.builds(complex, ROOT_REAL, ROOT_IMAG)


def scalar_outcome(f_zero, f_pole):
    """scalar_peak()'s peak, the message it raises, or None where it divides
    by zero (a zero Q, or 1/Q_l == 1/Q_i)."""
    try:
        return scalar_peak(f_zero, f_pole)
    except ValueError as exc:
        return str(exc)
    except ZeroDivisionError:
        return None


class TestNotchReadout:
    """notch_readout() columns and peak_from_roots() against the scalar formula."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(ROOTS, ROOTS), min_size=1, max_size=12))
    @example(pairs=[(1j, complex(np.nan, 1.0))])  # Re f_zero = 0: Q_i = 0
    @example(pairs=[(1e8, complex(-1.1125369292536007e-308, 1.0))])  # 1/Q_l overflows
    def test_columns_are_the_scalar_formula_bit_for_bit(self, pairs):
        f_zero, f_pole = (np.array(c, dtype=complex) for c in zip(*pairs))
        cols = notch_readout(f_zero, f_pole)
        for k, (fz, fp) in enumerate(pairs):
            want = scalar_outcome(fz, fp)
            if want is None:  # the columns carry on in floating point
                with contextlib.suppress(ValueError):
                    peak_from_roots(fz, fp)
                continue
            try:
                assert peak_from_roots(fz, fp) == want
            except ValueError as exc:
                assert str(exc) == want
            if isinstance(want, str):
                with pytest.raises(ValueError) as exc:
                    cols.require(np.arange(len(pairs)) == k)
                assert str(exc.value) == want
                continue
            cols.require(np.arange(len(pairs)) == k)
            assert cols.passive[k]
            assert (cols.f0[k], cols.depth_db[k], cols.q_loaded[k]) == (
                want.f0, want.depth_db, want.q_loaded)
            for col, q in ((cols.q_coupling, want.q_coupling),
                           (cols.q_internal, want.q_internal)):
                assert np.isnan(col[k]) if q is None else col[k] == q

    def test_require_raises_at_the_first_checked_root(self):
        # a non-passive root, then a negative-frequency one
        f_zero = np.array([6.5e9 + 1e3j, 6.5e9 - 1e3j, -6.5e9 + 1e3j, 6.6e9 + 1e3j])
        f_pole = np.full(4, 6.5e9 + 1e6j)
        cols = notch_readout(f_zero, f_pole)
        cols.require([True, False, False, True])
        with pytest.raises(ValueError, match="ResonancePeak.f0 must be positive"):
            cols.require([True, False, True, True])
        with pytest.raises(ValueError, match="a passive branch"):
            cols.require(True)

    def test_lossless_and_undercoupled_roots(self):
        cols = notch_readout([6.5e9, 6.5e9 + 1e6j], [6.5e9 + 1e6j, 6.5e9 + 1e5j])
        # lossless: Q_c = Q_l, no Q_i, the clipped depth; Q_i < Q_l: no Q_c
        assert cols.q_coupling[0] == cols.q_loaded[0] and np.isnan(cols.q_internal[0])
        assert cols.depth_db[0] == -db(0.0)
        assert np.isnan(cols.q_coupling[1]) and cols.depth_db[1] < 0
        assert peak_from_roots(6.5e9, 6.5e9 + 1e6j) == ResonancePeak(
            6.5e9, -float(db(0.0)), 3250.0, 3250.0, None)
