"""Notch-model fitting: recovery against its own generator."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import least_squares

from qmemsim import resonance
from qmemsim.resonance import (
    ResonancePeak,
    _fit_notch,
    _linear_seed,
    _notch_jacobian,
    find_resonances,
    local_minima,
    notch_s21_model,
)


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
        results = []

        def spy(*args, **kwargs):
            results.append(least_squares(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(resonance, "least_squares", spy)
        assert _fit_notch(freqs, s21, self.f0, 10.0, 20.0) is None
        assert results[-1].success
        assert results[-1].x[1] == pytest.approx(np.log10(0.5))

    def test_programming_error_propagates(self, monkeypatch):
        def broken_model(*args):
            raise AttributeError("bug in the residuals")

        monkeypatch.setattr(resonance, "notch_s21_model", broken_model)
        freqs, s21 = self.trace()
        with pytest.raises(AttributeError, match="bug"):
            _fit_notch(freqs, s21, self.f0, self.ql, self.qc)


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


def test_peak_validation():
    with pytest.raises(ValueError):
        ResonancePeak(f0=-1.0, depth_db=3.0)
    with pytest.raises(ValueError):
        ResonancePeak(f0=6e9, depth_db=3.0, q_loaded=-5.0)
