"""Cell network: shunt branch, sweeps, OFF-state spectrum."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmemsim import cell as cell_module, resonance
from qmemsim.cell import (
    OFF_BAND,
    MemoryCell,
    adaptive_sweep,
    cell_shunt_impedance,
    frequency_sweep,
    sc_mode_estimate,
    sc_quarterwave_frequency,
    spectrum,
    tcr_mode_estimate,
)
from qmemsim.jjfet import OFF, JjFet, critical_current_for_inductance
from qmemsim.resonance import (db, half_depth_window, local_minima, notch_roots,
                                peak_from_roots, peaks_from_roots)
from qmemsim.twoport import SHORT, input_impedance
from tests.conftest import recorded_fits


def make_cell(**overrides):
    kw = dict(
        z0=50.0,
        eps_eff=6.45,
        c_in=20e-15,
        tcr_half_len=4.1e-3,
        jj=JjFet(i_c_max=critical_current_for_inductance(220e-12)),
        c_couple=40e-15,
        sc_len=4.27e-3,
        line_atten=0.0,
    )
    kw.update(overrides)
    return MemoryCell(**kw)


class TestGeometry:
    def test_quarterwave_frequency(self):
        cell = make_cell(sc_len=4.505e-3)
        v = 299792458.0 / math.sqrt(6.45)
        assert sc_quarterwave_frequency(cell) == pytest.approx(v / (4 * 4.505e-3), rel=1e-12)
        assert sc_quarterwave_frequency(cell) == pytest.approx(6.55e9, rel=1e-3)

    def test_sc_mode_below_quarterwave(self):
        cell = make_cell()
        assert sc_mode_estimate(cell) < sc_quarterwave_frequency(cell)

    def test_tcr_mode_decreases_with_inductance(self):
        cell = make_cell()
        fs = [tcr_mode_estimate(cell, l) for l in (10e-12, 220e-12, 500e-12)]
        assert fs[0] > fs[1] > fs[2]

    def test_halving_sections_doubles_tcr_mode(self):
        # lossless, tiny junction inductance: mode scales as 1/length
        cell = make_cell()
        base = tcr_mode_estimate(cell, 1e-15)
        halved = tcr_mode_estimate(replace(cell, tcr_half_len=cell.tcr_half_len / 2), 1e-15)
        assert halved == pytest.approx(2.0 * base, rel=1e-2)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_cell(c_in=0.0)
        with pytest.raises(ValueError):
            make_cell(line_atten=-1.0)


class TestShuntImpedance:
    def test_tiny_input_capacitor_decouples(self):
        cell = make_cell()
        small = replace(cell, c_in=1e-21)
        for f in (5e9, 6.5e9, 7.5e9):
            assert abs(cell_shunt_impedance(small, 220e-12, f)) > 1e7

    def test_lossless_branch_is_reactive(self):
        cell = make_cell().lossless()
        for f in np.linspace(5e9, 8e9, 40):
            z = cell_shunt_impedance(cell, 220e-12, float(f))
            if not math.isinf(abs(z)):
                assert abs(z.real) < 1e-6 * max(abs(z.imag), 1.0)

    def test_stub_impedance_matches_tan_formula(self):
        cell = make_cell()
        f = 3.0e9
        beta = 2 * math.pi * f * math.sqrt(cell.eps_eff) / 299792458.0
        expect = 1j * 50.0 * math.tan(beta * cell.sc_len)
        assert input_impedance([cell.line(cell.sc_len)], SHORT, f) == pytest.approx(expect, rel=1e-9)

    def test_on_resonance_is_local_impedance_minimum(self):
        cell = make_cell(line_atten=5e-4)
        freqs, s21 = adaptive_sweep(cell, 220e-12, (5.8e9, 7.4e9))
        i = int(np.argmin(np.abs(s21)))
        z = np.abs(cell_shunt_impedance(cell, 220e-12, freqs[max(i - 5, 0):i + 5]))
        assert np.argmin(z) not in (0, len(z) - 1)


class TestSweeps:
    def test_passivity(self):
        cell = make_cell(line_atten=5e-4)
        for state in (220e-12, 50e-12, OFF):
            freqs, s21 = frequency_sweep(cell, state, np.linspace(1e9, 16e9, 4001))
            assert np.all(np.abs(s21) <= 1.0 + 1e-12)

    def test_two_modes_at_crossing(self):
        from qmemsim.resonance import find_resonances

        cell = make_cell()
        freqs, s21 = adaptive_sweep(cell, 220e-12, (5.6e9, 7.4e9))
        peaks = find_resonances(freqs, s21, min_depth_db=0.05)
        assert len(peaks) == 2

    def test_grid_validation(self):
        cell = make_cell()
        with pytest.raises(ValueError):
            frequency_sweep(cell, 220e-12, np.array([2e9, 1e9]))
        with pytest.raises(ValueError):
            frequency_sweep(cell, 220e-12, np.array([]))

    def test_adaptive_grid_is_strictly_increasing(self):
        cell = make_cell()
        freqs, _ = adaptive_sweep(cell, 220e-12, (6.0e9, 7.2e9))
        assert np.all(np.diff(freqs) > 0)

    def test_adaptive_sweep_evaluates_each_point_once(self, monkeypatch):
        evaluated = []

        def counting_sweep(cell, state, f_grid):
            evaluated.append(len(f_grid))
            return frequency_sweep(cell, state, f_grid)

        monkeypatch.setattr(cell_module, "frequency_sweep", counting_sweep)
        freqs, _ = adaptive_sweep(make_cell(), 220e-12, (6.0e9, 7.2e9))
        assert len(evaluated) > 1  # the refinement stages ran
        assert sum(evaluated) == len(freqs)

    def test_off_sweep_resolves_the_storage_cavity(self, monkeypatch):
        cell = make_cell()
        f_sc = sc_mode_estimate(cell)
        window = np.arange(f_sc - 5e6, f_sc + 5e6 + 1e3, 2e3)
        freqs, _ = adaptive_sweep(cell, OFF, (6.0e9, 7.2e9))
        assert np.isin(window, freqs).all()

        def no_estimate(cell):
            raise AssertionError("an ON sweep needs no storage-cavity estimate")

        monkeypatch.setattr(cell_module, "sc_mode_estimate", no_estimate)
        freqs, _ = adaptive_sweep(cell, 220e-12, (6.0e9, 7.2e9))
        assert not np.isin(window, freqs).any()


@settings(max_examples=25, deadline=None)
@given(
    lo=st.floats(5.6e9, 6.6e9),
    width=st.floats(5e7, 1.2e9),
    state=st.one_of(st.floats(10e-12, 500e-12), st.just(OFF)),
)
def test_adaptive_sweep_matches_one_sweep_of_its_grid(lo, width, state):
    cell = make_cell(line_atten=5e-4)
    freqs, s21 = adaptive_sweep(cell, state, (lo, lo + width))
    _, ref = frequency_sweep(cell, state, freqs)
    assert s21.tobytes() == ref.tobytes()


class TestOffState:
    def test_two_split_resonances_in_band(self, cell):
        peaks, _ = spectrum(cell, OFF, OFF_BAND)
        in_band = [p for p in peaks if 11.5e9 <= p.f0 <= 14.5e9]
        assert len(in_band) == 2

    def test_off_floor_in_readout_band(self, cell):
        freqs, s21 = frequency_sweep(cell, OFF, np.linspace(6.4e9, 7.0e9, 3001))
        assert np.min(np.abs(s21)) >= 0.999


class TestSpectrumRoots:
    """spectrum reads each dip's resonance off the cell branch's complex roots."""

    STATES = [(220e-12, (5.8e9, 7.4e9)), (OFF, OFF_BAND)]

    @pytest.mark.parametrize("state, band", STATES)
    def test_trace_gives_the_sign_of_the_branch_reactance(self, cell, state, band):
        _, (freqs, s21) = spectrum(cell, state, band)
        x = cell_shunt_impedance(cell, state, freqs).imag
        assert np.array_equal(np.sign((s21 / (1.0 - s21)).imag), np.sign(x))

    @pytest.mark.parametrize("state, band, rooted", [(*STATES[0], 2), (*STATES[1], 1)])
    def test_peaks_are_their_dips_roots(self, cell, state, band, rooted):
        peaks, (freqs, s21) = spectrum(cell, state, band)
        trace, n = db(s21), len(freqs)
        x = (s21 / (1.0 - s21)).imag
        up = [freqs[k] - x[k] * (freqs[k + 1] - freqs[k]) / (x[k + 1] - x[k])
              for k in range(n - 1) if x[k] < 0 <= x[k + 1]]
        with_q = [p for p in peaks if p.q_loaded is not None]
        assert len(with_q) == rooted
        for peak in with_q:
            # its dip: the minimum whose parabola gave f_dip
            [i] = [i for i in local_minima(trace, 0.01) if freqs[i - 1] < peak.f_dip < freqs[i + 1]]
            assert peak.depth_db == -trace[i]
            lo, hi = half_depth_window(trace, i)
            f_lo, f_hi = freqs[max(lo - 1, 0)], freqs[min(hi + 1, n - 1)]
            assert f_lo <= peak.f0 <= f_hi
            seed = min((f for f in up if f_lo <= f <= f_hi), key=lambda f: abs(f - peak.f_dip))
            # bracketed by the whole sweep: the bits do not depend on the bracket
            f_zero, f_pole = notch_roots(lambda f: cell_shunt_impedance(cell, state, f), cell.z0,
                                         seed, freqs[0], freqs[-1])
            want = peak_from_roots(f_zero, f_pole)
            assert (peak.f0, peak.q_loaded, peak.q_coupling, peak.q_internal) == (
                want.f0, want.q_loaded, want.q_coupling, want.q_internal)

    def test_shallow_off_dip_has_no_root(self, cell):
        peaks, _ = spectrum(cell, OFF, OFF_BAND)
        [shallow] = [p for p in peaks if abs(p.f0 - 13.45e9) < 0.05e9]
        assert shallow.q_loaded is None and shallow.q_coupling is None
        assert shallow.f0 == shallow.f_dip

    def test_band_end_between_zero_and_crossing_keeps_the_roots(self, cell):
        # the 13.96 GHz OFF dip's zero (13.917 GHz) lies inside 13-14 GHz and
        # its Im Z up-crossing (14.08 GHz) past the band's end: the end seeds
        # its roots, and it reads as over 13-14.1 GHz, which holds both
        cut, (freqs, s21) = spectrum(cell, OFF, (13e9, 14e9))
        whole, _ = spectrum(cell, OFF, (13e9, 14.1e9))
        assert (s21 / (1.0 - s21)).imag[-1] < 0
        assert [p.q_loaded is None for p in cut] == [True, False]
        assert abs(cut[0].f0 - 13.45e9) < 0.05e9 and cut[0].f0 == cut[0].f_dip
        split, want = cut[1], whole[1]
        assert split.f0 == pytest.approx(13916937411.21, abs=0.01)
        assert split.q_loaded == pytest.approx(54.06, abs=0.005)
        for q in ("f0", "q_loaded", "q_coupling", "q_internal"):
            assert getattr(split, q) == pytest.approx(getattr(want, q), rel=1e-12)

    def test_deep_dip_keeps_a_pole_outside_its_window(self):
        # a near-lossless cell's 80 dB dip: its half-depth window is narrower
        # than its pole's real part is from its zero's, and it keeps its Q
        cell = make_cell()
        peaks, (freqs, s21) = spectrum(cell, 50e-12, (5.8e9, 7.4e9))
        assert all(p.q_loaded is not None for p in peaks)
        deep = max(peaks, key=lambda p: p.depth_db)
        trace = db(s21)
        [i] = [i for i in local_minima(trace, 0.01) if freqs[i - 1] < deep.f_dip < freqs[i + 1]]
        lo, hi = half_depth_window(trace, i)
        _, f_pole = notch_roots(lambda f: cell_shunt_impedance(cell, 50e-12, f), cell.z0,
                                deep.f0, freqs[0], freqs[-1])
        assert deep.depth_db > 75.0
        assert not freqs[lo - 1] <= f_pole.real <= freqs[hi + 1]

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_short_trace_has_no_peaks(self, n):
        def no_branch(f):
            raise AssertionError("a trace without dips takes no roots")

        assert peaks_from_roots(np.arange(1.0, n + 1.0), np.zeros(n), 0.01, no_branch, 50.0) == []

    def test_no_trace_fit(self, cell, monkeypatch):
        calls = recorded_fits(monkeypatch, resonance)
        for state, band in self.STATES:
            spectrum(cell, state, band)
        assert calls == []
