"""Cell network: shunt branch, sweeps, OFF-state spectrum."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmemsim import cell as cell_module
from qmemsim.cell import (
    MemoryCell,
    adaptive_sweep,
    cell_shunt_impedance,
    frequency_sweep,
    off_split_mode_estimates,
    off_state_spectrum,
    sc_mode_estimate,
    sc_quarterwave_frequency,
    sc_stub_impedance,
    tcr_mode_estimate,
)
from qmemsim.jjfet import JjFet, Off, On, critical_current_for_inductance


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
            assert abs(cell_shunt_impedance(small, On(220e-12), f)) > 1e7

    def test_lossless_branch_is_reactive(self):
        cell = make_cell().lossless()
        for f in np.linspace(5e9, 8e9, 40):
            z = cell_shunt_impedance(cell, On(220e-12), float(f))
            if not math.isinf(abs(z)):
                assert abs(z.real) < 1e-6 * max(abs(z.imag), 1.0)

    def test_stub_impedance_matches_tan_formula(self):
        cell = make_cell()
        f = 3.0e9
        beta = 2 * math.pi * f * math.sqrt(cell.eps_eff) / 299792458.0
        expect = 1j * 50.0 * math.tan(beta * cell.sc_len)
        assert sc_stub_impedance(cell, f) == pytest.approx(expect, rel=1e-9)

    def test_on_resonance_is_local_impedance_minimum(self):
        cell = make_cell(line_atten=5e-4)
        freqs, s21 = adaptive_sweep(cell, On(220e-12), (5.8e9, 7.4e9))
        i = int(np.argmin(np.abs(s21)))
        z = np.abs(cell_shunt_impedance(cell, On(220e-12), freqs[max(i - 5, 0):i + 5]))
        assert np.argmin(z) not in (0, len(z) - 1)


class TestSweeps:
    def test_passivity(self):
        cell = make_cell(line_atten=5e-4)
        for state in (On(220e-12), On(50e-12), Off(1000.0)):
            freqs, s21 = frequency_sweep(cell, state, np.linspace(1e9, 16e9, 4001))
            assert np.all(np.abs(s21) <= 1.0 + 1e-12)

    def test_two_modes_at_crossing(self):
        from qmemsim.resonance import find_resonances

        cell = make_cell()
        freqs, s21 = adaptive_sweep(cell, On(220e-12), (5.6e9, 7.4e9))
        peaks = find_resonances(freqs, s21, min_depth_db=0.05)
        assert len(peaks) == 2

    def test_grid_validation(self):
        cell = make_cell()
        with pytest.raises(ValueError):
            frequency_sweep(cell, On(220e-12), np.array([2e9, 1e9]))
        with pytest.raises(ValueError):
            frequency_sweep(cell, On(220e-12), np.array([]))

    def test_adaptive_grid_is_strictly_increasing(self):
        cell = make_cell()
        freqs, _ = adaptive_sweep(cell, On(220e-12), (6.0e9, 7.2e9))
        assert np.all(np.diff(freqs) > 0)

    def test_adaptive_sweep_evaluates_each_point_once(self, monkeypatch):
        evaluated = []

        def counting_sweep(cell, state, f_grid):
            evaluated.append(len(f_grid))
            return frequency_sweep(cell, state, f_grid)

        monkeypatch.setattr(cell_module, "frequency_sweep", counting_sweep)
        freqs, _ = adaptive_sweep(make_cell(), On(220e-12), (6.0e9, 7.2e9))
        assert len(evaluated) > 1  # the refinement stages ran
        assert sum(evaluated) == len(freqs)


_focus = st.tuples(
    st.floats(6.0e9, 7.0e9),  # centre
    st.floats(1e5, 5e6),      # half width
    st.floats(2e3, 2e5),      # step
).filter(lambda w: w[1] / w[2] <= 500)


@settings(max_examples=25, deadline=None)
@given(
    lo=st.floats(5.6e9, 6.6e9),
    width=st.floats(5e7, 1.2e9),
    state=st.one_of(st.floats(10e-12, 500e-12).map(On), st.just(Off(1000.0))),
    focus=st.lists(_focus, max_size=2),
    stages=st.integers(0, 4),
    refine=st.integers(2, 12),
)
def test_adaptive_sweep_matches_one_sweep_of_its_grid(lo, width, state, focus, stages, refine):
    cell = make_cell(line_atten=5e-4)
    freqs, s21 = adaptive_sweep(
        cell, state, (lo, lo + width), stages=stages, refine=refine, focus=focus
    )
    _, ref = frequency_sweep(cell, state, freqs)
    assert s21.tobytes() == ref.tobytes()


class TestOffState:
    def test_split_modes_near_double_frequency(self, cell):
        est = off_split_mode_estimates(cell)
        f_tcr_on = tcr_mode_estimate(cell, 220e-12)
        for f in est:
            assert 1.7 * f_tcr_on < f < 2.3 * f_tcr_on

    def test_two_split_resonances_in_band(self, cell):
        peaks, _ = off_state_spectrum(cell)
        in_band = [p for p in peaks if 11.5e9 <= p.f0 <= 14.5e9]
        assert len(in_band) == 2

    def test_off_floor_in_readout_band(self, cell):
        freqs, s21 = frequency_sweep(cell, Off(1000.0), np.linspace(6.4e9, 7.0e9, 3001))
        assert np.min(np.abs(s21)) >= 0.999
