"""Circuit-to-coupled-mode extraction and the OFF-state residual."""
from dataclasses import replace

import numpy as np
import pytest

from qmemsim import extract
from qmemsim.calibrate import isolated_sc_trace
from qmemsim.dynamics import TWO_PI
from qmemsim.extract import (
    ExtractionError,
    _back_chain,
    _cavity_internal_rate,
    _sc_loop_impedance,
    extract_coupled_mode_params,
    full_accumulation_inductance,
    off_state_residual_coupling,
)
from qmemsim.resonance import find_resonances, find_root
from qmemsim.twoport import chain_abcd, terminate
from tests.conftest import ANCHOR, Q_C, TARGETS


class TestExtraction:
    def test_resonant_at_crossing(self, cell_system):
        assert cell_system.omega_a == pytest.approx(cell_system.omega_b, abs=TWO_PI * 1e5)

    def test_coupling_is_a_few_hundred_megahertz(self, cell_system):
        assert TWO_PI * 100e6 <= cell_system.g_on <= TWO_PI * 500e6

    def test_external_rate_matches_coupling_q(self, cell_system):
        q_c_rate = TWO_PI * TARGETS[0] / Q_C
        assert cell_system.kappa_ext == pytest.approx(q_c_rate, rel=0.02)

    def test_internal_rates_positive_for_lossy_cell(self, cell_system):
        assert cell_system.kappa_int_a > 0
        assert cell_system.gamma_b > 0
        assert cell_system.kappa_int_a < 0.1 * cell_system.kappa_ext

    def test_lossless_cell_has_zero_internal_rates(self, cell, crossing):
        system = extract_coupled_mode_params(cell.lossless(), crossing)
        assert system.kappa_int_a == 0.0
        assert system.gamma_b == 0.0

    def test_cavity_rate_matches_a_dense_notch_fit(self, cell, cell_system):
        # gamma_b = 4 pi Im f_z against 2 pi f0 / Q_i of a trace fit, an
        # independent path; Q_i ~ 1600 Q_l here, so the fit's Q_i is coarse
        f0 = TARGETS[0]
        freqs, s21 = isolated_sc_trace(cell, np.linspace(f0 - 20e6, f0 + 20e6, 4001))
        fit = max(find_resonances(freqs, s21, min_depth_db=1e-3), key=lambda p: p.depth_db)
        assert cell_system.gamma_b == pytest.approx(TWO_PI * fit.f0 / fit.q_internal, rel=2e-3)

    def test_cavity_zero_outside_its_bracket_raises(self, cell, monkeypatch):
        monkeypatch.setattr(extract, "complex_zeros", lambda fn, seeds, lo, hi: np.nan + 0j)
        with pytest.raises(ExtractionError, match="cavity internal rate"):
            _cavity_internal_rate(cell)

    def test_cavity_resolved_once(self, cell, crossing, chain_calls):
        # both cavity rates polish a complex root from the closed-form
        # estimate; a scan of the cavity branch or loop would exceed the bound
        extract_coupled_mode_params(cell, crossing)
        assert 0 < len(chain_calls) <= 27


class TestResidualCoupling:
    def test_default_cell_is_finite_and_small(self, cell, cell_system):
        res = off_state_residual_coupling(cell, kappa_a=cell_system.kappa_ext)
        assert not res.below_resolution
        assert 0.0 < res.g_off < 1e-3 * cell_system.g_on
        assert res.kappa_sc_ext > 0.0
        assert res.f_sc == pytest.approx(TARGETS[0], rel=5e-3)

    @pytest.mark.parametrize("r_off", [1e3, 1e4, 1e5, 1e6])
    def test_loop_root_matches_series_rlc_reduction(self, cell, r_off):
        # the reduction of the loop at its real resonance: L_eff = (dX/dw)/2
        # from a central difference, loss R_loop / L_eff, and the share of
        # the loop current reaching the line radiating into z0/2
        cell = replace(cell, jj=replace(cell.jj, r_off=r_off))
        source = cell.z0 / 2.0

        def loop(f):
            return _sc_loop_impedance(cell, f, source)

        res = off_state_residual_coupling(cell, kappa_a=1e7)
        f0 = find_root(lambda f: loop(f).imag, 0.999 * res.f_sc, 1.001 * res.f_sc, "reference",
                       rtol=4 * np.finfo(float).eps)
        df = 1e-6 * f0
        l_eff = 0.5 * (loop(f0 + df).imag - loop(f0 - df).imag) / (TWO_PI * 2.0 * df)
        tp = chain_abcd(_back_chain(cell), f0)
        transfer = abs(tp.a - tp.c * terminate(tp, source))
        assert res.gamma_off == pytest.approx(loop(f0).real / l_eff, rel=1e-4)
        assert res.kappa_sc_ext == pytest.approx(transfer**2 * source / l_eff, rel=1e-4)

    @pytest.mark.parametrize("c_couple, below", [
        (1e-25, True),  # the cavity estimate itself fails
        (1e-24, True),  # no loop zero within 1% of the estimate
        (1e-19, True),
        (1e-18, False),  # the zero sits 1.4e-6 below the stub's quarter-wave pole
        (3e-18, False),
        (1e-17, False),
        (1e-15, False),
        (4e-14, False),
    ])
    def test_below_resolution_across_coupling(self, cell, c_couple, below):
        res = off_state_residual_coupling(replace(cell, c_couple=c_couple), kappa_a=1e7)
        assert res.below_resolution == below
        assert (res.g_off == 0.0) == below
        assert (res.gamma_off is None) == below

    def test_no_coupling_capacitor_means_no_path(self, cell):
        tiny = replace(cell, c_couple=1e-19)
        res = off_state_residual_coupling(tiny, kappa_a=1e7)
        assert res.g_off == 0.0

    def test_open_junction_decouples(self, cell):
        open_jj = replace(cell, jj=replace(cell.jj, r_off=1e12, c_j=0.0))
        res = off_state_residual_coupling(open_jj, kappa_a=1e7)
        ref = off_state_residual_coupling(cell, kappa_a=1e7)
        assert res.kappa_sc_ext < 1e-6 * ref.kappa_sc_ext

    def test_purcell_inversion_consistency(self, cell):
        res = off_state_residual_coupling(cell, kappa_a=2e7)
        assert 4.0 * res.g_off**2 / 2e7 == pytest.approx(res.kappa_sc_ext, rel=1e-9)


def test_full_accumulation_inductance(cell):
    assert full_accumulation_inductance(cell) == pytest.approx(ANCHOR, rel=1e-9)
