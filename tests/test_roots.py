"""Every root-find in the pipeline lands on a sign change of its own equation.

Each case returns (fn, root, rtol): fn must change sign across
root * (1 -+ rtol), which bounds the root's error by its stated relative
tolerance.  The analytic estimates are checked against their resonance
equations written out independently here.
"""
import math

import numpy as np
import pytest

from qmemsim.calibrate import _tcr_branch_impedance, sc_branch_resonance, tcr_branch_resonance
from qmemsim.cell import (
    off_split_mode_estimates,
    sc_branch_impedance,
    sc_mode_estimate,
    tcr_mode_estimate,
)
from qmemsim.extract import _sc_loop_impedance, off_state_residual_coupling
from qmemsim.jjfet import Off
from qmemsim.modemap import fit_avoided_crossing, hybridized_map
from qmemsim.twoport import C0
from tests.conftest import ANCHOR


def _beta(cell):
    """Propagation constant per hertz, rad/(m Hz)."""
    return 2.0 * math.pi * math.sqrt(cell.eps_eff) / C0


def _sc_estimate(request):
    cell = request.getfixturevalue("cell")

    def g(f):  # z0 tan(beta l) = 1 / (omega c_couple)
        return (cell.z0 * math.tan(_beta(cell) * f * cell.sc_len)
                - 1.0 / (2.0 * math.pi * f * cell.c_couple))

    return g, sc_mode_estimate(cell), 1e-9


def _tcr_estimate(request):
    cell = request.getfixturevalue("cell")

    def g(f):  # omega L = 2 z0 cot(beta h)
        return (2.0 * cell.z0 / math.tan(_beta(cell) * f * cell.tcr_half_len)
                - 2.0 * math.pi * f * ANCHOR)

    return g, tcr_mode_estimate(cell, ANCHOR), 1e-9


def _off_split(which):
    def case(request):
        cell = request.getfixturevalue("cell")
        c_end = (cell.c_couple, cell.c_in)[which]

        def g(f):  # beta h + atan(z0 omega c_end) = pi
            return (_beta(cell) * f * cell.tcr_half_len
                    + math.atan(cell.z0 * 2.0 * math.pi * f * c_end) - math.pi)

        return g, off_split_mode_estimates(cell)[which], 1e-9

    return case


def _sc_branch(request):
    cell = request.getfixturevalue("cell")
    return (lambda f: sc_branch_impedance(cell, f).imag,
            sc_branch_resonance(cell), 1e-9)


def _tcr_branch(request):
    cell = request.getfixturevalue("cell")
    return (lambda f: _tcr_branch_impedance(cell, ANCHOR, f).imag,
            tcr_branch_resonance(cell, ANCHOR), 1e-9)


def _residual_f_sc(request):
    cell = request.getfixturevalue("cell")
    state, source = Off(cell.jj.r_off), cell.z0 / 2.0
    f_sc = off_state_residual_coupling(cell, kappa_a=1e7).f_sc
    return (lambda f: _sc_loop_impedance(cell, state, f, source).imag, f_sc, 1e-9)


def _narrow_crossing():
    """Fit of a closed-form map whose +-2g window lies inside the grid.

    The example cell's window runs past both grid ends, so its edges are
    the grid ends, not roots.
    """
    coeffs = (0.0, 0.0, -2e6 / 1e-12, 7.0e9)  # crosses 6.6 GHz at 200 pH
    l_grid = np.linspace(10e-12, 500e-12, 41)
    return fit_avoided_crossing(hybridized_map(l_grid, coeffs, 6.6e9, 50e6))


def _crossing(point):
    def case(request):
        if point == "cross":
            fit = request.getfixturevalue("crossing")
        else:
            fit = _narrow_crossing()
        # the bare branch falls with inductance: f_b + 2g at the window's
        # low edge, f_b at the crossing, f_b - 2g at the high edge
        x, offset = {
            "low": (fit.window[0], 2.0 * fit.g),
            "cross": (fit.l_cross, 0.0),
            "high": (fit.window[1], -2.0 * fit.g),
        }[point]
        return (lambda l: fit.bare_coupler(l) - fit.f_cross - offset, x, 1e-12)

    return case


CASES = {
    "cell.sc_mode_estimate": _sc_estimate,
    "cell.tcr_mode_estimate": _tcr_estimate,
    "cell.off_split_coupling_side": _off_split(0),
    "cell.off_split_input_side": _off_split(1),
    "calibrate.sc_branch_resonance": _sc_branch,
    "calibrate.tcr_branch_resonance": _tcr_branch,
    "extract.residual_f_sc": _residual_f_sc,
    "modemap.window_low": _crossing("low"),
    "modemap.l_cross": _crossing("cross"),
    "modemap.window_high": _crossing("high"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_root_sits_on_sign_change(request, case):
    fn, root, rtol = CASES[case](request)
    below, above = fn(root * (1.0 - rtol)), fn(root * (1.0 + rtol))
    assert below * above <= 0, (below, above)


def test_crossing_point_on_bare_branch(crossing):
    # brentq's default absolute xtol (2e-12) would cost ~1% on a 240 pH root
    assert crossing.bare_coupler(crossing.l_cross) == pytest.approx(
        crossing.f_cross, rel=1e-12
    )
