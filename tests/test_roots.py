"""Every root-find in the pipeline lands on a root of its own equation.

Each real case returns (fn, root, rtol): fn must change sign across
root * (1 -+ rtol), which bounds the root's error by its stated relative
tolerance.  The analytic estimates are checked against their resonance
equations written out independently here.  Each complex root, from every
caller of complex_zeros (calibrate and modemap through notch_roots), must
sit where one more Newton step is below 1e-12 relative.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from qmemsim import extract, resonance
from qmemsim.calibrate import (
    SCAN_POINTS,
    CalibrationTargets,
    _tcr_branch_impedance,
    calibrate_geometry,
    measure_isolated_tcr,
    sc_branch_resonance,
    tcr_branch_resonance,
)
from qmemsim.cell import (
    sc_branch_impedance,
    sc_mode_estimate,
    tcr_mode_estimate,
)
from qmemsim.extract import _cavity_internal_rate, off_state_residual_coupling
from qmemsim.modemap import fit_avoided_crossing, hybridized_map, mode_map
from qmemsim.twoport import C0
from tests.conftest import ANCHOR, Q_C, TARGETS


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


def _sc_branch(request):
    cell = request.getfixturevalue("cell")
    return (lambda f: sc_branch_impedance(cell, f).imag,
            sc_branch_resonance(cell), 1e-9)


def _tcr_branch(request):
    cell = request.getfixturevalue("cell")
    return (lambda f: _tcr_branch_impedance(cell, ANCHOR, f).imag,
            tcr_branch_resonance(cell, ANCHOR), 1e-9)


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
    "calibrate.sc_branch_resonance": _sc_branch,
    "calibrate.tcr_branch_resonance": _tcr_branch,
    "modemap.window_low": _crossing("low"),
    "modemap.l_cross": _crossing("cross"),
    "modemap.window_high": _crossing("high"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_root_sits_on_sign_change(request, case):
    fn, root, rtol = CASES[case](request)
    below, above = fn(root * (1.0 - rtol)), fn(root * (1.0 + rtol))
    assert below * above <= 0, (below, above)


# ------------------------- complex roots -------------------------


COMPLEX_CASES = {
    "extract.cavity_zero": (extract, _cavity_internal_rate),
    "extract.off_loop_zero": (extract, lambda cell: off_state_residual_coupling(cell, 1e7)),
    "calibrate.isolated_tcr_zero_and_pole": (resonance,
                                             lambda cell: measure_isolated_tcr(cell, ANCHOR)),
    "modemap.rows": (resonance, lambda cell: mode_map(cell, np.array([200e-12, 240e-12]))),
}


@pytest.mark.parametrize("case", list(COMPLEX_CASES))
def test_complex_root_is_newton_converged(cell, monkeypatch, case):
    module, run = COMPLEX_CASES[case]
    calls = []
    real = module.complex_zeros

    def record(fn, seeds, lo, hi):
        calls.append((fn, real(fn, seeds, lo, hi)))
        return calls[-1][1]

    monkeypatch.setattr(module, "complex_zeros", record)
    run(cell)
    (fn, roots), = calls
    # a derivative step about 130x the solver's own
    h = 1e-6 * roots.real
    step = fn(roots) * (2.0 * h) / (fn(roots + h) - fn(roots - h))
    assert np.all(np.abs(step) <= 1e-12 * np.abs(roots)), step / roots


def test_crossing_point_on_bare_branch(crossing):
    # brentq's default absolute xtol (2e-12) would cost ~1% on a 240 pH root
    assert crossing.bare_coupler(crossing.l_cross) == pytest.approx(
        crossing.f_cross, rel=1e-12
    )


# ------------------------- at-target calibration roots -------------------------


@pytest.fixture(scope="module")
def weak_cell(template):
    """Calibrated cell whose 1 fF coupling capacitor puts the storage cavity's
    zero at the target closer below its reactance pole than one scan step."""
    targets = CalibrationTargets(f_sc=TARGETS[0], l_anchor=ANCHOR, q_c=Q_C)
    return calibrate_geometry(targets, replace(template, c_couple=1e-15))


def _at_target_reactance(cell, knob):
    """Im Z of the isolated branch that `knob` tunes, at the target, over the knob."""
    if knob == "sc_len":
        return lambda x: sc_branch_impedance(replace(cell, sc_len=x), TARGETS[0]).imag
    return lambda x: _tcr_branch_impedance(replace(cell, tcr_half_len=x), ANCHOR, TARGETS[0]).imag


@pytest.mark.parametrize("which, knob, steps", [
    # scan steps from the zero up to its pole: sc_len scans a span of one
    # quarter wave, tcr_half_len one of 0.8 (its zero sits at 0.90-0.93)
    ("cell", "sc_len", 11),
    ("cell", "tcr_half_len", 4),
    ("weak_cell", "sc_len", 1),
    ("weak_cell", "tcr_half_len", 4),
])
def test_at_target_root_is_the_zero_below_its_pole(request, which, knob, steps):
    cell = request.getfixturevalue(which)
    x = _at_target_reactance(cell, knob)
    root = getattr(cell, knob)
    # Im Z rises through a zero and falls through a pole
    assert x(root * (1.0 - 1e-9)) < 0.0 <= x(root * (1.0 + 1e-9))
    quarter = cell.phase_velocity / (4.0 * TARGETS[0])
    step = (1.0 if knob == "sc_len" else 0.8) * quarter / (SCAN_POINTS - 1)
    assert x(root + steps * step) < 0.0  # past the pole
    if steps > 1:
        assert x(root + (steps - 1) * step) > 0.0  # not yet
