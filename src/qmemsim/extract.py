"""Bridge from the circuit model to the reduced coupled-mode system.

Mode frequencies and the coupling come from the avoided-crossing fit's
bare branches; decay rates come from notch fits of the isolated branches;
the gate-OFF coupling floor comes from the depleted-junction spectrum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .calibrate import (
    CalibrationError,
    _up_crossing,
    isolated_sc_trace,
    measure_isolated_tcr,
    sc_branch_resonance,
)
from .cell import MemoryCell, sc_branch_impedance, tcr_chain
from .dynamics import TWO_PI, CoupledModeSystem
from .jjfet import Off, josephson_inductance
from .modemap import CrossingFit, fit_avoided_crossing, mode_map
from .resonance import find_resonances
from .twoport import Load, chain_abcd, terminate


class ExtractionError(RuntimeError):
    """A coupled-mode rate could not be derived from the circuit model."""


@dataclass(frozen=True)
class ResidualCoupling:
    """Gate-OFF coupling floor of the depleted-junction cell.

    g_off : rad/s, residual coherent coupling used in OFF segments
    kappa_sc_ext : rad/s, cavity-feedline decay through the depleted path
    kappa_a : rad/s, total coupler linewidth used for the inversion
    f_sc : Hz, cavity loop resonance in the OFF state (None when absent)
    below_resolution : no resolvable cavity loop survives; g_off is then
        exactly 0 by derivation
    """

    g_off: float
    kappa_sc_ext: float
    kappa_a: float
    f_sc: float | None
    below_resolution: bool


def full_accumulation_inductance(cell: MemoryCell) -> float:
    """Junction inductance at full accumulation (maximum critical current)."""
    return josephson_inductance(cell.jj.i_c_max, cell.jj.phi)


def _coupler_linewidth(cell: MemoryCell, l_on: float) -> tuple[float, float, float]:
    """(f0, kappa_ext, kappa_int) of the isolated coupler dip, rad/s rates."""
    peak = measure_isolated_tcr(cell, l_on)
    if peak.q_coupling is None:
        raise ExtractionError("coupler coupling rate: notch fit did not converge")
    kappa_ext = TWO_PI * peak.f0 / peak.q_coupling
    kappa_int = TWO_PI * peak.f0 / peak.q_internal if peak.q_internal else 0.0
    return peak.f0, kappa_ext, kappa_int


def _back_chain(cell: MemoryCell, state):
    """The coupler seen from the coupling node: the TCR chain read backwards
    without its coupling capacitor, ending at the input capacitor."""
    return tcr_chain(cell, state)[-2::-1]


def _sc_loop_impedance(cell: MemoryCell, state, f, source: float):
    """Series impedance around the cavity loop, seen at the coupling node.

    One arm is the cavity branch (coupling capacitor + shorted stub); the
    other looks back through the split coupler and input capacitor into a
    feedline of the given source resistance (z0/2 for the matched line).
    """
    back = terminate(chain_abcd(_back_chain(cell, state), f), Load(source))
    return back + sc_branch_impedance(cell, f)


def _feedline_current_transfer(cell: MemoryCell, state, f0: float, source: float):
    """|I_source / I_loop| through the depleted coupler at the loop node.

    With unit loop current injected at the coupling node, the reciprocal
    ABCD chain gives the current reaching the feedline termination as
    I2 = a - c Z_back (determinant 1).
    """
    tp = chain_abcd(_back_chain(cell, state), f0)
    z_back = terminate(tp, Load(source))
    return abs(tp.a - tp.c * z_back)


def off_state_residual_coupling(
    cell: MemoryCell, kappa_a: float | None = None
) -> ResidualCoupling:
    """Residual TCR-SC coupling with the junction fully depleted.

    With the junction resistive the cavity's feedline dip is far below any
    practical sweep resolution (sub-1e-5 dB for a 1 kohm junction), so the
    cavity's external decay rate is read off the circuit instead: at the
    loop resonance (Im Z = 0 around the cavity loop) the fraction of loop
    current reaching the matched feedline gives the power radiated into
    the line, and for the series-RLC reduction of the loop

        kappa_sc = |I_ext / I_loop|^2 * (z0 / 2) / L_eff,
        L_eff = (dX/dw) / 2.

    The reduced model reproduces that decay through a damped coupler when
    4 g_off^2 / kappa_a = kappa_sc, hence g_off = sqrt(kappa_sc kappa_a)/2.
    Removing the path (c_couple -> 0, or an open junction) removes the
    loop resonance or the current transfer and the result tends to zero.
    """
    if kappa_a is None:
        _, k_ext, k_int = _coupler_linewidth(cell, full_accumulation_inductance(cell))
        kappa_a = k_ext + k_int
    state = Off(cell.jj.r_off)
    try:
        f_est = sc_branch_resonance(cell)
    except CalibrationError:
        # no resolvable cavity branch (vanishing coupling capacitor)
        return ResidualCoupling(0.0, 0.0, kappa_a, None, True)
    source = cell.z0 / 2.0

    def reactance(f):
        return _sc_loop_impedance(cell, state, f, source).imag

    bracket = _up_crossing(reactance, 0.99 * f_est, 1.01 * f_est, f_est, 4001, depth=0)
    if bracket is None:
        return ResidualCoupling(0.0, 0.0, kappa_a, None, True)
    f0 = brentq(reactance, *bracket, xtol=1e-300, rtol=4 * np.finfo(float).eps)

    transfer = _feedline_current_transfer(cell, state, f0, source)
    df = 1e-6 * f0
    dx_dw = (reactance(f0 + df) - reactance(f0 - df)) / (TWO_PI * 2.0 * df)
    if dx_dw <= 0:
        return ResidualCoupling(0.0, 0.0, kappa_a, None, True)
    kappa_sc = transfer**2 * source / (0.5 * dx_dw)
    return ResidualCoupling(
        g_off=0.5 * math.sqrt(kappa_sc * kappa_a),
        kappa_sc_ext=kappa_sc,
        kappa_a=kappa_a,
        f_sc=f0,
        below_resolution=False,
    )


def _cavity_internal_rate(cell: MemoryCell) -> float:
    """gamma_b (rad/s) from a notch fit of the directly tapped cavity branch."""
    f0 = sc_branch_resonance(cell)
    width = 0.01 * f0
    for _ in range(4):
        grid = np.linspace(f0 - width / 2, f0 + width / 2, 1601)
        freqs, s21 = isolated_sc_trace(cell, grid)
        peaks = [p for p in find_resonances(freqs, s21, min_depth_db=1e-3)
                 if p.q_loaded is not None]
        if peaks:
            peak = max(peaks, key=lambda p: p.depth_db)
            lw = peak.f0 / peak.q_loaded
            if width <= 40.0 * lw or width < 1e4:
                if peak.q_internal is None:
                    return 0.0
                return TWO_PI * peak.f0 / peak.q_internal
            f0, width = peak.f0, 24.0 * lw
        else:
            width *= 0.1
    raise ExtractionError("cavity internal rate: dip not resolved")


def extract_coupled_mode_params(
    cell: MemoryCell,
    l_on: float,
    fit: CrossingFit | None = None,
    l_grid=None,
) -> CoupledModeSystem:
    """Reduce a calibrated cell to its coupled-mode parameters at l_on.

    fit : a previously computed avoided-crossing fit; derived from a
        fresh mode map over `l_grid` (default 41 points spanning
        10-500 pH) when omitted.

    Raises ExtractionError naming the rate that could not be derived.
    """
    if fit is None:
        if l_grid is None:
            l_grid = np.linspace(10e-12, 500e-12, 41)
        fit = fit_avoided_crossing(mode_map(cell, l_grid))
    if l_grid is not None and not (min(l_grid) <= l_on <= max(l_grid)):
        raise ExtractionError("l_on lies outside the swept inductance range")

    omega_a = TWO_PI * float(fit.bare_coupler(l_on))
    omega_b = TWO_PI * fit.f_cross
    _, kappa_ext, kappa_int = _coupler_linewidth(cell, l_on)
    gamma_b = _cavity_internal_rate(cell)
    residual = off_state_residual_coupling(cell, kappa_a=kappa_ext + kappa_int)
    return CoupledModeSystem(
        omega_a=omega_a,
        omega_b=omega_b,
        kappa_ext=kappa_ext,
        kappa_int_a=kappa_int,
        gamma_b=gamma_b,
        g_on=TWO_PI * fit.g,
        g_off=residual.g_off,
    )
