"""Bridge from the circuit model to the reduced coupled-mode system.

At the avoided-crossing fit's closest approach, mode frequencies and the
coupling come from the fit's bare branches; decay rates come from complex
roots of the isolated branches, the cavity's seeded by sc_mode_estimate();
the gate-OFF coupling floor comes from the complex zero of the cavity loop
through the depleted junction, seeded the same way.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibrate import CalibrationError, measure_isolated_tcr
from .cell import MemoryCell, sc_branch_impedance, sc_mode_estimate, tcr_chain
from .dynamics import TWO_PI, CoupledModeSystem
from .jjfet import OFF, josephson_inductance
from .modemap import CrossingFit
from .resonance import complex_zeros
from .twoport import chain_abcd, input_impedance, terminate


class ExtractionError(RuntimeError):
    """A coupled-mode rate could not be derived from the circuit model."""


@dataclass(frozen=True)
class ResidualCoupling:
    """Gate-OFF coupling floor of the depleted-junction cell.

    g_off : rad/s, residual coherent coupling used in OFF segments
    kappa_sc_ext : rad/s, cavity-feedline decay through the depleted path
    gamma_off : rad/s, total decay of the OFF-state cavity loop, feedline
        and depleted junction together (None when absent)
    f_sc : Hz, cavity loop resonance in the OFF state (None when absent)
    below_resolution : no resolvable cavity loop survives; g_off is then
        exactly 0 by derivation
    """

    g_off: float
    kappa_sc_ext: float
    gamma_off: float | None
    f_sc: float | None
    below_resolution: bool


def full_accumulation_inductance(cell: MemoryCell) -> float:
    """Junction inductance at full accumulation (maximum critical current)."""
    return josephson_inductance(cell.jj.i_c_max)


def _back_chain(cell: MemoryCell):
    """The depleted coupler seen from the coupling node: the gate-OFF TCR
    chain read backwards without its coupling capacitor, ending at the
    input capacitor."""
    return tcr_chain(cell, OFF)[-2::-1]


def _sc_loop_impedance(cell: MemoryCell, f, source: float):
    """Series impedance around the cavity loop, seen at the coupling node.

    One arm is the cavity branch (coupling capacitor + shorted stub); the
    other looks back through the split coupler and input capacitor into a
    feedline of the given source resistance (z0/2 for the matched line).
    """
    back = input_impedance(_back_chain(cell), source, f)
    return back + sc_branch_impedance(cell, f)


def off_state_residual_coupling(cell: MemoryCell, kappa_a: float) -> ResidualCoupling:
    """Residual TCR-SC coupling with the junction fully depleted.

    With the junction resistive the cavity's feedline dip is far below any
    practical sweep resolution (sub-1e-5 dB for a 1 kohm junction), so the
    cavity's decay is read off the circuit instead: the complex zero f_z of
    the impedance around the cavity loop, polished by complex_zeros() within
    1% of sc_mode_estimate(), decays at Gamma_off = 4 pi Im f_z.  At
    f0 = Re f_z, unit loop current injected at the coupling node reaches
    the feedline termination as I_ext = a - c Z_back (reciprocal ABCD chain,
    determinant 1), so the line takes the share

        |I_ext / I_loop|^2 * (z0 / 2) / Re Z_loop(f0)

    of the loop's power, and kappa_sc_ext = Gamma_off * share.  The reduced
    model reproduces that decay through a damped coupler when
    4 g_off^2 / kappa_a = kappa_sc_ext, hence g_off = sqrt(kappa_sc_ext kappa_a)/2.
    Removing the path (c_couple -> 0, or an open junction) removes the
    loop zero or the current transfer and the result tends to zero.
    """
    below = ResidualCoupling(0.0, 0.0, None, None, True)
    try:
        f_est = sc_mode_estimate(cell)
    except CalibrationError:
        # no resolvable cavity branch (vanishing coupling capacitor)
        return below
    source = cell.z0 / 2.0
    f_z = complex_zeros(lambda f: _sc_loop_impedance(cell, f, source),
                        f_est, 0.99 * f_est, 1.01 * f_est)
    if np.isnan(f_z):
        return below
    f0 = float(f_z.real)
    tp = chain_abcd(_back_chain(cell), f0)
    z_back = terminate(tp, source)
    share = abs(tp.a - tp.c * z_back) ** 2 * source / (z_back + sc_branch_impedance(cell, f0)).real
    gamma_off = 2.0 * TWO_PI * float(f_z.imag)
    kappa_sc = gamma_off * share
    return ResidualCoupling(
        g_off=0.5 * math.sqrt(kappa_sc * kappa_a),
        kappa_sc_ext=kappa_sc,
        gamma_off=gamma_off,
        f_sc=f0,
        below_resolution=False,
    )


def _cavity_internal_rate(cell: MemoryCell) -> float:
    """gamma_b = 4 pi Im f_z (rad/s) of the directly tapped cavity branch's zero f_z."""
    f_r = sc_mode_estimate(cell)
    f_zero = complex_zeros(lambda f: sc_branch_impedance(cell, f), f_r, 0.99 * f_r, 1.01 * f_r)
    if np.isnan(f_zero):
        raise ExtractionError("cavity internal rate: complex zero left its bracket")
    return 2.0 * TWO_PI * f_zero.imag


def extract_coupled_mode_params(cell: MemoryCell, fit: CrossingFit) -> CoupledModeSystem:
    """Reduce a calibrated cell to its coupled-mode parameters at the fitted
    crossing fit.l_cross, the coupler's rates taken with the junction there.

    Raises ExtractionError naming the rate that could not be derived.
    """
    peak = measure_isolated_tcr(cell, fit.l_cross)
    kappa_ext = TWO_PI * peak.f0 / peak.q_coupling
    kappa_int = TWO_PI * peak.f0 / peak.q_internal if peak.q_internal else 0.0
    return CoupledModeSystem(
        omega_a=TWO_PI * float(fit.bare_coupler(fit.l_cross)),
        omega_b=TWO_PI * fit.f_cross,
        kappa_ext=kappa_ext,
        kappa_int_a=kappa_int,
        gamma_b=_cavity_internal_rate(cell),
        g_on=TWO_PI * fit.g,
        g_off=off_state_residual_coupling(cell, kappa_ext + kappa_int).g_off,
    )
