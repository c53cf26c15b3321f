"""Gate-tunable Josephson junction element (JJ-FET).

The junction is a lumped RLC element: below the critical current it acts as
a Josephson inductance L = PHI0 / (2 pi Ic cos(phi)); in full depletion it
is a resistor of order 1 kohm.  The junction capacitance shunts both
regimes.  The superconducting phase is held at 0 (linear response regime).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import require
from .twoport import INFINITE_IMPEDANCE

#: Magnetic flux quantum h/2e, Wb (CODATA).
PHI0 = 2.067833848e-15


def josephson_inductance(i_c: float, phi: float = 0.0) -> float:
    """Josephson inductance PHI0 / (2 pi i_c cos(phi)), henry.

    i_c : ampere, critical current (> 0)
    phi : radian, junction phase, |phi| < pi/2
    """
    if not i_c > 0:
        raise ValueError("critical current must be positive")
    if not abs(phi) < math.pi / 2:
        raise ValueError("inductance diverges for |phi| >= pi/2")
    return PHI0 / (2.0 * math.pi * i_c * math.cos(phi))


def critical_current_for_inductance(l_j: float) -> float:
    """Critical current (ampere) giving inductance l_j at phi = 0.

    Exact algebraic inverse of josephson_inductance(., 0).
    """
    if not l_j > 0:
        raise ValueError("inductance must be positive")
    return PHI0 / (2.0 * math.pi * l_j)


def icrn_max_current(gap: float, r_n: float) -> float:
    """Maximum critical current from the IcRn product, ampere.

    gap : volt, superconducting gap expressed as Delta/e
    r_n : ohm, junction normal-state resistance
    """
    if not r_n > 0:
        raise ValueError("normal resistance must be positive")
    if not gap > 0:
        raise ValueError("gap voltage must be positive")
    return gap / r_n


# ------------------------- gate transfer curve -------------------------


@dataclass(frozen=True)
class GateModel:
    """Gate-voltage map for the junction critical current.

    The transfer curve is phenomenological; it only has to be monotone
    non-decreasing with I_c = 0 at/below full depletion (v_pinch) and
    I_c = i_c_max at/above full accumulation (v_on).  Between them it is a
    logistic of the given steepness (1/volt), rescaled to pin those
    endpoints; its steepness-0 limit, the default, is the linear rise.
    """

    v_pinch: float
    v_on: float
    steepness: float = 0.0

    def __post_init__(self):
        require(self, "non-negative", "steepness")
        require(self, "finite", "steepness", "v_pinch", "v_on")
        if not self.v_pinch < self.v_on:
            raise ValueError("gate model requires v_pinch < v_on")
        require(self, "finite", "span")  # two finite voltages can span past 1.8e308

    @property
    def span(self) -> float:
        """v_on - v_pinch, volt."""
        return self.v_on - self.v_pinch

    def fraction(self, v_g: float) -> float:
        """I_c(v_g) / i_c_max, clamped to [0, 1]."""
        if v_g <= self.v_pinch:
            return 0.0
        if v_g >= self.v_on:
            return 1.0
        x = (v_g - self.v_pinch) / self.span
        k = self.steepness * self.span
        if k < 1e-7:  # the linear limit, which the logistic below meets to rounding
            return x
        if x == 0.5:  # the midpoint, where a k overflowed to inf would give inf * 0
            return 0.5
        # logistic rescaled so the endpoints land exactly on 0 and 1, in its
        # tanh form, which cannot overflow at any steepness
        return 0.5 + 0.5 * math.tanh(0.5 * k * (x - 0.5)) / math.tanh(0.25 * k)


# ------------------------- junction states -------------------------

#: The junction state of full depletion, where the junction is its r_off
#: resistor.  Any other state is the Josephson inductance in henry (an
#: array for a batch of cells).
OFF = None

#: ON/OFF decision threshold of gate_to_state: the critical current whose
#: inductance is 2 nH.  Below it the junction is so far detuned that the
#: inductive model is moot and the physical device is near depletion.
DEFAULT_OFF_THRESHOLD = critical_current_for_inductance(2e-9)


@dataclass(frozen=True)
class JjFet:
    """Tunable junction: critical-current ceiling, gate map, parasitics.

    i_c_max : ampere, critical current at full accumulation
    c_j : farad, junction capacitance
    r_off : ohm, full-depletion channel resistance
    r_sub : ohm, ON-state subgap shunt resistance
    """

    i_c_max: float
    c_j: float = 1e-15
    r_off: float = 1000.0
    r_sub: float = 1e6
    gate: GateModel = GateModel(-2.0, 0.0)

    def __post_init__(self):
        require(self, "positive", "i_c_max", "r_off", "r_sub")
        require(self, "non-negative", "c_j")

    def critical_current(self, v_g: float) -> float:
        """Gate-controlled critical current, ampere."""
        return self.i_c_max * self.gate.fraction(v_g)


def gate_to_state(jj: JjFet, v_g: float) -> float | None:
    """Map a gate voltage to the junction's state.

    I_c(v_g) <= DEFAULT_OFF_THRESHOLD selects OFF; otherwise the state is
    the Josephson inductance at the gate-controlled critical current.
    """
    i_c = jj.critical_current(v_g)
    if i_c <= DEFAULT_OFF_THRESHOLD:
        return OFF
    return josephson_inductance(i_c)


def jj_series_impedance(jj: JjFet, l_j, f):
    """Series impedance (ohm) of the junction RLC element at f (Hz).

    l_j (henry, > 0) is the Josephson inductance in parallel with the
    junction capacitance and the subgap resistance; OFF is the channel
    resistance r_off parallel to the junction capacitance.  r_sub = inf
    and c_j = 0 are accepted limits.  An exactly self-resonant lossless
    junction gives the infinite-impedance marker.  A scalar f gives a numpy
    scalar; f may be complex (Re f > 0).
    """
    f = np.asarray(f)
    if not np.all(f.real > 0):
        raise ValueError("frequency must have a positive real part")
    w = 2.0 * np.pi * f
    if l_j is OFF:
        y = 1.0 / jj.r_off + 1j * w * jj.c_j
    elif np.all(l_j > 0):
        y = 1.0 / (1j * w * l_j) + 1j * w * jj.c_j + 1.0 / jj.r_sub
    else:
        raise ValueError("junction inductance l_j must be positive")
    resonant = y == 0
    return np.where(resonant, INFINITE_IMPEDANCE, 1.0 / np.where(resonant, 1.0, y))[()]
