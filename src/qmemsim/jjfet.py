"""Gate-tunable Josephson junction element (JJ-FET).

The junction is a lumped RLC element: below the critical current it acts as
a Josephson inductance L = PHI0 / (2 pi Ic cos(phi)); in full depletion it
is a resistor of order 1 kohm.  The junction capacitance shunts both
regimes.  The superconducting phase is held at 0 (linear response regime).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .twoport import INFINITE_IMPEDANCE

#: Magnetic flux quantum h/2e, Wb (CODATA).
PHI0 = 2.067833848e-15


def josephson_inductance(i_c: float, phi: float = 0.0) -> float:
    """Josephson inductance PHI0 / (2 pi i_c cos(phi)), henry.

    i_c : ampere, critical current (> 0)
    phi : radian, junction phase, |phi| < pi/2
    """
    if i_c <= 0:
        raise ValueError("critical current must be positive")
    if abs(phi) >= math.pi / 2:
        raise ValueError("inductance diverges for |phi| >= pi/2")
    return PHI0 / (2.0 * math.pi * i_c * math.cos(phi))


def critical_current_for_inductance(l_j: float) -> float:
    """Critical current (ampere) giving inductance l_j at phi = 0.

    Exact algebraic inverse of josephson_inductance(., 0).
    """
    if l_j <= 0:
        raise ValueError("inductance must be positive")
    return PHI0 / (2.0 * math.pi * l_j)


def icrn_max_current(gap: float, r_n: float) -> float:
    """Maximum critical current from the IcRn product, ampere.

    gap : volt, superconducting gap expressed as Delta/e
    r_n : ohm, junction normal-state resistance
    """
    if r_n <= 0:
        raise ValueError("normal resistance must be positive")
    if gap <= 0:
        raise ValueError("gap voltage must be positive")
    return gap / r_n


# ------------------------- gate transfer curve -------------------------


@dataclass(frozen=True)
class Linear:
    """Critical current rises linearly from v_pinch to v_on."""


@dataclass(frozen=True)
class Logistic:
    """Smooth sigmoid transfer curve, pinned to 0/1 at v_pinch/v_on.

    steepness : 1/volt, slope scale of the sigmoid
    """

    steepness: float

    def __post_init__(self):
        if self.steepness <= 0:
            raise ValueError("logistic steepness must be positive")


@dataclass(frozen=True)
class GateModel:
    """Gate-voltage map for the junction critical current.

    The transfer curve is phenomenological; it only has to be monotone
    non-decreasing with I_c = 0 at/below full depletion (v_pinch) and
    I_c = i_c_max at/above full accumulation (v_on).
    """

    v_pinch: float
    v_on: float
    shape: Linear | Logistic = field(default_factory=Linear)

    def __post_init__(self):
        if not self.v_pinch < self.v_on:
            raise ValueError("gate model requires v_pinch < v_on")

    def fraction(self, v_g: float) -> float:
        """I_c(v_g) / i_c_max, clamped to [0, 1]."""
        if v_g <= self.v_pinch:
            return 0.0
        if v_g >= self.v_on:
            return 1.0
        x = (v_g - self.v_pinch) / (self.v_on - self.v_pinch)
        if isinstance(self.shape, Linear):
            return x
        # rescaled logistic so the endpoints land exactly on 0 and 1
        k = self.shape.steepness * (self.v_on - self.v_pinch)
        s = 1.0 / (1.0 + math.exp(-k * (x - 0.5)))
        s0 = 1.0 / (1.0 + math.exp(k * 0.5))
        s1 = 1.0 / (1.0 + math.exp(-k * 0.5))
        return (s - s0) / (s1 - s0)


# ------------------------- junction states -------------------------


@dataclass(frozen=True)
class On:
    """Accumulation: junction is an inductor of l_j henry."""

    l_j: float

    def __post_init__(self):
        if self.l_j <= 0:
            raise ValueError("ON-state inductance must be positive")


@dataclass(frozen=True)
class Off:
    """Full depletion: junction is a resistor of r ohm."""

    r: float

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("OFF-state resistance must be positive")


JjState = On | Off

#: Default ON/OFF decision threshold: the critical current whose inductance
#: is 2 nH.  Below it the junction is so far detuned that the inductive
#: model is moot and the physical device is near depletion.
DEFAULT_OFF_THRESHOLD = critical_current_for_inductance(2e-9)


@dataclass(frozen=True)
class JjFet:
    """Tunable junction: critical-current ceiling, gate map, parasitics.

    i_c_max : ampere, critical current at full accumulation
    c_j : farad, junction capacitance
    r_off : ohm, full-depletion channel resistance
    r_sub : ohm, ON-state subgap shunt resistance
    phi : radian, superconducting phase (fixed 0 for linear response)
    """

    i_c_max: float
    c_j: float = 1e-15
    r_off: float = 1000.0
    r_sub: float = 1e6
    phi: float = 0.0
    gate: GateModel = field(default_factory=lambda: GateModel(-2.0, 0.0))

    def __post_init__(self):
        if self.i_c_max <= 0:
            raise ValueError("i_c_max must be positive")
        if self.c_j < 0:
            raise ValueError("c_j must be non-negative")
        if self.r_off <= 0:
            raise ValueError("r_off must be positive")
        if self.r_sub <= 0:
            raise ValueError("r_sub must be positive")
        if abs(self.phi) >= math.pi / 2:
            raise ValueError("phi must lie in (-pi/2, pi/2)")

    def critical_current(self, v_g: float) -> float:
        """Gate-controlled critical current, ampere."""
        return self.i_c_max * self.gate.fraction(v_g)


def gate_to_state(jj: JjFet, v_g: float,
                  off_threshold: float = DEFAULT_OFF_THRESHOLD) -> JjState:
    """Map a gate voltage to the junction's circuit state.

    I_c(v_g) <= off_threshold selects Off(r_off); otherwise the junction is
    an inductor at the gate-controlled critical current.
    """
    i_c = jj.critical_current(v_g)
    if i_c <= off_threshold:
        return Off(r=jj.r_off)
    return On(l_j=josephson_inductance(i_c, jj.phi))


def jj_series_impedance(state: JjState, c_j: float, r_sub: float, f):
    """Series impedance (ohm) of the junction RLC element at f (Hz).

    On: parallel combination of the inductance, the junction capacitance
    and the subgap resistance.  Off: channel resistance parallel to the
    junction capacitance.  r_sub = inf and c_j = 0 are accepted limits.
    An exactly self-resonant lossless junction gives the infinite-impedance
    marker.  A scalar f gives a numpy scalar.
    """
    f = np.asarray(f, dtype=float)
    if np.any(f <= 0):
        raise ValueError("frequency must be positive")
    w = 2.0 * np.pi * f
    if isinstance(state, On):
        y = 1.0 / (1j * w * state.l_j) + 1j * w * c_j
        if math.isfinite(r_sub):
            y = y + 1.0 / r_sub
    elif isinstance(state, Off):
        y = 1.0 / state.r + 1j * w * c_j
    else:
        raise TypeError(f"unknown junction state: {state!r}")
    resonant = y == 0
    return np.where(resonant, INFINITE_IMPEDANCE, 1.0 / np.where(resonant, 1.0, y))[()]
