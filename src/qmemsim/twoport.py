"""Complex two-port (ABCD) algebra for cascaded microwave elements.

Conventions:
  Frequencies in Hz, impedances in ohm, admittances in siemens, lengths in
  meters, attenuation in nepers/m.  All functions are pure; element values
  are immutable after construction.  Every function accepts either a scalar
  frequency or a numpy array of frequencies and broadcasts elementwise.
  There is one code path: a scalar goes through the same array code as a
  vector and comes back as a numpy scalar (numpy.complex128 is a subclass
  of complex).  Zero denominators and the infinite-impedance marker are
  masked, never branched on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

C0 = 299_792_458.0  # vacuum speed of light, m/s

#: Marker for an ideal (lossless) stub exactly at resonance.  Downstream
#: notch_s21() maps it to S21 = 1 so lossless sweeps stay total.
INFINITE_IMPEDANCE = complex(math.inf, 0.0)


def is_infinite_impedance(z) -> bool:
    """True when z is the infinite-impedance marker (any non-finite value)."""
    return not (math.isfinite(z.real) and math.isfinite(z.imag))


@dataclass(frozen=True)
class TwoPort:
    """ABCD matrix [[a, b], [c, d]] of a two-port at a single frequency.

    a, d are dimensionless, b is ohm, c is siemens.  Reciprocal elements
    satisfy a*d - b*c = 1.
    """

    a: complex
    b: complex
    c: complex
    d: complex

    def __matmul__(self, other: "TwoPort") -> "TwoPort":
        """Cascade: self followed by other (matrix product self @ other)."""
        return TwoPort(
            a=self.a * other.a + self.b * other.c,
            b=self.a * other.b + self.b * other.d,
            c=self.c * other.a + self.d * other.c,
            d=self.c * other.b + self.d * other.d,
        )

    @property
    def determinant(self) -> complex:
        return self.a * self.d - self.b * self.c


IDENTITY = TwoPort(1.0, 0.0, 0.0, 1.0)


# ------------------------- circuit elements -------------------------


@dataclass(frozen=True)
class LineSection:
    """Uniform transmission-line section.

    z0 : ohm, characteristic impedance (> 0)
    eps_eff : effective permittivity (>= 1)
    length : m (> 0)
    atten : nepers/m, uniform attenuation constant (>= 0)
    """

    z0: float
    eps_eff: float
    length: float
    atten: float = 0.0

    def __post_init__(self):
        if self.z0 <= 0:
            raise ValueError("line z0 must be positive")
        if self.eps_eff < 1:
            raise ValueError("line eps_eff must be >= 1")
        if self.length <= 0:
            raise ValueError("line length must be positive")
        if self.atten < 0:
            raise ValueError("line atten must be non-negative")

    def beta(self, f):
        """Phase constant 2*pi*f*sqrt(eps_eff)/c0, rad/m."""
        return 2.0 * np.pi * f * math.sqrt(self.eps_eff) / C0

    def phase_velocity(self) -> float:
        return C0 / math.sqrt(self.eps_eff)


@dataclass(frozen=True)
class SeriesImpedance:
    """Series element with frequency-dependent impedance z(f) in ohm."""

    z: object  # callable f -> complex (broadcasts over arrays)

    def __call__(self, f):
        return self.z(f)


@dataclass(frozen=True)
class SeriesCapacitor:
    """Series capacitor, c_val in farad (> 0)."""

    c_val: float

    def __post_init__(self):
        if self.c_val <= 0:
            raise ValueError("capacitance must be positive")


@dataclass(frozen=True)
class ShuntAdmittance:
    """Shunt element with frequency-dependent admittance y(f) in siemens."""

    y: object  # callable f -> complex

    def __call__(self, f):
        return self.y(f)


Element = LineSection | SeriesImpedance | SeriesCapacitor | ShuntAdmittance


# ------------------------- terminations -------------------------


class Short:
    """Short-circuit termination (Z_L = 0)."""

    def __repr__(self):
        return "Short()"


class Open:
    """Open-circuit termination (analytic Z_L -> inf limit)."""

    def __repr__(self):
        return "Open()"


@dataclass(frozen=True)
class Load:
    """Finite load termination, z in ohm."""

    z: complex


SHORT = Short()
OPEN = Open()


# ------------------------- operations -------------------------


def element_abcd(e: Element, f) -> TwoPort:
    """ABCD matrix of a single element at frequency f (Hz, f > 0).

    Line section: a = d = cosh(gl), b = z0 sinh(gl), c = sinh(gl)/z0 with
    g = atten + j*beta (reduces to cos/sin for lossless lines).  Series Z:
    [[1, Z], [0, 1]].  Shunt Y: [[1, 0], [Y, 1]].
    """
    if np.any(np.asarray(f) <= 0):
        raise ValueError("frequency must be positive")
    if isinstance(e, LineSection):
        gl = (e.atten + 1j * e.beta(f)) * e.length
        cosh_gl = np.cosh(gl)
        sinh_gl = np.sinh(gl)
        return TwoPort(cosh_gl, e.z0 * sinh_gl, sinh_gl / e.z0, cosh_gl)
    if isinstance(e, SeriesCapacitor):
        z = 1.0 / (2j * np.pi * f * e.c_val)
        return TwoPort(1.0, z, 0.0, 1.0)
    if isinstance(e, SeriesImpedance):
        z = e.z(f)
        _check_finite(z, "series impedance")
        return TwoPort(1.0, z, 0.0, 1.0)
    if isinstance(e, ShuntAdmittance):
        y = e.y(f)
        _check_finite(y, "shunt admittance")
        return TwoPort(1.0, 0.0, y, 1.0)
    raise TypeError(f"unknown element type: {type(e).__name__}")


def _check_finite(v, what: str):
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{what} evaluated to a non-finite value")


def cascade(ports) -> TwoPort:
    """Matrix product of an ordered list of two-ports (all at the same f)."""
    ports = list(ports)
    if not ports:
        raise ValueError("cascade of an empty list is undefined")
    out = ports[0]
    for p in ports[1:]:
        out = out @ p
    return out


def chain_abcd(chain, f) -> TwoPort:
    """Cascade ABCD of a list of elements at f."""
    return cascade([element_abcd(e, f) for e in chain])


def terminate(tp: TwoPort, termination) -> complex:
    """Input impedance of a two-port closed by the given termination.

    Z_in = (a*Z_L + b) / (c*Z_L + d); Short uses Z_L = 0 (b/d), Open uses
    the analytic limit a/c, and so does every infinite entry of a Load.  An
    exact division by zero (ideal lossless stub at resonance) and a
    non-finite quotient yield the infinite-impedance marker, not an
    exception.
    """
    if isinstance(termination, Short):
        num, den = tp.b, tp.d
    elif isinstance(termination, Open):
        num, den = tp.a, tp.c
    elif isinstance(termination, Load):
        zl = np.asarray(termination.z, dtype=complex)
        open_end = ~np.isfinite(zl)
        zl = np.where(open_end, 0.0, zl)
        num = np.where(open_end, tp.a, tp.a * zl + tp.b)
        den = np.where(open_end, tp.c, tp.c * zl + tp.d)
    else:
        raise TypeError(f"unknown termination: {termination!r}")
    num = np.asarray(num, dtype=complex)
    den = np.asarray(den, dtype=complex)
    bad = den == 0
    with np.errstate(over="ignore"):
        z = num / np.where(bad, 1.0, den)
    return np.where(bad | ~np.isfinite(z), INFINITE_IMPEDANCE, z)[()]


def input_impedance(chain, termination, f) -> complex:
    """Input impedance (ohm) of an element chain closed by a termination."""
    return terminate(chain_abcd(chain, f), termination)


def notch_s21(z_shunt, z_ref: float):
    """S21 of a shunt branch of impedance z_shunt across a matched line.

    S21 = 1 / (1 + z_ref / (2 z_shunt)).  z_shunt = 0 gives exactly 0
    (full notch); the infinite-impedance marker gives exactly 1.
    """
    if z_ref <= 0:
        raise ValueError("reference impedance must be positive")
    z = np.asarray(z_shunt, dtype=complex)
    zero = z == 0
    inf = ~np.isfinite(z)
    safe = np.where(zero | inf, 1.0, z)
    s21 = 1.0 / (1.0 + z_ref / (2.0 * safe))
    s21 = np.where(zero, 0.0, s21)
    s21 = np.where(inf, 1.0, s21)
    return s21[()]


@dataclass(frozen=True)
class SParams:
    """Scattering parameters at reference impedance z_ref (ohm)."""

    s11: complex
    s21: complex
    s12: complex
    s22: complex
    z_ref: float


def to_sparams(tp: TwoPort, z_ref: float) -> SParams:
    """Standard ABCD -> S conversion at real reference impedance z_ref."""
    if z_ref <= 0:
        raise ValueError("reference impedance must be positive")
    a, b, c, d = tp.a, tp.b, tp.c, tp.d
    den = a + b / z_ref + c * z_ref + d
    if np.any(np.asarray(den) == 0):
        raise ValueError("degenerate network: ABCD->S denominator is zero")
    return SParams(
        s11=(a + b / z_ref - c * z_ref - d) / den,
        s21=2.0 / den,
        s12=2.0 * (a * d - b * c) / den,
        s22=(-a + b / z_ref - c * z_ref + d) / den,
        z_ref=z_ref,
    )
