"""Complex two-port (ABCD) algebra for cascaded microwave elements.

Conventions:
  Frequencies in Hz, impedances in ohm, admittances in siemens, lengths in
  meters, attenuation in nepers/m.  All functions are pure; element values
  are immutable after construction.  Every function accepts either a scalar
  frequency or a numpy array of frequencies and broadcasts elementwise.
  There is one code path: a scalar goes through the same array code as a
  vector, as a 1-element array (numpy-scalar arithmetic rounds differently),
  and comes back as a numpy scalar (a subclass of complex).  Zero
  denominators and the infinite-impedance marker are masked, never branched
  on.

A termination is its load impedance: SHORT is 0, OPEN the infinite-impedance
marker.  input_impedance() folds an element chain from its load to its tap,
one step per element on the impedance itself (the textbook line formula,
Pozar, Microwave Engineering, 4th ed., sec. 2.3):

  line     Z <- z0 (Z + z0 t) / (z0 + Z t),  t = tanh(gamma l)
  series   Z <- Z + z

A non-finite Z takes the open limit z0/t of the next line; a series step
keeps it open.  The ABCD matrices (chain_abcd, terminate, to_sparams)
serve S-parameters and quantities that need the chain's entries; terminate()
closes a two-port with any scalar or array load through the one formula
(a Z_L + b) / (c Z_L + d).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import require

C0 = 299_792_458.0  # vacuum speed of light, m/s

#: Marker for an ideal (lossless) stub exactly at resonance.  Downstream
#: notch_s21() maps it to S21 = 1 so lossless sweeps stay total.
INFINITE_IMPEDANCE = complex(math.inf, 0.0)


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


# ------------------------- circuit elements -------------------------


@dataclass(frozen=True)
class LineSection:
    """Uniform transmission-line section.

    z0 : ohm, characteristic impedance (> 0)
    eps_eff : effective permittivity (>= 1)
    length : m (> 0; an array broadcasts against f)
    atten : nepers/m, uniform attenuation constant (>= 0)
    """

    z0: float
    eps_eff: float
    length: float
    atten: float = 0.0

    def __post_init__(self):
        require(self, "positive", "z0", "length")
        require(self, "at least 1", "eps_eff")
        require(self, "non-negative", "atten")

    def beta(self, f):
        """Phase constant 2*pi*f*sqrt(eps_eff)/c0, rad/m."""
        return 2.0 * np.pi * f * math.sqrt(self.eps_eff) / C0

    def phase_velocity(self) -> float:
        return C0 / math.sqrt(self.eps_eff)


@dataclass(frozen=True)
class SeriesImpedance:
    """Series element with frequency-dependent impedance z(f) in ohm."""

    z: object  # callable f -> complex (broadcasts over arrays)


@dataclass(frozen=True)
class SeriesCapacitor:
    """Series capacitor, c_val in farad (> 0; an array broadcasts against f)."""

    c_val: float

    def __post_init__(self):
        require(self, "positive", "c_val")


Element = LineSection | SeriesImpedance | SeriesCapacitor


# ------------------------- loads -------------------------

#: Any non-finite load, not only OPEN, takes the analytic open limit.
SHORT = 0j
OPEN = INFINITE_IMPEDANCE


# ------------------------- operations -------------------------


def element_abcd(e: Element, f) -> TwoPort:
    """ABCD matrix of a single element at frequency f (Hz, Re f > 0; analytic in f).

    Line section: a = d = cosh(gl), b = z0 sinh(gl), c = sinh(gl)/z0 with
    g = atten + j*beta (reduces to cos/sin for lossless lines).  Series Z:
    [[1, Z], [0, 1]].
    """
    if not np.all(np.real(f) > 0):
        raise ValueError("frequency must have a positive real part")
    if isinstance(e, LineSection):
        gl = (e.atten + 1j * e.beta(f)) * e.length
        cosh_gl = np.cosh(gl)
        sinh_gl = np.sinh(gl)
        return TwoPort(cosh_gl, e.z0 * sinh_gl, sinh_gl / e.z0, cosh_gl)
    if isinstance(e, (SeriesCapacitor, SeriesImpedance)):
        return TwoPort(1.0, _series_impedance(e, f), 0.0, 1.0)
    raise TypeError(f"unknown element type: {type(e).__name__}")


def _series_impedance(e: SeriesCapacitor | SeriesImpedance, f):
    """Impedance (ohm) of a series element at f."""
    if isinstance(e, SeriesCapacitor):
        return 1.0 / (2j * np.pi * f * e.c_val)
    z = e.z(f)
    if not np.all(np.isfinite(z)):
        raise ValueError("series impedance evaluated to a non-finite value")
    return z


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
    tp = cascade([element_abcd(e, np.atleast_1d(f)) for e in chain])
    if np.ndim(f):
        return tp
    return TwoPort(*(v[0] if np.shape(v) == (1,) else v for v in (tp.a, tp.b, tp.c, tp.d)))


def terminate(tp: TwoPort, z_load) -> complex:
    """Input impedance (ohm) of a two-port closed by the load z_load (ohm).

    Z_in = (a*Z_L + b) / (c*Z_L + d), so a short (Z_L = 0) gives b/d; a
    non-finite Z_L (OPEN) takes the analytic limit a/c.  z_load may be a
    scalar or an array broadcasting against the ABCD entries.  An exact
    division by zero (ideal lossless stub at resonance) and a non-finite
    quotient yield the infinite-impedance marker, not an exception.
    """
    zl = np.asarray(z_load, dtype=complex)
    open_end = ~np.isfinite(zl)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        num = np.asarray(tp.a * zl + tp.b)
        den = np.asarray(tp.c * zl + tp.d)
        np.copyto(num, tp.a, where=open_end)  # the open limit a/c
        np.copyto(den, tp.c, where=open_end)
        z = num / den
    return np.where((den == 0) | ~np.isfinite(z), INFINITE_IMPEDANCE, z)[()]


def input_impedance(chain, z_load, f) -> complex:
    """Input impedance (ohm) of an element chain closed by the load z_load.

    Folds from the load to the tap, one Moebius step per element (see the
    module docstring), without forming ABCD matrices.  z_load may be a
    scalar or an array broadcasting against f; a non-finite Z (OPEN, or an
    earlier step's pole) takes the open limit z0/t after a line.  An exact
    zero denominator and a non-finite result yield the infinite-impedance
    marker, as in terminate(); a non-finite series impedance raises
    ValueError, as in element_abcd().
    """
    fa = np.atleast_1d(f)
    if not np.all(np.real(fa) > 0):
        raise ValueError("frequency must have a positive real part")
    z = np.asarray(z_load, dtype=complex)
    tanh_gl = {}  # a section object repeated in the chain shares its tanh
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for e in reversed(chain):
            if isinstance(e, (SeriesCapacitor, SeriesImpedance)):
                z = z + _series_impedance(e, fa)  # an open end stays open
                continue
            if not isinstance(e, LineSection):
                raise TypeError(f"unknown element type: {type(e).__name__}")
            open_end = ~np.isfinite(z)
            if id(e) not in tanh_gl:
                tanh_gl[id(e)] = np.tanh((e.atten + 1j * e.beta(fa)) * e.length)
            t = tanh_gl[id(e)]
            z_open = e.z0 / t
            z = e.z0 * (z + e.z0 * t) / (e.z0 + z * t)
            np.copyto(z, z_open, where=open_end)
    z = np.where(np.isfinite(z), z, INFINITE_IMPEDANCE)
    if np.ndim(f) == 0 and np.ndim(z_load) == 0 and z.shape == (1,):
        return z[0]
    return z[()]


def notch_s21(z_shunt, z_ref: float):
    """S21 of a shunt branch of impedance z_shunt across a matched line.

    S21 = 1 / (1 + z_ref / (2 z_shunt)).  z_shunt = 0 gives exactly 0
    (full notch); the infinite-impedance marker gives exactly 1.
    """
    if not z_ref > 0:
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
    if not z_ref > 0:
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
