"""Resonances from |S21| traces and from complex-frequency circuit roots.

Dips are located as local minima of |S21| in dB, refined by parabolic
interpolation (trace_dips()).  A trace alone is fit to the complex notch model

    S21(f) = 1 - (Q_l / Q_c) / (1 + 2j Q_l (f - f0) / f0) = (f - f_zero) / (f - f_pole)

with loaded quality factor Q_l, coupling quality factor Q_c and resonance
frequency f0 (find_resonances()), as its zero f_zero = f0 (1 + j/2Q_i) and
pole f_pole = f0 (1 + j/2Q_l), refined with an analytic Jacobian by
levenberg_marquardt(), which the crossing fit shares.  The circuit itself
gives the same roots (Pozar, Microwave Engineering, 6.1): see
complex_zeros() and notch_roots().  Fitted and circuit roots alike are read
by notch_readout(), which reads any number of roots at once as columns;
peak_from_roots() is its one-element case.  A trace of a known shunt branch
takes each dip's values from those roots, with no fit (peaks_from_roots()).
Real roots are refined by find_root() inside brackets its callers supply;
the calibration scans for its own.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .checks import require


class CalibrationError(RuntimeError):
    """A calibration stage could not bracket or refine its root."""


def find_root(fn, lo, hi, stage: str, rtol: float = 1e-9, f_lo=None, f_hi=None):
    """Elementwise root of fn on the brackets [lo, hi] by Chandrupatla's method
    (Adv. Eng. Software 28, 145 (1997)), for fn mapping an array to its shape.

    f_lo and f_hi are fn(lo) and fn(hi) when the caller already holds them
    (a scan's values at its grid points); fn is called for either one left
    None.  The root is the same bit for bit when the values given are fn's.
    Each element stops on its own, at an exact zero or once its bracket is
    narrower than rtol times its best end, which is returned.  Raises
    CalibrationError naming `stage` when an element is not bracketed, meets
    a non-finite value or takes over 2100 steps (a root near 0 may take one
    per binary order of magnitude); an error raised by fn propagates.
    """
    x1, x2 = (x.astype(float) for x in np.broadcast_arrays(lo, hi))
    f1 = fn(x1) if f_lo is None else f_lo
    f2 = fn(x2) if f_hi is None else f_hi
    if not np.all(np.sign(f1) * np.sign(f2) <= 0):  # nan fails too
        raise CalibrationError(f"{stage}: root not bracketed")
    x3, f3, atol = x1, f1, 4.0 * np.finfo(float).tiny  # x3 = x1: the first step bisects
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(2100):
            # [()] keeps a 0-d problem on numpy scalars, whose arithmetic is cheaper
            xm, dx = np.where(abs(f1) < abs(f2), x1, x2)[()], x2 - x1
            tol = rtol * abs(xm) + atol
            active = (abs(dx) >= tol) & (f1 != 0) & (f2 != 0)
            if not active.any():
                return xm
            a, b = f1 - f2, f3 - f2
            xi, phi = -dx / (x3 - x2), a / b
            t = np.where((1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi)),
                         f1 / b * (f3 / a + (x3 - x1) / dx * f2 / (f3 - f1)), 0.5)
            tl = 0.5 * tol / abs(dx)
            x = np.where(active, x1 + np.minimum(np.maximum(t, tl), 1.0 - tl) * dx, xm)[()]
            f = fn(x)
            if not np.isfinite(f).all():
                raise CalibrationError(f"{stage}: non-finite value inside the bracket")
            # a converged element re-evaluates its best end and keeps it
            same = np.sign(f) == np.sign(f1)
            x3, f3 = np.where(same, x1, x2)[()], np.where(same, f1, f2)[()]
            x2, f2 = np.where(active & ~same, x1, x2)[()], np.where(active & ~same, f1, f2)[()]
            x1, f1 = x, f
    raise CalibrationError(f"{stage}: no convergence in 2100 steps")


LM_TOL = 1e-14  #: relative tolerance on the scaled step and the cost reduction


def levenberg_marquardt(residuals, jacobian, p0):
    """Least-squares minimum of residuals(p), jacobian(p) its derivative matrix,
    by Levenberg-Marquardt (Madsen, Nielsen & Tingleff, Methods for Non-Linear
    Least Squares Problems, 2004, 3.2) with Marquardt's column-norm scaling,
    as in MINPACK.  Returns (p, residuals(p), converged): converged once the
    scaled step, or the actual and predicted cost reduction, fall to LM_TOL
    relative; not for a non-finite start or after 100 evaluations per parameter.
    """
    p, fresh, d, mu, nu = np.asarray(p0, dtype=float), True, 0.0, 1e-3, 2.0
    r = residuals(p)
    if not np.isfinite(r @ r):
        return p, r, False
    for _ in range(100 * p.size - 1):
        if fresh:  # a new point: its Jacobian, scaled by the largest column norms seen
            jac = jacobian(p)
            jtj = jac.T @ jac
            d = np.maximum(d, np.sqrt(np.diag(jtj)))
            a, g = jtj / np.outer(d, d), jac.T @ r / d
        # the damped step in scaled parameters d p: (A + mu I) y = -g
        y = np.linalg.solve(a + mu * np.eye(p.size), -g)
        if y @ y <= LM_TOL**2 * np.sum((d * p) ** 2):
            return p, r, True
        q = p + y / d
        r_q = residuals(q)
        actual, predicted = r @ r - r_q @ r_q, mu * (y @ y) - y @ g
        fresh = actual > 0  # false for nan from non-finite residuals too
        if not fresh:
            mu, nu = mu * nu, 2.0 * nu
        elif max(actual, predicted) <= LM_TOL * (r @ r):
            return q, r_q, True
        else:
            p, r = q, r_q
            mu, nu = mu * max(1.0 / 3.0, 1.0 - (2.0 * actual / predicted - 1.0) ** 3), 2.0
    return p, r, False


def notch_s21_model(f, f0, q_loaded, q_coupling):
    """Complex notch response; baseline 1 away from resonance."""
    return 1.0 - (q_loaded / q_coupling) / (1.0 + 2j * q_loaded * (f - f0) / f0)


@dataclass(frozen=True)
class ResonancePeak:
    """One notch resonance.

    f0 : Hz.  depth_db : positive dB depth of the dip below the unit
    baseline.  q_* fields are None when the dip has no Lorentzian fit that
    converged on it (find_resonances()) or no circuit root in it
    (peaks_from_roots()); f0 then comes from parabolic interpolation alone.
    q_internal is None for a lossless resonance (Q_c ~ Q_l).
    f_dip : Hz, the parabolic minimum of the trace dip, which a root's f0
    need not sit on; set by peaks_from_roots() alone.
    """

    f0: float
    depth_db: float
    q_loaded: float | None = None
    q_coupling: float | None = None
    q_internal: float | None = None
    f_dip: float | None = None

    def __post_init__(self):
        require(self, "positive", "f0", "q_loaded", "f_dip")


def db(s21):
    """|S21| in dB; exact zeros clip to 1e-300 instead of giving -inf."""
    return 20.0 * np.log10(np.maximum(np.abs(s21), 1e-300))


def local_minima(db, min_depth_db):
    """Indices of interior dips of a dB trace at least `min_depth_db` deep.

    A dip is a point no higher than its left neighbour and strictly below
    its right one, so a flat-bottomed dip is reported once, at its right end.
    """
    db = np.asarray(db)
    mid = db[1:-1]
    hit = (mid <= db[:-2]) & (mid < db[2:]) & (-mid >= min_depth_db)
    return np.flatnonzero(hit) + 1


def _parabolic_vertex(x, y):
    """Vertex abscissa of the parabola through three (x, y) points."""
    x0, x1, x2 = x
    y0, y1, y2 = y
    num = (x1 - x0) ** 2 * (y1 - y2) - (x1 - x2) ** 2 * (y1 - y0)
    den = (x1 - x0) * (y1 - y2) - (x1 - x2) * (y1 - y0)
    if den == 0:
        return x1
    v = x1 - 0.5 * num / den
    return v if x0 < v < x2 else x1


def half_depth_window(db, i):
    """Index range [lo, hi] about the dip at i where the trace stays below half
    its dB depth and does not fall again: the window stops at a saddle toward
    a neighbouring dip, so a dip on another's skirt does not take in the other.
    """
    half = db[i] / 2.0
    lo = i
    while lo > 0 and half > db[lo - 1] >= db[lo]:
        lo -= 1
    hi = i
    n = len(db)
    while hi < n - 1 and half > db[hi + 1] >= db[hi]:
        hi += 1
    return lo, hi


def trace_dips(freqs, s21_db, min_depth_db):
    """(i, (lo, hi), (f_lo, f_hi), f_dip) per local minimum i of the dB trace
    at least min_depth_db deep: its half_depth_window [lo, hi], that window
    widened by one sample in Hz (where a resonance must land to be this
    dip's), and the vertex f_dip of the parabola through i and its neighbours."""
    n = len(freqs)
    found = []
    for i in local_minima(s21_db, min_depth_db):
        lo, hi = half_depth_window(s21_db, i)
        span = (freqs[max(lo - 1, 0)], freqs[min(hi + 1, n - 1)])
        found.append((i, (lo, hi), span,
                      _parabolic_vertex(freqs[i - 1 : i + 2], s21_db[i - 1 : i + 2])))
    return found


def _checked_trace(freqs, s21, min_depth_db):
    """(freqs, s21) as float and complex arrays; ValueError unless they are
    1-D of one length, strictly increasing from 3 points on, and the
    threshold is finite."""
    freqs = np.asarray(freqs, dtype=float)
    s21 = np.asarray(s21, dtype=complex)
    if freqs.ndim != 1 or freqs.shape != s21.shape:
        raise ValueError("freqs and s21 must be 1-D arrays of equal length")
    if not np.isfinite(min_depth_db):
        raise ValueError("min_depth_db must be finite")
    if len(freqs) >= 3 and not np.all(np.diff(freqs) > 0):
        raise ValueError("freqs must be strictly increasing")
    return freqs, s21


def _fit_notch(f, s21, f0_init, ql_init, qc_init):
    """(f_zero, f_pole) of notch_s21_model() fit to the trace as
    S21 = (f - f_zero) / (f - f_pole), f_zero = f0 + j a and f_pole = f0 + j b,
    where a = f0/2Q_i and b = f0/2Q_l; None on failure.

    Parameters are (f0 / f0_init, ln(b / h), ln(c / h)) with h = f0_init / ql_init
    and c = b - a = f0/2Q_c, so S21 = 1 + j c / (f - f_pole).  The start is one
    |1 - S21|-weighted real least squares of the identity
    S21 (f - f_pole) = f - f_zero, exact for an exact notch, on a finite trace
    where it gives b > a and b > 0; else the caller's estimate.
    levenberg_marquardt() with the analytic Jacobian refines it, its steps
    through non-finite residuals rejected quietly.  The fit fails unless it
    converged with 0 <= a < b; a zero within 1e-9 b of the axis is lossless (a = 0).
    """
    h = f0_init / ql_init

    def model(p):
        """(1 / (f - f_pole), S21 - 1) at p."""
        inv = 1.0 / (f - p[0] * f0_init - 1j * h * np.exp(p[1]))
        return inv, 1j * h * np.exp(p[2]) * inv

    def residuals(p):
        r = 1.0 + model(p)[1] - s21
        return np.concatenate([r.real, r.imag])

    def jacobian(p):
        inv, k = model(p)  # dS/dp: f0_init k / (f - f_pole), j b k / (f - f_pole), k
        cols = np.stack([f0_init * k * inv, 1j * h * np.exp(p[1]) * k * inv, k], axis=1)
        return np.concatenate([cols.real, cols.imag])

    p0 = np.array([1.0, np.log(0.5), np.log(0.5 * ql_init / qc_init)])
    if np.isfinite(s21).all():  # lstsq raises on a non-finite sample
        # (S - 1)(f - f0_init) = (f0 - f0_init)(S - 1) + j b S - j a, in units of h
        w = np.abs(1.0 - s21)
        cols = np.stack([s21 - 1.0, np.full_like(s21, -1j), 1j * s21], axis=1) * w[:, None]
        rhs = w * (s21 - 1.0) * (f - f0_init) / h
        (df0, a, b), *_ = np.linalg.lstsq(np.concatenate([cols.real, cols.imag]),
                                          np.concatenate([rhs.real, rhs.imag]), rcond=None)
        if b > max(a, 0.0):
            p0 = np.array([1.0 + df0 * h / f0_init, np.log(b), np.log(b - a)])
    with np.errstate(all="ignore"):
        p, _, converged = levenberg_marquardt(residuals, jacobian, p0)
        f0, b = p[0] * f0_init, h * np.exp(p[1])
        a = b - h * np.exp(p[2])
    if abs(a) <= 1e-9 * b:
        a = 0.0
    if not (converged and 0.0 <= a < b):
        return None
    return complex(f0, a), complex(f0, b)


def find_resonances(freqs, s21, min_depth_db: float = 0.05):
    """Extract notch resonances from a swept-frequency trace by fitting it.

    Parameters
    ----------
    freqs : array of Hz, strictly increasing (non-uniform grids allowed)
    s21 : array of complex transmission, same length
    min_depth_db : detection threshold on the dip depth below 0 dB

    Returns
    -------
    list of ResonancePeak, one per trace_dips() dip, sorted by f0.  A flat
    trace yields an empty list.  Each fit spans five half-depth widths
    either side of its dip and is kept only when its f0 lands on its own
    dip: inside the dip's half_depth_window widened by one sample, which
    stops at a saddle toward a neighbouring dip.  A dip whose fit fails, or
    lands off its own dip (a shallow dip's fit drawn onto a deeper
    neighbour), keeps its parabolic f0 with the Q fields absent; no dip is
    merged into another.  A kept fit's roots give f0 and the Q values through
    peak_from_roots(), with the trace's depth.  A trace of a known shunt
    branch has exact values in peaks_from_roots() instead.
    """
    freqs, s21 = _checked_trace(freqs, s21, min_depth_db)
    s21_db = db(s21)
    n = len(freqs)

    peaks = []
    for i, (lo, hi), (f_lo, f_hi), f0_par in trace_dips(freqs, s21_db, min_depth_db):
        fwhm = max(freqs[hi] - freqs[lo], freqs[i + 1] - freqs[i - 1])
        wlo = np.searchsorted(freqs, f0_par - 5.0 * fwhm)
        whi = np.searchsorted(freqs, f0_par + 5.0 * fwhm)
        wlo = max(0, min(wlo, i - 3))
        whi = min(n, max(whi, i + 4))
        ql_init = max(f0_par / fwhm, 10.0)
        depth_lin = 1.0 - 10.0 ** (s21_db[i] / 20.0)
        qc_init = ql_init / min(max(depth_lin, 1e-6), 1.0)
        fit = _fit_notch(freqs[wlo:whi], s21[wlo:whi], f0_par, ql_init, qc_init)
        if fit is None or not f_lo <= fit[0].real <= f_hi:
            peaks.append(ResonancePeak(f0=f0_par, depth_db=-s21_db[i]))
        else:
            peaks.append(replace(peak_from_roots(*fit), depth_db=-s21_db[i]))

    peaks.sort(key=lambda p: p.f0)
    return peaks


def complex_zeros(fn, seeds, lo, hi):
    """Complex zeros of an analytic, elementwise fn by Newton's method from real seeds.

    fn is called on shape (3, *seeds.shape): each root and its central-difference
    neighbours.  A root stops once its own step is at most 4 ulps, so scalar and
    vector calls agree bit for bit.  A root whose real part leaves its bracket
    [lo, hi], or that has not converged in 60 steps, comes back nan.
    """
    seeds = np.asarray(seeds, dtype=float)
    z, active = seeds.astype(complex), np.ones(seeds.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(60):
            at = np.where(np.isnan(z), seeds, z)  # a failed root's step is dropped
            h = 2.0**-27 * at.real
            f_mid, f_up, f_down = fn(np.stack([at, at + h, at - h]))
            step = f_mid * (2.0 * h) / (f_up - f_down)
            z = np.where(active, z - step, z)
            left = active & ~(np.isfinite(z) & (lo <= z.real) & (z.real <= hi))
            z[left] = np.nan
            active &= ~left & (np.abs(step) > 4.0 * np.finfo(float).eps * np.abs(z))
            if not active.any():
                break
    z[active] = np.nan
    return z[()]


def notch_roots(z, z0, seeds, lo, hi):
    """(f_zero, f_pole) of a shunt branch z: the zeros of z and of z + z0/2
    (see peak_from_roots()), each shaped like seeds, from one complex_zeros()
    call; z maps shape (3, 2, *seeds.shape), its parameters broadcasting
    against seeds."""
    seeds = np.asarray(seeds, dtype=float)
    offset = np.reshape([0.0, 0.5 * z0], (2,) + (1,) * seeds.ndim)
    return tuple(complex_zeros(lambda f: z(f) + offset, np.stack([seeds, seeds]), lo, hi))


class NotchColumns(NamedTuple):
    """Notch resonances of shunt-branch roots as columns shaped like the roots
    (notch_readout()); a nan Q is a ResonancePeak's None (peaks()).

    f0 : Hz.  depth_db : -dB|S21(f0)|.  q_loaded, q_coupling, q_internal : the
    Q values.  passive : Im f_zero >= 0 and Im f_pole > 0, which nan fails.
    """

    f0: np.ndarray
    depth_db: np.ndarray
    q_loaded: np.ndarray
    q_coupling: np.ndarray
    q_internal: np.ndarray
    passive: np.ndarray

    def require(self, checked) -> None:
        """Raise ValueError at the first element where `checked` (a mask like
        the columns, or True) holds and the roots are not passive, or give a
        non-positive f0 or Q_l (ResonancePeak's field check)."""
        bad = np.flatnonzero(checked & ~(self.passive & (self.f0 > 0) & (self.q_loaded > 0)))
        if len(bad):  # the first rejected element's peak raises
            NotchColumns(*(np.ravel(c)[bad[:1]] for c in self)).peaks()

    def peaks(self) -> list[ResonancePeak]:
        """One ResonancePeak per element, in flat order, None for a nan Q;
        raises at the first element that require() rejects."""
        found = []
        for f0, depth, ql, qc, qi, passive in zip(*(np.ravel(c).tolist() for c in self)):
            if not passive:
                raise ValueError("a passive branch has Im f_zero >= 0 and Im f_pole > 0")
            # ResonancePeak's field check rejects a non-positive f0 or Q_l
            found.append(ResonancePeak(f0, depth, ql, *(None if q != q else q for q in (qc, qi))))
        return found


def notch_readout(f_zero, f_pole) -> NotchColumns:
    """Notch resonances from the zeros f0 (1 + j/2Q_i) of a shunt branch Z and
    the poles f0 (1 + j/2Q_l) of 2Z + z0 (Probst et al., RSI 86, 024706 (2015)),
    elementwise over arrays of roots, with no check (NotchColumns.require()).

    Each Q is Re f / (2 Im f); Q_i is nan where Im f_zero == 0 (lossless, and
    then Q_c = Q_l), and 1/Q_c = 1/Q_l - 1/Q_i (nan unless positive).
    depth_db = -dB|S21(f0)| = -dB(Q_l/Q_i) of the notch model.
    """
    fz, fp = np.asarray(f_zero, dtype=complex), np.asarray(f_pole, dtype=complex)
    lossless = fz.imag == 0
    with np.errstate(all="ignore"):
        ql = fp.real / (2.0 * fp.imag)
        qi = np.where(lossless, np.nan, fz.real / (2.0 * fz.imag))
        qc = np.where(lossless, ql, np.where(qi > ql, 1.0 / (1.0 / ql - 1.0 / qi), np.nan))
        depth = -db(np.where(lossless, 0.0, ql / qi))
    return NotchColumns(fz.real, depth, ql, qc, qi, (fz.imag >= 0) & (fp.imag > 0))


def peak_from_roots(f_zero, f_pole) -> ResonancePeak:
    """The one-element case of notch_readout(), as a ResonancePeak; raises as
    NotchColumns.require() does."""
    return notch_readout(f_zero, f_pole).peaks()[0]


def peaks_from_roots(freqs, s21, min_depth_db, z, z0):
    """Resonances of a shunt branch from its trace and its complex roots.

    s21 = notch_s21(z(freqs), z0) is the branch's trace on freqs; z maps
    complex Hz to ohm as notch_roots() takes it.  Returns one ResonancePeak
    per trace_dips() dip, sorted by f0, with the trace's depth and the dip's
    parabolic minimum f_dip.  Im Z has the sign of Im[S21 / (1 - S21)], so
    the trace places each up-crossing of Im Z.  The crossing nearest a dip
    in its widened window seeds the dip's roots, bracketed halfway to the
    neighbouring dips, in one notch_roots() call for all dips.  A dip whose
    zero lands in its window, with a pole, takes f0 and the Q values of
    notch_readout(); any other dip keeps its parabolic f0 and no Q.  No fit
    is made.
    """
    freqs, s21 = _checked_trace(freqs, s21, min_depth_db)
    s21_db = db(s21)
    found = trace_dips(freqs, s21_db, min_depth_db)
    with np.errstate(divide="ignore", invalid="ignore"):  # S21 = 1 exactly: no crossing
        x = (s21 / (1.0 - s21)).imag
        k = np.flatnonzero((x[:-1] < 0) & (x[1:] >= 0))
        up = freqs[k] - x[k] * (freqs[k + 1] - freqs[k]) / (x[k + 1] - x[k])
    peaks, at, seeds = [], [], []
    for d, (i, _, (f_lo, f_hi), f_dip) in enumerate(found):
        peaks.append(ResonancePeak(f0=f_dip, depth_db=-s21_db[i], f_dip=f_dip))
        inside = up[(f_lo <= up) & (up <= f_hi)]
        if not len(inside):
            # a window that reaches an end of the sweep seeds from that end
            # when Im Z there puts the up-crossing past it: at or above 0 at
            # the first sample, below 0 at the last
            inside = np.array([f for f, past in ((freqs[0], x[0] >= 0), (freqs[-1], x[-1] < 0))
                               if past and f_lo <= f <= f_hi])
        if len(inside):
            at.append(d)
            seeds.append(inside[np.argmin(abs(inside - f_dip))])
    if seeds:
        # brackets reach halfway to the neighbouring dips: a deep dip's window
        # can be narrower than its pole's real part is from its zero's
        mid = [(p.f_dip + q.f_dip) / 2 for p, q in zip(peaks, peaks[1:])]
        edges, at = np.array([freqs[0], *mid, freqs[-1]]), np.array(at)
        f_zero, f_pole = notch_roots(z, z0, np.array(seeds), edges[at], edges[at + 1])
        f_lo, f_hi = np.array([found[d][2] for d in at]).T
        own = (f_lo <= f_zero.real) & (f_zero.real <= f_hi) & ~np.isnan(f_pole)
        for d, peak in zip(at[own], notch_readout(f_zero[own], f_pole[own]).peaks()):
            peaks[d] = replace(peak, depth_db=peaks[d].depth_db, f_dip=peaks[d].f_dip)
    return sorted(peaks, key=lambda p: p.f0)
