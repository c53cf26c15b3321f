"""Resonance extraction from |S21| traces.

Dips are located as local minima of |S21| in dB, refined by parabolic
interpolation, then fit to the complex notch model

    S21(f) = 1 - (Q_l / Q_c) / (1 + 2j Q_l (f - f0) / f0)

with loaded quality factor Q_l, coupling quality factor Q_c and resonance
frequency f0.  The internal quality factor follows from
1/Q_i = 1/Q_l - 1/Q_c.

Each fit is seeded in closed form by the inverse-S21 linearization
1/(1 - S21) = Q_c/Q_l + 2j Q_c (f - f0)/f0 (Megrant et al., APL 100,
113510 (2012)) and refined by Levenberg-Marquardt with an analytic
Jacobian.  The seed alone is not the answer: the cell is not an exact
Lorentzian, and the seed's Q values can be off by parts in 1e3.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares


def notch_s21_model(f, f0, q_loaded, q_coupling):
    """Complex notch response; baseline 1 away from resonance."""
    return 1.0 - (q_loaded / q_coupling) / (1.0 + 2j * q_loaded * (f - f0) / f0)


@dataclass(frozen=True)
class ResonancePeak:
    """One fitted notch resonance.

    f0 : Hz.  depth_db : positive dB depth of the dip below the unit
    baseline.  q_* fields are None when the Lorentzian fit did not
    converge (f0 then comes from parabolic interpolation alone);
    q_internal is None for a lossless resonance (Q_c ~ Q_l).
    """

    f0: float
    depth_db: float
    q_loaded: float | None = None
    q_coupling: float | None = None
    q_internal: float | None = None

    def __post_init__(self):
        if self.f0 <= 0:
            raise ValueError("resonance frequency must be positive")
        if self.q_loaded is not None and self.q_loaded <= 0:
            raise ValueError("loaded Q must be positive")


def db(s21):
    """|S21| in dB; exact zeros clip to 1e-300 instead of giving -inf."""
    return 20.0 * np.log10(np.clip(np.abs(s21), 1e-300, None))


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
    """Index range [lo, hi] where the dip stays below half its dB depth."""
    half = db[i] / 2.0
    lo = i
    while lo > 0 and db[lo - 1] < half:
        lo -= 1
    hi = i
    n = len(db)
    while hi < n - 1 and db[hi + 1] < half:
        hi += 1
    return lo, hi


# (f0 scale, log10 Q_l, log10 Q_c) box an accepted fit must lie in
_BOX_LO = np.array([0.5, 0.0, 0.0])
_BOX_HI = np.array([1.5, 12.0, 14.0])


def _in_box(p):
    return bool(np.all((_BOX_LO <= p) & (p <= _BOX_HI)))


def _linear_seed(f, s21):
    """Closed-form (f0, Q_l, Q_c) from the inverse-S21 linearization.

    The notch model inverts to a straight line in f,
    1/(1 - S21) = Q_c/Q_l + 2j Q_c (f - f0)/f0, solved here by one
    |1 - S21|-weighted complex least squares in x = (f - f_c)/f_c about the
    window centre f_c.  None when 1 - S21 has an exact zero or a non-finite
    sample, or when the line gives no finite positive Q.
    """
    d = 1.0 - s21
    if not np.all(np.isfinite(d) & (d != 0)):
        return None
    f_c = 0.5 * (f[0] + f[-1])
    x = (f - f_c) / f_c
    w = np.abs(d)
    (a, b), *_ = np.linalg.lstsq(
        np.stack([w, w * x], axis=1).astype(complex), w / d, rcond=None
    )
    # a = Q_c/Q_l + 2j Q_c (f_c - f0)/f0 and b = 2j Q_c f_c/f0
    with np.errstate(divide="ignore", invalid="ignore"):
        qc = 0.5 * (b.imag - a.imag)
        ql = qc / a.real
        f0 = f_c * (1.0 - a.imag / b.imag)
    if not (np.isfinite([f0, ql, qc]).all() and ql > 0 and qc > 0):
        return None
    return f0, ql, qc


def _notch_jacobian(p, f, f0_init):
    """Jacobian of the stacked (real, imag) notch residuals of :func:`_fit_notch`.

    Columns are the derivatives in p = (f0 / f0_init, log10 Q_l, log10 Q_c).
    """
    f0, ql, qc = p[0] * f0_init, 10.0 ** p[1], 10.0 ** p[2]
    u = 1.0 + 2j * ql * (f - f0) / f0
    k = (ql / qc) / u  # the model is 1 - k
    ln10 = np.log(10.0)
    cols = np.stack([-2j * ql * f / (p[0] * f0) * k / u, -ln10 * k / u, ln10 * k], axis=1)
    return np.concatenate([cols.real, cols.imag])


def _fit_notch(f, s21, f0_init, ql_init, qc_init):
    """Least-squares fit of the complex notch model; None on failure.

    Parameters are (f0 / f0_init, log10 Q_l, log10 Q_c).  The start is the
    closed-form :func:`_linear_seed` when it lies in the box, else the
    caller's estimate; Levenberg-Marquardt with the analytic Jacobian then
    refines it.  A start or result outside the box counts as a failure.
    """

    def residuals(p):
        model = notch_s21_model(f, p[0] * f0_init, 10.0 ** p[1], 10.0 ** p[2])
        r = model - s21
        return np.concatenate([r.real, r.imag])

    seed = _linear_seed(f, s21)
    if seed is not None:
        p0 = np.array([seed[0] / f0_init, np.log10(seed[1]), np.log10(seed[2])])
    if seed is None or not _in_box(p0):
        p0 = np.array([1.0, np.log10(ql_init), np.log10(qc_init)])
        if not _in_box(p0):
            return None
    try:
        res = least_squares(
            residuals, p0, jac=lambda p: _notch_jacobian(p, f, f0_init), method="lm",
            xtol=1e-14, ftol=1e-14, gtol=1e-14,
        )
    except ValueError:  # non-finite residuals at the start
        return None
    if not (res.success and _in_box(res.x)):
        return None
    f0 = res.x[0] * f0_init
    ql = 10.0 ** res.x[1]
    qc = 10.0 ** res.x[2]
    if not (f[0] <= f0 <= f[-1]):
        return None
    return f0, ql, qc


def find_resonances(freqs, s21, min_depth_db: float = 0.05):
    """Extract notch resonances from a swept-frequency trace.

    Parameters
    ----------
    freqs : array of Hz, strictly increasing (non-uniform grids allowed)
    s21 : array of complex transmission, same length
    min_depth_db : detection threshold on the dip depth below 0 dB

    Returns
    -------
    list of ResonancePeak, sorted by f0.  A flat trace yields an empty
    list.  A dip whose model fit fails is still reported, with f0 from
    parabolic interpolation and the Q fields absent.
    """
    freqs = np.asarray(freqs, dtype=float)
    s21 = np.asarray(s21, dtype=complex)
    if freqs.ndim != 1 or freqs.shape != s21.shape:
        raise ValueError("freqs and s21 must be 1-D arrays of equal length")
    if len(freqs) < 3:
        return []
    if np.any(np.diff(freqs) <= 0):
        raise ValueError("freqs must be strictly increasing")

    s21_db = db(s21)
    n = len(freqs)

    peaks = []
    for i in local_minima(s21_db, min_depth_db):
        lo, hi = half_depth_window(s21_db, i)
        f0_par = _parabolic_vertex(freqs[i - 1 : i + 2], s21_db[i - 1 : i + 2])
        fwhm = max(freqs[hi] - freqs[lo], freqs[i + 1] - freqs[i - 1])
        wlo = np.searchsorted(freqs, f0_par - 5.0 * fwhm)
        whi = np.searchsorted(freqs, f0_par + 5.0 * fwhm)
        wlo = max(0, min(wlo, i - 3))
        whi = min(n, max(whi, i + 4))
        ql_init = max(f0_par / fwhm, 10.0)
        depth_lin = 1.0 - 10.0 ** (s21_db[i] / 20.0)
        qc_init = ql_init / min(max(depth_lin, 1e-6), 1.0)
        fit = _fit_notch(freqs[wlo:whi], s21[wlo:whi], f0_par, ql_init, qc_init)
        if fit is None:
            peaks.append(ResonancePeak(f0=f0_par, depth_db=-s21_db[i]))
            continue
        f0, ql, qc = fit
        inv_qi = 1.0 / ql - 1.0 / qc
        qi = 1.0 / inv_qi if inv_qi > 1e-9 / ql else None
        peaks.append(
            ResonancePeak(
                f0=f0, depth_db=-s21_db[i], q_loaded=ql, q_coupling=qc, q_internal=qi
            )
        )

    peaks.sort(key=lambda p: p.f0)
    # merge duplicate detections of one physical dip (ripple on flat tops)
    merged: list[ResonancePeak] = []
    for p in peaks:
        if merged and p.q_loaded and merged[-1].q_loaded:
            lw = merged[-1].f0 / merged[-1].q_loaded
            if abs(p.f0 - merged[-1].f0) < 0.5 * lw:
                if p.depth_db > merged[-1].depth_db:
                    merged[-1] = p
                continue
        merged.append(p)
    return merged
