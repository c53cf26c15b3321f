"""Resonance extraction from |S21| traces.

Dips are located as local minima of |S21| in dB, refined by parabolic
interpolation, then fit to the complex notch model

    S21(f) = 1 - (Q_l / Q_c) / (1 + 2j Q_l (f - f0) / f0)

with loaded quality factor Q_l, coupling quality factor Q_c and resonance
frequency f0.  The internal quality factor follows from
1/Q_i = 1/Q_l - 1/Q_c.
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


def _fit_notch(f, s21, f0_init, ql_init, qc_init):
    """Least-squares fit of the complex notch model; None on failure."""

    def residuals(p):
        model = notch_s21_model(f, p[0] * f0_init, 10.0 ** p[1], 10.0 ** p[2])
        r = model - s21
        return np.concatenate([r.real, r.imag])

    p0 = np.array([1.0, np.log10(ql_init), np.log10(qc_init)])
    try:
        res = least_squares(
            residuals, p0,
            bounds=([0.5, 0.0, 0.0], [1.5, 12.0, 14.0]),
            xtol=1e-14, ftol=1e-14, gtol=1e-14,
        )
    except ValueError:  # infeasible start or non-finite residuals
        return None
    if not res.success:
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
