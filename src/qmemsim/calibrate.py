"""Geometry calibration against target resonances.

Calibration pins three knobs with nested Brent root-finds (relative
tolerance 1e-9 on each scalar):

  (i)   sc_len       -> the isolated storage-cavity branch resonates at f_sc
  (ii)  tcr_half_len -> the isolated TCR resonates at f_tcr_on with the
                        junction at the anchor inductance
  (iii) c_in         -> the isolated TCR's coupling quality factor matches
                        the q_c target (re-solving (ii) for every trial)

"Isolated" branches terminate the coupling capacitor in a short: a series
branch at its own resonance presents zero impedance to the partner node,
so this is the loading each resonator actually feels at the crossing.  The
coupling capacitor itself stays free: it is the knob that sets the mode
splitting.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .cell import (
    MemoryCell,
    sc_branch_impedance,
    sc_mode_estimate,
    tcr_chain,
    tcr_mode_estimate,
)
from .jjfet import On
from .resonance import db, find_resonances, half_depth_window
from .twoport import SHORT, chain_abcd, notch_s21, terminate


class CalibrationError(RuntimeError):
    """A calibration stage could not bracket or refine its root."""


@dataclass(frozen=True)
class CalibrationTargets:
    """Anchor values the geometry is solved for.

    f_sc : Hz, storage-cavity resonance
    l_anchor : henry, junction inductance at which the TCR must cross f_sc
    q_c : coupling quality factor of the TCR-feedline interface
    f_tcr_on : Hz, TCR resonance at the anchor (defaults to f_sc, the
        crossing condition)
    """

    f_sc: float
    l_anchor: float
    q_c: float
    f_tcr_on: float | None = None

    def __post_init__(self):
        if min(self.f_sc, self.l_anchor, self.q_c) <= 0:
            raise ValueError("calibration targets must be positive")
        if self.f_tcr_on is not None and self.f_tcr_on <= 0:
            raise ValueError("f_tcr_on must be positive")

    @property
    def tcr_target(self) -> float:
        return self.f_tcr_on if self.f_tcr_on is not None else self.f_sc


def find_root(fn, lo: float, hi: float, stage: str) -> float:
    """Brent root of fn on [lo, hi] to 1e-9 relative.

    Raises CalibrationError naming `stage` when fn(lo) and fn(hi) have the
    same sign; an error raised by fn itself propagates unchanged.
    """
    try:
        # xtol=1e-300: the tolerance is relative only, whatever the unit of x
        return brentq(fn, lo, hi, xtol=1e-300, rtol=1e-9)
    except ValueError as err:
        if "different signs" not in str(err):
            raise
        raise CalibrationError(f"{stage}: root not bracketed") from None


# ------------------------- isolated branches -------------------------


def _tcr_branch_impedance(cell: MemoryCell, l_j: float, f):
    """Isolated TCR branch seen from the feedline tap (SC node grounded)."""
    return terminate(chain_abcd(tcr_chain(cell, On(l_j)), f), SHORT)


def _up_crossing(reactance, lo: float, hi: float, near: float, n_scan: int,
                 depth: int = 6):
    """Bracket of the upward Im(Z) zero crossing nearest `near`.

    A series-resonance zero can sit arbitrarily close below a reactance
    pole (weak end coupling); when the coarse scan only shows the pole's
    downward jump, the interval below it is rescanned at finer spacing.
    """
    fs = np.linspace(lo, hi, n_scan)
    xs = np.asarray(reactance(fs))
    up = np.where((xs[:-1] < 0) & (xs[1:] >= 0))[0]
    if len(up):
        i = up[np.argmin(np.abs(fs[up] - near))]
        return fs[i], fs[i + 1]
    if depth == 0:
        return None
    down = np.where((xs[:-1] > 0) & (xs[1:] <= 0))[0]
    if len(down) == 0:
        return None
    step = fs[1] - fs[0]
    for i in down[np.argsort(np.abs(fs[down] - near))]:
        got = _up_crossing(
            reactance, max(lo, fs[i] - 2 * step), fs[i + 1], near, n_scan, depth - 1
        )
        if got is not None:
            return got
    return None


def _reactance_root(reactance, f_estimate: float, span=(0.6, 1.1), n_scan: int = 600,
                    stage: str = "") -> float:
    """Series-resonance frequency: upward zero crossing of Im(Z) near an estimate."""
    got = _up_crossing(
        reactance, span[0] * f_estimate, span[1] * f_estimate, f_estimate, n_scan
    )
    if got is None:
        raise CalibrationError(f"{stage}: no series resonance near estimate")
    return find_root(reactance, got[0], got[1], stage)


def sc_branch_resonance(cell: MemoryCell) -> float:
    """Resonance (Hz) of the isolated storage-cavity branch."""
    est = sc_mode_estimate(cell)
    return _reactance_root(
        lambda f: sc_branch_impedance(cell, f).imag, est,
        span=(0.9, 1.02), n_scan=200, stage="storage cavity",
    )


def tcr_branch_resonance(cell: MemoryCell, l_j: float) -> float:
    """Resonance (Hz) of the isolated TCR branch with the junction at l_j."""
    est = tcr_mode_estimate(cell, l_j)
    return _reactance_root(
        lambda f: _tcr_branch_impedance(cell, l_j, f).imag, est,
        span=(0.6, 1.1), n_scan=600, stage="coupling resonator",
    )


def isolated_tcr_trace(cell: MemoryCell, l_j: float, f_grid):
    """Feedline transmission of the isolated TCR branch alone."""
    f_grid = np.asarray(f_grid, dtype=float)
    z = _tcr_branch_impedance(cell, l_j, f_grid)
    return f_grid, notch_s21(z, cell.z0)


def isolated_sc_trace(cell: MemoryCell, f_grid):
    """Feedline transmission of the storage-cavity branch tapped directly."""
    f_grid = np.asarray(f_grid, dtype=float)
    z = sc_branch_impedance(cell, f_grid)
    return f_grid, notch_s21(z, cell.z0)


def measure_isolated_tcr(cell: MemoryCell, l_j: float):
    """Notch fit of the isolated TCR dip; returns a ResonancePeak.

    Two-stage windowing: a wide coarse window locates the dip and its
    half-depth width, then a window of ~24 linewidths is refit densely so
    the fit conditions well from Q ~ 10 up to Q ~ 1e6.
    """
    f0 = tcr_branch_resonance(cell, l_j)
    width = 0.12 * f0
    for _ in range(4):
        grid = np.linspace(f0 - width / 2, f0 + width / 2, 1601)
        freqs, s21 = isolated_tcr_trace(cell, l_j, grid)
        s21_db = db(s21)
        i = int(np.argmin(s21_db))
        lo, hi = half_depth_window(s21_db, i)
        fwhm = max(freqs[hi] - freqs[lo], grid[1] - grid[0])
        new_width = 24.0 * fwhm
        f0 = freqs[i]
        if new_width > 0.7 * width:
            break
        width = new_width
    grid = np.linspace(f0 - width / 2, f0 + width / 2, 1601)
    freqs, s21 = isolated_tcr_trace(cell, l_j, grid)
    peaks = find_resonances(freqs, s21, min_depth_db=1e-4)
    if not peaks:
        raise CalibrationError("coupling resonator: isolated dip not found")
    peak = max(peaks, key=lambda p: p.depth_db)
    if peak.q_coupling is None:
        raise CalibrationError("coupling resonator: notch fit did not converge")
    return peak


# ------------------------- calibration driver -------------------------


def calibrate_geometry(targets: CalibrationTargets, seed: MemoryCell) -> MemoryCell:
    """Solve the cell geometry for the calibration targets.

    Returns a new MemoryCell; c_couple, the junction and the loss
    parameters are carried over from the seed unchanged.  Raises
    CalibrationError naming the failing stage when a root cannot be
    bracketed.
    """
    v = seed.phase_velocity
    quarter = v / (4.0 * targets.f_sc)

    # (i) storage-cavity length
    def sc_err(length):
        return sc_branch_resonance(replace(seed, sc_len=length)) - targets.f_sc

    sc_len = find_root(sc_err, 0.5 * quarter, 1.5 * quarter, "storage cavity length")
    base = replace(seed, sc_len=sc_len)

    # (ii) TCR half length for a given input capacitor
    quarter_tcr = v / (4.0 * targets.tcr_target)

    def half_len_for(c_in):
        trial = replace(base, c_in=c_in)

        def err(h):
            return (
                tcr_branch_resonance(replace(trial, tcr_half_len=h), targets.l_anchor)
                - targets.tcr_target
            )

        return find_root(err, 0.4 * quarter_tcr, 1.2 * quarter_tcr,
                         "coupling resonator length")

    # (iii) input capacitor for the coupling-Q target
    def qc_err(log_c):
        c_in = 10.0 ** log_c
        trial = replace(base, c_in=c_in, tcr_half_len=half_len_for(c_in))
        peak = measure_isolated_tcr(trial, targets.l_anchor)
        return math.log10(peak.q_coupling / targets.q_c)

    lo, hi = _grow_bracket(qc_err, math.log10(seed.c_in), step=0.25, limit=8.0)
    log_c = find_root(qc_err, lo, hi, "input capacitor")
    c_in = 10.0 ** log_c
    return replace(base, c_in=c_in, tcr_half_len=half_len_for(c_in))


def _grow_bracket(fn, x0: float, step: float, limit: float):
    """Walk outward from x0 until fn changes sign; returns the bracket.

    An evaluation failing beyond a physically sensible range counts as
    the end of the walk: the target root is not bracketed.
    """
    f0 = fn(x0)
    if f0 == 0.0:
        return x0, x0
    direction = 1.0 if f0 > 0 else -1.0  # fn is decreasing in x here
    x, fx = x0, f0
    while abs(x - x0) < limit:
        x_next = x + direction * step
        try:
            f_next = fn(x_next)
        except CalibrationError:
            break
        if (f_next > 0) != (fx > 0) or f_next == 0.0:
            return (x, x_next) if x < x_next else (x_next, x)
        x, fx = x_next, f_next
        step *= 1.6
    raise CalibrationError("input capacitor: root not bracketed")
