"""Geometry calibration against target resonances.

Calibration pins three knobs at the target frequencies, each a root found
by find_root (Chandrupatla's method, relative tolerance 1e-9):

  (i)   sc_len       -> Im Z of the isolated storage-cavity branch is 0 at f_sc
  (ii)  tcr_half_len -> Im Z of the isolated TCR is 0 at f_sc with the
                        junction at the anchor inductance (the crossing)
  (iii) c_in         -> the isolated TCR's coupling quality factor, from its
                        complex roots, matches the q_c target (re-solving
                        (ii) for every trial)

All cells of an array are solved in lockstep, one network call per step;
a cell's roots depend only on its own values, bit for bit.  So stage (iii)
keeps each cell's trials: a (cell, c_in) pair met again (a cell that has
stopped walking or converged, a bracket end, the root) reuses its stage-(ii)
length and peak, and only the new pairs are solved, as a sub-batch of their
cells.  Each scan hands find_root its values at the bracket ends.

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

from .checks import require
from .cell import (
    MemoryCell,
    sc_branch_impedance,
    sc_mode_estimate,
    tcr_chain,
    tcr_mode_estimate,
)
from .resonance import CalibrationError, ResonancePeak, find_root, notch_readout, notch_roots
from .twoport import SHORT, input_impedance, notch_s21

SCAN_POINTS = 200  #: points per row of the at-target sc_len and tcr_half_len scans


@dataclass(frozen=True)
class CalibrationTargets:
    """Anchor values the geometry is solved for.

    f_sc : Hz, storage-cavity resonance
    l_anchor : henry, junction inductance at which the TCR must cross f_sc
    q_c : coupling quality factor of the TCR-feedline interface
    """

    f_sc: float
    l_anchor: float
    q_c: float

    def __post_init__(self):
        require(self, "positive", "f_sc", "l_anchor", "q_c")


# ------------------------- isolated branches -------------------------


def _tcr_branch_impedance(cell: MemoryCell, l_j, f):
    """Isolated TCR branch seen from the feedline tap (SC node grounded)."""
    return input_impedance(tcr_chain(cell, l_j), SHORT, f)


def _series_resonance(reactance, near, span, n_scan: int, stage: str):
    """Per row, the upward Im(Z) zero crossing nearest `near`, to 1e-9 relative.

    reactance maps an (n, n_scan) grid over [span[0], span[1]] * near to
    Im(Z), one row per entry of near.  Im(Z) rises with frequency and line
    length except at its poles, where it falls from + to -: no bracket.  A
    zero closer below its pole than one scan step (weak end coupling) hides
    in a step where Im(Z) falls while negative; that step is rescanned, up
    to six times.  The root-find starts from the scan's Im(Z) at the ends
    of each row's step.  Raises CalibrationError naming `stage` when a row
    has no crossing.
    """
    near = np.asarray(near, dtype=float)
    lo, hi, rows = span[0] * near, span[1] * near, np.arange(len(near))
    a = b = x_a = x_b = np.full(near.shape, np.nan)
    scanning = np.ones(near.shape, dtype=bool)
    for _ in range(7):  # the scan, then up to six rescans
        s = np.linspace(lo, hi, n_scan, axis=-1)
        x = reactance(s)
        dist = np.abs(0.5 * (s[:, :-1] + s[:, 1:]) - near[:, None])
        up = (x[:, :-1] < 0) & (x[:, 1:] >= 0)
        hidden = (x[:, :-1] < 0) & (x[:, 1:] < x[:, :-1])
        i = np.argmin(np.where(up, dist, np.inf), axis=1)
        found = scanning & up.any(axis=1)
        a, b = np.where(found, s[rows, i], a), np.where(found, s[rows, i + 1], b)
        x_a, x_b = np.where(found, x[rows, i], x_a), np.where(found, x[rows, i + 1], x_b)
        scanning &= ~found & hidden.any(axis=1)
        if not scanning.any():
            break
        i = np.argmin(np.where(hidden, dist, np.inf), axis=1)
        lo, hi = np.where(scanning, s[rows, i], lo), np.where(scanning, s[rows, i + 1], hi)
    if np.isnan(a).any():
        raise CalibrationError(f"{stage}: no series resonance in range")
    return find_root(lambda x: reactance(x[:, None])[:, 0], a, b, stage, f_lo=x_a, f_hi=x_b)


def sc_branch_resonance(cell: MemoryCell) -> float:
    """Resonance (Hz) of the isolated storage-cavity branch."""
    return float(_series_resonance(lambda f: sc_branch_impedance(cell, f).imag,
                                   [sc_mode_estimate(cell)], (0.9, 1.02), 200,
                                   "storage cavity")[0])


def tcr_branch_resonance(cell: MemoryCell, l_j: float) -> float:
    """Resonance (Hz) of the isolated TCR branch with the junction at l_j."""
    return float(_series_resonance(lambda f: _tcr_branch_impedance(cell, l_j, f).imag,
                                   [tcr_mode_estimate(cell, l_j)], (0.6, 1.1), 600,
                                   "coupling resonator")[0])


def isolated_sc_trace(cell: MemoryCell, f_grid):
    """Feedline transmission of the storage-cavity branch tapped directly."""
    f_grid = np.asarray(f_grid, dtype=float)
    z = sc_branch_impedance(cell, f_grid)
    return f_grid, notch_s21(z, cell.z0)


def _isolated_tcr_peaks(cell: MemoryCell, l_j, f_r) -> list[ResonancePeak]:
    """Notch resonance of the isolated TCR branch per reactance root in f_r,
    from its notch_roots() polished within 1% of the root.  cell and l_j
    broadcast against f_r."""
    f_r = np.asarray(f_r, dtype=float)
    f_zero, f_pole = notch_roots(lambda f: _tcr_branch_impedance(cell, l_j, f), cell.z0,
                                 f_r, 0.99 * f_r, 1.01 * f_r)
    if np.isnan([f_zero, f_pole]).any():
        raise CalibrationError("coupling resonator: complex root left its bracket")
    peaks = notch_readout(f_zero, f_pole).peaks()
    if any(peak.q_coupling is None for peak in peaks):
        raise CalibrationError("coupling resonator: no positive coupling rate")
    return peaks


def measure_isolated_tcr(cell: MemoryCell, l_j: float) -> ResonancePeak:
    """Notch resonance of the isolated TCR branch, polished from the root of
    tcr_branch_resonance(); returns a ResonancePeak."""
    return _isolated_tcr_peaks(cell, l_j, [tcr_branch_resonance(cell, l_j)])[0]


# ------------------------- calibration driver -------------------------


def calibrate_cells(targets, seed: MemoryCell):
    """Solve one cell geometry per CalibrationTargets entry, all in lockstep.

    Returns (cells, peaks): new MemoryCells, c_couple, junction and losses
    carried over from the seed, and each one's isolated-TCR ResonancePeak at
    its anchor.  Raises CalibrationError naming a stage that fails.
    """
    f_sc, l_anchor, q_c = (np.array([getattr(t, k) for t in targets], dtype=float)
                           for k in ("f_sc", "l_anchor", "q_c"))
    quarter = seed.phase_velocity / (4.0 * f_sc)
    sc_len = _series_resonance(
        lambda l: sc_branch_impedance(replace(seed, sc_len=l), f_sc[:, None]).imag,
        quarter, (0.5, 1.5), SCAN_POINTS, "storage cavity length",
    )

    trials = {}  # (cell, log10 c_in) -> (tcr_half_len, isolated-TCR peak)

    def solve(log_c):
        """Per cell, stage (ii) at input capacitor 10**log_c and the peak it
        gives; only the (cell, log_c) pairs not met before are solved, as one
        sub-batch of their cells."""
        new = [i for i, x in enumerate(log_c) if (i, x) not in trials]
        if new:
            c_in = 10.0 ** log_c[new]

            def reactance(h):
                trial = replace(seed, c_in=c_in[:, None], tcr_half_len=h)
                return _tcr_branch_impedance(trial, l_anchor[new, None], f_sc[new, None]).imag

            h = _series_resonance(reactance, quarter[new], (0.4, 1.2), SCAN_POINTS,
                                  "coupling resonator length")
            peaks = _isolated_tcr_peaks(replace(seed, c_in=c_in, tcr_half_len=h),
                                        l_anchor[new], f_sc[new])
            for i, h_i, peak in zip(new, h, peaks):
                trials[i, log_c[i]] = h_i, peak
        return [trials[i, x] for i, x in enumerate(log_c)]

    def qc_err(log_c):
        return np.log10(np.array([p.q_coupling for _, p in solve(log_c)]) / q_c)

    bracket = _grow_bracket(qc_err, np.full(len(q_c), math.log10(seed.c_in)), 0.25, 8.0)
    log_c = find_root(qc_err, *bracket, "input capacitor")
    tcr_half_len, peaks = zip(*solve(log_c))
    return [replace(seed, sc_len=float(a), tcr_half_len=float(h), c_in=float(c))
            for a, h, c in zip(sc_len, tcr_half_len, 10.0 ** log_c)], list(peaks)


def calibrate_geometry(targets: CalibrationTargets, seed: MemoryCell) -> MemoryCell:
    """Solve the cell geometry for the calibration targets: the one-cell
    case of calibrate_cells(), with the same carry-over and errors."""
    return calibrate_cells([targets], seed)[0][0]


def _grow_bracket(fn, x0, step: float, limit: float):
    """Per element, walk outward from x0 until fn changes sign; returns (lo, hi).

    fn decreases in x, so each element walks the way the sign of fn(x0)
    points, in steps growing 1.6x.  A CalibrationError from fn (beyond a
    sensible range) ends the walk, unbracketed.
    """
    fx = fn(x0)
    x, lo, hi = x0, x0, x0  # an exact zero at x0 is its own bracket
    walking, direction, walked = fx != 0.0, np.where(fx > 0, 1.0, -1.0), 0.0
    while walking.any() and walked < limit:
        x_next = np.where(walking, x + direction * step, x)
        try:
            f_next = fn(x_next)
        except CalibrationError:
            break
        flip = walking & (((f_next > 0) != (fx > 0)) | (f_next == 0.0))
        lo = np.where(flip, np.minimum(x, x_next), lo)
        hi = np.where(flip, np.maximum(x, x_next), hi)
        x, fx = np.where(walking, x_next, x), np.where(walking, f_next, fx)
        walking &= ~flip
        walked, step = walked + step, step * 1.6
    if walking.any():
        raise CalibrationError("input capacitor: root not bracketed")
    return lo, hi
