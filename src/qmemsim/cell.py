"""Single memory-cell network model, frequency sweeps and spectra.

The cell is a shunt branch tapped off a matched feedline:

    feedline tap -> input capacitor -> TCR half section -> JJ-FET
                 -> TCR half section -> coupling capacitor -> SC stub

The tunable coupling resonator (TCR) is a half-wave line dissected into two
equal sections by the junction; the storage cavity (SC) is a shorted
quarter-wave stub.  Transmission past the tap follows the notch formula of
:func:`qmemsim.twoport.notch_s21`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .checks import require
from .jjfet import OFF, JjFet, jj_series_impedance
from .resonance import db, find_root, local_minima, peaks_from_roots
from .twoport import (
    SHORT,
    C0,
    LineSection,
    SeriesCapacitor,
    SeriesImpedance,
    input_impedance,
    notch_s21,
)


@dataclass(frozen=True)
class MemoryCell:
    """Full parametric geometry of one memory cell.

    z0 : ohm, characteristic impedance of all line sections
    eps_eff : effective permittivity of the lines
    c_in : farad, feedline input capacitor
    tcr_half_len : m, each of the two equal TCR sections
    jj : the tunable junction element
    c_couple : farad, TCR-SC coupling capacitor
    sc_len : m, storage-cavity stub length
    line_atten : nepers/m, uniform line attenuation

    The storage-cavity stub is always shorted at its far end.  Array
    lengths and capacitances, broadcast against f, make a batch of cells.
    """

    z0: float
    eps_eff: float
    c_in: float
    tcr_half_len: float
    jj: JjFet
    c_couple: float
    sc_len: float
    line_atten: float = 0.0

    def __post_init__(self):
        require(self, "positive", "z0", "c_in", "tcr_half_len", "c_couple", "sc_len")
        require(self, "at least 1", "eps_eff")
        require(self, "non-negative", "line_atten")

    @property
    def phase_velocity(self) -> float:
        return C0 / math.sqrt(self.eps_eff)

    def line(self, length: float) -> LineSection:
        return LineSection(self.z0, self.eps_eff, length, self.line_atten)

    def lossless(self) -> "MemoryCell":
        """Copy with zero line attenuation and an ideal junction shunt."""
        return replace(self, line_atten=0.0, jj=replace(self.jj, r_sub=math.inf))


def jj_element(cell: MemoryCell, l_j) -> SeriesImpedance:
    """Junction as a series impedance element in state l_j (henry, or OFF)."""
    return SeriesImpedance(lambda f: jj_series_impedance(cell.jj, l_j, f))


def tcr_chain(cell: MemoryCell, l_j) -> list:
    """Element chain from the feedline tap up to the coupling capacitor."""
    half = cell.line(cell.tcr_half_len)
    return [
        SeriesCapacitor(cell.c_in),
        half,
        jj_element(cell, l_j),
        half,
        SeriesCapacitor(cell.c_couple),
    ]


def sc_branch_impedance(cell: MemoryCell, f):
    """Storage-cavity branch (coupling capacitor + shorted stub), ohm.

    Seen from the TCR-side coupling node.  Tapped directly on the feedline
    it is the isolated cavity branch of calibration; in series with the
    depleted coupler it closes the gate-OFF cavity loop.
    """
    return input_impedance([SeriesCapacitor(cell.c_couple), cell.line(cell.sc_len)], SHORT, f)


def cell_shunt_impedance(cell: MemoryCell, l_j, f):
    """Impedance (ohm) of the full cell branch seen from the feedline tap.

    The branch is the TCR chain followed by the SC stub, closed by a short.
    An infinite stub impedance (ideal lossless stub exactly at resonance)
    propagates through the fold's open limit.
    """
    return input_impedance(tcr_chain(cell, l_j) + [cell.line(cell.sc_len)], SHORT, f)


def frequency_sweep(cell: MemoryCell, l_j, f_grid):
    """Feedline transmission of the cell over a frequency grid.

    Parameters
    ----------
    l_j : henry, junction inductance, or OFF
    f_grid : strictly increasing array of Hz

    Returns
    -------
    (f_grid, s21) arrays; s21 is the complex notch transmission referenced
    to the cell's z0.
    """
    f_grid = np.asarray(f_grid, dtype=float)
    if f_grid.ndim != 1 or len(f_grid) == 0:
        raise ValueError("f_grid must be a non-empty 1-D array")
    if not (np.all(f_grid > 0) and np.all(np.diff(f_grid) > 0)):
        raise ValueError("f_grid must be strictly increasing and positive")
    z = cell_shunt_impedance(cell, l_j, f_grid)
    return f_grid, notch_s21(z, cell.z0)


# ------------------------- adaptive sweeps -------------------------

STAGES = 3  #: refinement stages of adaptive_sweep
REFINE = 10  #: factor each stage shrinks the local grid spacing by
OFF_BAND = (1e9, 16e9)  #: Hz, band of the gate-OFF spectrum


def band_grid(band, step):
    """The uniform grid over band (lo, hi), ends included: round(span / step)
    intervals, and never fewer than 8."""
    return np.linspace(*band, max(int(round((band[1] - band[0]) / step)), 8) + 1)


def _new_points(values, grid):
    """The distinct values, sorted, that the sorted array grid does not hold:
    np.setdiff1d(values, grid) by sort and searchsorted, without the import
    of numpy.ma that numpy's set routines make."""
    values = np.sort(values)
    fresh = grid[np.minimum(np.searchsorted(grid, values), len(grid) - 1)] != values
    fresh[1:] &= values[1:] != values[:-1]
    return values[fresh]


def adaptive_sweep(
    cell: MemoryCell,
    l_j,
    band,
    coarse_step: float = 2e6,
    detect_db: float = 0.01,
):
    """Sweep a band with staged grid refinement around detected dips.

    A coarse grid at `coarse_step` is refined STAGES times, each stage
    shrinking the local spacing by REFINE around every local minimum
    deeper than `detect_db`.  With the junction OFF, the storage cavity
    is a feature too narrow for the coarse grid: when its
    :func:`sc_mode_estimate` lies inside the band, the grid also holds
    2 kHz steps within 5 MHz of it, independent of detection.

    Each frequency is evaluated once: a stage sweeps only the points it
    adds and merges them into the grid, so s21 equals a single
    :func:`frequency_sweep` over the returned grid.

    Returns (freqs, s21) on the merged grid.
    """
    lo, hi = band
    if not 0 < lo < hi:
        raise ValueError("band must satisfy 0 < lo < hi")
    if not 0 < coarse_step < math.inf:
        raise ValueError("coarse_step must be positive and finite")
    if not math.isfinite(detect_db):
        raise ValueError("detect_db must be finite")
    grid = band_grid(band, coarse_step)
    if l_j is OFF:
        f_sc = sc_mode_estimate(cell)
        if lo < f_sc < hi:
            w = np.arange(f_sc - 5e6, f_sc + 5e6 + 1e3, 2e3)
            grid = np.sort(np.concatenate([grid, _new_points(w[(w > lo) & (w < hi)], grid)]))
    _, s21 = frequency_sweep(cell, l_j, grid)

    step = coarse_step
    for _ in range(STAGES):
        minima = local_minima(db(s21), detect_db)
        if len(minima) == 0:
            break
        step /= REFINE
        windows = []
        for i in minima:
            span = 4.0 * max(grid[min(i + 1, len(grid) - 1)] - grid[max(i - 1, 0)], step)
            windows.append(np.arange(grid[i] - span, grid[i] + span, step))
        new = np.concatenate(windows)
        new = _new_points(new[(new > lo) & (new < hi)], grid)
        if len(new):
            _, s21_new = frequency_sweep(cell, l_j, new)
            grid = np.concatenate([grid, new])
            order = np.argsort(grid, kind="stable")
            grid = grid[order]
            s21 = np.concatenate([s21, s21_new])[order]
    return grid, s21


def spectrum(cell: MemoryCell, l_j, band, coarse_step: float = 2e6,
             min_depth_db: float = 0.01):
    """(peaks, (freqs, s21)): the resonances of the dips at least
    `min_depth_db` deep on the :func:`adaptive_sweep` of band, refined around
    every dip at half the reporting depth.  Each dip takes f0 and its Q values
    from the cell branch's complex roots (:func:`peaks_from_roots`), not from
    a fit of the trace; a dip without a root keeps its parabolic f0 and no Q.
    OFF over OFF_BAND, the split-TCR modes sit near twice the ON-state TCR
    frequency, and the cavity is a narrow dip."""
    freqs, s21 = adaptive_sweep(cell, l_j, band, coarse_step, min_depth_db / 2)
    peaks = peaks_from_roots(freqs, s21, min_depth_db,
                             lambda f: cell_shunt_impedance(cell, l_j, f), cell.z0)
    return peaks, (freqs, s21)


# ------------------------- analytic mode estimates -------------------------
# Roots are refined to find_root's default 1e-9 relative tolerance.


def sc_quarterwave_frequency(cell: MemoryCell) -> float:
    """Bare quarter-wave frequency v / (4 sc_len) of the storage stub, Hz."""
    return cell.phase_velocity / (4.0 * cell.sc_len)


def sc_mode_estimate(cell: MemoryCell) -> float:
    """Series resonance of the coupling-capacitor-loaded storage stub, Hz.

    Solves z0 tan(beta l) = 1 / (omega c_couple); the root sits just below
    the bare quarter-wave frequency.
    """
    f_qw = sc_quarterwave_frequency(cell)
    a = 1.0 / (2.0 * math.pi * cell.c_couple * cell.z0 * f_qw)  # u = f/f_qw: tan(pi u/2) = a/u
    lo = (1.0 - 1e-6) * math.pi * a / (2.0 + math.pi * a)  # tan t <= 1 / (pi/2 - t)
    hi = min((1.0 + 1e-6) * math.sqrt(2.0 * a / math.pi), 1.0 - 1e-12)  # tan t >= t
    return float(f_qw * find_root(lambda u: np.tan(0.5 * math.pi * u) - a / u, lo, hi,
                                  "storage cavity estimate"))


def tcr_mode_estimate(cell: MemoryCell, l_j):
    """Half-wave mode of the junction-split TCR, ignoring end loading, Hz.

    Resonance condition for the symmetric split resonator: each open-ended
    half of length h presents -j z0 cot(beta h) at the junction, so
    omega L = 2 z0 cot(beta h).  The root is unique below the bare
    half-wave frequency v / (4 h) and decreases with growing inductance.
    An array l_j gives one estimate per entry.
    """
    l_j = np.asarray(l_j)
    if not np.all(l_j > 0):
        raise ValueError("inductance must be positive")
    f_bare = cell.phase_velocity / (4.0 * cell.tcr_half_len)
    b = math.pi * f_bare * l_j / cell.z0  # u = f / f_bare: cot(pi u / 2) = b u
    lo = (1.0 - 1e-6) * math.pi / (math.pi + 2.0 * b)  # cot t >= pi/2 - t
    hi = np.minimum((1.0 + 1e-6) * np.sqrt(2.0 / (math.pi * b)), 1.0 - 1e-12)  # cot t <= 1/t
    return f_bare * find_root(lambda u: 1.0 / np.tan(0.5 * math.pi * u) - b * u, lo, hi,
                              "coupling resonator estimate")
