"""Single memory-cell network model and frequency sweeps.

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
from scipy.optimize import brentq

from .jjfet import JjFet, JjState, Off, jj_series_impedance
from .resonance import db, find_resonances, local_minima
from .twoport import (
    SHORT,
    C0,
    LineSection,
    Load,
    SeriesCapacitor,
    SeriesImpedance,
    chain_abcd,
    notch_s21,
    terminate,
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

    The storage-cavity stub is always shorted at its far end.
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
        if self.z0 <= 0 or self.eps_eff < 1:
            raise ValueError("cell requires z0 > 0 and eps_eff >= 1")
        if min(self.c_in, self.tcr_half_len, self.c_couple, self.sc_len) <= 0:
            raise ValueError("cell lengths and capacitances must be positive")
        if self.line_atten < 0:
            raise ValueError("line attenuation must be non-negative")

    @property
    def phase_velocity(self) -> float:
        return C0 / math.sqrt(self.eps_eff)

    def line(self, length: float) -> LineSection:
        return LineSection(self.z0, self.eps_eff, length, self.line_atten)

    def lossless(self) -> "MemoryCell":
        """Copy with zero line attenuation and an ideal junction shunt."""
        return replace(self, line_atten=0.0, jj=replace(self.jj, r_sub=math.inf))


def jj_element(cell: MemoryCell, state: JjState) -> SeriesImpedance:
    """Junction as a series impedance element in the chosen state."""
    jj = cell.jj
    return SeriesImpedance(
        lambda f: jj_series_impedance(state, jj.c_j, jj.r_sub, f)
    )


def tcr_chain(cell: MemoryCell, state: JjState) -> list:
    """Element chain from the feedline tap up to the coupling capacitor."""
    half = cell.line(cell.tcr_half_len)
    return [
        SeriesCapacitor(cell.c_in),
        half,
        jj_element(cell, state),
        half,
        SeriesCapacitor(cell.c_couple),
    ]


def sc_stub_impedance(cell: MemoryCell, f):
    """Input impedance of the shorted storage-cavity stub at f (Hz)."""
    return terminate(chain_abcd([cell.line(cell.sc_len)], f), SHORT)


def sc_branch_impedance(cell: MemoryCell, f):
    """Storage-cavity branch (coupling capacitor + shorted stub), ohm.

    Seen from the TCR-side coupling node.  Tapped directly on the feedline
    it is the isolated cavity branch of calibration; in series with the
    depleted coupler it closes the gate-OFF cavity loop.
    """
    chain = [SeriesCapacitor(cell.c_couple), cell.line(cell.sc_len)]
    return terminate(chain_abcd(chain, f), SHORT)


def cell_shunt_impedance(cell: MemoryCell, state: JjState, f):
    """Impedance (ohm) of the full cell branch seen from the feedline tap.

    The branch is the TCR chain terminated by the SC stub input impedance.
    An infinite stub impedance (ideal lossless stub exactly at resonance)
    propagates through the analytic open-termination limit.
    """
    stub = sc_stub_impedance(cell, f)
    return terminate(chain_abcd(tcr_chain(cell, state), f), Load(stub))


def frequency_sweep(cell: MemoryCell, state: JjState, f_grid):
    """Feedline transmission of the cell over a frequency grid.

    Parameters
    ----------
    f_grid : strictly increasing array of Hz

    Returns
    -------
    (f_grid, s21) arrays; s21 is the complex notch transmission referenced
    to the cell's z0.
    """
    f_grid = np.asarray(f_grid, dtype=float)
    if f_grid.ndim != 1 or len(f_grid) == 0:
        raise ValueError("f_grid must be a non-empty 1-D array")
    if np.any(f_grid <= 0) or np.any(np.diff(f_grid) <= 0):
        raise ValueError("f_grid must be strictly increasing and positive")
    z = cell_shunt_impedance(cell, state, f_grid)
    return f_grid, notch_s21(z, cell.z0)


# ------------------------- adaptive sweeps -------------------------


def adaptive_sweep(
    cell: MemoryCell,
    state: JjState,
    band,
    coarse_step: float = 2e6,
    stages: int = 3,
    refine: int = 10,
    detect_db: float = 0.01,
    focus=(),
):
    """Sweep a band with staged grid refinement around detected dips.

    A coarse grid at `coarse_step` is refined `stages` times, each stage
    shrinking the local spacing by `refine` around every local minimum
    deeper than `detect_db`.  `focus` entries (f_center, half_width, step)
    force dense windows independent of detection, for features too narrow
    for the coarse grid.

    Each frequency is evaluated once: a stage sweeps only the points it
    adds and merges them into the grid, so s21 equals a single
    :func:`frequency_sweep` over the returned grid.

    Returns (freqs, s21) on the merged grid.
    """
    lo, hi = band
    if not 0 < lo < hi:
        raise ValueError("band must satisfy 0 < lo < hi")
    n = max(int(round((hi - lo) / coarse_step)), 8)
    grid = np.linspace(lo, hi, n + 1)
    for f_c, half, step in focus:
        w = np.arange(f_c - half, f_c + half + step / 2, step)
        grid = np.union1d(grid, w[(w > lo) & (w < hi)])
    _, s21 = frequency_sweep(cell, state, grid)

    step_now = coarse_step
    for _ in range(stages):
        minima = local_minima(db(s21), detect_db)
        if len(minima) == 0:
            break
        step_next = step_now / refine
        windows = []
        for i in minima:
            span = 4.0 * max(
                grid[min(i + 1, len(grid) - 1)] - grid[max(i - 1, 0)], step_next
            )
            windows.append(np.arange(grid[i] - span, grid[i] + span, step_next))
        new = np.concatenate(windows)
        new = np.setdiff1d(new[(new > lo) & (new < hi)], grid)
        if len(new):
            _, s21_new = frequency_sweep(cell, state, new)
            grid = np.concatenate([grid, new])
            order = np.argsort(grid, kind="stable")
            grid = grid[order]
            s21 = np.concatenate([s21, s21_new])[order]
        step_now = step_next
    return grid, s21


# ------------------------- analytic mode estimates -------------------------
# Roots are refined to 1e-9 relative; xtol=1e-300 switches off brentq's
# absolute tolerance, which would swamp it.


def sc_quarterwave_frequency(cell: MemoryCell) -> float:
    """Bare quarter-wave frequency v / (4 sc_len) of the storage stub, Hz."""
    return cell.phase_velocity / (4.0 * cell.sc_len)


def sc_mode_estimate(cell: MemoryCell) -> float:
    """Series resonance of the coupling-capacitor-loaded storage stub, Hz.

    Solves z0 tan(beta l) = 1 / (omega c_couple); the root sits just below
    the bare quarter-wave frequency.
    """
    f_qw = sc_quarterwave_frequency(cell)
    beta = 2.0 * math.pi * math.sqrt(cell.eps_eff) / C0

    def g(f):
        return cell.z0 * math.tan(beta * f * cell.sc_len) - 1.0 / (
            2.0 * math.pi * f * cell.c_couple
        )

    return brentq(g, 1e-3 * f_qw, f_qw * (1.0 - 1e-12), xtol=1e-300, rtol=1e-9)


def tcr_mode_estimate(cell: MemoryCell, l_j: float) -> float:
    """Half-wave mode of the junction-split TCR, ignoring end loading, Hz.

    Resonance condition for the symmetric split resonator: each open-ended
    half of length h presents -j z0 cot(beta h) at the junction, so
    omega L = 2 z0 cot(beta h).  The root is unique below the bare
    half-wave frequency v / (4 h) and decreases with growing inductance.
    """
    if l_j <= 0:
        raise ValueError("inductance must be positive")
    h = cell.tcr_half_len
    f_bare = cell.phase_velocity / (4.0 * h)
    beta = 2.0 * math.pi * math.sqrt(cell.eps_eff) / C0

    def g(f):
        return 2.0 * cell.z0 / math.tan(beta * f * h) - 2.0 * math.pi * f * l_j

    return brentq(g, 1e-3 * f_bare, f_bare * (1.0 - 1e-12), xtol=1e-300, rtol=1e-9)


def off_split_mode_estimates(cell: MemoryCell) -> tuple[float, float]:
    """Half-wave frequencies of the two TCR sections in the OFF state, Hz.

    With the junction resistive, each section behaves as a shorter
    open-open half-wave cavity near v / (2 h); end-capacitor loading pulls
    the section facing the coupling capacitor further down.  These are
    coarse window centers for the OFF-state spectrum, not fit results.
    """
    h = cell.tcr_half_len
    v = cell.phase_velocity
    f_bare = v / (2.0 * h)
    beta_at = 2.0 * math.pi * math.sqrt(cell.eps_eff) / C0

    def loaded(c_end):
        # end capacitor adds an electrical length atan(z0 / |Z_c|)
        def g(f):
            phi = math.atan(cell.z0 * 2.0 * math.pi * f * c_end)
            return beta_at * f * h + phi - math.pi

        return brentq(g, 0.3 * f_bare, 1.05 * f_bare, xtol=1e-300, rtol=1e-9)

    return loaded(cell.c_couple), loaded(cell.c_in)


def off_state_spectrum(cell: MemoryCell, band=(1e9, 16e9), min_depth_db: float = 0.01):
    """Resonances of the cell with the junction fully depleted.

    Sweeps the band with the junction as Off(r_off); the split-TCR modes
    appear near twice the ON-state TCR frequency, and the storage cavity
    survives as a strongly undercoupled narrow feature that needs a
    focused window to resolve.

    Returns (peaks, (freqs, s21)).
    """
    state = Off(cell.jj.r_off)
    focus = []
    f_sc = sc_mode_estimate(cell)
    if band[0] < f_sc < band[1]:
        focus.append((f_sc, 5e6, 2e3))
    freqs, s21 = adaptive_sweep(
        cell, state, band, detect_db=min_depth_db / 2, focus=focus
    )
    peaks = find_resonances(freqs, s21, min_depth_db=min_depth_db)
    return peaks, (freqs, s21)
