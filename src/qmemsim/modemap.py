"""Mode map over junction inductance and the avoided-crossing fit.

mode_map() records, for every inductance on a grid, the two lowest
resonances in band as complex zeros of the cell's shunt impedance: seeded
at the upward crossings of one coarse Im Z scan of all rows, polished all
at once, and read all at once from resonance.notch_readout()'s columns,
with cumulative counts standing for a walk along each row.  Only a row
that comes up short (fewer than two kept modes, or a root that left its
bracket) is scanned again on the fine grid, where a narrow zero-pole pair
the coarse grid stepped over shows its crossing, and polished again.  The
map holds them as three columns: inductance, lower and upper mode.

fit_avoided_crossing() fits the two-branch hybridization model

    f+-(l) = (f_a(l) + f_b)/2 +- sqrt( ((f_a(l) - f_b)/2)^2 + g^2 )

with a constant bare cavity frequency f_b, a cubic bare coupler branch
f_a(l) and coupling g (linear frequency, half the minimum splitting), by
resonance.levenberg_marquardt() with an analytic Jacobian.  The crossing
f_a = f_b and the window edges f_a = f_b +- 2g are real roots of that cubic.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cell import MemoryCell, cell_shunt_impedance, sc_mode_estimate, tcr_mode_estimate
from .checks import require
from .resonance import levenberg_marquardt, notch_readout, notch_roots


@dataclass(frozen=True, eq=False)
class ModeMap:
    """Mode frequencies over a swept inductance grid, as three columns.

    l : henry, strictly increasing inductances of the resolved rows
    f1, f2 : Hz, lower and upper mode at each l, 0 < f1 < f2
    flagged : (l_j, reason) of every grid point where two resonances were
        not resolved; those points are excluded from fits

    The columns are stored as read-only float arrays.
    """

    l: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    flagged: tuple[tuple[float, str], ...] = ()

    def __post_init__(self):
        cols = [np.array(c, dtype=float) for c in (self.l, self.f1, self.f2)]
        for name, col in zip(("l", "f1", "f2"), cols):
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        l, f1, f2 = cols
        if not (l.ndim == 1 and l.shape == f1.shape == f2.shape
                and np.all(np.diff(l) > 0) and np.all((0 < f1) & (f1 < f2))):
            raise ValueError("mode map needs equal-length 1-D columns, "
                             "strictly increasing l and 0 < f1 < f2")

    @property
    def splitting(self) -> np.ndarray:
        return self.f2 - self.f1

    @property
    def rows(self) -> tuple[tuple[float, float, float], ...]:
        """(l_j, f_mode1, f_mode2) per resolved row."""
        return tuple(zip(self.l.tolist(), self.f1.tolist(), self.f2.tolist()))


def default_band(cell: MemoryCell, l_grid) -> tuple[float, float]:
    """Frequency band wide enough to hold both modes over the whole sweep."""
    f_sc = sc_mode_estimate(cell)
    f_at_max_l, f_at_min_l = tcr_mode_estimate(cell, np.array([max(l_grid), min(l_grid)]))
    return 0.90 * float(min(f_at_max_l, f_sc)), 1.10 * float(max(f_at_min_l, f_sc))


COARSE_POINTS = 201  #: band-grid points of the Im Z scan that seeds every row
SCAN_POINTS = 1601  #: band-grid points of the rescan of a row that came up short
MIN_FIT_ROWS = 8  #: fewest valid rows fit_avoided_crossing() fits: a smaller grid never fits


def mode_map(cell: MemoryCell, l_grid, min_depth_db: float = 0.01) -> ModeMap:
    """Two-mode map of the cell over a junction-inductance grid, in the
    band default_band() derives from the geometry.

    Parameters
    ----------
    l_grid : strictly increasing inductances, henry
    min_depth_db : least notch depth -dB|S21(f0)| of a kept resonance

    Every row is seeded from a COARSE_POINTS scan of the band; a row with
    fewer than two kept modes, or with a root that left its bracket, is
    rescanned at SCAN_POINTS and keeps the rescan's outcome.  Grid points
    where two dips could still not be resolved, or where a root left its
    bracket first, are flagged and excluded, never silently dropped.
    """
    l_grid = np.asarray(l_grid, dtype=float)
    if l_grid.ndim != 1 or len(l_grid) < 2:
        raise ValueError("l_grid must hold at least two inductances")
    if not (np.all(l_grid > 0) and np.all(np.diff(l_grid) > 0)):
        raise ValueError("l_grid must be positive and strictly increasing")
    if not np.isfinite(min_depth_db):
        raise ValueError("min_depth_db must be finite")
    band = default_band(cell, l_grid)

    f12, why = _scan_rows(cell, l_grid, band, COARSE_POINTS, min_depth_db)
    short = np.flatnonzero(np.isnan(f12[:, 0]))
    if len(short):
        f12[short], why = _scan_rows(cell, l_grid[short], band, SCAN_POINTS, min_depth_db)
    ok = ~np.isnan(f12[:, 0])
    return ModeMap(l_grid[ok], f12[ok, 0], f12[ok, 1],
                   flagged=tuple(zip(l_grid[~ok].tolist(), why)))


def _scan_rows(cell: MemoryCell, l_rows, band, n_scan: int, min_depth_db: float):
    """_read_rows() of the roots seeded at the upward Im Z crossings of an
    n_scan-point scan of the band, one row per inductance in l_rows."""
    f = np.linspace(band[0], band[1], n_scan)
    # at most 8 fine rows' worth of points per network call, temporaries near
    # 2 MB; only each call's crossings outlive it
    per_call = max(1, 8 * SCAN_POINTS // n_scan)
    found = []
    for first in range(0, len(l_rows), per_call):
        x = cell_shunt_impedance(cell, l_rows[first:first + per_call, None], f).imag
        row, i = np.nonzero((x[:, :-1] < 0) & (x[:, 1:] >= 0))  # row by row, f ascending
        found.append((first + row, i,
                      f[i] - x[row, i] * (f[i + 1] - f[i]) / (x[row, i + 1] - x[row, i])))
    row, i, seeds = (np.concatenate(c) for c in zip(*found))
    # scan intervals widened by half a step: disjoint brackets
    lo, hi = f[i] - 0.5 * (f[1] - f[0]), f[i + 1] + 0.5 * (f[1] - f[0])
    l_j = l_rows[row]
    f_zero, f_pole = notch_roots(lambda s: cell_shunt_impedance(cell, l_j, s), cell.z0,
                                 seeds, lo, hi)
    return _read_rows(row, seeds, f_zero, f_pole, len(l_rows), band, min_depth_db)


def _read_rows(row, seeds, f_zero, f_pole, n_rows: int, band, min_depth_db: float):
    """Each row's two lowest kept modes from its seeds' roots: an (n_rows, 2)
    array in Hz, nan in each row that came up short, and the reason (a str)
    of each such row, in row order.

    row : each seed's row, non-decreasing; a row's seeds in frequency order
    seeds, f_zero, f_pole : Hz, each seed and its roots (notch_roots())

    A row reads its seeds in order until the second kept one (f0 inside the
    band and at least min_depth_db deep) or the first whose roots left their
    bracket (nan); only the roots read are checked (NotchColumns.require()).
    All rows are read at once from notch_readout()'s columns: a seed's rank
    among its row's kept seeds, and among the seeds that stop the row, is a
    cumulative count, so no loop runs over seeds or rows.
    """
    cols = notch_readout(f_zero, f_pole)
    left = np.isnan(f_zero) | np.isnan(f_pole)
    kept = ~left & (band[0] < cols.f0) & (cols.f0 < band[1]) & (cols.depth_db >= min_depth_db)
    start = np.searchsorted(row, np.arange(n_rows))

    def rank(mask):  # count of mask over the seed's row up to and including it
        c = np.cumsum(mask)
        return c - np.concatenate([[0], c])[start[row]]

    kept_rank = rank(kept)
    stop = left | (kept & (kept_rank == 2))
    stop_rank = rank(stop)
    cols.require(~left & (stop_rank - stop == 0))  # no stop before: the row reads it
    end = stop & (stop_rank == 1)
    f12 = np.full((n_rows, 2), np.nan)
    f12[row[end & kept], 1] = cols.f0[end & kept]
    lower = kept & (kept_rank == 1) & ~np.isnan(f12[row, 1])
    f12[row[lower], 0] = cols.f0[lower]
    left_at = dict(zip(row[end & left].tolist(), seeds[end & left].tolist()))
    n_kept = np.bincount(row[kept], minlength=n_rows)
    why = [f"root seeded at {left_at[k]:.6g} Hz left its bracket" if k in left_at
           else f"{n_kept[k]} resonance(s) in band"
           for k in np.flatnonzero(np.isnan(f12[:, 0])).tolist()]
    return f12, why


# ------------------------- hybridization model -------------------------


@dataclass(frozen=True)
class CrossingFit:
    """Fitted avoided crossing.

    g : Hz, coupling strength (half the minimum splitting)
    l_cross : henry, inductance of closest approach
    f_cross : Hz, frequency at closest approach (bare-cavity branch)
    window : (henry, henry), inductances where the splitting stays within
        sqrt(2) of its minimum
    coeffs : cubic coefficients of the bare coupler branch (highest first,
        arguments in henry, values in Hz)
    residual_rms : Hz, rms misfit over both branches
    """

    g: float
    l_cross: float
    f_cross: float
    window: tuple[float, float]
    coeffs: tuple[float, float, float, float]
    residual_rms: float

    def __post_init__(self):
        require(self, "positive", "g")
        if not self.window[0] <= self.l_cross <= self.window[1]:
            raise ValueError("closest approach must lie inside the window")

    def bare_coupler(self, l_j):
        """Bare coupler-branch frequency f_a(l_j), Hz."""
        return np.polyval(self.coeffs, l_j)

    def branches(self, l_j):
        """Model hybridized branches (f_minus, f_plus) at l_j."""
        return _hybridize(self.bare_coupler(l_j), self.f_cross, self.g)


def _hybridize(fa, fb, g):
    """Branches (lower, upper) of bare modes fa and fb coupled by g."""
    mid = 0.5 * (fa + fb)
    gap = np.sqrt(0.25 * (fa - fb) ** 2 + g**2)
    return mid - gap, mid + gap


def hybridized_map(l_grid, coeffs, f_b: float, g: float) -> ModeMap:
    """Closed-form two-mode map; the oracle generator for the fit."""
    return ModeMap(l_grid, *_hybridize(np.polyval(coeffs, l_grid), f_b, g))


def fit_avoided_crossing(mode_map: ModeMap) -> CrossingFit:
    """Least-squares hybridization fit of a mode map.

    The crossing is the real root of f_a = f_b inside the grid nearest the
    row of least splitting; each window edge is the root of f_a = f_b +- 2g
    nearest the crossing, or the grid end on its side when there is none.
    Requires at least MIN_FIT_ROWS valid rows, a converged fit and a
    crossing inside the grid; otherwise raises ValueError.
    """
    if len(mode_map.l) < MIN_FIT_ROWS:
        raise ValueError(f"need at least {MIN_FIT_ROWS} valid mode-map rows to fit")
    l, f1, f2 = mode_map.l, mode_map.f1, mode_map.f2

    scale = 1e9  # condition the fit in GHz
    x = l / 1e-12  # and in pH
    fb0 = 0.5 * (f1[0] + f2[-1]) / scale
    fa0 = (f1 + f2) / scale - fb0
    coeffs0 = np.polyfit(x, fa0, 3)  # per-pH powers for conditioning
    g0 = 0.5 * np.min(f2 - f1) / scale
    v = np.vander(x, 4)  # d f_a / d coeffs

    def residuals(p):
        lo, hi = _hybridize(np.polyval(p[2:], x), p[0], p[1])
        return np.concatenate([lo - f1 / scale, hi - f2 / scale])

    def jacobian(p):  # columns d/df_b, d/dg, d/dcoeffs
        fa = np.polyval(p[2:], x)
        gap = np.sqrt(0.25 * (fa - p[0]) ** 2 + p[1] ** 2)
        s, dg = 0.25 * (fa - p[0]) / gap, p[1] / gap
        return np.concatenate([np.column_stack([0.5 + s, -dg, (0.5 - s)[:, None] * v]),
                               np.column_stack([0.5 - s, dg, (0.5 + s)[:, None] * v])])

    p0 = np.concatenate([[fb0, g0], coeffs0])
    p, r, converged = levenberg_marquardt(residuals, jacobian, p0)
    if not converged:
        raise ValueError("avoided-crossing fit did not converge")
    fb, g, coeffs_ph = p[0], abs(p[1]), p[2:]

    def root_near(level, near):
        """Real root (pH) of f_a = fb + level inside the grid nearest `near`, or None."""
        r = np.roots(coeffs_ph - [0.0, 0.0, 0.0, fb + level])
        # LAPACK returns the real eigenvalues of a real matrix with imag exactly 0
        r = r.real[(r.imag == 0) & (x[0] <= r.real) & (r.real <= x[-1])]
        return r[np.argmin(np.abs(r - near))] if len(r) else None

    x_cross = root_near(0.0, x[np.argmin(f2 - f1)])
    if x_cross is None:
        raise ValueError("crossing not bracketed")
    edges = sorted(e * 1e-12 if e is not None else end for e, end in
                   ((root_near(2.0 * g, x_cross), l[0]), (root_near(-2.0 * g, x_cross), l[-1])))
    # back to SI: polynomial in henry
    coeffs = tuple(
        float(c * scale / (1e-12 ** k)) for c, k in zip(coeffs_ph, (3, 2, 1, 0))
    )
    rms = float(np.sqrt(np.mean(r**2))) * scale
    return CrossingFit(
        g=float(g * scale),
        l_cross=float(x_cross * 1e-12),
        f_cross=float(fb * scale),
        window=(float(edges[0]), float(edges[1])),
        coeffs=coeffs,
        residual_rms=rms,
    )
