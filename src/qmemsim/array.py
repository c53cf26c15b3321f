"""Frequency-multiplexed array of memory cells on one feedline.

All cells tap the same transmission line; with taps far apart compared to
a wavelength the combined transmission is the product of the individual
notch responses, so its zeros and poles are each cell's own circuit roots,
and the array's resonances are every cell's.  Random-access read/write
scheduling simulates the addressed cell's protocol while every idle cell
sees the same feedline field off-resonantly, which quantifies crosstalk.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Literal

import numpy as np

from .calibrate import CalibrationTargets, calibrate_cells
from .cell import MemoryCell, cell_shunt_impedance, frequency_sweep
from .checks import require
from .dynamics import (
    DT_FRACTION,
    TWO_PI,
    CoupledModeSystem,
    PulseSequence,
    ReadCascade,
    RfPulse,
    coupler_peak,
    evolve,
    max_stable_dt,
    read_duration,
    read_protocol,
    write_protocol,
    write_pulses,
)
from .extract import extract_coupled_mode_params, full_accumulation_inductance
from .modemap import CrossingFit, fit_avoided_crossing, mode_map
from .resonance import peaks_from_roots


@dataclass(frozen=True)
class MemoryArray:
    """Calibrated cells sharing one feedline, ordered by target frequency.

    The composition model ignores tap-to-tap standing waves.
    """

    cells: tuple[MemoryCell, ...]
    targets: tuple[float, ...]
    z_ref: float = 50.0

    def __post_init__(self):
        if len(self.cells) != len(self.targets) or not self.cells:
            raise ValueError("array needs one cell per target")
        if not all(b > a for a, b in zip(self.targets, self.targets[1:])):
            raise ValueError("target frequencies must be strictly increasing")
        require(self, "positive", "z_ref")

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def min_spacing(self) -> float:
        if len(self.targets) < 2:
            return math.inf
        return min(b - a for a, b in zip(self.targets, self.targets[1:]))


def build_array(
    targets,
    template: MemoryCell,
    l_anchor: float | None = None,
    q_c: float = 2000.0,
) -> MemoryArray:
    """Calibrate one cell per target frequency on a shared feedline.

    The anchor inductance defaults to the template junction's
    full-accumulation value.  The cells are calibrated in lockstep; the
    addressability precondition (pairwise spacing above 10 loaded
    linewidths) is verified, not assumed.
    """
    targets = tuple(float(t) for t in targets)
    if not all(b > a for a, b in zip(targets, targets[1:])):
        raise ValueError("target frequencies must be strictly increasing")
    if l_anchor is None:
        l_anchor = full_accumulation_inductance(template)

    cells, peaks = calibrate_cells(
        [CalibrationTargets(f_sc=f_t, l_anchor=l_anchor, q_c=q_c) for f_t in targets],
        template,
    )
    lw_max = max(peak.f0 / peak.q_loaded for peak in peaks)
    for i in range(len(targets) - 1):
        spacing = targets[i + 1] - targets[i]
        if spacing <= 10.0 * lw_max:
            raise ValueError(
                f"cells {i} and {i + 1} are not addressable: spacing "
                f"{spacing:.3e} Hz <= 10 x linewidth {lw_max:.3e} Hz"
            )
    return MemoryArray(cells=tuple(cells), targets=targets, z_ref=template.z0)


def array_spectrum(array: MemoryArray, all_states, f_grid, min_depth_db: float = 0.01):
    """(peaks, (f_grid, s21)): s21 is the product of the cells' notch traces;
    peaks are every cell's dips at least `min_depth_db` deep on its own trace
    (:func:`peaks_from_roots` on its branch), sorted by f0, so modes of
    different cells that overlap are listed one per cell."""
    if len(all_states) != len(array):
        raise ValueError("need one junction state per cell")
    f_grid = np.asarray(f_grid, dtype=float)
    s21 = np.ones_like(f_grid, dtype=complex)
    peaks = []
    for cell, state in zip(array.cells, all_states):
        _, s = frequency_sweep(cell, state, f_grid)
        s21 = s21 * s
        peaks += peaks_from_roots(f_grid, s, min_depth_db,
                                  partial(cell_shunt_impedance, cell, state), cell.z0)
    return sorted(peaks, key=lambda p: p.f0), (f_grid, s21)


# ------------------------- access scheduling -------------------------


@dataclass(frozen=True)
class AccessOp:
    """One random-access operation on a cell.

    rf_carrier and rf_duration set a write's drive; a read has none.
    rf_carrier defaults to the cavity frequency of the addressed cell's
    reduced model; rf_duration defaults to 24 / kappa_ext of that model.
    """

    op: Literal["write", "read"]
    cell_index: int
    start: float = 0.0
    rf_carrier: float | None = None
    rf_duration: float | None = None

    def __post_init__(self):
        if self.op not in ("write", "read"):
            raise ValueError("op must be 'write' or 'read'")
        if not isinstance(self.cell_index, int) or isinstance(self.cell_index, bool):
            raise ValueError(f"cell_index must be an integer, got {self.cell_index!r}")
        require(self, "non-negative", "cell_index")
        require(self, "finite", "start")  # a NaN start passes the overlap check
        require(self, "positive", "rf_carrier", "rf_duration")
        if self.op == "read" and (self.rf_carrier, self.rf_duration) != (None, None):
            raise ValueError("AccessOp: a read takes no rf_carrier or rf_duration")


@dataclass(frozen=True)
class AccessSchedule:
    ops: tuple[AccessOp, ...] = ()


class ScheduleError(ValueError):
    """A schedule the array cannot run: a cell out of range, a carrier off
    its cell or overlapping operations on one cell."""


@dataclass(frozen=True)
class ScheduleReport:
    """Per-operation fidelities plus the crosstalk matrix.

    crosstalk[i][j] is the peak energy deposited in cell j's coupler while
    addressing cell i, normalized to the addressed cell's own peak; the
    diagonal is 1 by normalization, so an empty schedule gives the identity.
    steps and largest_steps are each operation's RK4 step count and largest
    step (s) on its addressed cell, the step read off its sample times.
    """

    fidelities: tuple[float, ...]
    crosstalk: np.ndarray
    steps: tuple[int, ...]
    largest_steps: tuple[float, ...]


@dataclass(frozen=True)
class _CellModel:
    system: CoupledModeSystem
    fit: CrossingFit


def _cell_models(array: MemoryArray) -> list[_CellModel]:
    models = []
    for cell in array.cells:
        fit = fit_avoided_crossing(mode_map(cell, np.linspace(10e-12, 500e-12, 41)))
        system = extract_coupled_mode_params(cell, fit)
        models.append(_CellModel(system=system, fit=fit))
    return models


def _write_drive(op: AccessOp, system: CoupledModeSystem) -> tuple[RfPulse, float]:
    """A write op's RF pulse (unit amplitude: reports are energy ratios) and its gate time."""
    # slow envelope (kappa * sigma ~ 5): the addressed coupler tracks the drive
    # quasi-statically, keeping the crosstalk near the steady-state Lorentzian
    duration = op.rf_duration if op.rf_duration is not None else 24.0 / system.kappa_ext
    # the fitted crossing sits a few MHz off the bare target: drive the
    # cavity where the reduced model places it
    carrier = op.rf_carrier if op.rf_carrier is not None else system.omega_b / TWO_PI
    rf = RfPulse(carrier=carrier, amplitude=1.0, start=0.0, duration=duration,
                 sigma=duration / 5.0)
    # gate at the envelope peak: idle neighbors respond quasi-statically
    # and the addressed coupler is fully loaded when the swap fires
    return rf, 0.5 * duration


def _op_duration(op: AccessOp, system: CoupledModeSystem) -> float:
    if op.op == "write":
        return write_pulses(system, *_write_drive(op, system))[1]
    return read_duration(system)


def _validate_schedule(array: MemoryArray, schedule: AccessSchedule,
                       models: list["_CellModel"]):
    half_spacing = array.min_spacing / 2.0
    windows: dict[int, list[tuple[float, float]]] = {}
    for op in schedule.ops:
        if op.cell_index >= len(array):
            raise ScheduleError(f"cell_index {op.cell_index} out of range")
        carrier = op.rf_carrier
        if carrier is not None:
            offset = abs(carrier - array.targets[op.cell_index])
            if offset >= half_spacing:
                raise ScheduleError(
                    f"op on cell {op.cell_index}: carrier {carrier:.6e} Hz is "
                    f"{offset:.3e} Hz off target, beyond half the cell spacing"
                )
        duration = _op_duration(op, models[op.cell_index].system)
        windows.setdefault(op.cell_index, []).append((op.start, op.start + duration))
    for idx, entries in windows.items():
        entries.sort()
        for (t0, e0), (t1, _) in zip(entries, entries[1:]):
            if t1 < e0 or t1 == t0:
                raise ScheduleError(f"operations on cell {idx} must not overlap")


def _run_op(
    op: AccessOp, models: list[_CellModel], dt_fraction: float
) -> tuple[float, dict[int, float], int, float]:
    """One op's fidelity, its crosstalk ratios {j: deposit_j / deposit_i},
    and the addressed cell's step count and largest step.

    Each trajectory's peak is read once, a write's from its WriteResult.
    The ratios are empty when the addressed cell took up no energy.
    """
    i = op.cell_index
    sys_i = models[i].system

    if op.op == "write":
        rf, gate_at = _write_drive(op, sys_i)
        result = write_protocol(sys_i, rf, gate_at=gate_at, dt_fraction=dt_fraction)
        fidelity, deposit_i = result.fidelity, result.peak
        # the neighbours see the write's drive on the feedline, from empty
        pulses, b0 = PulseSequence(rf=rf), 0.0
        idle = {j: model.system for j, model in enumerate(models) if j != i}
    else:
        result = read_protocol(sys_i, dt_fraction=dt_fraction)
        fidelity, deposit_i = result.recovered_fraction, coupler_peak(result.trajectory)
        # each neighbour is integrated together with the reader that drives
        # it, from the reader's stored excitation
        pulses, b0 = result.trajectory.pulses, 1.0
        idle = {j: ReadCascade(sys_i, model.system) for j, model in enumerate(models) if j != i}

    traj = result.trajectory
    largest = float(np.max(np.diff(traj.times)))
    steps = len(traj.times) - 1
    if deposit_i <= 0.0:
        return fidelity, {}, steps, largest
    t_span = (float(traj.times[0]), float(traj.times[-1]))
    # one neighbour's trajectory at a time: each is freed once read
    ratios = {j: coupler_peak(evolve(system, pulses, t_span,
                                     dt_fraction * max_stable_dt(system, pulses), b0=b0))
              / deposit_i for j, system in idle.items()}
    return fidelity, ratios, steps, largest


def run_schedule(
    array: MemoryArray,
    schedule: AccessSchedule,
    models: list[_CellModel] | None = None,
    dt_fraction: float = DT_FRACTION,
) -> ScheduleReport:
    """Simulate every scheduled operation and accumulate crosstalk.

    Each addressed operation runs the full write or read protocol on the
    cell's reduced model; simultaneously every other cell is driven by the
    same feedline field (the input pulse for writes, the emitted field for
    reads) with its gate OFF.  Entries of the crosstalk matrix take the
    worst case over operations addressing the same cell.  Every cell
    steps each piece of its integration at dt_fraction of that piece's
    resolution guard (see dynamics.evolve).  Every op starts from an empty
    cell, so repeated ops are integrated once and share their result.
    """
    crosstalk = np.eye(len(array))
    if not schedule.ops:
        return ScheduleReport(fidelities=(), crosstalk=crosstalk, steps=(), largest_steps=())
    if models is None:
        models = _cell_models(array)
    _validate_schedule(array, schedule, models)

    # no state carries over between ops, so two ops that differ only in
    # start integrate the same trajectories; a schedule that carries state
    # must add the carried cell state to this key
    results: dict[AccessOp, tuple[float, dict[int, float], int, float]] = {}
    runs = []
    for op in schedule.ops:
        key = replace(op, start=0.0)
        if key not in results:
            results[key] = _run_op(op, models, dt_fraction)
        runs.append(results[key])
        i = op.cell_index
        for j, ratio in results[key][1].items():
            crosstalk[i, j] = max(crosstalk[i, j], ratio)

    fidelities, _, steps, largest = zip(*runs)
    return ScheduleReport(fidelities=fidelities, crosstalk=crosstalk, steps=steps,
                          largest_steps=largest)


def off_resonant_bound(kappa_tot: float, delta: float) -> float:
    """Steady-state Lorentzian filter bound (k/2)^2 / ((k/2)^2 + delta^2)."""
    half = 0.5 * kappa_tot
    return half**2 / (half**2 + delta**2)
