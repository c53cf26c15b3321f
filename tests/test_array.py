"""Multiplexed array: composition, addressing, crosstalk, scheduling."""
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from qmemsim import array as array_module, dynamics
from qmemsim.array import (
    AccessOp,
    AccessSchedule,
    MemoryArray,
    _cell_models,
    array_spectrum,
    build_array,
    off_resonant_bound,
    run_schedule,
)
from qmemsim.cell import OFF_BAND, frequency_sweep, spectrum
from qmemsim.config import example_config
from qmemsim.dynamics import (
    DT_FRACTION,
    TWO_PI,
    PulseSequence,
    max_stable_dt,
    read_duration,
    read_protocol,
    swap_duration,
    write_protocol,
    write_pulses,
)
from qmemsim.jjfet import OFF
from tests.conftest import ANCHOR, TARGETS, assert_piece_steps

PINNED_ARRAY = Path(__file__).resolve().parents[1] / "bench" / "data" / "array.json"


class TestBuildArray:
    def test_four_targets(self, array):
        assert len(array) == 4
        assert array.targets == TARGETS

    def test_duplicate_targets_rejected(self, template):
        with pytest.raises(ValueError, match="increasing"):
            build_array([6.55e9, 6.55e9], template)

    def test_decreasing_targets_rejected(self, template):
        with pytest.raises(ValueError, match="increasing"):
            build_array([6.65e9, 6.55e9], template)

    def test_single_target_matches_lone_cell(self, template, cell):
        single = build_array([TARGETS[0]], template, l_anchor=ANCHOR)
        grid = np.linspace(6.3e9, 6.9e9, 1501)
        _, (_, combined) = array_spectrum(single, [ANCHOR], grid)
        _, lone = frequency_sweep(cell, ANCHOR, grid)
        assert np.max(np.abs(combined - lone)) < 1e-12

    def test_unaddressable_plan_names_pair(self, template):
        with pytest.raises(ValueError, match="cells 0 and 1"):
            build_array([6.55e9, 6.5500302e9], template)


class TestArraySpectrum:
    def test_all_on_shows_doublets(self, array, array_models):
        grid = np.linspace(6.0e9, 7.1e9, 22001)
        states = [m.fit.l_cross for m in array_models]
        _, (_, s21) = array_spectrum(array, states, grid)
        from qmemsim.resonance import find_resonances

        peaks = find_resonances(grid, s21, min_depth_db=1.0)
        assert len(peaks) >= 4

    def test_all_off_floor(self, array):
        grid = np.linspace(6.4e9, 7.0e9, 3001)
        _, (_, s21) = array_spectrum(array, [OFF] * 4, grid)
        assert np.min(np.abs(s21)) >= 0.995

    def test_composition_product(self, array, array_models):
        grid = np.linspace(6.3e9, 6.8e9, 2001)
        states = [m.fit.l_cross for m in array_models]
        _, (_, combined) = array_spectrum(array, states, grid)
        product = np.ones_like(grid, dtype=complex)
        for cell_i, st in zip(array.cells, states):
            _, s = frequency_sweep(cell_i, st, grid)
            product *= s
        assert np.max(np.abs(combined - product)) == 0.0

    def test_one_on_rest_off_matches_lone_trace(self, array, array_models):
        # combined = lone trace times a near-unity background (the OFF
        # cells rotate the phase slowly but leave the magnitude intact)
        grid = np.linspace(6.2e9, 6.9e9, 3001)
        states = [array_models[0].fit.l_cross] + [OFF] * 3
        _, (_, combined) = array_spectrum(array, states, grid)
        _, lone = frequency_sweep(array.cells[0], states[0], grid)
        background = np.abs(combined) / np.clip(np.abs(lone), 1e-12, None)
        assert np.max(np.abs(background - 1.0)) < 1e-3

    def test_state_count_must_match(self, array):
        with pytest.raises(ValueError):
            array_spectrum(array, [ANCHOR], np.linspace(6e9, 7e9, 11))


@pytest.fixture(scope="module")
def seed_array():
    """The --seed-config file's array, as array-spectrum builds it."""
    cfg = example_config()
    return cfg, build_array(cfg.array_targets, cfg.cell, l_anchor=cfg.calibration.l_anchor,
                            q_c=cfg.array_q_c)


def cli_grid(band, coarse_step):
    """array-spectrum's grid: the band at a quarter of the coarse step."""
    n = int(round((band[1] - band[0]) / (coarse_step / 4.0)))
    return np.linspace(band[0], band[1], n + 1)


class TestArrayPeaks:
    def test_each_peak_is_its_cells_roots(self, seed_array):
        cfg, arr = seed_array
        sweep, anchor = cfg.sweep, cfg.calibration.l_anchor
        grid = cli_grid(sweep.band, sweep.coarse_step)
        assert len(grid) == 3201
        peaks, _ = array_spectrum(arr, [anchor] * len(arr), grid, sweep.min_depth_db)
        own = sorted((p for c in arr.cells
                      for p in spectrum(c, anchor, sweep.band, sweep.coarse_step,
                                        sweep.min_depth_db)[0]), key=lambda p: p.f0)
        assert len(peaks) == len(own) == 8
        assert all(p.q_loaded is not None and p.q_internal is not None for p in peaks)
        for p, q in zip(peaks, own):
            for key in ("f0", "q_loaded", "q_coupling", "q_internal"):
                assert getattr(p, key) == pytest.approx(getattr(q, key), rel=1e-12, abs=0)

    def test_off_lists_each_cells_split_modes(self, seed_array):
        # the product's split modes overlap; each cell's own trace still
        # shows its two, the upper one with roots at its own Q_l (45-54)
        cfg, arr = seed_array
        grid = cli_grid(OFF_BAND, cfg.sweep.coarse_step)
        peaks, _ = array_spectrum(arr, [OFF] * len(arr), grid, cfg.sweep.min_depth_db)
        rooted = [p for p in peaks if p.q_loaded is not None]
        assert len(peaks) == 8 and len(rooted) == 4
        assert all(40 < p.q_loaded < 60 for p in rooted)
        assert [p.f0 for p in peaks] == sorted(p.f0 for p in peaks)


@pytest.fixture
def evolve_calls(monkeypatch):
    """Every integration made during the test: each dynamics.evolve call,
    an addressed cell's and each idle neighbour's."""
    calls = []
    original = dynamics.evolve

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (dynamics, array_module):
        monkeypatch.setattr(module, "evolve", counted)
    return calls


@pytest.fixture
def peak_calls(monkeypatch):
    """Every coupler_peak call made during the test, by dynamics or array."""
    calls = []
    original = dynamics.coupler_peak

    def counted(traj):
        calls.append(len(traj.times))
        return original(traj)

    for module in (dynamics, array_module):
        monkeypatch.setattr(module, "coupler_peak", counted)
    return calls


class TestSchedule:
    def test_empty_schedule(self, array):
        report = run_schedule(array, AccessSchedule())
        assert report.fidelities == () and report.steps == () and report.largest_steps == ()
        np.testing.assert_array_equal(report.crosstalk, np.eye(len(array)))

    def test_write_crosstalk_within_lorentzian_bound(self, array, array_models):
        schedule = AccessSchedule(ops=(AccessOp(op="write", cell_index=0),))
        report = run_schedule(array, schedule, models=array_models)
        assert report.fidelities[0] > 0.9
        sys0 = array_models[0].system
        for j in range(1, 4):
            sys_j = array_models[j].system
            delta = abs(sys_j.omega_b - sys0.omega_b)
            bound = off_resonant_bound(sys_j.kappa_ext + sys_j.kappa_int_a, delta)
            assert report.crosstalk[0, j] <= 1.5 * bound

    def test_crosstalk_monotone_in_separation(self, array, array_models):
        schedule = AccessSchedule(ops=(AccessOp(op="write", cell_index=0),))
        report = run_schedule(array, schedule, models=array_models)
        row = report.crosstalk[0]
        assert row[1] > row[2] > row[3] > 0.0
        assert row[0] == 1.0

    def test_deterministic_reports(self, array, array_models):
        schedule = AccessSchedule(ops=(AccessOp(op="write", cell_index=1),))
        r1 = run_schedule(array, schedule, models=array_models)
        r2 = run_schedule(array, schedule, models=array_models)
        assert r1.fidelities == r2.fidelities
        assert np.array_equal(r1.crosstalk, r2.crosstalk)

    def test_read_op_recovers_stored_energy(self, array, array_models):
        schedule = AccessSchedule(ops=(AccessOp(op="read", cell_index=0),))
        report = run_schedule(array, schedule, models=array_models)
        assert report.fidelities[0] >= 0.95

    def test_carrier_off_target_rejected(self, array, array_models):
        schedule = AccessSchedule(
            ops=(AccessOp(op="write", cell_index=0, rf_carrier=6.62e9),)
        )
        with pytest.raises(ValueError, match="carrier"):
            run_schedule(array, schedule, models=array_models)

    def test_bad_cell_index_rejected(self, array):
        with pytest.raises(ValueError, match="out of range"):
            run_schedule(array, AccessSchedule(ops=(AccessOp(op="write", cell_index=9),)))

    @pytest.mark.parametrize("index", [True, 1.0, "0", None, -1])
    def test_non_integer_cell_index_rejected(self, index):
        # True is no cell 1: protocol's CSV would print it as the cell
        with pytest.raises(ValueError, match="cell_index"):
            AccessOp(op="write", cell_index=index)

    def test_overlapping_ops_rejected(self, array, array_models):
        schedule = AccessSchedule(ops=(
            AccessOp(op="write", cell_index=0, start=0.0),
            AccessOp(op="read", cell_index=0, start=0.0),
        ))
        with pytest.raises(ValueError, match="overlap"):
            run_schedule(array, schedule, models=array_models)

    def test_read_window_spans_swap_and_emission(self, array, array_models):
        # a read runs one swap duration plus 8 / kappa_ext of emission
        system = array_models[0].system
        gap = 8.0 / system.kappa_ext + 0.5 * swap_duration(system.g_on)
        schedule = AccessSchedule(ops=(
            AccessOp(op="read", cell_index=0, start=0.0),
            AccessOp(op="read", cell_index=0, start=gap),
        ))
        with pytest.raises(ValueError, match="must not overlap"):
            run_schedule(array, schedule, models=array_models)

    def test_write_window_spans_its_settle(self, array, array_models):
        # a write runs on for max(2 t_swap, 0.02 x pulse) after its pulse
        system = array_models[0].system
        pulse = 24.0 / system.kappa_ext
        settle = max(2.0 * swap_duration(system.g_on), 0.02 * pulse)
        schedule = AccessSchedule(ops=(
            AccessOp(op="write", cell_index=0, start=0.0),
            AccessOp(op="read", cell_index=0, start=pulse + 0.5 * settle),
        ))
        with pytest.raises(ValueError, match="must not overlap"):
            run_schedule(array, schedule, models=array_models)


class TestRepeatedOps:
    @staticmethod
    def spaced(*ops):
        """The ops in order, 5 us apart; every op ends within 2 us."""
        return AccessSchedule(ops=tuple(
            replace(op, start=k * 5e-6) for k, op in enumerate(ops)))

    def test_matches_each_op_run_alone(self, array, array_models):
        w0, r0, w1, w2, r2 = (AccessOp(op=kind, cell_index=i) for kind, i in (
            ("write", 0), ("read", 0), ("write", 1), ("write", 2), ("read", 2)))
        schedule = self.spaced(w0, w2, r0, w1, r2, w0, w2, r0, r2)
        report = run_schedule(array, schedule, models=array_models)
        expected = np.zeros((4, 4))
        np.fill_diagonal(expected, 1.0)
        fidelities = []
        for op in schedule.ops:
            alone = run_schedule(array, AccessSchedule(ops=(op,)), models=array_models)
            fidelities.append(alone.fidelities[0])
            i = op.cell_index
            expected[i] = np.maximum(expected[i], alone.crosstalk[i])
        assert report.fidelities == tuple(fidelities)
        assert np.array_equal(report.crosstalk, expected)

    def test_each_distinct_op_integrates_once(self, array, array_models, evolve_calls):
        # one addressed evolve plus three idle neighbours per distinct op
        w0, r0 = AccessOp(op="write", cell_index=0), AccessOp(op="read", cell_index=0)
        run_schedule(array, self.spaced(w0, r0, w0, r0), models=array_models)
        assert len(evolve_calls) == 8

    def test_each_trajectory_is_reduced_once(self, array, array_models, evolve_calls,
                                             peak_calls):
        # one coupler_peak per integration: the addressed cell's, which the
        # write's fidelity and the crosstalk row share, and each neighbour's
        w0, r0 = AccessOp(op="write", cell_index=0), AccessOp(op="read", cell_index=0)
        run_schedule(array, self.spaced(w0, r0, w0, r0), models=array_models)
        assert len(peak_calls) == len(evolve_calls) == 8

    def test_ops_differing_beyond_start_are_not_merged(self, array, array_models,
                                                       evolve_calls):
        pulse = 24.0 / array_models[0].system.kappa_ext
        run_schedule(array, self.spaced(
            AccessOp(op="write", cell_index=0, rf_duration=pulse),
            AccessOp(op="write", cell_index=0, rf_duration=0.8 * pulse),
        ), models=array_models)
        assert len(evolve_calls) == 8


#: every op kind on every cell of the four-cell array, one schedule per kind
KIND_SCHEDULES = {kind: AccessSchedule(ops=tuple(AccessOp(op=kind, cell_index=i)
                                                 for i in range(4)))
                  for kind in ("write", "read")}


@pytest.fixture(scope="module")
def reports_by_fraction(array, array_models):
    """{(kind, dt_fraction): report} of KIND_SCHEDULES, None standing for
    run_schedule's default fraction."""
    return {(kind, f): run_schedule(array, schedule, models=array_models,
                                    **({} if f is None else {"dt_fraction": f}))
            for kind, schedule in KIND_SCHEDULES.items()
            for f in (None, 0.5, 0.25, 0.0625)}


def _relative_errors(report, ref):
    """|x / x_ref - 1| of every fidelity and every off-diagonal crosstalk entry."""
    off = ~np.eye(len(ref.crosstalk), dtype=bool)
    return (np.abs(np.array(report.fidelities) / np.array(ref.fidelities) - 1.0),
            np.abs(report.crosstalk[off] / ref.crosstalk[off] - 1.0))


def _read_generator(reader, neighbour, g):
    """A of dx/dt = A x for a read's two cells, x = (a_i, b_i, a_j, b_j) in
    the reader's frame: the reader at coupling g, the neighbour at its
    gate-OFF floor and driven by the reader's emitted field."""
    def block(cell, coupling):
        kappa = cell.kappa_ext + cell.kappa_int_a
        return [[-(1j * (cell.omega_a - reader.omega_b) + 0.5 * kappa), -1j * coupling],
                [-1j * coupling, -(1j * (cell.omega_b - reader.omega_b) + 0.5 * cell.gamma_b)]]
    a = np.zeros((4, 4), dtype=complex)
    a[:2, :2] = block(reader, g)
    a[2:, 2:] = block(neighbour, neighbour.g_off)
    a[2, 0] = -math.sqrt(reader.kappa_ext * neighbour.kappa_ext)
    return a


def _exact_read_peaks(reader, neighbour, samples=20_000, fine=800):
    """max |a_i|^2 and max |a_j|^2 over a read: each piece of constant
    coupling is x(t) = expm(A (t - t_p)) x(t_p) exactly.  Each peak is the
    best of `samples` even samples per piece, refined by `fine` samples of
    the two intervals around it."""
    t_swap = swap_duration(reader.g_on)
    x = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    peaks = [0.0, 0.0]
    for (t0, t1), g in (((0.0, t_swap), reader.g_on),
                        ((t_swap, read_duration(reader)), reader.g_off)):
        a = _read_generator(reader, neighbour, g)
        h = (t1 - t0) / samples
        # blocks of 100 samples, each lifted from its block's first state
        lift = expm(a[None] * (h * np.arange(100))[:, None, None])
        jump = expm(100 * h * a)
        states = []
        for _ in range(-(-(samples + 1) // 100)):
            states.append(lift @ x)
            x = jump @ x
        states = np.concatenate(states)[:samples + 1]
        x = states[-1]
        for n, c in enumerate((0, 2)):
            k = int(np.argmax(np.abs(states[:, c]) ** 2))
            lo, hi = max(k - 1, 0), min(k + 1, samples)
            taus = np.linspace(0.0, (hi - lo) * h, fine + 1)
            near = expm(a[None] * taus[:, None, None]) @ states[lo]
            peaks[n] = max(peaks[n], float(np.max(np.abs(near[:, c]) ** 2)))
    return peaks


def _ivp_peak_and_end(system, pulses, t_end, samples=20_000):
    """max |a|^2 and the final |b|^2 of one cell from an empty start over
    (0, t_end), by scipy's DOP853 (Hairer, Norsett & Wanner, Solving ODEs
    I, sec. II.5) at rtol 1e-13 on each piece between the gate and RF
    edges.  The peak is the best of `samples` even samples of each piece's
    dense output, refined by 2000 samples of the two intervals around it."""
    rf = pulses.rf
    w_d = TWO_PI * rf.carrier
    ca = -(1j * (system.omega_a - w_d) + 0.5 * (system.kappa_ext + system.kappa_int_a))
    cb = -(1j * (system.omega_b - w_d) + 0.5 * system.gamma_b)
    root_k, centre = math.sqrt(system.kappa_ext), rf.start + 0.5 * rf.duration
    edges = {t for p in pulses.gate_pulses for t in (p.start, p.end)} | {rf.start, rf.end}
    cuts = [0.0, *sorted(t for t in edges if 0.0 < t < t_end), t_end]
    x, peak = np.zeros(2, dtype=complex), 0.0
    for t0, t1 in zip(cuts, cuts[1:]):
        mid = 0.5 * (t0 + t1)
        g = system.g_on if any(p.start <= mid < p.end for p in pulses.gate_pulses) else system.g_off
        u = root_k * rf.amplitude if rf.start <= mid < rf.end else 0.0

        def rate(t, y, g=g, u=u):
            drive = u * math.exp(-0.5 * ((t - centre) / rf.sigma) ** 2)
            return [ca * y[0] - 1j * g * y[1] + drive, -1j * g * y[0] + cb * y[1]]

        sol = solve_ivp(rate, (t0, t1), x, method="DOP853", rtol=1e-13, atol=1e-24,
                        dense_output=True)
        assert sol.success
        x = sol.y[:, -1]
        t = np.linspace(t0, t1, samples + 1)
        k = int(np.argmax(np.abs(sol.sol(t)[0]) ** 2))
        near = np.linspace(t[max(k - 1, 0)], t[min(k + 1, samples)], 2001)
        peak = max(peak, float(np.max(np.abs(sol.sol(near)[0]) ** 2)))
    return peak, float(abs(x[1]) ** 2)


@pytest.fixture(scope="module")
def pinned_array(template):
    """(array, models) of the benchmark's pinned four-cell array."""
    raw = json.loads(PINNED_ARRAY.read_text())
    cells = tuple(replace(template, **geometry) for geometry in raw["cells"])
    memory = MemoryArray(cells=cells, targets=tuple(raw["targets"]), z_ref=template.z0)
    return memory, _cell_models(memory)


@pytest.fixture(scope="module")
def exact_read_rows(array_models):
    """crosstalk[i][j] of a read on cell i from _exact_read_peaks()."""
    systems = [m.system for m in array_models]
    rows = np.eye(len(systems))
    for i, reader in enumerate(systems):
        for j, neighbour in enumerate(systems):
            if j != i:
                peak_i, peak_j = _exact_read_peaks(reader, neighbour)
                rows[i, j] = peak_j / peak_i
    return rows


class TestStepConvergence:
    # the peaks are fourth order, as RK4 is, and a read's neighbours are
    # integrated together with the reader; with a sampled max |a|^2 the
    # worst read-row entry is 3.6e-4 off at the default fraction
    @pytest.mark.parametrize("kind", KIND_SCHEDULES)
    def test_default_fraction_within_1e5_of_a_sixteenth(self, reports_by_fraction, kind):
        assert DT_FRACTION == 1.0
        fidelities, crosstalk = _relative_errors(reports_by_fraction[kind, None],
                                                 reports_by_fraction[kind, 0.0625])
        assert np.all(fidelities <= 1e-5) and np.all(crosstalk <= 1e-5)

    def test_read_row_entry_converges_at_fourth_order(self, reports_by_fraction):
        # every read-row entry: each halving of the step from the default
        # fraction cuts its error against a sixteenth of the guard 8x or more
        off = ~np.eye(4, dtype=bool)
        ref = reports_by_fraction["read", 0.0625].crosstalk[off]
        errors = [np.abs(reports_by_fraction["read", f].crosstalk[off] / ref - 1.0)
                  for f in (None, 0.5, 0.25)]
        assert np.all(errors[0] >= 8.0 * errors[1]) and np.all(errors[1] >= 8.0 * errors[2])

    @pytest.mark.parametrize("f, bound", [(None, 1e-5), (0.25, 2e-8)])
    def test_read_rows_match_the_exact_solution(self, reports_by_fraction, exact_read_rows,
                                                f, bound):
        off = ~np.eye(4, dtype=bool)
        rows = reports_by_fraction["read", f].crosstalk
        assert np.all(np.abs(rows[off] / exact_read_rows[off] - 1.0) <= bound)

    @pytest.mark.parametrize("f", [None, 0.25])
    def test_reported_steps_honour_the_guard(self, reports_by_fraction, array_models, f):
        # each piece of the addressed cell's integration, between its gate
        # and RF edges, steps at the fraction of that piece's own guard
        fraction = DT_FRACTION if f is None else f
        for kind, schedule in KIND_SCHEDULES.items():
            report = reports_by_fraction[kind, f]
            for op, steps, largest in zip(schedule.ops, report.steps, report.largest_steps):
                system = array_models[op.cell_index].system
                if kind == "write":
                    rf = array_module._write_drive(op, system)
                    result = write_protocol(system, rf, dt_fraction=fraction)
                else:
                    result = read_protocol(system, dt_fraction=fraction)
                times, pulses = result.trajectory.times, result.trajectory.pulses
                assert_piece_steps(system, pulses, times,
                                   fraction * max_stable_dt(system, pulses))
                assert steps == len(times) - 1 and largest == float(np.max(np.diff(times)))
                assert steps * largest >= array_module._op_duration(op, system)

    def test_short_write_within_1e5_of_a_sixteenth(self, pinned_array):
        # a 2 ns write: its envelope rate 1 / sigma exceeds g_on, so the
        # driven pieces step at the envelope's guard
        memory, models = pinned_array
        schedule = AccessSchedule(ops=(AccessOp(op="write", cell_index=1, rf_duration=2e-9),))
        coarse, fine = (run_schedule(memory, schedule, models=models, dt_fraction=f)
                        for f in (DT_FRACTION, 0.0625))
        assert coarse.fidelities[0] == pytest.approx(fine.fidelities[0], rel=1e-5, abs=0.0)
        off = np.arange(4) != 1
        assert np.all(np.abs(coarse.crosstalk[1, off] / fine.crosstalk[1, off] - 1.0) <= 1e-5)

    def test_write_matches_the_ivp_solution(self, array, array_models):
        # a default gaussian write on cell 0 and its row against scipy's
        # DOP853 at rtol 1e-13 (rtol 1e-12 moves them by at most 3.4e-14)
        op = AccessOp(op="write", cell_index=0)
        systems = [m.system for m in array_models]
        rf = array_module._write_drive(op, systems[0])
        pulses, t_end = write_pulses(systems[0], rf)
        peak, stored = _ivp_peak_and_end(systems[0], pulses, t_end)
        row = [_ivp_peak_and_end(s, PulseSequence(rf=rf), t_end)[0] / peak for s in systems[1:]]
        report = run_schedule(array, AccessSchedule(ops=(op,)), models=array_models)
        assert report.fidelities[0] == pytest.approx(stored / peak, rel=1e-5, abs=0.0)
        assert np.all(np.abs(report.crosstalk[0, 1:] / np.array(row) - 1.0) <= 1e-5)


class TestValidation:
    def test_array_invariants(self, cell):
        with pytest.raises(ValueError):
            MemoryArray(cells=(cell,), targets=(6.55e9, 6.65e9))
        with pytest.raises(ValueError):
            MemoryArray(cells=(cell, cell), targets=(6.65e9, 6.55e9))

    def test_op_validation(self):
        with pytest.raises(ValueError):
            AccessOp(op="erase", cell_index=0)
        with pytest.raises(ValueError):
            AccessOp(op="write", cell_index=-1)

    @pytest.mark.parametrize("field, value", [("rf_carrier", 6.5501e9), ("rf_duration", 1e-12)])
    def test_read_takes_no_rf_fields(self, field, value):
        # a read drives nothing, so either field would be parsed and ignored
        with pytest.raises(ValueError, match="a read takes no rf_carrier or rf_duration"):
            AccessOp(op="read", cell_index=0, **{field: value})
        AccessOp(op="write", cell_index=0, **{field: value})
