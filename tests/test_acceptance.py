"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.
"""
import contextlib
import math
import time

import numpy as np
import pytest

from qmemsim.array import AccessOp, AccessSchedule, array_spectrum, off_resonant_bound, run_schedule
from qmemsim.calibrate import isolated_sc_trace, sc_branch_resonance
from qmemsim.cell import OFF_BAND, frequency_sweep, spectrum
from qmemsim.dynamics import (
    TWO_PI,
    CoupledModeSystem,
    PulseSequence,
    RfPulse,
    evolve,
    max_stable_dt,
    read_protocol,
    swap_duration,
    write_protocol,
)
from qmemsim.jjfet import (
    OFF,
    critical_current_for_inductance,
    josephson_inductance,
)
from qmemsim.modemap import fit_avoided_crossing, hybridized_map, mode_map
from qmemsim.resonance import find_resonances, notch_s21_model
from qmemsim.twoport import (
    LineSection,
    SHORT,
    cascade,
    element_abcd,
    input_impedance,
    to_sparams,
)
from tests.test_twoport import random_element, reactive_element

FLUX_QUANTUM = 2.067833848e-15  # Wb, independent oracle constant


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {number} ({name}): FAIL")
        raise
    print(f"\ncriterion {number} ({name}): PASS")


def test_criterion_1_junction_inductance_numerics():
    with criterion(1, "junction inductance law"):
        expect = FLUX_QUANTUM / (2 * math.pi * 1e-6)
        got = josephson_inductance(1e-6, 0.0)
        assert abs(got - 329.11e-12) / 329.11e-12 < 1e-4
        assert got == pytest.approx(expect, rel=1e-12)
        rng = np.random.default_rng(101)
        for l_j in rng.uniform(10e-12, 500e-12, 100):
            back = josephson_inductance(critical_current_for_inductance(l_j), 0.0)
            assert abs(back - l_j) / l_j < 1e-12


def test_criterion_2_calibration_targets(array):
    with criterion(2, "four-cell calibration to band plan"):
        for cell_i, target in zip(array.cells, array.targets):
            # root-find measurement
            assert abs(sc_branch_resonance(cell_i) - target) < 1e6
            # independent oracle: notch fit of the directly tapped cavity
            grid = np.linspace(target - 30e6, target + 30e6, 12001)
            freqs, s21 = isolated_sc_trace(cell_i, grid)
            peaks = find_resonances(freqs, s21, min_depth_db=0.1)
            assert peaks, f"no cavity dip near {target/1e9} GHz"
            best = max(peaks, key=lambda p: p.depth_db)
            assert abs(best.f0 - target) < 1e6


def test_criterion_3_mode_map_and_crossing(cell):
    with criterion(3, "mode map, strong-coupling window, coupling strength"):
        start = time.perf_counter()
        mm = mode_map(cell, np.linspace(10e-12, 500e-12, 61))
        fit = fit_avoided_crossing(mm)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        assert len(mm.rows) >= 60
        splitting = mm.splitting
        i_min = int(np.argmin(splitting))
        assert 0 < i_min < len(splitting) - 1
        assert np.all(np.diff(splitting[: i_min + 1]) < 0)
        assert np.all(np.diff(splitting[i_min:]) > 0)
        lo, hi = fit.window
        assert lo < 250e-12 and hi > 175e-12
        assert 100e6 <= fit.g <= 500e6


def test_criterion_4_fit_oracles():
    with criterion(4, "crossing and notch fits against their generators"):
        rng = np.random.default_rng(2024)
        l_grid = np.linspace(10e-12, 500e-12, 41)
        for _ in range(20):
            f0 = rng.uniform(6.8e9, 7.1e9)
            slope = -rng.uniform(1.2e6, 2.5e6) / 1e-12
            quad = rng.uniform(-1e3, 1e3) / 1e-24
            cub = rng.uniform(-0.5, 0.5) / 1e-36
            coeffs = (cub, quad, slope, f0)
            f_b = float(np.polyval(coeffs, 250e-12)) - rng.uniform(-50e6, 50e6)
            g_true = rng.uniform(50e6, 500e6)
            fit = fit_avoided_crossing(hybridized_map(l_grid, coeffs, f_b, g_true))
            assert abs(fit.g - g_true) / g_true < 1e-2

        for ql in (1e3, 1e4, 1e5, 1e6):
            f0 = rng.uniform(5e9, 8e9)
            qc = ql / rng.uniform(0.4, 0.95)
            lw = f0 / ql
            freqs = np.linspace(f0 - 25 * lw, f0 + 25 * lw, 1601)
            peaks = find_resonances(freqs, notch_s21_model(freqs, f0, ql, qc))
            assert len(peaks) == 1
            assert abs(peaks[0].f0 - f0) / f0 < 1e-4
            assert abs(peaks[0].q_loaded - ql) / ql < 1e-3


def test_criterion_5_off_state_isolation(cell, cell_system, crossing):
    with criterion(5, "depleted-junction split modes and write isolation"):
        peaks, _ = spectrum(cell, OFF, OFF_BAND)
        split = [p for p in peaks if 11.5e9 <= p.f0 <= 14.5e9]
        assert len(split) == 2
        # residual coupling floor keeps a never-gated write below 1e-4
        rf = RfPulse(
            carrier=cell_system.omega_b / TWO_PI,
            amplitude=1.0,
            start=0.0,
            duration=3.0 / cell_system.kappa_ext,
        )
        result = write_protocol(cell_system, rf, engage_gate=False)
        assert result.fidelity <= 1e-4


def test_criterion_6_swap_dynamics():
    with criterion(6, "resonant exchange against the analytic solution"):
        g = TWO_PI * 300e6
        system = CoupledModeSystem(
            omega_a=TWO_PI * 6.55e9, omega_b=TWO_PI * 6.55e9, kappa_ext=0.0,
            g_on=g, g_off=g,
        )
        idle = PulseSequence()
        guard = max_stable_dt(system, idle)
        dt = 0.5 * guard  # satisfies the resolution guard
        t_swap = swap_duration(g)
        assert t_swap == pytest.approx(0.8333e-9, rel=1e-3)
        traj = evolve(system, idle, (0.0, 2.5 * t_swap), dt, a0=1.0)
        assert np.max(np.abs(traj.e_b - np.sin(g * traj.times) ** 2)) < 1e-6

        full = evolve(system, idle, (0.0, t_swap), 0.25 * guard, a0=1.0)
        assert full.e_b[-1] >= 0.999

        errs = []
        for step in (guard / 2, guard / 4):
            t = evolve(system, idle, (0.0, t_swap), step, a0=1.0)
            errs.append(np.max(np.abs(t.e_b - np.sin(g * t.times) ** 2)))
        order = math.log2(errs[0] / errs[1])
        assert 3.5 <= order <= 4.5

        slow = CoupledModeSystem(
            omega_a=TWO_PI * 6.55e9, omega_b=TWO_PI * 6.55e9, kappa_ext=0.0,
            g_on=TWO_PI * 50e6, g_off=TWO_PI * 50e6,
        )
        dt = 0.04e-9
        traj = evolve(slow, idle, (0.0, 1e4 * dt), dt,
                      a0=1 / math.sqrt(2), b0=1j / math.sqrt(2))
        total = traj.e_a + traj.e_b
        assert np.max(np.abs(total - total[0])) < 1e-9


def test_criterion_7_write_read_protocols():
    with criterion(7, "end-to-end write and read"):
        # kappa_ext * t_swap/2 ~ 0.008: the port coupling is strong enough
        # to load and emit quickly yet loses < 1% during the swap itself
        w0 = TWO_PI * 6.55e9
        system = CoupledModeSystem(
            omega_a=w0, omega_b=w0, kappa_ext=TWO_PI * 3e6, g_on=TWO_PI * 300e6
        )
        rf = RfPulse(carrier=w0 / TWO_PI, amplitude=1.0, start=0.0,
                     duration=3.0 / system.kappa_ext)
        first = write_protocol(system, rf)
        second = write_protocol(system, rf)
        assert first.fidelity >= 0.99
        assert first.fidelity == second.fidelity
        assert np.array_equal(first.trajectory.b, second.trajectory.b)

        read1 = read_protocol(system)
        read2 = read_protocol(system)
        assert first.fidelity * read1.recovered_fraction >= 0.95
        assert read1.recovered_fraction == read2.recovered_fraction
        # the emitted field of an undriven read, a_out = -sqrt(kappa_ext) a
        emitted = [-math.sqrt(system.kappa_ext) * r.trajectory.a for r in (read1, read2)]
        assert np.array_equal(*emitted)


def test_criterion_8_array_spectrum_and_crosstalk(array, array_models):
    with criterion(8, "multiplexed array spectrum and crosstalk"):
        grid = np.linspace(6.0e9, 7.1e9, 22001)
        states = [m.fit.l_cross for m in array_models]
        _, (_, composed) = array_spectrum(array, states, grid)
        composed_peaks = find_resonances(grid, composed, min_depth_db=1.0)
        assert len(composed_peaks) >= 4
        # every composed dip within +-5 MHz of the owning cell's own dips
        reference = []
        for cell_i, st in zip(array.cells, states):
            _, lone = frequency_sweep(cell_i, st, grid)
            reference += [p.f0 for p in find_resonances(grid, lone, min_depth_db=1.0)]
        reference.sort()
        assert len(composed_peaks) == len(reference)
        for peak, ref in zip(composed_peaks, reference):
            assert abs(peak.f0 - ref) <= 5e6

        schedule = AccessSchedule(ops=(AccessOp(op="write", cell_index=0),))
        report = run_schedule(array, schedule, models=array_models)
        sys0 = array_models[0].system
        for j in range(1, len(array)):
            sys_j = array_models[j].system
            delta = abs(sys_j.omega_b - sys0.omega_b)
            bound = off_resonant_bound(sys_j.kappa_ext + sys_j.kappa_int_a, delta)
            assert report.crosstalk[0, j] <= 1.5 * bound


def test_criterion_9_two_port_property_suite():
    with criterion(9, "two-port algebra properties"):
        rng = np.random.default_rng(909)
        for _ in range(1000):
            f = 10 ** rng.uniform(9.0, 10.2)
            tps = [element_abcd(random_element(rng)[0], f)
                   for _ in range(rng.integers(1, 4))]
            assert cascade(tps).determinant == pytest.approx(1.0, rel=1e-12, abs=1e-12)

        for _ in range(1000):
            e, f = reactive_element(rng)
            sp = to_sparams(element_abcd(e, f), 50.0)
            assert abs(sp.s11) ** 2 + abs(sp.s21) ** 2 == pytest.approx(1.0, abs=1e-9)

        for _ in range(1000):
            f = 10 ** rng.uniform(9.0, 10.2)
            tps = [element_abcd(random_element(rng)[0], f) for _ in range(3)]
            left = cascade([cascade(tps[:2]), tps[2]])
            right = cascade([tps[0], cascade(tps[1:])])
            for name in "abcd":
                assert getattr(left, name) == pytest.approx(
                    getattr(right, name), rel=1e-12, abs=1e-15
                )

        for _ in range(60):
            z0 = rng.uniform(20, 120)
            line = LineSection(z0=z0, eps_eff=rng.uniform(2, 12),
                               length=rng.uniform(1e-3, 8e-3))
            f_pole = line.phase_velocity() / (4.0 * line.length)
            for df in (-1e3, 1e3):
                assert abs(input_impedance([line], SHORT, f_pole + df)) > 1e6 * z0
