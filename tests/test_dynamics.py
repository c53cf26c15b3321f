"""Two-mode dynamics: analytic checks, protocols, integrator quality."""
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qmemsim
from qmemsim import dynamics
from qmemsim.dynamics import (
    TWO_PI,
    CoupledModeSystem,
    GatePulse,
    PulseSequence,
    ReadCascade,
    RfPulse,
    _CHUNK_STEPS,
    _frame_carrier,
    _hermite_cubic,
    coupler_peak,
    coupler_slopes,
    evolve,
    max_stable_dt,
    read_protocol,
    swap_duration,
    write_protocol,
)
from tests.conftest import assert_piece_steps

W0 = TWO_PI * 6.55e9


def rabi_system(g_hz, **kw):
    g = TWO_PI * g_hz
    kw.setdefault("kappa_ext", 0.0)
    return CoupledModeSystem(
        omega_a=W0, omega_b=W0, g_on=g, g_off=g, **kw,
    )


IDLE = PulseSequence()


class TestSwapDuration:
    def test_reference_value(self):
        assert swap_duration(TWO_PI * 300e6) == pytest.approx(1.0 / (4 * 300e6), rel=1e-12)
        assert swap_duration(TWO_PI * 300e6) == pytest.approx(0.8333e-9, rel=1e-3)

    def test_inverse_proportionality(self):
        assert swap_duration(2 * TWO_PI * 300e6) == pytest.approx(
            0.5 * swap_duration(TWO_PI * 300e6), rel=1e-12
        )

    def test_domain_error(self):
        with pytest.raises(ValueError):
            swap_duration(0.0)


class TestRabi:
    def test_decoupled_amplitude_constant(self):
        sys_ = CoupledModeSystem(
            omega_a=W0, omega_b=W0, kappa_ext=0.0, g_off=0.0,
        )
        traj = evolve(sys_, IDLE, (0.0, 50e-9), 0.05e-9, a0=1.0)
        assert np.max(np.abs(np.abs(traj.a) - 1.0)) < 1e-9

    def test_matches_analytic_exchange(self):
        sys_ = rabi_system(300e6)
        g = sys_.g_on
        dt = 0.5 * max_stable_dt(sys_, IDLE)
        traj = evolve(sys_, IDLE, (0.0, 2.5 * swap_duration(g)), dt, a0=1.0)
        expect = np.sin(g * traj.times) ** 2
        assert np.max(np.abs(traj.e_b - expect)) < 1e-6

    def test_full_transfer_at_swap_time(self):
        sys_ = rabi_system(300e6)
        t_swap = swap_duration(sys_.g_on)
        dt = 0.25 * max_stable_dt(sys_, IDLE)
        traj = evolve(sys_, IDLE, (0.0, t_swap), dt, a0=1.0)
        assert traj.e_b[-1] >= 0.999

    def test_fourth_order_convergence(self):
        sys_ = rabi_system(300e6)
        g = sys_.g_on
        guard = max_stable_dt(sys_, IDLE)
        errs = []
        for dt in (guard / 2, guard / 4):
            traj = evolve(sys_, IDLE, (0.0, swap_duration(g)), dt, a0=1.0)
            errs.append(np.max(np.abs(traj.e_b - np.sin(g * traj.times) ** 2)))
        order = math.log2(errs[0] / errs[1])
        assert 3.5 <= order <= 4.5

    def test_gated_exchange_converges(self):
        # gate edges inside steps of the ungated grid: the exchange runs for
        # exactly the gate's duration, so RK4 keeps its fourth order
        sys_ = CoupledModeSystem(omega_a=W0, omega_b=W0, kappa_ext=0.0, g_on=TWO_PI * 300e6)
        t_swap = swap_duration(sys_.g_on)
        gate = GatePulse(start=0.3137 * t_swap, duration=0.5 * t_swap)
        pulses = PulseSequence(gate_pulses=(gate,))
        guard = max_stable_dt(sys_, pulses)
        errs = []
        for dt in (guard / 2, guard / 4):
            traj = evolve(sys_, pulses, (0.0, 1.5 * t_swap), dt, a0=1.0)
            theta = sys_.g_on * (np.clip(traj.times, gate.start, gate.end) - gate.start)
            errs.append(max(np.max(np.abs(traj.a - np.cos(theta))),
                            np.max(np.abs(traj.b + 1j * np.sin(theta)))))
        assert errs[1] <= 1e-8
        assert math.log2(errs[0] / errs[1]) >= 3.5

    def test_energy_conservation_ten_thousand_steps(self):
        sys_ = rabi_system(50e6)
        dt = 0.04e-9
        traj = evolve(sys_, IDLE, (0.0, 1e4 * dt), dt, a0=1 / math.sqrt(2), b0=1j / math.sqrt(2))
        total = traj.e_a + traj.e_b
        assert np.max(np.abs(total - total[0])) < 1e-9

    def test_detuning_suppression(self):
        g = TWO_PI * 100e6
        delta = 10.0 * g
        sys_ = CoupledModeSystem(
            omega_a=W0, omega_b=W0 + delta, kappa_ext=0.0, g_on=g, g_off=g,
        )
        dt = 0.25 * max_stable_dt(sys_, IDLE)
        traj = evolve(sys_, IDLE, (0.0, 30 * swap_duration(g)), dt, a0=1.0)
        bound = g**2 / (g**2 + (delta / 2) ** 2)
        assert np.max(traj.e_b) <= bound * 1.05


class TestIntegratorContract:
    def test_resolution_guard_enforced(self):
        sys_ = rabi_system(300e6)
        guard = max_stable_dt(sys_, IDLE)
        with pytest.raises(ValueError, match="resolution guard"):
            evolve(sys_, IDLE, (0.0, 1e-9), 2.0 * guard, a0=1.0)

    def test_span_must_cover_pulses(self):
        sys_ = CoupledModeSystem(omega_a=W0, omega_b=W0, kappa_ext=TWO_PI * 1e6, g_on=TWO_PI * 100e6)
        rf = RfPulse(carrier=6.55e9, amplitude=1.0, start=0.0, duration=100e-9)
        with pytest.raises(ValueError, match="cover"):
            evolve(sys_, PulseSequence(rf=rf), (0.0, 50e-9), 1e-12)

    def test_linearity_is_exact_for_power_of_two_scaling(self):
        sys_ = CoupledModeSystem(
            omega_a=W0, omega_b=W0 + TWO_PI * 2e6, kappa_ext=TWO_PI * 1e6,
            kappa_int_a=TWO_PI * 0.1e6, gamma_b=TWO_PI * 0.05e6,
            g_on=TWO_PI * 20e6, g_off=1e3,
        )
        pulses = PulseSequence(
            rf=RfPulse(carrier=6.55e9, amplitude=1.0, start=0.0, duration=200e-9),
            gate_pulses=(GatePulse(start=200e-9, duration=12.5e-9),),
        )
        dt = 0.25 * max_stable_dt(sys_, pulses)
        base = evolve(sys_, pulses, (0.0, 250e-9), dt)
        scaled = evolve(
            sys_,
            PulseSequence(
                rf=RfPulse(carrier=6.55e9, amplitude=4.0, start=0.0, duration=200e-9),
                gate_pulses=pulses.gate_pulses,
            ),
            (0.0, 250e-9),
            dt,
        )
        assert np.array_equal(scaled.a, 4.0 * base.a)
        assert np.array_equal(scaled.b, 4.0 * base.b)
        assert np.array_equal(scaled.e_b, 16.0 * base.e_b)

    def test_determinism(self):
        sys_ = rabi_system(250e6, kappa_ext=TWO_PI * 1e6)
        dt = 0.25 * max_stable_dt(sys_, IDLE)
        t1 = evolve(sys_, IDLE, (0.0, 10e-9), dt, a0=1.0)
        t2 = evolve(sys_, IDLE, (0.0, 10e-9), dt, a0=1.0)
        assert np.array_equal(t1.a, t2.a)
        assert np.array_equal(t1.b, t2.b)

    def test_non_finite_state_raises(self):
        sys_ = CoupledModeSystem(omega_a=W0, omega_b=W0, kappa_ext=TWO_PI * 1e6,
                                 g_on=TWO_PI * 100e6, g_off=1e3)
        # the gate cuts the span into three pieces, at g_off, g_on and
        # g_off: the NaN carries through each of them
        pulses = PulseSequence(gate_pulses=(GatePulse(start=5e-9, duration=5e-9),))
        dt = 0.25 * max_stable_dt(sys_, pulses)
        with pytest.raises(ArithmeticError, match="diverged"):
            evolve(sys_, pulses, (0.0, 20e-9), dt, a0=complex("nan"))


def _half_grid(t_span, dt):
    """evolve's sample times on an ungated span: every step's start,
    midpoint and end."""
    t0, t1 = t_span
    n_steps = max(int(math.ceil((t1 - t0) / dt - 1e-9)), 1)
    return t0 + 0.5 * ((t1 - t0) / n_steps) * np.arange(2 * n_steps + 1)


def _rk4_increment(x, h, gen, f):
    """Change of the state x over one classical RK4 step of dx/dt = A x +
    B a_in(t), gen holding the terms of [A | B], each row as its (column,
    coefficient) terms in column order, column W being the drive; f holds
    a_in at the step's start, midpoint and end."""
    def rate(y, u):
        # Python numbers, summed term by term in column order
        y = [*y, u]
        return [sum([c * y[j] for j, c in row]) for row in gen]

    f0, f1, f2 = f
    k1 = rate(x, f0)
    k2 = rate([v + 0.5 * h * k for v, k in zip(x, k1)], f1)
    k3 = rate([v + 0.5 * h * k for v, k in zip(x, k2)], f1)
    k4 = rate([v + h * k for v, k in zip(x, k3)], f2)
    return [(h / 6.0) * (p + 2.0 * q + 2.0 * r + s) for p, q, r, s in zip(k1, k2, k3, k4)]


def _cells(system):
    return (system.reader, system.neighbour) if isinstance(system, ReadCascade) else (system,)


def _terms(system, w_d, g):
    """The terms of [A | B] as _rk4_increment takes them, written out from
    the model's equations in the frame w_d: for one cell

        da/dt = ca a - i g b + sqrt(k_ext) a_in,   db/dt = -i g a + cb b,

    and for a ReadCascade the neighbour's (a', b') after the reader's (a,
    b), coupled at its g_off floor, its coupler also taking the reader's
    emitted field -sqrt(k_ext) a at its own sqrt(k_ext')."""
    cells = _cells(system)
    width = 2 * len(cells)
    gen = []
    for k, cell in enumerate(cells):
        coupling = g if k == 0 else cell.g_off
        ca = -(1j * (cell.omega_a - w_d) + 0.5 * (cell.kappa_ext + cell.kappa_int_a))
        cb = -(1j * (cell.omega_b - w_d) + 0.5 * cell.gamma_b)
        emitted = [(0, -math.sqrt(cells[0].kappa_ext * cell.kappa_ext))] if k else []
        gen.append(emitted + [(2 * k, ca), (2 * k + 1, -1j * coupling),
                              (width, math.sqrt(cell.kappa_ext))])
        gen.append([(2 * k, -1j * coupling), (2 * k + 1, cb)])
    return gen


def _evolve_loop(system, pulses, t_span, dt, times, a0=0.0, b0=0.0):
    """One _rk4_increment per step over the step grid `times` of an evolve
    call, with g and the drive from the pulses at each step's midpoint:
    the reference for the piecewise scan in evolve, for one cell or a
    ReadCascade.  Checks the grid first: it spans t_span, and its pieces
    follow the piece rule (assert_piece_steps)."""
    t0, t1 = t_span
    assert times[0] == t0 and times[-1] == t1
    assert_piece_steps(system, pulses, times, dt)
    steps = np.diff(times)
    mids = 0.5 * (times[:-1] + times[1:])
    # the first cell's coupling is g_on inside a gate pulse and the g_off
    # floor outside
    gated = _cells(system)[0]
    gs = [gated.g_on if any(p.start <= m < p.end for p in pulses.gate_pulses)
          else gated.g_off for m in mids.tolist()]
    samples = np.stack([times[:-1], mids, times[1:]], axis=1)
    rf = pulses.rf
    # a step inside the pulse takes the drive from inside it at all three
    # samples, the pulse's edges included
    fs = (np.zeros(samples.shape, dtype=complex) if rf is None
          else rf.envelope(samples) * ((rf.start <= mids) & (mids < rf.end))[:, None]).tolist()
    w_d = _frame_carrier(system, pulses)
    x = [complex(a0), complex(b0)] + [0j] * (2 * len(_cells(system)) - 2)
    out = np.empty((len(times), len(x)), dtype=complex)
    out[0] = x
    for n, (h, g, f) in enumerate(zip(steps.tolist(), gs, fs)):
        x = [v + d for v, d in zip(x, _rk4_increment(x, h, _terms(system, w_d, g), f))]
        out[n + 1] = x
    return out


def _assert_matches_loop(system, pulses, t_span, dt, a0=0.0, b0=0.0):
    """evolve matches the step loop within 1e-12 of each cell's peak."""
    traj = evolve(system, pulses, t_span, dt, a0=a0, b0=b0)
    ref = _evolve_loop(system, pulses, t_span, dt, traj.times, a0=a0, b0=b0)
    assert traj.x.shape == ref.shape
    for c in range(0, ref.shape[1], 2):
        peak = np.max(np.abs(ref[:, c:c + 2]))
        assert np.max(np.abs(traj.x[:, c:c + 2] - ref[:, c:c + 2])) <= 1e-12 * peak
    return traj


RATE = TWO_PI * 100e6  # scale of every rate the strategy draws


@st.composite
def driven_systems(draw):
    """(system, pulses, t_span, dt, a0, b0) with gate edges, the drives
    evolve accepts and at most 4000 steps."""
    g_on = RATE * draw(st.floats(0.05, 1.0))
    g_off = draw(st.sampled_from([0.0, 1e-4 * g_on, g_on]))
    system = CoupledModeSystem(
        omega_a=W0 + RATE * draw(st.floats(-1.0, 1.0)),
        omega_b=W0 + RATE * draw(st.floats(-1.0, 1.0)),
        kappa_ext=RATE * draw(st.sampled_from([0.0, 0.01, 0.3, 1.0])),
        kappa_int_a=RATE * draw(st.sampled_from([0.0, 0.02])),
        gamma_b=RATE * draw(st.sampled_from([0.0, 0.01])),
        g_on=g_on,
        g_off=g_off,
    )
    unit = TWO_PI / RATE  # one period of the base rate
    t_end = unit * draw(st.floats(0.5, 12.0))
    gates = []
    t = 0.0
    for _ in range(draw(st.integers(0, 2))):
        start = t + draw(st.floats(0.0, 0.3)) * t_end
        duration = draw(st.floats(0.02, 0.3)) * t_end
        if start + duration > t_end:
            break
        gates.append(GatePulse(start=start, duration=duration))
        t = start + duration
    kind = draw(st.sampled_from(["none", "rect", "gauss"]))
    carrier = W0 / TWO_PI
    if kind == "none":
        rf = None
    else:
        duration = draw(st.floats(0.1, 1.0)) * t_end
        sigma = math.inf if kind == "rect" else duration / 5.0
        rf = RfPulse(carrier=carrier, amplitude=1e4, start=0.0, duration=duration, sigma=sigma)
    pulses = PulseSequence(rf=rf, gate_pulses=tuple(gates))
    guard = max_stable_dt(system, pulses)
    dt = max(guard * draw(st.floats(0.1, 1.0)), t_end / 4000)
    a0 = draw(st.sampled_from([0.0, 1.0, 0.6 - 0.8j]))
    b0 = draw(st.sampled_from([0.0, 1j]))
    return system, pulses, (0.0, t_end), dt, a0, b0


@settings(max_examples=60, deadline=None)
@given(case=driven_systems())
# the rect's end, 22.5 steps in, is the mean of step 22's ends but lies
# one ulp above 22.5 dt
@example(case=(
    CoupledModeSystem(omega_a=W0, omega_b=W0, kappa_ext=0.01 * RATE, g_on=RATE),
    PulseSequence(rf=RfPulse(carrier=W0 / TWO_PI, amplitude=1e4, start=0.0,
                             duration=4.500000000000001e-9)),
    (0.0, 5e-9), 2e-10, 0.0, 0.0))
# the last piece's n steps of (t1 - ta) / n from ta = 4.6875e-10 add up to
# one ulp past t1, where the RF pulse ends
@example(case=(
    CoupledModeSystem(omega_a=41154863762.02629, omega_b=41783182292.74425, kappa_ext=0.0,
                      g_on=628318530.7179586),
    PulseSequence(rf=RfPulse(carrier=6550000000.0, amplitude=1e4, start=0.0, duration=1e-8),
                  gate_pulses=(GatePulse(start=1.5625e-10, duration=3.125e-10),)),
    (0.0, 1e-8), 1.3750000000000002e-10, 0.0, 0.0))
def test_scan_matches_step_loop(case):
    system, pulses, span, dt, a0, b0 = case
    _assert_matches_loop(system, pulses, span, dt, a0=a0, b0=b0)


@st.composite
def driven_cascades(draw):
    """A case of driven_systems() with its system as a ReadCascade's reader
    and a neighbour on the same rate scale, at a step within the cascade's
    guard."""
    reader, pulses, span, dt, a0, b0 = draw(driven_systems())
    neighbour = CoupledModeSystem(
        omega_a=W0 + RATE * draw(st.floats(-1.0, 1.0)),
        omega_b=W0 + RATE * draw(st.floats(-1.0, 1.0)),
        kappa_ext=RATE * draw(st.sampled_from([0.0, 0.01, 0.3, 1.0])),
        kappa_int_a=RATE * draw(st.sampled_from([0.0, 0.02])),
        gamma_b=RATE * draw(st.sampled_from([0.0, 0.01])),
        g_on=RATE,
        g_off=RATE * draw(st.sampled_from([0.0, 1e-4, 0.05])),
    )
    cascade = ReadCascade(reader, neighbour)
    return cascade, pulses, span, min(dt, max_stable_dt(cascade, pulses)), a0, b0


@settings(max_examples=30, deadline=None)
@given(case=driven_cascades())
def test_cascade_scan_matches_step_loop(case):
    # the width-4 scan, driven and undriven, against the loop
    system, pulses, span, dt, a0, b0 = case
    _assert_matches_loop(system, pulses, span, dt, a0=a0, b0=b0)


# gate edges placed on a grid sample, inside one step, and in the first
# and the last step of the ungated span's grid
GRID_CUT_CASES = ("edge_on_sample", "sub_step_pulse", "edges_first_last")

# constant-coupling segments whose block layout sits on the scan's edges,
# each a test on (steps per block K, blocks B, steps in the last block);
# eight and nine blocks are the carry's doubling edges: three passes over
# a power of two, and a fourth pass that reaches the last block only
BLOCK_CASES = {
    "one_block": lambda k, b, last: b == 1,
    "eight_blocks_full": lambda k, b, last: b == 8 and last == k,
    "nine_blocks_one_step": lambda k, b, last: b == 9 and last == 1,
    "last_block_full": lambda k, b, last: k > 2 and b > 1 and last == k,
    "last_block_short": lambda k, b, last: k > 2 and b > 1 and last == k - 1,
    "last_block_over": lambda k, b, last: k > 2 and b > 1 and last == 1,
}


def _block_case_steps(name):
    """Smallest step count, up to one chunk, whose scan has the layout
    BLOCK_CASES names."""
    k = dynamics._BLOCK_STEPS
    for n in range(1, _CHUNK_STEPS + 1):
        b = -(-n // k)
        if BLOCK_CASES[name](k, b, n - (b - 1) * k):
            return n
    raise AssertionError(f"no step count up to one chunk has the {name} layout")


def _named_case(name):
    g = TWO_PI * 20e6
    kappa = TWO_PI * 4e6
    base = CoupledModeSystem(omega_a=W0, omega_b=W0 + TWO_PI * 1e6, kappa_ext=kappa,
                             kappa_int_a=TWO_PI * 0.1e6, gamma_b=TWO_PI * 0.05e6,
                             g_on=g, g_off=1e3)
    carrier = W0 / TWO_PI
    gauss = RfPulse(carrier=carrier, amplitude=1e4, start=0.0, duration=400e-9, sigma=80e-9)
    gate = (GatePulse(start=200e-9, duration=12.5e-9),)
    if name == "exceptional_point":
        # delta = 0 and g = kappa / 4: the propagator's eigenvectors coincide
        ep = CoupledModeSystem(omega_a=W0, omega_b=W0, kappa_ext=kappa,
                               g_on=kappa / 4.0, g_off=kappa / 4.0)
        return ep, PulseSequence(rf=gauss), (0.0, 450e-9), 1.0, 0.0
    if name == "g_off_zero":
        sys_ = CoupledModeSystem(omega_a=W0, omega_b=W0, kappa_ext=kappa, g_on=g, g_off=0.0)
        return sys_, PulseSequence(rf=gauss, gate_pulses=gate), (0.0, 450e-9), 1.0, 0.0
    if name in GRID_CUT_CASES:
        span = (0.0, 450e-9)
        # gate edges placed against the grid of the ungated span
        t = _half_grid(span, 0.25 * max_stable_dt(base, PulseSequence(rf=gauss)))
        h = 2.0 * (t[1] - t[0])
        if name == "edge_on_sample":
            # rise exactly on a step boundary, fall on a step midpoint
            gates = (GatePulse(start=t[800], duration=t[851] - t[800]),)
        elif name == "sub_step_pulse":
            # a pulse shorter than one step, inside step 400
            gates = (GatePulse(start=t[800] + 0.3 * h, duration=0.4 * h),)
        else:
            # on from the span's start; off 0.2 step before its end
            gates = (GatePulse(start=0.0, duration=12.5e-9),
                     GatePulse(start=t[-1] - 12.5e-9 - 0.2 * h, duration=12.5e-9))
        return base, PulseSequence(rf=gauss, gate_pulses=gates), span, 1.0, 0.0
    if name == "one_step":
        return base, PulseSequence(), (0.0, 1e-12), 0.3, 1.0
    if name == "no_drive":
        return base, PulseSequence(gate_pulses=gate), (0.0, 450e-9), 0.0, 1.0
    if name == "gaussian":
        return base, PulseSequence(rf=gauss, gate_pulses=gate), (0.0, 450e-9), 1.0, 0.0
    if name == "stored_and_driven":
        # a stored excitation under a gaussian detuned 3 MHz from the carrier
        # the frame turns at
        drive = RfPulse(carrier=carrier + 3e6, amplitude=1e4, start=0.0, duration=300e-9,
                        sigma=50e-9)
        return base, PulseSequence(rf=drive, gate_pulses=gate), (0.0, 450e-9), 0.0, 1j
    if name == "chunked":
        # three pieces over four chunks: the first piece is exactly one
        # chunk, and the gate's fall lands inside its piece's second chunk;
        # the cavity's detuning, above g, sets every piece's guard, so the
        # pieces step alike
        sys_ = CoupledModeSystem(omega_a=W0, omega_b=W0 + TWO_PI * 25e6,
                                 kappa_ext=TWO_PI * 0.2e6, gamma_b=TWO_PI * 0.01e6,
                                 g_on=g, g_off=1e3)
        dt = 0.25 * max_stable_dt(sys_, PulseSequence(rf=gauss))
        gate = GatePulse(start=_CHUNK_STEPS * dt * (1.0 - 1e-6),
                         duration=1.5 * _CHUNK_STEPS * dt)
        span = (0.0, gate.end + 0.5 * _CHUNK_STEPS * dt)
        drive = RfPulse(carrier=carrier, amplitude=1e3, start=0.0, duration=span[1],
                        sigma=span[1] / 5.0)
        return sys_, PulseSequence(rf=drive, gate_pulses=(gate,)), span, 0.6 - 0.8j, 1j
    if name in BLOCK_CASES:
        # one constant-coupling segment of exactly n steps; a0 and b0 both
        # nonzero, so every block's carry-in reaches both modes
        sys_ = CoupledModeSystem(omega_a=W0, omega_b=W0 + TWO_PI * 1e6, kappa_ext=kappa,
                                 kappa_int_a=TWO_PI * 0.1e6, gamma_b=TWO_PI * 0.05e6,
                                 g_on=g, g_off=g)
        n = _block_case_steps(name)
        span = (0.0, n * 0.25 * max_stable_dt(sys_, PulseSequence(rf=gauss)))
        # an envelope rate of g / 2, below g: the guard stays g's
        drive = RfPulse(carrier=carrier, amplitude=1e4, start=0.0, duration=span[1],
                        sigma=2.0 / g)
        return sys_, PulseSequence(rf=drive), span, 0.6 - 0.8j, 1j
    if name == "read_cascade":
        cascade, pulses, span, _ = _read_cascade(TWO_PI * 4e6)
        return cascade, pulses, span, 0.6, 0.8j
    if name == "driven_cascade":
        # both couplers under a gaussian drive, the reader gated once
        neighbour = CoupledModeSystem(omega_a=W0 + TWO_PI * 3e6, omega_b=W0 + TWO_PI * 3e6,
                                      kappa_ext=TWO_PI * 2e6, kappa_int_a=TWO_PI * 0.1e6,
                                      g_on=g, g_off=TWO_PI * 1e3)
        return (ReadCascade(base, neighbour), PulseSequence(rf=gauss, gate_pulses=gate),
                (0.0, 450e-9), 0.0, 1j)
    assert name == "long_hold"
    # constant coupling: the whole span is one segment
    hold = CoupledModeSystem(omega_a=W0, omega_b=W0 + TWO_PI * 1e6, kappa_ext=TWO_PI * 0.2e6,
                             gamma_b=TWO_PI * 0.01e6, g_on=g, g_off=g)
    drive = RfPulse(carrier=carrier, amplitude=1e3, start=0.0, duration=15e-6, sigma=3e-6)
    return hold, PulseSequence(rf=drive), (0.0, 15e-6), 1.0, 0.0


NAMED_CASES = ("exceptional_point", "g_off_zero", "one_step", "no_drive", "gaussian",
               "stored_and_driven", "long_hold", "chunked", "read_cascade", "driven_cascade",
               *GRID_CUT_CASES, *BLOCK_CASES)


@pytest.mark.parametrize("name", NAMED_CASES)
def test_scan_matches_step_loop_named(name):
    system, pulses, span, a0, b0 = _named_case(name)
    dt = 0.25 * max_stable_dt(system, pulses)
    if name == "long_hold":
        assert (span[1] - span[0]) / dt >= 50_000
    traj = _assert_matches_loop(system, pulses, span, dt, a0=a0, b0=b0)
    if name in BLOCK_CASES:
        assert len(traj.times) - 1 == _block_case_steps(name)
    if name == "chunked":
        times = traj.times.tolist()
        gate = pulses.gate_pulses[0]
        rise, fall = times.index(gate.start), times.index(gate.end)
        assert rise == _CHUNK_STEPS
        assert _CHUNK_STEPS < fall - rise < 2 * _CHUNK_STEPS
        assert len(times) - 1 - fall > 0
    if name in GRID_CUT_CASES:
        times = traj.times.tolist()
        t = _half_grid(span, dt)
        h = 2.0 * (t[1] - t[0])  # the ungated span's step
        gates = pulses.gate_pulses
        if name == "edge_on_sample":
            assert {gates[0].start, gates[0].end} <= set(times)
        elif name == "sub_step_pulse":
            # the pulse is one step of 0.4 h
            k = times.index(gates[0].start)
            assert times[k + 1] == gates[0].end
            assert (times[k + 1] - times[k]) / h == pytest.approx(0.4, rel=1e-9)
        else:
            # the first pulse starts at the span's start and is no cut; the
            # last step runs from the last pulse's end to the span's end
            assert {gates[0].end, gates[1].start, gates[1].end} <= set(times)
            assert times[-2] == gates[1].end
            assert (times[-1] - times[-2]) / h == pytest.approx(0.2, rel=1e-9)


@pytest.mark.parametrize("k_len", [1, 2, 16, 17])
@pytest.mark.parametrize("name", ["gaussian", "chunked", "long_hold", "one_step",
                                  "exceptional_point", "read_cascade", "driven_cascade"])
def test_block_length_is_free(monkeypatch, name, k_len):
    # the block length is a cost knob only: one block per step, blocks
    # that do not divide the chunk and the default all match the loop
    monkeypatch.setattr(dynamics, "_BLOCK_STEPS", k_len)
    system, pulses, span, a0, b0 = _named_case(name)
    _assert_matches_loop(system, pulses, span, 0.25 * max_stable_dt(system, pulses),
                         a0=a0, b0=b0)


def test_short_piece_is_one_block_of_its_own_length(monkeypatch):
    # a one-step gate piece scans one 1-step block, not a 16-step block
    # of padding; the long pieces around it keep the full block length
    scans = []
    real = dynamics._scan_chunk

    def spy(x, m, step_map, lift, ain):
        scans.append((m, len(lift) // 2))
        real(x, m, step_map, lift, ain)

    monkeypatch.setattr(dynamics, "_scan_chunk", spy)
    system, pulses, span, a0, b0 = _named_case("sub_step_pulse")
    evolve(system, pulses, span, 0.25 * max_stable_dt(system, pulses), a0, b0)
    assert scans[1] == (1, 1)
    assert [k for m, k in scans if m > 1] == [dynamics._BLOCK_STEPS] * (len(scans) - 1)


@pytest.mark.parametrize("name", ["gaussian", "read_cascade"])
def test_undriven_piece_runs_no_zero_state_pass(monkeypatch, name):
    # an undriven piece's zero state is exactly 0: its chunks skip the
    # zero-state pass, and every driven chunk runs it once
    scans = []
    real_scan, real_zero = dynamics._scan_chunk, dynamics._zero_state

    def scan(x, m, step_map, lift, ain):
        scans.append([ain is not None, 0])
        real_scan(x, m, step_map, lift, ain)

    def zero_state(*args):
        scans[-1][1] += 1
        real_zero(*args)

    monkeypatch.setattr(dynamics, "_scan_chunk", scan)
    monkeypatch.setattr(dynamics, "_zero_state", zero_state)
    system, pulses, span, a0, b0 = _named_case(name)
    evolve(system, pulses, span, 0.25 * max_stable_dt(system, pulses), a0, b0)
    assert [driven for driven, _ in scans] == (
        [True, True, True, False] if name == "gaussian" else [False, False])
    assert all(passes == driven for driven, passes in scans)


@pytest.mark.parametrize("k_len", [1, 16, 17])
@pytest.mark.parametrize("name", ["sub_step_pulse", "one_step", "read_cascade",
                                  "driven_cascade"])
def test_step_maps_and_lifts_match_the_step_formula(monkeypatch, name, k_len):
    # every piece's map [Q | m0 m1 m2], built for the whole call at once,
    # is one _rk4_increment on each basis vector, and its lift's block k,
    # P^(k+1) - I, sums the increments of k + 1 steps: within a few ulps
    monkeypatch.setattr(dynamics, "_BLOCK_STEPS", k_len)
    pieces, scans = [], []
    real_pieces, real_scan = dynamics._pieces, dynamics._scan_chunk

    def record_pieces(*args):
        cut = real_pieces(*args)
        pieces.extend(cut)
        return cut

    def record_scan(x, m, step_map, lift, ain):
        scans.append((step_map, lift))
        real_scan(x, m, step_map, lift, ain)

    monkeypatch.setattr(dynamics, "_pieces", record_pieces)
    monkeypatch.setattr(dynamics, "_scan_chunk", record_scan)
    system, pulses, span, a0, b0 = _named_case(name)
    evolve(system, pulses, span, 0.25 * max_stable_dt(system, pulses), a0, b0)
    assert len(scans) == len(pieces)  # one chunk per piece
    if name == "sub_step_pulse":
        assert pieces[1][1] == 1
    w_d = _frame_carrier(system, pulses)
    width = 2 * len(_cells(system))
    eps = np.finfo(float).eps
    for (_, n, h, g, _, _), (step_map, lift) in zip(pieces, scans):
        gen = _terms(system, w_d, g)
        basis = np.eye(width + 3).tolist()
        want = np.array([_rk4_increment(e[:width], h, gen, e[width:]) for e in basis]).T
        assert step_map.shape == want.shape
        assert np.max(np.abs(step_map - want)) <= 4 * eps * np.max(np.abs(want))
        assert lift.shape == (width * min(k_len, n), width)
        for c in range(width):
            x, total = basis[c][:width], np.zeros(width, dtype=complex)
            for k in range(min(k_len, n)):
                d = _rk4_increment(x, h, gen, (0.0, 0.0, 0.0))
                x = [v + dv for v, dv in zip(x, d)]
                total += d
                block = lift[k * width:(k + 1) * width, c]
                assert np.max(np.abs(block - total)) <= 4 * (k + 1) * eps * np.max(np.abs(total))


def _read_cascade(neighbour_kappa_ext):
    """A read's cascade, reader and neighbour 3 MHz apart, under the read's
    gate pulse, its span and the step at the quarter guard: the reader's
    rates set the guard, so the reader alone steps alike."""
    reader = CoupledModeSystem(omega_a=W0, omega_b=W0, kappa_ext=TWO_PI * 4e6,
                               kappa_int_a=TWO_PI * 0.1e6, gamma_b=TWO_PI * 0.05e6,
                               g_on=TWO_PI * 20e6, g_off=1e3)
    neighbour = CoupledModeSystem(omega_a=W0 + TWO_PI * 3e6, omega_b=W0 + TWO_PI * 3e6,
                                  kappa_ext=neighbour_kappa_ext, kappa_int_a=TWO_PI * 0.1e6,
                                  g_on=TWO_PI * 20e6, g_off=TWO_PI * 1e3)
    cascade = ReadCascade(reader, neighbour)
    pulses = PulseSequence(gate_pulses=(GatePulse(start=0.0, duration=swap_duration(reader.g_on)),))
    assert max_stable_dt(cascade, pulses) == max_stable_dt(reader, pulses)
    return cascade, pulses, (0.0, 2e-6), 0.25 * max_stable_dt(cascade, pulses)


@pytest.mark.parametrize("kappa_ext", [0.0, TWO_PI * 4e6], ids=["decoupled", "coupled"])
def test_read_cascade_starts_from_the_readers_state(kappa_ext):
    cascade, pulses, span, dt = _read_cascade(kappa_ext)
    traj = evolve(cascade, pulses, span, dt, a0=0.6, b0=0.8j)
    assert traj.x.shape == (len(traj.times), 4)
    assert traj.x[0].tolist() == [0.6, 0.8j, 0.0, 0.0]
    # the neighbour is driven: it leaves its empty start only if coupled
    assert (np.max(np.abs(traj.x[:, 2])) > 1e-3) == (kappa_ext > 0)


@pytest.mark.parametrize("kappa_ext", [0.0, TWO_PI * 4e6], ids=["decoupled", "coupled"])
def test_the_neighbour_never_acts_back_on_the_reader(kappa_ext):
    # the cascade is one-way: the reader steps as it does alone; with no
    # port the neighbour takes nothing from the feedline, its columns
    # staying exactly 0
    cascade, pulses, span, dt = _read_cascade(kappa_ext)
    pair = evolve(cascade, pulses, span, dt, b0=1.0)
    alone = evolve(cascade.reader, pulses, span, dt, b0=1.0)
    assert np.array_equal(pair.times, alone.times)
    assert pair.x[:, 2:].any() == (kappa_ext > 0)
    scale = np.max(np.abs(alone.x))
    assert np.max(np.abs(pair.x[:, :2] - alone.x)) <= 1e-15 * scale


def test_coupler_peak_converges_at_fourth_order():
    # resonant exchange from the cavity: |a|^2 = sin^2(g t) peaks at 1 in
    # the middle of a step for an odd step count; 25 steps is the guard
    g = TWO_PI * 100e6
    system = rabi_system(100e6)
    span = (0.0, math.pi / g)
    errors, sampled = [], []
    for n in (25, 51, 101):
        traj = evolve(system, IDLE, span, span[1] / n, a0=0.0, b0=1.0)
        errors.append(abs(coupler_peak(traj) - 1.0))
        sampled.append(abs(np.max(traj.e_a) - 1.0))
    assert errors[0] >= 12.0 * errors[1] and errors[1] >= 12.0 * errors[2]
    # the largest sample alone is second order, and 1000x off at the guard
    assert sampled[0] >= 1000.0 * errors[0] and sampled[1] <= 4.5 * sampled[2]


@pytest.mark.parametrize("name", ["gaussian", "stored_and_driven", "edge_on_sample"])
def test_coupler_peak_is_the_interpolant_maximum(name):
    # the interpolant with the same slopes, read on a fine grid over the
    # steps around the largest sample: coupler_peak is its maximum, which
    # no sample exceeds
    system, pulses, span, _, _ = _named_case(name)
    traj = evolve(system, pulses, span, max_stable_dt(system, pulses))
    peak = coupler_peak(traj)
    k = int(np.argmax(traj.e_a))
    w = slice(max(k - 1, 0), k + 2)
    slopes = coupler_slopes(replace(traj, times=traj.times[w], x=traj.x[w]))
    fine = 0.0
    for h, a0, a1, (s0, s1) in zip(np.diff(traj.times[w]), traj.a[w][:-1], traj.a[w][1:],
                                   slopes):
        cubic = _hermite_cubic(h, a0, a1, s0, s1)
        fine = max(fine, float(np.max(np.abs(np.polyval(cubic, np.linspace(0, 1, 10_001))) ** 2)))
    assert np.max(traj.e_a) < peak
    assert fine <= peak * (1.0 + 1e-14) and fine >= peak * (1.0 - 1e-10)


def test_coupler_slopes_take_each_steps_own_coupling():
    # the two steps that meet at a gate edge read a' at that sample with
    # their own g: the slopes differ by i (g_on - g_off) b there
    system, pulses, span, a0, b0 = _named_case("edge_on_sample")
    traj = evolve(system, pulses, span, max_stable_dt(system, pulses), a0=a0, b0=b0)
    slopes = coupler_slopes(traj)
    times = traj.times.tolist()
    for edge, sign in ((pulses.gate_pulses[0].start, 1.0), (pulses.gate_pulses[0].end, -1.0)):
        k = times.index(edge)
        jump = slopes[k - 1, 1] - slopes[k, 0]
        expected = sign * 1j * (system.g_on - system.g_off) * traj.b[k]
        assert jump == pytest.approx(expected, rel=1e-9)
    # away from the edges a sample's two slopes agree bit for bit
    assert np.array_equal(slopes[:10, 1], slopes[1:11, 0])


def test_coupler_slopes_take_each_steps_own_drive():
    # the step that ends on the RF pulse's end takes the drive from inside
    # the pulse and the step after it none: their slopes there differ by
    # sqrt(kappa_ext) times the envelope at the end
    system, pulses, span, a0, b0 = _named_case("gaussian")
    traj = evolve(system, pulses, span, max_stable_dt(system, pulses), a0=a0, b0=b0)
    slopes = coupler_slopes(traj)
    rf = pulses.rf
    k = traj.times.tolist().index(rf.end)
    expected = math.sqrt(system.kappa_ext) * rf.envelope(rf.end)
    assert expected > 0.04 * rf.amplitude * math.sqrt(system.kappa_ext)
    assert slopes[k - 1, 1] - slopes[k, 0] == pytest.approx(expected, rel=1e-9)


def loop_slopes(system, pulses, times, x):
    """coupler_slopes() as a loop over the couplings a trajectory takes, one
    generator row each, summing the nonzero terms as Python numbers: the
    reference its one generator for every step must equal."""
    w_d = dynamics._frame_carrier(system, pulses)
    mids = 0.5 * (times[:-1] + times[1:])
    g = dynamics._couplings(system, pulses, mids)
    m = x.shape[1] - 2
    slopes = np.empty((len(times) - 1, 2), dtype=complex)
    for coupling in set(g.tolist()):
        row = dynamics._generator(system, w_d, coupling)[m, :-1].tolist()
        s = row[m] * x[:, m]
        for j, c in enumerate(row):
            if c and j != m:
                s = s + c * x[:, j]
        steps = g == coupling
        slopes[steps, 0] = s[:-1][steps]
        slopes[steps, 1] = s[1:][steps]
    if pulses.rf is not None:
        on = dynamics._driven(pulses, mids)
        f = complex(dynamics._generator(system, w_d, 0.0)[m, -1]) * pulses.rf.envelope(times)
        slopes[on, 0] += f[:-1][on]
        slopes[on, 1] += f[1:][on]
    return slopes


@pytest.mark.parametrize("name", NAMED_CASES)
def test_slopes_equal_the_loop_over_couplings(name):
    system, pulses, span, a0, b0 = _named_case(name)
    traj = evolve(system, pulses, span, max_stable_dt(system, pulses), a0=a0, b0=b0)
    slopes = coupler_slopes(traj)
    assert np.array_equal(slopes, loop_slopes(system, pulses, traj.times, traj.x))

def test_one_sample_trajectory_under_a_drive():
    # a trajectory cut to its first sample has no step: no slopes, and its
    # peak is that sample's |a|^2, though an RF pulse drives the span
    system, pulses, span, _, _ = _named_case("gaussian")
    traj = evolve(system, pulses, span, max_stable_dt(system, pulses), a0=0.6, b0=0.8j)
    one = replace(traj, times=traj.times[:1], x=traj.x[:1])
    assert pulses.rf is not None
    assert coupler_slopes(one).shape == (0, 2)
    assert coupler_peak(one) == float(np.abs(one.a[0]) ** 2) == abs(0.6) ** 2


def _bad_integrations():
    """(system, pulses, t_span, dt) calls that evolve rejects, each with
    the error it raises and a pattern of its message."""
    sys_ = CoupledModeSystem(omega_a=W0, omega_b=W0, kappa_ext=TWO_PI * 1e6,
                             g_on=TWO_PI * 100e6, g_off=1e3)
    rf = RfPulse(carrier=W0 / TWO_PI, amplitude=1.0, start=0.0, duration=10e-9)
    dt = 0.25 * max_stable_dt(sys_, PulseSequence(rf=rf))
    # a slow cell under a drive so strong that its coupler overflows
    slow = CoupledModeSystem(omega_a=W0, omega_b=W0, kappa_ext=1e-4)
    flood = PulseSequence(rf=RfPulse(carrier=W0 / TWO_PI, amplitude=1e308, start=0.0,
                                     duration=1e4))
    return [
        ((sys_, PulseSequence(rf=rf), (10e-9, 0.0), dt), ValueError, "positive length"),
        ((sys_, PulseSequence(rf=rf), (0.0, 10e-9), 0.0), ValueError, "dt must be positive"),
        ((sys_, PulseSequence(rf=rf), (0.0, 10e-9), 8.0 * dt), ValueError, "resolution guard"),
        ((sys_, PulseSequence(rf=rf), (0.0, 5e-9), dt), ValueError, "cover"),
        ((slow, flood, (0.0, 1e4), max_stable_dt(slow, flood)), ArithmeticError, "diverged"),
    ]


@pytest.mark.parametrize("call, error, match", _bad_integrations())
def test_evolve_raises(call, error, match):
    # the overflowing drive warns in numpy before the state check raises
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(error, match=match):
        evolve(*call)


def _traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evolve_peak_memory():
    # the outputs are 2.5 x 16 bytes per sample (times and the (a, b)
    # rows); the scan writes each chunk in place in the output and works in
    # chunk-sized buffers, so every other array is bounded by the chunk,
    # not by the span
    system, pulses, span, a0, b0 = _named_case("long_hold")
    dt = 0.25 * max_stable_dt(system, pulses)
    n = len(evolve(system, pulses, span, dt, a0=a0, b0=b0).times)
    assert n == 60_001
    assert _traced_peak(evolve, system, pulses, span, dt, a0=a0, b0=b0) <= 3.5 * 16 * n


def _energy_residual(system, pulses, traj):
    """Input-output energy balance (Gardiner & Collett, PRA 31, 3761):
    int |a_in|^2 - int |a_out|^2 = dE + int (k_int |a|^2 + g_b |b|^2) dt.
    Returns (|residual|, input energy + initial energy)."""
    t = traj.times
    rf = pulses.rf
    a_in = (np.zeros_like(traj.a) if rf is None
            else np.asarray(rf.envelope(t) * ((t >= rf.start) & (t < rf.end)), dtype=complex))
    a_out = a_in - math.sqrt(system.kappa_ext) * traj.a
    e_in = np.trapezoid(np.abs(a_in) ** 2, t)
    e_out = np.trapezoid(np.abs(a_out) ** 2, t)
    energy = traj.e_a + traj.e_b
    lost = np.trapezoid(system.kappa_int_a * traj.e_a + system.gamma_b * traj.e_b, t)
    residual = (e_in - e_out) - (energy[-1] - energy[0]) - lost
    return abs(residual), e_in + energy[0]


@settings(max_examples=40, deadline=None)
@given(case=driven_systems())
def test_energy_balance(case):
    system, pulses, span, dt, a0, b0 = case
    # the trapezoid sums are second order, so dt is at most the protocols'
    # quarter guard and a 50,000th of the span; a piece with a slower
    # guard steps coarser in proportion
    dt = min(0.25 * max_stable_dt(system, pulses), (span[1] - span[0]) / 50_000)
    traj = evolve(system, pulses, span, dt, a0=a0, b0=b0)
    residual, scale = _energy_residual(system, pulses, traj)
    assert residual <= 1e-3 * scale


@pytest.mark.parametrize("name", ["exceptional_point", "gaussian", "stored_and_driven"])
def test_energy_balance_named(name):
    system, pulses, span, a0, b0 = _named_case(name)
    traj = evolve(system, pulses, span, 0.25 * max_stable_dt(system, pulses), a0=a0, b0=b0)
    residual, scale = _energy_residual(system, pulses, traj)
    assert residual <= 1e-3 * scale


def test_import_leaves_scipy_signal_unloaded():
    # no scipy module at all: scipy is a test dependency only
    src = str(Path(qmemsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, qmemsim.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


class TestCouplingSchedule:
    def test_overlapping_pulses_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            PulseSequence(gate_pulses=(
                GatePulse(start=0.0, duration=10e-9),
                GatePulse(start=5e-9, duration=10e-9),
            ))


class TestWriteProtocol:
    def make_system(self, **kw):
        kw.setdefault("kappa_ext", TWO_PI * 3.3e6)
        return CoupledModeSystem(omega_a=W0, omega_b=W0, g_on=TWO_PI * 300e6, **kw)

    def test_lossless_rectangular_fidelity(self):
        sys_ = self.make_system()
        rf = RfPulse(carrier=W0 / TWO_PI, amplitude=1.0, start=0.0, duration=3.0 / sys_.kappa_ext)
        result = write_protocol(sys_, rf)
        assert result.fidelity >= 0.99
        # read off b's last sample, the same bits as the energy trace's
        traj = result.trajectory
        peak = coupler_peak(traj)
        assert result.peak == peak
        assert result.fidelity == float(traj.e_b[-1]) / peak

    def test_rectangular_write_at_the_guard(self):
        # criterion 7's write: the step and the end slope that finish on the
        # pulse's end take the drive from inside the pulse, so the default
        # step is within 1e-6 of a sixteenth of it
        sys_ = self.make_system(kappa_ext=TWO_PI * 3e6)
        rf = RfPulse(carrier=W0 / TWO_PI, amplitude=1.0, start=0.0, duration=3.0 / sys_.kappa_ext)
        coarse, fine = (write_protocol(sys_, rf, dt_fraction=f).fidelity for f in (1.0, 0.0625))
        assert coarse == pytest.approx(fine, rel=1e-6, abs=0.0)

    def test_no_port_stores_nothing(self):
        # with no port the coupler never loads: fidelity 0, not 0 / 0
        sys_ = self.make_system(kappa_ext=0.0)
        rf = RfPulse(carrier=W0 / TWO_PI, amplitude=1.0, start=0.0, duration=100e-9)
        assert write_protocol(sys_, rf).fidelity == 0.0

    def test_gate_never_on_is_isolating(self):
        sys_ = self.make_system(g_off=1.3e4)
        rf = RfPulse(carrier=W0 / TWO_PI, amplitude=1.0, start=0.0, duration=3.0 / sys_.kappa_ext)
        result = write_protocol(sys_, rf, engage_gate=False)
        assert result.fidelity <= 1e-4

    def test_storage_leakage_during_hold(self):
        # hold a stored excitation for 100 swap durations, gate OFF the
        # whole time: leakage is set by the residual coupling floor
        g_off = 1.3e4
        sys_ = self.make_system(g_off=g_off)
        t_hold = 100.0 * swap_duration(sys_.g_on)
        dt = 0.25 * max_stable_dt(sys_, IDLE)
        traj = evolve(sys_, PulseSequence(), (0.0, t_hold), dt, b0=1.0)
        # coherent leakage at most (g_off t)^2 plus the coupler-mediated
        # decay 4 g_off^2 / kappa * t
        bound = (g_off * t_hold) ** 2 + 4 * g_off**2 / sys_.kappa_ext * t_hold
        assert 1.0 - traj.e_b[-1] <= 5.0 * bound + 1e-9


class TestReadProtocol:
    def test_recovers_stored_energy(self):
        sys_ = CoupledModeSystem(
            omega_a=W0, omega_b=W0, kappa_ext=TWO_PI * 5e6, g_on=TWO_PI * 300e6
        )
        result = read_protocol(sys_)
        assert result.recovered_fraction >= 0.95

    def test_no_port_means_no_recovery(self):
        sys_ = CoupledModeSystem(omega_a=W0, omega_b=W0, kappa_ext=0.0, g_on=TWO_PI * 300e6)
        result = read_protocol(sys_)
        assert result.recovered_fraction == pytest.approx(0.0, abs=1e-12)

    def test_write_then_read_round_trip(self):
        sys_ = CoupledModeSystem(
            omega_a=W0, omega_b=W0, kappa_ext=TWO_PI * 5e6, g_on=TWO_PI * 300e6
        )
        rf = RfPulse(carrier=W0 / TWO_PI, amplitude=1.0, start=0.0, duration=3.0 / sys_.kappa_ext)
        written = write_protocol(sys_, rf)
        read = read_protocol(sys_)
        assert written.fidelity * read.recovered_fraction >= written.fidelity**2


def test_gated_protocols_converge_in_step():
    # a cell-0-like seed-array write (gaussian drive, gate at its peak) and
    # read: with the gate edges on the step grid, a 4x finer step moves
    # neither result beyond RK4's own error
    w = TWO_PI * 6.544e9
    sys_ = CoupledModeSystem(omega_a=w, omega_b=w, kappa_ext=TWO_PI * 3.2e6,
                             kappa_int_a=TWO_PI * 25e3, gamma_b=TWO_PI * 18e3,
                             g_on=TWO_PI * 240e6, g_off=TWO_PI * 9.5e3)
    rf = RfPulse(carrier=w / TWO_PI, amplitude=1.0, start=0.0, duration=1.2e-6, sigma=0.24e-6)
    coarse, fine = (write_protocol(sys_, rf, gate_at=0.6e-6, dt_fraction=f).fidelity
                    for f in (0.25, 0.0625))
    assert coarse == pytest.approx(fine, rel=1e-7)
    coarse, fine = (read_protocol(sys_, dt_fraction=f).recovered_fraction
                    for f in (0.25, 0.0625))
    assert coarse == pytest.approx(fine, rel=1e-7)


class TestEnvelopes:
    def test_rect_window(self):
        rf = RfPulse(carrier=6.5e9, amplitude=2.0, start=10e-9, duration=5e-9)
        assert rf.envelope(9e-9) == 2.0
        assert rf.envelope(12e-9) == 2.0
        assert rf.envelope(16e-9) == 2.0

    def test_gauss_peak_at_center(self):
        rf = RfPulse(carrier=6.5e9, amplitude=2.0, start=0.0, duration=100e-9, sigma=20e-9)
        assert rf.envelope(50e-9) == pytest.approx(2.0)
        assert rf.envelope(30e-9) == pytest.approx(2.0 * math.exp(-0.5))

    def test_validation(self):
        with pytest.raises(ValueError):
            RfPulse(carrier=-1.0, amplitude=1.0, start=0.0, duration=1e-9)
        with pytest.raises(ValueError):
            RfPulse(carrier=6.5e9, amplitude=1.0, start=0.0, duration=1e-9, sigma=0.0)
        with pytest.raises(ValueError):
            GatePulse(start=0.0, duration=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rf_pulse_rejects_non_finite(self, bad):
        fields = dict(carrier=6.5e9, amplitude=1.0, start=0.0, duration=1e-9)
        for name in fields:
            with pytest.raises(ValueError, match=f"RfPulse.{name} must be finite"):
                RfPulse(**{**fields, name: bad})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_gate_pulse_rejects_non_finite(self, bad):
        for name in ("start", "duration"):
            with pytest.raises(ValueError, match=f"GatePulse.{name} must be finite"):
                GatePulse(**{"start": 0.0, "duration": 1e-9, name: bad})

    @pytest.mark.parametrize("bad", [math.nan])
    def test_gauss_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="RfPulse.sigma must be positive"):
            RfPulse(carrier=6.5e9, amplitude=1.0, start=0.0, duration=1e-9, sigma=bad)

    @given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(1e-12, 1e3),
           st.lists(st.floats(-3e3, 3e3), min_size=1, max_size=8))
    @example(-1.0, 0.0, 1e-9, [0.0, 1e-9, -1e-300, 5e-10])
    def test_infinite_sigma_is_the_rectangle(self, amplitude, start, duration, t):
        # exp(-0) = 1: the gaussian of infinite width is the amplitude, bit
        # for bit, at every finite t
        rf = RfPulse(carrier=6.5e9, amplitude=amplitude, start=start, duration=duration)
        assert rf.sigma == math.inf
        t = np.array(t)
        assert rf.envelope(t).tobytes() == np.full(t.shape, float(amplitude)).tobytes()


def test_system_validation():
    with pytest.raises(ValueError):
        CoupledModeSystem(omega_a=W0, omega_b=W0, kappa_ext=-1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_system_rejects_non_finite(bad):
    # NaN passes every sign check; unchecked, it surfaces far downstream,
    # e.g. as "trajectory diverged; reduce dt"
    fields = dict(omega_a=W0, omega_b=W0, kappa_ext=TWO_PI * 1e6, kappa_int_a=0.0,
                  gamma_b=0.0, g_on=TWO_PI * 100e6, g_off=1e3)
    for name in fields:
        with pytest.raises(ValueError, match=f"CoupledModeSystem.{name} must be finite"):
            CoupledModeSystem(**{**fields, name: bad})
