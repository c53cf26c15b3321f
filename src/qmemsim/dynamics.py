"""Reduced two-mode time-domain model of the write/read SWAP protocol.

The cell is reduced to two coupled modes: `a`, the feedline-coupled
coupling resonator, and `b`, the storage cavity.  In a frame rotating at
the drive carrier and after the rotating-wave approximation the classical
amplitudes obey

    da/dt = -(i Da + (k_ext + k_int)/2) a - i g(t) b + sqrt(k_ext) a_in(t)
    db/dt = -(i Db + gamma_b/2) b - i g(t) a
    a_out = a_in - sqrt(k_ext) a

with detunings Da/Db from the carrier and the gate-controlled coupling
g(t) switching between an ON value (from the avoided-crossing fit) and a
small OFF floor (from the depleted-junction spectrum).  Amplitudes are
normalized to sqrt(photons); drives to sqrt(photons/s).  Integration is
fixed-step classical RK4 for deterministic, reproducible trajectories.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .jjfet import JjState, On

TWO_PI = 2.0 * math.pi


# ------------------------- pulse schedule -------------------------


@dataclass(frozen=True)
class Rect:
    """Rectangular envelope over the pulse duration."""


@dataclass(frozen=True)
class Gauss:
    """Gaussian envelope, centered in the pulse window.

    sigma : s, standard deviation of the envelope
    """

    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("gaussian sigma must be positive")


@dataclass(frozen=True)
class RfPulse:
    """Feedline drive pulse.

    carrier : Hz (sets the rotating frame); amplitude : sqrt(photons/s)
    """

    carrier: float
    amplitude: float
    start: float
    duration: float
    envelope: Rect | Gauss = field(default_factory=Rect)

    def __post_init__(self):
        if self.carrier <= 0:
            raise ValueError("carrier frequency must be positive")
        if self.duration <= 0:
            raise ValueError("pulse duration must be positive")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def baseband(self, t):
        """Complex drive amplitude in the rotating frame at time(s) t."""
        t = np.asarray(t, dtype=float)
        inside = (t >= self.start) & (t < self.start + self.duration)
        if isinstance(self.envelope, Rect):
            env = inside.astype(float)
        else:
            mid = self.start + 0.5 * self.duration
            env = np.exp(-0.5 * ((t - mid) / self.envelope.sigma) ** 2) * inside
        return self.amplitude * env


@dataclass(frozen=True)
class SampledDrive:
    """Arbitrary baseband drive waveform given on a sample grid.

    Linear interpolation between samples, zero outside; used e.g. to feed
    one cell's emitted field to its neighbors.
    """

    carrier: float
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.carrier <= 0:
            raise ValueError("carrier frequency must be positive")
        if len(self.times) != len(self.values) or len(self.times) < 2:
            raise ValueError("sampled drive needs matching times/values arrays")

    @property
    def start(self) -> float:
        return float(self.times[0])

    @property
    def end(self) -> float:
        return float(self.times[-1])

    def baseband(self, t):
        t = np.asarray(t, dtype=float)
        re = np.interp(t, self.times, self.values.real, left=0.0, right=0.0)
        im = np.interp(t, self.times, self.values.imag, left=0.0, right=0.0)
        return re + 1j * im


@dataclass(frozen=True)
class GatePulse:
    """One DC gate pulse with linear rise/fall ramps of length `rise`."""

    start: float
    duration: float
    rise: float = 0.0
    level: JjState = field(default_factory=lambda: On(220e-12))

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("gate pulse duration must be positive")
        if self.rise < 0:
            raise ValueError("gate rise time must be non-negative")

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class PulseSequence:
    """RF drive plus a non-overlapping list of gate pulses."""

    rf: RfPulse | SampledDrive | None = None
    gate_pulses: tuple[GatePulse, ...] = ()

    def __post_init__(self):
        pulses = sorted(self.gate_pulses, key=lambda p: p.start)
        for left, right in zip(pulses, pulses[1:]):
            if right.start < left.end:
                raise ValueError("gate pulses must not overlap")

    def span(self) -> tuple[float, float]:
        starts = [p.start for p in self.gate_pulses]
        ends = [p.end for p in self.gate_pulses]
        if self.rf is not None:
            starts.append(self.rf.start)
            ends.append(self.rf.end)
        if not starts:
            return 0.0, 0.0
        return min(starts), max(ends)


def coupling_schedule(gate_pulses, g_on: float, g_off: float):
    """Piecewise-linear g(t) from gate pulses; OFF floor outside pulses.

    An ON pulse ramps g_off -> g_on over `rise`, holds, and ramps back.
    Explicit Off-level pulses hold the floor.  Returns a vectorized
    callable.
    """
    xs: list[float] = []
    ys: list[float] = []
    for p in sorted(gate_pulses, key=lambda q: q.start):
        target = g_on if isinstance(p.level, On) else g_off
        rise = max(p.rise, 1e-18)  # exact steps still resolve below any dt
        xs += [p.start, p.start + rise, p.end, p.end + rise]
        ys += [g_off, target, target, g_off]

    if not xs:
        return lambda t: np.full_like(np.asarray(t, dtype=float), g_off)

    xp = np.array(xs)
    fp = np.array(ys)

    def g_of_t(t):
        return np.interp(np.asarray(t, dtype=float), xp, fp, left=g_off, right=g_off)

    return g_of_t


# ------------------------- coupled-mode system -------------------------


@dataclass(frozen=True)
class CoupledModeSystem:
    """Two-mode reduction of a memory cell.

    omega_a, omega_b : rad/s, mode frequencies (coupling resonator, cavity)
    kappa_ext : rad/s, coupler-feedline energy decay rate
    kappa_int_a : rad/s, coupler internal loss rate
    gamma_b : rad/s, cavity internal loss rate
    g_on, g_off : rad/s, gate-ON coupling and gate-OFF residual floor
    """

    omega_a: float
    omega_b: float
    kappa_ext: float
    kappa_int_a: float = 0.0
    gamma_b: float = 0.0
    g_on: float = 0.0
    g_off: float = 0.0

    def __post_init__(self):
        for name in ("omega_a", "omega_b", "kappa_ext", "kappa_int_a",
                     "gamma_b", "g_on", "g_off"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class Trajectory:
    """Time-domain record of one evolution."""

    times: np.ndarray
    a: np.ndarray
    b: np.ndarray
    a_out: np.ndarray

    @property
    def e_a(self):
        return np.abs(self.a) ** 2

    @property
    def e_b(self):
        return np.abs(self.b) ** 2


def swap_duration(g_ang: float) -> float:
    """Full-transfer time pi / (2 g) of the resonant two-mode exchange, s."""
    if g_ang <= 0:
        raise ValueError("coupling rate must be positive")
    return math.pi / (2.0 * g_ang)


def _frame_carrier(system: CoupledModeSystem, pulses: PulseSequence) -> float:
    """Rotating-frame angular frequency: the RF carrier, else the cavity."""
    if pulses.rf is not None:
        return TWO_PI * pulses.rf.carrier
    return system.omega_b


def max_stable_dt(system: CoupledModeSystem, pulses: PulseSequence) -> float:
    """Largest step honoring the resolution guard (50 steps per period
    of the fastest detuning, coupling or decay rate)."""
    w_d = _frame_carrier(system, pulses)
    rates = [
        abs(system.omega_a - w_d),
        abs(system.omega_b - w_d),
        system.kappa_ext + system.kappa_int_a,
        system.gamma_b,
        system.g_on,
        system.g_off,
    ]
    m = max(rates)
    return math.inf if m == 0 else TWO_PI / (50.0 * m)


def evolve(
    system: CoupledModeSystem,
    pulses: PulseSequence,
    t_span: tuple[float, float],
    dt: float,
    a0: complex = 0.0,
    b0: complex = 0.0,
) -> Trajectory:
    """Fixed-step RK4 trajectory of the driven two-mode system.

    dt must satisfy the resolution guard of max_stable_dt() and t_span
    must cover every pulse; violations raise ValueError (with a suggested
    step).  The step is trimmed so the span divides evenly; results are
    deterministic.
    """
    t0, t1 = t_span
    if not t1 > t0:
        raise ValueError("t_span must have positive length")
    if dt <= 0:
        raise ValueError("dt must be positive")
    guard = max_stable_dt(system, pulses)
    if dt > guard * (1.0 + 1e-12):
        raise ValueError(
            f"dt={dt:.3e} s violates the resolution guard; use dt <= {guard:.3e} s"
        )
    lo, hi = pulses.span()
    if pulses.gate_pulses or pulses.rf is not None:
        if lo < t0 - 1e-18 or hi > t1 + 1e-18:
            raise ValueError("t_span must cover all pulses")

    w_d = _frame_carrier(system, pulses)
    delta_a = system.omega_a - w_d
    delta_b = system.omega_b - w_d
    kappa = system.kappa_ext + system.kappa_int_a
    ca = -(1j * delta_a + 0.5 * kappa)
    cb = -(1j * delta_b + 0.5 * system.gamma_b)
    root_k = math.sqrt(system.kappa_ext)

    n_steps = max(int(math.ceil((t1 - t0) / dt - 1e-9)), 1)
    h = (t1 - t0) / n_steps
    half_grid = t0 + 0.5 * h * np.arange(2 * n_steps + 1)

    g_fn = coupling_schedule(pulses.gate_pulses, system.g_on, system.g_off)
    g_arr = np.asarray(g_fn(half_grid), dtype=float)
    if pulses.rf is not None:
        ain_arr = np.asarray(pulses.rf.baseband(half_grid), dtype=complex)
    else:
        ain_arr = np.zeros(2 * n_steps + 1, dtype=complex)

    a = complex(a0)
    b = complex(b0)
    a_hist = np.empty(n_steps + 1, dtype=complex)
    b_hist = np.empty(n_steps + 1, dtype=complex)
    a_hist[0] = a
    b_hist[0] = b

    for n in range(n_steps):
        i0, i1, i2 = 2 * n, 2 * n + 1, 2 * n + 2
        g0, g1, g2 = g_arr[i0], g_arr[i1], g_arr[i2]
        f0, f1, f2 = ain_arr[i0], ain_arr[i1], ain_arr[i2]

        k1a = ca * a - 1j * g0 * b + root_k * f0
        k1b = cb * b - 1j * g0 * a
        a1 = a + 0.5 * h * k1a
        b1 = b + 0.5 * h * k1b
        k2a = ca * a1 - 1j * g1 * b1 + root_k * f1
        k2b = cb * b1 - 1j * g1 * a1
        a2 = a + 0.5 * h * k2a
        b2 = b + 0.5 * h * k2b
        k3a = ca * a2 - 1j * g1 * b2 + root_k * f1
        k3b = cb * b2 - 1j * g1 * a2
        a3 = a + h * k3a
        b3 = b + h * k3b
        k4a = ca * a3 - 1j * g2 * b3 + root_k * f2
        k4b = cb * b3 - 1j * g2 * a3

        a = a + (h / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        b = b + (h / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        a_hist[n + 1] = a
        b_hist[n + 1] = b

    if not (np.all(np.isfinite(a_hist.view(float))) and np.all(np.isfinite(b_hist.view(float)))):
        raise ArithmeticError("trajectory diverged; reduce dt")
    times = t0 + h * np.arange(n_steps + 1)
    a_out = ain_arr[0::2] - root_k * a_hist
    return Trajectory(times=times, a=a_hist, b=b_hist, a_out=a_out)


# ------------------------- protocols -------------------------


@dataclass(frozen=True)
class WriteResult:
    fidelity: float
    trajectory: Trajectory


@dataclass(frozen=True)
class ReadResult:
    recovered_fraction: float
    emitted: tuple[np.ndarray, np.ndarray]
    trajectory: Trajectory


def write_protocol(
    system: CoupledModeSystem,
    rf: RfPulse,
    gate_on_level: JjState | None = None,
    gate_rise: float = 0.0,
    gate_at: float | None = None,
    settle: float | None = None,
    dt: float | None = None,
    engage_gate: bool = True,
) -> WriteResult:
    """Load the coupler through the feedline, then swap into the cavity.

    The RF pulse loads mode a while the gate stays OFF; a DC gate pulse of
    one swap duration transfers the excitation into mode b.  The gate
    fires at the RF pulse end (rectangular envelopes) unless gate_at
    overrides it, e.g. to the envelope peak of a gaussian pulse.  Fidelity
    is |b(end)|^2 normalized to the peak loaded energy max_t |a(t)|^2.
    With engage_gate=False the gate pulse is omitted (isolation
    measurement) over the same time window.
    """
    t_swap = swap_duration(system.g_on) if system.g_on > 0 else rf.duration
    level = gate_on_level if gate_on_level is not None else On(220e-12)
    t_gate = gate_at if gate_at is not None else rf.end
    gates = ()
    if engage_gate:
        gates = (GatePulse(start=t_gate, duration=t_swap, rise=gate_rise, level=level),)
    if settle is None:
        settle = max(2.0 * t_swap, 0.02 * rf.duration)
    pulses = PulseSequence(rf=rf, gate_pulses=gates)
    t_end = max(rf.end, t_gate + (t_swap if engage_gate else 0.0) + gate_rise) + settle
    if dt is None:
        dt = 0.25 * max_stable_dt(system, pulses)
    traj = evolve(system, pulses, (min(0.0, rf.start), t_end), dt)
    peak = float(np.max(traj.e_a))
    if peak == 0.0:
        return WriteResult(fidelity=0.0, trajectory=traj)
    return WriteResult(fidelity=float(traj.e_b[-1]) / peak, trajectory=traj)


def read_protocol(
    system: CoupledModeSystem,
    gate_on_level: JjState | None = None,
    gate_rise: float = 0.0,
    emit_time: float | None = None,
    dt: float | None = None,
) -> ReadResult:
    """Swap the stored excitation back to the coupler and emit it.

    Starts from b = 1, a = 0; the gate is ON for one swap duration, then
    OFF while the excitation leaves through the feedline.  The recovered
    fraction is the emitted energy integral normalized to the stored
    energy.
    """
    if system.g_on <= 0:
        raise ValueError("read protocol requires a positive gate-ON coupling")
    t_swap = swap_duration(system.g_on)
    if emit_time is None:
        emit_time = 8.0 / system.kappa_ext if system.kappa_ext > 0 else 10.0 * t_swap
    level = gate_on_level if gate_on_level is not None else On(220e-12)
    pulses = PulseSequence(
        rf=None,
        gate_pulses=(GatePulse(start=0.0, duration=t_swap, rise=gate_rise, level=level),),
    )
    if dt is None:
        dt = 0.25 * max_stable_dt(system, pulses)
    traj = evolve(system, pulses, (0.0, t_swap + gate_rise + emit_time), dt, a0=0.0, b0=1.0)
    emitted_power = np.abs(traj.a_out) ** 2
    recovered = float(np.trapezoid(emitted_power, traj.times))
    return ReadResult(
        recovered_fraction=recovered,
        emitted=(traj.times, traj.a_out),
        trajectory=traj,
    )
