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

The system is linear, so each RK4 step is the exact affine map
x_{n+1} = x_n + Q x_n + r_n, with Q and the drive weights in r_n read off
the RK4 stage formula applied to the basis of the state and the drive
samples, for the equations' generator [A | B], dx/dt = A x + B a_in(t).
g(t) changes only at the gate edges and the drive only at the RF pulse's,
so evolve() cuts the span there and runs each piece at its one coupling,
wholly driven or undriven, in even steps at one fraction of the piece's
own resolution guard: the gate-OFF stretches, where g_on does not act,
step coarser than the swap.  The step maps of all pieces of one call, and
the powers of each map that the scan lifts its blocks with, are built
together in a few batched matrix products, so a short piece costs little
more than its steps.  Each piece is a blocked scan in numpy: blocks of
_BLOCK_STEPS steps run from a zero state side by side, a doubling scan
carries the state from block to block, and one matrix product lifts every
block onto its carried-in state.  An undriven piece's zero state is
exactly 0, so it skips that first pass.  The result matches the
step-by-step loop to round-off.

A piece is scanned in chunks of at most _CHUNK_STEPS steps, each in place
in the trajectory evolve() returns, from the last state of the one before;
the scan's scratch buffers are chunk-sized, so beyond the trajectory
itself a call's memory does not grow with its span.

A read's idle neighbour sees the field the reader emits.  evolve() takes
a ReadCascade as one linear system of four components, the reader's
a_out = -sqrt(k_ext) a driving the neighbour's coupler, on the same scan:
no emitted field is sampled or interpolated.

Between samples a trajectory is read off RK4's dense output, the cubic
Hermite interpolant through each step's end values and its end slopes
from the equations above, each step at its own coupling and drive:
fourth order, like the steps.  coupler_peak() takes every peak max |a|^2
on it, and read_protocol() integrates the emitted energy on it.  That is
what lets the protocols step at the whole resolution guard
(DT_FRACTION = 1).

A Trajectory carries the system and pulses evolve() integrated, and each
is reduced once: coupler_slopes() and coupler_peak() take it alone, and a
WriteResult keeps the peak its fidelity divides by.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .checks import require

TWO_PI = 2.0 * math.pi


# ------------------------- pulse schedule -------------------------


@dataclass(frozen=True)
class RfPulse:
    """Feedline drive pulse.

    carrier : Hz (sets the rotating frame); amplitude : sqrt(photons/s)
    sigma : s, width of the gaussian envelope centered in the window (inf: rectangle)
    """

    carrier: float
    amplitude: float
    start: float
    duration: float
    sigma: float = math.inf

    def __post_init__(self):
        require(self, "finite", "carrier", "amplitude", "start", "duration")
        require(self, "positive", "carrier", "duration", "sigma")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def envelope(self, t):
        """Complex drive amplitude in the rotating frame at time(s) t as
        seen from inside the pulse: its value on [start, end], edges
        included, continued past them."""
        t = np.asarray(t, dtype=float)
        # exp(-0) = 1 exactly: an infinite sigma is the rectangle bit for bit
        mid = self.start + 0.5 * self.duration
        return self.amplitude * np.exp(-0.5 * ((t - mid) / self.sigma) ** 2)


@dataclass(frozen=True)
class GatePulse:
    """One DC gate pulse: g_on over [start, end), switched instantly."""

    start: float
    duration: float

    def __post_init__(self):
        require(self, "finite", "start", "duration")
        require(self, "positive", "duration")

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class PulseSequence:
    """RF drive plus a non-overlapping list of gate pulses."""

    rf: RfPulse | None = None
    gate_pulses: tuple[GatePulse, ...] = ()

    def __post_init__(self):
        pulses = sorted(self.gate_pulses, key=lambda p: p.start)
        for left, right in zip(pulses, pulses[1:]):
            if right.start < left.end:
                raise ValueError("gate pulses must not overlap")


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
        names = ("omega_a", "omega_b", "kappa_ext", "kappa_int_a", "gamma_b", "g_on", "g_off")
        require(self, "finite", *names)
        require(self, "non-negative", *names)


@dataclass(frozen=True)
class ReadCascade:
    """A read's idle neighbour, integrated by evolve() together with the
    reading cell in the reader's frame.  The reader starts from evolve's
    (a0, b0) and runs the read's gate pulses; the neighbour starts empty at
    its gate-OFF floor, its coupler driven by the reader's emitted field
    -sqrt(kappa_ext) a (a cascaded system: Gardiner, PRL 70, 2269 (1993))."""

    reader: CoupledModeSystem
    neighbour: CoupledModeSystem


@dataclass(frozen=True)
class Trajectory:
    """One evolution of system under pulses: row n of x is the state at
    times[n], (a, b) of each cell in turn (one cell, or a ReadCascade's
    reader and neighbour); a and b are the first cell's."""

    system: CoupledModeSystem | ReadCascade
    pulses: PulseSequence
    times: np.ndarray
    x: np.ndarray

    @property
    def a(self):
        return self.x[:, 0]

    @property
    def b(self):
        return self.x[:, 1]

    @property
    def e_a(self):
        return np.abs(self.a) ** 2

    @property
    def e_b(self):
        return np.abs(self.b) ** 2


def swap_duration(g_ang: float) -> float:
    """Full-transfer time pi / (2 g) of the resonant two-mode exchange, s."""
    if not g_ang > 0:
        raise ValueError("coupling rate must be positive")
    return math.pi / (2.0 * g_ang)


def _cells(system: CoupledModeSystem | ReadCascade):
    """The cells of system in feedline order, the gated one first."""
    if isinstance(system, ReadCascade):
        return system.reader, system.neighbour
    return (system,)


def _frame_carrier(system: CoupledModeSystem | ReadCascade, pulses: PulseSequence) -> float:
    """Rotating-frame angular frequency: the RF carrier, else the first
    cell's cavity."""
    if pulses.rf is not None:
        return TWO_PI * pulses.rf.carrier
    return _cells(system)[0].omega_b


def _guard(system, w_d, rates):
    """50 steps per period of the fastest of every cell's detunings from
    the frame w_d and decay rates and the further rates given."""
    m = max(*rates, *(max(abs(c.omega_a - w_d), abs(c.omega_b - w_d),
                          c.kappa_ext + c.kappa_int_a, c.gamma_b)
                      for c in _cells(system)))
    return math.inf if m == 0 else TWO_PI / (50.0 * m)


def max_stable_dt(system: CoupledModeSystem | ReadCascade, pulses: PulseSequence) -> float:
    """Largest step honoring the resolution guard (50 steps per period
    of the fastest detuning, coupling or decay rate of any cell).
    evolve() scales a step dt on each piece by the piece's own guard over
    this one."""
    return _guard(system, _frame_carrier(system, pulses),
                  [g for c in _cells(system) for g in (c.g_on, c.g_off)])


def _generator(system, w_d, g):
    """The model's equations dx/dt = A x + B a_in(t) in the frame w_d as
    [A | B], x holding (a, b) of each cell in turn and column W being the
    drive: shape (W, W + 1), or one per value of an array g, g.shape + (W,
    W + 1).  The first cell couples at g and every other one at its g_off
    floor; each coupler takes a_in less the field emitted by the couplers
    before it."""
    cells = _cells(system)
    width = 2 * len(cells)
    g = np.asarray(g, dtype=float)
    gen = np.zeros(g.shape + (width, width + 1), dtype=complex)
    for k, cell in enumerate(cells):
        a, b = 2 * k, 2 * k + 1
        for j, upstream in enumerate(cells[:k]):
            gen[..., a, 2 * j] = -math.sqrt(cell.kappa_ext * upstream.kappa_ext)
        gen[..., a, a] = -(1j * (cell.omega_a - w_d) + 0.5 * (cell.kappa_ext + cell.kappa_int_a))
        gen[..., a, b] = gen[..., b, a] = -1j * (g if k == 0 else cell.g_off)
        gen[..., a, width] = math.sqrt(cell.kappa_ext)
        gen[..., b, b] = -(1j * (cell.omega_b - w_d) + 0.5 * cell.gamma_b)
    return gen


def _step_maps(gen, h):
    """The change of the state over one classical RK4 step of each piece,
    on the basis of the W state components and the three drive samples:
    [Q | m0 m1 m2], shape (S, W, W + 3), for the generators gen, (S, W,
    W + 1), and the steps h, (S,).  A step takes x to x + Q x + m0 f(t) +
    m1 f(t + h/2) + m2 f(t + h).

    The RK4 stage formula, run on the whole basis at once: Q is read off
    the increment, never formed as P - I, which would bias every step by
    its round-off.
    """
    width = gen.shape[-2]
    a, b = gen[..., :width], gen[..., width:]
    h = np.asarray(h, dtype=float)[:, None, None]
    y = np.eye(width, width + 3)
    # the drive sample each basis vector carries at the stage's sample
    u0, u1, u2 = np.eye(3, width + 3, width)[:, None, :]
    k1 = a @ y + b * u0
    k2 = a @ (y + (0.5 * h) * k1) + b * u1
    k3 = a @ (y + (0.5 * h) * k2) + b * u1
    k4 = a @ (y + h * k3) + b * u2
    return (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _doubling_scan(y, q):
    """Scan y in place along its last axis: y_j <- sum_{i<=j} P^i y_{j-i},
    where P = I + q acts on axis -2, the state's components.

    Hillis & Steele doubling (CACM 29, 1170): pass d = 1, 2, 4, ... adds
    P^d y_{j-d} to every y_j, j >= d.  P^d is carried as P^d - I, keeping
    the round-off relative to the change per step, not to the state.
    """
    n = y.shape[-1]
    d = 1
    while d < n:
        t = q @ y[..., :n - d]
        t += y[..., :n - d]
        y[..., d:] += t
        if 2 * d < n:
            # P^(2d) - I = (P^d - I)^2 + 2 (P^d - I)
            q = q @ q + q + q
        d *= 2


# Steps per block of the scan; any length gives the same trajectory to
# round-off, and 16 to 24 ran fastest on an 8192-step chunk
_BLOCK_STEPS = 16


# Steps per chunk: evolve() scans each piece in chunks of at most this many
# steps, so the scratch arrays of a call stay about 1 MB however long its
# span
_CHUNK_STEPS = 8192


def _scan_chunk(x, m, step_map, lift, ain):
    """m steps of one piece from the state in row 0 of x, written into rows
    1..m; ain holds the drive on the chunk's half-step grid, or None.

    Each step is x_{n+1} = x_n + Q x_n + r_n with r_n = m0 f(t_n) +
    m1 f(t_n + h/2) + m2 f(t_n + h); Q and the m are the columns of
    step_map, the increment of one RK4 step on the basis of the W state
    components and the three drive samples.  lift stacks P^(k+1) - I for
    k < K, P = I + Q, as (WK, W).  The steps are cut into B blocks of K
    steps, the rows of x seen as (B, K, W).
    1. Zero state (_zero_state(), driven chunks only): every block runs
       from a zero state under its own drive.  An undriven block's zero
       state is exactly 0, so its rows stay 0 and its end is 0.
    2. Carry: block j starts from c_j = e_{j-1} + P^K c_{j-1}, c_0 = x_0,
       e being a block's zero-state end: a doubling scan over the blocks.
    3. Lift: one GEMM, lift times the (W, B) carries, into a (K, W, B)
       buffer; it and the carries are added to the zero-state rows in x.
    x needs K - 1 padding rows past row m; they are zeroed here, and what
    they hold never reaches rows 1..m.
    """
    width = x.shape[1]
    k_len = len(lift) // width
    n_blocks = -(-m // k_len)
    z = x[1:1 + n_blocks * k_len].reshape(n_blocks, k_len, width)
    z[...] = 0.0
    buf = np.empty((k_len, width, n_blocks), dtype=complex)
    starts = np.zeros((width, n_blocks), dtype=complex)
    starts[:, 0] = x[0]
    if ain is not None:
        _zero_state(z, m, step_map, ain, buf)
        starts[:, 1:] = buf[-1, :, :-1]
    _doubling_scan(starts, lift[-width:])
    np.matmul(lift, starts, out=buf.reshape(width * k_len, n_blocks))
    z += buf.transpose(2, 0, 1)
    z += starts.T[:, None, :]


def _zero_state(z, m, step_map, ain, buf):
    """Stage 1 of _scan_chunk(): the first m rows of the zeroed blocks z,
    (B, K, W), take each block's states from a zero state under the drive
    ain, and so does buf, a (K, W, B) scratch buffer in which row k holds
    step k of every block: K - 1 steps, each one (W, W) @ (W, B) matmul
    and two adds."""
    width = z.shape[2]
    q = step_map[:, :width]
    rows = z.reshape(-1, width)[:m]
    m0, m1, m2 = (step_map[:, width + j] for j in range(3))
    f0, f1, f2 = (ain[j:2 * m + j:2] for j in range(3))
    # elementwise, not a matmul over a strided window: that copies the drive
    for c in range(width):
        np.multiply(f0, m0[c], out=rows[:, c])
        rows[:, c] += m1[c] * f1
        rows[:, c] += m2[c] * f2
    # an explicit copy: for B == 1 the transposed view is already
    # contiguous, and ascontiguousarray would hand back z itself
    buf[...] = z.transpose(1, 2, 0)
    step = np.empty(buf.shape[1:], dtype=complex)
    for k in range(1, len(buf)):
        np.matmul(q, buf[k - 1], out=step)
        step += buf[k - 1]
        buf[k] += step
    z[...] = buf.transpose(2, 0, 1)


def _pieces(system, pulses, t_span, dt):
    """Check an integration and cut its span at the gate and RF edges.

    Returns one (start, steps, step, g, rf, end) tuple per piece: g is the
    first cell's one coupling on the piece, rf is the RF pulse if it drives
    the piece and None if not, and end is the piece's last sample: the
    next piece's start, or t_span's end for the last piece.  Each piece steps at the fraction dt / max_stable_dt() of its
    own guard, which counts the piece's coupling, g_on or g_off, in place
    of every coupling, and the envelope rate 1 / sigma if driven.
    """
    t0, t1 = t_span
    if not t1 > t0:
        raise ValueError("t_span must have positive length")
    if not dt > 0:
        raise ValueError("dt must be positive")
    guard = max_stable_dt(system, pulses)
    if dt > guard * (1.0 + 1e-12):
        raise ValueError(
            f"dt={dt:.3e} s violates the resolution guard; use dt <= {guard:.3e} s"
        )
    # g(t) changes only at the gate edges and the drive only at the RF
    # edges: each piece has one coupling and is wholly driven or undriven
    rf = pulses.rf
    edges = {t for p in pulses.gate_pulses for t in (p.start, p.end)}
    edges |= set() if rf is None else {rf.start, rf.end}
    if edges and (min(edges) < t0 - 1e-18 or max(edges) > t1 + 1e-18):
        raise ValueError("t_span must cover all pulses")
    cuts = [t0, *sorted(t for t in edges if t0 < t < t1), t1]
    mids = 0.5 * (np.array(cuts[:-1]) + np.array(cuts[1:]))
    w_d = _frame_carrier(system, pulses)
    cells = _cells(system)
    pieces = []
    couplings, driven = _timeline(system, pulses, mids)
    for ta, tb, g, on in zip(cuts, cuts[1:], couplings.tolist(), driven.tolist()):
        rates = [g, *(c.g_off for c in cells[1:]), 1.0 / rf.sigma if on else 0.0]
        # with no rate at all the guard is infinite and dt the step throughout
        h = dt if guard == math.inf else dt * (_guard(system, w_d, rates) / guard)
        n = max(int(math.ceil((tb - ta) / h - 1e-9)), 1)
        pieces.append((ta, n, (tb - ta) / n, g, rf if on else None, tb))
    return pieces


def _timeline(system, pulses, t):
    """(g, driven) at time(s) t: the first cell's coupling, g_on inside a
    gate pulse and the g_off floor outside, and whether the RF pulse drives,
    inside [start, end)."""
    gated, rf = _cells(system)[0], pulses.rf
    on = np.zeros(np.shape(t), dtype=bool)
    for p in pulses.gate_pulses:
        on |= (p.start <= t) & (t < p.end)
    driven = np.zeros(np.shape(t), dtype=bool) if rf is None else (rf.start <= t) & (t < rf.end)
    return np.where(on, gated.g_on, gated.g_off), driven


def evolve(
    system: CoupledModeSystem | ReadCascade,
    pulses: PulseSequence,
    t_span: tuple[float, float],
    dt: float,
    a0: complex = 0.0,
    b0: complex = 0.0,
) -> Trajectory:
    """Fixed-step RK4 trajectory of the driven two-mode system, or of a
    ReadCascade's reader and neighbour, from (a0, b0) in the first cell and
    every other cell empty.

    dt must satisfy the resolution guard of max_stable_dt() and t_span
    must cover every pulse; violations raise ValueError (with a suggested
    step).  The span is cut at every gate and RF edge, and each piece runs
    at its one coupling, wholly driven or undriven, in even steps of at
    most dt scaled by the piece's own guard over max_stable_dt(), as one
    exact recurrence (see the module docstring); results are deterministic.
    The samples run from t_span's start to its end exactly, every edge
    inside it among them.
    A driven chunk takes its drive straight from RfPulse.envelope() on its
    half-step grid, so a step that ends on the pulse's end sees the drive
    from inside.  A non-finite state raises ArithmeticError.
    """
    pieces = _pieces(system, pulses, t_span, dt)
    width = 2 * len(_cells(system))
    n_steps = sum(n for _, n, *_ in pieces)
    times = np.empty(n_steps + 1)
    # the scan pads a chunk with _BLOCK_STEPS - 1 rows past its last step
    x = np.empty((n_steps + _BLOCK_STEPS, width), dtype=complex)
    x[0] = 0.0
    x[0, :2] = a0, b0
    # every piece's step map and lifts, built once for the whole call
    _, counts, steps, couplings, _, _ = zip(*pieces)
    maps = _step_maps(_generator(system, _frame_carrier(system, pulses), couplings), steps)
    # column c of P^(k+1) - I, k < K, P = I + Q, is sum_{i<=k} P^i Q[:, c]:
    # one doubling scan of K copies of Q's columns
    q = maps[..., :width]
    lifts = np.repeat(q.transpose(0, 2, 1)[..., None], min(_BLOCK_STEPS, max(counts)), axis=-1)
    _doubling_scan(lifts, q[:, None])
    lifts = lifts.transpose(0, 3, 2, 1).reshape(len(pieces), -1, width)
    s = 0
    for (ta, n, h, _, rf, tb), step_map, lift in zip(pieces, maps, lifts):
        # a piece shorter than a block is one block of its own length
        lift = lift[:width * min(_BLOCK_STEPS, n)]
        for j in range(0, n, _CHUNK_STEPS):
            m = min(n - j, _CHUNK_STEPS)
            t = times[s:s + m + 1]
            # ta + h k for the chunk's steps k
            np.multiply(np.arange(j, j + m + 1), h, out=t)
            t += ta
            if j + m == n:
                t[-1] = tb
            ain = None
            if rf is not None:
                # the drive at each step's ends and midpoint, the midpoint
                # being the mean of the step's ends as returned in times:
                # ta + h (n + 1/2) can round to the other side of a drive edge
                half = np.empty(2 * m + 1)
                half[0::2] = t
                np.add(t[:-1], t[1:], out=half[1::2])
                half[1::2] *= 0.5
                ain = rf.envelope(half)
            _scan_chunk(x[s:], m, step_map, lift, ain)
            if not np.isfinite(x[s:s + m + 1]).all():
                raise ArithmeticError("trajectory diverged; reduce dt")
            s += m
    return Trajectory(system, pulses, times, x[:n_steps + 1])


def _hermite_cubic(h, v0, v1, s0, s1):
    """Coefficients (c3, c2, c1, c0) of the cubic in x = (t - t0) / h on
    [0, 1] that takes the values v0, v1 and the slopes s0, s1 (per unit t)
    at its ends."""
    return (2.0 * (v0 - v1) + h * (s0 + s1), 3.0 * (v1 - v0) - h * (2.0 * s0 + s1), h * s0, v0)


def coupler_slopes(traj: Trajectory):
    """a'(t) of the trajectory's last coupler (a ReadCascade's neighbour)
    from the model's equations, at both ends of every step, each step at
    its own coupling and drive: shape (len(times) - 1, 2), start and end.
    At a gate or RF edge the two steps that meet there take different
    slopes."""
    system, pulses, times, x = traj.system, traj.pulses, traj.times, traj.x
    mids = 0.5 * (times[:-1] + times[1:])
    width = x.shape[1]
    m = width - 2
    g, on = _timeline(system, pulses, mids)
    # the coupler's row of every step's [A | B], and (x, a_in) at both ends
    row = _generator(system, _frame_carrier(system, pulses), g)[:, m]
    ends = np.zeros((len(times) - 1, 2, width + 1), dtype=complex)
    ends[:, 0, :-1] = x[:-1]
    ends[:, 1, :-1] = x[1:]
    if pulses.rf is not None:
        # a driven step takes the drive from inside the pulse at both ends
        f = pulses.rf.envelope(times)
        ends[on, 0, -1] = f[:-1][on]
        ends[on, 1, -1] = f[1:][on]
    # coefficient times value, summed in order: the coupler's own term, the
    # other components by index, then the drive
    order = [m, *range(m), *range(m + 1, width), width]
    return np.add.accumulate((row[:, None] * ends)[..., order], axis=-1)[..., -1]


def coupler_peak(traj: Trajectory) -> float:
    """Peak coupler energy max_t |a(t)|^2 of a trajectory, a being its last
    coupler (a ReadCascade's neighbour).

    The maximum is taken on the cubic Hermite interpolant of the steps on
    either side of the largest sample, with slopes from coupler_slopes():
    the dense output of RK4, fourth order like the steps themselves
    (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.6).  On each step it
    is exact: |p(u)|^2 is a degree-6 polynomial in u = (t - t0) / h, and
    its maximum lies at a sample or at a real root of its derivative.
    """
    a = traj.x[:, -2]
    energy = np.abs(a) ** 2
    k = int(np.argmax(energy))
    w = slice(max(k - 1, 0), k + 2)
    t, aw = traj.times[w], a[w]
    slopes = coupler_slopes(replace(traj, times=t, x=traj.x[w])).tolist()
    peak = float(energy[k])
    # a window of at most two steps: Python numbers cost less than arrays
    for h, a0, a1, (s0, s1) in zip(np.diff(t).tolist(), aw[:-1].tolist(), aw[1:].tolist(),
                                   slopes):
        c = _hermite_cubic(h, a0, a1, s0, s1)[::-1]
        # p is a convex combination of its Bernstein control points a0,
        # a0 + c1 / 3, a1 - h s1 / 3 and a1, so |p| is at most the largest
        # of them: a step whose points stay within the peak cannot pass it
        if max(abs(a0 + c[1] / 3.0), abs(a1 - h * s1 / 3.0)) ** 2 <= peak:
            continue
        # |p(u)|^2 = sum_j e_j u^j, e_j = sum_{m + n = j} Re(c_m conj(c_n))
        e = [sum((c[m] * c[j - m].conjugate()).real for m in range(max(0, j - 3), min(j, 3) + 1))
             for j in range(7)]
        # a complex root's real part is one more point of the step, so trying
        # it too can only find a value the interpolant takes
        for u in np.roots([j * e[j] for j in range(6, 0, -1)]).real.tolist():
            if 0.0 < u < 1.0:
                peak = max(peak, abs(((c[3] * u + c[2]) * u + c[1]) * u + c[0]) ** 2)
    return peak


# ------------------------- protocols -------------------------

#: Default step of the protocols as a fraction of max_stable_dt()'s guard;
#: the config's dynamics.dt_fraction_of_guard defaults to it as well
DT_FRACTION = 1.0


@dataclass(frozen=True)
class WriteResult:
    fidelity: float
    trajectory: Trajectory
    peak: float  # the trajectory's coupler_peak(), fidelity's denominator


@dataclass(frozen=True)
class ReadResult:
    recovered_fraction: float
    trajectory: Trajectory


def write_pulses(system: CoupledModeSystem, rf: RfPulse,
                 engage_gate: bool = True) -> tuple[PulseSequence, float]:
    """Pulses of write_protocol() and the time (s) it ends: a gate ON for one
    swap from the envelope's peak, the RF end for a rectangle and its middle
    for a gaussian, unless engage_gate is False, then max(2 t_swap, 0.02
    rf.duration) after the later pulse end.  A write needs a swap: g_on = 0
    raises ValueError."""
    t_swap = swap_duration(system.g_on)
    t_gate = rf.end if rf.sigma == math.inf else rf.start + 0.5 * rf.duration
    gates = (GatePulse(start=t_gate, duration=t_swap),) if engage_gate else ()
    settle = max(2.0 * t_swap, 0.02 * rf.duration)
    t_end = max(rf.end, t_gate + (t_swap if engage_gate else 0.0)) + settle
    return PulseSequence(rf=rf, gate_pulses=gates), t_end


def write_protocol(
    system: CoupledModeSystem,
    rf: RfPulse,
    engage_gate: bool = True,
    dt_fraction: float = DT_FRACTION,
) -> WriteResult:
    """Load the coupler through the feedline, then swap into the cavity.

    The RF pulse loads mode a while the gate stays OFF; a DC gate pulse of
    one swap duration transfers the excitation into mode b.  The gate
    fires at the envelope's peak (write_pulses()): the middle of a gaussian
    pulse, the end of a rectangular one.  Fidelity is |b(end)|^2 normalized
    to the peak loaded energy max_t |a(t)|^2 of coupler_peak().
    With engage_gate=False the gate pulse is omitted (isolation
    measurement).  The step is dt_fraction of the resolution guard.
    """
    pulses, t_end = write_pulses(system, rf, engage_gate)
    dt = dt_fraction * max_stable_dt(system, pulses)
    traj = evolve(system, pulses, (min(0.0, rf.start), t_end), dt)
    peak = coupler_peak(traj)
    # |b(end)|^2 by e_b's own array ops, without e_b's full-length arrays
    stored = float((np.abs(traj.b[-1:]) ** 2)[0])
    return WriteResult(fidelity=stored / peak if peak else 0.0, trajectory=traj, peak=peak)


def read_duration(system: CoupledModeSystem) -> float:
    """Time span (s) of read_protocol(): one swap duration, then 8 / kappa_ext
    of emission (10 swap durations without a port)."""
    t_swap = swap_duration(system.g_on)
    return t_swap + (8.0 / system.kappa_ext if system.kappa_ext > 0 else 10.0 * t_swap)


def read_protocol(system: CoupledModeSystem, dt_fraction: float = DT_FRACTION) -> ReadResult:
    """Swap the stored excitation back to the coupler and emit it.

    Starts from b = 1, a = 0; the gate is ON for one swap duration, then
    OFF while the excitation leaves through the feedline, until
    read_duration().  The recovered fraction is the emitted energy
    kappa_ext int |a|^2 dt normalized to the stored energy, integrated on
    the dense output by the corrected trapezoid: per step h/2 (e0 + e1) +
    h^2/12 (e0' - e1'), e = |a|^2 and e' = 2 Re(conj(a) a') with a' from
    coupler_slopes(), exact for a cubic and fourth order like the steps.
    The step is dt_fraction of the resolution guard; g_on = 0 raises
    ValueError.
    """
    gate = GatePulse(start=0.0, duration=swap_duration(system.g_on))
    pulses = PulseSequence(rf=None, gate_pulses=(gate,))
    dt = dt_fraction * max_stable_dt(system, pulses)
    traj = evolve(system, pulses, (0.0, read_duration(system)), dt, a0=0.0, b0=1.0)
    # the emitted field of an undriven read is -sqrt(kappa_ext) a
    a, h = traj.a, np.diff(traj.times)
    slopes = coupler_slopes(traj)
    e = np.abs(a) ** 2
    de = 2.0 * ((a[:-1].conj() * slopes[:, 0]).real - (a[1:].conj() * slopes[:, 1]).real)
    energy = np.sum(0.5 * h * (e[:-1] + e[1:]) + (h * h / 12.0) * de)
    recovered = float(system.kappa_ext * energy)
    return ReadResult(recovered_fraction=recovered, trajectory=traj)
