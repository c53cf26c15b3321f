import math
import sys

import numpy as np
import pytest

from qmemsim import twoport
from qmemsim.array import build_array, _cell_models
from qmemsim.calibrate import CalibrationTargets, calibrate_geometry
from qmemsim.config import example_template
from qmemsim.dynamics import TWO_PI, ReadCascade, max_stable_dt
from qmemsim.extract import extract_coupled_mode_params
from qmemsim.modemap import fit_avoided_crossing, mode_map
from qmemsim.resonance import ResonancePeak, db

TARGETS = (6.55e9, 6.65e9, 6.70e9, 6.75e9)
ANCHOR = 220e-12
Q_C = 2000.0


@pytest.fixture
def chain_calls(monkeypatch):
    """Frequency-array sizes of every network evaluation made during the
    test: each input_impedance and each chain_abcd call, counted in every
    qmemsim module that holds either function."""
    calls = []

    def counting(original):
        def counted(*args):
            calls.append(np.size(args[-1]))
            return original(*args)
        return counted

    for fn in (twoport.input_impedance, twoport.chain_abcd):
        wrapped = counting(fn)
        for name, module in list(sys.modules.items()):
            if name.startswith("qmemsim") and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, wrapped)
    return calls


def assert_piece_steps(system, pulses, times, dt):
    """Check the step grid `times` of an evolve call at step dt against the
    piece rule.  The grid holds every gate and RF edge inside its span.
    Each piece between two edges runs in even steps, as few as keep each
    step within dt times the piece's own resolution guard over
    max_stable_dt().  A piece's guard is 50 steps per period of the
    fastest rate acting in it: every cell's detunings from the frame and
    decays, the first cell's g_on inside a gate pulse and g_off outside,
    every other cell's g_off (a ReadCascade's neighbour) and 1 / sigma
    where the RF pulse drives."""
    rf = pulses.rf
    cells = (system.reader, system.neighbour) if isinstance(system, ReadCascade) else (system,)
    grid = times.tolist()
    edges = {t for p in pulses.gate_pulses for t in (p.start, p.end)}
    edges |= set() if rf is None else {rf.start, rf.end}
    edges = sorted(t for t in edges if grid[0] < t < grid[-1])
    assert set(edges) <= set(grid)
    w_d = cells[0].omega_b if rf is None else TWO_PI * rf.carrier
    guard = max_stable_dt(system, pulses)
    marks = [0, *(grid.index(t) for t in edges), len(grid) - 1]
    for k0, k1 in zip(marks, marks[1:]):
        mid = 0.5 * (grid[k0] + grid[k1])
        gated = any(p.start <= mid < p.end for p in pulses.gate_pulses)
        driven = rf is not None and rf.start <= mid < rf.end
        fastest = max(*(r for c in cells for r in (abs(c.omega_a - w_d), abs(c.omega_b - w_d),
                                                   c.kappa_ext + c.kappa_int_a, c.gamma_b)),
                      cells[0].g_on if gated else cells[0].g_off,
                      *(c.g_off for c in cells[1:]), 1.0 / rf.sigma if driven else 0.0)
        own = math.inf if fastest == 0 else TWO_PI / (50.0 * fastest)
        bound = dt if guard == math.inf else dt * own / guard
        steps = np.diff(times[k0:k1 + 1])
        assert np.all(steps <= bound * (1.0 + 1e-9))
        assert np.ptp(steps) <= 1e-6 * steps[0]
        # one step fewer would not do
        assert k1 - k0 == 1 or (grid[k1] - grid[k0]) / (k1 - k0 - 1) > bound * (1.0 - 1e-9)


def scalar_peak(f_zero, f_pole) -> ResonancePeak:
    """The scalar notch read-out of one zero and one pole, written out as
    peak_from_roots() had it before the column read-out: the oracle of
    resonance.notch_readout() and of the mode map's row read-out."""
    fz, fp = complex(f_zero), complex(f_pole)
    if not (fz.imag >= 0 and fp.imag > 0):  # nan fails too
        raise ValueError("a passive branch has Im f_zero >= 0 and Im f_pole > 0")
    ql = fp.real / (2.0 * fp.imag)
    if fz.imag == 0:  # lossless: Q_c = Q_l
        return ResonancePeak(fz.real, -float(db(0.0)), ql, ql, None)
    qi = fz.real / (2.0 * fz.imag)
    qc = 1.0 / (1.0 / ql - 1.0 / qi) if qi > ql else None
    return ResonancePeak(fz.real, -float(db(ql / qi)), ql, qc, qi)


def recorded_fits(monkeypatch, module):
    """(residuals, jacobian, p0, result) of every levenberg_marquardt call
    `module` makes from here on."""
    calls = []
    real = module.levenberg_marquardt

    def record(residuals, jacobian, p0):
        calls.append((residuals, jacobian, np.array(p0), real(residuals, jacobian, p0)))
        return calls[-1][-1]

    monkeypatch.setattr(module, "levenberg_marquardt", record)
    return calls


@pytest.fixture(scope="session")
def template():
    return example_template()


@pytest.fixture(scope="session")
def cell(template):
    """The calibrated 6.55 GHz example cell; computed once per session."""
    return calibrate_geometry(
        CalibrationTargets(f_sc=TARGETS[0], l_anchor=ANCHOR, q_c=Q_C), template
    )


@pytest.fixture(scope="session")
def standard_map(cell):
    """61-point mode map over the full 10-500 pH sweep."""
    return mode_map(cell, np.linspace(10e-12, 500e-12, 61))


@pytest.fixture(scope="session")
def crossing(standard_map):
    return fit_avoided_crossing(standard_map)


@pytest.fixture(scope="session")
def cell_system(cell, crossing):
    """Reduced coupled-mode system of the example cell at its crossing."""
    return extract_coupled_mode_params(cell, crossing)


@pytest.fixture(scope="session")
def array(template):
    """Four-cell multiplexed array calibrated to the band plan."""
    return build_array(TARGETS, template, l_anchor=ANCHOR, q_c=Q_C)


@pytest.fixture(scope="session")
def array_models(array):
    return _cell_models(array)
