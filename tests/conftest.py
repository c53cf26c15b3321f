import sys

import numpy as np
import pytest

from qmemsim import twoport
from qmemsim.array import build_array, _cell_models
from qmemsim.calibrate import CalibrationTargets, calibrate_geometry
from qmemsim.config import example_template
from qmemsim.extract import extract_coupled_mode_params
from qmemsim.modemap import fit_avoided_crossing, mode_map

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
