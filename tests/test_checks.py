"""Input checks: every checked field of a value object fails by name on NaN
and on an out-of-range value, and every function-level check fails on NaN
(and a sweep step or a detection threshold on any value it cannot use)
with its own message instead of surfacing downstream."""
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from qmemsim.array import AccessOp, AccessSchedule, MemoryArray, build_array, run_schedule
from qmemsim.calibrate import CalibrationTargets
from qmemsim.cell import MemoryCell, adaptive_sweep, frequency_sweep, spectrum, tcr_mode_estimate
from qmemsim.dynamics import (
    TWO_PI,
    CoupledModeSystem,
    GatePulse,
    PulseSequence,
    RfPulse,
    evolve,
    read_protocol,
    swap_duration,
    write_protocol,
)
from qmemsim.jjfet import (
    GateModel,
    JjFet,
    critical_current_for_inductance,
    icrn_max_current,
    jj_series_impedance,
    josephson_inductance,
)
from qmemsim.modemap import CrossingFit, mode_map
from qmemsim.resonance import ResonancePeak, find_resonances, peaks_from_roots
from qmemsim.twoport import (
    SHORT,
    LineSection,
    SeriesCapacitor,
    TwoPort,
    element_abcd,
    input_impedance,
    notch_s21,
    to_sparams,
)

NAN = math.nan
W0 = TWO_PI * 6.5e9
CELL = MemoryCell(z0=50.0, eps_eff=6.45, c_in=20e-15, tcr_half_len=4.2e-3, jj=JjFet(1e-6),
                  c_couple=40e-15, sc_len=4.3e-3, line_atten=5e-4)
SYSTEM = CoupledModeSystem(omega_a=W0, omega_b=W0, kappa_ext=TWO_PI * 1e6,
                           g_on=TWO_PI * 100e6, g_off=1e3)

#: a valid instance of each class with checked fields
VALID = {
    LineSection: LineSection(z0=50.0, eps_eff=6.45, length=4e-3, atten=1e-3),
    SeriesCapacitor: SeriesCapacitor(20e-15),
    GateModel: GateModel(v_pinch=-2.0, v_on=0.0, steepness=5.0),
    JjFet: JjFet(i_c_max=1e-6),
    MemoryCell: CELL,
    CalibrationTargets: CalibrationTargets(f_sc=6.55e9, l_anchor=220e-12, q_c=2000.0),
    ResonancePeak: ResonancePeak(f0=6.5e9, depth_db=3.0, q_loaded=1e3),
    CrossingFit: CrossingFit(g=240e6, l_cross=2e-10, f_cross=6.5e9, window=(1e-10, 3e-10),
                             coeffs=(0.0, 0.0, 0.0, 6.5e9), residual_rms=0.0),
    RfPulse: RfPulse(carrier=6.5e9, amplitude=1.0, start=0.0, duration=1e-9, sigma=1e-9),
    GatePulse: GatePulse(start=0.0, duration=1e-9),
    CoupledModeSystem: SYSTEM,
    MemoryArray: MemoryArray(cells=(CELL,), targets=(6.55e9,)),
    AccessOp: AccessOp(op="write", cell_index=0, rf_carrier=6.5e9, rf_duration=1e-6),
}

#: (class, field, one out-of-range value) for every checked field
OUT_OF_RANGE = [
    (LineSection, "z0", 0.0), (LineSection, "eps_eff", 0.5), (LineSection, "length", -1e-3),
    (LineSection, "atten", -1.0),
    (SeriesCapacitor, "c_val", 0.0),
    (GateModel, "steepness", -1.0), (GateModel, "v_pinch", -math.inf),
    (GateModel, "v_on", math.inf),
    (JjFet, "i_c_max", 0.0), (JjFet, "c_j", -1e-15), (JjFet, "r_off", 0.0), (JjFet, "r_sub", 0.0),
    (MemoryCell, "z0", 0.0), (MemoryCell, "eps_eff", 0.9), (MemoryCell, "c_in", 0.0),
    (MemoryCell, "tcr_half_len", -4.2e-3), (MemoryCell, "c_couple", 0.0),
    (MemoryCell, "sc_len", 0.0), (MemoryCell, "line_atten", -1e-4),
    (CalibrationTargets, "f_sc", 0.0), (CalibrationTargets, "l_anchor", -1e-12),
    (CalibrationTargets, "q_c", 0.0),
    (ResonancePeak, "f0", 0.0), (ResonancePeak, "q_loaded", -1.0),
    (CrossingFit, "g", 0.0),
    (RfPulse, "carrier", -1.0), (RfPulse, "amplitude", math.inf), (RfPulse, "start", -math.inf),
    (RfPulse, "duration", 0.0), (RfPulse, "sigma", 0.0),
    (GatePulse, "start", math.inf), (GatePulse, "duration", 0.0),
    *((CoupledModeSystem, name, -1.0) for name in
      ("omega_a", "omega_b", "kappa_ext", "kappa_int_a", "gamma_b", "g_on", "g_off")),
    (MemoryArray, "z_ref", 0.0),
    (AccessOp, "cell_index", -1), (AccessOp, "start", math.inf), (AccessOp, "rf_carrier", 0.0),
    (AccessOp, "rf_duration", -1e-6),
]
IDS = [f"{cls.__name__}.{name}" for cls, name, _ in OUT_OF_RANGE]


def rejects(cls, name):
    return pytest.raises(ValueError, match=re.escape(f"{cls.__name__}.{name} must be "))


@pytest.mark.parametrize("cls, name, bad", OUT_OF_RANGE, ids=IDS)
def test_field_check_names_the_field(cls, name, bad):
    with rejects(cls, name):
        replace(VALID[cls], **{name: bad})
    if name != "cell_index":  # an integer field: NaN fails its type check first
        with rejects(cls, name):
            replace(VALID[cls], **{name: NAN})


def test_limits_still_construct():
    assert CELL.lossless().jj.r_sub == math.inf
    JjFet(i_c_max=1e-6, c_j=0.0)
    replace(CELL, line_atten=0.0)
    LineSection(z0=50.0, eps_eff=1.0, length=1e-3, atten=0.0)
    CoupledModeSystem(omega_a=0.0, omega_b=0.0, kappa_ext=0.0)
    ResonancePeak(f0=6.5e9, depth_db=3.0)
    AccessOp(op="read", cell_index=0)


@pytest.mark.parametrize("cls, name", [
    (MemoryCell, "c_in"), (MemoryCell, "sc_len"), (LineSection, "length"),
])
def test_batches_are_checked_elementwise(cls, name):
    good = getattr(VALID[cls], name) * np.array([[0.5], [1.0], [2.0]])
    assert np.array_equal(getattr(replace(VALID[cls], **{name: good}), name), good)
    for bad in (NAN, 0.0, -1.0):
        with rejects(cls, name):
            replace(VALID[cls], **{name: np.where(good == good[1], bad, good)})


BAND = (5.8e9, 7.4e9)


def _sweep(get, **kw):
    """adaptive_sweep of the calibrated cell at the anchor over BAND."""
    return adaptive_sweep(get("cell"), 220e-12, BAND, **kw)


def _rf_system():
    rf = RfPulse(carrier=6.5e9, amplitude=1.0, start=0.0, duration=10e-9)
    return SYSTEM, PulseSequence(rf=rf), rf


# (call, message): each call gets the fixture getter and passes NaN, or for
# a sweep step or a detection threshold another unusable value, where its
# function's check should catch it
FUNCTION_CASES = {
    "evolve": (lambda get: evolve(*_rf_system()[:2], (0.0, 1e-8), NAN), "dt must be positive"),
    "write_protocol": (lambda get: write_protocol(SYSTEM, _rf_system()[2], dt_fraction=NAN),
                       "dt must be positive"),
    "read_protocol": (lambda get: read_protocol(SYSTEM, dt_fraction=NAN), "dt must be positive"),
    "run_schedule": (lambda get: run_schedule(
        get("array"), AccessSchedule(ops=(AccessOp(op="write", cell_index=0),)),
        models=get("array_models"), dt_fraction=NAN), "dt must be positive"),
    "swap_duration": (lambda get: swap_duration(NAN), "coupling rate must be positive"),
    "josephson_inductance": (lambda get: josephson_inductance(NAN),
                             "critical current must be positive"),
    "josephson_inductance_phase": (lambda get: josephson_inductance(1e-6, NAN),
                                   "inductance diverges"),
    "critical_current_for_inductance": (lambda get: critical_current_for_inductance(NAN),
                                        "inductance must be positive"),
    "icrn_max_current_gap": (lambda get: icrn_max_current(NAN, 50.0),
                             "gap voltage must be positive"),
    "icrn_max_current_r_n": (lambda get: icrn_max_current(1e-3, NAN),
                             "normal resistance must be positive"),
    "tcr_mode_estimate": (lambda get: tcr_mode_estimate(CELL, NAN), "inductance must be positive"),
    "frequency_sweep": (lambda get: frequency_sweep(CELL, 220e-12, [6e9, NAN, 7e9]),
                        "strictly increasing and positive"),
    "mode_map": (lambda get: mode_map(CELL, [1e-10, NAN, 3e-10]),
                 "positive and strictly increasing"),
    "find_resonances": (lambda get: find_resonances([6e9, NAN, 7e9], np.ones(3, dtype=complex)),
                        "freqs must be strictly increasing"),
    "peaks_from_roots": (lambda get: peaks_from_roots([6e9, NAN, 7e9], np.ones(3, dtype=complex),
                                                      0.01, abs, 50.0),
                         "freqs must be strictly increasing"),
    "MemoryArray": (lambda get: MemoryArray(cells=(CELL, CELL), targets=(6.55e9, NAN)),
                    "target frequencies must be strictly increasing"),
    "build_array": (lambda get: build_array([6.55e9, NAN], get("template")),
                    "target frequencies must be strictly increasing"),
    "input_impedance": (lambda get: input_impedance([SeriesCapacitor(20e-15)], SHORT, NAN),
                        "positive real part"),
    "element_abcd": (lambda get: element_abcd(LineSection(50.0, 6.45, 1e-3), NAN),
                     "positive real part"),
    "jj_series_impedance": (lambda get: jj_series_impedance(CELL.jj, 220e-12, NAN),
                            "positive real part"),
    **{f"jj_series_impedance_l_j_{name}": (
        lambda get, l_j=l_j: jj_series_impedance(CELL.jj, l_j, 6.5e9),
        "junction inductance l_j must be positive")
       for name, l_j in (("nan", NAN), ("zero", 0.0), ("negative", -1e-12),
                         ("batch", np.array([100e-12, NAN, 300e-12])))},
    "notch_s21": (lambda get: notch_s21(10.0 + 0j, NAN), "reference impedance must be positive"),
    "to_sparams": (lambda get: to_sparams(TwoPort(1.0, 0.0, 0.0, 1.0), NAN),
                   "reference impedance must be positive"),
    **{f"adaptive_sweep_step_{step}": (lambda get, step=step: _sweep(get, coarse_step=step),
                                      "coarse_step must be positive")
       for step in (NAN, 0.0, -2e6, math.inf)},
    "adaptive_sweep_detect_db": (lambda get: _sweep(get, detect_db=NAN),
                                 "detect_db must be finite"),
    **{f"find_resonances_depth_{depth}": (
        lambda get, depth=depth: find_resonances(*_sweep(get), min_depth_db=depth),
        "min_depth_db must be finite") for depth in (NAN, math.inf)},
    "mode_map_depth": (lambda get: mode_map(get("cell"), [200e-12, 240e-12], NAN),
                       "min_depth_db must be finite"),
    "spectrum_depth": (lambda get: spectrum(get("cell"), 220e-12, BAND, min_depth_db=NAN),
                       "detect_db must be finite"),
}


@pytest.mark.parametrize("case", FUNCTION_CASES)
def test_nan_argument_fails_the_function_check(case, request):
    call, message = FUNCTION_CASES[case]
    with pytest.raises(ValueError, match=message):
        call(request.getfixturevalue)
