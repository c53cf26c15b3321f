"""qmemsim: 1-D microwave-network simulator for voltage-tunable quantum-memory cells.

A desk-scale model of a gate-tunable memory cell: a half-wave coupling
resonator split by a Josephson field-effect transistor mediates, on
demand, the coupling between a transmission feedline and a quarter-wave
storage cavity.  The package covers two-port network sweeps, junction
physics, resonance extraction, geometry calibration, the avoided-crossing
mode map, reduced two-mode SWAP dynamics and frequency-multiplexed
arrays.
"""

__version__ = "0.1.0"

from .array import (
    AccessOp,
    AccessSchedule,
    MemoryArray,
    ScheduleError,
    ScheduleReport,
    array_spectrum,
    build_array,
    off_resonant_bound,
    run_schedule,
)
from .calibrate import (
    CalibrationError,
    CalibrationTargets,
    calibrate_geometry,
    isolated_sc_trace,
    measure_isolated_tcr,
    sc_branch_resonance,
    tcr_branch_resonance,
)
from .cell import (
    MemoryCell,
    adaptive_sweep,
    cell_shunt_impedance,
    frequency_sweep,
    sc_mode_estimate,
    spectrum,
    tcr_mode_estimate,
)
from .dynamics import (
    TWO_PI,
    CoupledModeSystem,
    GatePulse,
    PulseSequence,
    ReadCascade,
    ReadResult,
    RfPulse,
    Trajectory,
    WriteResult,
    coupler_peak,
    coupler_slopes,
    evolve,
    max_stable_dt,
    read_protocol,
    swap_duration,
    write_protocol,
)
from .extract import (
    ExtractionError,
    ResidualCoupling,
    extract_coupled_mode_params,
    full_accumulation_inductance,
    off_state_residual_coupling,
)
from .jjfet import (
    OFF,
    PHI0,
    GateModel,
    JjFet,
    critical_current_for_inductance,
    gate_to_state,
    icrn_max_current,
    jj_series_impedance,
    josephson_inductance,
)
from .modemap import (
    CrossingFit,
    ModeMap,
    fit_avoided_crossing,
    hybridized_map,
    mode_map,
)
from .resonance import ResonancePeak, find_resonances, notch_s21_model
from .twoport import (
    C0,
    INFINITE_IMPEDANCE,
    OPEN,
    SHORT,
    Element,
    LineSection,
    SeriesCapacitor,
    SeriesImpedance,
    SParams,
    TwoPort,
    cascade,
    chain_abcd,
    element_abcd,
    input_impedance,
    notch_s21,
    terminate,
    to_sparams,
)
