"""Configuration and schedule files with explicit unit suffixes.

Both are JSON.  Every dimensioned value is a string with a mandatory
unit suffix from a fixed table ("220 pH", "6.55 GHz"); unknown suffixes
and unknown keys are rejected, and validation reports every violation at
once, not just the first.  Dimensionless values (eps_eff, quality
factors, amplitudes) are plain finite numbers; the attenuation constant
carries its unit in the key name (nepers/m).

The field tables below are the file format: one row per JSON key gives
the field it sets and its unit family (None for a plain number).  One
reader and one writer walk them, so a key, its unit and its default are
each written once.  Keys left out of a file take their value from the
default objects (`_DEFAULT_CELL`, `_DEFAULT_CALIBRATION` and the settings
dataclasses).
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

from .array import AccessOp, AccessSchedule
from .calibrate import CalibrationTargets, calibrate_geometry
from .cell import MemoryCell
from .dynamics import DT_FRACTION
from .jjfet import JjFet, critical_current_for_inductance
from .modemap import MIN_FIT_ROWS

#: suffix -> (decimal exponent of the scale, unit family); all scales are
#: exact powers of ten so values are converted by shifting the decimal
#: exponent and doing a single correctly-rounded string-to-float pass,
#: which keeps file round trips bit-exact.
UNIT_TABLE = {
    "pH": (-12, "inductance"),
    "nH": (-9, "inductance"),
    "fF": (-15, "capacitance"),
    "pF": (-12, "capacitance"),
    "GHz": (9, "frequency"),
    "MHz": (6, "frequency"),
    "ns": (-9, "time"),
    "ps": (-12, "time"),
    "uA": (-6, "current"),
    "mV": (-3, "voltage"),
    "ohm": (0, "resistance"),
    "mm": (-3, "length"),
    "um": (-6, "length"),
}

#: preferred suffix per family when writing configs
_CANONICAL = {
    "inductance": "pH",
    "capacitance": "fF",
    "frequency": "GHz",
    "time": "ns",
    "current": "uA",
    "voltage": "mV",
    "resistance": "ohm",
    "length": "mm",
}


class ConfigError(ValueError):
    """Invalid config or schedule file; the message lists every violation found."""


def _scaled_float(num_text: str, exp10: int) -> float:
    """num_text * 10^exp10 in one correctly-rounded conversion."""
    t = num_text.strip().lower()
    if "e" in t:
        mant, e = t.split("e", 1)
        exp10 += int(e)
    else:
        mant = t
    if not mant or mant in ("+", "-", ".", "+.", "-."):
        raise ValueError(num_text)
    return float(f"{mant}e{exp10}")


def parse_quantity(text, family: str, key: str, errors: list[str]) -> float:
    """Parse 'value unit' into SI units, checking the unit family."""
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        errors.append(f"{key}: missing unit suffix (got bare number {text!r})")
        return math.nan
    if not isinstance(text, str):
        errors.append(f"{key}: expected a 'value unit' string, got {text!r}")
        return math.nan
    parts = text.replace("µ", "u").split()
    if len(parts) == 1:
        # allow the compact form "220pH"
        for suffix in UNIT_TABLE:
            if parts[0].endswith(suffix) and parts[0] != suffix:
                parts = [parts[0][: -len(suffix)], suffix]
                break
    if len(parts) != 2:
        errors.append(f"{key}: expected 'value unit', got {text!r}")
        return math.nan
    num_text, suffix = parts
    if suffix not in UNIT_TABLE:
        errors.append(f"{key}: unknown unit {suffix!r} (allowed: {', '.join(UNIT_TABLE)})")
        return math.nan
    exp10, fam = UNIT_TABLE[suffix]
    if fam != family:
        errors.append(f"{key}: unit {suffix!r} is a {fam}, expected a {family}")
        return math.nan
    try:
        value = _scaled_float(num_text, exp10)
    except (ValueError, OverflowError):
        errors.append(f"{key}: cannot parse number {num_text!r}")
        return math.nan
    if not math.isfinite(value):
        errors.append(f"{key}: value {text!r} overflows")
        return math.nan
    return value


def format_quantity(value: float, family: str) -> str:
    """Serialize an SI value losslessly in the family's canonical unit.

    The printed decimal, re-parsed through the exponent-shifting
    conversion, reproduces the exact float; the shortest faithful text
    wins, falling back to the exponent-shifted repr of the value (which
    is faithful by construction).  A non-finite value raises ValueError.
    """
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"cannot write a non-finite {family}: {value!r}")
    suffix = _CANONICAL[family]
    exp10 = UNIT_TABLE[suffix][0]
    s = value / (10.0 ** exp10)
    # distinct, in order; a mantissa past the float range has no %g text
    candidates = dict.fromkeys(f"{s:.{d}g}" for d in range(1, 18)) if math.isfinite(s) else ()
    faithful = [c for c in candidates if _scaled_float(c, exp10) == value]
    if faithful:
        best = min(faithful, key=lambda c: (len(c), "e" in c))
        return f"{best} {suffix}"
    mant = repr(value)
    if "e" in mant:
        head, e = mant.split("e", 1)
        shifted = f"{head}e{int(e) - exp10}"
    else:
        shifted = f"{mant}e{-exp10}"
    return f"{shifted} {suffix}"


def _expect_number(raw, key: str, errors: list[str]) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        errors.append(f"{key}: expected a plain number, got {raw!r}")
        return math.nan
    try:
        value = float(raw)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        errors.append(f"{key}: expected a finite number, got {raw!r}")
        return math.nan
    return value


# ------------------------- config model -------------------------


@dataclass(frozen=True)
class SweepSettings:
    band: tuple[float, float] = (5.8e9, 7.4e9)
    coarse_step: float = 2e6
    min_depth_db: float = 0.01

    def __post_init__(self):
        if not 0 < self.band[0] < self.band[1]:
            raise ValueError("band requires 0 < lo < hi")
        if not self.coarse_step > 0:
            raise ValueError("coarse_step must be positive")


#: most mode-map grid points, checked before a grid is built: on a 2-core
#: x86_64 host a 10,000-row map takes about 0.5 s and 50 MiB, or 3 s and
#: 370 MiB when every row is rescanned
MAX_MAP_POINTS = 10_000


@dataclass(frozen=True)
class ModeMapSettings:
    l_min: float = 10e-12
    l_max: float = 500e-12
    points: int = 61

    def __post_init__(self):
        if not 0 < self.l_min < self.l_max:
            raise ValueError("requires 0 < l_min < l_max")
        if not isinstance(self.points, int) or self.points < MIN_FIT_ROWS:
            raise ValueError(f"points must be an integer >= {MIN_FIT_ROWS}")
        if self.points > MAX_MAP_POINTS:
            raise ValueError(f"points must be at most {MAX_MAP_POINTS}")


@dataclass(frozen=True)
class DynamicsSettings:
    dt_fraction_of_guard: float = DT_FRACTION
    rf_amplitude: float = 1.0
    gate_rise: float = 50e-12

    def __post_init__(self):
        if not 0 < self.dt_fraction_of_guard <= 1:
            raise ValueError("dt_fraction_of_guard must lie in (0, 1]")
        if self.gate_rise < 0:
            raise ValueError("gate_rise must be non-negative")


@dataclass(frozen=True)
class Config:
    cell: MemoryCell
    calibration: CalibrationTargets | None = None
    sweep: SweepSettings = field(default_factory=SweepSettings)
    modemap: ModeMapSettings = field(default_factory=ModeMapSettings)
    dynamics: DynamicsSettings = field(default_factory=DynamicsSettings)
    array_targets: tuple[float, ...] = ()
    array_q_c: float = 2000.0

    def __post_init__(self):
        if not self.array_q_c > 0:
            raise ValueError("array q_c must be positive")


#: the cell a config describes where its file leaves keys out
_DEFAULT_CELL = MemoryCell(
    z0=50.0, eps_eff=6.45, c_in=20e-15, tcr_half_len=4.2e-3,
    jj=JjFet(i_c_max=1e-6), c_couple=40e-15, sc_len=4.3e-3, line_atten=5e-4,
)
#: the targets of a calibration section where it leaves keys out
_DEFAULT_CALIBRATION = CalibrationTargets(f_sc=6.55e9, l_anchor=220e-12, q_c=2000.0)


# ------------------------- reader and writer -------------------------


class _Custom(NamedTuple):
    """A value that is neither a quantity nor a plain number."""

    read: Callable  # (JSON value, key path, errors) -> value
    write: Callable  # value -> JSON value


def _failed(value) -> bool:
    """True for the NaN a reader returns after reporting an error."""
    values = value if isinstance(value, tuple) else (value,)
    return any(isinstance(v, float) and math.isnan(v) for v in values)


def _read(raw, table, where: str, errors: list[str]) -> dict:
    """The fields a section's JSON object sets, parsed through its table.

    A row whose field is None names a sub-object whose fields belong to
    the parent (the config's array section).
    """
    if not isinstance(raw, dict):
        errors.append(f"{where}: expected an object, got {raw!r}")
        return {}
    keys = [key for key, _, _ in table]
    errors.extend(f"{where or 'config'}: unknown key {k!r}" for k in raw if k not in keys)
    kw = {}
    for key, name, kind in table:
        if key not in raw:
            continue
        path = f"{where}.{key}" if where else key
        if name is None:
            kw.update(_read(raw[key], kind, path, errors))
        elif kind is None:
            kw[name] = _expect_number(raw[key], path, errors)
        elif isinstance(kind, str):
            kw[name] = parse_quantity(raw[key], kind, path, errors)
        else:
            kw[name] = kind.read(raw[key], path, errors)
    return kw


def _write(obj, table) -> dict:
    """JSON form of obj through its table; None fields are left out."""
    out = {}
    for key, name, kind in table:
        if name is None:
            out[key] = _write(obj, kind)
            continue
        value = getattr(obj, name)
        if value is None:
            continue
        if kind is None:
            out[key] = value
        elif isinstance(kind, str):
            out[key] = format_quantity(value, kind)
        else:
            out[key] = kind.write(value)
    return out


def _build(default, kw: dict, where: str, errors: list[str]):
    """default with the parsed fields kw, checked by its __post_init__.

    Returns default itself when a field failed to parse (already
    reported) or the dataclass rejects the values ("<where>: <reason>").
    """
    if any(_failed(v) for v in kw.values()):
        return default
    try:
        return replace(default, **kw)
    except ValueError as exc:
        errors.append(f"{where}: {exc}")
        return default


def _section(table, default) -> _Custom:
    """A nested object: its own table, keys left out taken from default."""
    return _Custom(
        read=lambda raw, where, errors: _build(default, _read(raw, table, where, errors),
                                               where, errors),
        write=lambda obj: _write(obj, table),
    )


def _read_band(raw, where, errors):
    if not (isinstance(raw, list) and len(raw) == 2):
        errors.append(f"{where}: expected a [lo, hi] pair")
        return math.nan
    return tuple(parse_quantity(f, "frequency", f"{where}[{i}]", errors) for i, f in enumerate(raw))


def _read_targets(raw, where, errors):
    if not isinstance(raw, list):
        errors.append(f"{where}: expected a list")
        return math.nan
    targets = tuple(
        parse_quantity(f, "frequency", f"{where}[{i}]", errors) for i, f in enumerate(raw)
    )
    if any(b <= a for a, b in zip(targets, targets[1:])):
        errors.append(f"{where}: must be strictly increasing")
        return math.nan
    return targets


def _read_shape(raw, where, errors):
    if raw == "linear":
        return 0.0
    if isinstance(raw, dict) and set(raw) == {"logistic"}:
        k = _expect_number(raw["logistic"], f"{where}.logistic", errors)
        if k > 0:
            return k
        if not math.isnan(k):
            errors.append(f"{where}.logistic: steepness must be positive")
        return math.nan
    errors.append(f"{where}: expected 'linear' or {{'logistic': steepness}}")
    return math.nan


def _read_integer(raw, where, errors):
    if isinstance(raw, int) and not isinstance(raw, bool):  # JSON true is no integer
        return raw
    errors.append(f"{where}: expected an integer, got {raw!r}")
    return math.nan


def _write_frequencies(values) -> list[str]:
    return [format_quantity(f, "frequency") for f in values]


# ------------------------- the file formats -------------------------
# Rows are (JSON key, field, kind).  The kind is a unit family, None for a
# plain number, or a _Custom; a row with field None holds a nested table.

_GATE = (
    ("v_pinch", "v_pinch", "voltage"),
    ("v_on", "v_on", "voltage"),
    ("shape", "steepness", _Custom(_read_shape, lambda k: {"logistic": k} if k else "linear")),
)
_JJ = (
    ("i_c_max", "i_c_max", "current"),
    ("c_j", "c_j", "capacitance"),
    ("r_off", "r_off", "resistance"),
    ("r_sub", "r_sub", "resistance"),
    ("gate", "gate", _section(_GATE, _DEFAULT_CELL.jj.gate)),
)
_CELL = (
    ("z0", "z0", "resistance"),
    ("eps_eff", "eps_eff", None),
    ("line_atten_np_per_m", "line_atten", None),
    ("c_in", "c_in", "capacitance"),
    ("c_couple", "c_couple", "capacitance"),
    ("tcr_half_len", "tcr_half_len", "length"),
    ("sc_len", "sc_len", "length"),
    ("jj", "jj", _section(_JJ, _DEFAULT_CELL.jj)),
)
_CALIBRATION = (
    ("f_sc", "f_sc", "frequency"),
    ("l_anchor", "l_anchor", "inductance"),
    ("q_c", "q_c", None),
)
_SWEEP = (
    ("band", "band", _Custom(_read_band, _write_frequencies)),
    ("coarse_step", "coarse_step", "frequency"),
    ("min_depth_db", "min_depth_db", None),
)
_MODEMAP = (
    ("l_min", "l_min", "inductance"),
    ("l_max", "l_max", "inductance"),
    ("points", "points", _Custom(_read_integer, int)),
)
_DYNAMICS = (
    ("dt_fraction_of_guard", "dt_fraction_of_guard", None),
    ("rf_amplitude", "rf_amplitude", None),
    ("gate_rise", "gate_rise", "time"),
)
_ARRAY = (
    ("targets", "array_targets", _Custom(_read_targets, _write_frequencies)),
    ("q_c", "array_q_c", None),
)
_CONFIG = (
    ("cell", "cell", _section(_CELL, _DEFAULT_CELL)),
    ("calibration", "calibration", _section(_CALIBRATION, _DEFAULT_CALIBRATION)),
    ("sweep", "sweep", _section(_SWEEP, SweepSettings())),
    ("modemap", "modemap", _section(_MODEMAP, ModeMapSettings())),
    ("dynamics", "dynamics", _section(_DYNAMICS, DynamicsSettings())),
    ("array", None, _ARRAY),
)
#: One schedule operation.  "op" and "cell_index" have no default and are
#: checked by load_schedule.
_OP = (
    ("start", "start", "time"),
    ("rf_carrier", "rf_carrier", "frequency"),
    ("rf_duration", "rf_duration", "time"),
)


def _raise_if(errors: list[str], what: str):
    if errors:
        raise ConfigError(f"invalid {what}:\n  - " + "\n  - ".join(errors))


def _load_json(path, what: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{what} is not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{what} is not UTF-8 text: {exc}") from exc


def parse_config(raw: dict) -> Config:
    """Validate a parsed JSON dict; raises ConfigError listing all faults."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    errors: list[str] = []
    cfg = _build(Config(cell=_DEFAULT_CELL), _read(raw, _CONFIG, "", errors), "config", errors)
    _raise_if(errors, "configuration")
    return cfg


def load_config(path) -> Config:
    """Read and validate a JSON config file."""
    return parse_config(_load_json(path, "config"))


def config_to_dict(cfg: Config) -> dict:
    """Serialize a Config back to its JSON form (lossless round trip)."""
    out = _write(cfg, _CONFIG)
    if not cfg.array_targets:  # a config without an array has no array section
        del out["array"]
    return out


def save_config(cfg: Config, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


def config_hash(cfg: Config) -> str:
    """Stable hash of the resolved configuration."""
    blob = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_schedule(path) -> AccessSchedule:
    """Read and validate a JSON schedule file: {"ops": [operation, ...]}."""
    raw = _load_json(path, "schedule")
    if not (isinstance(raw, dict) and set(raw) <= {"ops"}
            and isinstance(raw.get("ops", []), list)):
        raise ConfigError("schedule root must be an object with a single 'ops' list")
    ops = []
    errors: list[str] = []
    for i, entry in enumerate(raw.get("ops", [])):
        where = f"ops[{i}]"
        if not isinstance(entry, dict):
            errors.append(f"{where}: expected an object")
            continue
        entry = dict(entry)
        kind = entry.pop("op", None)
        index = _read_integer(entry.pop("cell_index", None), f"{where}.cell_index", errors)
        kw = _read(entry, _OP, where, errors)
        if kind not in ("write", "read"):
            errors.append(f"{where}.op: expected 'write' or 'read'")
        elif index < 0:
            errors.append(f"{where}.cell_index: expected a non-negative integer")
        elif not math.isnan(index):
            ops.append(_build(AccessOp(op=kind, cell_index=index), kw, where, errors))
    _raise_if(errors, "schedule")
    return AccessSchedule(ops=tuple(ops))


# ------------------------- shipped example -------------------------


def example_template() -> MemoryCell:
    """Uncalibrated template cell the example config is derived from."""
    return replace(_DEFAULT_CELL, jj=JjFet(i_c_max=critical_current_for_inductance(220e-12)))


def example_config(calibrated: bool = True) -> Config:
    """The shipped example: four-cell band plan, 220 pH anchor, 1 kohm OFF.

    With calibrated=True (default) the cell geometry is solved for the
    6.55 GHz target so spectra and mode maps reproduce the anchored
    behavior out of the box.
    """
    cell = example_template()
    if calibrated:
        cell = calibrate_geometry(_DEFAULT_CALIBRATION, cell)
    return Config(
        cell=cell,
        calibration=_DEFAULT_CALIBRATION,
        array_targets=(6.55e9, 6.65e9, 6.70e9, 6.75e9),
    )
