"""Config and schedule parsing: units, validation, lossless round trips."""
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from qmemsim import config
from qmemsim.array import AccessOp
from qmemsim.config import (
    Config,
    ConfigError,
    config_hash,
    config_to_dict,
    example_config,
    example_template,
    format_quantity,
    load_config,
    load_schedule,
    parse_config,
    parse_quantity,
    save_config,
)

SEED_CONFIG = Path(__file__).resolve().parents[1] / "bench" / "data" / "seed_config.json"


def minimal_raw():
    return {
        "cell": {
            "z0": "50 ohm",
            "eps_eff": 6.45,
            "c_in": "20 fF",
            "c_couple": "40 fF",
            "tcr_half_len": "4.2 mm",
            "sc_len": "4.3 mm",
            "jj": {"i_c_max": "1.496 uA"},
        }
    }


class TestQuantityParsing:
    def test_microamp(self):
        errors = []
        assert parse_quantity("1.496 uA", "current", "k", errors) == pytest.approx(1.496e-6)
        assert errors == []

    def test_compact_form(self):
        errors = []
        assert parse_quantity("220pH", "inductance", "k", errors) == pytest.approx(220e-12)
        assert errors == []

    def test_missing_unit_names_key(self):
        errors = []
        parse_quantity("220", "inductance", "cell.l_j", errors)
        assert errors and "cell.l_j" in errors[0]

    def test_bare_number_rejected(self):
        errors = []
        parse_quantity(220, "inductance", "k", errors)
        assert errors and "missing unit" in errors[0]

    def test_unknown_suffix_rejected(self):
        errors = []
        parse_quantity("220 kH", "inductance", "k", errors)
        assert errors and "unknown unit" in errors[0]

    def test_wrong_family_rejected(self):
        errors = []
        parse_quantity("220 pH", "capacitance", "k", errors)
        assert errors and "expected a capacitance" in errors[0]

    def test_format_round_trip_exact(self):
        for value, family in [
            (4.071985827864012e-3, "length"),
            (500e-12, "inductance"),
            (1.4959362654633412e-6, "current"),
            (6.55e9, "frequency"),
            (5e-11, "time"),
        ]:
            errors = []
            back = parse_quantity(format_quantity(value, family), family, "k", errors)
            assert errors == []
            assert back == value  # bit-exact

    @staticmethod
    def format_all_candidates(value, family):
        """format_quantity as it tested all 17 renderings; kept as its reference."""
        value = float(value)
        suffix = config._CANONICAL[family]
        exp10 = config.UNIT_TABLE[suffix][0]
        s = value / (10.0 ** exp10)
        candidates = [f"{s:.{d}g}" for d in range(1, 18)] if math.isfinite(s) else []
        faithful = [c for c in candidates if config._scaled_float(c, exp10) == value]
        if faithful:
            return f"{min(faithful, key=lambda c: (len(c), 'e' in c))} {suffix}"
        head, _, e = repr(value).partition("e")
        return f"{head}e{int(e or 0) - exp10} {suffix}"

    @pytest.mark.parametrize("family", sorted(config._CANONICAL))
    def test_format_matches_the_all_candidates_reference(self, family):
        rng = np.random.default_rng(sorted(config._CANONICAL).index(family))
        exp10 = config.UNIT_TABLE[config._CANONICAL[family]][0]
        bits = rng.integers(0, 2**63, 100, dtype=np.uint64).view(np.float64)
        short = rng.integers(1, 10**4, 100) * 10.0 ** rng.integers(-4, 4, 100) * 10.0 ** exp10
        edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                 1e-12, 220e-12, 6.55e9, 0.1, 1 / 3, 1.0, 10.0 ** exp10, 9.999999999999999e22]
        values = [v for v in (*bits.tolist(), *short.tolist(), *edges) if math.isfinite(v)]

        for value in values:
            assert format_quantity(value, family) == self.format_all_candidates(value, family)

    @pytest.mark.parametrize("family", sorted(f for f, suffix in config._CANONICAL.items()
                                              if config.UNIT_TABLE[suffix][0] < 0))
    def test_values_near_the_float_maximum_round_trip(self, family):
        # value / 10**exp10 overflows: the shifted repr is written and read back exactly
        exp10 = config.UNIT_TABLE[config._CANONICAL[family]][0]
        top = np.nextafter(np.inf, 0.0)
        values = [1e297, -1e297, float(top), float(-top), float(top * 10.0 ** exp10),
                  float(np.nextafter(top * 10.0 ** exp10, np.inf))]
        for value in values:
            errors = []
            text = format_quantity(value, family)
            assert parse_quantity(text, family, "k", errors) == value, text
            assert errors == []

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_is_not_written(self, value):
        with pytest.raises(ValueError, match="cannot write a non-finite inductance"):
            format_quantity(value, "inductance")


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse_config(minimal_raw())
        assert cfg.cell.z0 == 50.0
        assert cfg.cell.jj.r_off == 1000.0
        assert cfg.cell.jj.c_j == pytest.approx(1e-15)
        assert cfg.sweep.coarse_step == pytest.approx(2e6)
        assert cfg.calibration is None

    def test_unknown_key_rejected(self):
        raw = minimal_raw()
        raw["cell"]["banana"] = 1
        with pytest.raises(ConfigError, match="banana"):
            parse_config(raw)

    def test_all_violations_reported(self):
        raw = minimal_raw()
        raw["cell"]["c_in"] = "20"
        raw["cell"]["sc_len"] = "4.3 GHz"
        raw["extra"] = {}
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        message = str(err.value)
        assert "c_in" in message
        assert "sc_len" in message
        assert "extra" in message

    def test_unphysical_value_rejected(self):
        raw = minimal_raw()
        raw["cell"]["tcr_half_len"] = "-4.2 mm"
        with pytest.raises(ConfigError, match="cell"):
            parse_config(raw)

    @pytest.mark.parametrize("section, key, value, message", [
        ("sweep", "coarse_step", "0 GHz", "sweep: coarse_step must be positive"),
        ("sweep", "coarse_step", "-0.002 GHz", "sweep: coarse_step must be positive"),
        ("array", "q_c", 0.0, "config: array q_c must be positive"),
        ("sweep", "band", ["0 GHz", "7 GHz"], "sweep: band requires 0 < lo < hi"),
        ("sweep", "band", ["-1 GHz", "7 GHz"], "sweep: band requires 0 < lo < hi"),
        ("sweep", "band", ["5.8 GHz"], "sweep.band: expected a [lo, hi] pair"),
        ("array", "targets", "6.55 GHz", "array.targets: expected a list"),
        ("dynamics", "dt_fraction_of_guard", 0.0,
         "dynamics: dt_fraction_of_guard must lie in (0, 1]"),
        ("dynamics", "dt_fraction_of_guard", 1.5,
         "dynamics: dt_fraction_of_guard must lie in (0, 1]"),
        ("dynamics", "gate_rise", "-1 ns", "dynamics: gate_rise must be non-negative"),
        ("modemap", "points", 5, "modemap: points must be an integer >= 8"),
        ("modemap", "points", 100000000000, "modemap: points must be at most 10000"),
    ], ids=["zero-step", "negative-step", "zero-q_c", "zero-band-lo", "negative-band-lo",
            "one-part-band", "targets-not-a-list", "zero-dt-fraction", "dt-fraction-above-1",
            "negative-gate-rise", "unfittable-grid", "huge-grid"])
    def test_unrunnable_value_rejected(self, section, key, value, message):
        raw = minimal_raw()
        raw[section] = {key: value}
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(raw)

    def test_mode_map_grid_is_bounded_on_both_sides(self):
        # the settings hold the count only: no grid is built to check it
        assert config.ModeMapSettings(points=config.MAX_MAP_POINTS).points == 10_000
        with pytest.raises(ValueError, match="points must be at most 10000"):
            config.ModeMapSettings(points=config.MAX_MAP_POINTS + 1)

    @pytest.mark.parametrize("c_in, message", [
        (["20 fF"], "cell.c_in: expected a 'value unit' string, got ['20 fF']"),
        ("2x0 fF", "cell.c_in: cannot parse number '2x0'"),
        ("1e400 fF", "cell.c_in: value '1e400 fF' overflows"),
    ], ids=["list", "not-a-number", "overflow"])
    def test_bad_quantity_rejected(self, c_in, message):
        raw = minimal_raw()
        raw["cell"]["c_in"] = c_in
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(raw)

    def test_root_must_be_an_object(self):
        with pytest.raises(ConfigError, match="config root must be a JSON object"):
            parse_config([minimal_raw()])

    def test_logistic_gate_shape(self):
        raw = minimal_raw()
        raw["cell"]["jj"]["gate"] = {
            "v_pinch": "-1500 mV",
            "v_on": "0 mV",
            "shape": {"logistic": 4.0},
        }
        cfg = parse_config(raw)
        assert cfg.cell.jj.gate.steepness == 4.0
        assert cfg.cell.jj.gate.v_pinch == pytest.approx(-1.5)

    @pytest.mark.parametrize("shape, digest", [
        ({"logistic": 4.0}, "b809b1fbe974e99d20f1d3a9b01ffba90d30f382bc3ebbd8fc4fd28054c65582"),
        ({"logistic": 4}, "b809b1fbe974e99d20f1d3a9b01ffba90d30f382bc3ebbd8fc4fd28054c65582"),
        ("linear", "bc69417f9ce76b6f5f685f4264a5b3a46649cbae42f32a98c3ccfcce62b5217f"),
    ], ids=["logistic", "logistic-int", "linear"])
    def test_gate_shape_writes_and_hashes_as_pinned(self, shape, digest):
        # the steepness field keeps each shape's file format and its hash;
        # the hash covers the defaults too (dt_fraction_of_guard 1.0 here)
        raw = minimal_raw()
        raw["cell"]["jj"]["gate"] = {"v_pinch": "-1500 mV", "v_on": "0 mV", "shape": shape}
        cfg = parse_config(raw)
        written = config_to_dict(cfg)["cell"]["jj"]["gate"]
        assert written == {"v_pinch": "-1500 mV", "v_on": "0 mV",
                           "shape": "linear" if shape == "linear" else {"logistic": 4.0}}
        assert config_hash(cfg) == digest
        assert parse_config(config_to_dict(cfg)) == cfg

    @pytest.mark.parametrize("shape, message", [
        ({"logistic": 0}, "cell.jj.gate.shape.logistic: steepness must be positive"),
        ({"logistic": -4.0}, "cell.jj.gate.shape.logistic: steepness must be positive"),
        ("logistic", "cell.jj.gate.shape: expected 'linear' or {'logistic': steepness}"),
    ], ids=["zero", "negative", "bare-name"])
    def test_bad_gate_shape_rejected(self, shape, message):
        raw = minimal_raw()
        raw["cell"]["jj"]["gate"] = {"shape": shape}
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(raw)

    def test_decreasing_array_targets_rejected(self):
        raw = minimal_raw()
        raw["array"] = {"targets": ["6.65 GHz", "6.55 GHz"]}
        with pytest.raises(ConfigError, match="increasing"):
            parse_config(raw)

    @pytest.mark.parametrize("section, key, value", [
        ("cell", "eps_eff", float("nan")),
        ("calibration", "q_c", float("inf")),
        ("calibration", "q_c", float("-inf")),
        ("array", "q_c", 10**400),
    ], ids=["nan", "inf", "-inf", "int-beyond-float"])
    def test_non_finite_number_rejected(self, section, key, value):
        raw = minimal_raw()
        raw.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError, match=f"{section}.{key}: expected a finite number"):
            parse_config(raw)

    @pytest.mark.parametrize("raw, where", [
        ({"cell": 5}, "cell"),
        ({"sweep": "x"}, "sweep"),
        ({"calibration": []}, "calibration"),
        ({"array": 3}, "array"),
        ({"cell": {"jj": {"gate": None}}}, "cell.jj.gate"),
    ])
    def test_section_that_is_not_an_object_rejected(self, raw, where):
        with pytest.raises(ConfigError, match=f"{where}: expected an object"):
            parse_config(raw)

    def test_boolean_is_not_an_integer(self):
        raw = minimal_raw()
        raw["modemap"] = {"points": True}
        with pytest.raises(ConfigError, match="modemap.points: expected an integer"):
            parse_config(raw)

    def test_calibration_section(self):
        raw = minimal_raw()
        raw["calibration"] = {"f_sc": "6.55 GHz", "l_anchor": "220 pH", "q_c": 2000.0}
        cfg = parse_config(raw)
        assert cfg.calibration.f_sc == pytest.approx(6.55e9)
        assert cfg.calibration.f_sc == pytest.approx(6.55e9)


class TestRoundTrip:
    def make_config(self):
        raw = minimal_raw()
        raw["calibration"] = {"f_sc": "6.55 GHz", "l_anchor": "220 pH", "q_c": 2000.0}
        raw["array"] = {"targets": ["6.55 GHz", "6.65 GHz", "6.7 GHz", "6.75 GHz"]}
        return parse_config(raw)

    def test_save_load_is_lossless(self, tmp_path):
        cfg = self.make_config()
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        back = load_config(path)
        assert back == cfg

    def test_dict_round_trip_preserves_awkward_floats(self, tmp_path):
        # calibrated-geometry floats exercise the exactness nudging
        cfg = Config(
            cell=example_template().__class__(
                z0=50.0, eps_eff=6.45, c_in=1.9234747795929519e-14,
                tcr_half_len=4.071985827864012e-3,
                jj=example_template().jj, c_couple=4e-14,
                sc_len=4.269908981863058e-3, line_atten=5e-4,
            )
        )
        back = parse_config(config_to_dict(cfg))
        assert back.cell == cfg.cell

    def test_hash_is_stable(self, tmp_path):
        cfg = self.make_config()
        assert config_hash(cfg) == config_hash(self.make_config())

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    @pytest.mark.parametrize("load, what", [(load_config, "config"), (load_schedule, "schedule")])
    def test_non_utf8_file_reported(self, tmp_path, load, what):
        path = tmp_path / "utf16.json"
        path.write_bytes("{}".encode("utf-16"))  # starts with the bytes ff fe
        with pytest.raises(ConfigError, match=f"^{what} is not UTF-8 text: 'utf-8' codec"):
            load(path)


class TestOnDiskFormat:
    def test_example_config_keys_and_units(self):
        assert config_to_dict(example_config(calibrated=False)) == {
            "cell": {
                "z0": "50 ohm",
                "eps_eff": 6.45,
                "line_atten_np_per_m": 0.0005,
                "c_in": "20 fF",
                "c_couple": "40 fF",
                "tcr_half_len": "4.2 mm",
                "sc_len": "4.3 mm",
                "jj": {
                    "i_c_max": "1.495936265463341 uA",
                    "c_j": "1 fF",
                    "r_off": "1000 ohm",
                    "r_sub": "1e+06 ohm",
                    "gate": {"v_pinch": "-2000 mV", "v_on": "0 mV", "shape": "linear"},
                },
            },
            "calibration": {"f_sc": "6.55 GHz", "l_anchor": "220 pH", "q_c": 2000.0},
            "sweep": {"band": ["5.8 GHz", "7.4 GHz"], "coarse_step": "0.002 GHz",
                      "min_depth_db": 0.01},
            "modemap": {"l_min": "10 pH", "l_max": "500 pH", "points": 61},
            "dynamics": {"dt_fraction_of_guard": 1.0, "rf_amplitude": 1.0,
                         "gate_rise": "0.05 ns"},
            "array": {"targets": ["6.55 GHz", "6.65 GHz", "6.7 GHz", "6.75 GHz"],
                      "q_c": 2000.0},
        }

    def test_seed_config_file_round_trips(self):
        assert config_to_dict(load_config(SEED_CONFIG)) == json.loads(SEED_CONFIG.read_text())


class TestLoadSchedule:
    def write(self, tmp_path, raw):
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(raw, allow_nan=True))
        return path

    def test_readme_example(self, tmp_path):
        path = self.write(tmp_path, {"ops": [
            {"op": "write", "cell_index": 0},
            {"op": "read", "cell_index": 0, "start": "5000 ns"},
        ]})
        assert load_schedule(path).ops == (
            AccessOp(op="write", cell_index=0),
            AccessOp(op="read", cell_index=0, start=5e-6),
        )

    @pytest.mark.parametrize("op, message", [
        ({"op": "erase", "cell_index": 0}, "ops[0].op"),
        ({"op": "write", "cell_index": -1}, "ops[0].cell_index"),
        # every reported number is an energy ratio, so an op has no amplitude
        ({"op": "write", "cell_index": 0, "rf_amplitude": 1.0},
         "ops[0]: unknown key 'rf_amplitude'"),
        ({"op": "write", "cell_index": 0, "start": "5 GHz"}, "ops[0].start"),
        ({"op": "write", "cell_index": 0, "banana": 1}, "banana"),
        # JSON true is no cell 1
        ({"op": "write", "cell_index": True}, "ops[0].cell_index: expected an integer"),
        ({"op": "write", "cell_index": 1.0}, "ops[0].cell_index: expected an integer"),
        ({"op": "write"}, "ops[0].cell_index: expected an integer"),
        (5, "ops[0]: expected an object"),
    ])
    def test_invalid_op_names_key(self, tmp_path, op, message):
        with pytest.raises(ConfigError) as err:
            load_schedule(self.write(tmp_path, {"ops": [op]}))
        assert message in str(err.value)

    @pytest.mark.parametrize("raw", [{"ops": 5}, [], {"ops": [], "extra": 1}])
    def test_root_must_hold_an_ops_list(self, tmp_path, raw):
        with pytest.raises(ConfigError, match="'ops' list"):
            load_schedule(self.write(tmp_path, raw))
