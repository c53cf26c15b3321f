"""CLI surface: exit codes, CSV formats, determinism."""
import argparse
import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qmemsim import __version__, cli, dynamics
from qmemsim.cli import main
from qmemsim.cell import sc_mode_estimate
from qmemsim.config import (config_hash, config_to_dict, example_config, load_config,
                            load_schedule)
from qmemsim.dynamics import GatePulse, PulseSequence, evolve, max_stable_dt, swap_duration
from qmemsim.extract import extract_coupled_mode_params, full_accumulation_inductance
from qmemsim.modemap import fit_avoided_crossing, hybridized_map, mode_map
from tests.conftest import assert_piece_steps


@pytest.fixture(scope="module")
def seed_path(tmp_path_factory):
    """Shipped example config (calibrated), written once per module."""
    path = tmp_path_factory.mktemp("cli") / "seed.json"
    assert main(["--seed-config", str(path)]) == 0
    return path


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def _csv_per_row(header, columns):
    """The per-row formatting that _write_csv replaced; kept as its reference."""
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns))
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.11e}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


_special_floats = st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
                                   -2.5e-310, 2.2250738585072014e-308, 1.7976931348623157e308])
_column_kinds = {
    # float columns as arrays, as the traces pass them; the rest as sequences
    "float": lambda n: hnp.arrays(np.float64, n, elements=st.one_of(_special_floats, st.floats())),
    "int": lambda n: st.one_of(st.just(range(n)),
                               st.lists(st.integers(-10**20, 10**20), min_size=n, max_size=n)),
    "str": lambda n: st.lists(st.text(alphabet="abc%,-. 0e", max_size=5), min_size=n, max_size=n),
}


@st.composite
def _tables(draw):
    n = draw(st.integers(0, 300))
    kinds = draw(st.lists(st.sampled_from(sorted(_column_kinds)), min_size=1, max_size=6))
    return [f"c{j}" for j in range(len(kinds))], [draw(_column_kinds[k](n)) for k in kinds]


@settings(max_examples=200, deadline=None)
@given(table=_tables())
@example(table=(["c0"], [[0, 2**63]]))  # numpy reads this list as float64
@example(table=(["c0", "c1"], [np.array([1.5, -0.0]), ["é", "x"]]))
@example(table=(["c0", "c1"], [["a\x00", "\x00"], np.array([float("nan"), 2.5e-7])]))
def test_write_csv_matches_per_row_formatting(table):
    header, columns = table
    expected = _csv_per_row(header, columns)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        cli._write_csv(path, header, columns)
        assert path.read_bytes() == expected.encode()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        cli._write_csv(None, header, columns)
    assert stdout.getvalue() == expected


def _formatted(values):
    """_write_csv's cells for one float column, one string per value."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        cli._write_csv(None, ["v"], [np.asarray(values, dtype=float)])
    return stdout.getvalue().split("\n")[1:-1]


class TestFloatFormatting:
    """Every float cell is '%.11e' % v, compared value by value."""

    def assert_exact(self, values):
        values = np.asarray(values, dtype=float)
        cells = _formatted(values)
        assert len(cells) == len(values)
        wrong = [(v, c) for v, c in zip(values.tolist(), cells) if c != "%.11e" % v]
        assert not wrong, wrong[:5]

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20201)
        self.assert_exact(rng.integers(0, 2**64, 120_000, dtype=np.uint64).view(np.float64))

    def test_named_edges(self):
        tiny = 2.2250738585072014e-308
        self.assert_exact([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
                           tiny, -tiny, 1e100, -1e100, -1e-100, 1e10, np.nextafter(1e10, 0)])
        assert _formatted([-0.0, float("-inf")]) == ["-0.00000000000e+00", "-inf"]

    def test_decade_carries(self):
        # 99999999999.95 is stored just below the half, so it does not carry
        self.assert_exact([99999999999.95, 99999999999.9501, 9.99999999999951e5,
                           9.999999999995e-5, -9.9999999999951e99])
        assert _formatted([99999999999.95, 9.99999999999951e5]) == [
            "9.99999999999e+10", "1.00000000000e+06"]

    def test_near_ties(self):
        # a half past 12 digits, give or take round-off: the scaled mantissa
        # of these can land on the wrong side of the half
        self.assert_exact([4.045895193695e-14, 5.406441891075e+76, 4.914527970025e-33])
        rng = np.random.default_rng(5)
        n = 20_000
        mantissa = rng.integers(10**11, 10**12, n) + 0.5
        values = mantissa * 10.0 ** rng.integers(-110, 100, n) * (1 + rng.uniform(-3e-16, 3e-16, n))
        self.assert_exact(values)

    def test_exact_ties_round_half_even(self):
        self.assert_exact([100000000000.5, 100000000001.5])
        assert _formatted([100000000000.5, 100000000001.5]) == [
            "1.00000000000e+11", "1.00000000002e+11"]


@pytest.mark.parametrize("columns", [[[1.0], [2.0, 3.0]], [[1.0, 2.0], [3.0]]],
                         ids=["later-longer", "later-shorter"])
def test_write_csv_rejects_unequal_columns(columns, tmp_path):
    with pytest.raises(ValueError, match=r"differ in length: \[(1, 2|2, 1)\]"):
        cli._write_csv(tmp_path / "t.csv", ["a", "b"], columns)


def test_parser_built_once(monkeypatch, capsys):
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def recorded(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recorded)
    assert main([]) == 1
    assert main([]) == 1
    assert len(parsers) == 2 and parsers[0] is parsers[1]


@pytest.mark.parametrize("argv, code, stream, start", [
    (["--version"], 0, "out", f"qmemsim {__version__}\n"),
    (["--help"], 0, "out", "usage: qmemsim"),
    (["spectrum", "--help"], 0, "out", "usage: qmemsim spectrum"),
    (["no-such-command"], 1, "err", "usage: qmemsim"),
    ([], 1, "err", "usage: qmemsim"),
], ids=["version", "help", "subcommand-help", "bad-command", "no-command"])
def test_repeated_calls_print_the_same(argv, code, stream, start, capsys):
    outputs = []
    for _ in range(2):
        assert main(argv) == code
        outputs.append(getattr(capsys.readouterr(), stream))
    assert outputs[0].startswith(start) and outputs[0] == outputs[1]


def test_readme_commands_and_schedule_parse(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```(\w*)\n(.*?)```", readme, re.S)
    lines = [line for lang, body in blocks if lang == "sh"
             for line in body.splitlines() if line.startswith("qmemsim ")]
    assert len(lines) >= 7
    for line in lines:
        try:  # comments=True drops a trailing "# or --from-fit"
            cli._build_parser().parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
    (schedule,) = [body for lang, body in blocks if lang == "json" and '"ops"' in body]
    path = tmp_path / "schedule.json"
    path.write_text(schedule)
    assert load_schedule(path).ops


class TestSeedConfig:
    def test_contents(self, seed_path):
        raw = json.loads(seed_path.read_text())
        assert raw["calibration"]["l_anchor"] == "220 pH"
        assert raw["cell"]["jj"]["r_off"] == "1000 ohm"
        assert [t.split()[0] for t in raw["array"]["targets"]] == ["6.55", "6.65", "6.7", "6.75"]

    def test_with_a_subcommand_is_a_usage_error(self, seed_path, tmp_path, capsys):
        # --seed-config writes its file and exits, so a subcommand beside it would be skipped
        target, out = tmp_path / "s.json", tmp_path / "x.csv"
        assert main(["--seed-config", str(target), "spectrum", str(seed_path),
                     "--state", "off", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("usage: qmemsim")
        assert not target.exists() and not out.exists()


class TestSpectrumCommand:
    def test_csv_schema_and_precision(self, seed_path, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(["spectrum", str(seed_path), "--state", "on:220pH", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["f_hz", "re_s21", "im_s21", "abs_s21_db"]
        assert len(rows) > 500
        # 12 significant digits, exponent notation, locale-independent
        assert all("." in cell and ("e+" in cell or "e-" in cell) for cell in rows[0])
        mantissa = rows[0][0].split("e")[0]
        assert len(mantissa.replace("-", "").replace(".", "")) == 12

    def test_byte_identical_reruns(self, seed_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["spectrum", str(seed_path), "--state", "on:220pH", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_off_state_reports_split_modes(self, seed_path, tmp_path):
        out = tmp_path / "off.csv"
        rep = tmp_path / "off.json"
        code = main(["spectrum", str(seed_path), "--state", "off",
                     "--out", str(out), "--report", str(rep)])
        assert code == 0
        peaks = json.loads(rep.read_text())["summary"]["peaks"]
        split = [p for p in peaks if 11.5e9 <= p["f0_hz"] <= 14.5e9]
        assert len(split) == 2

    def test_dip_without_root_is_warned(self, seed_path, tmp_path):
        out = tmp_path / "off.csv"
        rep = tmp_path / "off.json"
        assert main(["spectrum", str(seed_path), "--state", "off",
                     "--out", str(out), "--report", str(rep)]) == 0
        report = json.loads(rep.read_text())
        rootless = [p for p in report["summary"]["peaks"] if p["q_loaded"] is None]
        # the shallow 13.45 GHz dip of the seed config: its f0 is its trace minimum
        assert [round(p["f0_hz"] / 1e7) for p in rootless] == [1345]
        assert all(p["f0_hz"] == p["f_dip_hz"] for p in rootless)
        assert report["warnings"] == [
            f"peak at {p['f0_hz']:.5e} Hz: no circuit root on its dip; "
            "f0 from parabolic interpolation"
            for p in rootless
        ]

    def test_peaks_name_their_trace_dip(self, seed_path, tmp_path):
        rep = tmp_path / "off.json"
        assert main(["spectrum", str(seed_path), "--state", "off",
                     "--out", str(tmp_path / "off.csv"), "--report", str(rep)]) == 0
        peaks = json.loads(rep.read_text())["summary"]["peaks"]
        assert all(set(p) == {"f0_hz", "f_dip_hz", "depth_db", "q_loaded", "q_coupling",
                              "q_internal"} for p in peaks)
        # the 14 GHz split mode's root sits below its trace minimum
        rooted = [p for p in peaks if p["q_loaded"] is not None]
        assert len(rooted) == 1
        assert 0.0 < rooted[0]["f_dip_hz"] - rooted[0]["f0_hz"] < 0.1e9

    def test_off_state_steps_at_the_coarse_step(self, seed_path, tmp_path):
        raw = json.loads(seed_path.read_text())
        rows = []
        for step in ("0.002 GHz", "0.004 GHz"):
            raw["sweep"]["coarse_step"] = step
            cfg, out = tmp_path / "cfg.json", tmp_path / "off.csv"
            cfg.write_text(json.dumps(raw))
            assert main(["spectrum", str(cfg), "--state", "off", "--out", str(out)]) == 0
            rows.append(len(read_csv(out)[1]))
        assert rows[0] > rows[1]

    def test_off_state_band_keeps_the_cavity_window(self, seed_path, tmp_path):
        out = tmp_path / "off.csv"
        assert main(["spectrum", str(seed_path), "--state", "off", "--band", "6.4GHz,6.7GHz",
                     "--out", str(out)]) == 0
        freqs = np.array([float(row[0]) for row in read_csv(out)[1]])
        f_sc = sc_mode_estimate(load_config(seed_path).cell)
        assert np.count_nonzero(np.abs(freqs - f_sc) <= 5e6) >= 5000

    def test_bad_state_argument(self, seed_path):
        assert main(["spectrum", str(seed_path), "--state", "on:220"]) == 1
        assert main(["spectrum", str(seed_path), "--state", "maybe"]) == 1
        assert main(["spectrum", str(seed_path), "--state", "on:0pH"]) == 1
        assert main(["spectrum", str(seed_path), "--state", "on:-5pH"]) == 1

    @pytest.mark.parametrize("command", [["spectrum", "--state", "on:220pH"],
                                         ["array-spectrum", "--state", "on"]])
    def test_non_positive_band_is_a_usage_error(self, seed_path, command, capsys):
        assert main([command[0], str(seed_path), *command[1:], "--band", "0GHz,7GHz"]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestCalibrateCommand:
    def test_round_trip_reproduces_targets(self, seed_path, tmp_path):
        out = tmp_path / "calibrated.json"
        rep = tmp_path / "calibrated_report.json"
        assert main(["calibrate", str(seed_path), "--out", str(out), "--report", str(rep)]) == 0
        summary = json.loads(rep.read_text())["summary"]
        assert summary["sc_resonance_hz"] == pytest.approx(6.55e9, abs=1e3)
        assert summary["tcr_resonance_hz"] == pytest.approx(6.55e9, abs=1e3)
        assert summary["q_coupling"] == pytest.approx(2000.0, rel=1e-3)
        # the written fragment parses back and matches the seed geometry
        seed_raw = json.loads(seed_path.read_text())
        out_raw = json.loads(out.read_text())
        assert out_raw["calibration"] == seed_raw["calibration"]
        for key in ("sc_len", "tcr_half_len", "c_in"):
            a = float(out_raw["cell"][key].split()[0])
            b = float(seed_raw["cell"][key].split()[0])
            assert a == pytest.approx(b, rel=1e-6)


    def test_without_out_prints_the_config(self, seed_path, tmp_path, capsys):
        out = tmp_path / "calibrated.json"
        assert main(["calibrate", str(seed_path)]) == 0
        printed = capsys.readouterr().out
        assert main(["calibrate", str(seed_path), "--out", str(out)]) == 0
        assert printed == out.read_text(encoding="utf-8")


class TestModemapCommand:
    def test_window_and_coupling_in_report(self, seed_path, tmp_path):
        out = tmp_path / "map.csv"
        rep = tmp_path / "map.json"
        code = main(["modemap", str(seed_path), "--l-grid", "10pH,500pH,61",
                     "--out", str(out), "--report", str(rep)])
        assert code == 0
        report = json.loads(rep.read_text())
        summary = report["summary"]
        lo, hi = summary["window_h"]
        assert lo < 250e-12 and hi > 175e-12
        assert 100e6 <= summary["g_hz"] <= 500e6
        # on this grid the bare coupler stays within 2g of f_b at both ends,
        # so both window edges are grid ends and the report says so
        assert (lo, hi) == (10e-12, 500e-12)
        assert report["warnings"] == [
            "window_h lower edge clipped to the grid end 1e-11 H",
            "window_h upper edge clipped to the grid end 5e-10 H",
        ]
        header, rows = read_csv(out)
        assert header == ["l_j_h", "f_mode1_hz", "f_mode2_hz"]
        assert len(rows) == 61
        assert all(float(r[1]) < float(r[2]) for r in rows)


    def test_flagged_rows_are_warned(self, seed_path, tmp_path, monkeypatch):
        def flagged_map(cell, grid, min_depth_db):
            # closed-form map crossing f_b = 6.6 GHz at 200 pH, one row flagged
            mm = hybridized_map(grid, (0.0, 0.0, -2e6 / 1e-12, 7.0e9), 6.6e9, 250e6)
            return replace(mm, flagged=((3e-10, "1 resonance(s) in band"),))

        monkeypatch.setattr(cli, "mode_map", flagged_map)
        rep = tmp_path / "map.json"
        assert main(["modemap", str(seed_path), "--l-grid", "10pH,500pH,41",
                     "--out", str(tmp_path / "map.csv"), "--report", str(rep)]) == 0
        report = json.loads(rep.read_text())
        assert report["summary"]["flagged"] == [
            {"l_j_h": 3e-10, "reason": "1 resonance(s) in band"}
        ]
        assert report["warnings"][-1] == "row at l_j 3e-10 H flagged: 1 resonance(s) in band"


    @pytest.mark.parametrize("grid, message", [
        ("10pH,5pH,61", "--l-grid requires 0 < l_min < l_max"),
        ("0pH,5pH,61", "--l-grid requires 0 < l_min < l_max"),
        ("10pH,500pH,1", "--l-grid points must be an integer >= 8"),
        # fewer points than the crossing fit needs: never a numerical failure
        ("190pH,290pH,5", "--l-grid points must be an integer >= 8"),
        ("10pH,500pH,2.5", "--l-grid point count must be an integer"),
        ("10pH,500pH", "--l-grid expects 'lo,hi,n' (e.g. 10pH,500pH,61)"),
    ], ids=["decreasing", "zero-lo", "one-point", "five-points", "fractional-count",
            "two-parts"])
    def test_bad_grid_is_a_usage_error(self, seed_path, grid, message, capsys):
        assert main(["modemap", str(seed_path), "--l-grid", grid]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, points, message", [
        (["modemap", "{cfg}", "--l-grid", "10pH,500pH,100000000000"], None,
         "--l-grid points must be at most 10000"),
        (["modemap", "{cfg}", "--l-grid", "10pH,500pH,10001"], None,
         "--l-grid points must be at most 10000"),
        (["swap", "{cfg}", "--from-fit"], 100000000000,
         "invalid configuration:\n  - modemap: points must be at most 10000"),
    ], ids=["modemap-1e11", "modemap-10001", "swap-from-fit-1e11"])
    def test_huge_grid_fails_before_it_is_built(self, seed_path, tmp_path, monkeypatch, capsys,
                                                argv, points, message):
        # both commands build their grid in _crossing: it must never run
        def build(cfg, grid):
            pytest.fail(f"a {grid.points}-point grid was built")

        monkeypatch.setattr(cli, "_crossing", build)
        raw = json.loads(seed_path.read_text())
        if points is not None:
            raw["modemap"]["points"] = points
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main([a.format(cfg=cfg) for a in argv]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestArraySpectrumCommand:
    # coarse_step 2 MHz / 4 over the 300 MHz band: 600 intervals
    BAND = ["--band", "6.5GHz,6.8GHz"]

    def test_trace_and_peaks(self, seed_path, tmp_path):
        out = tmp_path / "array.csv"
        rep = tmp_path / "array.json"
        assert main(["array-spectrum", str(seed_path), *self.BAND,
                     "--out", str(out), "--report", str(rep)]) == 0
        header, rows = read_csv(out)
        assert header == ["f_hz", "re_s21", "im_s21", "abs_s21_db"]
        assert len(rows) == 601
        assert float(rows[0][0]) == 6.5e9 and float(rows[-1][0]) == 6.8e9
        report = json.loads(rep.read_text())
        peaks = report["summary"]["peaks"]
        assert peaks
        assert report["warnings"] == [
            f"peak at {p['f0_hz']:.5e} Hz: no circuit root on its dip; "
            "f0 from parabolic interpolation"
            for p in peaks
            if p["q_loaded"] is None
        ]

    def test_rootless_peak_is_warned_as_in_spectrum(self, seed_path, tmp_path):
        # OFF, each cell's lower split mode near 13.5 GHz has no circuit root
        rep = tmp_path / "array.json"
        assert main(["array-spectrum", str(seed_path), "--state", "off",
                     "--band", "13GHz,13.9GHz", "--out", str(tmp_path / "array.csv"),
                     "--report", str(rep)]) == 0
        report = json.loads(rep.read_text())
        peaks = report["summary"]["peaks"]
        assert len(peaks) == 4
        assert all(p["q_loaded"] is None and p["f_dip_hz"] == p["f0_hz"] for p in peaks)
        assert report["warnings"] == [
            f"peak at {p['f0_hz']:.5e} Hz: no circuit root on its dip; "
            "f0 from parabolic interpolation"
            for p in peaks
        ]

    def test_on_state_drives_the_calibration_anchor(self, tmp_path, monkeypatch):
        # without a calibration section the cells are calibrated at the
        # full-accumulation inductance, 329 pH at i_c_max = 1 uA, not 220 pH
        cfg = example_config(calibrated=False)
        cfg = replace(cfg, calibration=None,
                      cell=replace(cfg.cell, jj=replace(cfg.cell.jj, i_c_max=1e-6)))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        anchor = full_accumulation_inductance(cfg.cell)
        assert anchor == pytest.approx(329.1e-12, rel=1e-3)
        seen, real = [], cli.array_spectrum

        def recorded(array, states, grid, min_depth_db):
            seen.append(states)
            return real(array, states, grid, min_depth_db)

        monkeypatch.setattr(cli, "array_spectrum", recorded)
        assert main(["array-spectrum", str(path), *self.BAND,
                     "--out", str(tmp_path / "array.csv")]) == 0
        assert seen[0] == [anchor] * 4


    def test_bad_state_is_a_usage_error(self, seed_path, capsys):
        assert main(["array-spectrum", str(seed_path), "--state", "maybe"]) == 1
        assert "argument --state: invalid choice: 'maybe'" in capsys.readouterr().err


class TestSwapCommand:
    def test_analytic_exchange(self, seed_path, tmp_path):
        out = tmp_path / "swap.csv"
        rep = tmp_path / "swap.json"
        assert main(["swap", str(seed_path), "--g", "300MHz",
                     "--out", str(out), "--report", str(rep)]) == 0
        summary = json.loads(rep.read_text())["summary"]
        assert summary["g_hz"] == pytest.approx(300e6)
        assert summary["swap_duration_s"] == pytest.approx(0.8333e-9, rel=1e-3)
        assert summary["e_b_at_swap"] >= 0.999
        header, rows = read_csv(out)
        assert header == ["t_s", "re_a", "im_a", "re_b", "im_b", "e_a", "e_b"]
        # energies consistent with amplitudes on every row
        for row in rows[:: max(len(rows) // 20, 1)]:
            t, ra, ia, rb, ib, ea, eb = map(float, row)
            assert ea == pytest.approx(ra * ra + ia * ia, rel=1e-9, abs=1e-15)
            assert eb == pytest.approx(rb * rb + ib * ib, rel=1e-9, abs=1e-15)

    def test_requires_exactly_one_source(self, seed_path, capsys):
        assert main(["swap", str(seed_path)]) == 1
        assert "one of the arguments --g --from-fit is required" in capsys.readouterr().err
        assert main(["swap", str(seed_path), "--g", "300MHz", "--from-fit"]) == 1
        assert "argument --from-fit: not allowed with argument --g" in capsys.readouterr().err

    def test_g_source_ignores_the_calibration_section(self, seed_path, tmp_path):
        # resonant and lossless: the mode frequency drops out of the rotating frame
        raw = json.loads(seed_path.read_text())
        del raw["calibration"]
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(raw))
        outs = []
        for cfg in (seed_path, bare):
            out = tmp_path / f"swap-{cfg.stem}.csv"
            assert main(["swap", str(cfg), "--g", "300MHz", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_csv_equals_a_direct_evolve(self, seed_path, tmp_path):
        # the extracted system under one gate pulse spanning the whole run
        out = tmp_path / "swap.csv"
        assert main(["swap", str(seed_path), "--from-fit", "--out", str(out)]) == 0
        cfg = load_config(seed_path)
        grid = np.linspace(cfg.modemap.l_min, cfg.modemap.l_max, cfg.modemap.points)
        fit = fit_avoided_crossing(mode_map(cfg.cell, grid, min_depth_db=cfg.sweep.min_depth_db))
        system = extract_coupled_mode_params(cfg.cell, fit)
        assert 0.0 < system.g_off < system.g_on
        span = (0.0, 2.0 * swap_duration(system.g_on))
        pulses = PulseSequence(gate_pulses=(GatePulse(0.0, span[1]),))
        dt = cfg.dynamics.dt_fraction_of_guard * max_stable_dt(system, pulses)
        # an even number of steps of at most dt, so that one ends on the swap
        traj = evolve(system, pulses, span, 0.5 * span[1] / math.ceil(0.5 * span[1] / dt - 1e-9),
                      a0=1.0, b0=0.0)
        assert out.read_text() == _csv_per_row(
            ["t_s", "re_a", "im_a", "re_b", "im_b", "e_a", "e_b"],
            [traj.times, traj.a.real, traj.a.imag, traj.b.real, traj.b.imag, traj.e_a, traj.e_b])

    def test_report_hashes_a_config_near_the_float_maximum(self, seed_path, tmp_path):
        # 1e306 nH is 1e297 H, whose mantissa in pH overflows a float
        raw = json.loads(seed_path.read_text())
        raw["modemap"]["l_max"] = "1e306 nH"
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps(raw))
        rep = tmp_path / "swap.json"
        assert main(["swap", str(cfg), "--g", "300MHz", "--report", str(rep)]) == 0
        assert json.loads(rep.read_text())["config_hash"] == config_hash(load_config(cfg))

    def test_from_fit_maps_with_the_configured_depth(self, seed_path, tmp_path, monkeypatch):
        # swap --from-fit must map the same rows as modemap, so it must pass
        # sweep.min_depth_db on
        raw = json.loads(seed_path.read_text())
        raw["sweep"]["min_depth_db"] = 0.5
        cfg = tmp_path / "deep.json"
        cfg.write_text(json.dumps(raw))
        seen = []

        def recording_map(cell, grid, **kwargs):
            seen.append(kwargs)
            # closed-form map crossing f_b = 6.6 GHz at 200 pH
            return hybridized_map(grid, (0.0, 0.0, -2e6 / 1e-12, 7.0e9), 6.6e9, 250e6)

        monkeypatch.setattr(cli, "mode_map", recording_map)
        assert main(["swap", str(cfg), "--from-fit", "--out", str(tmp_path / "s.csv")]) == 0
        assert seen == [{"min_depth_db": 0.5}]


class TestErrorPaths:
    def test_missing_config_file(self, tmp_path):
        assert main(["spectrum", str(tmp_path / "nope.json"), "--state", "off"]) == 1

    def test_invalid_config_lists_violations(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"cell": {"c_in": "20", "sc_len": "4 GHz"}}))
        assert main(["spectrum", str(path), "--state", "off"]) == 1
        err = capsys.readouterr().err
        assert "c_in" in err and "sc_len" in err

    def test_section_that_is_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"cell": 5}))
        assert main(["spectrum", str(path), "--state", "off"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cell: expected an object" in err

    def test_missing_schedule_file(self, seed_path, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["protocol", str(seed_path), str(missing)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nope.json" in err

    def test_out_path_in_missing_directory(self, seed_path, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "trace.csv"
        assert main(["spectrum", str(seed_path), "--state", "off", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no-such-dir" in err

    def test_seed_config_in_missing_directory(self, tmp_path, capsys):
        assert main(["--seed-config", str(tmp_path / "no-such-dir" / "seed.json")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("what", ["config", "schedule"])
    def test_non_utf8_file_is_one_error_line(self, seed_path, tmp_path, capsys, what):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{\x00}\x00")
        argv = (["spectrum", str(bad), "--state", "off"] if what == "config"
                else ["protocol", str(seed_path), str(bad)])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {what} is not UTF-8 text: ") and err.count("\n") == 1

    def test_numerical_failure_exit_code(self, tmp_path):
        cfg = example_config(calibrated=False)
        raw = config_to_dict(cfg)
        raw["calibration"]["q_c"] = 1e30  # unreachable coupling target
        path = tmp_path / "impossible.json"
        path.write_text(json.dumps(raw))
        assert main(["calibrate", str(path)]) == 2

    @pytest.mark.parametrize("edit, argv, message", [
        (None, ["spectrum", "{cfg}", "--state", "off", "--band", "5.8GHz"],
         "--band expects 'lo,hi' (e.g. 5.8GHz,7.4GHz)"),
        (None, ["swap", "{cfg}", "--g", "0MHz"], "--g must be positive"),
        (lambda raw: raw.pop("calibration"), ["calibrate", "{cfg}"],
         "config has no 'calibration' section"),
        (lambda raw: raw.pop("array"), ["protocol", "{cfg}", "{sched}"],
         "config has no 'array' section with targets"),
        # a grid too small for the crossing fit is caught before any mapping
        (lambda raw: raw["modemap"].update(points=5), ["swap", "{cfg}", "--from-fit"],
         "invalid configuration:\n  - modemap: points must be an integer >= 8"),
    ], ids=["one-part-band", "zero-g", "no-calibration", "no-array", "unfittable-grid"])
    def test_unrunnable_request_is_a_usage_error(self, seed_path, tmp_path, capsys, edit, argv,
                                                 message):
        raw = json.loads(seed_path.read_text())
        if edit is not None:
            edit(raw)
        paths = {"cfg": tmp_path / "cfg.json", "sched": tmp_path / "sched.json"}
        paths["cfg"].write_text(json.dumps(raw))
        paths["sched"].write_text(json.dumps({"ops": [{"op": "write", "cell_index": 0}]}))
        assert main([a.format(**paths) for a in argv]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_no_command_prints_usage(self, capsys):
        assert main([]) == 1


class TestProtocolCommand:
    @pytest.mark.parametrize("ops, message", [
        ([{"op": "erase", "cell_index": 0}], "ops[0].op: expected 'write' or 'read'"),
        ([{"op": "write", "cell_index": 9}], "cell_index 9 out of range"),
        ([{"op": "write", "cell_index": 0, "rf_carrier": "7.5 GHz"}],
         "beyond half the cell spacing"),
        ([{"op": "write", "cell_index": 0, "rf_carrier": "-1 GHz"}],
         "AccessOp.rf_carrier must be positive"),
        ([{"op": "write", "cell_index": 0}, {"op": "read", "cell_index": 0}],
         "operations on cell 0 must not overlap"),
        ([{"op": "write", "cell_index": 0, "rf_duration": "0 ns"}],
         "AccessOp.rf_duration must be positive"),
        # an op has no amplitude: every reported number is an energy ratio
        ([{"op": "write", "cell_index": 0, "rf_amplitude": 0}], "unknown key 'rf_amplitude'"),
        ([{"op": "write", "cell_index": 0, "rf_amplitude": -1.0}], "unknown key 'rf_amplitude'"),
        # a read drives nothing: its RF fields would be parsed and ignored
        ([{"op": "write", "cell_index": 0},
          {"op": "read", "cell_index": 0, "start": "5000 ns", "rf_duration": "0.001 ns",
           "rf_carrier": "6.5501 GHz"}],
         "ops[1]: AccessOp: a read takes no rf_carrier or rf_duration"),
    ], ids=["unknown-op", "cell-out-of-range", "carrier-off-cell", "negative-carrier",
            "overlapping-ops", "zero-duration", "zero-amplitude", "negative-amplitude",
            "read-rf-fields"])
    def test_schedule_validation_error(self, seed_path, tmp_path, capsys, ops, message):
        sched = tmp_path / "bad_sched.json"
        sched.write_text(json.dumps({"ops": ops}))
        assert main(["protocol", str(seed_path), str(sched)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_write_read_report(self, seed_path, tmp_path):
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps({"ops": [
            {"op": "write", "cell_index": 0},
            {"op": "read", "cell_index": 0, "start": "5000 ns"},
        ]}))
        out = tmp_path / "fid.csv"
        xt = tmp_path / "xt.csv"
        rep = tmp_path / "rep.json"
        code = main(["protocol", str(seed_path), str(sched),
                     "--out", str(out), "--crosstalk-out", str(xt), "--report", str(rep)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["op_index", "op", "cell_index", "start_s", "fidelity"]
        assert [r[1] for r in rows] == ["write", "read"]
        assert all(float(r[4]) > 0.9 for r in rows)
        xt_header, xt_rows = read_csv(xt)
        assert len(xt_rows) == 4 and len(xt_header) == 4
        assert float(xt_rows[0][0]) == 1.0
        # every ratio in bounds: nothing to warn about
        report = json.loads(rep.read_text())
        assert report["warnings"] == []
        # each op's step count and largest step on its addressed cell
        steps, largest = report["summary"]["steps"], report["summary"]["largest_step_s"]
        assert len(steps) == len(largest) == 2
        assert all(isinstance(n, int) and n > 0 for n in steps) and min(largest) > 0.0

    def test_out_of_bound_ratios_are_warned(self, seed_path, tmp_path):
        # a 2 ns drive is far from quasi-static: the cell ends with more than
        # its coupler's peak, and every neighbour takes more than the coupler
        sched = tmp_path / "short.json"
        sched.write_text(json.dumps(
            {"ops": [{"op": "write", "cell_index": 1, "rf_duration": "2 ns"}]}))
        rep = tmp_path / "rep.json"
        assert main(["protocol", str(seed_path), str(sched), "--out", str(tmp_path / "f.csv"),
                     "--report", str(rep)]) == 0
        report = json.loads(rep.read_text())
        (fidelity,) = report["summary"]["fidelities"]
        assert fidelity > 1
        assert report["warnings"][0] == f"op 0: fidelity {fidelity:.6g} exceeds 1"
        assert [w.split(" is ")[0] for w in report["warnings"][1:]] == [
            f"crosstalk from cell 1 to cell {j}" for j in (0, 2, 3)]

    def test_step_fraction_is_read(self, seed_path, tmp_path, monkeypatch):
        # the write's evolve call, recorded, not the last digits of its fidelity
        calls = []
        original = dynamics.evolve

        def recorded(system, pulses, t_span, dt, *args, **kwargs):
            traj = original(system, pulses, t_span, dt, *args, **kwargs)
            calls.append((system, pulses, dt, traj.times))
            return traj

        monkeypatch.setattr(dynamics, "evolve", recorded)
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps({"ops": [{"op": "write", "cell_index": 0}]}))
        raw = json.loads(seed_path.read_text())
        assert raw["dynamics"]["dt_fraction_of_guard"] == 1.0
        raw["dynamics"]["dt_fraction_of_guard"] = 0.5
        fine_cfg = tmp_path / "fine.json"
        fine_cfg.write_text(json.dumps(raw))
        csvs, largest = [], []
        for cfg in (seed_path, fine_cfg):
            out = tmp_path / f"fid-{cfg.stem}.csv"
            rep = tmp_path / f"rep-{cfg.stem}.json"
            assert main(["protocol", str(cfg), str(sched), "--out", str(out),
                         "--report", str(rep)]) == 0
            csvs.append(read_csv(out))
            largest += json.loads(rep.read_text())["summary"]["largest_step_s"]
        (_, coarse), (_, fine) = csvs
        dt_coarse, dt_fine = (dt for _, _, dt, _ in calls)
        assert dt_fine == 0.5 * dt_coarse
        # the reported largest step is the write's, and every piece of the
        # write steps at the fraction of its own guard
        for step, (system, pulses, dt, times) in zip(largest, calls):
            assert step == float(np.max(np.diff(times)))
            assert_piece_steps(system, pulses, times, dt)
        # a finer step moves the fidelity only through RK4's truncation
        # error and its dense output's, where the peak is read
        assert float(fine[0][4]) == pytest.approx(float(coarse[0][4]), rel=1e-3)


def test_spectrum_leaves_numpy_ma_unloaded(seed_path, tmp_path):
    # numpy's set routines (np.unique and those built on it) import numpy.ma,
    # about 13 ms and 1.3 MiB on a process's first spectrum; the adaptive
    # sweep merges its grids by sort and searchsorted instead
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys; from qmemsim.cli import main; "
            "code = main(sys.argv[1:]); print(code, 'numpy.ma' in sys.modules)")
    argv = ["spectrum", str(seed_path), "--state", "off", "--out", str(tmp_path / "off.csv")]
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "0 False"
