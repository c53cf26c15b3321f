"""CLI surface: exit codes, CSV formats, determinism."""
import json

import pytest

from qmemsim.cli import main
from qmemsim.config import config_to_dict, example_config


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


class TestSeedConfig:
    def test_contents(self, seed_path):
        raw = json.loads(seed_path.read_text())
        assert raw["calibration"]["l_anchor"] == "220 pH"
        assert raw["cell"]["jj"]["r_off"] == "1000 ohm"
        assert [t.split()[0] for t in raw["array"]["targets"]] == ["6.55", "6.65", "6.7", "6.75"]


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

    def test_fit_fallback_is_warned(self, seed_path, tmp_path):
        out = tmp_path / "off.csv"
        rep = tmp_path / "off.json"
        assert main(["spectrum", str(seed_path), "--state", "off",
                     "--out", str(out), "--report", str(rep)]) == 0
        report = json.loads(rep.read_text())
        unfit = [p["f0_hz"] for p in report["summary"]["peaks"] if p["q_loaded"] is None]
        assert unfit  # the shallow 13.45 GHz peak of the seed config
        assert report["warnings"] == [
            f"peak at {f:.5e} Hz: notch fit failed; f0 from parabolic interpolation"
            for f in unfit
        ]

    def test_bad_state_argument(self, seed_path):
        assert main(["spectrum", str(seed_path), "--state", "on:220"]) == 1
        assert main(["spectrum", str(seed_path), "--state", "maybe"]) == 1


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

    def test_requires_exactly_one_source(self, seed_path):
        assert main(["swap", str(seed_path)]) == 1
        assert main(["swap", str(seed_path), "--g", "300MHz", "--from-fit"]) == 1


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

    def test_numerical_failure_exit_code(self, tmp_path):
        cfg = example_config(calibrated=False)
        raw = config_to_dict(cfg)
        raw["calibration"]["q_c"] = 1e30  # unreachable coupling target
        path = tmp_path / "impossible.json"
        path.write_text(json.dumps(raw))
        assert main(["calibrate", str(path)]) == 2

    def test_no_command_prints_usage(self, capsys):
        assert main([]) == 1


class TestProtocolCommand:
    def test_schedule_validation_error(self, seed_path, tmp_path):
        sched = tmp_path / "bad_sched.json"
        sched.write_text(json.dumps({"ops": [{"op": "erase", "cell_index": 0}]}))
        assert main(["protocol", str(seed_path), str(sched)]) == 1

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
