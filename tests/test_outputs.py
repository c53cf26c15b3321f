"""Pinned CLI outputs: every file a fixed command list writes, byte for byte.

The commands run in-process on the `--seed-config` file.  Each result is
compared with tests/outputs.json: the exit code, stdout, stderr, the sha256
of every written file and every `--report` JSON in full.  The bytes depend
on Python, numpy, libm and BLAS, so the manifest records the Python and
numpy versions, and the test skips where either differs.

Regenerate the manifest, after an intended change of output, with

    PYTHONPATH=src python tests/test_outputs.py

and list each moved entry in CHANGES.md.
"""
import contextlib
import hashlib
import io
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from qmemsim.cli import main

MANIFEST = Path(__file__).with_name("outputs.json")

#: file name -> the schedule `protocol` runs; README.md shows the two-op
#: one and times the four-op one
SCHEDULES = {
    "schedule.json": {"ops": [
        {"op": "write", "cell_index": 0},
        {"op": "write", "cell_index": 2},
        {"op": "read", "cell_index": 0, "start": "5000 ns"},
        {"op": "read", "cell_index": 2, "start": "6000 ns"},
    ]},
    "readme.json": {"ops": [
        {"op": "write", "cell_index": 0},
        {"op": "read", "cell_index": 0, "start": "5000 ns"},
    ]},
    "four-op.json": {"ops": [
        {"op": "write", "cell_index": 1},
        {"op": "read", "cell_index": 1, "start": "5000 ns"},
        {"op": "write", "cell_index": 3},
        {"op": "read", "cell_index": 2},
    ]},
}

#: name -> {section: keys} that a command's config sets over the seed config's
OVERRIDES = {
    "protocol-four-op-quarter-guard": {"dynamics": {"dt_fraction_of_guard": 0.25}},
    # the first two targets 100 kHz apart, under ten linewidths
    "protocol-not-addressable": {"array": {"targets": ["6.55 GHz", "6.5501 GHz", "6.7 GHz",
                                                      "6.75 GHz"]}},
}

#: name -> (argv after the config path, files written besides the report).
#: "{name}" in a file name is the command's name.
COMMANDS = {
    "calibrate": (["calibrate"], ["{name}.out.json"]),
    "spectrum-on-220pH-band": (["spectrum", "--state", "on:220pH", "--band", "5.8GHz,7.4GHz"],
                               ["{name}.csv"]),
    "spectrum-on-173.3pH": (["spectrum", "--state", "on:173.3pH"], ["{name}.csv"]),
    "spectrum-off": (["spectrum", "--state", "off"], ["{name}.csv"]),
    "modemap": (["modemap"], ["{name}.csv"]),
    "modemap-zoom": (["modemap", "--l-grid", "190pH,290pH,25"], ["{name}.csv"]),
    # error exits: a grid the settings refuse before it is built (exit 1), and
    # a grid whose crossing fit finds no crossing (exit 2)
    "modemap-too-many-points": (["modemap", "--l-grid", "10pH,500pH,100000000000"],
                                ["{name}.csv"]),
    "modemap-not-bracketed": (["modemap", "--l-grid", "300pH,400pH,21"], ["{name}.csv"]),
    "swap-from-fit": (["swap", "--from-fit"], ["{name}.csv"]),
    "swap-g": (["swap", "--g", "300MHz"], ["{name}.csv"]),
    "protocol": (["protocol", "{dir}/schedule.json", "--crosstalk-out", "{dir}/{name}.xt.csv"],
                 ["{name}.csv", "{name}.xt.csv"]),
    "protocol-readme": (["protocol", "{dir}/readme.json",
                         "--crosstalk-out", "{dir}/{name}.xt.csv"],
                        ["{name}.csv", "{name}.xt.csv"]),
    "protocol-four-op-quarter-guard": (["protocol", "{dir}/four-op.json",
                                        "--crosstalk-out", "{dir}/{name}.xt.csv"],
                                       ["{name}.csv", "{name}.xt.csv"]),
    "array-spectrum-on": (["array-spectrum", "--state", "on"], ["{name}.csv"]),
    "array-spectrum-off": (["array-spectrum", "--state", "off"], ["{name}.csv"]),
    # error exits: a band plan the array cannot address (exit 2), and inputs
    # refused before any work (exit 1)
    "protocol-not-addressable": (["protocol", "{dir}/schedule.json",
                                  "--crosstalk-out", "{dir}/{name}.xt.csv"],
                                 ["{name}.csv", "{name}.xt.csv"]),
    "spectrum-on-0pH": (["spectrum", "--state", "on:0pH"], ["{name}.csv"]),
    "spectrum-band-reversed": (["spectrum", "--state", "on:220pH", "--band", "7GHz,6GHz"],
                               ["{name}.csv"]),
    "array-spectrum-band-one-end": (["array-spectrum", "--band", "1GHz"], ["{name}.csv"]),
    "swap-g-zero": (["swap", "--g", "0MHz"], ["{name}.csv"]),
}


def _versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def _run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_commands() -> dict:
    """The result of `--seed-config` and of every command in COMMANDS."""
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for file, schedule in SCHEDULES.items():
            (d / file).write_text(json.dumps(schedule))
        seed = d / "seed.json"
        results["seed-config"] = {**_run(["--seed-config", str(seed)]),
                                  "files": {seed.name: _sha(seed)}, "reports": {}}
        for name, (args, written) in COMMANDS.items():
            args = [a.format(dir=tmp, name=name) for a in args]
            written = [w.format(name=name) for w in written]
            config = seed
            if name in OVERRIDES:
                raw = json.loads(seed.read_text(encoding="utf-8"))
                for section, keys in OVERRIDES[name].items():
                    raw[section].update(keys)
                config = d / f"{name}.config.json"
                config.write_text(json.dumps(raw), encoding="utf-8")
            result = _run([args[0], str(config), *args[1:], "--out", str(d / written[0]),
                           "--report", str(d / f"{name}.json")])
            paths = [d / w for w in written] + [d / f"{name}.json"]
            result["files"] = {p.name: _sha(p) for p in paths if p.exists()}
            report = d / f"{name}.json"
            result["reports"] = ({report.name: json.loads(report.read_text())}
                                 if report.exists() else {})
            results[name] = result
    return results


def _leaves(value, path=""):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(v, f"{path}.{k}")
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, value


def moved_keys(old, new) -> list:
    """'key: old -> new' of every report value that differs, with the
    relative change of a number."""
    old, new = dict(_leaves(old)), dict(_leaves(new))
    moved = []
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key, "<absent>"), new.get(key, "<absent>")
        if a == b or (a != a and b != b):  # nan == nan here
            continue
        line = f"{key}: {a!r} -> {b!r}"
        if all(isinstance(v, float | int) and not isinstance(v, bool) for v in (a, b)) \
                and math.isfinite(a) and a != 0:
            line += f" ({abs(b - a) / abs(a):.2g} relative)"
        moved.append(line)
    return moved


@pytest.fixture(scope="module")
def pinned():
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    if manifest["versions"] != _versions():
        pytest.skip(f"outputs pinned under {manifest['versions']}, running {_versions()}: "
                    "their bytes may differ")
    return manifest["commands"], run_commands()


@pytest.mark.parametrize("name", ["seed-config", *COMMANDS])
def test_output_is_pinned(pinned, name):
    expected, results = pinned
    want, got = expected[name], results[name]
    for key in ("exit", "stdout", "stderr"):
        assert got[key] == want[key], f"{name}: {key}"
    for report in want["reports"].keys() | got["reports"].keys():
        moved = moved_keys(want["reports"].get(report), got["reports"].get(report))
        assert not moved, f"{name}: {report} moved:\n" + "\n".join(moved)
    assert got["files"] == want["files"], f"{name}: written files differ"


def test_moved_keys_names_each_change():
    old = {"summary": {"peaks": [{"f0_hz": 2.0, "q": None}], "n": 3}, "warnings": []}
    new = {"summary": {"peaks": [{"f0_hz": 2.5, "q": 1.0}], "n": 3}, "warnings": ["w"]}
    assert moved_keys(old, new) == [".summary.peaks[0].f0_hz: 2.0 -> 2.5 (0.25 relative)",
                                    ".summary.peaks[0].q: None -> 1.0",
                                    ".warnings[0]: '<absent>' -> 'w'"]
    assert moved_keys(old, old) == []


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps({"versions": _versions(), "commands": run_commands()},
                                   indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST}", file=sys.stderr)
