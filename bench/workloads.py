"""The benchmark's three workloads.

Each workload turns a seed into inputs (`prepare`), runs one pass of the
program on them (`execute`, the only timed part) and checks the pass's
outputs afterwards (`check`).  A check returns one `Op` per operation the
pass attempted, and a digest item per deterministic output; two passes in
one process that produced the same item must produce the same bytes.

- calibrate: `build_array` on a seeded four-cell band plan.  Nested scalar
  root-finds over `chain_abcd` do nearly all the work.
- characterize: the single-cell CLI session (`spectrum`, `modemap`, zoomed
  `modemap`, `swap --from-fit`) on a pinned calibrated config.  Vector
  network sweeps, notch fits, the mode map and CSV output do the work; no
  calibration runs.
- schedule: `run_schedule` on a pinned four-cell array with prebuilt cell
  models.  Nearly all the time is RK4 in `dynamics.evolve`; no network code
  runs in the timed part.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

# Program functions are called through their modules (array.build_array, not
# a name imported here), so that a traced pass reaches the tracer's wrappers.
from qmemsim import array, calibrate, cli, config
from qmemsim.array import AccessOp, AccessSchedule, MemoryArray
from qmemsim.calibrate import CalibrationError
from qmemsim.extract import ExtractionError

DATA = Path(__file__).resolve().parent / "data"

#: Exceptions the program raises for a numerical failure (the CLI's exit 2).
NUMERICAL_ERRORS = (CalibrationError, ExtractionError, ArithmeticError, ValueError)


@dataclass
class Op:
    """Outcome of one attempted operation."""

    name: str
    ok: bool
    reason: str = ""


@dataclass
class Checked:
    """What the checks found in one pass."""

    ops: list[Op]
    digest: dict[str, str] = field(default_factory=dict)
    csv_rows: int = 0


def _hex(values) -> str:
    return ",".join(float(v).hex() for v in np.ravel(values))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ------------------------- calibrate -------------------------


class Calibrate:
    name = "calibrate"

    def prepare(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        spacing, n = 60e6, 4
        free = 0.50e9 - (n - 1) * spacing
        offsets = sorted(rng.uniform(0.0, free) for _ in range(n))
        targets = tuple(6.40e9 + o + i * spacing for i, o in enumerate(offsets))
        return {
            "targets": targets,
            "q_c": rng.uniform(1500.0, 3500.0),
            "l_anchor": rng.uniform(190e-12, 250e-12),
            "template": config.example_template(),
        }

    def warmup_inputs(self, state):
        """Cell 0 alone: every code path of a pass, a quarter of the work."""
        return dict(state, targets=state["targets"][:1])

    def execute(self, state):
        try:
            return array.build_array(state["targets"], state["template"],
                                     l_anchor=state["l_anchor"], q_c=state["q_c"])
        except NUMERICAL_ERRORS as exc:
            return exc

    def check(self, state, result) -> Checked:
        targets = state["targets"]
        names = [f"cell{i}" for i in range(len(targets))]
        if isinstance(result, Exception):
            reason = f"build_array: {type(result).__name__}: {result}"
            return Checked([Op(n, False, reason) for n in names])
        out = Checked([])
        for name, cell, target in zip(names, result.cells, targets):
            try:
                f_sc = calibrate.sc_branch_resonance(cell)
                f_tcr = calibrate.tcr_branch_resonance(cell, state["l_anchor"])
                q_c = calibrate.measure_isolated_tcr(cell, state["l_anchor"]).q_coupling
            except NUMERICAL_ERRORS as exc:
                out.ops.append(Op(name, False, f"check raised {exc!r}"))
                continue
            bad = []
            if abs(f_sc - target) > 1e3:
                bad.append(f"storage resonance {f_sc:.6f} Hz vs {target:.6f} Hz")
            if abs(f_tcr - target) > 1e3:
                bad.append(f"TCR resonance {f_tcr:.6f} Hz vs {target:.6f} Hz")
            if abs(q_c / state["q_c"] - 1.0) > 1e-3:
                bad.append(f"q_c {q_c:.6f} vs {state['q_c']:.6f}")
            out.ops.append(Op(name, not bad, "; ".join(bad)))
            out.digest[f"geometry@{target!r}"] = _hex(
                [cell.sc_len, cell.tcr_half_len, cell.c_in])
        return out


# ------------------------- characterize -------------------------


class Characterize:
    name = "characterize"

    MAP_ROWS = 61
    ZOOM_ROWS = 25

    def prepare(self, seed: int, workdir: Path):
        # the seed moves grid ends and the junction inductance; row counts
        # stay fixed, so every seed does about the same work
        rng = random.Random(seed)
        grid = (rng.uniform(10.0, 20.0), rng.uniform(480.0, 500.0), self.MAP_ROWS)
        zoom = (rng.uniform(190.0, 215.0), rng.uniform(265.0, 290.0), self.ZOOM_ROWS)
        l_on = rng.uniform(150.0, 300.0)
        raw = json.loads((DATA / "seed_config.json").read_text())
        # swap --from-fit maps the config's grid: make it the modemap grid
        raw["modemap"] = {"l_min": f"{grid[0]:.3f} pH", "l_max": f"{grid[1]:.3f} pH",
                          "points": grid[2]}
        workdir.mkdir(parents=True, exist_ok=True)
        cfg = workdir / "config.json"
        cfg.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")
        out = workdir.as_posix()
        commands = {
            "spectrum-on": ["spectrum", "--state", f"on:{l_on:.3f}pH"],
            "spectrum-off": ["spectrum", "--state", "off"],
            "modemap": ["modemap", "--l-grid", f"{grid[0]:.3f}pH,{grid[1]:.3f}pH,{grid[2]}"],
            "modemap-zoom": ["modemap", "--l-grid",
                             f"{zoom[0]:.3f}pH,{zoom[1]:.3f}pH,{zoom[2]}"],
            "swap": ["swap", "--from-fit"],
        }
        argvs = {}
        for key, cmd in commands.items():
            argvs[key] = [cmd[0], cfg.as_posix(), *cmd[1:],
                          "--out", f"{out}/{key}.csv", "--report", f"{out}/{key}.json"]
        return {"workdir": workdir, "argvs": argvs, "zoom_h": (zoom[0] * 1e-12,
                                                                zoom[1] * 1e-12)}

    def warmup_inputs(self, state):
        return state

    def execute(self, state):
        return {key: cli.main(argv) for key, argv in state["argvs"].items()}

    def check(self, state, codes) -> Checked:
        out = Checked([])
        reports = {}
        for key, code in codes.items():
            csv = state["workdir"] / f"{key}.csv"
            rep = state["workdir"] / f"{key}.json"
            reports[key] = None
            if code == 0 and csv.exists() and rep.exists():
                data = csv.read_bytes()
                out.csv_rows += data.count(b"\n") - 1
                out.digest[f"{key}.csv"] = _sha(data)
                out.digest[f"{key}.json"] = _sha(rep.read_bytes())
                reports[key] = json.loads(rep.read_text())["summary"]
            # the next pass must not find this pass's files
            csv.unlink(missing_ok=True)
            rep.unlink(missing_ok=True)
        for key, code in codes.items():
            summary = reports[key]
            if summary is None:
                out.ops.append(Op(key, False, f"exit code {code} or missing output"))
                continue
            bad = SESSION_CHECKS[key](state, summary, reports)
            out.ops.append(Op(key, not bad, "; ".join(bad)))
        return out


def _check_spectrum_on(state, s, reports):
    return [] if s["peaks"] else ["no resonance in the ON spectrum"]


def _check_spectrum_off(state, s, reports):
    split = [p for p in s["peaks"] if 11.5e9 <= p["f0_hz"] <= 14.5e9]
    return [] if len(split) == 2 else [f"{len(split)} split modes in 11.5-14.5 GHz"]


def _check_modemap(state, s, reports):
    bad = []
    if not 100e6 <= s["g_hz"] <= 500e6:
        bad.append(f"g {s['g_hz']:.6e} Hz outside 100-500 MHz")
    lo, hi = s["window_h"]
    if not (lo < 250e-12 and hi > 175e-12):
        bad.append(f"window {lo:.3e}-{hi:.3e} H misses 175-250 pH")
    if s["flagged"]:
        bad.append(f"{len(s['flagged'])} flagged rows")
    return bad


def _check_modemap_zoom(state, s, reports):
    bad = _check_modemap(state, s, reports)
    lo, hi = state["zoom_h"]
    if not lo < s["l_cross_h"] < hi:
        bad.append(f"crossing {s['l_cross_h']:.4e} H outside the zoom grid")
    return bad


def _check_swap(state, s, reports):
    full = reports.get("modemap")
    if full is None:
        return ["no modemap report to compare g with"]
    # the swap report divides the fit's 2 pi g by 2 pi: equal up to
    # that round trip's few ulps
    if abs(s["g_hz"] / full["g_hz"] - 1.0) > 1e-12:
        return [f"swap g {s['g_hz']!r} Hz != modemap g {full['g_hz']!r} Hz"]
    return []


#: Output check of each session command: (state, its report summary, every
#: command's summary) -> list of problems.
SESSION_CHECKS = {
    "spectrum-on": _check_spectrum_on,
    "spectrum-off": _check_spectrum_off,
    "modemap": _check_modemap,
    "modemap-zoom": _check_modemap_zoom,
    "swap": _check_swap,
}


# ------------------------- schedule -------------------------


def load_array():
    """The pinned four-cell array (geometry solved by build_array)."""
    raw = json.loads((DATA / "array.json").read_text())
    template = config.example_template()
    cells = tuple(replace(template, **geometry) for geometry in raw["cells"])
    return MemoryArray(cells=cells, targets=tuple(raw["targets"]), z_ref=template.z0)


class Schedule:
    name = "schedule"

    #: start-time spacing; every op ends within 2 us of its start
    SLOT = 5e-6
    #: ops per cell, in order: reads follow a write to the same cell.  Cells
    #: 1 and 3 are only written, so criterion 8's bound applies to their rows.
    PER_CELL = {0: ("write", "read") * 3, 1: ("write",), 2: ("write", "read") * 2,
                3: ("write",)}

    def prepare(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        memory = load_array()
        models = array._cell_models(memory)
        # the seed sets the interleaving; which ops each cell takes is fixed,
        # so every seed does the same integration work
        per_cell = {c: list(seq) for c, seq in self.PER_CELL.items()}
        slots = [c for c, seq in per_cell.items() for _ in seq]
        rng.shuffle(slots)
        ops = tuple(
            AccessOp(op=per_cell[c].pop(0), cell_index=c, start=k * self.SLOT)
            for k, c in enumerate(slots)
        )
        return {"array": memory, "models": models, "schedule": AccessSchedule(ops=ops)}

    def warmup_inputs(self, state):
        """One write and one read on cell 0: both uses of the integrator."""
        ops = (AccessOp(op="write", cell_index=0),
               AccessOp(op="read", cell_index=0, start=self.SLOT))
        return dict(state, schedule=AccessSchedule(ops=ops))

    def execute(self, state):
        try:
            return array.run_schedule(state["array"], state["schedule"], models=state["models"])
        except NUMERICAL_ERRORS as exc:
            return exc

    def check(self, state, report) -> Checked:
        ops = state["schedule"].ops
        names = [f"op{k}:{op.op}@cell{op.cell_index}" for k, op in enumerate(ops)]
        if isinstance(report, Exception):
            reason = f"run_schedule: {type(report).__name__}: {report}"
            return Checked([Op(n, False, reason) for n in names])
        kinds: dict[int, set] = {}
        for op in ops:
            kinds.setdefault(op.cell_index, set()).add(op.op)
        systems = [m.system for m in state["models"]]
        row_bad: dict[int, list[str]] = {}
        out = Checked([])
        for i, seen in kinds.items():
            row = report.crosstalk[i]
            out.digest[f"crosstalk[{i}]:{'+'.join(sorted(seen))}"] = _hex(row)
            bad = []
            for j, x in enumerate(row):
                if j == i:
                    continue
                if seen == {"write"}:
                    # criterion 8: the steady-state Lorentzian filter bound
                    # holds for slow write envelopes
                    delta = abs(systems[j].omega_b - systems[i].omega_b)
                    bound = array.off_resonant_bound(
                        systems[j].kappa_ext + systems[j].kappa_int_a, delta)
                    if not x <= 1.5 * bound:
                        bad.append(f"crosstalk[{i},{j}] {x:.4e} > 1.5 x {bound:.4e}")
                elif not 0.0 <= x < 1.0:
                    # the read's emitted pulse is a fast transient, which the
                    # Lorentzian bound does not cover; neighbors still must
                    # absorb less than the addressed cell
                    bad.append(f"crosstalk[{i},{j}] {x:.4e} outside [0, 1)")
            row_bad[i] = bad
        for name, op, fid in zip(names, ops, report.fidelities):
            bad = list(row_bad[op.cell_index])
            # identical ops (same kind, same cell) must give identical bytes
            key = f"fidelity:{op.op}@cell{op.cell_index}"
            if out.digest.setdefault(key, _hex([fid])) != _hex([fid]):
                bad.append(f"fidelity differs from an identical op: {fid!r}")
            if not fid >= 0.9:
                bad.append(f"fidelity {fid:.6f} < 0.9")
            out.ops.append(Op(name, not bad, "; ".join(bad)))
        return out


WORKLOADS = {w.name: w for w in (Calibrate(), Characterize(), Schedule())}

