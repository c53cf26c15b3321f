"""Command-line entry points.

Every command reads a JSON config (see qmemsim.config), writes numeric
traces as CSV (single header row, fixed column order, 12 significant
digits, locale-independent) and optionally a JSON run report with the
summary scalars.  Exit codes: 0 success, 1 validation error, 2 numerical
failure.

CSV cells: a float cell is '%.11e' % v for every double v (so nan, inf,
-inf), any other cell is str(v); files are UTF-8 with "\\n" line ends.
The table is formatted in one vectorised pass, exact because the scaled
mantissa is rounded only where its error cannot cross a rounding tie;
values near a tie, non-finite, subnormal or beyond 1e±99 fall back to
'%.11e' % v (see _put_floats).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from functools import cache, partial

import numpy as np

from . import __version__
from .array import ScheduleError, build_array, array_spectrum, run_schedule
from .calibrate import (
    CalibrationError,
    calibrate_geometry,
    measure_isolated_tcr,
    sc_branch_resonance,
    tcr_branch_resonance,
)
from .cell import OFF_BAND, band_grid, spectrum
from .config import (
    Config,
    ConfigError,
    ModeMapSettings,
    config_hash,
    config_to_dict,
    example_config,
    load_config,
    load_schedule,
    parse_quantity,
    save_config,
)
from .dynamics import (
    TWO_PI,
    CoupledModeSystem,
    GatePulse,
    PulseSequence,
    evolve,
    max_stable_dt,
    swap_duration,
)
from .extract import ExtractionError, extract_coupled_mode_params, full_accumulation_inductance
from .jjfet import OFF
from .modemap import fit_avoided_crossing, mode_map
from .resonance import db


class UsageError(ValueError):
    """Bad command-line arguments or inputs; exit code 1."""


def _is_float_column(c) -> bool:
    # a list's values, not np.asarray: numpy reads ints beyond int64 as floats
    if isinstance(c, np.ndarray):
        return c.dtype.kind == "f"
    return all(isinstance(v, float) for v in c)


def _words(cells):
    """Four-byte strings as native uint32 words, one per string."""
    return np.frombuffer("".join(cells).encode("latin-1"), np.uint32)


def _digit_words():
    """The words "0000" to "9999" and "000e" to "999e", built from digit pairs.

    Full-size integer temporaries here, at import, would raise the peak
    memory of every command by about 1 MiB.
    """
    pairs = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint8)
    four = np.empty((100, 100, 4), np.uint8)
    four[..., :2] = pairs.reshape(100, 1, 2)
    four[..., 2:] = pairs.reshape(100, 2)
    four = four.reshape(-1, 4)
    three_e = four[::10].copy()
    three_e[:, 3] = ord("e")
    return four.view(np.uint32).ravel(), three_e.view(np.uint32).ravel()


#: bytes of a float cell with its separator; the longest is "-1.79769313486e+308,"
_FLOAT_WIDTH = 20
#: a float cell as five words: "\0-d.", "dddd", "dddd", "ddde", "+dd" and the separator
_LEAD = _words(f"\0-{i}." for i in range(10))
_DIGITS, _DIGITS_E = _digit_words()
_EXPONENT = _words(f"{e:+03d}\0" for e in range(-99, 100))
#: which bytes of the lead word a positive and a negative value print
_LEAD_KEEP = _words(["\0\0\1\1", "\0\1\1\1"])
_ALL_KEEP = _words(["\1\1\1\1"])[0]
#: _SCALE[e + 99] is float("1e{11 - e}"), correctly rounded, for |e| <= 99
_SCALE = np.array([float(f"1e{11 - e}") for e in range(-99, 100)])


def _put_floats(out, keep, values):
    """Write '%.11e' % v of each double into a row of out; mark its bytes in keep.

    With e = floor(log10|v|), y = |v| * 10**(11 - e) is two correctly rounded
    operations from exact, so its error is below 4e-4.  When y lies more
    than 1e-3 from a half and rounds to 12 digits, that rounding is the
    mantissa %.11e prints.  The rest (near-ties, nan, inf, subnormals,
    |e| >= 100, a log10 off by one) is formatted value by value.
    """
    v = np.asarray(values, dtype=np.float64)
    x = np.abs(v)
    with np.errstate(all="ignore"):  # log10 of 0, nan and inf; all leave `fast`
        e = np.floor(np.log10(x))
        fast = np.abs(e) < 100
        e = np.where(fast, e, 0).astype(np.intp)
        y = x * _SCALE[e + 99]
        m = np.rint(y)
        fast &= (np.abs(y - np.floor(y) - 0.5) > 1e-3) & (m >= 1e11) & (m < 1e12)
    fast |= x == 0  # e = 0 and m = 0 print 0.00000000000e+00
    m = np.where(fast, m, 0).astype(np.int64)
    lead, m = np.divmod(m, 10**11)
    high, m = np.divmod(m, 10**7)
    low, last = np.divmod(m, 1000)
    words = out.view(np.uint32)
    words[:, 0] = _LEAD[lead]
    words[:, 1] = _DIGITS[high]
    words[:, 2] = _DIGITS[low]
    words[:, 3] = _DIGITS_E[last]
    words[:, 4] = _EXPONENT[e + 99]
    kept = keep.view(np.uint32)
    kept[:, 0] = _LEAD_KEEP[np.signbit(v).view(np.uint8)]
    kept[:, 1:] = _ALL_KEEP
    slow = np.flatnonzero(~fast)
    if slow.size:
        _put_cells(out, keep, [b"%.11e" % f for f in v[slow].tolist()], slow)


def _put_cells(out, keep, cells, rows=slice(None)):
    """Write byte strings left-aligned into out[rows], short of its last byte.

    Marks the bytes each string uses in keep.
    """
    width = out.shape[1] - 1
    if width:
        out[rows, :width] = np.array(cells, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    lengths = np.fromiter(map(len, cells), np.intp, len(cells))
    keep[rows, :width] = np.arange(width) < lengths[:, None]


def _write_csv(path, header, columns):
    """CSV of equal-length columns: a float column as %.11e, any other as str.

    A float cell is exactly '%.11e' % v for every double v (nan, inf and
    -inf included) and any other cell is str(v), in UTF-8 with "\\n" line
    ends.  Each column is a fixed-width block of one byte buffer of rows,
    ending in its separator, and a mask of the bytes each cell uses drops
    the padding.  Float digits come from one scaling per value, exact away
    from rounding ties (see _put_floats); values near a tie fall back to
    '%.11e' % v.
    """
    columns = [c if isinstance(c, np.ndarray) else list(c) for c in columns]
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"CSV columns differ in length: {lengths}")
    fields = []
    for c in columns:
        if _is_float_column(c):
            fields.append((_FLOAT_WIDTH, partial(_put_floats, values=c)))
        else:
            cells = [str(v).encode() for v in (c.tolist() if isinstance(c, np.ndarray) else c)]
            # whole words, so that the float blocks stay word-aligned
            width = (max(map(len, cells), default=0) + 4) // 4 * 4
            fields.append((width, partial(_put_cells, cells=cells)))
    buf = np.empty((lengths[0], sum(w for w, _ in fields)), np.uint8)
    keep = np.empty(buf.shape, bool)
    k = 0
    for w, put in fields:
        k += w
        put(buf[:, k - w:k], keep[:, k - w:k])
        buf[:, k - 1] = ord(",")
        keep[:, k - 1] = True
    buf[:, -1] = ord("\n")
    head = ",".join(header) + "\n"
    body = buf[keep]
    if path is None:
        sys.stdout.write(head + body.tobytes().decode())
    else:
        with open(path, "wb") as fh:
            fh.write(head.encode())
            fh.write(body)


def _write_report(path, command: str, cfg: Config, summary: dict, warnings=()):
    if path is None:
        return
    report = {
        "tool_version": __version__,
        "command": command,
        "config_hash": config_hash(cfg),
        "summary": summary,
        "warnings": list(warnings),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_arg_quantity(text: str, family: str, what: str) -> float:
    errors: list[str] = []
    value = parse_quantity(text, family, what, errors)
    if errors:
        raise UsageError("; ".join(errors))
    return value


def _parse_band(text: str | None, default):
    if text is None:
        return default
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError("--band expects 'lo,hi' (e.g. 5.8GHz,7.4GHz)")
    lo = _parse_arg_quantity(parts[0], "frequency", "--band lo")
    hi = _parse_arg_quantity(parts[1], "frequency", "--band hi")
    if not 0 < lo < hi:
        raise UsageError("--band requires 0 < lo < hi")
    return lo, hi


def _parse_state(text: str):
    if text == "off":
        return OFF
    if text.startswith("on:"):
        l_j = _parse_arg_quantity(text[3:], "inductance", "--state on:<L>")
        if not l_j > 0:
            raise UsageError("--state on:<L> requires L > 0")
        return l_j
    raise UsageError("--state expects 'on:<L>' (e.g. on:220pH) or 'off'")


def _write_spectrum(args, cfg: Config, command: str, peaks, freqs, s21):
    """A spectrum's trace CSV (frequency, real, imaginary, |S21| in dB) and
    its report: one entry per peak, a warning per peak with no root."""
    _write_csv(args.out, ["f_hz", "re_s21", "im_s21", "abs_s21_db"],
               [freqs, s21.real, s21.imag, db(s21)])
    summary = [{"f0_hz": p.f0, "depth_db": p.depth_db, "q_loaded": p.q_loaded,
                "q_coupling": p.q_coupling, "q_internal": p.q_internal, "f_dip_hz": p.f_dip}
               for p in peaks]
    _write_report(args.report, command, cfg, {"peaks": summary}, [
        f"peak at {p.f0:.5e} Hz: no circuit root on its dip; f0 from parabolic interpolation"
        for p in peaks if p.q_loaded is None])


# ------------------------- commands -------------------------


def _cmd_calibrate(args, cfg: Config) -> int:
    if cfg.calibration is None:
        raise UsageError("config has no 'calibration' section")
    cell = calibrate_geometry(cfg.calibration, cfg.cell)
    out_cfg = replace(cfg, cell=cell)
    if args.out is None:
        json.dump(config_to_dict(out_cfg), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        save_config(out_cfg, args.out)
    peak = measure_isolated_tcr(cell, cfg.calibration.l_anchor)
    _write_report(
        args.report, "calibrate", out_cfg,
        {
            "sc_len_m": cell.sc_len,
            "tcr_half_len_m": cell.tcr_half_len,
            "c_in_f": cell.c_in,
            "sc_resonance_hz": sc_branch_resonance(cell),
            "tcr_resonance_hz": tcr_branch_resonance(cell, cfg.calibration.l_anchor),
            "q_coupling": peak.q_coupling,
        },
    )
    return 0


def _cmd_spectrum(args, cfg: Config) -> int:
    state = _parse_state(args.state)
    band = _parse_band(args.band, OFF_BAND if state is OFF else cfg.sweep.band)
    peaks, (freqs, s21) = spectrum(cfg.cell, state, band, cfg.sweep.coarse_step,
                                   cfg.sweep.min_depth_db)
    _write_spectrum(args, cfg, "spectrum", peaks, freqs, s21)
    return 0


def _crossing(cfg: Config, grid: ModeMapSettings):
    mm = mode_map(cfg.cell, np.linspace(grid.l_min, grid.l_max, grid.points),
                  min_depth_db=cfg.sweep.min_depth_db)
    return mm, fit_avoided_crossing(mm)


def _cmd_modemap(args, cfg: Config) -> int:
    grid = cfg.modemap
    if args.l_grid is not None:
        parts = args.l_grid.split(",")
        if len(parts) != 3:
            raise UsageError("--l-grid expects 'lo,hi,n' (e.g. 10pH,500pH,61)")
        lo = _parse_arg_quantity(parts[0], "inductance", "--l-grid lo")
        hi = _parse_arg_quantity(parts[1], "inductance", "--l-grid hi")
        try:
            n = int(parts[2])
        except ValueError as exc:
            raise UsageError("--l-grid point count must be an integer") from exc
        try:
            grid = ModeMapSettings(l_min=lo, l_max=hi, points=n)
        except ValueError as exc:
            raise UsageError(f"--l-grid {exc}") from exc
    mm, fit = _crossing(cfg, grid)
    # the fit falls back to a grid end when a 2g detuning point lies off the grid
    warnings = [
        f"window_h {side} edge clipped to the grid end {float(end):.6g} H"
        for side, edge, end in (("lower", fit.window[0], mm.l[0]),
                                ("upper", fit.window[1], mm.l[-1]))
        if edge == end
    ]
    warnings += [f"row at l_j {l_j:.6g} H flagged: {reason}" for l_j, reason in mm.flagged]
    _write_csv(args.out, ["l_j_h", "f_mode1_hz", "f_mode2_hz"], [mm.l, mm.f1, mm.f2])
    _write_report(
        args.report, "modemap", cfg,
        {
            "g_hz": fit.g,
            "l_cross_h": fit.l_cross,
            "f_cross_hz": fit.f_cross,
            "window_h": list(fit.window),
            "residual_rms_hz": fit.residual_rms,
            "rows": len(mm.l),
            "flagged": [{"l_j_h": l, "reason": r} for l, r in mm.flagged],
        },
        warnings,
    )
    return 0


def _cmd_swap(args, cfg: Config) -> int:
    if args.g is not None:
        g_hz = _parse_arg_quantity(args.g, "frequency", "--g")
        if g_hz <= 0:
            raise UsageError("--g must be positive")
        # resonant and lossless: the mode frequency drops out of the rotating frame
        system = CoupledModeSystem(omega_a=0.0, omega_b=0.0, kappa_ext=0.0, g_on=TWO_PI * g_hz)
    else:
        system = extract_coupled_mode_params(cfg.cell, _crossing(cfg, cfg.modemap)[1])
    t_swap = swap_duration(system.g_on)
    pulses = PulseSequence(gate_pulses=(GatePulse(0.0, 2.0 * t_swap),))
    dt = cfg.dynamics.dt_fraction_of_guard * max_stable_dt(system, pulses)
    # an even step count puts a sample on the swap time that the report reads
    traj = evolve(system, pulses, (0.0, 2.0 * t_swap), t_swap / math.ceil(t_swap / dt - 1e-9),
                  a0=1.0, b0=0.0)
    _write_csv(args.out, ["t_s", "re_a", "im_a", "re_b", "im_b", "e_a", "e_b"],
               [traj.times, traj.a.real, traj.a.imag, traj.b.real, traj.b.imag,
                traj.e_a, traj.e_b])
    i_swap = int(np.argmin(np.abs(traj.times - t_swap)))
    _write_report(
        args.report, "swap", cfg,
        {
            "g_hz": system.g_on / TWO_PI,
            "swap_duration_s": t_swap,
            "e_b_at_swap": float(traj.e_b[i_swap]),
            "e_b_max": float(np.max(traj.e_b)),
        },
    )
    return 0


def _array_anchor(cfg: Config) -> float:
    """Inductance the array's cells are calibrated at and driven ON at."""
    return cfg.calibration.l_anchor if cfg.calibration else full_accumulation_inductance(cfg.cell)


def _require_array(cfg: Config):
    if not cfg.array_targets:
        raise UsageError("config has no 'array' section with targets")
    return build_array(cfg.array_targets, cfg.cell, l_anchor=_array_anchor(cfg), q_c=cfg.array_q_c)


def _cmd_protocol(args, cfg: Config) -> int:
    schedule = load_schedule(args.schedule)
    array = _require_array(cfg)
    report = run_schedule(array, schedule, dt_fraction=cfg.dynamics.dt_fraction_of_guard)
    ops = schedule.ops
    _write_csv(
        args.out,
        ["op_index", "op", "cell_index", "start_s", "fidelity"],
        [range(len(ops)), [op.op for op in ops], [op.cell_index for op in ops],
         [float(op.start) for op in ops], report.fidelities],
    )
    xt = report.crosstalk  # energy ratios: never negative, exactly 1 on the diagonal
    _write_csv(args.crosstalk_out, [f"to_cell_{j}" for j in range(len(array))], xt.T)
    max_xtalk = float(np.max(xt, initial=0.0, where=~np.eye(len(array), dtype=bool)))
    warnings = [f"op {k}: fidelity {f:.6g} exceeds 1"
                for k, f in enumerate(report.fidelities) if f > 1]
    warnings += [f"crosstalk from cell {i} to cell {j} is {xt[i, j]:.6g}, above the addressed cell"
                 for i, j in np.argwhere(xt > 1).tolist()]
    _write_report(
        args.report, "protocol", cfg,
        {"fidelities": list(report.fidelities), "max_offdiagonal_crosstalk": max_xtalk,
         "steps": list(report.steps), "largest_step_s": list(report.largest_steps)},
        warnings,
    )
    return 0


def _cmd_array_spectrum(args, cfg: Config) -> int:
    band = _parse_band(args.band, cfg.sweep.band)
    array = _require_array(cfg)
    states = [_array_anchor(cfg) if args.state == "on" else OFF] * len(array.cells)
    grid = band_grid(band, cfg.sweep.coarse_step / 4.0)
    peaks, (freqs, s21) = array_spectrum(array, states, grid, cfg.sweep.min_depth_db)
    _write_spectrum(args, cfg, "array-spectrum", peaks, freqs, s21)
    return 0


# ------------------------- driver -------------------------


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmemsim",
        description="Microwave-network simulator for voltage-tunable quantum-memory cells",
    )
    parser.add_argument(
        "--seed-config", metavar="PATH",
        help="write the calibrated example configuration (four-cell band plan) and exit",
    )
    parser.add_argument("--version", action="version", version=f"qmemsim {__version__}")
    sub = parser.add_subparsers(dest="command")

    def common(p, run):
        p.set_defaults(run=run)
        p.add_argument("config", help="JSON configuration file")
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")
        p.add_argument("--report", default=None, help="JSON run-report path")

    p = sub.add_parser("calibrate", help="solve the cell geometry for the config targets")
    common(p, _cmd_calibrate)

    p = sub.add_parser("spectrum", help="frequency sweep of the single cell")
    common(p, _cmd_spectrum)
    p.add_argument("--state", required=True, help="on:<L> (e.g. on:220pH) or off")
    p.add_argument("--band", default=None, help="lo,hi (e.g. 5.8GHz,7.4GHz)")

    p = sub.add_parser("modemap", help="two-mode map over junction inductance")
    common(p, _cmd_modemap)
    p.add_argument("--l-grid", default=None, help="lo,hi,n (e.g. 10pH,500pH,61)")

    p = sub.add_parser("swap", help="two-mode exchange trajectory")
    common(p, _cmd_swap)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--g", default=None, help="coupling strength (e.g. 300MHz)")
    source.add_argument("--from-fit", action="store_true",
                        help="derive the coupling from the cell's avoided-crossing fit")

    p = sub.add_parser("protocol", help="run a random-access schedule on the array")
    p.set_defaults(run=_cmd_protocol)
    p.add_argument("config")
    p.add_argument("schedule", help="JSON schedule file")
    p.add_argument("--out", default=None, help="per-op fidelity CSV (default stdout)")
    p.add_argument("--crosstalk-out", default=None, help="crosstalk matrix CSV")
    p.add_argument("--report", default=None)

    p = sub.add_parser("array-spectrum", help="combined sweep of the multiplexed array")
    common(p, _cmd_array_spectrum)
    p.add_argument("--state", default="on", choices=("on", "off"),
                   help="'on' (anchor inductance) or 'off'")
    p.add_argument("--band", default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    if (args.command is None) == (not args.seed_config):  # neither, or both
        parser.print_usage(sys.stderr)
        return 1

    try:
        if args.seed_config:
            save_config(example_config(), args.seed_config)
            return 0
        cfg = load_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        return args.run(args, cfg)
    except (UsageError, ConfigError, ScheduleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CalibrationError, ExtractionError, ArithmeticError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
