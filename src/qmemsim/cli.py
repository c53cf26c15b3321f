"""Command-line entry points.

Every command reads a JSON config (see qmemsim.config), writes numeric
traces as CSV (single header row, fixed column order, 12 significant
digits, locale-independent) and optionally a JSON run report with the
summary scalars.  Exit codes: 0 success, 1 validation error, 2 numerical
failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from itertools import chain

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
from .cell import OFF_BAND, adaptive_sweep
from .config import (
    Config,
    ConfigError,
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
    PulseSequence,
    evolve,
    max_stable_dt,
    swap_duration,
)
from .extract import ExtractionError, extract_coupled_mode_params, full_accumulation_inductance
from .jjfet import Off, On
from .modemap import fit_avoided_crossing, mode_map
from .resonance import db, find_resonances


class UsageError(ValueError):
    """Bad command-line arguments or inputs; exit code 1."""


def _is_float_column(c) -> bool:
    # a list's values, not np.asarray: numpy reads ints beyond int64 as floats
    if isinstance(c, np.ndarray):
        return c.dtype.kind == "f"
    return all(isinstance(v, float) for v in c)


def _write_csv(path, header, columns):
    """CSV of equal-length columns: a float column as %.11e, any other as str."""
    line = ",".join("%.11e" if _is_float_column(c) else "%s" for c in columns) + "\n"
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    values = tuple(chain.from_iterable(zip(*columns)))
    text = ",".join(header) + "\n" + line * len(columns[0]) % values
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _write_trace_csv(path, freqs, s21):
    """Complex transmission trace: frequency, real, imaginary, |S21| in dB."""
    _write_csv(path, ["f_hz", "re_s21", "im_s21", "abs_s21_db"],
               [freqs, s21.real, s21.imag, db(s21)])


def _write_report(path, command: str, cfg: Config | None, summary: dict, warnings=()):
    if path is None:
        return
    report = {
        "tool_version": __version__,
        "command": command,
        "config_hash": config_hash(cfg) if cfg is not None else None,
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


def _parse_state(text: str, cfg: Config):
    if text == "off":
        return Off(cfg.cell.jj.r_off)
    if text.startswith("on:"):
        l_j = _parse_arg_quantity(text[3:], "inductance", "--state on:<L>")
        if not l_j > 0:
            raise UsageError("--state on:<L> requires L > 0")
        return On(l_j)
    raise UsageError("--state expects 'on:<L>' (e.g. on:220pH) or 'off'")


def _peak_summary(peaks):
    return [
        {
            "f0_hz": p.f0,
            "depth_db": p.depth_db,
            "q_loaded": p.q_loaded,
            "q_coupling": p.q_coupling,
            "q_internal": p.q_internal,
        }
        for p in peaks
    ]


def _fit_fallback_warnings(peaks):
    return [
        f"peak at {p.f0:.5e} Hz: notch fit failed; f0 from parabolic interpolation"
        for p in peaks
        if p.q_loaded is None
    ]


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
    state = _parse_state(args.state, cfg)
    band = _parse_band(args.band, OFF_BAND if isinstance(state, Off) else cfg.sweep.band)
    freqs, s21 = adaptive_sweep(
        cfg.cell, state, band, coarse_step=cfg.sweep.coarse_step,
        detect_db=cfg.sweep.min_depth_db / 2,
    )
    peaks = find_resonances(freqs, s21, min_depth_db=cfg.sweep.min_depth_db)
    _write_trace_csv(args.out, freqs, s21)
    _write_report(args.report, "spectrum", cfg, {"peaks": _peak_summary(peaks)},
                  _fit_fallback_warnings(peaks))
    return 0


def _cmd_modemap(args, cfg: Config) -> int:
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
    else:
        lo, hi, n = cfg.modemap.l_min, cfg.modemap.l_max, cfg.modemap.points
    if not (0 < lo < hi and n >= 2):
        raise UsageError("--l-grid requires 0 < lo < hi and n >= 2")
    grid = np.linspace(lo, hi, n)
    mm = mode_map(cfg.cell, grid, min_depth_db=cfg.sweep.min_depth_db)
    fit = fit_avoided_crossing(mm)
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
    if (args.g is None) == (not args.from_fit):
        raise UsageError("provide exactly one of --g <value> or --from-fit")
    f_ref = cfg.calibration.f_sc if cfg.calibration else 6.55e9
    if args.g is not None:
        g_hz = _parse_arg_quantity(args.g, "frequency", "--g")
        if g_hz <= 0:
            raise UsageError("--g must be positive")
        system = CoupledModeSystem(
            omega_a=TWO_PI * f_ref, omega_b=TWO_PI * f_ref,
            kappa_ext=0.0, g_on=TWO_PI * g_hz,
        )
    else:
        grid = np.linspace(cfg.modemap.l_min, cfg.modemap.l_max, cfg.modemap.points)
        fit = fit_avoided_crossing(mode_map(cfg.cell, grid, min_depth_db=cfg.sweep.min_depth_db))
        system = extract_coupled_mode_params(cfg.cell, fit)
    g_ang = system.g_on
    t_swap = swap_duration(g_ang)
    pulses = PulseSequence()
    # no gate pulses: the coupling holds the OFF floor, here set to g_on
    const_g = replace(system, g_off=g_ang)
    dt = cfg.dynamics.dt_fraction_of_guard * max_stable_dt(const_g, pulses)
    traj = evolve(const_g, pulses, (0.0, 2.0 * t_swap), dt, a0=1.0, b0=0.0)
    _write_csv(args.out, ["t_s", "re_a", "im_a", "re_b", "im_b", "e_a", "e_b"],
               [traj.times, traj.a.real, traj.a.imag, traj.b.real, traj.b.imag,
                traj.e_a, traj.e_b])
    i_swap = int(np.argmin(np.abs(traj.times - t_swap)))
    _write_report(
        args.report, "swap", cfg,
        {
            "g_hz": g_ang / TWO_PI,
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
    _write_csv(args.crosstalk_out, [f"to_cell_{j}" for j in range(len(array))],
               report.crosstalk.T)
    max_xtalk = (
        float(np.max(report.crosstalk[~np.eye(len(array), dtype=bool)]))
        if len(array) > 1
        else 0.0
    )
    _write_report(
        args.report, "protocol", cfg,
        {"fidelities": list(report.fidelities), "max_offdiagonal_crosstalk": max_xtalk},
    )
    return 0


def _cmd_array_spectrum(args, cfg: Config) -> int:
    if args.state not in ("on", "off"):
        raise UsageError("--state expects 'on' or 'off'")
    band = _parse_band(args.band, cfg.sweep.band)
    array = _require_array(cfg)
    if args.state == "on":
        states = [On(_array_anchor(cfg)) for _ in array.cells]
    else:
        states = [Off(c.jj.r_off) for c in array.cells]
    step = cfg.sweep.coarse_step / 4.0
    n = max(int(round((band[1] - band[0]) / step)), 8)
    grid = np.linspace(band[0], band[1], n + 1)
    freqs, s21 = array_spectrum(array, states, grid)
    _write_trace_csv(args.out, freqs, s21)
    peaks = find_resonances(freqs, s21, min_depth_db=cfg.sweep.min_depth_db)
    _write_report(args.report, "array-spectrum", cfg, {"peaks": _peak_summary(peaks)},
                  _fit_fallback_warnings(peaks))
    return 0


# ------------------------- driver -------------------------


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

    def common(p):
        p.add_argument("config", help="JSON configuration file")
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")
        p.add_argument("--report", default=None, help="JSON run-report path")

    p = sub.add_parser("calibrate", help="solve the cell geometry for the config targets")
    common(p)

    p = sub.add_parser("spectrum", help="frequency sweep of the single cell")
    common(p)
    p.add_argument("--state", required=True, help="on:<L> (e.g. on:220pH) or off")
    p.add_argument("--band", default=None, help="lo,hi (e.g. 5.8GHz,7.4GHz)")

    p = sub.add_parser("modemap", help="two-mode map over junction inductance")
    common(p)
    p.add_argument("--l-grid", default=None, help="lo,hi,n (e.g. 10pH,500pH,61)")

    p = sub.add_parser("swap", help="two-mode exchange trajectory")
    common(p)
    p.add_argument("--g", default=None, help="coupling strength (e.g. 300MHz)")
    p.add_argument("--from-fit", action="store_true",
                   help="derive the coupling from the cell's avoided-crossing fit")

    p = sub.add_parser("protocol", help="run a random-access schedule on the array")
    p.add_argument("config")
    p.add_argument("schedule", help="JSON schedule file")
    p.add_argument("--out", default=None, help="per-op fidelity CSV (default stdout)")
    p.add_argument("--crosstalk-out", default=None, help="crosstalk matrix CSV")
    p.add_argument("--report", default=None)

    p = sub.add_parser("array-spectrum", help="combined sweep of the multiplexed array")
    common(p)
    p.add_argument("--state", default="on", help="'on' (anchor inductance) or 'off'")
    p.add_argument("--band", default=None)
    return parser


_COMMANDS = {
    "calibrate": _cmd_calibrate,
    "spectrum": _cmd_spectrum,
    "modemap": _cmd_modemap,
    "swap": _cmd_swap,
    "protocol": _cmd_protocol,
    "array-spectrum": _cmd_array_spectrum,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    if args.command is None and not args.seed_config:
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
        return _COMMANDS[args.command](args, cfg)
    except (UsageError, ConfigError, ScheduleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CalibrationError, ExtractionError, ArithmeticError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
