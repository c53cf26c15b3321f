"""Span tracing of qmemsim's layers from outside the package.

`Tracer` wraps the public functions of each layer module and records one
span per call (name, start, end, parent) plus work counts taken from the
call's arguments and result.  Wrapping replaces every reference to the
original function in the loaded qmemsim modules, because modules import
each other's functions by name (`from .twoport import chain_abcd`).
`close()` puts the originals back, so untraced passes run unmodified code.

Spans live in flat arrays while a pass runs and are reduced to per-layer
metrics afterwards; nothing is written while timing.
"""
from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

#: Layer modules, in pipeline order.  jjfet and config are too cheap to
#: trace on their own: their time lands in twoport (junction impedance
#: callables run inside chain_abcd) and cli (config parsing).
LAYERS = ("twoport", "cell", "resonance", "calibrate", "modemap",
          "extract", "dynamics", "array", "cli")

#: Public functions left unwrapped: each is called per element or per
#: residual evaluation inside its own layer, where a wrapper would cost more
#: than the work.  Their time counts in the calling span.
UNWRAPPED = {
    "twoport": {"element_abcd", "cascade", "is_infinite_impedance"},
    "resonance": {"notch_s21_model"},
}

#: Per-layer metric names and units, in report order.
METRICS = {
    "twoport.chain_calls": "count", "twoport.scalar_calls": "count",
    "twoport.points": "count", "twoport.points_per_s": "1/s", "twoport.self_s": "s",
    "cell.sweep_evals": "count", "cell.sweep_kept": "count",
    "cell.sweep_eval_ratio": "1", "cell.sweep_s": "s",
    "resonance.find_calls": "count", "resonance.peaks": "count",
    "resonance.unfit_peaks": "count", "resonance.find_s": "s",
    "calibrate.s_per_cell": "s", "calibrate.branch_roots": "count",
    "calibrate.isolated_fits": "count", "calibrate.self_s": "s",
    "modemap.rows": "count", "modemap.flagged_rows": "count",
    "modemap.s_per_row": "s", "modemap.fit_s": "s",
    "extract.calls": "count", "extract.s": "s",
    "dynamics.evolve_calls": "count", "dynamics.rk4_steps": "count",
    "dynamics.rk4_steps_per_s": "1/s", "dynamics.evolve_s": "s",
    "array.build_s_per_cell": "s", "array.s_per_op": "s", "array.idle_evolves": "count",
    "cli.self_s": "s", "cli.csv_rows": "count",
}

#: Metrics that are exact work counts; they must repeat for a given seed.
COUNTS = (
    "twoport.chain_calls", "twoport.scalar_calls", "twoport.points",
    "cell.sweep_evals", "cell.sweep_kept",
    "resonance.find_calls", "resonance.peaks", "resonance.unfit_peaks",
    "calibrate.branch_roots", "calibrate.isolated_fits",
    "modemap.rows", "modemap.flagged_rows", "extract.calls",
    "dynamics.evolve_calls", "dynamics.rk4_steps", "array.idle_evolves",
    "cli.csv_rows",
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Records spans and counts around every public layer function."""

    def __init__(self, clock=perf_counter):
        self.clock = clock  # span timestamps
        self.names: list[str] = []
        self._reset()
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper
        self._hooks = {
            "twoport.chain_abcd": self._on_chain,
            "cell.frequency_sweep": self._on_frequency_sweep,
            "cell.adaptive_sweep": self._on_adaptive_sweep,
            "resonance.find_resonances": self._on_find,
            "calibrate.sc_branch_resonance": self._on_branch_root,
            "calibrate.tcr_branch_resonance": self._on_branch_root,
            "calibrate.measure_isolated_tcr": self._on_isolated_fit,
            "calibrate.calibrate_geometry": self._on_calibrated_cell,
            "modemap.mode_map": self._on_mode_map,
            "dynamics.evolve": self._on_evolve,
            "array.build_array": self._on_build_array,
            "array.run_schedule": self._on_run_schedule,
        }

    def _reset(self):
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_outer = array("b")  # 1: no enclosing span of the same layer
        self.span_start = array("d")
        self.span_end = array("d")
        self.current = -1
        self.depth = [0] * len(LAYERS)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.counts["calibrate.cells"] = 0
        self.counts["array.cells"] = 0
        self.counts["array.ops"] = 0

    # ------------------------- wrapping -------------------------

    def install(self):
        """Wrap every public function of every layer module."""
        if not self._wrappers:
            import qmemsim.cli  # noqa: F401  (loads every layer module)

            for layer_idx, layer in enumerate(LAYERS):
                mod = sys.modules[f"qmemsim.{layer}"]
                for fname, fn in inspect.getmembers(mod, inspect.isfunction):
                    if (fn.__module__ != mod.__name__ or fname.startswith("_")
                            or fname in UNWRAPPED.get(layer, ())):
                        continue
                    self._wrappers[id(fn)] = self._wrap(fn, f"{layer}.{fname}", layer_idx)
        for name, mod in sorted(sys.modules.items()):
            if mod is None or not (name == "qmemsim" or name.startswith("qmemsim.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def close(self):
        """Restore every wrapped reference."""
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, fn, qualname: str, layer_idx: int):
        name_idx = len(self.names)
        self.names.append(qualname)
        hook = self._hooks.get(qualname)
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.current
            idx = len(self.span_start)
            depth = self.depth
            self.span_name.append(name_idx)
            self.span_parent.append(parent)
            self.span_outer.append(depth[layer_idx] == 0)
            self.span_end.append(0.0)
            depth[layer_idx] += 1
            self.current = idx
            self.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[idx] = clock()
                self.current = parent
                depth[layer_idx] -= 1
            if hook is not None:
                hook(parent, args, kwargs, result)
            return result

        return traced

    def _parent_is(self, parent: int, qualname: str) -> bool:
        return parent >= 0 and self.names[self.span_name[parent]] == qualname

    # ------------------------- count hooks -------------------------

    def _on_chain(self, parent, args, kwargs, result):
        f = _arg(args, kwargs, 1, "f")
        c = self.counts
        c["twoport.chain_calls"] += 1
        c["twoport.points"] += int(np.size(f))
        if np.ndim(f) == 0:
            c["twoport.scalar_calls"] += 1

    def _on_frequency_sweep(self, parent, args, kwargs, result):
        if self._parent_is(parent, "cell.adaptive_sweep"):
            self.counts["cell.sweep_evals"] += len(result[0])

    def _on_adaptive_sweep(self, parent, args, kwargs, result):
        self.counts["cell.sweep_kept"] += len(result[0])

    def _on_find(self, parent, args, kwargs, result):
        c = self.counts
        c["resonance.find_calls"] += 1
        c["resonance.peaks"] += len(result)
        c["resonance.unfit_peaks"] += sum(p.q_loaded is None for p in result)

    def _on_branch_root(self, parent, args, kwargs, result):
        self.counts["calibrate.branch_roots"] += 1

    def _on_isolated_fit(self, parent, args, kwargs, result):
        self.counts["calibrate.isolated_fits"] += 1

    def _on_calibrated_cell(self, parent, args, kwargs, result):
        self.counts["calibrate.cells"] += 1

    def _on_mode_map(self, parent, args, kwargs, result):
        self.counts["modemap.rows"] += len(result.rows)
        self.counts["modemap.flagged_rows"] += len(result.flagged)

    def _on_evolve(self, parent, args, kwargs, result):
        c = self.counts
        c["dynamics.evolve_calls"] += 1
        c["dynamics.rk4_steps"] += len(result.times) - 1
        # addressed evolves run inside write_protocol/read_protocol; the
        # idle-neighbor evolves are called by run_schedule directly
        if self._parent_is(parent, "array.run_schedule"):
            c["array.idle_evolves"] += 1

    def _on_build_array(self, parent, args, kwargs, result):
        self.counts["array.cells"] += len(result)

    def _on_run_schedule(self, parent, args, kwargs, result):
        self.counts["array.ops"] += len(_arg(args, kwargs, 1, "schedule").ops)

    # ------------------------- reduction -------------------------

    def pass_metrics(self, csv_rows: int = 0) -> dict:
        """Per-layer metrics and spans recorded since the last call."""
        n = len(self.span_start)
        names = np.frombuffer(self.span_name, dtype=np.uint16, count=n).astype(int)
        parent = np.frombuffer(self.span_parent, dtype=np.int32, count=n)
        outer = np.frombuffer(self.span_outer, dtype=np.int8, count=n).astype(bool)
        dur = (np.frombuffer(self.span_end, count=n)
               - np.frombuffer(self.span_start, count=n))
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=n)
        self_time = dur - child_time
        layer_of_name = np.array([LAYERS.index(q.split(".")[0]) for q in self.names])
        layer = layer_of_name[names] if n else np.zeros(0, dtype=int)

        def layer_self(name):
            return float(self_time[layer == LAYERS.index(name)].sum())

        def total(qualname):
            if qualname not in self.names:
                return 0.0
            return float(dur[names == self.names.index(qualname)].sum())

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        ext = (layer == LAYERS.index("extract")) & outer
        rows_tried = c["modemap.rows"] + c["modemap.flagged_rows"]
        m = {k: c[k] for k in COUNTS}
        m["cli.csv_rows"] = csv_rows
        m.update({
            "twoport.self_s": layer_self("twoport"),
            "twoport.points_per_s": ratio(c["twoport.points"], layer_self("twoport")),
            "cell.sweep_eval_ratio": ratio(c["cell.sweep_evals"], c["cell.sweep_kept"]),
            "cell.sweep_s": total("cell.adaptive_sweep"),
            "resonance.find_s": total("resonance.find_resonances"),
            "calibrate.s_per_cell": ratio(total("calibrate.calibrate_geometry"),
                                          c["calibrate.cells"]),
            "calibrate.self_s": layer_self("calibrate"),
            "modemap.s_per_row": ratio(total("modemap.mode_map"), rows_tried),
            "modemap.fit_s": total("modemap.fit_avoided_crossing"),
            "extract.calls": int(ext.sum()),
            "extract.s": float(dur[ext].sum()),
            "dynamics.evolve_s": total("dynamics.evolve"),
            "dynamics.rk4_steps_per_s": ratio(c["dynamics.rk4_steps"],
                                              total("dynamics.evolve")),
            "array.build_s_per_cell": ratio(total("array.build_array"), c["array.cells"]),
            "array.s_per_op": ratio(total("array.run_schedule"), c["array.ops"]),
            "cli.self_s": layer_self("cli"),
        })
        spans = {
            "names": np.array(self.names),
            "name": names,
            "parent": parent.copy(),
            "start": np.frombuffer(self.span_start, count=n).copy(),
            "end": np.frombuffer(self.span_end, count=n).copy(),
        }
        self._reset()
        return {k: m[k] for k in METRICS}, spans
