"""qmemsim benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload {calibrate,characterize,schedule} \
        --seed N --seconds S --trace {0,1}

Run from a checkout of the repository: the program is imported from its
`src/` directory, never from an installed copy.  One run

1. sets up: times a fresh-interpreter import of qmemsim (median of three),
   builds the workload's inputs from the seed (median of three builds) and
   runs one warm-up pass; `setup_s` is the sum;
2. repeats timed passes until S seconds of passes have run (at least one);
   with --trace 1 it alternates untraced and traced passes;
3. checks every pass's outputs after its timer stops, and requires passes
   of one run to agree byte for byte on the outputs they share.

Every time is taken with hostspeed.Sampler and scaled to the reference host
speed, because the host's own speed drifts too much for raw times to
compare; raw times go to the details.  The last line of standard output is
the result: with --trace 0 the end-to-end metrics (`pass_ref_s` median
pass time, `setup_s`, `peak_rss_mib`), with --trace 1 the per-layer metrics
of the traced passes and the tracing overhead.  Details (environment, inputs, failures, digests) go to
.bench_out/<workload>-trace<k>.json and the spans of the first traced pass
to .bench_out/<workload>-spans.npz, both in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one process, one BLAS thread: the load stays below the core count
# (must be set before numpy loads)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REPEATS = 3  # set-up repetitions behind each median


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "machine": platform.machine(),
    }


def _import_seconds() -> float:
    """Wall time of importing every layer in a fresh interpreter."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import qmemsim.cli"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", code], check=True, timeout=120)
    return time.perf_counter() - t0


class Run:
    """Outcomes of every pass of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.ops = []
        self.digest: dict[str, str] = {}
        self.passes = []

    def record(self, kind: str, raw: float, scale: float, state, result):
        checked = self.workload.check(state, result)
        clash = [k for k, v in checked.digest.items() if self.digest.setdefault(k, v) != v]
        for op in checked.ops:
            if clash and op.ok:
                op.ok, op.reason = False, f"output differs from an earlier pass: {clash}"
            self.ops.append(op)
        self.passes.append({"kind": kind, "wall_s": raw, "speed_scale": scale,
                            "ref_s": raw * scale, "csv_rows": checked.csv_rows,
                            "failed": [f"{o.name}: {o.reason}" for o in checked.ops
                                       if not o.ok]})
        return checked

    def times(self, kind: str, key: str = "ref_s"):
        return [p[key] for p in self.passes if p["kind"] == kind]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("calibrate", "characterize", "schedule"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qmemsim" / "__init__.py").is_file():
        print(f"error: no qmemsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy as np
    import qmemsim.cli  # noqa: F401  (before timing: import_s measures imports)
    from hostspeed import Sampler
    from tracer import COUNTS, METRICS, Tracer
    from workloads import WORKLOADS, Op

    env = _environment()
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    sampler = Sampler()
    try:
        # the import runs in a child process: its own wall time, scaled by
        # the reference loops the parent runs meanwhile
        imports = [sampler.measure(_import_seconds) for _ in range(REPEATS)]
        import_s = statistics.median(wall * scale for _, scale, wall in imports)
        builds = [sampler.measure(workload.prepare, args.seed, workdir)
                  for _ in range(REPEATS)]
        prepare_s = statistics.median(raw * scale for raw, scale, _ in builds)
        state = builds[-1][2]
        run = Run(workload)
        warm_state = workload.warmup_inputs(state)
        raw, scale, result = sampler.measure(workload.execute, warm_state)
        warmup_s = raw * scale
        run.record("warmup", raw, scale, warm_state, result)

        tracer = Tracer(clock=sampler.clock) if args.trace else None
        layer_passes = []
        measured = 0.0
        while measured < args.seconds or not run.times("timed") or (
                tracer and not layer_passes):
            raw, scale, result = sampler.measure(workload.execute, state)
            measured += raw
            run.record("timed", raw, scale, state, result)
            if tracer is None:
                continue
            tracer.install()
            try:
                raw, scale, result = sampler.measure(workload.execute, state)
            finally:
                tracer.close()
            measured += raw
            checked = run.record("traced", raw, scale, state, result)
            metrics, spans = tracer.pass_metrics(checked.csv_rows)
            if not layer_passes:
                OUT.mkdir(exist_ok=True)
                np.savez_compressed(OUT / f"{args.workload}-spans.npz", **spans)
            layer_passes.append(metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # work counts are exact: two traced passes of one seed must agree
    for metrics in layer_passes[1:]:
        differ = [k for k in COUNTS if metrics[k] != layer_passes[0][k]]
        if differ:
            run.ops.append(Op("trace counts", False, f"differ: {differ}"))

    attempted = len(run.ops)
    failed = sum(not o.ok for o in run.ops)
    untraced = statistics.median(run.times("timed"))
    if tracer is None:
        metrics = {
            "pass_ref_s": {"value": untraced, "unit": "s"},
            "setup_s": {"value": import_s + prepare_s + warmup_s, "unit": "s"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB"},
        }
    else:
        metrics = {}
        for name, unit in METRICS.items():
            value = (layer_passes[0][name] if name in COUNTS
                     else statistics.median(m[name] for m in layer_passes))
            metrics[name] = {"value": value, "unit": unit}
        traced = statistics.median(run.times("traced"))
        metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
        metrics["trace.overhead_frac"] = {"value": (traced - untraced) / untraced,
                                          "unit": "1"}

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "setup": {"import_s": import_s, "prepare_s": prepare_s, "warmup_s": warmup_s},
        "wall_s": statistics.median(run.times("timed", "wall_s")),
        "passes": run.passes, "digest": run.digest,
        "fail_frac": failed / attempted, "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2, default=str) + "\n")
    print(json.dumps({"environment": env}))
    digest = hashlib.sha256(json.dumps(sorted(run.digest.items())).encode()).hexdigest()
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "passes": len(run.passes), "fail_frac": failed / attempted,
                      "wall_s": statistics.median(run.times("timed", "wall_s")),
                      "digest": digest,
                      "failures": [f for p in run.passes for f in p["failed"]]}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
