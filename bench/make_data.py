"""Regenerate the benchmark's pinned inputs in bench/data/.

    python3 bench/make_data.py

- seed_config.json: the calibrated example config, as `qmemsim
  --seed-config` writes it (input of the characterize workload);
- array.json: the example four-cell band plan solved by `build_array`
  (input of the schedule workload), as the three calibrated knobs per
  cell on top of `example_template()`.

The files are pinned so that a change to calibration does not move the
inputs of the workloads that do not calibrate.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from qmemsim.array import build_array
    from qmemsim.cli import main as cli_main
    from qmemsim.config import example_config

    DATA.mkdir(exist_ok=True)
    if cli_main(["--seed-config", str(DATA / "seed_config.json")]) != 0:
        return 1
    cfg = example_config(calibrated=False)
    array = build_array(cfg.array_targets, cfg.cell,
                        l_anchor=cfg.calibration.l_anchor, q_c=cfg.array_q_c)
    raw = {
        "targets": list(array.targets),
        "l_anchor": cfg.calibration.l_anchor,
        "q_c": cfg.array_q_c,
        "cells": [{"sc_len": c.sc_len, "tcr_half_len": c.tcr_half_len, "c_in": c.c_in}
                  for c in array.cells],
    }
    (DATA / "array.json").write_text(json.dumps(raw, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
