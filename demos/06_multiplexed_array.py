# ---
# jupyter:
#   jupytext:
#     text_representation:
#       extension: .py
#       format_name: percent
# ---

# %% [markdown]
# # A four-cell random-access array
#
# Frequency multiplexing puts several cells on one feedline, each with
# its own storage frequency (6.55 / 6.65 / 6.70 / 6.75 GHz).  Addressing
# one cell's carrier leaves the others parked off-resonance; the
# schedule runner quantifies how much energy still reaches them.

# %%
import numpy as np

from qmemsim import OFF, AccessOp, AccessSchedule, array_spectrum, build_array, run_schedule
from qmemsim.array import _cell_models, off_resonant_bound
from qmemsim.config import example_template
from qmemsim.dynamics import TWO_PI

targets = (6.55e9, 6.65e9, 6.70e9, 6.75e9)
array = build_array(targets, example_template())
print("calibrated storage stubs:", [f"{c.sc_len * 1e3:.4f} mm" for c in array.cells])

models = _cell_models(array)

# %% [markdown]
# With every junction ON at its crossing the band shows each cell's
# hybridized doublet; all OFF, the feedline goes essentially transparent.
# The feedline's trace is the product of the cells' traces, so each dip's
# f0 and Q values are its own cell's circuit roots: no trace is fit.

# %%
grid = np.linspace(6.0e9, 7.1e9, 22001)
peaks, _ = array_spectrum(array, [m.fit.l_cross for m in models], grid, min_depth_db=1.0)
print(f"all-ON spectrum: {len(peaks)} dips")
for p in peaks:
    q = "no circuit root" if p.q_loaded is None else f"Q_l = {p.q_loaded:,.0f}"
    print(f"  f0 = {p.f0 / 1e9:.4f} GHz  depth = {p.depth_db:5.1f} dB  {q}")

_, (_, s_off) = array_spectrum(array, [OFF] * 4, grid)
print(f"all-OFF |S21| floor across the band: {np.min(np.abs(s_off)):.5f}")

# %% [markdown]
# A small schedule: write into cell 0, read it back, then write cell 2.
# The report carries per-operation fidelities and the crosstalk matrix
# (peak energy reaching every idle coupler, normalized to the addressed
# one).

# %%
schedule = AccessSchedule(ops=(
    AccessOp(op="write", cell_index=0),
    AccessOp(op="read", cell_index=0, start=5e-6),
    AccessOp(op="write", cell_index=2, start=10e-6),
))
report = run_schedule(array, schedule, models=models)
for op, fid in zip(schedule.ops, report.fidelities):
    print(f"{op.op:>5} cell {op.cell_index}: fidelity = {fid:.4f}")

print("\ncrosstalk matrix (row = addressed cell):")
for i, row in enumerate(report.crosstalk):
    print("  " + "  ".join(f"{x:9.2e}" for x in row))

# %% [markdown]
# Write-induced crosstalk sits below the off-resonant Lorentzian filter
# response of each idle coupler.  (Reads ring the neighbors harder: the
# emitted pulse turns on at the swap rate and is spectrally broad, which
# is why the combined matrix above shows larger row-0 entries.)

# %%
write_only = run_schedule(
    array, AccessSchedule(ops=(AccessOp(op="write", cell_index=0),)), models=models
)
sys0 = models[0].system
for j in range(1, 4):
    sys_j = models[j].system
    delta = abs(sys_j.omega_b - sys0.omega_b)
    bound = off_resonant_bound(sys_j.kappa_ext + sys_j.kappa_int_a, delta)
    print(
        f"cell 0 -> cell {j}: {write_only.crosstalk[0, j]:.2e} "
        f"(Lorentzian bound {bound:.2e}, spacing {delta / TWO_PI / 1e6:.0f} MHz)"
    )
