# ---
# jupyter:
#   jupytext:
#     text_representation:
#       extension: .py
#       format_name: percent
# ---

# %% [markdown]
# # Tuning through the avoided crossing
#
# Sweeping the junction inductance from 10 to 500 pH drags the coupler
# mode down through the fixed storage-cavity mode.  Where the two would
# cross they hybridize instead; the minimum splitting is twice the
# coupling strength, and the surrounding inductance window is where
# photon swaps are fast.

# %%
import numpy as np

from qmemsim.calibrate import CalibrationTargets, calibrate_geometry
from qmemsim.config import example_template
from qmemsim.modemap import fit_avoided_crossing, mode_map

cell = calibrate_geometry(
    CalibrationTargets(f_sc=6.55e9, l_anchor=220e-12, q_c=2000.0),
    example_template(),
)

l_grid = np.linspace(10e-12, 500e-12, 61)
mm = mode_map(cell, l_grid)
print(f"mode map: {len(mm.l)} rows, {len(mm.flagged)} flagged")
print("  L (pH)   mode 1 (GHz)   mode 2 (GHz)   splitting (MHz)")
for l_j, f1, f2, split in zip(mm.l[::10], mm.f1[::10], mm.f2[::10], mm.splitting[::10]):
    print(f"  {l_j * 1e12:6.1f}   {f1 / 1e9:10.4f}   {f2 / 1e9:10.4f}   {split / 1e6:10.1f}")

# %% [markdown]
# The two-branch hybridization fit extracts the bare branches, the
# coupling and the strong-coupling window:

# %%
fit = fit_avoided_crossing(mm)
print(f"coupling strength g        : {fit.g / 1e6:.1f} MHz")
print(f"closest approach           : {fit.l_cross * 1e12:.1f} pH at {fit.f_cross / 1e9:.4f} GHz")
print(
    "strong-coupling window     : "
    f"{fit.window[0] * 1e12:.0f} - {fit.window[1] * 1e12:.0f} pH"
)
print(f"fit residual (rms)         : {fit.residual_rms / 1e6:.3f} MHz")

# %%
try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 4))
    ax.plot(mm.l * 1e12, mm.f1 / 1e9, "o", ms=3, label="mode 1")
    ax.plot(mm.l * 1e12, mm.f2 / 1e9, "o", ms=3, label="mode 2")
    dense = np.linspace(l_grid[0], l_grid[-1], 400)
    lo, hi = fit.branches(dense)
    ax.plot(dense * 1e12, lo / 1e9, "k-", lw=0.8)
    ax.plot(dense * 1e12, hi / 1e9, "k-", lw=0.8, label="hybridization fit")
    ax.axvspan(fit.window[0] * 1e12, fit.window[1] * 1e12, alpha=0.15, color="gray")
    ax.set_xlabel("junction inductance (pH)")
    ax.set_ylabel("mode frequency (GHz)")
    ax.legend()
    fig.tight_layout()
    fig.savefig("avoided_crossing.png", dpi=150)
    print("wrote avoided_crossing.png")
except ImportError:
    pass
