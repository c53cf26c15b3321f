# ---
# jupyter:
#   jupytext:
#     text_representation:
#       extension: .py
#       format_name: percent
# ---

# %% [markdown]
# # One memory cell on the feedline
#
# A cell is a shunt branch: input capacitor, half-wave coupling resonator
# split by the junction, coupling capacitor, quarter-wave storage cavity.
# Here we calibrate its geometry against the 6.55 GHz target and look at
# the transmission in the ON and OFF junction states.

# %%
import numpy as np

from qmemsim import OFF, adaptive_sweep, find_resonances, spectrum
from qmemsim.calibrate import CalibrationTargets, calibrate_geometry
from qmemsim.cell import OFF_BAND
from qmemsim.config import example_template

targets = CalibrationTargets(f_sc=6.55e9, l_anchor=220e-12, q_c=2000.0)
cell = calibrate_geometry(targets, example_template())
print("calibrated geometry:")
print(f"  storage stub     {cell.sc_len * 1e3:.4f} mm")
print(f"  coupler sections {cell.tcr_half_len * 1e3:.4f} mm each")
print(f"  input capacitor  {cell.c_in * 1e15:.2f} fF")

# %% [markdown]
# With the junction ON at the anchor inductance the coupler and cavity
# hybridize into two dips; their splitting is the coupling strength.

# %%
freqs, s21 = adaptive_sweep(cell, 220e-12, (5.8e9, 7.4e9))
peaks = find_resonances(freqs, s21, min_depth_db=0.05)
print("ON-state dips:")
for p in peaks:
    print(f"  f0 = {p.f0 / 1e9:.4f} GHz  depth = {p.depth_db:5.1f} dB  Q_l = {p.q_loaded:,.0f}")
print(f"splitting: {(peaks[1].f0 - peaks[0].f0) / 1e6:.1f} MHz")

# %% [markdown]
# Depleting the junction removes the coupler from the band entirely: its
# two halves resonate near twice the original frequency, and the storage
# cavity all but vanishes from the feedline.

# %%
off_peaks, (f_off, s_off) = spectrum(cell, OFF, OFF_BAND)
print("OFF-state resonances over 1-16 GHz:")
for p in off_peaks:
    print(f"  f0 = {p.f0 / 1e9:7.4f} GHz  depth = {p.depth_db:6.3f} dB")
band = (np.abs(f_off - 6.7e9) < 3e8)
print(f"OFF-state |S21| floor near the band: {np.min(np.abs(s_off[band])):.6f}")

# %%
try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 4))
    ax.plot(freqs / 1e9, 20 * np.log10(np.abs(s21)), label="junction ON (220 pH)")
    ax.plot(f_off / 1e9, 20 * np.log10(np.abs(s_off)), label="junction OFF (1 kohm)")
    ax.set_xlim(5.8, 7.4)
    ax.set_xlabel("frequency (GHz)")
    ax.set_ylabel("|S21| (dB)")
    ax.legend()
    fig.tight_layout()
    fig.savefig("cell_spectrum.png", dpi=150)
    print("wrote cell_spectrum.png")
except ImportError:
    pass
