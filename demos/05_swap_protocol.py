# ---
# jupyter:
#   jupytext:
#     text_representation:
#       extension: .py
#       format_name: percent
# ---

# %% [markdown]
# # Writing and reading a photon
#
# The cell reduces to two coupled modes: the feedline-loaded coupler `a`
# and the storage cavity `b`.  Writing keeps the gate OFF while an RF
# pulse loads `a`, then a DC gate pulse of one swap duration
# (pi / 2g) moves the excitation into `b`.  Reading runs the swap in
# reverse and lets the photon leak back out of the feedline port.

# %%
import numpy as np

from qmemsim import (
    TWO_PI,
    RfPulse,
    read_protocol,
    swap_duration,
    write_protocol,
)
from qmemsim.calibrate import CalibrationTargets, calibrate_geometry
from qmemsim.config import example_template
from qmemsim.extract import extract_coupled_mode_params, off_state_residual_coupling
from qmemsim.modemap import fit_avoided_crossing, mode_map

cell = calibrate_geometry(
    CalibrationTargets(f_sc=6.55e9, l_anchor=220e-12, q_c=2000.0),
    example_template(),
)

# %% [markdown]
# The reduced model lives at the avoided crossing: the mode-map fit gives
# the closest approach `l_cross`, the bare frequencies and g; the
# extraction adds the decay rates from complex roots of the isolated
# branches at that junction inductance, and the gate-OFF floor g_off.

# %%
fit = fit_avoided_crossing(mode_map(cell, np.linspace(10e-12, 500e-12, 41)))
system = extract_coupled_mode_params(cell, fit)

print("reduced model at the crossing:")
print(f"  g/2pi        = {system.g_on / TWO_PI / 1e6:6.1f} MHz")
print(f"  kappa_ext/2pi= {system.kappa_ext / TWO_PI / 1e6:6.2f} MHz")
print(f"  kappa_int/2pi= {system.kappa_int_a / TWO_PI / 1e3:6.1f} kHz")
print(f"  gamma_b/2pi  = {system.gamma_b / TWO_PI / 1e3:6.1f} kHz")
print(f"  g_off        = {system.g_off:.1e} rad/s")
print(f"  swap duration= {swap_duration(system.g_on) * 1e9:.3f} ns")

# %% [markdown]
# A full write: a rectangular RF pulse.  The gate fires at the envelope's
# peak, which for a rectangle is the pulse's end (for a gaussian, its middle).

# %%
rf = RfPulse(
    carrier=system.omega_b / TWO_PI,
    amplitude=1.0,
    start=0.0,
    duration=3.0 / system.kappa_ext,
)
written = write_protocol(system, rf)
print(f"write fidelity (stored / peak loaded energy): {written.fidelity:.4f}")

# %% [markdown]
# The isolation counterpart: the same drive with the gate never engaged.
# Only the residual OFF-state coupling leaks into the cavity.

# %%
isolated = write_protocol(system, rf, engage_gate=False)
print(f"fidelity with the gate never ON: {isolated.fidelity:.2e}")

residual = off_state_residual_coupling(cell, kappa_a=system.kappa_ext + system.kappa_int_a)
print(f"residual cavity-feedline rate in OFF state: {residual.kappa_sc_ext / TWO_PI:.1f} Hz")

# %% [markdown]
# Reading returns the stored photon through the feedline:

# %%
read = read_protocol(system)
print(f"read recovered fraction: {read.recovered_fraction:.4f}")

# %%
try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    traj = written.trajectory
    fig, ax = plt.subplots(figsize=(7, 4))
    ax.plot(traj.times * 1e9, traj.e_a, label="coupler |a|^2")
    ax.plot(traj.times * 1e9, traj.e_b, label="cavity |b|^2")
    ax.axvline(rf.duration * 1e9, color="k", lw=0.8, ls="--", label="gate pulse")
    ax.set_xlabel("time (ns)")
    ax.set_ylabel("energy (photons)")
    ax.legend()
    fig.tight_layout()
    fig.savefig("swap_protocol.png", dpi=150)
    print("wrote swap_protocol.png")
except ImportError:
    pass
