# ---
# jupyter:
#   jupytext:
#     text_representation:
#       extension: .py
#       format_name: percent
# ---

# %% [markdown]
# # The gate-tunable junction
#
# The coupler is tuned by a Josephson field-effect transistor: a
# superconductor-semiconductor junction whose critical current, and hence
# Josephson inductance L = PHI0 / (2 pi Ic), follows the gate voltage.
# Fully depleted, the junction stops being an inductor and becomes a
# ~1 kohm resistor - that is the memory's OFF switch.

# %%
import numpy as np

from qmemsim import (
    OFF,
    GateModel,
    JjFet,
    critical_current_for_inductance,
    gate_to_state,
    icrn_max_current,
    jj_series_impedance,
    josephson_inductance,
)

# inductance across the sweep used throughout this package
print("Ic -> L_J (phi = 0):")
for l_j in (10e-12, 50e-12, 220e-12, 500e-12):
    i_c = critical_current_for_inductance(l_j)
    print(f"  L = {l_j * 1e12:5.0f} pH  <->  Ic = {i_c * 1e6:7.3f} uA")

# %% [markdown]
# The junction geometry sets the current ceiling through the IcRn
# product (the normal-state resistance is a design knob):

# %%
for r_n in (120.0, 300.0, 547.0):
    i_max = icrn_max_current(180e-6, r_n)
    print(
        f"Rn = {r_n:5.0f} ohm -> Ic_max = {i_max * 1e6:5.2f} uA "
        f"-> L_min = {josephson_inductance(i_max) * 1e12:7.1f} pH"
    )

# %% [markdown]
# A gate sweep walks the junction from depletion (resistive OFF state)
# up to full accumulation.  The transfer curve is phenomenological;
# linear and logistic shapes obey the same endpoint contract.  A junction
# state is its Josephson inductance, or `OFF`; the junction itself holds
# the depleted resistance r_off.

# %%
jj = JjFet(
    i_c_max=critical_current_for_inductance(220e-12),
    gate=GateModel(v_pinch=-2.0, v_on=0.0, steepness=4.0),
)
print("gate sweep:")
for v_g in np.linspace(-2.2, 0.0, 9):
    l_j = gate_to_state(jj, float(v_g))
    label = f"OFF (R = {jj.r_off:.0f} ohm)" if l_j is OFF else f"ON (L = {l_j * 1e12:7.1f} pH)"
    print(f"  Vg = {v_g:6.2f} V -> {label}")

# %% [markdown]
# As a circuit element the junction is a lumped RLC: inductive with a
# tiny capacitive correction when ON, resistive when OFF.

# %%
f = 6.55e9
on = gate_to_state(jj, 0.0)
off = gate_to_state(jj, -2.0)
print(f"Z(ON)  at {f / 1e9} GHz: {jj_series_impedance(jj, on, f):.3f} ohm")
print(f"Z(OFF) at {f / 1e9} GHz: {jj_series_impedance(jj, off, f):.1f} ohm")
