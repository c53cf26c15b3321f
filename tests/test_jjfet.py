"""Junction element: inductance law, gate map, states, impedances."""
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qmemsim.jjfet import (
    DEFAULT_OFF_THRESHOLD,
    OFF,
    GateModel,
    JjFet,
    critical_current_for_inductance,
    gate_to_state,
    icrn_max_current,
    jj_series_impedance,
    josephson_inductance,
)

# independent oracle constant: CODATA flux quantum, Wb
FLUX_QUANTUM = 2.067833848e-15


class TestJosephsonInductance:
    def test_one_microamp(self):
        expect = FLUX_QUANTUM / (2 * math.pi * 1e-6)
        got = josephson_inductance(1e-6, 0.0)
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(329.11e-12, rel=1e-4)

    def test_phase_doubles_at_sixty_degrees(self):
        i_c = 2.3e-6
        assert josephson_inductance(i_c, math.pi / 3) == pytest.approx(
            2.0 * josephson_inductance(i_c, 0.0), rel=1e-12
        )

    def test_sweep_endpoints(self):
        # currents that land on 500 pH and 10 pH
        assert josephson_inductance(FLUX_QUANTUM / (2 * math.pi * 500e-12), 0.0) == pytest.approx(500e-12, rel=1e-12)
        assert josephson_inductance(FLUX_QUANTUM / (2 * math.pi * 10e-12), 0.0) == pytest.approx(10e-12, rel=1e-12)
        assert josephson_inductance(0.658e-6, 0.0) == pytest.approx(500e-12, rel=1e-3)
        assert josephson_inductance(32.91e-6, 0.0) == pytest.approx(10e-12, rel=1e-3)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            josephson_inductance(0.0, 0.0)
        with pytest.raises(ValueError):
            josephson_inductance(-1e-6, 0.0)
        with pytest.raises(ValueError):
            josephson_inductance(1e-6, math.pi / 2)

    def test_constant_product(self):
        rng = np.random.default_rng(7)
        for i_c in 10 ** rng.uniform(-7, -4, 50):
            prod = josephson_inductance(i_c, 0.0) * i_c
            assert prod == pytest.approx(FLUX_QUANTUM / (2 * math.pi), rel=1e-12)


class TestCriticalCurrentInverse:
    def test_220_ph(self):
        got = critical_current_for_inductance(220e-12)
        assert got == pytest.approx(FLUX_QUANTUM / (2 * math.pi * 220e-12), rel=1e-12)
        assert got == pytest.approx(1.496e-6, rel=1e-3)

    def test_inverse_of_example(self):
        assert critical_current_for_inductance(329.106e-12) == pytest.approx(1.0e-6, rel=1e-4)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for l_j in rng.uniform(10e-12, 500e-12, 100):
            back = josephson_inductance(critical_current_for_inductance(l_j), 0.0)
            assert back == pytest.approx(l_j, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            critical_current_for_inductance(0.0)


class TestIcRn:
    def test_aluminum_gap_quotient(self):
        assert icrn_max_current(180e-6, 120.0) == pytest.approx(1.5e-6, rel=1e-12)

    def test_linearity_in_gap(self):
        assert icrn_max_current(360e-6, 120.0) == pytest.approx(
            2.0 * icrn_max_current(180e-6, 120.0), rel=1e-12
        )

    def test_chain_to_one_nanohenry(self):
        i_c = icrn_max_current(180e-6, 547.0)
        assert i_c == pytest.approx(0.329e-6, rel=1e-3)
        assert josephson_inductance(i_c, 0.0) == pytest.approx(1e-9, rel=1e-3)


class TestGateModel:
    # the curve's shape is its steepness: the default 0 is the linear rise
    @pytest.mark.parametrize("shape", [{}, {"steepness": 4.0}])
    def test_boundary_contract(self, shape):
        gate = GateModel(v_pinch=-2.0, v_on=0.0, **shape)
        assert gate.fraction(-2.0) == 0.0
        assert gate.fraction(-5.0) == 0.0
        assert gate.fraction(0.0) == 1.0
        assert gate.fraction(1.0) == 1.0

    @pytest.mark.parametrize("shape", [{}, {"steepness": 4.0}, {"steepness": 1000.0}])
    def test_monotone(self, shape):
        gate = GateModel(v_pinch=-2.0, v_on=0.0, **shape)
        vs = np.linspace(-2.5, 0.5, 101)
        fr = [gate.fraction(v) for v in vs]
        assert all(b >= a for a, b in zip(fr, fr[1:]))

    def test_steepness_zero_is_the_linear_limit(self):
        gate = GateModel(v_pinch=-2.0, v_on=0.0)
        gentle = GateModel(v_pinch=-2.0, v_on=0.0, steepness=1e-6)
        for v in np.linspace(-1.99, -0.01, 199).tolist():
            x = (v + 2.0) / 2.0
            assert gate.steepness == 0.0 and gate.fraction(v) == x
            assert abs(gentle.fraction(v) - x) <= 1e-12

    # 5e-324 once divided by tanh(0.25 k) == 0, and 1e308 overflowed k to
    # inf and made the midpoint inf * 0
    @example(steepness=5e-324, vs=[-2.5, -1.5, -1.0, -0.5, 0.5])
    @example(steepness=1e308, vs=[-2.5, -1.5, -1.0, -0.5, 0.5])
    @given(steepness=st.floats(0.0, sys.float_info.max),
           vs=st.lists(st.floats(-3.0, 1.0), min_size=2, max_size=20))
    def test_every_finite_steepness_keeps_the_contract(self, steepness, vs):
        gate = GateModel(v_pinch=-2.0, v_on=0.0, steepness=steepness)
        fr = [gate.fraction(v) for v in sorted(vs)]
        assert all(0.0 <= x <= 1.0 for x in fr)
        assert all(b >= a for a, b in zip(fr, fr[1:]))
        assert gate.fraction(-1.0) == 0.5

    def test_infinite_steepness_rejected(self):
        with pytest.raises(ValueError, match="GateModel.steepness must be finite"):
            GateModel(v_pinch=-2.0, v_on=0.0, steepness=math.inf)

    def test_rejects_inverted_voltages(self):
        with pytest.raises(ValueError):
            GateModel(v_pinch=0.0, v_on=-1.0)

    # each made fraction() return NaN, as x = (v_g - v_pinch) / span was inf / inf
    @pytest.mark.parametrize("v_pinch, v_on, v_g, name", [
        (-math.inf, 0.0, -1.0, "v_pinch"),
        (-1e308, 1e308, 0.0, "span"),
    ], ids=["infinite_v_pinch", "overflowing_span"])
    def test_rejects_voltages_without_a_finite_span(self, v_pinch, v_on, v_g, name):
        with pytest.raises(ValueError, match=f"GateModel.{name} must be finite"):
            GateModel(v_pinch, v_on).fraction(v_g)


class TestGateToState:
    def make_jj(self):
        return JjFet(i_c_max=critical_current_for_inductance(220e-12))

    def test_pinched_off_is_resistor(self):
        assert gate_to_state(self.make_jj(), -2.0) is OFF
        assert gate_to_state(self.make_jj(), -5.0) is OFF

    def test_full_accumulation_hits_anchor(self):
        assert gate_to_state(self.make_jj(), 0.0) == pytest.approx(220e-12, rel=1e-12)

    def test_inductance_monotone_on_branch(self):
        jj = self.make_jj()
        vs = np.linspace(-1.2, 0.0, 25)
        ls = []
        for v in vs:
            l_j = gate_to_state(jj, v)
            if l_j is not OFF:
                ls.append(l_j)
        assert len(ls) > 5
        assert all(b <= a for a, b in zip(ls, ls[1:]))

    def test_off_threshold_boundary(self):
        jj = self.make_jj()
        # a gate voltage whose current sits exactly at the threshold is OFF
        v_at = jj.gate.v_pinch + (jj.gate.v_on - jj.gate.v_pinch) * (
            DEFAULT_OFF_THRESHOLD / jj.i_c_max
        )
        assert gate_to_state(jj, v_at) is OFF
        assert gate_to_state(jj, v_at + 1e-3) > 0

    def test_midpoint_of_a_steep_gate_is_inductive(self):
        jj = JjFet(i_c_max=critical_current_for_inductance(220e-12),
                   gate=GateModel(v_pinch=-2.0, v_on=0.0, steepness=1e308))
        assert gate_to_state(jj, -1.0) == pytest.approx(440e-12, rel=1e-12)


def junction(c_j, r_sub):
    """A junction with the given parasitics and the default 1 kohm r_off."""
    return JjFet(i_c_max=1e-6, c_j=c_j, r_sub=r_sub)


IDEAL = junction(0.0, math.inf)


class TestSeriesImpedance:
    def test_pure_inductor(self):
        z = jj_series_impedance(IDEAL, 220e-12, 6.5e9)
        expect = 1j * 2 * math.pi * 6.5e9 * 220e-12
        assert z == pytest.approx(expect, rel=1e-12)
        assert z == pytest.approx(8.985j, rel=1e-3)

    def test_pure_resistor(self):
        for f in (1e9, 6.5e9, 15e9):
            assert jj_series_impedance(IDEAL, OFF, f) == pytest.approx(1000.0)

    def test_capacitance_correction_below_self_resonance(self):
        f = 6.5e9
        z_pure = jj_series_impedance(IDEAL, 220e-12, f)
        z_cap = jj_series_impedance(junction(1e-15, math.inf), 220e-12, f)
        # parallel-LC correction 1/(1 - w^2 L C); self-resonance ~ 339 GHz
        f_sr = 1.0 / (2 * math.pi * math.sqrt(220e-12 * 1e-15))
        assert f_sr == pytest.approx(339e9, rel=2e-3)
        assert z_cap == pytest.approx(z_pure / (1 - (f / f_sr) ** 2), rel=1e-9)
        assert abs(z_cap - z_pure) / abs(z_pure) < 1e-3

    def test_on_state_purely_inductive(self):
        rng = np.random.default_rng(3)
        for f in 10 ** rng.uniform(8, 10.5, 50):
            z = jj_series_impedance(IDEAL, 150e-12, f)
            assert z.real == 0.0
            assert z.imag > 0.0

    def test_self_resonance_divergence(self):
        l_j, c_j = 220e-12, 1e-15
        f_sr = 1.0 / (2 * math.pi * math.sqrt(l_j * c_j))
        z_near = jj_series_impedance(junction(c_j, math.inf), l_j, f_sr * (1 - 1e-9))
        assert abs(z_near) > 1e8

    def test_off_with_capacitance(self):
        f = 6.5e9
        z = jj_series_impedance(junction(1e-15, math.inf), OFF, f)
        y = 1 / 1000.0 + 1j * 2 * math.pi * f * 1e-15
        assert z == pytest.approx(1 / y, rel=1e-12)


class TestComplexFrequency:
    JJ = junction(1e-15, 1e6)
    STATES = (220e-12, OFF)

    def test_real_f_unchanged_and_scalar_equals_vector(self):
        # the real-f arithmetic of the ON/OFF admittance, written out
        f = np.linspace(4e9, 9e9, 11)
        w = 2.0 * np.pi * f
        for state, y in zip(self.STATES, (1.0 / (1j * w * 220e-12) + 1j * w * 1e-15 + 1.0 / 1e6,
                                          1.0 / 1000.0 + 1j * w * 1e-15)):
            vec = jj_series_impedance(self.JJ, state, f)
            assert np.array_equal(vec, 1.0 / y)
            assert np.array_equal(vec, [jj_series_impedance(self.JJ, state, x) for x in f])

    def test_complex_f_is_the_analytic_continuation(self):
        f = 6.5e9 + 2e6j
        w = 2.0 * np.pi * f
        z = jj_series_impedance(self.JJ, 220e-12, f)
        assert z == pytest.approx(1.0 / (1.0 / (1j * w * 220e-12) + 1j * w * 1e-15 + 1e-6),
                                  rel=1e-14)

    @pytest.mark.parametrize("f", [0.0 + 1e9j, -6.5e9 + 1e3j, np.array([6.5e9, -1.0 + 0j])])
    def test_non_positive_real_part_raises(self, f):
        for state in self.STATES:
            with pytest.raises(ValueError, match="positive real part"):
                jj_series_impedance(self.JJ, state, f)

    def test_on_array_validated_elementwise(self):
        l_j = np.array([[1e-10], [2e-10]])
        f = np.array([6e9, 7e9])
        z = jj_series_impedance(self.JJ, l_j, f)
        assert z.shape == (2, 2)
        assert np.array_equal(z[1], jj_series_impedance(self.JJ, 2e-10, f))
        for bad in (np.array([1e-10, -1e-12]), np.array([[1e-10], [0.0]])):
            with pytest.raises(ValueError, match="l_j must be positive"):
                jj_series_impedance(self.JJ, bad, 6.5e9)


def test_jjfet_validation():
    with pytest.raises(ValueError):
        JjFet(i_c_max=0.0)
    with pytest.raises(ValueError):
        JjFet(i_c_max=1e-6, r_off=-1.0)
