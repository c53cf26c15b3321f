"""Two-port algebra: element matrices, cascades, terminations, S-parameters."""
import math

import numpy as np
import pytest

from qmemsim.calibrate import _tcr_branch_impedance
from qmemsim.cell import cell_shunt_impedance
from qmemsim.jjfet import Off, On
from qmemsim.twoport import (
    C0,
    IDENTITY,
    INFINITE_IMPEDANCE,
    LineSection,
    Load,
    OPEN,
    SHORT,
    SeriesCapacitor,
    SeriesImpedance,
    ShuntAdmittance,
    cascade,
    chain_abcd,
    element_abcd,
    input_impedance,
    is_infinite_impedance,
    notch_s21,
    to_sparams,
)
from tests.conftest import ANCHOR

RNG = np.random.default_rng(20240817)


def random_element(rng):
    """Element with impedance scales of a 50-ohm microwave system.

    Entry magnitudes stay modest so cascade determinants remain
    well-conditioned in double precision (the 1e-12 reciprocity tolerance
    leaves ~4 decades of headroom over machine epsilon).
    """
    kind = rng.integers(0, 4)
    f = 10 ** rng.uniform(9.0, 10.3)
    if kind == 0:
        e = LineSection(
            z0=rng.uniform(10, 200),
            eps_eff=rng.uniform(1, 12),
            length=rng.uniform(1e-4, 2e-2),
            atten=rng.uniform(0, 0.1),
        )
    elif kind == 1:
        x_c = rng.uniform(10, 500)  # ohm at the drawn frequency
        e = SeriesCapacitor(1.0 / (2 * np.pi * f * x_c))
    elif kind == 2:
        z = complex(rng.uniform(0, 100), rng.uniform(-150, 150))
        e = SeriesImpedance(lambda f, z=z: z)
    else:
        y = complex(rng.uniform(0, 0.01), rng.uniform(-0.02, 0.02))
        e = ShuntAdmittance(lambda f, y=y: y)
    return e, f


def reactive_element(rng):
    """Lossless element for unitarity checks."""
    kind = rng.integers(0, 3)
    f = 10 ** rng.uniform(8.5, 10.2)
    if kind == 0:
        e = LineSection(rng.uniform(20, 120), rng.uniform(1, 12), rng.uniform(1e-4, 1e-2))
    elif kind == 1:
        e = SeriesCapacitor(10 ** rng.uniform(-15.5, -13.5))
    else:
        x = rng.uniform(-300, 300)
        e = SeriesImpedance(lambda f, x=x: 1j * x)
    return e, f


class TestElementAbcd:
    def test_series_impedance_definition(self):
        tp = element_abcd(SeriesImpedance(lambda f: 50.0 + 0j), 3.1e9)
        assert (tp.a, tp.b, tp.c, tp.d) == (1.0, 50.0 + 0j, 0.0, 1.0)

    def test_quarter_wave_line(self):
        # beta*l = pi/2: a = d = 0, b = i z0, c = i / z0
        line = LineSection(z0=50.0, eps_eff=4.0, length=1.0)
        f = C0 / 2.0 / 4.0  # quarter wave of a 1 m line at v = c/2
        tp = element_abcd(line, f)
        assert abs(tp.a) < 1e-9 and abs(tp.d) < 1e-9
        assert tp.b == pytest.approx(50j, abs=1e-9)
        assert tp.c == pytest.approx(0.02j, abs=1e-12)

    def test_quarter_wave_length_at_6p55_ghz(self):
        # v = c0/sqrt(6.45); l = v/(4 f) gives beta*l = pi/2 within 0.1%
        line = LineSection(z0=50.0, eps_eff=6.45, length=4.505e-3)
        beta_l = line.beta(6.55e9) * line.length
        assert beta_l == pytest.approx(math.pi / 2, rel=1e-3)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            element_abcd(SeriesCapacitor(1e-15), 0.0)

    def test_rejects_invalid_line(self):
        with pytest.raises(ValueError):
            LineSection(z0=0.0, eps_eff=6.45, length=1e-3)
        with pytest.raises(ValueError):
            LineSection(z0=50.0, eps_eff=0.5, length=1e-3)
        with pytest.raises(ValueError):
            LineSection(z0=50.0, eps_eff=6.45, length=-1e-3)


class TestCascade:
    def test_identity_absorbs(self):
        tp = element_abcd(SeriesCapacitor(5e-15), 6.5e9)
        out = cascade([IDENTITY, tp])
        assert out == tp

    def test_single_element(self):
        tp = element_abcd(SeriesCapacitor(5e-15), 6.5e9)
        assert cascade([tp]) == tp

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cascade([])

    def test_two_quarter_waves_invert(self):
        line = LineSection(z0=50.0, eps_eff=4.0, length=1.0)
        f = C0 / 8.0
        tp = element_abcd(line, f)
        # oracle: direct 2x2 multiply
        m = np.array([[tp.a, tp.b], [tp.c, tp.d]])
        expect = m @ m
        out = cascade([tp, tp])
        assert out.a == pytest.approx(expect[0, 0], abs=1e-12)
        assert out.b == pytest.approx(expect[0, 1], abs=1e-9)
        assert out.a == pytest.approx(-1.0, abs=1e-9)
        assert abs(out.b) < 1e-6 and abs(out.c) < 1e-9
        assert out.d == pytest.approx(-1.0, abs=1e-9)

    def test_associativity_random(self):
        for _ in range(300):
            f = 10 ** RNG.uniform(8.5, 10.2)
            tps = [element_abcd(random_element(RNG)[0], f) for _ in range(3)]
            left = cascade([cascade(tps[:2]), tps[2]])
            right = cascade([tps[0], cascade(tps[1:])])
            for name in "abcd":
                lv, rv = getattr(left, name), getattr(right, name)
                assert lv == pytest.approx(rv, rel=1e-12, abs=1e-15)


class TestReciprocity:
    def test_elements_and_cascades(self):
        for _ in range(1000):
            f = 10 ** RNG.uniform(9.0, 10.2)
            tps = [element_abcd(random_element(RNG)[0], f) for _ in range(RNG.integers(1, 4))]
            det = cascade(tps).determinant
            assert det == pytest.approx(1.0, rel=1e-12, abs=1e-12)


class TestInputImpedance:
    def test_shorted_quarter_wave_pole(self):
        line = LineSection(z0=50.0, eps_eff=6.45, length=4.505e-3)
        f_pole = line.phase_velocity() / (4.0 * line.length)
        z = input_impedance([line], SHORT, f_pole)
        assert is_infinite_impedance(z) or abs(z) > 1e6 * 50.0

    def test_pole_neighborhood_magnitude(self):
        # |Z| stays above 1e6 z0 within +-1 kHz of the quarter-wave pole
        for _ in range(30):
            z0 = RNG.uniform(20, 120)
            eps = RNG.uniform(2, 12)
            length = RNG.uniform(1e-3, 8e-3)
            line = LineSection(z0=z0, eps_eff=eps, length=length)
            f_pole = line.phase_velocity() / (4.0 * length)
            for df in (-1e3, 1e3):
                z = input_impedance([line], SHORT, f_pole + df)
                assert abs(z) > 1e6 * z0

    def test_small_angle_inductive(self):
        line = LineSection(z0=50.0, eps_eff=6.45, length=4.505e-3)
        f = 1e6  # beta*l ~ 2.4e-4
        z = input_impedance([line], SHORT, f)
        beta_l = line.beta(f) * line.length
        assert z == pytest.approx(1j * 50.0 * beta_l, rel=1e-6)

    def test_eighth_wave_inductive_50j(self):
        line = LineSection(z0=50.0, eps_eff=6.45, length=4.505e-3)
        z = input_impedance([line], SHORT, 3.275e9)
        # oracle: Z = j z0 tan(beta l) with beta l = pi/4
        beta_l = line.beta(3.275e9) * line.length
        assert z == pytest.approx(1j * 50.0 * math.tan(beta_l), rel=1e-9)
        assert z == pytest.approx(50j, rel=1e-3)

    def test_open_is_analytic_limit(self):
        line = LineSection(z0=50.0, eps_eff=6.45, length=2e-3)
        f = 5e9
        z_open = input_impedance([line], OPEN, f)
        z_big = input_impedance([line], Load(1e12), f)
        assert z_open == pytest.approx(z_big, rel=1e-6)

    def test_infinite_load_marker_uses_open_limit(self):
        line = LineSection(z0=50.0, eps_eff=6.45, length=2e-3)
        f = 5e9
        assert input_impedance([line], Load(INFINITE_IMPEDANCE), f) == pytest.approx(
            input_impedance([line], OPEN, f)
        )
        freqs = np.linspace(4e9, 6e9, 5)
        markers = np.full(freqs.shape, INFINITE_IMPEDANCE)
        np.testing.assert_array_equal(
            input_impedance([line], Load(markers), freqs), input_impedance([line], OPEN, freqs)
        )


class TestNotch:
    def test_open_branch_full_transmission(self):
        assert notch_s21(INFINITE_IMPEDANCE, 50.0) == 1.0

    def test_short_branch_full_notch(self):
        assert notch_s21(0.0, 50.0) == 0.0

    def test_half_reference(self):
        assert notch_s21(25.0, 50.0) == pytest.approx(0.5)

    def test_reactive_branch(self):
        assert notch_s21(25j, 50.0) == pytest.approx(0.5 + 0.5j)

    def test_array_path_handles_markers(self):
        z = np.array([INFINITE_IMPEDANCE, 0.0, 25j, 25.0])
        s = notch_s21(z, 50.0)
        assert s[0] == 1.0 and s[1] == 0.0
        assert s[2] == pytest.approx(0.5 + 0.5j)
        assert s[3] == pytest.approx(0.5)


class TestSParams:
    def test_identity(self):
        sp = to_sparams(IDENTITY, 50.0)
        assert sp.s11 == 0.0
        assert sp.s21 == 1.0

    def test_series_matched_impedance(self):
        tp = element_abcd(SeriesImpedance(lambda f: 50.0 + 0j), 1e9)
        sp = to_sparams(tp, 50.0)
        assert sp.s21 == pytest.approx(2.0 / 3.0)

    def test_lossless_unitarity(self):
        for _ in range(1000):
            e, f = reactive_element(RNG)
            sp = to_sparams(element_abcd(e, f), 50.0)
            assert abs(sp.s11) ** 2 + abs(sp.s21) ** 2 == pytest.approx(1.0, abs=1e-9)

    def test_reciprocal_s12_equals_s21(self):
        for _ in range(200):
            f = 10 ** RNG.uniform(9.0, 10.2)
            tp = cascade([element_abcd(random_element(RNG)[0], f) for _ in range(3)])
            sp = to_sparams(tp, 50.0)
            assert sp.s12 == pytest.approx(sp.s21, rel=1e-10, abs=1e-12)

    def test_rejects_bad_reference(self):
        with pytest.raises(ValueError):
            to_sparams(IDENTITY, 0.0)


def test_chain_abcd_matches_manual_cascade():
    chain = [SeriesCapacitor(5e-15), LineSection(50.0, 6.45, 3e-3)]
    f = 6.0e9
    manual = cascade([element_abcd(e, f) for e in chain])
    assert chain_abcd(chain, f) == manual


def test_vectorized_matches_scalar(cell):
    chain = [
        SeriesCapacitor(5e-15),
        LineSection(50.0, 6.45, 3e-3, atten=1e-3),
        SeriesImpedance(lambda f: 1j * 2 * np.pi * f * 220e-12),
    ]
    freqs = np.linspace(4e9, 8e9, 7)
    z_vec = input_impedance(chain, SHORT, freqs)
    for i, f in enumerate(freqs):
        assert z_vec[i] == pytest.approx(input_impedance(chain, SHORT, float(f)), rel=1e-12)

    # the cell's branches, junction included, through the one network path
    branches = [
        lambda f: cell_shunt_impedance(cell, On(ANCHOR), f),
        lambda f: cell_shunt_impedance(cell, Off(cell.jj.r_off), f),
        lambda f: _tcr_branch_impedance(cell, ANCHOR, f),
    ]
    freqs = np.linspace(5e9, 8e9, 31)
    for branch in branches:
        z_vec = branch(freqs)
        z_sca = np.array([branch(float(f)) for f in freqs])
        assert np.all(np.abs(z_sca - z_vec) <= 1e-12 * (np.abs(z_vec) + cell.z0))
