"""Two-port algebra: element matrices, cascades, terminations, S-parameters."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qmemsim.calibrate import _tcr_branch_impedance
from qmemsim.cell import cell_shunt_impedance
from qmemsim.jjfet import OFF
from qmemsim.twoport import (
    C0,
    INFINITE_IMPEDANCE,
    LineSection,
    OPEN,
    SHORT,
    SeriesCapacitor,
    SeriesImpedance,
    TwoPort,
    cascade,
    chain_abcd,
    element_abcd,
    input_impedance,
    notch_s21,
    terminate,
    to_sparams,
)
from tests.conftest import ANCHOR

RNG = np.random.default_rng(20240817)
IDENTITY = TwoPort(1.0, 0.0, 0.0, 1.0)


def random_element(rng):
    """Element with impedance scales of a 50-ohm microwave system.

    Entry magnitudes stay modest so cascade determinants remain
    well-conditioned in double precision (the 1e-12 reciprocity tolerance
    leaves ~4 decades of headroom over machine epsilon).
    """
    kind = rng.integers(0, 3)
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
    else:
        z = complex(rng.uniform(0, 100), rng.uniform(-150, 150))
        e = SeriesImpedance(lambda f, z=z: z)
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
        assert not np.isfinite(z) or abs(z) > 1e6 * 50.0

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
        z_big = input_impedance([line], 1e12, f)
        assert z_open == pytest.approx(z_big, rel=1e-6)

    def test_infinite_load_marker_uses_open_limit(self):
        line = LineSection(z0=50.0, eps_eff=6.45, length=2e-3)
        f = 5e9
        assert input_impedance([line], INFINITE_IMPEDANCE, f) == pytest.approx(
            input_impedance([line], OPEN, f)
        )
        freqs = np.linspace(4e9, 6e9, 5)
        markers = np.full(freqs.shape, INFINITE_IMPEDANCE)
        np.testing.assert_array_equal(
            input_impedance([line], markers, freqs), input_impedance([line], OPEN, freqs)
        )


_finite_loads = st.complex_numbers(max_magnitude=1e4, allow_nan=False, allow_infinity=False)
_loads = st.one_of(
    st.sampled_from([0, SHORT, OPEN]),
    _finite_loads,
    st.lists(st.one_of(_finite_loads, st.just(OPEN)), min_size=1, max_size=6).map(
        lambda v: np.array(v, dtype=complex)),
)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), z_load=_loads)
def test_terminate_is_the_load_formula(seed, n, z_load):
    rng = np.random.default_rng(seed)
    elements, freqs = zip(*(random_element(rng) for _ in range(n)))
    tp = chain_abcd(list(elements), freqs[0])
    assume(tp.c != 0 and tp.d != 0)
    z = terminate(tp, z_load)
    assert np.shape(z) == np.shape(z_load)
    for zl, zi in zip(np.atleast_1d(z_load).tolist(), np.atleast_1d(z)):
        assert terminate(tp, zl) == zi  # a scalar load is its entry of an array load
        if zl == 0:
            expect = tp.b / tp.d
        elif not np.isfinite(zl):
            expect = tp.a / tp.c  # the open limit
        else:
            expect = (tp.a * zl + tp.b) / (tp.c * zl + tp.d)
        assert zi == pytest.approx(expect, rel=1e-12)


def extended_abcd(chain, f):
    """ABCD matrix of a chain by products in np.clongdouble, from the same
    double line exponent gamma*l the fold uses, and the cascade of the
    entries' magnitudes, which scales the rounding error of each product."""
    m = np.eye(2, dtype=np.clongdouble)
    m_abs = np.eye(2, dtype=np.longdouble)
    for e in chain:
        if isinstance(e, LineSection):
            gl = np.clongdouble((e.atten + 1j * e.beta(f)) * e.length)
            ch, sh = np.cosh(gl), np.sinh(gl)
            k = np.array([[ch, sh * e.z0], [sh / e.z0, ch]])
        else:
            if isinstance(e, SeriesCapacitor):
                v = 1 / (np.clongdouble(2j * np.pi) * f * e.c_val)
            else:
                v = np.clongdouble(e.z(f))
            one, zero = np.clongdouble(1), np.clongdouble(0)
            k = np.array([[one, v], [zero, one]])
        m, m_abs = m @ k, m_abs @ np.abs(k)
    return m, m_abs


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), z_load=_loads)
def test_fold_matches_abcd_and_extended_precision(seed, n, z_load):
    rng = np.random.default_rng(seed)
    elements, freqs = zip(*(random_element(rng) for _ in range(n)))
    chain, f = list(elements), freqs[0]
    z = input_impedance(chain, z_load, f)
    assert np.shape(z) == np.shape(z_load)
    z_abcd = terminate(chain_abcd(chain, f), z_load)
    m, m_abs = extended_abcd(chain, f)
    (a, b), (c, d) = m
    (a_abs, b_abs), (c_abs, d_abs) = m_abs
    for zl, zi, zt in zip(np.atleast_1d(z_load).tolist(), np.atleast_1d(z),
                          np.atleast_1d(z_abcd)):
        if np.isfinite(zl):
            zl = np.clongdouble(zl)
            num, den = a * zl + b, c * zl + d
            scale = (a_abs * abs(zl) + b_abs, c_abs * abs(zl) + d_abs)
        else:  # the open limit
            num, den, scale = a, c, (a_abs, c_abs)
        if den == 0:  # an open end behind series elements only
            assert not np.isfinite(zi) and not np.isfinite(zt)
            continue
        if abs(num) * 1e3 < scale[0] or abs(den) * 1e3 < scale[1]:
            continue  # near a zero or a pole: cancellation, not the fold, sets the error
        ref = num / den
        assert abs(zi - ref) <= 1e-11 * abs(ref)
        assert abs(zi - zt) <= 1e-11 * abs(zt)


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


@pytest.mark.parametrize("f", [np.array([6.0e9]), np.linspace(4e9, 8e9, 9)],
                         ids=["one-point", "nine-points"])
def test_chain_abcd_at_an_array_is_the_scalar_calls(f):
    # an array f keeps its shape, one entry each, even of length 1; each
    # entry is the scalar call's, bit for bit
    chain = [SeriesCapacitor(5e-15), LineSection(50.0, 6.45, 3e-3, atten=1e-3),
             SeriesImpedance(lambda f: 1j * 2 * np.pi * f * 220e-12)]
    tp = chain_abcd(chain, f)
    for k, fk in enumerate(f.tolist()):
        scalar = chain_abcd(chain, fk)
        for name in ("a", "b", "c", "d"):
            entries = getattr(tp, name)
            assert np.shape(entries) == f.shape
            assert complex(entries[k]) == complex(getattr(scalar, name))


class TestComplexFrequency:
    ELEMENTS = (
        SeriesCapacitor(5e-15),
        LineSection(50.0, 6.45, 3e-3, atten=1e-3),
        SeriesImpedance(lambda f: 1j * 2 * np.pi * f * 220e-12),
    )

    def test_real_f_unchanged_and_scalar_equals_vector(self):
        f = np.linspace(4e9, 8e9, 9)
        line = element_abcd(self.ELEMENTS[1], f)
        # the real-f arithmetic of a line section, written out
        gl = (1e-3 + 1j * (2.0 * np.pi * f * math.sqrt(6.45) / C0)) * 3e-3
        assert np.array_equal(line.a, np.cosh(gl)) and np.array_equal(line.b, 50.0 * np.sinh(gl))
        cap = element_abcd(self.ELEMENTS[0], f)
        assert np.array_equal(cap.b, 1.0 / (2j * np.pi * f * 5e-15))
        for e in self.ELEMENTS:
            vec = element_abcd(e, f)
            for i, x in enumerate(f):
                one = element_abcd(e, float(x))
                assert all(np.array_equal(np.broadcast_to(getattr(vec, k), f.shape)[i],
                                          getattr(one, k)) for k in "abcd")

    def test_complex_f_is_the_analytic_continuation(self):
        f = 6.5e9 + 3e6j
        line = element_abcd(self.ELEMENTS[1], f)
        gl = (1e-3 + 1j * 2 * np.pi * f * math.sqrt(6.45) / C0) * 3e-3
        assert line.a == pytest.approx(np.cosh(gl), rel=1e-14)
        assert element_abcd(self.ELEMENTS[0], f).b == pytest.approx(1 / (2j * np.pi * f * 5e-15))

    @pytest.mark.parametrize("f", [0.0 + 1e9j, -6.5e9 + 1e3j, np.array([6.5e9, -1.0 + 0j])])
    def test_non_positive_real_part_raises(self, f):
        for e in self.ELEMENTS:
            with pytest.raises(ValueError, match="positive real part"):
                element_abcd(e, f)
            with pytest.raises(ValueError, match="positive real part"):
                input_impedance([e], SHORT, f)

    @pytest.mark.parametrize("e", [SeriesImpedance(lambda f: np.full(f.shape, INFINITE_IMPEDANCE)),
                                   SeriesImpedance(lambda f: np.full(f.shape, complex(math.nan)))])
    def test_non_finite_element_value_raises(self, e):
        f = np.array([6.5e9, 6.6e9])
        with pytest.raises(ValueError, match="non-finite"):
            element_abcd(e, f)
        with pytest.raises(ValueError, match="non-finite"):
            input_impedance([e], SHORT, f)

    def test_junction_rows_broadcast_bitwise(self, cell):
        l = np.linspace(10e-12, 500e-12, 7)
        f = np.linspace(5.8e9, 7.4e9, 201)
        z = cell_shunt_impedance(cell, l[:, None], f)
        assert z.shape == (7, 201)
        for k, l_j in enumerate(l):
            assert np.array_equal(z[k], cell_shunt_impedance(cell, float(l_j), f))


def test_vectorized_matches_scalar(cell):
    # bit for bit: a scalar f runs through the same loops as a vector
    chain = [
        SeriesCapacitor(5e-15),
        LineSection(50.0, 6.45, 3e-3, atten=1e-3),
        SeriesImpedance(lambda f: 1j * 2 * np.pi * f * 220e-12),
        LineSection(50.0, 6.45, 4.505e-3),
    ]
    freqs = np.linspace(4e9, 8e9, 7)
    for z_load in (SHORT, OPEN, 25.0 - 10j):
        z_vec = input_impedance(chain, z_load, freqs)
        for i, f in enumerate(freqs):
            z_one = input_impedance(chain, z_load, float(f))
            assert type(z_one) is np.complex128 and np.array_equal(z_one, z_vec[i])

    # the cell's branches, junction included, through the one network path;
    # 6.5-6.7 GHz at 173.3 pH is where numpy-scalar arithmetic once differed
    branches = [
        lambda f: cell_shunt_impedance(cell, ANCHOR, f),
        lambda f: cell_shunt_impedance(cell, 173.3e-12, f),
        lambda f: cell_shunt_impedance(cell, OFF, f),
        lambda f: _tcr_branch_impedance(cell, ANCHOR, f),
    ]
    for freqs in (np.linspace(5e9, 8e9, 31), np.linspace(6.5e9, 6.7e9, 201)):
        for branch in branches:
            z_vec = branch(freqs)
            z_sca = np.array([branch(float(f)) for f in freqs])
            assert np.array_equal(z_sca, z_vec)
            assert all(type(branch(float(f))) is np.complex128 for f in freqs[:2])
