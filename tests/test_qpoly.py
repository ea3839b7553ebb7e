"""Polynomial arithmetic, gcd, resultants, rational factorization."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import ceil
from pathlib import Path
from unittest import mock

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from specrig import qpoly
from specrig.errors import InsufficientTruncation, InternalInconsistency
from conftest import (cleared_form, clearing_scale, euclid_gcd,
                      integer_form, poly_xgcd, series_det_bareiss,
                      series_form, sympy_factor_rational)
from specrig.qpoly import (UPoly, det_bareiss, det_cofactor, factor_rational,
                           integer_series, poly_gcd, resultant,
                           resultant_det, squarefree_part, sylvester_matrix)
from specrig.ratfn import RatFn
from specrig.series import Series
from specrig.tower import FieldTower, TowerElem


X = UPoly([Fraction(0), Fraction(1)])
ZS = qpoly._ZSeries
SRC = Path(__file__).resolve().parent.parent / "src"


def P(*coeffs):
    """UPoly from ascending Fraction coefficients."""
    return UPoly([Fraction(c) for c in coeffs])


class TestArithmetic:
    def test_trailing_zeros_normalized(self):
        assert UPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert UPoly([0, 0]).is_zero()
        assert UPoly().degree == -1

    def test_mul(self):
        assert (X + 1) * (X - 1) == P(-1, 0, 1)

    def test_divmod(self):
        f = P(-1, 0, 0, 1)  # x^3 - 1
        q, r = f.divmod(X - 1)
        assert q == P(1, 1, 1)
        assert r.is_zero()

    def test_divmod_remainder(self):
        q, r = P(1, 1, 1).divmod(P(0, 2))
        assert P(0, 2) * q + r == P(1, 1, 1)

    def test_one_inverse_per_tower_division(self, monkeypatch):
        """A division by a polynomial with a tower leading coefficient
        inverts that coefficient once, not once per quotient
        coefficient, and gives what dividing each coefficient gives."""
        r = FieldTower().adjoin(P(-2, 0, 1))  # sqrt 2
        lead = 1 + r
        f = UPoly([3, r, 2 * r, 1, r + 5, 7])
        g = UPoly([r, 1, lead])
        calls = []
        inverse = TowerElem.inverse

        def counting_inverse(self):
            calls.append(self)
            return inverse(self)

        monkeypatch.setattr(TowerElem, "inverse", counting_inverse)
        q, rem = f.divmod(g)
        assert calls == [lead]
        assert g * q + rem == f and rem.degree < g.degree
        calls.clear()
        m = (f * lead).monic()
        assert calls == [7 * lead]
        assert m == f * Fraction(1, 7)

    def test_eval_compose(self):
        f = P(1, 2, 3)
        assert f.eval(Fraction(2)) == 1 + 4 + 12
        g = f.compose(X + 1)
        assert g.eval(Fraction(1)) == f.eval(Fraction(2))

    def test_pow(self):
        assert (X + 1) ** 3 == P(1, 3, 3, 1)

    def test_derivative(self):
        assert P(5, 1, 4).derivative() == P(1, 8)

    def test_iteration_ends(self):
        """Iterating a UPoly walks its coefficients and stops; a fresh
        interpreter with a time limit runs it, so that an endless
        iteration fails the test instead of hanging the suite."""
        code = ("from specrig.qpoly import UPoly\n"
                "assert list(UPoly([1, 2, 0])) == [1, 2]\n"
                "assert UPoly(UPoly([1, 2])) == UPoly([1, 2])\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                       check=True)


def _gcd_poly():
    """A polynomial over Q of degree 0-8, or zero, with int and Fraction
    coefficients."""
    coeff = st.one_of(st.integers(-9, 9),
                      st.fractions(min_value=-9, max_value=9,
                                   max_denominator=12))
    return st.lists(coeff, max_size=9).map(UPoly)


class TestGcd:
    def test_gcd(self):
        f = (X - 1) * (X + 1)
        g = (X + 1) * (X + 1)
        assert poly_gcd(f, g) == X + 1

    def test_gcd_coprime(self):
        assert poly_gcd(X - 1, X + 1).degree == 0

    def test_xgcd_bezout(self):
        f, g = P(-2, 0, 1), P(-3, 0, 1)
        d, u, v = poly_xgcd(f, g)
        assert u * f + v * g == d
        assert d.degree == 0

    def test_squarefree_part(self):
        f = (X + 1) ** 2 * X
        assert squarefree_part(f) == X * (X + 1)

    def test_zero_and_constant_operands(self):
        assert poly_gcd(UPoly(), UPoly()) == UPoly()
        assert poly_gcd(UPoly(), P(2, 4)) == P(Fraction(1, 2), 1)
        assert poly_gcd(P(Fraction(3, 2)), X * X - 1) == UPoly([1])

    @settings(max_examples=150, deadline=None)
    @given(_gcd_poly(), _gcd_poly(), _gcd_poly())
    @example(UPoly(), UPoly([Fraction(3, 4), 0, 1]), UPoly())
    @example(UPoly([5]), UPoly([0, 0, 7]), UPoly([-1, 1]))
    def test_equals_euclid_over_q(self, f, g, h):
        """The integer remainder sequence gives Euclid's monic gcd over Q,
        on random pairs and on pairs with the common factor h."""
        for a, b in ((f, g), (f * h, g * h)):
            d = poly_gcd(a, b)
            assert d == euclid_gcd(a, b)
            assert all(isinstance(c, (int, Fraction)) for c in d.coeffs)
        if h and (f or g):
            assert poly_gcd(f * h, g * h).degree >= h.degree


    @settings(max_examples=150, deadline=None)
    @given(_gcd_poly(), _gcd_poly(), _gcd_poly(),
           st.sampled_from([1, qpoly._PRIME, 3 * qpoly._PRIME]))
    def test_modular_certificate_matches_remainder_sequence(self, f, g, h,
                                                            scale):
        """The gcd with the coprime test modulo a prime equals the gcd of
        the remainder sequence alone, also when the prime divides a
        leading coefficient (f's, scaled by a multiple of it)."""
        if f:
            f = UPoly(f.coeffs[:-1] + (f.coeffs[-1] * scale,))
        for a, b in ((f, g), (f * h, g * h)):
            with mock.patch.object(qpoly, "_coprime_modulo_prime",
                                   return_value=False):
                expected = poly_gcd(a, b)
            assert poly_gcd(a, b) == expected

    def test_prime_dividing_a_leading_coefficient_skips_the_test(self):
        """p x + 1 is the constant 1 modulo p, but it divides
        (p x + 1)(x + 1): the modular gcd would read 1."""
        p = qpoly._PRIME
        a = UPoly([1, p])
        b = a * UPoly([1, 1])
        assert not qpoly._coprime_modulo_prime(list(a.coeffs),
                                               list(b.coeffs))
        assert poly_gcd(a, b) == a.monic()
        assert qpoly._coprime_modulo_prime([1, 1], [2, 1])


class TestResultant:
    def test_quadratics(self):
        f, g = P(-2, 0, 1), P(-3, 0, 1)
        # prod of g over roots +-sqrt(2): (2-3)^2 = 1
        assert resultant(f, g) == 1
        assert resultant_det(f, g) == 1

    def test_shared_root(self):
        assert resultant_det((X - 1) * (X + 2), (X - 1) * (X - 3)) == 0

    def test_euclidean_matches_determinant(self):
        rng = random.Random(7)
        for _ in range(25):
            f = P(*[rng.randint(-4, 4) for _ in range(rng.randint(2, 5))])
            g = P(*[rng.randint(-4, 4) for _ in range(rng.randint(2, 5))])
            if f.degree < 1 or g.degree < 1:
                continue
            assert resultant(f, g) == resultant_det(f, g)

    def test_multiplicative_in_first_argument(self):
        rng = random.Random(11)
        for _ in range(15):
            f = P(*[rng.randint(-3, 3) for _ in range(3)], 1)
            h = P(*[rng.randint(-3, 3) for _ in range(2)], 1)
            g = P(*[rng.randint(-3, 3) for _ in range(3)], 1)
            assert resultant_det(f * h, g) == \
                resultant_det(f, g) * resultant_det(h, g)

    def test_swap_sign(self):
        f, g = P(1, 2, 1, 3), P(-1, 4, 2)
        sign = (-1) ** (f.degree * g.degree)
        assert resultant_det(f, g) == sign * resultant_det(g, f)

    def test_root_product(self):
        # f = 2(x-1)(x-2), Res(f, g) = lc(f)^deg(g) * g(1) * g(2)
        f = P(4, -6, 2)
        g = P(1, 1, 1, 1)
        assert resultant_det(f, g) == 2 ** 3 * g.eval(1) * g.eval(2)

    def test_sylvester_shape(self):
        rows = sylvester_matrix(P(1, 2, 3), P(4, 5))
        assert len(rows) == 3 and all(len(r) == 3 for r in rows)


class TestDiscriminant:
    """Closed forms of disc f through the Sylvester kernel:
    Res(f, f') = (-1)^{d(d-1)/2} lc(f) disc f."""

    def test_quadratic(self):
        for a, b, c in [(1, 3, 1), (1, 0, -2), (1, 5, 5), (2, 3, 1)]:
            f = P(c, b, a)
            assert resultant_det(f, f.derivative()) == -a * (b * b - 4 * a * c)

    def test_depressed_cubic(self):
        for p, q in [(1, 1), (-3, 2), (0, -1)]:
            f = P(q, p, 0, 1)
            assert resultant_det(f, f.derivative()) == \
                -(-4 * p ** 3 - 27 * q ** 2)


class TestDetCofactor:
    def test_3x3(self):
        rows = [[2, 0, 1], [1, 1, 0], [0, 3, 4]]
        assert det_cofactor(rows) == 2 * 4 + 1 * 3 - 0 + 0

    def test_zero_row(self):
        assert det_cofactor([[0, 0], [1, 2]]) == 0

    @pytest.mark.parametrize("det", [det_cofactor, det_bareiss])
    def test_zero_to_precision_is_not_exact_zero(self, det):
        # O(z) - z^2 = O(z): the valuation is undecided, never 2; the
        # elimination runs over truncated Z[[z]], the cofactor sum over
        # Series
        series = ZS if det is det_bareiss else (
            lambda c, prec=None: Series(dict(enumerate(c)), prec))
        rows = [[series([], 1), series([0, 0, 1])],
                [series([1]), series([1])]]
        d = det(rows)
        assert d.prec == 1
        with pytest.raises(InsufficientTruncation):
            d.valuation()


# -- fraction-free elimination against the cofactor reference ---------------

_Q = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_SQRT2 = FieldTower().adjoin(P(-2, 0, 1))


def _square(entries):
    return st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=n, max_size=n))


def _zform(x):
    """(coefficients, prec) of a truncated integer series; an int stands
    for the exact constant."""
    return (x.c, x.prec) if isinstance(x, ZS) else ([x] if x else [], None)


_RINGS = {
    "Q": _Q,
    "Q[z]": st.lists(_Q, max_size=3).map(UPoly),
    "Q(sqrt 2)": st.tuples(_Q, _Q).map(lambda ab: ab[0] + ab[1] * _SQRT2),
    "exact series": st.lists(st.integers(-3, 3), max_size=3).map(ZS),
}


def _truncated_integer_series():
    def build(args):
        v, coeffs, extra = args
        return ZS([0] * v + coeffs, v + len(coeffs) + extra)
    lead = st.sampled_from([-2, -1, 1, 2])
    return st.tuples(st.integers(0, 4),
                     st.tuples(lead, st.integers(-3, 3),
                               st.integers(-3, 3)).map(list),
                     st.integers(0, 3)).map(build)


class TestDetBareiss:
    @pytest.mark.parametrize("ring", sorted(_RINGS))
    def test_equals_cofactor(self, ring):
        @settings(max_examples=60, deadline=None)
        @given(_square(_RINGS[ring]))
        def check(rows):
            d, ref = det_bareiss(rows), det_cofactor(rows)
            if ring == "exact series":
                d, ref = _zform(d), _zform(ref)
            assert d == ref
        check()

    @settings(max_examples=60, deadline=None)
    @given(_square(_truncated_integer_series()))
    def test_truncated_series_never_certifies_a_wrong_value(self, rows):
        # every entry carries a certified leading term; elimination may
        # certify less precision than the cofactor sum, never other terms
        ref = det_cofactor(rows)
        try:
            d = det_bareiss(rows)
        except InsufficientTruncation:
            return
        common = min(d.prec, ref.prec)
        for e in range(ceil(common)):
            assert (d.c[e] if e < len(d.c) else 0) == \
                (ref.c[e] if e < len(ref.c) else 0)
        if d.c and ref.c:
            assert d.valuation() == ref.valuation()

    def test_lowest_valuation_pivot(self):
        z = ZS([0, 1], 6)
        one = ZS([1], 5)
        rows = [[z, one, one], [one, z, one], [one, one, z]]
        d = det_bareiss(rows)
        assert d.valuation() == 0 and d.c[0] == 2
        assert d.prec == det_cofactor(rows).prec

    def test_zero_pivot_column_to_precision_raises(self):
        rows = [[ZS([], 2), ZS([1])], [ZS([], 3), ZS([2])]]
        with pytest.raises(InsufficientTruncation):
            det_bareiss(rows)

    def test_exact_zero_column(self):
        rows = [[ZS([]), ZS([1])], [ZS([]), ZS([0, 1], 4)]]
        assert not det_bareiss(rows)

    def test_resultant_over_polynomials(self):
        # Res_y(y^2 - z, 2y) = 4 * (-z) over Q[z]
        z = UPoly([Fraction(0), Fraction(1)])
        f = UPoly([-z, UPoly(), UPoly.const(Fraction(1))])
        assert resultant_det(f, f.derivative()) == z * -4


# -- the integer kernels of resultant_det over Q, Q[z] and Z[[z]] ----------

_QC = st.fractions(min_value=-5, max_value=5, max_denominator=6)
_NONZERO = _QC.filter(bool)


def _q_poly(max_degree=3):
    """Nonzero, not necessarily monic; degree 0 included."""
    return st.lists(_QC, min_size=1, max_size=max_degree + 1).map(
        UPoly).filter(bool)


def _qz_poly(max_degree=2):
    return st.lists(st.lists(_QC, max_size=3).map(UPoly), min_size=1,
                    max_size=max_degree + 1).map(UPoly).filter(bool)


def _over_qz(p):
    """The same polynomial over Q(z), where the Euclidean reference runs."""
    return UPoly([RatFn(c) for c in p.coeffs])


class TestIntegerResultant:
    @settings(max_examples=80, deadline=None)
    @given(_q_poly(), _q_poly())
    def test_over_q_equals_references(self, f, g):
        res = resultant_det(f, g)
        assert isinstance(res, (int, Fraction))
        assert res == resultant(f, g)
        if f.degree and g.degree:
            assert res == det_cofactor(sylvester_matrix(f, g))

    @settings(max_examples=60, deadline=None)
    @given(_qz_poly(), _qz_poly())
    def test_over_qz_equals_references(self, f, g):
        res = resultant_det(f, g)
        assert RatFn(res) == resultant(_over_qz(f), _over_qz(g))
        if f.degree and g.degree:
            assert all(isinstance(c, (int, Fraction)) for c in res.coeffs)
            assert res == det_cofactor(sylvester_matrix(f, g))

    @settings(max_examples=40, deadline=None)
    @given(_q_poly(2).filter(lambda h: h.degree >= 1), _q_poly(2),
           _q_poly(2), _qz_poly(1).filter(lambda h: h.degree >= 1),
           _qz_poly(1), _qz_poly(1))
    def test_common_factor_gives_zero(self, h, a, b, hz, az, bz):
        assert resultant_det(h * a, h * b) == 0
        assert resultant_det(hz * az, hz * bz) == UPoly()

    @settings(max_examples=60, deadline=None)
    @given(_qz_poly(), _qz_poly(), _NONZERO, _NONZERO, st.integers(0, 2))
    def test_scaling_identity(self, f, g, c, d, s):
        # Res(c z^s f, d g) = c^deg g d^deg f z^(s deg g) Res(f, g)
        zs = UPoly([Fraction(0)] * s + [c])
        lhs = resultant_det(UPoly([a * zs for a in f.coeffs]),
                            UPoly([a * d for a in g.coeffs]))
        rhs = (resultant_det(f, g) * d ** f.degree
               * zs ** g.degree)
        assert lhs == rhs

    def test_inexact_integer_division_raises(self):
        zs = qpoly._ZSeries
        for num, den in [(7, 2),
                         (UPoly([1, 1]), UPoly([0, 2])),
                         # truncated by exact: z^0 + z^1 + O(z^4) over 2
                         (zs([1, 1], 4), zs([2])),
                         # exact by exact: (1 + z^2) / (1 + z)
                         (zs([1, 0, 1]), zs([1, 1])),
                         # a quotient term below z^0 within its precision
                         (zs([1, 1], 4), zs([0, 1]))]:
            with pytest.raises(InternalInconsistency):
                qpoly._exact_quotient(num, den)


def _integer_exponent_series():
    """Rational coefficients at integer exponents, exact or truncated; a
    truncated zero is allowed."""
    def build(args):
        v, coeffs, extra = args
        terms = {v + i: c for i, c in enumerate(coeffs)}
        return Series(terms, None if extra is None
                      else v + len(coeffs) + extra)
    return st.tuples(st.integers(-2, 2), st.lists(_QC, max_size=3),
                     st.one_of(st.none(), st.integers(-1, 3))).map(build)


def _series_poly(max_degree):
    """Series coefficients, mixed with a few rational constants."""
    coeff = st.one_of(_integer_exponent_series(), _integer_exponent_series(),
                      _QC)
    return st.lists(coeff, min_size=2, max_size=max_degree + 1).map(
        UPoly).filter(lambda p: p.degree >= 1 and any(
            isinstance(c, Series) for c in p.coeffs))


def _as_series(p):
    return p.map_coeffs(lambda c: c if isinstance(c, Series)
                        else Series.const(c))


def _lifted(*polys):
    """(the polynomials over series times z^s, s) for the least s that
    leaves no negative exponent in any of them."""
    s = -min((min(c.terms) for p in polys for c in p.coeffs if c.terms),
             default=0)
    return [p.map_coeffs(lambda c: c.shift(s)) for p in polys], s


def _moved(x, s):
    """z^s x for a series x; a plain number is the exact constant."""
    return (x if isinstance(x, Series) else Series.const(x)).shift(s)


def _cleared_pair(f, g):
    """f and g over series moved to one shift s and cleared to truncated
    Z[[z]] by integer_series, as a germ equation and its derivative are:
    (F, G, s, c) with F = c_f z^s f, G = c_g z^s g and
    c = c_f^deg g c_g^deg f, the scale of Res(F, G) over
    Res(z^s f, z^s g), each c read off the operands."""
    (fs, gs), s = _lifted(f, g)
    fz, gz = integer_series(fs), integer_series(gs)
    cf, cg = clearing_scale(fz, fs), clearing_scale(gz, gs)
    assert cf > 0 and cg > 0
    return fz, gz, s, cf ** g.degree * cg ** f.degree


class TestIntegerSeriesResultant:
    """Series resultants are eliminated over Z[[z]] only: on the operands
    cleared by integer_series, resultant_det certifies the terms and the
    precision that elimination on the rational Series rows certifies,
    scaled by c z^(s (deg f + deg g))."""

    @settings(max_examples=150, deadline=None)
    @given(_series_poly(3), _series_poly(3))
    def test_certifies_what_the_series_rows_certify(self, f, g):
        f, g = _as_series(f), _as_series(g)
        fz, gz, s, c = _cleared_pair(f, g)
        try:
            ref = series_det_bareiss(sylvester_matrix(f, g))
        except InsufficientTruncation:
            with pytest.raises(InsufficientTruncation):
                resultant_det(fz, gz)
            return
        res = resultant_det(fz, gz)
        assert integer_form(res) == \
            cleared_form(_moved(ref, s * (f.degree + g.degree)), c)

    @settings(max_examples=60, deadline=None)
    @given(_series_poly(3), _series_poly(2))
    def test_never_a_wrong_term(self, f, g):
        f, g = _as_series(f), _as_series(g)
        fz, gz, s, c = _cleared_pair(f, g)
        ref = cleared_form(_moved(det_cofactor(sylvester_matrix(f, g)),
                                  s * (f.degree + g.degree)), c)
        try:
            res = integer_form(resultant_det(fz, gz))
        except InsufficientTruncation:
            return
        common = ref[1] if res[1] is None else (
            res[1] if ref[1] is None else min(res[1], ref[1]))
        for e in range(max(len(res[0]), len(ref[0]))):
            if common is None or e < common:
                assert (res[0][e] if e < len(res[0]) else 0) == \
                    (ref[0][e] if e < len(ref[0]) else 0)

    def test_rational_series_raises(self):
        f = UPoly([Series({0: 1, 1: Fraction(1, 2)}, 3), Series.const(1),
                   Series.const(1)])
        with pytest.raises(InternalInconsistency):
            resultant_det(f, f.derivative())

    def test_fractional_exponent_raises(self):
        f = UPoly([Series({Fraction(1, 2): 1}, 3), Series.const(1),
                   Series.const(1)])
        with pytest.raises(InternalInconsistency):
            resultant_det(f, f.derivative())

    def test_irrational_tower_coefficient_raises(self):
        sqrt2 = FieldTower().adjoin(P(-2, 0, 1))
        f = UPoly([Series({0: sqrt2, 1: 1}, 3), Series.const(1),
                   Series.const(1)])
        with pytest.raises(InternalInconsistency):
            resultant_det(f, f.derivative())

    def test_tower_polynomials_keep_the_generic_path(self):
        # Res_y(y^2 - a, y - b) = b^2 - a over Q(sqrt 2), a = sqrt 2
        a = FieldTower().adjoin(P(-2, 0, 1))
        b = 1 + a
        f, g = UPoly([-a, 0, 1]), UPoly([-b, 1])
        assert qpoly._integer_sylvester(f, g) is None
        assert resultant_det(f, g) == b * b - a


class TestTruncatedZeroCoefficient:
    """A coefficient that vanishes only up to its precision is not an
    exact zero: the product keeps its precision bound."""

    def test_constant_and_sum_keep_the_bound(self):
        o3 = Series.zero(prec=3)
        assert [series_form(c) for c in UPoly.const(o3).coeffs] == [({}, 3)]
        p = UPoly([Series.const(1), Series.const(1)]) + o3
        assert [series_form(c) for c in p.coeffs] == \
            [({Fraction(0): 1}, 3), ({Fraction(0): 1}, None)]
        assert UPoly.const(Series.zero()).is_zero()

    def test_divmod_drops_tops_cancelled_to_precision(self):
        # (y^2 + O(z^2) y + 1) by (y + 1): the remainder's cancelled y
        # coefficient vanishes only up to its precision, O(z^2)
        one = Series.const(1)
        f = UPoly([one, Series.zero(prec=2), one])
        q, r = f.divmod(UPoly([one, one]))
        assert [series_form(c) for c in q.coeffs] == \
            [({Fraction(0): -1}, 2), ({Fraction(0): 1}, None)]
        assert r.degree == 0
        assert series_form(r.coeffs[0]) == ({Fraction(0): 2}, 2)

    def test_series_by_a_rational_divisor(self):
        one = Series.const(1)
        q, r = UPoly([one, one]).divmod(UPoly([1, 1]))
        assert [series_form(c) for c in q.coeffs] == [({Fraction(0): 1}, None)]
        assert r.is_zero()
        m = UPoly([Series.const(1, prec=2), 2]).monic()
        assert series_form(m.coeffs[0]) == ({Fraction(0): Fraction(1, 2)}, 2)
        assert m.coeffs[1] == 1

    def test_series(self):
        f = UPoly([Series.zero(prec=3), Series.const(1)])
        h = f * UPoly([Series.const(1), Series.const(1)])
        assert isinstance(h.coeffs[0], Series)
        assert series_form(h.coeffs[0]) == ({}, 3)
        assert series_form(h.coeffs[1]) == ({Fraction(0): 1}, 3)

    def test_integer_series(self):
        zs = qpoly._ZSeries
        h = UPoly([zs([], 3), zs([1])]) * UPoly([zs([1]), zs([1])])
        assert isinstance(h.coeffs[0], zs)
        assert (h.coeffs[0].c, h.coeffs[0].prec) == ([], 3)
        assert (h.coeffs[1].c, h.coeffs[1].prec) == ([1], 3)

    def test_exact_zero_still_skipped(self):
        h = UPoly([Series.zero(), Series.const(1)]) * UPoly(
            [Series.const(1), Series.const(1)])
        assert h.coeffs[0] == 0 and series_form(h.coeffs[1]) == (
            {Fraction(0): 1}, None)


def test_int_times_integer_series():
    # an int multiplies a truncated integer series from either side, so
    # that a polynomial over Z[[z]] has a derivative
    x = ZS([1, 1], 3)
    assert integer_form(2 * x) == integer_form(x * 2) == ([2, 2], 3)
    p = UPoly([ZS([0, 1]), ZS([3], 4), ZS([1])])
    assert [integer_form(c) for c in p.derivative().coeffs] == \
        [([3], 4), ([2], None)]


class TestIntegerSeries:
    @settings(max_examples=120, deadline=None)
    @given(_series_poly(3))
    def test_matches_the_series_terms(self, p):
        # c p over Z[[z]] for p moved to nonnegative exponents: the same
        # terms, scaled by one positive rational c, and the same precisions
        (p,), _ = _lifted(_as_series(p))
        got = integer_series(p)
        c = clearing_scale(got, p)
        assert c > 0
        assert [integer_form(x) for x in got.coeffs] == cleared_form(p, c)

    def test_refuses_other_rings(self):
        tower = FieldTower()
        a = tower.adjoin(P(-2, 0, 1))
        for p in (UPoly([Series.const(a), Series.const(1)]),
                  UPoly([Series.monomial(1, Fraction(1, 2)),
                         Series.const(1)]),
                  UPoly([Series.monomial(1, -1), Series.const(1)]),
                  P(1, 1)):
            with pytest.raises(InternalInconsistency):
                integer_series(p)


class TestRationalFactorization:
    def test_biquadratic(self):
        f = P(6, 0, -5, 0, 1)  # (x^2-2)(x^2-3)
        factors = sorted(factor_rational(f), key=lambda pk: pk[0].coeffs[0])
        assert [p.coeffs for p, _ in factors] == [(-3, 0, 1), (-2, 0, 1)]
        assert all(k == 1 for _, k in factors)

    def test_rational_roots(self):
        f = P(1, -5, 6)  # 6x^2 - 5x + 1
        factors = sorted(factor_rational(f), key=lambda pk: pk[0].coeffs)
        assert factors == [(P(Fraction(-1, 2), 1), 1),
                           (P(Fraction(-1, 3), 1), 1)]

    def test_multiplicity(self):
        f = (X - 1) ** 3 * (X + 2)
        factors = sorted(factor_rational(f), key=lambda pk: pk[0].coeffs)
        assert factors == [(P(-1, 1), 3), (P(2, 1), 1)]

    def test_linear_skips_sympy(self, monkeypatch):
        def no_kernel(f):
            raise AssertionError("linear input reached the kernel")
        monkeypatch.setattr(qpoly, "_zassenhaus", no_kernel)
        assert factor_rational(P(3, 2)) == [(P(Fraction(3, 2), 1), 1)]
        assert factor_rational(P(Fraction(-1, 3), Fraction(2, 3))) == \
            [(P(Fraction(-1, 2), 1), 1)]


def _sympy_factors(f):
    """factor_rational's answer as sympy's factor_list gives it."""
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed([Fraction(c) for c in f.coeffs])],
                      x, domain="QQ")
    return [(UPoly([Fraction(int(c.p), int(c.q))
                    for c in reversed(p.monic().all_coeffs())]), int(k))
            for p, k in poly.factor_list()[1]]


_RATIONAL = st.builds(
    Fraction,
    st.integers(-9, 9) | st.integers(-10 ** 40, 10 ** 40),
    st.integers(1, 9) | st.integers(1, 10 ** 35))
_NONZERO_RATIONAL = _RATIONAL.filter(bool)


@st.composite
def _quadratic(draw):
    """a x^2 + b x + c: with two rational roots, a double one, or free
    coefficients (mostly a non-square or negative discriminant); integer
    coefficients stay ints."""
    a = draw(_NONZERO_RATIONAL)
    kind = draw(st.sampled_from(["roots", "double", "free"]))
    if kind == "free":
        b, c = draw(_RATIONAL), draw(_RATIONAL)
    else:
        r = draw(_RATIONAL)
        s = r if kind == "double" else draw(_RATIONAL)
        b, c = -a * (r + s), a * r * s
    return UPoly([int(x) if x.denominator == 1 else x for x in (c, b, a)])


class TestQuadraticFactorization:
    @settings(max_examples=300, deadline=None)
    @given(_quadratic())
    @example(P(1, 0, 1))                       # negative discriminant
    @example(P(0, 0, 1))                       # x^2: zero discriminant
    @example(P(9, -12, 4))                     # (2x - 3)^2
    @example(P(1, -5, 6))                      # distinct rational roots
    @example(P(-2, 0, 1))                      # non-square discriminant
    @example(UPoly([0, -1, 1]))                # integer coefficients
    @example(P(Fraction(-10 ** 31 - 1, 3), Fraction(7, 2), 10 ** 31 + 3))
    def test_equals_sympy(self, f):
        expected = _sympy_factors(f)
        with mock.patch.object(qpoly, "_zassenhaus",
                               side_effect=AssertionError("kernel")):
            got = factor_rational(f)
        assert got == expected
        assert all(type(c) is Fraction for p, _ in got for c in p.coeffs)


# irreducible over Q: a cubic with no rational root
_IRREDUCIBLE_CUBICS = [P(-2, 0, 0, 1), P(1, 1, 0, 1), P(1, -3, 0, 1),
                       P(-9, 6, 0, 4)]


@st.composite
def _rational_root_product(draw):
    """(f, cubic): c times a product of rational linear factors q x - p
    (the root 0 included) with multiplicities, times at most one
    quadratic of :func:`_quadratic`, and, when cubic, times an
    irreducible cubic; f has degree 3 or more."""
    f = UPoly([draw(_NONZERO_RATIONAL)])
    for p, q, k in draw(st.lists(
            st.tuples(st.integers(-12, 12), st.integers(1, 6),
                      st.integers(1, 3)), max_size=4)):
        f = f * UPoly([-p, q]) ** k
    if draw(st.booleans()):
        f = f * draw(_quadratic())
    cubic = draw(st.booleans())
    if cubic:
        f = f * draw(st.sampled_from(_IRREDUCIBLE_CUBICS))
    assume(f.degree >= 3)
    return f, cubic


def _searchable(f):
    """Whether the rational-root search runs on f: |a_0 a_n| of its
    primitive integer form, the roots 0 split off, within the bound."""
    ints = qpoly._primitive_integers(f.coeffs)[0]
    ints = ints[next(i for i, a in enumerate(ints) if a):]
    return abs(ints[0] * ints[-1]) <= qpoly._ROOT_SEARCH_BOUND


def _kernel_parts(factors):
    """The squarefree parts the Zassenhaus kernel gets for these factors
    (monic, with multiplicities): for each multiplicity, in increasing
    order, the primitive integers of the product of the factors that
    have it."""
    parts = {}
    for p, k in factors:
        parts[k] = parts.get(k, UPoly([1])) * p
    return [qpoly._primitive_integers(parts[k].coeffs)[0]
            for k in sorted(parts)]


def _spying_kernel():
    """(sent, patch): the parts _zassenhaus is called with go to sent."""
    sent, kernel = [], qpoly._zassenhaus
    return sent, mock.patch.object(
        qpoly, "_zassenhaus", side_effect=lambda g: sent.append(g)
        or kernel(g))


class TestRationalRootSplit:
    @settings(max_examples=300, deadline=None)
    @given(_rational_root_product())
    @example((P(-6, 11, -6, 1), False))             # (x - 1)(x - 2)(x - 3)
    @example((P(0, -33, 125, -156, 64), False))  # x(x - 1)(4x - 3)(16x - 11)
    @example((P(3, -3, -5, 1), False))              # (x + 1)(x^2 - 6x + 3)
    @example((P(0, 0, 0, 4, -4, 1), False))         # x^3 (x - 2)^2
    @example((P(-1, 0, 0, 0, 0, 0, 1), False))      # x^6 - 1: two quadratics
    @example((P(-2, 0, 0, 1), True))                # x^3 - 2
    def test_equals_sympy(self, case):
        """The factors of sympy's factor_list, in its order and with the
        coefficient types of the sympy route.  The Zassenhaus kernel gets
        nothing when the rational roots leave a factor of degree 3 or
        less, which is irreducible, and else the squarefree parts of what
        they leave; when the search is out of bounds it gets those of f
        without its roots 0."""
        f, cubic = case
        expected = _sympy_factors(f)
        sympy_route = sympy_factor_rational(f)
        assert sympy_route == expected
        left = sum(p.degree * k for p, k in expected if p.degree > 1)
        assert left > 2 or not cubic
        sent, spy = _spying_kernel()
        with spy:
            got = factor_rational(f)
        assert got == expected
        assert repr(got) == repr(sympy_route)
        if _searchable(f):
            kernel = [(p, k) for p, k in expected if p.degree > 1] \
                if left > 3 else []
        else:
            kernel = [(p, k) for p, k in expected if p != X]
        assert sent == _kernel_parts(kernel)

    def test_large_coefficients_skip_the_search(self):
        """x^3 - 10000001 is past the search bound, so the kernel gets it
        whole and proves it irreducible."""
        f = P(-(10 ** 7 + 1), 0, 0, 1)
        sent, spy = _spying_kernel()
        with spy, mock.patch.object(qpoly, "_is_root",
                                    side_effect=AssertionError("searched")):
            assert factor_rational(f) == [(f, 1)]
        assert sent == [[-(10 ** 7 + 1), 0, 0, 1]]


# irreducible over Q, split modulo every prime into linear or quadratic
# factors (Swinnerton-Dyer's x^4 - 10 x^2 + 1, with roots +-sqrt 2 +- sqrt 3)
SWINNERTON_DYER = P(1, 0, -10, 0, 1)
# the degree-12 polynomial of the cross_check benchmark workload, a product
# of three quartics
CROSS_CHECK_12 = P(324951171875, -124072265625, 25136718750, -4394531250,
                   654296875, -98906250, 16421875, -2231250, 234375, -18750,
                   1100, -45, 1)


@st.composite
def _integer_product(draw):
    """c times a product of 1-4 polynomials of degree 1-4 with random
    integer coefficients (most of degree 2 or more are irreducible), each
    to a power 1-3; c and one factor may be rational, which makes f
    non-monic with rational coefficients; degree 3 or more."""
    f = UPoly([draw(_NONZERO_RATIONAL.filter(lambda c: c.denominator < 10
                                              ** 6))])
    for _ in range(draw(st.integers(1, 4))):
        d = draw(st.integers(1, 4))
        g = UPoly(draw(st.lists(st.integers(-30, 30), min_size=d,
                                max_size=d))
                  + [draw(st.integers(1, 12))])
        f = f * g ** draw(st.integers(1, 3))
    if draw(st.booleans()):
        f = f * UPoly([Fraction(draw(st.integers(-9, 9)),
                                draw(st.integers(1, 9))), 1, 1])
    assume(f.degree >= 3)
    return f


@st.composite
def _binomial(draw):
    """x^n + a^n or x^n - a^n for n <= 12 and 1 <= a <= 7, times a
    rational."""
    n, a = draw(st.integers(3, 12)), draw(st.integers(1, 7))
    sign = draw(st.sampled_from([1, -1]))
    c = draw(st.sampled_from([1, -1, 2, Fraction(1, 3)]))
    return UPoly([sign * a ** n] + [0] * (n - 1) + [1]) * c


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from([3, 5, 7, 2 ** 61 - 1]), data=st.data())
def test_remainder_only_reduction(p, data):
    """_mod_rem, which powmod, gcd and the distinct-degree split reduce
    through, gives the remainder of _mod_divmod."""
    a = data.draw(st.lists(st.integers(0, p - 1), max_size=12))
    b = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=6)
                  .filter(lambda c: c[-1]))
    assert qpoly._mod_rem(a, b, p) == qpoly._mod_divmod(a, b, p)[1]


class TestZassenhaus:
    """factor_rational from degree 3 on, against sympy's factor_list."""

    @staticmethod
    def _check(f):
        expected = sympy_factor_rational(f)
        got = factor_rational(f)
        assert got == expected
        assert repr(got) == repr(expected)

    @settings(max_examples=200, deadline=None)
    @given(_integer_product())
    @example(SWINNERTON_DYER)
    @example(SWINNERTON_DYER ** 2 * (X - 1))
    @example(CROSS_CHECK_12)
    @example(CROSS_CHECK_12 * P(Fraction(2, 3)))
    @example(P(-1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1))  # x^12 - 1
    def test_products(self, f):
        self._check(f)

    @settings(max_examples=150, deadline=None)
    @given(_binomial())
    def test_binomials(self, f):
        self._check(f)

    @pytest.mark.parametrize("f", [SWINNERTON_DYER, CROSS_CHECK_12])
    def test_kernel_gets_the_whole_polynomial(self, f):
        """Neither has a rational root, so the kernel factors each whole:
        the Swinnerton-Dyer quartic splits modulo every prime and yet is
        irreducible, the degree-12 polynomial gives its three quartics."""
        sent, spy = _spying_kernel()
        with spy:
            got = factor_rational(f)
        assert sent == [qpoly._primitive_integers(f.coeffs)[0]]
        assert [p.degree for p, _ in got] == \
            ([4] if f is SWINNERTON_DYER else [4, 4, 4])

    @pytest.mark.parametrize("f, lifted", [
        ([-1, -1, 0, 0, 1], False),        # x^4 - x - 1
        ([-2, 0, 0, 0, 0, 1], False),      # x^5 - 2
        ([1, 0, -10, 0, 1], True)])        # Swinnerton-Dyer
    def test_modular_degrees_prove_irreducible(self, f, lifted):
        """Modulo the primes tried, the factor degrees of x^4 - x - 1 and
        x^5 - 2 add up to no proper degree, so they are proved irreducible
        without a Hensel lift.  The Swinnerton-Dyer quartic splits into
        quadratics or linear factors modulo every prime, so only the
        recombination proves it."""
        calls, lift = [], qpoly._hensel_lift
        with mock.patch.object(qpoly, "_hensel_lift", side_effect=lambda
                               *a: calls.append(a) or lift(*a)):
            assert qpoly._zassenhaus(f) == [f]
        assert bool(calls) == lifted

    def test_primes_tried_while_factors_are_many(self):
        """(x - 1)(x - 2)...(x - 21) has 21 factors modulo every prime
        from 23 on, the first that divides no difference of its roots, so
        twenty primes are tried, and the lifts recombine to its roots."""
        f = UPoly([1])
        for i in range(1, 22):
            f = f * P(-i, 1)
        primes, ddf = [], qpoly._distinct_degree
        with mock.patch.object(qpoly, "_distinct_degree", side_effect=lambda
                               g, p: primes.append(p) or ddf(g, p)):
            got = qpoly._zassenhaus([int(c) for c in f.coeffs])
        assert primes == [p for p in range(23, 108)
                          if all(p % q for q in range(2, p))]
        assert sorted(got) == sorted([-i, 1] for i in range(1, 22))

    def test_recombines_modular_factors(self):
        """x^4 - 2(a + b) x^2 + (a - b)^2, with roots +-sqrt a +- sqrt b,
        splits modulo every prime, like the Swinnerton-Dyer quartic (a, b
        = 2, 3).  The product over (a, b) = (2, 3), (2, 5), (3, 5) has more
        modular factors than its three factors over Q, and the kernel
        recombines them."""
        f = UPoly([1])
        for a, b in ((2, 3), (2, 5), (3, 5)):
            f = f * P((a - b) ** 2, 0, -2 * (a + b), 0, 1)
        lifts, recombine = [], qpoly._recombine
        with mock.patch.object(qpoly, "_recombine", side_effect=lambda g, u,
                               *rest: lifts.append(len(u))
                               or recombine(g, u, *rest)):
            self._check(f)
        assert lifts and lifts[0] > 3
