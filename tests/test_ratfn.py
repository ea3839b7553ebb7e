"""Rational functions: reduction, valuations, local expansions."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import diag_irreg, division_root_order, no_sympy
from specrig import pipeline, rigidity
from specrig.parsing import parse_problem
from specrig.qpoly import UPoly, poly_gcd
from specrig.ratfn import (INFINITY, Chart, RatFn, _root_order, expand_at,
                           ratfn_pole_points)


F = Fraction
Z = RatFn.var()


def rf(num, den=(1,)):
    return RatFn(UPoly([F(c) for c in num]), UPoly([F(c) for c in den]))


class TestReduction:
    def test_common_factor_cancels(self):
        f = rf([-1, 0, 1], [-1, 1])  # (z^2-1)/(z-1)
        assert f == Z + 1

    def test_monic_denominator(self):
        f = rf([1], [0, 2])  # 1/(2z)
        assert f.den.coeffs == (0, 1)
        assert f.num.coeffs == (F(1, 2),)

    def test_zero_normal_form(self):
        f = rf([0], [0, 1])
        assert f.is_zero() and f.den.degree == 0

    def test_eval(self):
        f = (Z + 1) / (Z - 1)
        assert f.eval(F(3)) == 2
        with pytest.raises(ZeroDivisionError):
            f.eval(F(1))


class TestValuation:
    def test_finite_points(self):
        f = Z ** 2 / (Z - 1)
        assert f.valuation(0) == 2
        assert f.valuation(1) == -1
        assert f.valuation(2) == 0

    def test_infinity(self):
        assert (1 / Z).valuation(INFINITY) == 1
        assert (Z ** 3).valuation(INFINITY) == -3
        assert RatFn.const(7).valuation(INFINITY) == 0

    def test_zero_function(self):
        assert RatFn.const(0).valuation(0) is None

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=6),
           st.lists(st.integers(-5, 5), min_size=1, max_size=4),
           st.integers(0, 4), st.integers(0, 4), st.integers(-3, 3))
    def test_order_at_zero_matches_shifted_point(self, num, den, i, j, b):
        """ord_0 f, read off the low zero coefficients, equals ord_b of
        f(z - b), found by dividing by z - b."""
        if not any(num) or not any(den) or b == 0:
            return
        f = rf([0] * i + num, [0] * j + den)
        assert f.valuation(0) == f.shifted(-b).valuation(b)

    def test_additive_under_product(self):
        rng = random.Random(3)
        pts = [F(0), F(1), F(-2), INFINITY]
        for _ in range(10):
            f = rf([rng.randint(-3, 3) for _ in range(3)] + [1],
                   [rng.randint(-3, 3), 1])
            g = rf([rng.randint(-3, 3) for _ in range(2)] + [1],
                   [rng.randint(-3, 3), 0, 1])
            for a in pts:
                vf, vg = f.valuation(a), g.valuation(a)
                if vf is None or vg is None:
                    continue
                assert (f * g).valuation(a) == vf + vg

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.integers(-3, 3), st.sampled_from([F(1, 2), F(-3, 2)]),
                     st.fractions(-3, 3, max_denominator=4)),
           st.lists(st.one_of(st.integers(-5, 5),
                              st.fractions(-5, 5, max_denominator=4)),
                    max_size=5),
           st.integers(0, 6))
    @example(F(1, 2), [], 3)  # the zero polynomial
    @example(F(-3, 2), [7], 0)  # a constant
    @example(2, [F(1, 3), 1], 6)
    def test_root_order_matches_division(self, a, g, k):
        """The order of a as a root of (z - a)^k g, read off one Horner
        pass per division, equals the evaluate-then-divide reference."""
        p = UPoly([-a, 1]) ** k * UPoly(g)
        assert _root_order(p, a) == division_root_order(p, a)


def _reference_normal(num, den):
    """Full normalization: divide out the monic gcd, make den monic."""
    if num.is_zero():
        return (), (F(1),)
    g = poly_gcd(num, den)
    num, den = num // g, den // g
    lead = den.lc()
    return (num * (1 / lead)).coeffs, (den * (1 / lead)).coeffs


_COEFF = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _poly(draw, max_degree=3):
    return UPoly(draw(st.lists(_COEFF, max_size=max_degree + 1)))


@st.composite
def _num_den(draw):
    """num, den with a shared factor, a constant or a monic den."""
    num = draw(_poly())
    den = draw(_poly().filter(lambda p: not p.is_zero()))
    kind = draw(st.sampled_from(["common", "constant", "monic", "plain"]))
    if kind == "common":
        g = draw(_poly(2).filter(lambda p: not p.is_zero()))
        num, den = num * g, den * g
    elif kind == "constant":
        den = UPoly([den.lc()])
    elif kind == "monic":
        den = den.monic()
    return num, den


@st.composite
def _ratfn(draw):
    num, den = draw(_num_den())
    return RatFn(num, den)


class TestCanonicalForm:
    """The constructor's fast paths and the coprime constructor give the
    same (num, den) as a full gcd normalization."""

    @settings(max_examples=100, deadline=None)
    @given(_num_den())
    def test_constructor(self, pair):
        num, den = pair
        f = RatFn(num, den)
        assert (f.num.coeffs, f.den.coeffs) == _reference_normal(num, den)

    @settings(max_examples=50, deadline=None)
    @given(_ratfn(), _ratfn(), st.integers(-3, 3))
    def test_arithmetic(self, f, g, k):
        cases = [(f + g, f.num * g.den + g.num * f.den, f.den * g.den),
                 (f * g, f.num * g.num, f.den * g.den),
                 (-f, -f.num, f.den)]
        if g:
            cases.append((f / g, f.num * g.den, f.den * g.num))
        if f or k >= 0:
            num, den = (f.num, f.den) if k >= 0 else (f.den, f.num)
            cases.append((f ** k, num ** abs(k), den ** abs(k)))
        for h, num, den in cases:
            assert (h.num.coeffs, h.den.coeffs) == \
                _reference_normal(num, den)

    @settings(max_examples=50, deadline=None)
    @given(_ratfn(), _COEFF)
    def test_chart_changes(self, f, a):
        for h in (f.at_infinity(), f.shifted(a)):
            assert (h.num.coeffs, h.den.coeffs) == \
                _reference_normal(h.num, h.den)
        assert f.at_infinity().at_infinity() == f
        assert f.shifted(a).shifted(-a) == f
        if f.den.eval(a):
            assert f.shifted(a).eval(0) == f.eval(a)


class TestExpansion:
    def test_geometric(self):
        f = 1 / (1 - Z)
        s = expand_at(f, 0, 5)
        assert all(s.coeff(k) == 1 for k in range(5))
        assert s.prec == 5

    def test_polynomial_is_exact(self):
        s = expand_at(Z ** 2 + 3, 0, 6)
        assert s.prec is None
        assert s.terms == {F(0): 3, F(2): 1}

    def test_laurent_tail(self):
        s = expand_at(1 / Z ** 2, 0, 4)
        assert s.valuation() == -2
        assert s.terms == {F(-2): 1}

    def test_shifted_point(self):
        # 1/z around z = 1: alternating signs in w = z - 1
        s = expand_at(1 / Z, 1, 4)
        assert [s.coeff(k) for k in range(4)] == [1, -1, 1, -1]

    def test_infinity_chart(self):
        s = expand_at(Z, INFINITY, 3)
        assert s.terms == {F(-1): 1}
        assert s.prec is None
        t = expand_at(1 / (Z - 1), INFINITY, 4)
        assert t.valuation() == 1
        assert t.coeff(2) == 1  # 1/(z-1) = w/(1-w) = w + w^2 + ...

    def test_laurent_polynomial_past_nterms_is_exact(self):
        s = expand_at(Z ** 10 + 1, 0, 3)
        assert s.prec is None
        assert s.terms == {F(0): 1, F(10): 1}
        t = expand_at(1 / Z ** 7 + Z ** 5, 0, 2)
        assert t.prec is None
        assert t.terms == {F(-7): 1, F(5): 1}

    def test_laurent_polynomial_in_the_local_coordinate_is_exact(self):
        s = expand_at(Z ** 4 / (Z - 1) ** 3, 1, 1)  # (w + 1)^4 / w^3
        assert s.prec is None
        assert s.terms == {F(-3): 1, F(-2): 4, F(-1): 6, F(0): 4, F(1): 1}
        t = expand_at((Z ** 9 + 2) / Z ** 2, INFINITY, 1)  # w^-7 + 2 w^2
        assert t.prec is None
        assert t.terms == {F(-7): 1, F(2): 2}

    def test_true_series_keeps_its_precision(self):
        for f, v in ((1 / (1 - Z), 0), (Z ** 3 / (1 - Z), 3),
                     (1 / (Z ** 2 * (1 - Z)), -2)):
            for nterms in (1, 2, 7):
                s = expand_at(f, 0, nterms)
                assert s.valuation() == v
                assert s.prec == v + nterms
                assert len(s.terms) == nterms

    @pytest.mark.parametrize("f, a, laurent", [
        (Z ** 3 + 1 / Z, 0, True), (Z ** 3 + 1 / Z, 1, False),
        (Z ** 3 + 2, 1, True),
        (1 / (Z - 1) ** 2, 1, True), (1 / (Z - 1) ** 2, 0, False),
        (1 / (Z - 1), INFINITY, False), (Z ** 5 + 1 / Z ** 2, INFINITY, True),
        (1 / (Z * (Z - 1)), 0, False)])
    def test_is_laurent_at(self, f, a, laurent):
        assert Chart(a).is_laurent(f) is laurent
        assert (expand_at(f, a, 2).prec is None) is laurent

    def test_inverse_pairs_to_one(self):
        rng = random.Random(9)
        for _ in range(8):
            f = rf([rng.randint(1, 4) for _ in range(3)],
                   [rng.randint(1, 3), rng.randint(-2, 2), 1])
            s = expand_at(f, 0, 8)
            t = expand_at(1 / f, 0, 8)
            prod = s * t - 1
            assert prod.known_zero_to_prec()


class TestChart:
    def test_jacobian(self):
        assert (Chart(INFINITY).sign, Chart(INFINITY).order) == (-1, -2)
        assert (Chart(F(1, 2)).sign, Chart(F(1, 2)).order) == (1, 0)

    @pytest.mark.parametrize("weight", [0, 1, 2, 3])
    def test_weighted_expansion_at_infinity(self, weight):
        # z (dz/dt)^w = (-1)^w t^(-1 - 2w)
        s = Chart(INFINITY).expand(Z, 4, weight)
        assert s.terms == {F(-1 - 2 * weight): (-1) ** weight}
        assert Chart(INFINITY).valuation(Z, weight) == -1 - 2 * weight

    def test_weight_is_trivial_at_a_rational_point(self):
        f = 1 / (Z - 1) ** 2 + Z
        for weight in (0, 1, 5):
            assert Chart(1).expand(f, 3, weight).terms == \
                expand_at(f, 1, 3).terms
            assert Chart(1).valuation(f, weight) == -2

    @pytest.mark.parametrize("a", [0, F(-2, 3), 5, INFINITY])
    def test_root_in_z_inverts_the_chart(self, a):
        """A Laurent polynomial y in the local coordinate, read as the
        root Y = y dz/dt, maps back to y."""
        u = Z if a == INFINITY else Z - a  # 1/t or t
        chart = Chart(a)
        for y in (3 * u ** 2 - u + F(1, 2), 1 / u ** 3 + 7, RatFn.const(0)):
            Y = chart.expand(y, 1, 1)
            assert Y.prec is None
            num, den = chart.root_in_z({int(e): v
                                        for e, v in Y.terms.items()})
            assert RatFn(num, den) == y


class TestPolePoints:
    def test_rational_poles(self):
        f = 1 / ((Z - 1) * (Z + 2) ** 2)
        pts, irr = ratfn_pole_points(f)
        assert sorted(pts) == [(-2, 2), (1, 1)]
        assert irr == []

    def test_irrational_poles_reported(self):
        pts, irr = ratfn_pole_points(1 / (Z ** 2 + 1))
        assert pts == []
        assert len(irr) == 1 and irr[0][0].degree == 2


def test_exact_expansion_decides_a_reducible_curve_at_order_one(
        monkeypatch):
    """diag_irreg_rank3's charpoly coefficients are Laurent polynomials at
    0 and infinity: one analysis per pole at one order gives exact
    rational roots, which prove the curve reducible without sympy."""
    built = []
    build = pipeline.build_local

    def spy(a_mat, a, nterms, cp, disc):
        built.append((a, nterms))
        return build(a_mat, a, nterms, cp, disc)

    monkeypatch.setattr(pipeline, "build_local", spy)
    monkeypatch.setattr(rigidity, "_bipoly_to_sympy", no_sympy)
    doc, code = pipeline.run_analysis(parse_problem(diag_irreg(3)),
                                      truncation=1)
    assert code == 0
    assert doc["global"]["irreducibility"] == "reducible"
    assert built == [(0, 1), (INFINITY, 1)]
