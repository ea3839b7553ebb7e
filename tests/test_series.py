"""Truncated sparse series: precision bookkeeping and arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import geometric_inverse, series_divide
from specrig.errors import InsufficientTruncation, SpecrigError
from specrig.series import INF, Series


F = Fraction


class TestConstruction:
    def test_drops_zero_coeffs(self):
        s = Series({0: 1, 1: 0, 2: 3})
        assert s.terms == {F(0): 1, F(2): 3}

    def test_drops_terms_at_or_past_prec(self):
        s = Series({0: 1, 2: 5}, prec=2)
        assert s.terms == {F(0): 1}
        assert s.prec == 2

    def test_exact_zero(self):
        # falsy only when provably zero
        assert not Series.zero()
        assert not Series({0: 0, 1: 0})
        assert Series.zero(prec=3)
        assert Series.zero(prec=3).known_zero_to_prec()
        assert Series({5: 1}, prec=3)
        cancelled = Series({0: 1}, prec=2) - Series.const(1)
        assert cancelled and cancelled.prec == 2


class TestQueries:
    def test_valuation(self):
        assert Series({F(-3, 2): 1, 0: 2}).valuation() == F(-3, 2)

    def test_valuation_of_exact_zero_is_sentinel(self):
        assert Series.zero().valuation() == INF

    def test_valuation_hidden_by_prec_raises(self):
        with pytest.raises(InsufficientTruncation):
            Series.zero(prec=4).valuation()

    def test_coeff_beyond_prec_raises(self):
        s = Series({0: 1}, prec=3)
        assert s.coeff(2) == 0
        with pytest.raises(InsufficientTruncation):
            s.coeff(3)

    def test_leading(self):
        assert Series({2: 7, 3: 1}).leading() == 7
        with pytest.raises(SpecrigError):
            Series.zero().leading()


class TestArithmetic:
    def test_add_prec_is_min(self):
        a = Series({0: 1}, prec=3)
        b = Series({1: 2}, prec=5)
        c = a + b
        assert c.terms == {F(0): 1, F(1): 2}
        assert c.prec == 3

    def test_mul_prec_shifts_by_valuation(self):
        a = Series({0: 1, 1: 1}, prec=3)
        b = Series({2: 1})  # exact monomial
        assert (a * b).prec == 5
        assert (a * b).terms == {F(2): 1, F(3): 1}

    def test_mul_exact(self):
        a = Series({0: 1, 1: -1})
        assert (a * a).terms == {F(0): 1, F(1): -2, F(2): 1}
        assert (a * a).prec is None

    def test_shift_and_scale(self):
        s = Series({1: 2}, prec=4)
        assert s.shift(-3).terms == {F(-2): 2}
        assert s.shift(-3).prec == 1
        t = s.scale_exponents(F(1, 2))
        assert t.terms == {F(1, 2): 2}
        assert t.prec == 2

    def test_truncate_cannot_extend(self):
        s = Series({0: 1}, prec=2)
        assert s.truncate(1).prec == 1
        with pytest.raises(InsufficientTruncation):
            s.truncate(5)


class TestInverse:
    def test_geometric(self):
        s = Series({0: 1, 1: -1}, prec=6)  # 1 - z
        inv = s.inverse()
        assert inv.prec == 6
        assert all(inv.coeff(k) == 1 for k in range(6))

    def test_monomial_exact(self):
        s = Series.monomial(F(2), F(-3, 2))
        inv = s.inverse()
        assert inv.terms == {F(3, 2): F(1, 2)}
        assert inv.prec is None

    def test_exact_multiterm_needs_order(self):
        s = Series({0: 1, 1: 1})
        with pytest.raises(SpecrigError):
            s.inverse()
        inv = s.inverse(order=4)
        assert (s * inv - 1).known_zero_to_prec()

    def test_no_division(self):
        # a ring: a quotient is a product with an inverse
        with pytest.raises(TypeError):
            Series.const(F(1)) / Series.const(F(2))

    def test_division_roundtrip(self):
        s = Series({-1: F(3), 0: F(1), 2: F(-2)}, prec=5)
        q = series_divide(s, s)
        assert q.coeff(0) == 1
        assert all(q.coeff(k) == 0 for k in range(1, int(q.prec)))


class TestExactDivision:
    """The series division of tests/conftest.py, the reference that the
    elimination over Z[[z]] is compared against."""

    def test_monomial_divisor(self):
        q = series_divide(Series({1: F(2), 3: F(4)}),
                          Series.monomial(F(2), 1))
        assert q.terms == {F(0): 1, F(2): 2}
        assert q.prec is None

    def test_multiterm_divisor(self):
        d = Series({0: F(1), 1: F(1)})  # 1 + z
        f = Series({-1: F(1), 0: F(3), 2: F(-1)})
        assert series_divide(f * d, d) == f

    def test_fractional_exponents(self):
        d = Series({F(-1, 3): F(1), F(1, 3): F(2)})
        f = Series({F(1, 2): F(5), 1: F(-1)})
        assert series_divide(f * d, d) == f

    def test_inexact_quotient_raises(self):
        with pytest.raises(SpecrigError):
            series_divide(Series.const(F(1)), Series({0: F(1), 1: F(1)}))

    def test_truncated_dividend_keeps_relative_precision(self):
        d = Series({1: F(1), 2: F(-1)})  # z - z^2
        f = Series({2: F(3), 3: F(1)}, prec=7)
        q = series_divide(f, d)
        assert q.prec == 6
        assert (q * d - f).known_zero_to_prec()


class TestParts:
    def test_integer_part(self):
        s = Series({F(-3, 2): 1, -1: 2, F(1, 2): 5, 2: 3})
        assert s.integer_part().terms == {F(-1): 2, F(2): 3}

    def test_negative_and_nonpositive(self):
        s = Series({-2: 1, 0: 4, 1: 9}, prec=3)
        assert s.nonpositive_part().terms == {F(-2): 1, F(0): 4}
        assert s.nonpositive_part().prec is None

    def test_principal_part_needs_positive_prec(self):
        with pytest.raises(InsufficientTruncation):
            Series({-2: 1}, prec=-1).nonpositive_part()


# -- arithmetic against term-by-term references ------------------------------

_EXP = st.builds(F, st.integers(-6, 9), st.sampled_from([1, 2, 3]))
_VAL = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _series():
    """Exact or truncated, with zero coefficients and terms past the
    precision for the constructor to drop."""
    return st.builds(Series, st.dictionaries(_EXP, _VAL, max_size=5),
                     st.one_of(st.none(), _EXP))


def _minprec(a, b):
    precs = [p for p in (a.prec, b.prec) if p is not None]
    return min(precs) if precs else None


def _form(s):
    return s.terms, s.prec


class TestAgainstReferences:
    """Each operation equals the checking constructor on the raw term map
    it stands for; the inverse equals the geometric series."""

    @settings(max_examples=150, deadline=None)
    @given(_series(), _series())
    def test_add_sub(self, a, b):
        keys = set(a.terms) | set(b.terms)
        for sign, got in ((1, a + b), (-1, a - b)):
            raw = {e: a.terms.get(e, 0) + sign * b.terms.get(e, 0)
                   for e in keys}
            assert _form(got) == _form(Series(raw, _minprec(a, b)))

    @settings(max_examples=150, deadline=None)
    @given(_series(), _series())
    def test_mul(self, a, b):
        precs = []
        if a.prec is not None:
            precs.append(a.prec + b.low())
        if b.prec is not None:
            precs.append(b.prec + a.low())
        raw = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                raw[e1 + e2] = raw.get(e1 + e2, 0) + c1 * c2
        ref = Series(raw, min(precs) if precs else None)
        assert _form(a * b) == _form(ref)

    @settings(max_examples=100, deadline=None)
    @given(_series(), _VAL, _EXP)
    def test_scalar_and_shift(self, a, c, e):
        assert _form(a * c) == _form(a * Series.const(c))
        assert _form(c * a) == _form(a * Series.const(c))
        shifted = Series({k + e: x for k, x in a.terms.items()},
                             None if a.prec is None else a.prec + e)
        assert _form(a.shift(e)) == _form(shifted)

    @settings(max_examples=150, deadline=None)
    @given(_series(), st.integers(-2, 8))
    def test_inverse(self, a, order):
        assume(a.terms)
        if a.prec is None and len(a.terms) > 1:
            got, ref = a.inverse(order=order), geometric_inverse(a, order)
        else:
            got, ref = a.inverse(), geometric_inverse(a)
        assert _form(got) == _form(ref)
