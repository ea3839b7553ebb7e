"""Field-tower arithmetic, adjunction, and Trager factorization."""

from fractions import Fraction

import pytest

from specrig.errors import SpecrigError, UnsupportedExtension
from specrig.qpoly import UPoly
from specrig.tower import FieldTower


def P(*coeffs):
    return UPoly([Fraction(c) for c in coeffs])


@pytest.fixture
def sqrt2_tower():
    t = FieldTower()
    a = t.adjoin(P(-2, 0, 1))
    return t, a


class TestAdjoin:
    def test_generator_satisfies_minpoly(self, sqrt2_tower):
        t, a = sqrt2_tower
        assert a * a == 2
        assert t.height == 1

    def test_reducible_rejected(self):
        t = FieldTower()
        with pytest.raises(SpecrigError):
            t.adjoin(P(-1, 0, 1))

    def test_degree_bound(self):
        t = FieldTower()
        with pytest.raises(UnsupportedExtension):
            t.adjoin(P(-2, 0, 0, 0, 0, 1))

    def test_stacked_extension(self, sqrt2_tower):
        t, a = sqrt2_tower
        b = t.adjoin(P(-3, 0, 1))
        assert b * b == 3
        assert (a + b) * (a - b) == -1


class TestArithmetic:
    def test_inverse(self, sqrt2_tower):
        t, a = sqrt2_tower
        x = 1 + a
        assert x * x.inverse() == 1
        # 1/(1+sqrt2) = sqrt2 - 1
        assert x.inverse() == a - 1

    def test_division_and_power(self, sqrt2_tower):
        t, a = sqrt2_tower
        assert (a ** 3) / a == 2
        assert a ** -2 == Fraction(1, 2)

    def test_mixing_with_rationals(self, sqrt2_tower):
        t, a = sqrt2_tower
        assert a + Fraction(1, 2) - a == Fraction(1, 2)
        assert 3 * a == a + a + a

    def test_rational_element_equality(self, sqrt2_tower):
        t, a = sqrt2_tower
        half = t.lift(Fraction(1, 2), 1)
        assert half == Fraction(1, 2)
        assert hash(half) == hash(Fraction(1, 2))

    def test_zero_inverse_raises(self, sqrt2_tower):
        t, a = sqrt2_tower
        with pytest.raises(ZeroDivisionError):
            (a - a).inverse()


class TestFactor:
    def test_split_after_adjoin(self, sqrt2_tower):
        t, a = sqrt2_tower
        factors = t.factor(t.lift_poly(P(-2, 0, 1), 1))
        assert sorted(p.degree for p, _ in factors) == [1, 1]
        roots = sorted((-p.coeffs[0] for p, _ in factors), key=str)
        assert set(roots) == {a, -a}

    def test_irreducible_over_extension(self, sqrt2_tower):
        t, a = sqrt2_tower
        factors = t.factor(t.lift_poly(P(-3, 0, 1), 1))
        assert [p.degree for p, _ in factors] == [2]

    def test_multiplicities(self, sqrt2_tower):
        t, a = sqrt2_tower
        f = t.lift_poly((P(-2, 0, 1)) ** 2 * P(1, 1), 1)
        factors = t.factor(f)
        assert sorted((p.degree, k) for p, k in factors) == \
            [(1, 1), (1, 2), (1, 2)]


class TestSplitCompletely:
    def test_biquadratic(self):
        t = FieldTower()
        roots = t.split_completely(P(6, 0, -5, 0, 1))
        assert len(roots) == 4
        assert all(m == 1 for _, m in roots)
        squares = [r * r for r, _ in roots]
        assert sum(1 for s in squares if s == 2) == 2
        assert sum(1 for s in squares if s == 3) == 2

    def test_repeated_roots(self):
        t = FieldTower()
        f = (P(-2, 0, 1)) ** 2 * P(-1, 1)
        roots = t.split_completely(f)
        assert sum(m for _, m in roots) == 5
        assert (Fraction(1), 1) in [(r, m) for r, m in roots
                                    if isinstance(r, Fraction)]

    def test_rational_only_no_growth(self):
        t = FieldTower()
        roots = t.split_completely(P(2, -3, 1))
        assert t.height == 0
        assert sorted(roots) == [(1, 1), (2, 1)]
