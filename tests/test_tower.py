"""Field-tower arithmetic, adjunction, and Trager factorization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import poly_to_string, ref_elem, refactoring_split
from specrig import tower
from specrig.errors import SpecrigError, UnsupportedExtension
from specrig.qpoly import UPoly, factor_rational, squarefree_part
from specrig.tower import FieldTower, TowerElem


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
                                    if isinstance(r, (int, Fraction))]

    def test_rational_only_no_growth(self):
        t = FieldTower()
        roots = t.split_completely(P(2, -3, 1))
        assert t.height == 0
        assert sorted(roots) == [(1, 1), (2, 1)]


def _split_text(tower, roots):
    """Roots and multiplicities, with the tower they live in, as text:
    equal for two towers built by the same adjunctions.  Every root is
    written at the top level, so that its text does not depend on the
    level it was found at."""
    levels = [(name, repr(m)) for name, m in tower.levels]
    return levels, sorted((repr(tower.lift(r, tower.height)), k)
                          for r, k in roots)


RATIONAL_CASES = [
    P(-3, 1), P(1, 2),
    P(-2, 0, 1), P(1, 1, 1), P(6, -5, 1),
    P(-2, 0, 0, 1), P(-1, -1, 0, 1), P(1, -3, 0, 1), P(-1, 3, -3, 1),
    P(1, 0, -10, 0, 1), P(1, 0, 0, 0, 1), P(-2, 0, 0, 0, 1),
    P(6, 0, -5, 0, 1), P(-2, 2, -1, 1),
]

# coefficient lists over Q(sqrt 2), a standing for the generator
TOWER_CASES = [
    lambda a: [-a, 0, 1],
    lambda a: [1, a, 1],
    lambda a: [-3, 0, 1],
    lambda a: [2, -2 * a, 1],
    lambda a: [-a, 0, 0, 1],
    lambda a: [1 - a, 1, a, 1],
    lambda a: [-2 * a, 2, -a, 1],
]

REPEATED_CASES = [
    P(-2, 0, 1) ** 2 * P(-1, 1) ** 3,
    P(1, 1, 1) ** 2,
    P(-2, 0, 0, 1) * P(-2, 1) ** 2,
]


class TestSplitAgainstReference:
    """split_completely gives the roots, the multiplicities and the tower
    of the loop that re-factors every polynomial after each adjoin."""

    @pytest.mark.parametrize("f", RATIONAL_CASES + REPEATED_CASES,
                             ids=poly_to_string)
    def test_rational(self, f):
        new, ref = FieldTower(), FieldTower()
        roots = new.split_completely(f)
        assert sum(k for _, k in roots) == f.degree
        assert _split_text(new, roots) == \
            _split_text(ref, refactoring_split(ref, f))

    @pytest.mark.parametrize("case", range(len(TOWER_CASES)))
    @pytest.mark.parametrize("square", [False, True])
    def test_over_a_height_one_tower(self, case, square):
        towers = []
        for split in (FieldTower.split_completely, refactoring_split):
            t = FieldTower()
            a = t.adjoin(P(-2, 0, 1))
            f = UPoly([t.lift(c, 1) for c in TOWER_CASES[case](a)])
            if square:
                f = f * f
            roots = split(t, f)
            for r, _ in roots:
                value = 0
                for c in reversed(f.coeffs):
                    value = value * r + c
                assert value == 0
            towers.append(_split_text(t, roots))
        assert towers[0] == towers[1]

    def test_conjugate_quadratics_split_over_one_generator(self):
        """x^6 - 1 has the factors x^2 + x + 1 and x^2 - x + 1, which
        split over one common quadratic field.  The reference adjoins
        both at once and refuses the second as reducible (the defect
        that refused airy_rank6 under --check-reduction)."""
        f = P(-1, 0, 0, 0, 0, 0, 1)
        t = FieldTower()
        roots = t.split_completely(f)
        assert t.height == 1
        assert [k for _, k in roots] == [1] * 6
        assert all(r ** 6 == 1 for r, _ in roots)
        assert len({repr(r) for r, _ in roots}) == 6
        with pytest.raises(SpecrigError, match="irreducible"):
            refactoring_split(FieldTower(), f)

    def test_a_linear_input_is_not_made_squarefree(self, monkeypatch):
        t = FieldTower()
        a = t.adjoin(P(-2, 0, 1))

        def refuse(f):
            raise AssertionError("a linear input reached squarefree_part")

        monkeypatch.setattr(tower, "squarefree_part", refuse)
        assert t.split_completely(P(-3, 2)) == [(Fraction(3, 2), 1)]
        assert t.factor(P(4, 2)) == [(P(2, 1), 1)]
        linear = UPoly([-a, t.lift(3, 1)])
        assert t.split_completely(linear) == [(a / 3, 1)]
        assert t.height == 1

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.lists(st.integers(-5, 5), min_size=1,
                                       max_size=3), st.integers(1, 3)),
                    min_size=1, max_size=4))
    def test_rational_factors_in_squarefree_order(self, parts):
        """Over Q the factors come in the order of the squarefree part's
        factors, by degree and then coefficients whatever their
        multiplicities, which is the order in which split_completely
        adjoins roots; each multiplicity is the largest power that
        divides."""
        f = UPoly([1])
        for coeffs, k in parts:
            f = f * UPoly(coeffs + [1]) ** k
        irreducible = [p for p, _ in factor_rational(squarefree_part(f))]
        expected, rest = [], f
        for p in irreducible:
            k = 0
            while rest.divmod(p)[1].is_zero():
                rest, k = rest // p, k + 1
            expected.append((p, k))
        assert FieldTower().factor(f) == expected


def _sqrt2_sqrt3(t):
    t.adjoin(P(-2, 0, 1))
    t.adjoin(P(-3, 0, 1))


def _cbrt2_omega(t):
    """The splitting field of x^3 - 2: a cube root a, then a root of
    x^2 + a x + a^2."""
    a = t.adjoin(P(-2, 0, 0, 1))
    t.adjoin(UPoly([a * a, a, t.one(1)]))


def _height_three(t):
    _sqrt2_sqrt3(t)
    a, b = t.gen(1), t.gen(2)
    t.adjoin(UPoly([-(t.lift(a, 2) + b / 2), 0, t.one(2)]))


TOWERS = {
    "sqrt2": lambda t: t.adjoin(P(-2, 0, 1)),
    "cbrt2": lambda t: t.adjoin(P(-2, 0, 0, 1)),
    "quartic": lambda t: t.adjoin(UPoly([Fraction(5, 4), Fraction(-1, 2), 0,
                                          Fraction(2, 3), 1])),
    "sqrt2_sqrt3": _sqrt2_sqrt3,
    "cbrt2_omega": _cbrt2_omega,
    "height_three": _height_three,
}


def _tower(name):
    t = FieldTower()
    TOWERS[name](t)
    return t


_RATIONALS = st.one_of(st.integers(-4, 4),
                       st.fractions(-3, 3, max_denominator=4))


@st.composite
def _elements(draw, t, level):
    """A rational (level 0) or a reduced element of the level, built from
    its coordinates; sometimes a constant, so that it is a lower-level
    value in disguise."""
    if level == 0:
        return draw(_RATIONALS)
    d = t.minpoly(level).degree
    size = 1 if draw(st.integers(0, 3)) == 0 else d
    coords = [t.lift(draw(_elements(t, level - 1)), level - 1)
              for _ in range(size)]
    return TowerElem(t, level, coords)


def _same(kernel, reference):
    assert repr(kernel) == repr(reference)
    assert hash(kernel) == hash(reference)


class TestKernelAgainstReference:
    """The tuple kernel gives the text, hash and equality of the
    UPoly-based arithmetic it replaced (tests/conftest.py), on random
    elements of mixed levels and rational operands."""

    @pytest.mark.parametrize("name", sorted(TOWERS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_operations(self, name, data):
        t = _tower(name)
        la = data.draw(st.integers(1, t.height))
        lb = data.draw(st.integers(0, t.height))
        a = data.draw(_elements(t, la))
        b = data.draw(_elements(t, lb))
        ra, rb = ref_elem(a), ref_elem(b)
        _same(a, ra)
        _same(a + b, ra + rb)
        _same(b + a, rb + ra)
        _same(a - b, ra - rb)
        _same(b - a, rb - ra)
        _same(a * b, ra * rb)
        _same(b * a, rb * ra)
        assert (a == b) == (ra == rb)
        assert (b == a) == (rb == ra)
        assert a == a + 0 and a - a == 0
        n = data.draw(st.integers(-3 if a else 0, 4))
        _same(a ** n, ra ** n)
        if a:
            _same(a.inverse(), ra.inverse())
            _same(b / a, rb / ra)
        if b:
            _same(a / b, ra / rb)


def test_one_inverse_per_level_below(monkeypatch):
    """An inverse at height h takes at most one inverse at each level
    below it, and none of a rational through the tower."""
    t = _tower("height_three")
    a, b, c = (t.gen(k) for k in (1, 2, 3))
    x = 1 + a * b + c * (a - Fraction(1, 2)) + c * b
    calls = []
    inverse = TowerElem.inverse

    def counting(self):
        calls.append(self.level)
        return inverse(self)

    monkeypatch.setattr(TowerElem, "inverse", counting)
    y = x.inverse()
    assert sorted(calls) == [1, 2, 3]
    assert x * y == 1
