"""Connection matrices: characteristic polynomial and localization."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (EXAMPLE_TEXTS, airy, conjugate_by, dense_fuchs,
                      diag_irreg, gen_airy, local_at, mat)
from specrig.errors import InputError, SpecrigError, UnsupportedPoleLocation
from specrig.matrf import (CharpolyDiscriminant, MatRF, charpoly,
                           default_truncation, localize,
                           localize_charpoly, pole_order, validate_poles)
from specrig.parsing import parse_problem
from specrig.puiseux import discriminant_valuation
from specrig.qpoly import UPoly, det_cofactor, resultant
from specrig.ratfn import INFINITY, Chart, RatFn


F = Fraction


def _charpoly_over_qz(m):
    """Reference: det(yI - M) by cofactor expansion over Q(z)[y]."""
    n = m.n
    y = UPoly([RatFn.const(0), RatFn.const(1)])
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            cell = UPoly([-m.entries[i][j]])
            if i == j:
                cell = cell + y
            row.append(cell)
        rows.append(row)
    det = det_cofactor(rows)
    return UPoly([c if isinstance(c, RatFn) else RatFn.const(c)
                  for c in det.coeffs])


_Z = RatFn.var()
# pole parts at 0, 1 and inf, and a constant term
_BASIS = [RatFn.const(1), 1 / _Z, 1 / _Z ** 2, 1 / (_Z - 1), _Z, _Z ** 2]


@st.composite
def _entry(draw):
    kind = draw(st.sampled_from(["zero", "constant", "mixed"]))
    if kind == "zero":
        return RatFn.const(0)
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    if kind == "constant":
        return RatFn.const(draw(coeff))
    f = RatFn.const(0)
    for b in _BASIS:
        if draw(st.booleans()):
            f = f + draw(coeff) * b
    return f


@st.composite
def _matrix(draw):
    n = draw(st.integers(1, 4))
    return MatRF([[draw(_entry()) for _ in range(n)] for _ in range(n)])


@st.composite
def _unimodular(draw, n):
    """A permutation matrix times a few integer row additions."""
    perm = draw(st.permutations(range(n)))
    p = [[F(int(perm[i] == j)) for j in range(n)] for i in range(n)]
    if n > 1:
        for _ in range(draw(st.integers(1, 3))):
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2,
                                 max_size=2, unique=True))
            c = draw(st.integers(-2, 2))
            p[i] = [x + c * y for x, y in zip(p[i], p[j])]
    return p


class TestCharpoly:
    def test_airy(self):
        cp = charpoly(mat([["0", "1"], ["z", "0"]]))
        assert cp.degree == 2
        assert cp.coeffs[2] == RatFn.const(1)
        assert cp.coeffs[1].is_zero()
        assert cp.coeffs[0] == -RatFn.var()

    def test_diagonal(self):
        cp = charpoly(mat([["1/z", "0"], ["0", "2"]]))
        # (y - 1/z)(y - 2)
        assert cp.coeffs[0] == RatFn.const(2) / RatFn.var()
        assert cp.coeffs[1] == -(RatFn.const(2) + 1 / RatFn.var())

    def test_similarity_invariance(self):
        rng = random.Random(5)
        a = mat([["0", "1", "z"], ["1/z", "0", "0"], ["0", "z^2", "1"]])
        base = charpoly(a)
        for _ in range(5):
            while True:
                p = [[F(rng.randint(-3, 3)) for _ in range(3)]
                     for _ in range(3)]
                try:
                    b = conjugate_by(a, p)
                    break
                except InputError:
                    continue
            assert charpoly(b).coeffs == base.coeffs

    def test_conjugation_requires_invertible(self):
        a = mat([["z"]])
        with pytest.raises(InputError):
            conjugate_by(a, [[0]])
        b = mat([["z", "1"], ["0", "1/z"]])
        with pytest.raises(InputError,
                           match="^conjugating matrix is singular$"):
            conjugate_by(b, [[1, 2], [2, 4]])

    @settings(max_examples=60, deadline=None)
    @given(_matrix())
    def test_equals_expansion_over_qz(self, a):
        cp = charpoly(a)
        assert [(c.num, c.den) for c in cp.coeffs] == \
            [(c.num, c.den) for c in _charpoly_over_qz(a).coeffs]

    @settings(max_examples=40, deadline=None)
    @given(_matrix(), st.data())
    def test_unimodular_similarity(self, a, data):
        p = data.draw(_unimodular(a.n))
        assert charpoly(conjugate_by(a, p)) == charpoly(a)



class TestLocalData:
    def test_form_valuation_at_infinity(self):
        at_inf = Chart(INFINITY)
        assert at_inf.valuation(RatFn.const(1), 1) == -2
        z = RatFn.var()
        assert at_inf.valuation(1 / z ** 2, 1) == 0
        assert at_inf.valuation(z, 1) == -3
        assert at_inf.valuation(RatFn.const(0), 1) is None

    def test_pole_order_airy(self):
        a = mat([["0", "1"], ["z", "0"]])
        assert pole_order(a, INFINITY) == 3

    def test_pole_order_finite(self):
        a = mat([["1/z^2"]])
        assert pole_order(a, F(0)) == 2
        assert pole_order(a, F(1)) == 0

    def test_localize_infinity_jacobian(self):
        a = mat([["0", "1"], ["z", "0"]])
        g = localize(a, INFINITY, 8)
        assert g[0][1].terms == {F(-2): -1}
        assert g[1][0].terms == {F(-3): -1}
        assert g[0][0].known_zero_to_prec()

    def test_localize_finite(self):
        a = mat([["1/z^2"]])
        g = localize(a, F(0), 6)
        assert g[0][0].terms == {F(-2): 1}

    def test_localize_charpoly_airy(self):
        cp = charpoly(mat([["0", "1"], ["z", "0"]]))
        coeffs = localize_charpoly(cp, INFINITY, 8)
        # y^2 - z becomes y^2 - w^{-5} after the chart twist
        assert coeffs[2].terms == {F(0): 1}
        assert coeffs[1].known_zero_to_prec()
        assert coeffs[0].terms == {F(-5): -1}

    def test_localize_charpoly_finite(self):
        cp = charpoly(mat([["1/z", "0"], ["0", "2"]]))
        coeffs = localize_charpoly(cp, F(0), 6)
        assert coeffs[0].terms == {F(-1): 2}
        assert coeffs[1].terms == {F(-1): -1, F(0): -2}


class TestValidatePoles:
    def test_undeclared_pole_raises(self):
        a = mat([["1/z"]])
        with pytest.raises(InputError):
            validate_poles(a, [INFINITY])

    def test_undeclared_infinity_raises(self):
        a = mat([["z"]])
        with pytest.raises(InputError):
            validate_poles(a, [])

    def test_irrational_pole_unsupported(self):
        a = mat([["1/(z^2 - 2)"]])
        with pytest.raises(UnsupportedPoleLocation):
            validate_poles(a, [F(0)])

    def test_spurious_declared_warns(self):
        a = mat([["1/z^2"]])
        warnings = validate_poles(a, [F(0), F(1)])
        assert len(warnings) == 1 and "z = 1" in warnings[0]

    def test_clean(self):
        a = mat([["0", "1"], ["z", "0"]])
        assert validate_poles(a, [INFINITY]) == []


def test_default_truncation_floor():
    assert default_truncation(2, 3) == 2 * (6 + 4 + 4)
    assert default_truncation(1, 0) >= 8


# -- the global discriminant, read at each pole ------------------------------

GLOBAL_DISC_CASES = (
    EXAMPLE_TEXTS
    | {f"diag_irreg_rank{n}": diag_irreg(n) for n in range(2, 5)}
    | {"dense_fuchs_rank2": dense_fuchs(2)}
    | {f"airy_rank{n}": airy(n) for n in range(2, 7)}
    | {f"gen_airy_k{k}": gen_airy(k) for k in range(1, 6)})


class TestCharpolyDiscriminant:
    def test_airy_chart_at_infinity(self):
        # cp = y^2 - z: Res_y = -4z; the local charpoly y^2 - w^-5 at
        # infinity has discriminant 4 w^-5
        disc = CharpolyDiscriminant(charpoly(mat([["0", "1"], ["z", "0"]])))
        assert disc.res == UPoly([F(0), F(-4)])
        assert disc.valuation(INFINITY) == -5
        assert disc.valuation(F(0)) == 1

    def test_not_squarefree_refused(self):
        disc = CharpolyDiscriminant(charpoly(mat([["1/z", "0"],
                                                  ["0", "1/z"]])))
        with pytest.raises(SpecrigError):
            disc.valuation(F(0))

    @pytest.mark.parametrize("name", sorted(GLOBAL_DISC_CASES))
    def test_matches_local_sylvester_valuation(self, name):
        spec = parse_problem(GLOBAL_DISC_CASES[name])
        cp = charpoly(spec.matrix)
        disc = CharpolyDiscriminant(cp)
        for pole in spec.poles:
            local = local_at(spec.matrix, pole)
            assert local.vdisc == disc.valuation(pole)
            assert disc.valuation(pole) == \
                discriminant_valuation(local.local_charpoly)


# -- the integer discriminant against its rational references ----------------

REFERENCE_DISC_CASES = (
    {f"diag_irreg_rank{n}": diag_irreg(n) for n in range(2, 7)}
    | {f"dense_fuchs_rank{n}": dense_fuchs(n) for n in (2, 3)}
    # a discriminant root of order 3 at the non-integer point 2/3
    | {"root_at_two_thirds":
       "poles 0, inf\nmatrix\n0, 1\n(3*z - 2)^3/z, 0\nend\n"})

# non-poles of every case above, integer and not
NON_POLES = [F(2), F(-3), F(1, 2), F(2, 3), F(-5, 7)]


def _euclidean_res(f):
    """Res_y(F, F_y) by the Euclidean recurrence over Q(z)."""
    lifted = UPoly([RatFn(c) for c in f.coeffs])
    return resultant(lifted, lifted.derivative())


class TestIntegerDiscriminant:
    @pytest.mark.parametrize("name", sorted(REFERENCE_DISC_CASES))
    def test_res_equals_euclidean_reference(self, name):
        spec = parse_problem(REFERENCE_DISC_CASES[name])
        disc = CharpolyDiscriminant(charpoly(spec.matrix))
        assert RatFn(disc.res) == _euclidean_res(disc.cleared)

    @pytest.mark.parametrize("name", sorted(REFERENCE_DISC_CASES))
    def test_valuation_equals_rational_references(self, name):
        spec = parse_problem(REFERENCE_DISC_CASES[name])
        cp = charpoly(spec.matrix)
        disc = CharpolyDiscriminant(cp)
        n = cp.degree
        points = list(spec.poles) + NON_POLES
        for a in points + ([] if INFINITY in points else [INFINITY]):
            v = disc.valuation(a)
            ratfn = (RatFn(disc.res).valuation(a)
                     - (2 * n - 1) * RatFn(disc.den).valuation(a))
            assert v == (ratfn - 2 * n * (n - 1) if a == INFINITY
                         else ratfn)
            # a dozen terms certify the small orders at non-poles
            nterms = (default_truncation(n, pole_order(spec.matrix, a))
                      if a in spec.poles else 12)
            assert v == discriminant_valuation(
                UPoly(localize_charpoly(cp, a, nterms)))

    def test_non_integer_root(self):
        spec = parse_problem(REFERENCE_DISC_CASES["root_at_two_thirds"])
        disc = CharpolyDiscriminant(charpoly(spec.matrix))
        assert disc.valuation(F(2, 3)) == 3
        assert disc.valuation(F(1, 3)) == 0
