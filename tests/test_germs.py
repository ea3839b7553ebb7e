"""Plane-curve germs at infinity: Milnor numbers two ways, delta."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (EXAMPLE_TEXTS, airy, cleared_form, clearing_scale,
                      dense_fuchs, diag_irreg, fraction_series_product,
                      fuchs, full_product_milnor_oracle, gen_airy,
                      integer_form, irreg, local_at, mat, problem_text,
                      series_det_bareiss)
from specrig import germs, qpoly
from specrig.errors import InsufficientTruncation, SpecrigError
from specrig.germs import (GermData, branch_intersection, branch_milnor,
                           delta_identity_holds, germ_equation,
                           germ_milnor_oracle, unbounded_branches)
from specrig.localmod import build_local, check_assumption
from specrig.matrf import (CharpolyDiscriminant, charpoly, default_truncation,
                           pole_order)
from specrig.parsing import parse_problem
from specrig.qpoly import UPoly, resultant_det, sylvester_matrix
from specrig.series import Series
from specrig.ratfn import INFINITY
from specrig.tower import TowerElem


F = Fraction


@pytest.fixture
def airy_germ():
    local = local_at(mat([["0", "1"], ["z", "0"]]), INFINITY)
    check_assumption(local)
    return GermData(local)


@pytest.fixture
def sibling_germ():
    a = mat([["0", "1", "0", "0"],
             ["0", "0", "1", "0"],
             ["0", "0", "0", "1"],
             ["-4/z^6", "0", "5/z^3", "0"]])
    local = local_at(a, F(0))
    check_assumption(local)
    return GermData(local)


class TestAiry:
    def test_branch_data(self, airy_germ):
        assert airy_germ.r_c == 1
        assert airy_germ.local_inf == 5

    def test_milnor_both_routes(self, airy_germ):
        # one (2,5)-cusp: mu = (2-1)(5-1) = 4
        assert airy_germ.mu == 4
        assert airy_germ.mu_oracle_value == 4
        assert airy_germ.delta == 2

    def test_delta_identity(self, airy_germ):
        assert delta_identity_holds(airy_germ)

    def test_single_branch_milnor(self, airy_germ):
        assert branch_milnor(airy_germ, 0) == 4
        with pytest.raises(SpecrigError):
            branch_intersection(airy_germ, 0, 0)

    def test_germ_equation_is_cusp(self, airy_germ):
        [f] = germ_equation(airy_germ)
        # zeta^2 - z^5 (the minimal polynomial of the conjugate orbit),
        # primitive over Z[[z]]: c = 1
        assert f.degree == 2
        assert f.coeffs[2].c == [1]
        assert f.coeffs[0].c[:6] == [0, 0, 0, 0, 0, -1]
        assert f.coeffs[0].prec is None or f.coeffs[0].prec > 5
        assert not f.coeffs[1]


class TestTwoCusps:
    """Two (2,3)-cusp branches with pairwise intersection 6."""

    def test_branch_data(self, sibling_germ):
        assert sibling_germ.r_c == 2
        assert sibling_germ.local_inf == 6

    def test_branch_milnor(self, sibling_germ):
        assert branch_milnor(sibling_germ, 0) == 2
        assert branch_milnor(sibling_germ, 1) == 2

    def test_branch_intersection(self, sibling_germ):
        assert branch_intersection(sibling_germ, 0, 1) == 6

    def test_total_milnor(self, sibling_germ):
        # mu = mu_1 + mu_2 + 2(C_1, C_2) - r + 1 = 2 + 2 + 12 - 1 = 15
        assert sibling_germ.mu == 15
        assert sibling_germ.mu_oracle_value == 15
        assert sibling_germ.delta == 8

    def test_delta_identity(self, sibling_germ):
        assert delta_identity_holds(sibling_germ)


class TestDegenerateCases:
    def test_regular_pole_smooth_branch(self):
        local = local_at(mat([["5/z"]]), F(0))
        check_assumption(local)
        g = GermData(local)
        assert (g.r_c, g.local_inf, g.mu, g.delta) == (1, 1, 0, 0)
        assert delta_identity_holds(g)

    def test_irregular_rank1_smooth_branch(self):
        local = local_at(mat([["1/z^2"]]), F(0))
        check_assumption(local)
        g = GermData(local)
        assert (g.r_c, g.local_inf, g.mu, g.delta) == (1, 2, 0, 0)

    def test_no_unbounded_branches(self):
        # z = 1 is not a pole of the Airy system: no branch escapes
        local = local_at(mat([["0", "1"], ["z", "0"]]), F(1))
        check_assumption(local)
        assert unbounded_branches(local) == []
        g = GermData(local)
        assert (g.r_c, g.local_inf, g.mu, g.delta) == (0, 0, 0, 0)
        assert germ_milnor_oracle(g) == 0

    def test_fuchsian_node(self):
        local = local_at(mat([["(1/2)/z", "0"], ["0", "(1/3)/z"]]), F(0))
        check_assumption(local)
        g = GermData(local)
        # two smooth branches meeting transversally: mu = 1
        assert g.r_c == 2
        assert g.mu == 1
        assert g.mu_oracle_value == 1
        assert g.delta == 1
        assert delta_identity_holds(g)


# -- the oracle's Sylvester determinants over Z[[z]] -------------------------

SYLVESTER_CASES = (
    {f"diag_irreg_rank{n}": diag_irreg(n) for n in range(2, 6)}
    | {f"dense_fuchs_rank{n}": dense_fuchs(n) for n in (2, 3)}
    | {f"airy_rank{n}": airy(n) for n in range(2, 8)}
    | {f"gen_airy_k{k}": gen_airy(k) for k in range(1, 10)}
    | EXAMPLE_TEXTS)


@pytest.mark.parametrize("name", sorted(SYLVESTER_CASES))
def test_integer_sylvester_matches_series_rows(name, monkeypatch):
    """Every germ-oracle resultant, eliminated as given over Z[[z]] on the
    cleared factors P_i = c_i F_i, certifies the terms and precision that
    elimination on the rational Series rows certifies: Res(P_i, P_i') is
    Res(F_i, F_i') scaled by c_i^(2d_i-1), and Res(P_i, P_j) is
    Res(F_i, F_j) scaled by c_i^(d_j) c_j^(d_i); no second clearing
    runs."""
    equations = []

    def record(g):
        equations.append((germ_equation(g), _series_factors(g)))
        return equations[-1][0]

    monkeypatch.setattr(germs, "germ_equation", record)
    spec = parse_problem(SYLVESTER_CASES[name])
    for pole in spec.poles:
        local = local_at(spec.matrix, pole)
        if check_assumption(local):
            GermData(local)
    assert equations
    pairs = 0
    for factors, refs in equations:
        assert len(factors) == len(refs)
        # every germ equation of these inputs is rational, so its factors
        # hold integers only (never a float)
        assert all(isinstance(x, int) for p in factors
                   for c in p.coeffs for x in integer_form(c)[0])
        cleared = [(p, f, clearing_scale(p, f))
                   for p, f in zip(factors, refs)]
        assert all(c > 0 for *_, c in cleared)
        for i, (p, f, c) in enumerate(cleared):
            if f.degree > 1:
                _check_cleared_resultant(p, p.derivative(), f,
                                         f.derivative(),
                                         c ** (2 * f.degree - 1))
            for q, h, b in cleared[i + 1:]:
                _check_cleared_resultant(p, q, f, h,
                                         c ** h.degree * b ** f.degree)
                pairs += 1
    if name.startswith("diag_irreg"):
        # the branches over pole 0 are rational and separate factors
        assert pairs


def _check_cleared_resultant(p, q, f, h, scale):
    """resultant_det(p, q) over Z[[z]], for p = a f and q = b h, against
    the elimination of Res(f, h) on the Series rows, scaled by
    a^(deg h) b^(deg f) = scale."""
    ref = series_det_bareiss(sylvester_matrix(f, h))
    assert qpoly._integer_sylvester(p, q) is None
    res = resultant_det(p, q)
    assert integer_form(res) == cleared_form(ref, scale)
    assert res.valuation() == ref.valuation()


def _tower_milnor_oracle(g):
    """germ_milnor_oracle with the germ equation kept in tower arithmetic:
    the minimal polynomials multiplied over Series, never rationalized,
    and the resultant eliminated over Series by the conftest reference.
    Returns (Milnor number, whether a tower element was seen)."""
    f = UPoly([Series.const(F(1))])
    for c in g.branches:
        f = f * germs._cluster_min_poly(c)
    res_val = 0
    if f.degree > 1:
        res = series_det_bareiss(sylvester_matrix(f, f.derivative()))
        res_val = res.valuation()
    tower = any(isinstance(x, TowerElem) for c in f.coeffs
                if isinstance(c, Series) for x in c.terms.values())
    return res_val + 1 - sum(c.r for c in g.branches), tower


@pytest.mark.parametrize("n", [2, 3])
def test_dense_fuchs_germs_leave_the_tower(n):
    """The germ equations of dense_fuchs hold integers only, and the
    oracle's Milnor numbers equal those computed in tower arithmetic."""
    spec = parse_problem(dense_fuchs(n))
    rationalized, in_tower = [], []
    seen_tower = False
    for pole in spec.poles:
        local = local_at(spec.matrix, pole)
        assert check_assumption(local)
        g = GermData(local)
        for f in germ_equation(g):
            assert all(isinstance(c, qpoly._ZSeries) for c in f.coeffs)
            assert all(isinstance(x, int) for c in f.coeffs for x in c.c)
        rationalized.append(g.mu_oracle_value)
        if g.r_c:
            mu, tower = _tower_milnor_oracle(g)
            seen_tower |= tower
        else:
            mu = 0
        in_tower.append(mu)
    assert seen_tower
    assert rationalized == in_tower


# -- the germ product over Z[[z]] --------------------------------------------

PRODUCT_CASES = (
    {f"diag_irreg_rank{n}": diag_irreg(n) for n in range(2, 7)}
    | {f"airy_rank{n}": airy(n) for n in range(2, 8)}
    | {f"gen_airy_k{k}": gen_airy(k) for k in range(1, 31)}
    | {f"dense_fuchs_rank{n}": dense_fuchs(n) for n in (2, 3)}
    | EXAMPLE_TEXTS)


def _germs_of(text):
    spec = parse_problem(text)
    out = []
    for pole in spec.poles:
        local = local_at(spec.matrix, pole)
        if check_assumption(local):
            out.append(GermData(local))
    return out


def _rational_factors(g):
    return [germs._cluster_min_poly(c).map_coeffs(germs._rationalized)
            for c in g.branches]


def _series_equation(g):
    """Reference germ equation F over Series: every minimal polynomial
    multiplied over Series, rationalized after."""
    return fraction_series_product(_rational_factors(g)).map_coeffs(
        germs._rationalized)


def _irrational(p):
    return any(isinstance(x, TowerElem) for c in p.coeffs
               for x in c.terms.values())


def _series_factors(g):
    """Reference factors F_i over Series, in the order of germ_equation:
    each rational minimal polynomial, then the irrational ones multiplied
    over Series and rationalized after."""
    factors = _rational_factors(g)
    out = [p for p in factors if not _irrational(p)]
    irrational = [p for p in factors if _irrational(p)]
    if irrational:
        out.append(fraction_series_product(irrational).map_coeffs(
            germs._rationalized))
    return out


@pytest.mark.parametrize("name", sorted(PRODUCT_CASES))
def test_integer_germ_product_matches_series_product(name):
    """Each factor of the germ equation over Z[[z]], P_i = c_i F_i, has
    the terms and the precisions of its F_i over Fraction series, scaled
    by c_i, also where some minimal polynomial is irrational; the
    factors multiply out over Z[[z]] to the product F over Fraction
    series, scaled by prod c_i; the oracle reads the Milnor numbers of
    the in-tower reference."""
    found = _germs_of(PRODUCT_CASES[name])
    mixed = 0
    for g in found:
        if not g.r_c:
            continue
        factors = germ_equation(g)
        refs = _series_factors(g)
        assert len(factors) == len(refs)
        for got, ref in zip(factors, refs):
            c = clearing_scale(got, ref)
            assert c > 0
            assert [integer_form(x) for x in got.coeffs] == \
                cleared_form(ref, c)
        got = factors[0]
        for p in factors[1:]:
            got = got * p
        ref = _series_equation(g)
        c = clearing_scale(got, ref)
        assert c > 0
        assert [integer_form(x) for x in got.coeffs] == cleared_form(ref, c)
        irrational = any(map(_irrational, _rational_factors(g)))
        if name.startswith("diag_irreg"):
            # the irregular ladder has rational minimal polynomials only
            assert not irrational
        mixed += irrational
    if name.startswith("dense_fuchs"):
        # conjugate branches carry irrational minimal polynomials
        assert mixed
    assert [g.mu_oracle_value for g in found] == \
        [_tower_milnor_oracle(g)[0] if g.r_c else 0 for g in found]


def test_mixed_germ_clears_each_factor_once(monkeypatch):
    """At pole 1 of dense_fuchs_rank3 the germ has two minimal polynomials
    with irrational tower coefficients and one rational one.  One oracle
    call multiplies only the irrational two over Series, clears the
    rational one and that product once each, hands each cleared factor
    to resultant_det as it is (no rational Series rebuilt from it), for
    its own discriminant and for the one pair, never multiplies the
    factors, and runs no clearing in _integer_sylvester."""
    spec = parse_problem(dense_fuchs(3))
    local = local_at(spec.matrix, F(1))
    assert check_assumption(local)
    g = GermData(local)
    factors = _rational_factors(g)
    assert sorted(map(_irrational, factors)) == [False, True, True]
    product = fraction_series_product(
        [p for p in factors if _irrational(p)]).map_coeffs(
            germs._rationalized)
    expected = [sorted(x for c in p.coeffs for x in c.terms.values())
                for p in [p for p in factors if not _irrational(p)]
                + [product]]
    degrees = [p.degree for p in germ_equation(g)]
    assert len(degrees) == 2
    cleared, series_operands, sylvester, resultants = [], [], [], []
    integer_products = []

    def count(record, fn):
        def spy(*args):
            out = fn(*args)
            record.append((args, out))
            return out
        return spy

    def product_spy(a, b):
        coeffs = a.coeffs + b.coeffs
        if any(isinstance(c, Series) for c in coeffs):
            series_operands.extend([a, b])
        if any(isinstance(c, qpoly._ZSeries) for c in coeffs):
            integer_products.append((a, b))
        return mul(a, b)

    mul = UPoly.__mul__
    monkeypatch.setattr(UPoly, "__mul__", product_spy)
    monkeypatch.setattr(qpoly, "_primitive_integers",
                        count(cleared, qpoly._primitive_integers))
    monkeypatch.setattr(qpoly, "_integer_sylvester",
                        count(sylvester, qpoly._integer_sylvester))
    monkeypatch.setattr(germs, "resultant_det",
                        count(resultants, resultant_det))
    assert germ_milnor_oracle(g) == g.mu == 4
    assert [sorted(args[0]) for args, _ in cleared] == expected
    assert len(series_operands) == 2
    assert all(map(_irrational, series_operands))
    assert not integer_products
    # each factor's own discriminant where its degree exceeds 1, and the
    # one pair
    assert len(resultants) == sum(d > 1 for d in degrees) + 1
    assert [out for _, out in sylvester] == [None] * len(resultants)
    assert all(isinstance(c, qpoly._ZSeries) for (p, q), res in resultants
               for c in p.coeffs + q.coeffs + (res,))


# -- the factor-wise oracle against the full product -------------------------

EQUIVALENCE_CASES = (
    PRODUCT_CASES
    | {f"fuchs_rank3_seed{k}": fuchs(3, k) for k in (1, 2, 3)}
    | {f"irreg_rank3_seed{k}": irreg(3, k) for k in (1, 2, 3)})


def _oracle_routes(text):
    """(germ_milnor_oracle, germ_milnor, full_product_milnor_oracle,
    _tower_milnor_oracle) on the germ at each pole of text.  Each pole is
    built at the default truncation order, and then at twice the order,
    until the two references decide too; the first refused pole ends the
    list.  The full product may need more precision than any order
    gives: an exact cluster representative yields a minimal polynomial
    of fixed precision, and where the branches' contacts run deep the
    discriminant of their product lies past it.  Then the references
    read None."""
    spec = parse_problem(text)
    a_mat = spec.matrix
    cp = charpoly(a_mat)
    disc = CharpolyDiscriminant(cp)
    seen = []
    for pole in spec.poles:
        nterms = default_truncation(a_mat.n, pole_order(a_mat, pole))
        found = None
        for _ in range(4):
            try:
                local = build_local(a_mat, pole, nterms, cp, disc)
                if not check_assumption(local):
                    return seen
                g = GermData(local)
                found = (g.mu_oracle_value, g.mu, None, None)
                found = found[:2] + (
                    full_product_milnor_oracle(g),
                    _tower_milnor_oracle(g)[0] if g.r_c else 0)
                break
            except InsufficientTruncation:
                nterms *= 2
        assert found is not None
        seen.append(found)
    return seen


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_CASES))
def test_factor_wise_oracle_equals_the_full_product(name):
    """Summed over the factors and their pairs, the oracle gives the
    valuation of the one Sylvester resultant of the multiplied-out germ
    equation, the Milnor number computed in tower arithmetic, and the
    formula route's."""
    seen = _oracle_routes(EQUIVALENCE_CASES[name])
    assert seen or name == "example_bessel"
    for routes in seen:
        assert len(set(routes)) == 1, routes


@st.composite
def _shared_lead_sum(draw):
    """A direct sum of irregular blocks at pole 0 whose branches share
    leading terms: 1 x 1 blocks E(z) and companion blocks
    [[0, 1], [E(z), 0]] (y^2 = E, ramified for an odd pole order), each
    E(z) = sum c_k / z^k taking its top coefficients from one common
    list, so that the branches' pairwise contacts run deep."""
    order = draw(st.integers(2, 4))
    common = [draw(st.integers(1, 3))] + draw(
        st.lists(st.integers(-3, 3), min_size=order - 1,
                 max_size=order - 1))
    blocks, size = [], 0
    while size < 2 or (size < 5 and draw(st.booleans())):
        companion = size < 4 and draw(st.integers(0, 3)) == 0
        shared = draw(st.integers(1, order))
        coeffs = common[:shared] + draw(
            st.lists(st.integers(-3, 3), min_size=order - shared,
                     max_size=order - shared))
        if (companion, coeffs) not in blocks:
            blocks.append((companion, coeffs))
            size += 2 if companion else 1
    rows = [["0"] * size for _ in range(size)]
    at = 0
    for companion, coeffs in blocks:
        entry = " + ".join(f"{c}/z^{order - k}"
                           for k, c in enumerate(coeffs) if c)
        if companion:
            rows[at][at + 1] = "1"
            rows[at + 1][at] = entry
            at += 2
        else:
            rows[at][at] = entry
            at += 1
    return problem_text(["0", "inf"], rows)


@settings(max_examples=40, deadline=None)
@given(_shared_lead_sum())
def test_factor_wise_oracle_on_deep_contacts(text):
    """The oracle equals the formula route on every germ, and the full
    product and the tower reference wherever they decide."""
    for mu, formula, full, tower in _oracle_routes(text):
        assert mu == formula
        assert full in (None, mu) and tower in (None, mu)
        assert (full is None) == (tower is None)


SCALE_CASES = {"diag_irreg_rank3": (diag_irreg(3), F(0)),
               "dense_fuchs_rank3": (dense_fuchs(3), F(1)),
               "airy_rank3": (airy(3), INFINITY)}


@pytest.mark.parametrize("name", sorted(SCALE_CASES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_oracle_undoes_each_factors_clearing(name, data):
    """The cluster minimal polynomials are monic with a constant leading
    coefficient and lower coefficients of positive order, so every
    factor of a real germ has the least certified exponent 0.
    Multiplying each cleared factor by a positive integer leaves the
    oracle's Milnor number unchanged, equal to the full product's and
    to the formula's."""
    text, pole = SCALE_CASES[name]
    local = local_at(parse_problem(text).matrix, pole)
    assert check_assumption(local)
    g = GermData(local)
    factors = germ_equation(g)
    assert all(min(c._first() for c in p.coeffs if c._first() is not None)
               == 0 for p in factors)
    scaled = [p * data.draw(st.integers(1, 5)) for p in factors]
    with mock.patch.object(germs, "germ_equation", lambda _: scaled):
        assert germ_milnor_oracle(g) == full_product_milnor_oracle(g) \
            == g.mu_oracle_value == g.mu
