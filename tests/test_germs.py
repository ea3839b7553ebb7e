"""Plane-curve germs at infinity: Milnor numbers two ways, delta."""

from fractions import Fraction

import pytest

from conftest import (EXAMPLE_TEXTS, airy, cleared_form, clearing_scale,
                      dense_fuchs, diag_irreg, fraction_series_product,
                      gen_airy, integer_form, local_at, mat,
                      series_det_bareiss)
from specrig import germs, qpoly
from specrig.errors import SpecrigError
from specrig.germs import (GermData, branch_intersection, branch_milnor,
                           delta_identity_holds, germ_equation,
                           germ_milnor_oracle, unbounded_branches)
from specrig.localmod import check_assumption
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
        f, s = germ_equation(airy_germ)
        # zeta^2 - z^5 (the minimal polynomial of the conjugate orbit),
        # primitive over Z[[z]] with its least exponent at 0: c = 1, s = 0
        assert (f.degree, s) == (2, 0)
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
    germ equation P = c z^s F, certifies the terms and precision that
    elimination on the rational Series rows of F certifies, scaled by
    c^(2d-1) z^(s(2d-1)); no second clearing runs."""
    equations = []

    def record(g):
        equations.append((germ_equation(g), _series_equation(g)))
        return equations[-1][0]

    monkeypatch.setattr(germs, "germ_equation", record)
    spec = parse_problem(SYLVESTER_CASES[name])
    for pole in spec.poles:
        local = local_at(spec.matrix, pole)
        if check_assumption(local):
            GermData(local)
    assert equations
    for (p, s), f in equations:
        # every germ equation of these inputs is rational, so it holds
        # integers only (never a float)
        assert all(isinstance(x, int) for c in p.coeffs
                   for x in integer_form(c)[0])
        if f.degree < 2:
            continue
        n = 2 * f.degree - 1
        ref = series_det_bareiss(sylvester_matrix(f, f.derivative()))
        c = clearing_scale(p, f, s)
        assert c > 0
        py = p.derivative()
        assert qpoly._integer_sylvester(p, py) is None
        res = resultant_det(p, py)
        assert integer_form(res) == cleared_form(ref, s * n, c ** n)
        assert res.valuation() - s * n == ref.valuation()


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
        f, _ = germ_equation(g)
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


@pytest.mark.parametrize("name", sorted(PRODUCT_CASES))
def test_integer_germ_product_matches_series_product(name):
    """The germ equation over Z[[z]], P = c z^s F, has the terms and the
    precisions of the product F over Fraction series, scaled by c and
    moved up by s, also where some minimal polynomial is irrational; the
    oracle reads the Milnor numbers of the in-tower reference."""
    found = _germs_of(PRODUCT_CASES[name])
    mixed = 0
    for g in found:
        if not g.r_c:
            continue
        got, s = germ_equation(g)
        ref = _series_equation(g)
        c = clearing_scale(got, ref, s)
        assert c > 0
        assert [integer_form(x) for x in got.coeffs] == \
            cleared_form(ref, s, c)
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
    rational one and that product once each, hands the integer product
    to resultant_det as it is (no rational Series rebuilt from it), and
    runs no clearing in _integer_sylvester."""
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
    cleared, series_operands, sylvester, resultants = [], [], [], []

    def count(record, fn):
        def spy(*args):
            out = fn(*args)
            record.append((args, out))
            return out
        return spy

    def series_product(a, b):
        if any(isinstance(c, Series) for c in a.coeffs + b.coeffs):
            series_operands.extend([a, b])
        return mul(a, b)

    mul = UPoly.__mul__
    monkeypatch.setattr(UPoly, "__mul__", series_product)
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
    assert [out for _, out in sylvester] == [None]
    [((p, py), res)] = resultants
    assert all(isinstance(c, qpoly._ZSeries) for c in p.coeffs + py.coeffs
               + (res,))
