"""Plane-curve germs at infinity: Milnor numbers two ways, delta."""

from fractions import Fraction

import pytest

from conftest import (EXAMPLE_TEXTS, airy, dense_fuchs, diag_irreg,
                      fraction_series_product, gen_airy, local_at, mat,
                      series_det_bareiss, series_form)
from specrig import germs, qpoly
from specrig.errors import SpecrigError
from specrig.germs import (GermData, branch_intersection, branch_milnor,
                           delta_identity_holds, germ_equation,
                           germ_milnor_oracle, unbounded_branches)
from specrig.localmod import check_assumption
from specrig.parsing import parse_problem
from specrig.qpoly import (UPoly, integer_series_product, resultant_det,
                           sylvester_matrix)
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
        f = germ_equation(airy_germ)
        # zeta^2 - z^5 (the minimal polynomial of the conjugate orbit)
        assert f.degree == 2
        assert f.coeffs[2].coeff(0) == 1
        assert f.coeffs[0].coeff(5) == -1
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
    """Every germ-oracle resultant certifies, over Z[[z]], the terms and
    precision that elimination on the rational Series rows certifies."""
    equations = []

    def record(g):
        equations.append(germ_equation(g))
        return equations[-1]

    monkeypatch.setattr(germs, "germ_equation", record)
    spec = parse_problem(SYLVESTER_CASES[name])
    for pole in spec.poles:
        local = local_at(spec.matrix, pole)
        if check_assumption(local):
            GermData(local)
    assert equations
    for f in equations:
        if f.degree < 2:
            continue
        fy = f.derivative()
        ref = series_det_bareiss(sylvester_matrix(f, fy))
        res = resultant_det(f, fy)
        assert (res.terms, res.prec) == (ref.terms, ref.prec)
        assert res.valuation() == ref.valuation()
        # every germ equation of these inputs is rational (int or
        # Fraction, never float), so every oracle determinant takes the
        # integer path
        assert all(isinstance(x, (int, Fraction)) for c in f.coeffs
                   if isinstance(c, Series) for x in c.terms.values())
        assert qpoly._integer_sylvester(f, fy) is not None


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
                for x in c.terms.values())
    return res_val + 1 - sum(c.r for c in g.branches), tower


@pytest.mark.parametrize("n", [2, 3])
def test_dense_fuchs_germs_leave_the_tower(n):
    """The germ equations of dense_fuchs hold no tower element, and the
    oracle's Milnor numbers equal those computed in tower arithmetic."""
    spec = parse_problem(dense_fuchs(n))
    rationalized, in_tower = [], []
    seen_tower = False
    for pole in spec.poles:
        local = local_at(spec.matrix, pole)
        assert check_assumption(local)
        g = GermData(local)
        f = germ_equation(g)
        assert not any(isinstance(x, TowerElem) for c in f.coeffs
                       for x in c.terms.values())
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


@pytest.mark.parametrize("name", sorted(PRODUCT_CASES))
def test_integer_germ_product_matches_series_product(name, monkeypatch):
    """The germ equation multiplied over Z[[z]] has the terms and the
    precisions of the product over Fraction series, and the oracle reads
    the same Milnor numbers off either."""
    found = _germs_of(PRODUCT_CASES[name])
    series_path = 0
    for g in found:
        if not g.r_c:
            continue
        factors = _rational_factors(g)
        got = integer_series_product(factors)
        if name.startswith("diag_irreg"):
            # the irregular ladder takes the integer path at every pole
            assert got is not None
        if got is None:
            series_path += 1
            continue
        ref = fraction_series_product(factors)
        assert [series_form(c) for c in got.coeffs] == \
            [series_form(c) for c in ref.coeffs]
        assert [series_form(c) for c in germ_equation(g).coeffs] == \
            [series_form(c) for c in got.coeffs]
    if name.startswith("dense_fuchs"):
        # conjugate branches carry irrational minimal polynomials, so some
        # germ keeps the product over Series
        assert series_path
    oracle = [g.mu_oracle_value for g in found]
    monkeypatch.setattr(germs, "integer_series_product", lambda polys: None)
    assert [germ_milnor_oracle(g) for g in found] == oracle

