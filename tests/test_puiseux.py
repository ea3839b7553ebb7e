"""Newton polygons, Puiseux clusters, and contact valuations."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import horner_compose, residual_full, series_form
from specrig.errors import (AmbiguousComparison, InsufficientTruncation,
                            SpecrigError)
from specrig import puiseux
from specrig.puiseux import (PuiseuxCluster, _diff_nonzero,
                             _phase_denominator, cluster_contact,
                             conjugate_pairs, contact_pair_sum,
                             discriminant_valuation, newton_polygon,
                             principal_contact_negative, puiseux_clusters,
                             separation_depth, taylor_shift)
from specrig.qpoly import UPoly
from specrig.series import Series
from specrig.tower import FieldTower


F = Fraction


def clusters_of(f):
    return puiseux_clusters(f, discriminant_valuation(f))


def spoly(*coeffs):
    """UPoly in y with Series coefficients from sparse {exp: coeff} dicts
    (plain numbers become exact constants)."""
    out = []
    for c in coeffs:
        if isinstance(c, Series):
            out.append(c)
        elif isinstance(c, dict):
            out.append(Series({e: F(v) for e, v in c.items()}))
        else:
            out.append(Series.const(F(c)) if c else Series.zero())
    return UPoly(out)


class TestNewtonPolygon:
    def test_single_edge(self):
        # y^2 - z^{-1}: edge from (0, -1) to (2, 0)
        poly = newton_polygon(spoly({-1: -1}, 0, 1))
        assert len(poly.edges) == 1
        e = poly.edges[0]
        assert e.slope == F(1, 2)
        assert e.rho == F(-1, 2)
        assert e.length == 2
        assert poly.zero_roots == 0

    def test_two_edges(self):
        # (y - z)(y - z^{-1}) = y^2 - (z + z^{-1})y + 1
        poly = newton_polygon(spoly(1, {-1: -1, 1: -1}, 1))
        assert sorted(e.rho for e in poly.edges) == [-1, 1]
        assert all(e.length == 1 for e in poly.edges)

    def test_zero_root(self):
        # y(y - z)
        poly = newton_polygon(spoly(0, {1: -1}, 1))
        assert poly.zero_roots == 1

    def test_hidden_low_coefficient_refused(self):
        # constant coefficient known zero only up to O(z^2)
        f = spoly(Series.zero(prec=2), {0: -1}, 1)
        with pytest.raises(InsufficientTruncation):
            newton_polygon(f)

    def test_cleared_unknown_coefficient_allowed(self):
        # middle coefficient vanishes to a precision strictly above the hull
        f = spoly({0: 1}, Series.zero(prec=3), 1)
        poly = newton_polygon(f)
        assert len(poly.edges) == 1 and poly.edges[0].length == 2

    def test_residual(self):
        poly = newton_polygon(spoly({-1: -4}, 0, 1))
        edge = poly.edges[0]
        res = residual_full(edge.points, edge.i0)
        assert res.degree == 2
        assert res.eval(F(2)) == 0  # c^2 - 4


TOWER = FieldTower()
SQRT2 = TOWER.adjoin(UPoly([F(-2), F(0), F(1)]))
_QS = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _taylor_case(draw):
    """(F, c, rho): F of degree 1-6 whose coefficients are exact,
    truncated or zero up to their precision, over Q or over Q(sqrt 2),
    and a nonzero c with an integer or fractional rho."""
    over_tower = draw(st.booleans())

    def number():
        x = draw(_QS)
        return x + draw(_QS) * SQRT2 if over_tower else x

    def exponent():
        return F(draw(st.integers(-6, 12)), draw(st.sampled_from([1, 2, 3])))

    def coefficient():
        kind = draw(st.sampled_from(["exact", "truncated", "zero"]))
        if kind == "zero":
            return Series.zero(prec=exponent())
        terms = {exponent(): number()
                 for _ in range(draw(st.integers(0, 3)))}
        return Series(terms, None if kind == "exact" else exponent())

    f = UPoly([coefficient() for _ in range(draw(st.integers(2, 7)))])
    assume(f.degree >= 1)
    c = number()
    assume(c)
    return f, c, exponent()


class TestTaylorShift:
    @settings(max_examples=150, deadline=None)
    @given(_taylor_case())
    def test_matches_composition(self, case):
        f, c, rho = case
        g = UPoly([Series.monomial(c, rho), Series.const(1)])
        ref = horner_compose(f, g)
        got = taylor_shift(f, c, rho)
        assert [series_form(x) for x in got.coeffs] == \
            [series_form(x) for x in ref.coeffs]
        assert [series_form(x) for x in f.compose(g).coeffs] == \
            [series_form(x) for x in ref.coeffs]

    def test_truncated_zero_bounds_the_precision(self):
        # O(z^3) + y^2 at y -> y + z: the constant term z^2 keeps the
        # bound O(z^3) of a coefficient with no known term
        f = UPoly([Series.zero(prec=3), Series.zero(), Series.const(1)])
        got = taylor_shift(f, F(1), F(1))
        assert series_form(got.coeffs[0]) == ({F(2): 1}, 3)
        assert series_form(got.coeffs[1]) == ({F(1): 2}, None)


class TestClusters:
    def test_square_root(self):
        clusters, tower = clusters_of(spoly({1: -1}, 0, 1))
        assert len(clusters) == 1
        c = clusters[0]
        assert c.r == 2
        assert c.order == F(1, 2)
        assert c.rep.leading() ** 2 == 1

    def test_negative_order(self):
        clusters, _ = clusters_of(spoly({-3: -1}, 0, 1))
        assert clusters[0].order == F(-3, 2)

    def test_sibling_clusters(self):
        # (y^2 - z^{-1})(y^2 - 4 z^{-1})
        f = spoly({-2: 4}, 0, {-1: -5}, 0, 1)
        clusters, _ = clusters_of(f)
        assert sorted(c.r for c in clusters) == [2, 2]
        assert sorted(c.rep.leading() ** 2 for c in clusters) == [1, 4]

    def test_irrational_leading_coefficient(self):
        clusters, tower = clusters_of(spoly({2: -2}, 0, 1))
        # y^2 = 2 z^2: unramified pair with leading coefficient sqrt(2)
        assert sorted(c.r for c in clusters) == [1, 1]
        for c in clusters:
            assert c.rep.leading() ** 2 == 2
        assert tower.height >= 1

    def test_deep_separation(self):
        # (y - z)(y - z - z^3): clusters agree through z^2
        f = (UPoly([Series({1: -1}), Series.const(F(1))])
             * UPoly([Series({1: -1, 3: -1}), Series.const(F(1))]))
        clusters, _ = clusters_of(f)
        assert len(clusters) == 2
        assert cluster_contact(clusters[0], clusters[1], 0) == 3

    def test_cluster_sizes_sum_to_degree(self):
        f = spoly({-2: 4}, 0, {-1: -5}, 0, 1)
        clusters, _ = clusters_of(f)
        assert sum(c.r for c in clusters) == 4

    def test_not_squarefree_rejected(self):
        g = spoly({2: 1}, {1: -2}, 1)  # (y - z)^2
        with pytest.raises(SpecrigError):
            clusters_of(g)


class TestContact:
    def test_phase_denominator(self):
        assert _phase_denominator(0, F(-1, 2)) == 1
        assert _phase_denominator(1, F(-1, 2)) == 2
        assert _phase_denominator(1, F(-5, 2)) == 2
        assert _phase_denominator(2, F(-1, 2)) == 1
        assert _phase_denominator(1, F(-2, 3)) == 3

    def test_diff_nonzero_rational_phases(self):
        assert not _diff_nonzero(F(1), F(1), 1)
        assert _diff_nonzero(F(1), F(2), 1)
        assert not _diff_nonzero(F(1), F(-1), 2)
        assert _diff_nonzero(F(1), F(1), 2)

    def test_diff_nonzero_higher_order_decidable(self):
        # t = a/b with t^d != 1
        assert _diff_nonzero(F(2), F(1), 4)
        # t = 1 against a primitive root of order >= 3
        assert _diff_nonzero(F(1), F(1), 3)
        assert _diff_nonzero(F(-1), F(1), 4)

    def test_diff_nonzero_ambiguous(self):
        tower = FieldTower()
        i = tower.adjoin(UPoly([F(1), F(0), F(1)]))  # x^2 + 1
        with pytest.raises(AmbiguousComparison):
            _diff_nonzero(i, tower.one(1), 4)

    def test_conjugate_self_contact(self):
        clusters, _ = clusters_of(spoly({-5: -1}, 0, 1))
        c = clusters[0]
        # rep ~ z^{-5/2}: the conjugate differs already at the leading term
        assert cluster_contact(c, c, 1) == F(-5, 2)

    def test_principal_contact_ignores_tame_exponents(self):
        clusters, _ = clusters_of(spoly({1: -1}, 0, 1))
        c = clusters[0]
        # root order 1/2 > -1: no negative principal part
        assert principal_contact_negative(c, c, 1) is None

    def test_principal_contact_negative_shift(self):
        clusters, _ = clusters_of(spoly({-5: -1}, 0, 1))
        c = clusters[0]
        assert principal_contact_negative(c, c, 1) == F(-3, 2)


class TestConjugatePairs:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8))
    def test_pair_counts(self, r1, r2):
        c1 = PuiseuxCluster(Series.zero(), r1, FieldTower())
        c2 = PuiseuxCluster(Series.zero(), r2, FieldTower())
        shifts, weight = conjugate_pairs(c1, c1)
        assert weight * len(shifts) == r1 * (r1 - 1)
        shifts, weight = conjugate_pairs(c1, c2)
        assert weight * len(shifts) == r1 * r2


class TestDiscriminantIdentity:
    CASES = [
        spoly({1: -1}, 0, 1),              # y^2 - z
        spoly({-5: -1}, 0, 1),             # y^2 - z^{-5}
        spoly({-2: 4}, 0, {-1: -5}, 0, 1),  # sibling pair
        spoly({2: -2}, 0, 1),              # irrational coefficients
    ]

    @pytest.mark.parametrize("idx", [0, 1, 2, 3])
    def test_pair_sum_equals_disc_valuation(self, idx):
        f = self.CASES[idx]
        clusters, _ = clusters_of(f)
        assert contact_pair_sum(clusters) == discriminant_valuation(f)

    def test_deep_separation_case(self):
        f = (UPoly([Series({1: -1}), Series.const(F(1))])
             * UPoly([Series({1: -1, 3: -1}), Series.const(F(1))]))
        clusters, _ = clusters_of(f)
        assert discriminant_valuation(f) == 6
        assert contact_pair_sum(clusters) == 6


class TestDepth:
    def test_least_root_order_is_read_off_the_first_polygon(
            self, monkeypatch):
        # roots z, z + z^3 and 1/z: contacts 3, -1, -1, so ord disc = 2,
        # and the least root order -1 lifts the depth from 2 to 4
        f = (UPoly([Series({1: -1}), Series.const(F(1))])
             * UPoly([Series({1: -1, 3: -1}), Series.const(F(1))])
             * UPoly([Series({-1: -1}), Series.const(F(1))]))
        vdisc = discriminant_valuation(f)
        polygons, targets = [], []
        build, descend = puiseux.newton_polygon, puiseux._descend

        def spy_polygon(g):
            polygons.append(g)
            return build(g)

        def spy_descend(g, poly, prev_terms, last_exp, lattice, mult,
                        tower, target, out, depth_guard):
            targets.append(target)
            descend(g, poly, prev_terms, last_exp, lattice, mult, tower,
                    target, out, depth_guard)
        monkeypatch.setattr(puiseux, "newton_polygon", spy_polygon)
        monkeypatch.setattr(puiseux, "_descend", spy_descend)
        clusters, _ = puiseux_clusters(f, vdisc)
        assert vdisc == 2
        assert targets[0] == separation_depth(3, vdisc, F(-1)) == 4
        assert set(targets) == {4}
        assert sum(g is f for g in polygons) == 1
        assert sorted(c.order for c in clusters) == [-1, 1, 1]

    def test_target_exceeds_contacts(self):
        f = (UPoly([Series({1: -1}), Series.const(F(1))])
             * UPoly([Series({1: -1, 3: -1}), Series.const(F(1))]))
        minord = min(e.rho for e in newton_polygon(f).edges)
        assert separation_depth(2, discriminant_valuation(f), minord) > 3
        assert min(e.rho for e in newton_polygon(spoly({-5: -1}, 0, 1))
                   .edges) == F(-5, 2)
