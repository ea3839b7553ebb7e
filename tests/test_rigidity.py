"""Global invariants: genus, Euler characteristic, rigidity, smoothness."""

from fractions import Fraction

import pytest

from hypothesis import example, given, settings, strategies as st

from conftest import (EXAMPLE_TEXTS, SQRT2_LINES, airy, conjugate_by,
                      dense_fuchs, diag_irreg, fuchs, gen_airy, irreg,
                      local_at, mat, no_sympy, sympy_irreducibility_status,
                      unimodular)
from specrig.errors import SpecrigError
from specrig.germs import GermData
from specrig.localmod import (HTLCell, LocalModule, check_assumption,
                              delta_end)
from specrig import matrf, rigidity, tower
from specrig.matrf import CharpolyDiscriminant, charpoly, cleared_charpoly
from specrig.parsing import parse_problem
from specrig.puiseux import PuiseuxCluster
from specrig.ratfn import INFINITY
from specrig.series import Series
from specrig.tower import FieldTower
from specrig.rigidity import (CurveClass, arithmetic_genus,
                              cohomology_dims, euler_char_normalization,
                              irreducibility_status, rigidity_index,
                              smoothness_check_finite_part,
                              total_inf_intersection)


F = Fraction


def disc_of(rows):
    return CharpolyDiscriminant(charpoly(mat(rows)))


def analyzed(rows, poles):
    a = mat(rows)
    locals_ = []
    germs = []
    for p in poles:
        local = local_at(a, p)
        assert check_assumption(local)
        locals_.append(local)
        germs.append(GermData(local))
    return a, locals_, germs


class TestGenusAndChi:
    def test_curve_class_validation(self):
        with pytest.raises(SpecrigError):
            CurveClass(0, 3)
        with pytest.raises(SpecrigError):
            CurveClass(2, -1)

    def test_arithmetic_genus(self):
        assert arithmetic_genus(CurveClass(2, 5)) == 2
        assert arithmetic_genus(CurveClass(2, 4)) == 1
        assert arithmetic_genus(CurveClass(1, 2)) == 0
        assert arithmetic_genus(CurveClass(3, 6)) == 4

    def test_euler_char(self):
        _, _, germs = analyzed([["0", "1"], ["z", "0"]], [INFINITY])
        assert total_inf_intersection(germs) == 5
        assert euler_char_normalization(2, germs) == 2 - 4 + 4

    def test_rigidity_airy(self):
        _, locals_, _ = analyzed([["0", "1"], ["z", "0"]], [INFINITY])
        assert rigidity_index(locals_) == 8 - 6

    def test_rigidity_fuchsian(self):
        _, locals_, _ = analyzed([["(1/2)/z", "0"], ["0", "(1/3)/z"]],
                                 [F(0), INFINITY])
        assert rigidity_index(locals_) == 4

    def test_milnor_verification(self):
        # the formula's mu is -delta(End) - r_C + 2(n-1)(C, X_inf)_a + 1,
        # and the resultant oracle agrees
        _, locals_, germs = analyzed([["0", "1"], ["z", "0"]], [INFINITY])
        germ = germs[0]
        assert germ.mu == (-delta_end(locals_[0]) - germ.r_c
                           + 2 * (germ.n - 1) * germ.local_inf + 1)
        assert germ.mu == germ.mu_oracle_value == 4

    def test_cohomology_dims(self):
        assert cohomology_dims(2) == (1, 0, 1)
        assert cohomology_dims(-2) == (1, 4, 1)


class TestClearedCharpoly:
    def test_polynomial_input(self):
        f, den = cleared_charpoly(charpoly(mat([["0", "1"], ["z", "0"]])))
        assert den.degree == 0
        assert f.degree == 2
        assert f.coeffs[0].coeffs == (F(0), F(-1))  # -z

    def test_denominator_cleared(self):
        f, den = cleared_charpoly(charpoly(mat([["1/z"]])))
        # z y - 1
        assert den.coeffs == (F(0), F(1))
        assert f.coeffs[1].coeffs == (F(0), F(1))
        assert f.coeffs[0].coeffs == (F(-1),)

    def test_lcm_not_product(self):
        f, den = cleared_charpoly(charpoly(mat([["1/z", "0"], ["0", "2/z"]])))
        assert den.degree == 2  # z^2, not z^3


class TestIrreducibility:
    def test_totally_ramified_certificate(self):
        _, locals_, _ = analyzed([["0", "1"], ["z", "0"]], [INFINITY])
        disc = disc_of([["0", "1"], ["z", "0"]])
        assert irreducibility_status(disc, locals_) == "irreducible"

    def test_reducible_diagonal(self):
        rows = [["(1/2)/z", "0"], ["0", "(1/3)/z"]]
        _, locals_, _ = analyzed(rows, [F(0), INFINITY])
        disc = disc_of(rows)
        assert irreducibility_status(disc, locals_) == "reducible"

    def test_unknown_without_certificate(self):
        rows = [["0", "1"], ["z^2 + 1", "0"]]
        _, locals_, _ = analyzed(rows, [INFINITY])
        disc = disc_of(rows)
        assert irreducibility_status(disc, locals_) == "unknown"


    @pytest.mark.parametrize("rows", [
        [["(1/2)/z", "0"], ["0", "(1/3)/z"]],
        [["0", "1"], ["z^2 + 1", "0"]],
        [["1/z", "1"], ["1", "z"]]])
    def test_reuses_the_cleared_charpoly(self, rows, monkeypatch):
        disc = disc_of(rows)
        expected = irreducibility_status(disc, [])

        def no_clearing(_):
            raise AssertionError("charpoly cleared a second time")
        monkeypatch.setattr(matrf, "cleared_charpoly", no_clearing)
        assert irreducibility_status(disc, []) == expected


GENERATED = dict(
    [(f"airy_{n}", airy(n)) for n in range(2, 8)]
    + [(f"gen_airy_{k}", gen_airy(k)) for k in range(1, 31)]
    + [(f"diag_irreg_{n}", diag_irreg(n)) for n in range(2, 7)]
    + [(f"dense_fuchs_{n}", dense_fuchs(n)) for n in (2, 3)]
    + sorted(EXAMPLE_TEXTS.items())
    + [("finite_root_at_1",
        "poles 1, inf\nmatrix\n1/(z-1)^2, 0\n0, 2/(z-1)\nend\n"),
       ("root_at_infinity", "poles inf\nmatrix\nz, 0\n0, 2\nend\n"),
       ("z2_plus_1", "poles inf\nmatrix\n0, 1\nz^2 + 1, 0\nend\n")])


def pole_locals(text, seed):
    """The problem's disc and its local modules at its true poles, as
    run_analysis passes them; conjugated by a seeded unimodular matrix
    when seed is nonzero."""
    spec = parse_problem(text)
    a = spec.matrix
    if seed:
        a = conjugate_by(a, unimodular(a.n, seed))
    disc = CharpolyDiscriminant(charpoly(a))
    return disc, [L for L in (local_at(a, p) for p in spec.poles) if L.nu]


class TestExactRootCertificate:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", sorted(GENERATED))
    def test_same_verdict_as_sympy(self, name, seed):
        disc, locals_ = pole_locals(GENERATED[name], seed)
        assert irreducibility_status(disc, locals_) == \
            sympy_irreducibility_status(disc, locals_)

    @pytest.mark.parametrize("name", [
        "gen_airy_2", "gen_airy_30", "diag_irreg_2", "diag_irreg_6",
        "example_fuchsian", "finite_root_at_1", "root_at_infinity"])
    def test_rational_root_decides_without_sympy(self, name, monkeypatch):
        disc, locals_ = pole_locals(GENERATED[name], 1)
        monkeypatch.setattr(rigidity, "_bipoly_to_sympy", no_sympy)
        assert irreducibility_status(disc, locals_) == "reducible"

    def test_root_only_at_a_finite_pole(self):
        """At infinity the clusters are truncated; the root comes from the
        exact cluster at z = 1 and is mapped back through t = z - 1."""
        disc, locals_ = pole_locals(GENERATED["finite_root_at_1"], 0)
        exact = {L.pole: [c for c in L.clusters if c.rep.prec is None]
                 for L in locals_}
        assert not exact[INFINITY] and exact[F(1)]

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", sorted(GENERATED))
    def test_every_candidate_is_a_root(self, name, seed):
        """An exact cluster is an exact root, so every candidate mapped
        back through its pole's chart passes the substitution proof."""
        disc, locals_ = pole_locals(GENERATED[name], seed)
        for num, den in rigidity._exact_rational_roots(locals_):
            assert rigidity._is_root(disc.cleared, num, den)

    def test_q_irreducible_curve_stays_unknown(self):
        disc, locals_ = pole_locals(GENERATED["z2_plus_1"], 0)
        assert irreducibility_status(disc, locals_) == "unknown"

    @pytest.mark.parametrize("pole", [F(0), F(2), INFINITY])
    @pytest.mark.parametrize("terms", [
        {F(-3): F(-1)},          # y = z at infinity: the leading term
        {F(0): F(5)},
        {F(-1): F(1), F(2): F(-7, 3)},
        {}])
    def test_fabricated_cluster_is_not_trusted(self, pole, terms):
        """An exact rational cluster that is not a root of the curve
        y^2 = z^2 + 1 fails the substitution proof, so the verdict comes
        from sympy and stays unknown."""
        disc, locals_ = pole_locals(GENERATED["z2_plus_1"], 0)
        real = locals_[0]
        fake = PuiseuxCluster(Series(terms), 1, FieldTower())
        forged = LocalModule(pole, 2, real.nu, [HTLCell(fake)] + real.cells,
                             [fake] + real.clusters, real.tower,
                             real.local_charpoly, real.a_mat, real.nterms,
                             real.vdisc)
        assert irreducibility_status(disc, [forged, real]) == "unknown"


# the blocks of the direct sums
BLOCKS = {
    "airy": [["0", "1"], ["z", "0"]],
    "airy_2z": [["0", "1"], ["2*z", "0"]],
    "airy_3": [["0", "1", "0"], ["0", "0", "1"], ["z", "0", "0"]],
    "gen_airy_3": [["0", "1"], ["z^3", "0"]],
    "sqrt2_lines": [["0", "1"], ["2*z^2", "0"]],
    "z2_plus_1": [["0", "1"], ["z^2 + 1", "0"]],
    "fuchsian": [["1/z + 2/(z - 1)", "3/z"], ["1/(z - 1)", "-1/z"]],
    "rank1": [["5/z + z"]],
}


def direct_sum(names, seed):
    """The cleared charpoly of the direct sum of the named blocks,
    conjugated by a seeded unimodular matrix."""
    blocks = [BLOCKS[name] for name in names]
    n = sum(map(len, blocks))
    rows, at = [["0"] * n for _ in range(n)], 0
    for block in blocks:
        for i, row in enumerate(block):
            rows[at + i][at:at + len(row)] = row
        at += len(block)
    return CharpolyDiscriminant(charpoly(conjugate_by(mat(rows),
                                                     unimodular(n, seed))))


class TestSpecializationCertificate:
    @pytest.mark.parametrize("text", [
        dense_fuchs(2), dense_fuchs(3), SQRT2_LINES,
        *(family(3, seed) for family in (fuchs, irreg) for seed in (1, 2, 3))])
    def test_unknown_without_sympy(self, text, monkeypatch):
        """Irreducible over Q(z), these curves reach the specialization:
        F(2, y) is irreducible over Q, so sympy is never asked."""
        disc, locals_ = pole_locals(text, 0)
        monkeypatch.setattr(rigidity, "_bipoly_to_sympy", no_sympy)
        assert irreducibility_status(disc, locals_) == "unknown"

    @pytest.mark.parametrize("rows, fibers", [
        # y^2 = 2 z: y^2 - 4 splits over z = 2, y^2 - 6 does not
        ([["0", "1"], ["2*z", "0"]], [[-4, 0, 1], [-6, 0, 1]]),
        # (z - 2) y^2 = 1: D vanishes at 2, y^2 - 1 splits over z = 3
        ([["0", "1"], ["1/(z - 2)", "0"]], [[-1, 0, 1], [-1, 0, 2]])])
    def test_fibers_tried_in_order(self, rows, fibers, monkeypatch):
        """z0 = 2, 3, ... until a fibre is irreducible, skipping a z0 where
        the leading coefficient D vanishes."""
        tried, factor = [], rigidity.factor_rational

        def spy(f):
            tried.append(list(f.coeffs))
            return factor(f)
        monkeypatch.setattr(rigidity, "factor_rational", spy)
        monkeypatch.setattr(rigidity, "_bipoly_to_sympy", no_sympy)
        assert irreducibility_status(disc_of(rows), []) == "unknown"
        assert tried == fibers

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(sorted(BLOCKS)), min_size=1, max_size=2,
                    unique=True),
           st.integers(0, 20))
    @example(["airy", "airy_2z"], 0)
    @example(["sqrt2_lines", "z2_plus_1"], 3)
    def test_direct_sums_agree_with_sympy(self, names, seed):
        """A direct sum of two blocks is reducible and no fibre certifies
        it; a single block is its own system.  Either way the verdict is
        sympy's.  No local module is passed, so that neither of the first
        two certificates decides."""
        disc = direct_sum(names, seed)
        assert irreducibility_status(disc, []) == \
            sympy_irreducibility_status(disc, [])


class TestSmoothness:
    def test_smooth(self):
        disc = disc_of([["0", "1"], ["z", "0"]])
        assert smoothness_check_finite_part(disc, [INFINITY]) == ("ok", None)

    def test_rational_singular_point(self):
        disc = disc_of([["0", "1"], ["z^2", "0"]])
        status, detail = smoothness_check_finite_part(disc, [INFINITY])
        assert status == "singular"
        assert "z = 0" in detail

    def test_first_singular_factor_in_factor_order(self):
        # the discriminant 4 (z - 1)^2 (z - 2)^3 lists z - 1 first by
        # multiplicity; by factor_order z - 2 comes first and is named
        disc = disc_of([["0", "1"], ["(z - 1)^2*(z - 2)^3", "0"]])
        assert smoothness_check_finite_part(disc, [INFINITY]) == \
            ("singular", "singular point over z = 2")

    def test_singular_point_at_declared_pole_excluded(self):
        disc = disc_of([["0", "1"], ["z^2", "0"]])
        status, _ = smoothness_check_finite_part(disc, [F(0), INFINITY])
        assert status == "ok"

    def test_irrational_singular_point(self):
        # y^2 = (z^2 - 2)^3 has singular points over z = +-sqrt(2)
        disc = disc_of([["0", "1"], ["(z^2 - 2)^3", "0"]])
        status, detail = smoothness_check_finite_part(disc, [INFINITY])
        assert status == "singular"
        assert "irrational" in detail

    def test_degree_bound_gives_indeterminate(self, monkeypatch):
        monkeypatch.setattr(tower, "DEGREE_BOUND", 1)
        disc = disc_of([["0", "1"], ["(z^2 - 2)^3", "0"]])
        status, detail = smoothness_check_finite_part(disc, [INFINITY])
        assert status == "indeterminate"
