"""Per-pole modules: HTL cells, assumption gate, irregularities."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (FUCHSIAN, conjugate_by, dense_fuchs, fuchs, local_at,
                      mat, problem, unimodular)
from specrig import localmod, pipeline, splitting
from specrig.errors import (AmbiguousComparison, InsufficientTruncation,
                            InternalInconsistency, ReductionUnavailable,
                            SpecrigError, UnsupportedExtension)
from specrig.localmod import (check_assumption, delta_end,
                              discriminant_identity_holds, irr_end,
                              irr_hom, irregularity, reduction_cross_check)
from specrig.ratfn import INFINITY


F = Fraction


@pytest.fixture
def airy_local():
    return local_at(mat([["0", "1"], ["z", "0"]]), INFINITY)


@pytest.fixture
def fuchsian_local():
    return local_at(mat([["(1/2)/z", "0"], ["0", "(1/3)/z"]]), F(0))


class TestCells:
    def test_airy_cell(self, airy_local):
        assert airy_local.nu == 3
        assert airy_local.m == 1
        cell = airy_local.cells[0]
        assert (cell.p, cell.r) == (3, 2)
        assert list(cell.q.terms) == [F(-3, 2)]
        assert cell.q.terms[F(-3, 2)] ** 2 == 1
        assert not cell.is_regular

    def test_rank1_irregular_cell(self):
        local = local_at(mat([["1/z^2"]]), F(0))
        cell = local.cells[0]
        assert (cell.p, cell.r) == (1, 1)
        assert cell.q.terms == {F(-1): 1}

    def test_regular_cells(self, fuchsian_local):
        assert [c.p for c in fuchsian_local.cells] == [0, 0]
        assert all(c.is_regular for c in fuchsian_local.cells)

    def test_cell_order_is_stable(self):
        # steepest slope first
        local = local_at(mat([["1/z^3", "0"], ["0", "1/z^2"]]), F(0))
        assert [(c.p, c.r) for c in local.cells] == [(2, 1), (1, 1)]


class TestAssumptionGate:
    def test_airy_multiplicity_free(self, airy_local):
        assert check_assumption(airy_local)
        assert airy_local.mode == "multiplicity-free"
        assert airy_local.violation is None

    def test_fuchsian_regular_semisimple(self, fuchsian_local):
        assert check_assumption(fuchsian_local)
        assert fuchsian_local.mode == "regular-semisimple"
        assert sorted(c.residue for c in fuchsian_local.cells) == \
            [F(1, 3), F(1, 2)]

    def test_bessel_violation(self):
        local = local_at(mat([["0", "1"], ["1/z", "0"]]), F(0))
        assert not check_assumption(local)
        assert "ramification 2" in local.violation

    def test_coinciding_forms_violation(self):
        a = mat([["1/z^2", "0"], ["0", "1/z^2 + 1"]])
        local = local_at(a, F(0))
        assert not check_assumption(local)
        assert "not pairwise distinct" in local.violation

    def test_repeated_residue_is_named(self):
        a = mat([["1/z", "1/z"], ["0", "1/z + 1"]])
        local = local_at(a, F(0))
        assert not check_assumption(local)
        assert local.violation == ("2 regular cells (q = 0) coincide, and "
                                   "the residue has the repeated "
                                   "eigenvalue 1")

    def test_dense_fuchs_rank4_refused_at_pole_0(self):
        with pytest.raises(pipeline.AssumptionFailure) as info:
            pipeline.run_analysis(problem(dense_fuchs(4)))
        assert info.value.pole == "0"
        assert info.value.detail == (
            "4 regular cells (q = 0) coincide, and the residue has the "
            "repeated eigenvalue 0")

    def test_failed_fallback_keeps_its_reason(self):
        # Jordan-block residue: two regular cells, and the splitting route
        # cannot separate the repeated eigenvalue of the leading matrix
        a = mat([["1/z", "1/z"], ["0", "1/z + 1"]])
        local = local_at(a, F(0))
        assert not check_assumption(local)
        assert "2 regular cells (q = 0) coincide" in local.violation
        assert "repeated eigenvalue" in local.violation

    def test_distinct_residues_rescue(self):
        # same exponential part is fine when the residues differ
        a = mat([["1/z^2", "0"], ["0", "1/z^2 + 1/z"]])
        local = local_at(a, F(0))
        assert check_assumption(local)
        assert local.mode == "regular-semisimple"


class TestIrregularity:
    def test_airy(self, airy_local):
        assert irregularity(airy_local) == 3
        cell = airy_local.cells[0]
        assert irr_hom(cell, cell) == 3
        assert irr_end(airy_local) == 3
        assert airy_local.m == 1
        assert delta_end(airy_local) == 6

    def test_fuchsian(self, fuchsian_local):
        check_assumption(fuchsian_local)
        assert irregularity(fuchsian_local) == 0
        assert irr_end(fuchsian_local) == 0
        assert delta_end(fuchsian_local) == 2

    def test_rank1(self):
        local = local_at(mat([["1/z^2"]]), F(0))
        check_assumption(local)
        assert irregularity(local) == 1
        assert delta_end(local) == 0

    def test_sibling_pair_cross_term(self):
        # q = +-z^{-1/2} and +-2z^{-1/2}: four cross pairs of contact -1/2
        a = mat([["0", "1", "0", "0"],
                 ["0", "0", "1", "0"],
                 ["0", "0", "0", "1"],
                 ["-4/z^6", "0", "5/z^3", "0"]])
        local = local_at(a, F(0))
        assert check_assumption(local)
        c1, c2 = local.cells
        assert (c1.p, c1.r) == (1, 2) and (c2.p, c2.r) == (1, 2)
        assert irr_hom(c1, c1) == 1
        assert irr_hom(c2, c2) == 1
        assert irr_hom(c1, c2) == 2
        assert irr_end(local) == 6
        assert delta_end(local) == 16 + 6 - 2

    def test_resonance_warning(self):
        a = mat([["1/z", "0"], ["0", "3/z"]])
        local = local_at(a, F(0))
        assert check_assumption(local)
        delta_end(local)
        resonant = [w for w in local.warnings if "resonant" in w]
        assert len(resonant) == 1  # none from delta_end

    def test_nonresonant_no_warning(self, fuchsian_local):
        check_assumption(fuchsian_local)
        assert fuchsian_local.warnings == []


class TestCrossChecks:
    def test_discriminant_identity_on_corpus(self, airy_local,
                                             fuchsian_local):
        assert discriminant_identity_holds(airy_local)
        assert discriminant_identity_holds(fuchsian_local)

    def test_reduction_matches_airy(self, airy_local):
        assert reduction_cross_check(airy_local)

    def test_reduction_agrees_on_residues(self, fuchsian_local):
        before = [c.residue for c in fuchsian_local.cells]
        assert sorted(before) == [F(1, 3), F(1, 2)]
        assert reduction_cross_check(fuchsian_local)
        assert [c.residue for c in fuchsian_local.cells] == before

    def test_reduction_refuses_a_wrong_residue(self, fuchsian_local):
        fuchsian_local.cells[0].residue += 1
        with pytest.raises(InternalInconsistency, match="residue"):
            reduction_cross_check(fuchsian_local)

    def test_reduction_on_sibling_pair(self):
        a = mat([["0", "1", "0", "0"],
                 ["0", "0", "1", "0"],
                 ["0", "0", "0", "1"],
                 ["-4/z^6", "0", "5/z^3", "0"]])
        local = local_at(a, F(0))
        assert reduction_cross_check(local)


# -- the local matrix is expanded only for the reduction route ---------------

LAZY_CASES = {
    "airy_rank3": "poles inf\nmatrix\n0, 1, 0\n0, 0, 1\nz, 0, 0\nend\n",
    "gen_airy_k4": "poles inf\nmatrix\n0, 1\nz^4, 0\nend\n",
    "example_fuchsian": "poles 0, inf\nmatrix\n(1/2)/z, 0\n0, (1/3)/z\nend\n",
    "dense_fuchs_rank2": "poles 0, 1, inf\nmatrix\n"
                         "1/z + 1/(z - 1), 3/z + 1/(z - 1)\n"
                         "2/z + 1/(z - 1), 4/z + 2/(z - 1)\nend\n",
    "dense_fuchs_rank3": dense_fuchs(3),
}


@pytest.fixture
def spies(monkeypatch):
    """Records every localize call and every module reaching the
    reduction route."""
    calls = {"localize": [], "reduction": []}
    localize = localmod.localize
    reduce = localmod.reduction_cross_check

    def spy_localize(a_mat, a, nterms):
        calls["localize"].append((a, nterms))
        return localize(a_mat, a, nterms)

    def spy_reduction(local):
        calls["reduction"].append(local)
        return reduce(local)

    monkeypatch.setattr(localmod, "localize", spy_localize)
    monkeypatch.setattr(localmod, "reduction_cross_check", spy_reduction)
    monkeypatch.setattr(pipeline, "reduction_cross_check", spy_reduction)
    return calls


def _reduced_at(calls):
    seen = {id(L): L for L in calls["reduction"]}.values()
    return sorted(((L.pole, L.nterms) for L in seen), key=str)


class TestLazyLocalMatrix:
    @pytest.mark.parametrize("name", ["airy_rank3", "gen_airy_k4"])
    def test_puiseux_route_never_expands(self, name, spies):
        pipeline.run_analysis(problem(LAZY_CASES[name]))
        assert spies["localize"] == []

    @pytest.mark.parametrize("check", [False, True])
    @pytest.mark.parametrize("name", ["example_fuchsian",
                                      "dense_fuchs_rank2"])
    def test_one_expansion_per_reduced_pole(self, name, check, spies):
        pipeline.run_analysis(problem(LAZY_CASES[name]),
                              check_reduction=check)
        # only --check-reduction reaches the reduction route
        assert bool(spies["reduction"]) == check
        assert sorted(spies["localize"], key=str) == _reduced_at(spies)

    @pytest.mark.parametrize("name", ["example_fuchsian",
                                      "dense_fuchs_rank2",
                                      "dense_fuchs_rank3"])
    def test_gate_runs_without_the_reduction_route(self, name, spies,
                                                   monkeypatch):
        def refuse(*args):
            raise AssertionError("the reduction route ran")

        monkeypatch.setattr(splitting, "htl_from_reduction", refuse)
        doc, _ = pipeline.run_analysis(problem(LAZY_CASES[name]))
        assert spies["localize"] == [] and spies["reduction"] == []
        assert {b["mode"] for b in doc["poles"]} == {"regular-semisimple"}

    def test_built_once_and_cached(self, spies):
        local = local_at(mat([["(1/2)/z", "0"], ["0", "(1/3)/z"]]), F(0))
        assert spies["localize"] == []
        first = local.local_matrix
        assert local.local_matrix is first
        assert spies["localize"] == [(F(0), local.nterms)]

    def test_retry_expands_at_the_new_order(self, spies, monkeypatch):
        """Each forced InsufficientTruncation, at the build, the reduction
        cross-check (run under check_reduction) or the germ, re-analyses
        only its pole, at twice the order; the matrix is expanded at every
        order that got past the build."""
        build = localmod.localize_charpoly
        cross_check = localmod.reduction_cross_check
        germ_data = pipeline.GermData
        for stages, failing in ((["germ"], (0, 1, INFINITY)),
                                (["build", "germ"], (1,)),
                                (["build", "reduction", "germ"],
                                 (INFINITY,))):
            pending = {pole: list(stages) if pole in failing else []
                       for pole in (0, 1, INFINITY)}
            orders = {pole: [] for pole in pending}

            def fail(pole, stage):
                if pending[pole][:1] == [stage]:
                    pending[pole].pop(0)
                    raise InsufficientTruncation(f"forced at the {stage}")

            def charpoly_at(cp, a, nterms):
                orders[a].append(nterms)
                fail(a, "build")
                return build(cp, a, nterms)

            def reduce(local):
                ok = cross_check(local)
                fail(local.pole, "reduction")
                return ok

            def germ(local):
                fail(local.pole, "germ")
                return germ_data(local)

            monkeypatch.setattr(localmod, "localize_charpoly", charpoly_at)
            monkeypatch.setattr(pipeline, "reduction_cross_check", reduce)
            monkeypatch.setattr(pipeline, "GermData", germ)
            spies["localize"].clear()
            spies["reduction"].clear()
            pipeline.run_analysis(problem(LAZY_CASES["dense_fuchs_rank2"]),
                                  check_reduction=True)
            calls = spies["localize"]
            for pole, seen in orders.items():
                fails = stages if pole in failing else []
                assert seen == [seen[0] * 2 ** k
                                for k in range(len(fails) + 1)], stages
                assert [n for a, n in calls if a == pole] == \
                    seen[fails.count("build"):], stages
            assert sorted(calls, key=str) == _reduced_at(spies)


# -- the gate and the reduction route agree ----------------------------------

FUCHSIAN_INPUTS = st.one_of(
    st.sampled_from([FUCHSIAN, dense_fuchs(2), dense_fuchs(3)]),
    st.builds(fuchs, st.integers(2, 3), st.integers(0, 10 ** 6)))


def _same_multiset(xs, ys):
    rest = list(xs)
    for y in ys:
        hit = next((i for i, x in enumerate(rest) if x == y), None)
        if hit is None:
            return False
        rest.pop(hit)
    return not rest


@settings(max_examples=15, deadline=None)
@given(FUCHSIAN_INPUTS, st.integers(0, 10 ** 6))
def test_gate_agrees_with_the_reduction_route(text, seed):
    """Wherever htl_from_reduction runs, the mode its (q, residue) pairs
    give and its residues are the gate's, under a unimodular
    conjugation."""
    spec = problem(text)
    a = conjugate_by(spec.matrix, unimodular(spec.matrix.n, seed))
    for pole in spec.poles:
        try:
            local = local_at(a, pole)
        except SpecrigError:
            return  # charpoly not squarefree, or no supported extension
        if local.nu == 0:
            continue
        check_assumption(local)
        s = lcm(*(c.r for c in local.cells))
        try:
            red = splitting.htl_from_reduction(local.local_matrix, s,
                                               local.tower)
        except (ReductionUnavailable, AmbiguousComparison,
                UnsupportedExtension, InsufficientTruncation):
            continue
        distinct = all(not (qi.terms == qj.terms and ri == rj)
                       for i, (qi, ri) in enumerate(red)
                       for qj, rj in red[i + 1:])
        assert local.mode == ("regular-semisimple" if distinct else None)
        if all(c.r == 1 for c in local.cells):
            assert _same_multiset([c.residue for c in local.cells],
                                  [r for _, r in red])
