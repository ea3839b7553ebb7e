"""End-to-end analysis: verdict states, flags, warnings."""

from fractions import Fraction

import pytest

from conftest import (CORPUS, EXAMPLE_TEXTS, GENERATED, SQRT2_LINES,
                      conjugate_by, no_sympy, unimodular)
from specrig import germs, localmod, pipeline, qpoly, rigidity
from specrig.errors import InputError, InsufficientTruncation
from specrig.matrf import (CharpolyDiscriminant, charpoly,
                           default_truncation, pole_order)
from specrig.parsing import ProblemSpec, parse_problem
from specrig.pipeline import (TRUNCATION_ATTEMPTS, AssumptionFailure,
                              first_truncation, run_analysis,
                              truncation_orders)
from specrig.qpoly import UPoly
from specrig.ratfn import RatFn
from specrig.report import render_text
from specrig.series import Series
from specrig.tower import TowerElem


F = Fraction

UNKNOWN_CURVE = "poles inf\nmatrix\n0, 1\nz^2 + 1, 0\nend\n"
RESONANT = "poles 0, inf\nmatrix\n1/z, 0\n0, 3/z\nend\n"


def run(text, **kw):
    return run_analysis(parse_problem(text), **kw)


class TestVerdicts:
    def test_airy_true(self):
        doc, code = run(CORPUS["airy"])
        assert code == 0
        assert doc["global"]["main_theorem"] == "true"

    def test_reducible_not_applicable(self):
        doc, code = run(CORPUS["fuchsian"])
        assert code == 0
        assert "reducible" in doc["global"]["main_theorem"]
        assert doc["global"]["chi"] == doc["global"]["rig"] == 4

    def test_oracle_mu_off_by_two_fails_both_verdicts(self, monkeypatch):
        # an even shift keeps 2 delta = mu + r_C - 1 even, so only a delta
        # identity read off the oracle's mu can see it
        oracle = germs.germ_milnor_oracle
        monkeypatch.setattr(germs, "germ_milnor_oracle",
                            lambda g: oracle(g) + 2)
        doc, code = run(EXAMPLE_TEXTS["example_airy"])
        assert code == 1
        assert [p["verdicts"] for p in doc["poles"]] == [
            {"milnor": False, "delta_identity": False}]

    def test_undecided_irreducibility(self):
        doc, _ = run(UNKNOWN_CURVE)
        assert doc["global"]["irreducibility"] == "unknown"
        assert "undecided" in doc["global"]["main_theorem"]

    def test_assume_irreducible_flag(self):
        doc, code = run(UNKNOWN_CURVE, assume_irreducible_curve=True)
        assert code == 0
        assert doc["global"]["irreducibility"] == "assumed-irreducible"
        assert doc["global"]["main_theorem"] == "true"
        assert doc["global"]["chi"] == doc["global"]["rig"] == 2

    def test_lines_over_a_quadratic_field_are_undecided(self):
        doc, _ = run(SQRT2_LINES)
        assert doc["global"]["irreducibility"] == "unknown"

    def test_lines_over_a_quadratic_field_can_only_be_assumed(self):
        doc, _ = run(SQRT2_LINES, assume_irreducible_curve=True)
        assert doc["global"]["irreducibility"] == "assumed-irreducible"

    @pytest.mark.parametrize("kw", [{}, {"truncation": 1},
                                    {"truncation": 40},
                                    {"check_reduction": True}])
    def test_lines_over_a_quadratic_field_are_never_irreducible(self, kw):
        """Over Q-bar the curve splits, so no certificate may claim it
        irreducible, at any truncation order or with the reduction
        route."""
        doc, _ = run(SQRT2_LINES, **kw)
        assert doc["global"]["irreducibility"] != "irreducible"

    def test_finite_singularity_not_applicable(self):
        doc, code = run("poles inf\nmatrix\n0, 1\nz^3, 0\nend\n")
        assert code == 0
        g = doc["global"]
        assert "singular" in g["main_theorem"]
        # the identity chain itself still closes
        assert g["chi"] == g["rig"] == 0

    def test_resonance_warning(self):
        doc, _ = run(RESONANT)
        assert any("resonant" in w for w in doc["warnings"])
        # reducibility is reported ahead of the resonance caveat
        assert doc["global"]["main_theorem"].startswith("not-applicable")

    def test_assumption_failure_raises(self):
        with pytest.raises(AssumptionFailure) as exc:
            run("poles 0, inf\nmatrix\n0, 1\n1/z, 0\nend\n")
        assert exc.value.pole == "0"

    def test_undeclared_pole_raises(self):
        with pytest.raises(InputError):
            run("poles inf\nmatrix\n1/z\nend\n")

    @pytest.mark.parametrize("order", [0, -3])
    def test_nonpositive_truncation_refused_before_any_work(
            self, order, monkeypatch):
        def charpoly(_):
            raise AssertionError("analysis started")

        monkeypatch.setattr(pipeline, "charpoly", charpoly)
        with pytest.raises(InputError, match=f"truncation order .*{order}"):
            run(CORPUS["airy"], truncation=order)

    def test_high_degree_reducible_curve_skips_sympy(self, monkeypatch):
        """y^2 = z^1000 splits as y = +-z^500; both branches at infinity
        are exact and rational, so the substitution proof decides and
        sympy's bivariate factorization is never reached."""
        monkeypatch.setattr(rigidity, "_bipoly_to_sympy", no_sympy)
        doc, code = run("poles inf\nmatrix\n0, 1\nz^1000, 0\nend\n")
        assert code == 0
        assert doc["global"]["irreducibility"] == "reducible"


def _first_orders(spec):
    cp = charpoly(spec.matrix)
    disc = CharpolyDiscriminant(cp)
    return {pole: first_truncation(
        cp, disc, pole,
        default_truncation(spec.matrix.n, pole_order(spec.matrix, pole)))
        for pole in spec.poles}


class TestPrecisionPolicy:
    def test_orders_double_up_to_the_ceiling(self):
        assert list(truncation_orders(5, 5)) == [5, 10, 20, 40]
        assert list(truncation_orders(3, 20)) == [3, 6, 12, 24, 48, 96, 160]
        assert list(truncation_orders(20, 20)) == [20, 40, 80, 160]
        assert list(truncation_orders(1, 1)) == \
            [2 ** k for k in range(TRUNCATION_ATTEMPTS)]

    @pytest.mark.parametrize("name", ["dense_fuchs_2", "dense_fuchs_3"])
    def test_first_order_on_dense_fuchsian_poles(self, name):
        """Three orders is the least that analyses these poles in one
        attempt; the estimate finds it from cp and disc alone."""
        assert set(_first_orders(parse_problem(GENERATED[name])).values()) \
            == {3}

    @pytest.mark.parametrize("name", ["airy_4", "gen_airy_7",
                                      "diag_irreg_4", "example_bessel"])
    def test_laurent_polynomial_poles_start_at_one_order(self, name):
        assert set(_first_orders(parse_problem(GENERATED[name])).values()) \
            == {1}

    def test_first_order_never_passes_the_default(self):
        spec = parse_problem(GENERATED["dense_fuchs_3"])
        cp = charpoly(spec.matrix)
        disc = CharpolyDiscriminant(cp)
        assert first_truncation(cp, disc, 0, 2) == 2

    def test_pole_needing_more_than_the_first_order_finishes(
            self, monkeypatch):
        """Three forced shortfalls at pole 1 re-analyse it at 2, 4 and 8
        times its first order; the report is the one-attempt report."""
        text = GENERATED["dense_fuchs_2"]
        expected, _ = run(text)
        first = _first_orders(parse_problem(text))
        build = localmod.localize_charpoly
        orders = {pole: [] for pole in first}

        def short_at_one(cp, a, nterms):
            orders[a].append(nterms)
            if a == 1 and len(orders[a]) <= 3:
                raise InsufficientTruncation("forced")
            return build(cp, a, nterms)

        monkeypatch.setattr(localmod, "localize_charpoly", short_at_one)
        doc, code = run(text)
        assert code == 0
        assert doc == expected
        assert orders[1] == [first[1] * 2 ** k for k in range(4)]
        assert all(orders[p] == [first[p]] for p in first if p != 1)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", sorted(GENERATED))
    def test_every_pole_is_built_once(self, name, seed, monkeypatch):
        spec = parse_problem(GENERATED[name])
        if seed:
            spec = ProblemSpec("z", [], conjugate_by(
                spec.matrix, unimodular(spec.matrix.n, seed)), spec.poles,
                spec.genus)
        built = []
        build = pipeline.build_local

        def spy(a_mat, a, nterms, cp, disc):
            built.append((a, nterms))
            return build(a_mat, a, nterms, cp, disc)

        monkeypatch.setattr(pipeline, "build_local", spy)
        try:
            run_analysis(spec)
        except AssumptionFailure:  # example_bessel, refused at pole 0
            assert built == [(0, 1)]
            return
        assert built == list(_first_orders(spec).items())


def _numbers(x):
    """Every coefficient and exponent inside x, through polynomials,
    rational functions, series, truncated integer series and tower
    elements."""
    if isinstance(x, UPoly):
        for c in x.coeffs:
            yield from _numbers(c)
    elif isinstance(x, RatFn):
        yield from _numbers(x.num)
        yield from _numbers(x.den)
    elif isinstance(x, Series):
        for e, c in x.terms.items():
            yield e
            yield from _numbers(c)
        if x.prec is not None:
            yield x.prec
    elif isinstance(x, qpoly._ZSeries):
        yield from x.c
        if x.prec is not None:
            yield x.prec
    elif isinstance(x, TowerElem):
        for c in x.coeffs:
            yield from _numbers(c)
    else:
        yield x


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_exact_data_holds_no_float(name, monkeypatch):
    """The charpoly, its discriminant, every local charpoly and cluster
    representative, and every germ equation of an analysis hold
    rationals (int or Fraction), never a float."""
    data = []
    build, equation = pipeline.build_local, germs.germ_equation

    def build_spy(a_mat, a, nterms, cp, disc):
        local = build(a_mat, a, nterms, cp, disc)
        data.extend([cp, disc.res, local.local_charpoly]
                    + [c.rep for c in local.clusters])
        return local

    def equation_spy(g):
        factors = equation(g)
        data.extend(factors)
        return factors

    monkeypatch.setattr(pipeline, "build_local", build_spy)
    monkeypatch.setattr(germs, "germ_equation", equation_spy)
    try:
        run(GENERATED[name])
    except AssumptionFailure:  # example_bessel, refused at pole 0
        pass
    values = [v for x in data for v in _numbers(x)]
    assert values
    assert all(isinstance(v, (int, Fraction)) for v in values)


class TestDocument:
    def test_per_pole_verdicts(self):
        doc, _ = run(CORPUS["fuchsian"])
        for p in doc["poles"]:
            assert p["verdicts"] == {"milnor": True, "delta_identity": True}

    def test_spurious_pole_warning(self):
        doc, code = run("poles 0, 1\nmatrix\n1/z^2\nend\n")
        assert code == 0
        assert any("z = 1" in w for w in doc["warnings"])
        # the non-pole point is warned about, not analyzed
        assert [p["point"] for p in doc["poles"]] == ["0"]

    def test_cohomology_warning_when_rig_large(self):
        doc, _ = run(CORPUS["airy"], assert_irreducible_connection=True)
        assert doc["global"]["h_dims"] == [1, 0, 1]
        assert not any("h^1" in w for w in doc["warnings"])
        doc, _ = run(CORPUS["fuchsian"], assert_irreducible_connection=True)
        assert doc["global"]["h_dims"] == [1, -2, 1]
        assert any("h^1" in w for w in doc["warnings"])

    def test_reduction_flag(self):
        doc, code = run(CORPUS["airy"], check_reduction=True)
        assert code == 0

    def test_render_text_sections(self):
        doc, _ = run(RESONANT)
        text = render_text(doc)
        assert "warnings:" in text
        doc, _ = run(CORPUS["airy"])
        assert "warnings:" not in render_text(doc)
