"""End-to-end analysis: verdict states, flags, warnings."""

from fractions import Fraction

import pytest

from conftest import CORPUS, no_sympy
from specrig import pipeline, rigidity
from specrig.errors import InputError
from specrig.parsing import parse_problem
from specrig.pipeline import AssumptionFailure, run_analysis
from specrig.report import render_text


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
