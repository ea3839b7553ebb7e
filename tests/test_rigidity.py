"""Global invariants: genus, Euler characteristic, rigidity, smoothness."""

from fractions import Fraction

import pytest

from conftest import mat
from specrig.errors import SpecrigError
from specrig.germs import GermData
from specrig.localmod import build_local, check_assumption
from specrig import rigidity
from specrig.matrf import CharpolyDiscriminant, charpoly
from specrig.ratfn import INFINITY
from specrig.rigidity import (CurveClass, arithmetic_genus, cleared_charpoly,
                              cohomology_dims, euler_char_normalization,
                              irreducibility_status, rigidity_index,
                              smoothness_check_finite_part,
                              total_inf_intersection, verify_milnor_per_pole)


F = Fraction


def analyzed(rows, poles):
    a = mat(rows)
    locals_ = []
    germs = []
    for p in poles:
        local = build_local(a, p)
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
        _, locals_, germs = analyzed([["0", "1"], ["z", "0"]], [INFINITY])
        assert verify_milnor_per_pole(locals_[0], germs[0])

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
        cp = charpoly(mat([["0", "1"], ["z", "0"]]))
        assert irreducibility_status(cp, locals_) == "irreducible"

    def test_reducible_diagonal(self):
        a = mat([["(1/2)/z", "0"], ["0", "(1/3)/z"]])
        _, locals_, _ = analyzed([["(1/2)/z", "0"], ["0", "(1/3)/z"]],
                                 [F(0), INFINITY])
        assert irreducibility_status(charpoly(a), locals_) == "reducible"

    def test_unknown_without_certificate(self):
        rows = [["0", "1"], ["z^2 + 1", "0"]]
        _, locals_, _ = analyzed(rows, [INFINITY])
        assert irreducibility_status(charpoly(mat(rows)), locals_) == \
            "unknown"


    @pytest.mark.parametrize("rows", [
        [["(1/2)/z", "0"], ["0", "(1/3)/z"]],
        [["0", "1"], ["z^2 + 1", "0"]],
        [["1/z", "1"], ["1", "z"]]])
    def test_reuses_the_cleared_charpoly(self, rows, monkeypatch):
        cp = charpoly(mat(rows))
        expected = irreducibility_status(cp, [])
        disc = CharpolyDiscriminant(cp)

        def no_clearing(_):
            raise AssertionError("charpoly cleared a second time")
        monkeypatch.setattr(rigidity, "cleared_charpoly", no_clearing)
        assert irreducibility_status(cp, [], disc=disc) == expected


class TestSmoothness:
    def test_smooth(self):
        cp = charpoly(mat([["0", "1"], ["z", "0"]]))
        assert smoothness_check_finite_part(cp, [INFINITY]) == ("ok", None)

    def test_rational_singular_point(self):
        cp = charpoly(mat([["0", "1"], ["z^2", "0"]]))
        status, detail = smoothness_check_finite_part(cp, [INFINITY])
        assert status == "singular"
        assert "z = 0" in detail

    def test_singular_point_at_declared_pole_excluded(self):
        cp = charpoly(mat([["0", "1"], ["z^2", "0"]]))
        status, _ = smoothness_check_finite_part(cp, [F(0), INFINITY])
        assert status == "ok"

    def test_irrational_singular_point(self):
        # y^2 = (z^2 - 2)^3 has singular points over z = +-sqrt(2)
        cp = charpoly(mat([["0", "1"], ["(z^2 - 2)^3", "0"]]))
        status, detail = smoothness_check_finite_part(cp, [INFINITY])
        assert status == "singular"
        assert "irrational" in detail

    def test_degree_bound_gives_indeterminate(self):
        cp = charpoly(mat([["0", "1"], ["(z^2 - 2)^3", "0"]]))
        status, detail = smoothness_check_finite_part(cp, [INFINITY],
                                                      degree_bound=1)
        assert status == "indeterminate"
