"""Global invariants: genus, Euler characteristic, rigidity, smoothness."""

from fractions import Fraction

import pytest

from conftest import local_at, mat
from specrig.errors import SpecrigError
from specrig.germs import GermData
from specrig.localmod import check_assumption
from specrig import matrf, tower
from specrig.matrf import CharpolyDiscriminant, charpoly, cleared_charpoly
from specrig.ratfn import INFINITY
from specrig.rigidity import (CurveClass, arithmetic_genus,
                              cohomology_dims, euler_char_normalization,
                              irreducibility_status, rigidity_index,
                              smoothness_check_finite_part,
                              total_inf_intersection, verify_milnor_per_pole)


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


class TestSmoothness:
    def test_smooth(self):
        disc = disc_of([["0", "1"], ["z", "0"]])
        assert smoothness_check_finite_part(disc, [INFINITY]) == ("ok", None)

    def test_rational_singular_point(self):
        disc = disc_of([["0", "1"], ["z^2", "0"]])
        status, detail = smoothness_check_finite_part(disc, [INFINITY])
        assert status == "singular"
        assert "z = 0" in detail

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
