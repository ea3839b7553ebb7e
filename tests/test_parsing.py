"""Problem-file parser: expressions, directives, diagnostics, round-trip."""

import random
from fractions import Fraction

import pytest

from conftest import poly_to_string, ratfn_to_string
from specrig.errors import InputError
from specrig.parsing import (MAX_EXPONENT, parse_expression, parse_pole,
                             parse_problem)
from specrig.qpoly import UPoly
from specrig.ratfn import INFINITY, RatFn


F = Fraction
Z = RatFn.var()


class TestExpressions:
    def test_arithmetic(self):
        assert parse_expression("z^2 + 1") == Z ** 2 + 1
        assert parse_expression("(z - 1)*(z + 1)") == Z ** 2 - 1
        assert parse_expression("1/z^2") == 1 / Z ** 2
        assert parse_expression("-z") == -Z
        assert parse_expression("2 - - 3") == RatFn.const(5)

    def test_precedence(self):
        # ^ binds tighter than * and /
        assert parse_expression("3/4*z^2") == RatFn.const(F(3, 4)) * Z ** 2
        assert parse_expression("2*z + 1") == 2 * Z + 1

    def test_negative_exponent(self):
        assert parse_expression("z^-2") == 1 / Z ** 2

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(InputError, match="non-integer exponent"):
            parse_expression("z^(1/2)")

    def test_non_constant_exponent_rejected(self):
        with pytest.raises(InputError, match="non-constant exponent"):
            parse_expression("z^z")

    def test_exponent_bound(self):
        assert parse_expression(f"z^{MAX_EXPONENT}").num.degree == \
            MAX_EXPONENT
        assert parse_expression(f"z^-{MAX_EXPONENT}").den.degree == \
            MAX_EXPONENT
        for text in (f"z^{MAX_EXPONENT + 1}", f"z^-{MAX_EXPONENT + 1}",
                     "2^(10^(10^3))"):
            with pytest.raises(InputError, match="line 3, column 2: "
                                                 "exponent exceeds"):
                parse_expression(text, line=3)

    def test_degree_bound(self):
        for text in ("z^500 * z^500", "(z^2)^500", "z / (z + 1)^1000",
                     "(1/z^2)^500", "1/z^500 - 1/(z^500 + 1)"):
            f = parse_expression(text)
            assert max(f.num.degree, f.den.degree) == MAX_EXPONENT
        for text, col in (("(z^1000)^1000", 9), ("z^600 * z^600", 7),
                          ("z^600 / (1/z^600)", 7), ("(1/z^2)^501", 8),
                          ("1/(z^500) / (z^501)", 11),
                          ("1/(z^1000 + 1) + 1/(z^1000 + 2)", 16),
                          ("z - 1/z^1000", 3)):
            with pytest.raises(InputError, match=f"line 3, column {col}: "
                                                 "degree exceeds the bound"):
                parse_expression(text, line=3)

    def test_gen_airy_k30_parses(self):
        spec = parse_problem("poles inf\nmatrix\n0, 1\nz^30, 0\nend\n")
        assert spec.matrix[1, 0] == Z ** 30

    def test_unknown_symbol(self):
        with pytest.raises(InputError, match="unknown symbol"):
            parse_expression("w + 1")

    def test_division_by_zero(self):
        with pytest.raises(InputError, match="division by zero"):
            parse_expression("1/(z - z)")

    def test_error_carries_position(self):
        with pytest.raises(InputError, match="line 3, column 5"):
            parse_expression("1 + @", line=3, col0=0)

    def test_unbalanced_parenthesis(self):
        with pytest.raises(InputError):
            parse_expression("(z + 1")

    def test_trailing_garbage(self):
        with pytest.raises(InputError, match="unexpected"):
            parse_expression("z z")


class TestPoles:
    def test_tokens(self):
        assert parse_pole("inf", 1) == INFINITY
        assert parse_pole("-3/2", 1) == F(-3, 2)
        with pytest.raises(InputError, match="invalid pole"):
            parse_pole("abc", 1)


class TestProblems:
    def test_full_file(self, corpus):
        spec = parse_problem(corpus["airy"])
        assert spec.n == 2
        assert spec.poles == [INFINITY]
        assert spec.genus == 0
        assert spec.matrix.entries[1][0] == Z

    def test_comments_and_variable(self):
        text = ("# a comment\nvariable t\npoles 0\nmatrix\n"
                "1/t^2  # entry comment\nend\n")
        spec = parse_problem(text)
        assert spec.variable == "t"
        assert spec.matrix.entries[0][0] == 1 / Z ** 2

    def test_duplicate_pole(self):
        with pytest.raises(InputError, match="duplicate pole"):
            parse_problem("poles 0, 0\nmatrix\n1/z\nend\n")

    def test_not_square(self):
        with pytest.raises(InputError, match="not square"):
            parse_problem("poles 0\nmatrix\n1, z\nend\n")

    def test_missing_matrix(self):
        with pytest.raises(InputError, match="missing matrix"):
            parse_problem("poles 0\n")

    def test_unclosed_matrix(self):
        with pytest.raises(InputError, match="not closed"):
            parse_problem("poles 0\nmatrix\n1/z\n")

    def test_missing_poles(self):
        with pytest.raises(InputError, match="missing poles"):
            parse_problem("matrix\n1/z\nend\n")

    def test_empty_poles(self):
        with pytest.raises(InputError, match="empty"):
            parse_problem("poles\nmatrix\n1/z\nend\n")

    def test_nonzero_genus_rejected(self):
        with pytest.raises(InputError, match="genus 0"):
            parse_problem("genus 1\npoles 0\nmatrix\n1/z\nend\n")

    def test_unknown_directive(self):
        with pytest.raises(InputError, match="unknown directive"):
            parse_problem("degree 3\npoles 0\nmatrix\n1/z\nend\n")


class TestPrinting:
    def test_poly_to_string(self):
        assert poly_to_string(UPoly([F(0)])) == "0"
        assert poly_to_string(UPoly([F(-1), F(0), F(1)])) == "z^2 - 1"
        assert poly_to_string(UPoly([F(1, 2), F(-3)])) == "-3*z + 1/2"

    def test_ratfn_round_trip_samples(self):
        for text in ["z^2 + 1", "1/z", "(z - 1)/(z + 1)", "-5/2",
                     "(3*z^2 - z)/(z^3 + 7)"]:
            f = parse_expression(text)
            assert parse_expression(ratfn_to_string(f)) == f

    def test_ratfn_round_trip_random(self):
        rng = random.Random(17)
        for _ in range(40):
            num = UPoly([F(rng.randint(-9, 9), rng.randint(1, 4))
                         for _ in range(rng.randint(1, 4))])
            den = UPoly([F(rng.randint(-9, 9), rng.randint(1, 4))
                         for _ in range(rng.randint(0, 3))] + [F(1)])
            f = RatFn(num, den)
            assert parse_expression(ratfn_to_string(f)) == f
