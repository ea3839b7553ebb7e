"""Command-line interface: exit codes, output formats, golden reports."""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from conftest import (CORPUS, airy, dense_fuchs, diag_irreg, fuchs, gen_airy,
                      irreg, parse_report, problem_text)
from specrig import localmod, pipeline, tower
from specrig.cli import main
from specrig.errors import InsufficientTruncation
from specrig.matrf import default_truncation
from specrig.report import render_text, serialize


GOLDEN = pathlib.Path(__file__).parent / "golden"
ROOT = pathlib.Path(__file__).resolve().parent.parent


def write_problem(tmp_path, text, name="problem.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        assert main(["analyze", write_problem(tmp_path, CORPUS["airy"])]) == 0
        out = capsys.readouterr()
        assert out.err == ""

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/problem.txt"]) == 2
        assert "error" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        path = write_problem(tmp_path, "poles 0\nmatrix\nz^(1/2)\nend\n")
        assert main(["analyze", path]) == 2
        err = capsys.readouterr().err
        assert "non-integer exponent" in err

    def test_exponent_bound(self, tmp_path, capsys):
        path = write_problem(tmp_path, "poles inf\nmatrix\nz^200000\nend\n")
        t0 = time.perf_counter()
        assert main(["analyze", path]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "line 3, column 2: exponent exceeds" in capsys.readouterr().err

    def test_degree_bound(self, tmp_path, capsys):
        path = write_problem(
            tmp_path, "poles inf\nmatrix\n0, 1\n(z^1000)^1000, 0\nend\n")
        t0 = time.perf_counter()
        assert main(["analyze", path]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "line 4, column 9: degree exceeds the bound 1000" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [
        (b"poles inf\nmatrix\n0, 1\nz\xff, 0\nend\n",
         "error: 'utf-8' codec can't decode byte 0xff"),
        ("poles inf\nmatrix\n0, 1\nz^², 0\nend\n".encode(),
         "line 4, column 3: unexpected character '²'"),
        (b"poles inf\nmatrix\n0, 1\nz + " + b"9" * 5000 + b", 0\nend\n",
         "line 4, column 5: integer literal of 5000 digits is too long"),
    ], ids=["not-utf8", "superscript-digit", "over-digit-limit"])
    def test_unreadable_input_is_refused(self, tmp_path, capsys, content,
                                         message):
        path = tmp_path / "problem.txt"
        path.write_bytes(content)
        assert main(["analyze", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert message in out.err
        assert "Traceback" not in out.err

    def test_coefficient_past_the_digit_limit(self, tmp_path, capsys):
        """Every literal is inside the parser's limit, but the product
        N*N has 6000 digits; ordering the Puiseux roots by their text
        refuses it instead of crashing."""
        n = "7" * 3000
        path = write_problem(
            tmp_path, f"poles inf\nmatrix\n0, 1\n(z - {n}*{n})^2, 0\nend\n")
        assert main(["analyze", path]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "error: InputError: an exact coefficient grew past " \
            f"Python's limit of {sys.get_int_max_str_digits()} digits" \
            in out.err
        assert "Traceback" not in out.err

    @staticmethod
    def _orders_until_refused(path, monkeypatch, capsys, *options):
        """The orders at which a pole that never has enough terms is
        localized before the input is refused with exit code 2."""
        orders = []

        def never_enough(cp, a, nterms):
            orders.append(nterms)
            raise InsufficientTruncation("forced")

        monkeypatch.setattr(localmod, "localize_charpoly", never_enough)
        assert main(["analyze", path, *options]) == 2
        err = capsys.readouterr().err
        assert "error: InsufficientTruncation: forced" in err
        assert (f"(pole inf, truncation orders "
                f"{', '.join(map(str, orders))})") in err
        return orders

    @pytest.mark.parametrize("options", [[], ["--truncation", "50"],
                                         ["--truncation", "400"]])
    def test_exact_root_beside_a_truncated_one(self, tmp_path, capsys,
                                               options):
        """At each pole of diag(1/z, 2/(z - 1)) one root is an exact
        Laurent polynomial, the other a truncated series; the input is
        analysed, not refused for truncation."""
        path = write_problem(tmp_path, problem_text(
            ["0", "1", "inf"], [["1/z", "0"], ["0", "2/(z-1)"]]))
        assert main(["analyze", path, *options]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["global"]["irreducibility"] == "reducible"
        assert doc["global"]["rig"] == doc["global"]["chi"] == 2
        assert [p["verdicts"] for p in doc["poles"]] == \
            [{"milnor": True, "delta_identity": True}] * 3

    def test_exhausted_truncation(self, tmp_path, capsys, monkeypatch):
        """The orders double from the a-priori first order (1 here: the
        charpoly's coefficients are Laurent polynomials at infinity), and
        the last one is 8 times the default truncation."""
        orders = self._orders_until_refused(
            write_problem(tmp_path, CORPUS["airy"]), monkeypatch, capsys)
        last = 8 * default_truncation(2, 3)
        assert orders[0] == 1
        assert orders[-1] == last
        assert orders[:-1] == [2 ** k for k in range(len(orders) - 1)]
        assert orders[-2] < last <= 2 * orders[-2]

    def test_exhausted_truncation_override(self, tmp_path, capsys,
                                           monkeypatch):
        """--truncation N keeps the ladder N, 2N, 4N, 8N."""
        orders = self._orders_until_refused(
            write_problem(tmp_path, CORPUS["airy"]), monkeypatch, capsys,
            "--truncation", "5")
        assert orders == [5, 10, 20, 40]

    def test_truncation_above_the_bound(self, tmp_path, capsys):
        """An order past MAX_TRUNCATION is refused before any series is
        expanded."""
        path = write_problem(tmp_path, dense_fuchs(2))
        order = pipeline.MAX_TRUNCATION * 100
        start = time.perf_counter()
        assert main(["analyze", path, "--truncation", str(order)]) == 2
        assert time.perf_counter() - start < 1
        out = capsys.readouterr()
        assert out.err == (
            "error: InputError: truncation order (--truncation) must be "
            f"at most {pipeline.MAX_TRUNCATION}, got {order}\n")
        assert out.out == ""

    @pytest.mark.parametrize("order", ["0", "-1"])
    def test_nonpositive_truncation(self, tmp_path, capsys, order):
        path = write_problem(tmp_path, CORPUS["airy"])
        assert main(["analyze", path, f"--truncation={order}"]) == 2
        out = capsys.readouterr()
        assert f"error: InputError: truncation order must be at least 1, " \
            f"got {order}" in out.err
        assert out.out == ""

    def test_assumption_violation(self, tmp_path, capsys):
        path = write_problem(tmp_path, CORPUS_BESSEL)
        assert main(["analyze", path]) == 2
        out = capsys.readouterr()
        assert "assumption violation at pole 0" in out.err
        assert out.out == ""  # no invariants emitted


    def test_ramified_cell_sharing_its_principal_part(self, tmp_path,
                                                       capsys):
        """The scalar twist by 3/z^2 of a system with a ramified regular
        cell: the cell's q = 3/t is unramified, so both conjugates share
        it, and the gate refuses it as it refuses the untwisted input."""
        path = write_problem(
            tmp_path, "poles 0, inf\nmatrix\n1/z^2 + 3/z^2, 0, 0\n"
                      "0, 3/z^2, 1\n0, 1/z, 3/z^2\nend\n")
        assert main(["analyze", path]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "error: AssumptionFailure: assumption violation at pole 0: " \
            "2 conjugates of a cell of ramification 2 share its " \
            "principal part q: a multiplicity-2 cell" in out.err
        assert "Traceback" not in out.err


CORPUS_BESSEL = "poles 0, inf\nmatrix\n0, 1\n1/z, 0\nend\n"


class TestOutput:
    def test_json_document(self, tmp_path, capsys):
        main(["analyze", write_problem(tmp_path, CORPUS["airy"])])
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == "1"
        assert doc["global"]["rig"] == 2
        assert doc["poles"][0]["mu"] == doc["poles"][0]["mu_oracle"]

    def test_text_table(self, tmp_path, capsys):
        main(["analyze", write_problem(tmp_path, CORPUS["airy"]), "--text"])
        out = capsys.readouterr().out
        assert "Irr(End)" in out
        assert "main theorem: true" in out

    def test_determinism(self, tmp_path, capsys):
        path = write_problem(tmp_path, CORPUS["fuchsian"])
        main(["analyze", path])
        first = capsys.readouterr().out
        main(["analyze", path])
        second = capsys.readouterr().out
        assert first == second

    def test_report_round_trip(self, tmp_path, capsys):
        main(["analyze", write_problem(tmp_path, CORPUS["airy"])])
        out = capsys.readouterr().out
        doc = parse_report(out)
        assert serialize(doc) == out
        render_text(doc)  # renders without error

    def test_truncation_override(self, tmp_path, capsys):
        path = write_problem(tmp_path, CORPUS["airy"])
        code = main(["analyze", path, "--truncation", "40"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["global"]["rig"] == 2

    def test_cohomology_flag(self, tmp_path, capsys):
        path = write_problem(tmp_path, CORPUS["airy"])
        main(["analyze", path, "--assert-irreducible-connection"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["global"]["h_dims"] == [1, 0, 1]

    def test_check_reduction_flag(self, tmp_path, capsys):
        path = write_problem(tmp_path, CORPUS["airy"])
        assert main(["analyze", path, "--check-reduction"]) == 0


GOLDEN_CASES = {
    "airy": CORPUS["airy"],
    "gen_airy_3": gen_airy(3),
    "gen_airy_5": gen_airy(5),
    "fuchsian": CORPUS["fuchsian"],
    "rank1_irregular": CORPUS["rank1_irregular"],
    "rank1_regular": CORPUS["rank1_regular"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_reports(name, tmp_path, capsys):
    path = write_problem(tmp_path, GOLDEN_CASES[name])
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    expected = (GOLDEN / f"{name}.json").read_text()
    assert out == expected


# the cheapest generic dense inputs whose field towers reach height 2 (a
# cubic, then a quadratic); their reports were computed by the UPoly-based
# tower arithmetic that the tuple kernel of specrig.tower replaced
HEIGHT_TWO_CASES = {"fuchs_3_1": fuchs(3, 1), "irreg_3_1": irreg(3, 1)}


@pytest.mark.parametrize("name", sorted(HEIGHT_TWO_CASES))
def test_height_two_reports(name, tmp_path, capsys, monkeypatch):
    heights = []
    adjoin = tower.FieldTower.adjoin

    def spy(self, minpoly):
        alpha = adjoin(self, minpoly)
        heights.append(self.height)
        return alpha

    monkeypatch.setattr(tower.FieldTower, "adjoin", spy)
    path = write_problem(tmp_path, HEIGHT_TWO_CASES[name])
    assert main(["analyze", path]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()
    assert max(heights) == 2


COLD_RUN = """
import contextlib, io, json, sys
from specrig.cli import main
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    for args in json.loads(sys.argv[1]):
        main(["analyze", *args])
print("sympy" in sys.modules)
"""
EXAMPLE_FILES = sorted((ROOT / "examples_input").glob("*.txt"))


def _imports_sympy(paths, checked=()):
    """Whether a fresh interpreter imports sympy while it analyzes the
    problem files at paths, one after another, and then those at checked
    with --check-reduction."""
    runs = [[str(p)] for p in paths] + \
        [[str(p), "--check-reduction"] for p in checked]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")]
                               if p]))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_RUN, json.dumps(runs)],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    return {"True": True, "False": False}[proc.stdout.strip()]


@pytest.mark.parametrize("example", [p.name for p in EXAMPLE_FILES])
def test_examples_run_without_importing_sympy(example):
    """No example needs a factorization by sympy, so a fresh interpreter
    analyzes each one without importing it."""
    assert not _imports_sympy([ROOT / "examples_input" / example])


def test_irregular_ladder_runs_without_importing_sympy(tmp_path):
    """The polynomials that diag_irreg ranks 2-5 factor over Q split into
    rational linear factors, which are found before sympy is asked, so
    one interpreter analyzes those four and the example inputs without
    importing it."""
    paths = [write_problem(tmp_path, diag_irreg(n), f"diag_{n}.txt")
             for n in range(2, 6)]
    assert not _imports_sympy(paths + EXAMPLE_FILES)


def test_benchmark_inputs_run_without_importing_sympy(tmp_path):
    """The polynomials of the benchmark inputs factor over Z without
    sympy (x^5 + 1, x^6 - 1 and x^7 + 1 of airy ranks 5-7, a degree-8
    polynomial of dense_fuchs rank 3, the binomials and a product of
    three quartics of the cross_check inputs), and an irreducible fibre
    F(2, y) proves their spectral curves have no two factors, so one
    interpreter analyzes them all without importing it: airy ranks 5-7,
    dense_fuchs ranks 2-3, fuchs(3, 1) and irreg(3, 1), then airy ranks
    2-7 and gen_airy k = 1-30 with --check-reduction."""
    texts = {**{f"airy_{n}": airy(n) for n in range(5, 8)},
             **{f"dense_fuchs_{n}": dense_fuchs(n) for n in (2, 3)},
             "fuchs_3_1": fuchs(3, 1), "irreg_3_1": irreg(3, 1)}
    checked = {**{f"airy_{n}": airy(n) for n in range(2, 8)},
               **{f"gen_airy_{k}": gen_airy(k) for k in range(1, 31)}}
    paths = [write_problem(tmp_path, text, f"{name}.txt")
             for name, text in texts.items()]
    checked_paths = [write_problem(tmp_path, text, f"checked_{name}.txt")
                     for name, text in checked.items()]
    assert not _imports_sympy(paths, checked_paths)
