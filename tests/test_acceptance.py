"""Acceptance gate: the full target-value and cross-route check suite.

Each test covers one criterion and prints a single pass line on success
(pytest -v adds the fail line on its own when an assertion trips).
"""

import json
import pathlib
import random
from fractions import Fraction

from conftest import (CORPUS, conjugate_by, gen_airy, local_at, parse_report,
                      ratfn_to_string)
from specrig.cli import main
from specrig.errors import InputError, ReductionUnavailable
from specrig.localmod import (check_assumption, discriminant_identity_holds,
                              reduction_cross_check)
from specrig.parsing import ProblemSpec, parse_expression, parse_problem
from specrig.pipeline import run_analysis
from specrig.ratfn import INFINITY
from specrig.report import serialize
from specrig.splitting import split_once


F = Fraction
GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(text, **kw):
    return run_analysis(parse_problem(text), **kw)


def report_line(n, msg):
    print(f"criterion {n}: PASS - {msg}")


def test_criterion_1_airy_suite():
    doc, code = run(CORPUS["airy"])
    assert code == 0
    p = doc["poles"][0]
    assert p["irregularity"] == 3
    assert p["irr_end"] == 3
    assert p["delta_end"] == 6
    assert p["mu"] == 4
    assert p["mu_oracle"] == 4
    assert p["delta"] == 2
    assert p["r_c"] == 1
    assert p["inf_intersection"] == 5
    g = doc["global"]
    assert g["g_a"] == 2
    assert g["chi"] == 2
    assert g["rig"] == 2
    assert g["main_theorem"] == "true"
    report_line(1, "Airy invariants and main identity, mu by both routes")


def test_criterion_2_generalized_airy_family():
    rigs = []
    for k in (1, 3, 5):
        doc, code = run(gen_airy(k))
        assert code == 0
        p = doc["poles"][0]
        # one (2, k+4)-cusp branch: mu = (2-1)(k+3)
        assert p["cells"] == [{"p": k + 2, "r": 2}]
        assert p["mu"] == k + 3
        assert p["mu_oracle"] == k + 3
        g = doc["global"]
        assert g["rig"] == g["chi"]
        rigs.append(g["rig"])
    assert rigs == [2, 0, -2]
    assert all(a - b == 2 for a, b in zip(rigs, rigs[1:]))
    report_line(2, "generalized Airy cusps, rig = chi, rig drops by 2 per k")


def test_criterion_3_fuchsian_diagonal():
    doc, code = run(CORPUS["fuchsian"])
    assert code == 0
    assert len(doc["poles"]) == 2
    for p in doc["poles"]:
        assert p["mu"] == 1
        assert p["mu_oracle"] == 1
        assert p["delta_end"] == 2
        assert p["verdicts"]["milnor"]
    g = doc["global"]
    assert g["rig"] == 4
    assert g["main_theorem"].startswith("not-applicable")
    assert "reducible" in g["main_theorem"]
    report_line(3, "Fuchsian nodes, rig = 4, reducible curve not-applicable")


def test_criterion_4_rank1_suite():
    for name in ("rank1_irregular", "rank1_regular"):
        doc, code = run(CORPUS[name])
        assert code == 0
        for p in doc["poles"]:
            assert p["delta_end"] == 0
            assert p["mu"] == 0
            assert p["delta"] == 0
        g = doc["global"]
        assert g["rig"] == 2
        assert g["chi"] == 2
        assert g["main_theorem"] == "true"
    report_line(4, "rank-1 irregular and regular suites, smooth germs")


def test_criterion_5_assumption_gate(tmp_path, capsys):
    path = tmp_path / "bessel.txt"
    path.write_text(CORPUS_BESSEL)
    code = main(["analyze", str(path)])
    out = capsys.readouterr()
    assert code == 2
    assert "assumption violation at pole 0" in out.err
    assert "multiplicity-2" in out.err
    assert out.out == ""
    report_line(5, "Bessel-type input refused with exit code 2")


CORPUS_BESSEL = "poles 0, inf\nmatrix\n0, 1\n1/z, 0\nend\n"


def test_criterion_6_two_route_equalities():
    reductions = 0
    for name, text in sorted(CORPUS.items()):
        spec = parse_problem(text)
        doc, code = run_analysis(spec)
        assert code == 0, name
        for p in doc["poles"]:
            # (a) formula route == resultant oracle route
            assert p["mu"] == p["mu_oracle"], name
            # (d) local delta identity
            assert p["verdicts"]["delta_identity"], name
            assert p["verdicts"]["milnor"], name
        for pole in spec.poles:
            local = local_at(spec.matrix, pole)
            assert check_assumption(local), name
            # (c) contact sum against the discriminant valuation
            assert discriminant_identity_holds(local), name
            # (b) splitting-reduction cells match Puiseux cells
            try:
                assert reduction_cross_check(local), name
                reductions += 1
            except ReductionUnavailable:
                pass
    assert reductions > 0
    report_line(6, f"two-route equalities on the corpus "
                   f"({reductions} reduction cross-checks)")


def test_criterion_7_split_certificates():
    from test_splitting import random_split_example, residual_vanishes
    rng = random.Random(424242)
    for i in range(20):
        g = random_split_example(rng)
        T, eigs = split_once(g)
        # T g - diag(eigs) T, computed outside split_once
        assert residual_vanishes(g, T, eigs), i
    report_line(7, "20 randomized one-pass split certificates with exact "
                   "residuals")


def test_criterion_8_similarity_invariance():
    base_spec = parse_problem(CORPUS["airy"])
    base_doc, _ = run_analysis(base_spec)
    base_doc.pop("input")
    rng = random.Random(99)
    done = 0
    while done < 10:
        p = [[F(rng.randint(-4, 4)) for _ in range(2)] for _ in range(2)]
        try:
            conj = conjugate_by(base_spec.matrix, p)
        except InputError:
            continue
        spec = ProblemSpec("z", [], conj, [INFINITY], 0)
        doc, code = run_analysis(spec)
        assert code == 0
        doc.pop("input")
        assert doc == base_doc
        done += 1
    report_line(8, "10 random conjugations leave every invariant unchanged")


def test_criterion_9_parser_report_round_trip(tmp_path, capsys):
    # parser round-trip on generated expressions
    rng = random.Random(31)
    from specrig.qpoly import UPoly
    from specrig.ratfn import RatFn
    for _ in range(30):
        num = UPoly([F(rng.randint(-6, 6)) for _ in range(rng.randint(1, 4))])
        den = UPoly([F(rng.randint(-6, 6))
                     for _ in range(rng.randint(0, 3))] + [F(1)])
        f = RatFn(num, den)
        assert parse_expression(ratfn_to_string(f)) == f
    # report round-trip, determinism, and golden byte-stability
    for name, text in sorted(CORPUS.items()):
        docs = []
        for _ in range(2):
            doc, _ = run(text)
            docs.append(serialize(doc))
        assert docs[0] == docs[1]
        assert parse_report(docs[0]) == json.loads(docs[0])
        golden = GOLDEN / f"{name}.json"
        assert docs[0] == golden.read_text(), name
    report_line(9, "parser and report round-trips, golden files byte-stable")
