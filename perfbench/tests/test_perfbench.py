"""Tests of the benchmark's own parts: corpus, checker, tracing, runner.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import copy
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from perfbench import check, corpus
from perfbench.run import Runner, WrongAnswer, import_specrig
from perfbench.tracing import LAYER_NAMES, Tracer
from specrig import localmod, parsing, pipeline, report
from specrig.matrf import charpoly
from specrig.parsing import parse_problem

ROOT = Path(__file__).resolve().parents[2]
EXPECTED = check.load_expected()


def _report(name, rng=None, check_reduction=False):
    # module attributes, so that installed tracing wrappers are called
    spec = parsing.parse_problem(corpus.generate(name, rng))
    doc, code = pipeline.run_analysis(spec, check_reduction=check_reduction)
    return report.serialize(doc), code


# -- corpus -------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_workload_is_deterministic_per_seed(workload):
    first = [(op.name, op.text) for op in corpus.workload_ops(workload, 7)]
    again = [(op.name, op.text) for op in corpus.workload_ops(workload, 7)]
    other = [(op.name, op.text) for op in corpus.workload_ops(workload, 8)]
    assert first == again
    assert first != other
    # conjugations differ too, except where the workload keeps matrices
    assert (sorted(first) != sorted(other)) == corpus.WORKLOADS[workload][
        "conjugate"]


def test_seed_zero_is_unconjugated_and_in_order():
    ops = corpus.workload_ops("irregular_ladder", 0)
    assert [op.name for op in ops] == corpus.WORKLOADS[
        "irregular_ladder"]["inputs"]
    spec = parse_problem(ops[0].text)
    assert spec.entries == [["1/z^2", "0"], ["0", "1/z + 2/z^2"]]


@pytest.mark.parametrize("name,filename", [
    ("example_airy", "airy.txt"), ("example_bessel", "bessel.txt"),
    ("example_fuchsian", "fuchsian.txt"), ("example_rank1", "rank1.txt")])
def test_examples_match_example_files(name, filename):
    generated = parse_problem(corpus.generate(name))
    text = (ROOT / "examples_input" / filename).read_text(encoding="utf-8")
    given = parse_problem(text)
    assert generated.poles == given.poles
    assert generated.matrix.entries == given.matrix.entries


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_unimodular_pair_is_inverse_pair(n):
    rng = random.Random(n)
    for _ in range(20):
        p, pinv = corpus.unimodular_pair(n, rng)
        prod = [[sum(p[i][k] * pinv[k][j] for k in range(n))
                 for j in range(n)] for i in range(n)]
        assert prod == [[int(i == j) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("name", ["airy_rank3", "gen_airy_k4",
                                  "diag_irreg_rank3", "dense_fuchs_rank3",
                                  "example_fuchsian"])
def test_conjugation_keeps_charpoly(name):
    base = charpoly(parse_problem(corpus.generate(name)).matrix)
    for seed in (1, 2, 3):
        text = corpus.generate(name, random.Random(seed))
        assert text != corpus.generate(name) or name == "example_rank1"
        assert charpoly(parse_problem(text).matrix) == base


def test_entry_text_round_trips_through_parser():
    entry = {("z", 3): Fraction(-2, 3), ("z", 0): Fraction(5),
             ("z", -2): Fraction(1), ("zm1", -1): Fraction(-7, 2)}
    text = corpus.problem_text("t", ["0", "1", "inf"], [[entry]])
    got = parse_problem(text).matrix.entries[0][0]
    want = parse_problem("poles 0, 1, inf\nmatrix\n"
                         "-(2/3)*z^3 + 5 + 1/z^2 - (7/2)/(z-1)\nend\n")
    assert got == want.matrix.entries[0][0]


# -- outcome checker ----------------------------------------------------------

def test_expected_covers_every_workload_input():
    for spec in corpus.WORKLOADS.values():
        assert set(spec["inputs"]) <= set(EXPECTED)


def test_checker_accepts_conjugated_reports():
    for name in ("airy_rank3", "gen_airy_k6", "diag_irreg_rank3"):
        out, code = _report(name, random.Random(5))
        assert check.check_report(EXPECTED[name], json.loads(out),
                                  code) == []


def _alterations():
    def pole(key, value):
        def alter(doc):
            doc["poles"][0][key] = value(doc["poles"][0][key])
        return alter

    def glob(key, value):
        def alter(doc):
            doc["global"][key] = value(doc["global"][key])
        return alter

    def cells(doc):
        doc["poles"][0]["cells"][0]["r"] += 1

    def verdict(doc):
        doc["poles"][0]["verdicts"]["milnor"] = False

    return [glob("rig", lambda v: v + 1), glob("chi", lambda v: v - 1),
            glob("g_a", lambda v: v + 2), glob("b", lambda v: v + 1),
            glob("irreducibility", lambda v: "unknown"),
            pole("point", lambda v: "1"), pole("nu", lambda v: v + 1),
            pole("mode", lambda v: "regular-semisimple"),
            pole("m", lambda v: v + 1), pole("mu", lambda v: v + 1),
            pole("delta", lambda v: v - 1),
            pole("mu_oracle", lambda v: v + 1), cells, verdict]


@pytest.mark.parametrize("alter", _alterations())
def test_checker_rejects_one_altered_invariant(alter):
    out, code = _report("gen_airy_k3")
    doc = json.loads(out)
    assert check.check_report(EXPECTED["gen_airy_k3"], doc, code) == []
    bad = copy.deepcopy(doc)
    alter(bad)
    assert check.check_report(EXPECTED["gen_airy_k3"], bad, code)


def test_checker_rejects_wrong_exit_code_and_unexpected_report():
    out, code = _report("gen_airy_k3")
    doc = json.loads(out)
    assert check.check_report(EXPECTED["gen_airy_k3"], doc, 1 - code)
    assert check.check_report(EXPECTED["example_bessel"], doc, code)


def test_checker_rejects_rig_chi_mismatch_under_main_theorem():
    out, code = _report("airy_rank2")
    doc = json.loads(out)
    assert doc["global"]["main_theorem"] == "true"
    exp = dict(EXPECTED["airy_rank2"], chi=doc["global"]["chi"] + 1)
    doc["global"]["chi"] += 1
    assert check.check_report(exp, doc, code)


# -- runner -------------------------------------------------------------------

def _op(name, check_reduction=False):
    return corpus.Operation(0, name, corpus.generate(name), check_reduction)


def test_runner_classifies_outcomes():
    runner = Runner(EXPECTED, import_specrig())
    runner.run_op(_op("example_bessel"), "p")
    runner.run_op(_op("airy_rank2"), "p")
    runner.run_op(_op("airy_rank3", check_reduction=True), "p")
    outcomes = [(r["input"], r["outcome"], r["status"])
                for r in runner.records]
    assert outcomes == [("example_bessel", "expected", "refused"),
                        ("airy_rank2", "expected", "ok"),
                        ("airy_rank3", "failed", "refused")]


def test_runner_aborts_on_a_wrong_number():
    expected = copy.deepcopy(EXPECTED)
    expected["airy_rank2"]["rig"] += 1
    runner = Runner(expected, import_specrig())
    with pytest.raises(WrongAnswer, match="rig"):
        runner.run_op(_op("airy_rank2"), "p")
    expected["example_bessel"] = EXPECTED["airy_rank2"]
    runner.run_op(_op("example_bessel"), "p")
    assert runner.records[-1]["outcome"] == "failed"


# -- tracing ------------------------------------------------------------------

TRACED_CASES = [("example_fuchsian", True), ("diag_irreg_rank3", False),
                ("gen_airy_k5", True), ("airy_rank4", False),
                ("dense_fuchs_rank2", False)]


def test_traced_run_gives_identical_report_bytes():
    plain = [_report(name, random.Random(3), cr) for name, cr in TRACED_CASES]
    original = localmod.build_local
    tracer = Tracer()
    with tracer:
        assert pipeline.build_local is not original
        traced = [_report(name, random.Random(3), cr)
                  for name, cr in TRACED_CASES]
    assert pipeline.build_local is original
    assert localmod.build_local is original
    assert traced == plain
    calls = {name: tracer.stats[name][0] for name in LAYER_NAMES}
    for name in ("pipeline.run_analysis", "localmod.build_local",
                 "qpoly.det_cofactor", "series.Series.__mul__",
                 "tower.TowerElem.__mul__", "splitting.htl_from_reduction",
                 "splitting.ramified_pullback", "germs.germ_milnor_oracle"):
        assert calls[name] > 0, name
    assert calls["pipeline.run_analysis"] == len(TRACED_CASES)


def test_self_times_partition_the_traced_roots():
    tracer = Tracer()
    with tracer:
        _report("diag_irreg_rank3")
    self_total = sum(s[1] for s in tracer.stats.values())
    roots = sum(t1 - t0 for op, span, parent, name, t0, t1 in tracer.spans
                if parent is None)
    assert 0.9 * roots <= self_total <= roots * (1 + 1e-9)
    # recursion counts once in inclusive time
    det = tracer.stats["qpoly.det_cofactor"]
    assert det[0] > 1 and det[2] <= roots


def test_counters_from_traced_run():
    tracer = Tracer()
    with tracer:
        _report("diag_irreg_rank3")
    metrics = {k: v for k, (v, _) in tracer.layer_metrics(1).items()}
    assert metrics["localmod.poles"] == 2
    assert metrics["qpoly.sylvester_dim_max"] == 5
    assert 0 < metrics[
        "puiseux.discriminant_valuation.distinct_share"] < 1
    assert metrics["localmod.nterms_final"] > 0
    assert metrics["localmod.truncation_retries"] == 0
