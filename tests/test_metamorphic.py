"""Metamorphic properties: moves on the input that the theory says leave
the reported invariants unchanged.

* A scalar twist A -> A + f(z) I, with f a Laurent polynomial whose poles
  are declared and whose 1-form f dz has pole order at most nu there,
  shifts every root of the charpoly by f.  Over the complement of the
  poles this is an isomorphism of spectral curves, and End(M) does not
  change, so chi, rig, the irreducibility and smoothness verdicts, the
  main-theorem verdict, Irr(End) and delta(End) are unchanged.  The germ
  data at infinity points (b, g_a, delta_sum, mu) is read in the chart of
  the unshifted root, so it is unchanged when the twist is subleading at
  every pole: its local coefficient either has no pole there or a pole
  of smaller order than every root.
* A constant unimodular conjugation leaves the charpoly, and with it the
  whole global block and every per-pole invariant, unchanged.
* A Moebius move of P^1, the translation z -> w - c or the inversion
  z -> 1/w, carries each pole to its image with all of its local data,
  and leaves the curve class and the global invariants unchanged.  The
  finite part is not preserved by the inversion, which swaps 0 and
  infinity: the smoothness and main-theorem verdicts are compared under
  it only when both 0 and infinity are declared poles.

An input refused before a move must be refused after it, with the same
error class.
"""

from fractions import Fraction
from math import ceil

import pytest

from conftest import (EXAMPLE_TEXTS, GENERATED, SQRT2_LINES, conjugate_by,
                      fuchs, irreg, local_at, problem_text, unimodular)
from specrig import rigidity
from specrig.errors import SpecrigError
from specrig.matrf import MatRF, pole_order
from specrig.parsing import ProblemSpec, parse_expression, parse_problem
from specrig.pipeline import run_analysis
from specrig.qpoly import UPoly
from specrig.ratfn import INFINITY, Chart, RatFn


INPUTS = dict(GENERATED)

# airy(z) + airy(2 z): reducible, with no root in Q(z), so the verdict
# comes from the sympy fallback
AIRY_SUM = problem_text(["inf"], [["0", "1", "0", "0"], ["z", "0", "0", "0"],
                                  ["0", "0", "0", "1"],
                                  ["0", "0", "2*z", "0"]])
INPUTS["airy_sum"] = AIRY_SUM

ALWAYS = ("chi", "rig", "irreducibility", "smoothness", "main_theorem")
PER_POLE = ("irr_end", "delta_end", "mu")


def outcome(spec):
    """(global block, per-pole invariants) of the analysis, or the class
    of the error that refused it."""
    try:
        doc, _ = run_analysis(spec)
    except SpecrigError as exc:
        return type(exc).__name__
    return doc["global"], {p["point"]: {k: p[k] for k in PER_POLE}
                           for p in doc["poles"]}


def twisted(spec, f):
    rows = [[e + f if i == j else e for j, e in enumerate(row)]
            for i, row in enumerate(spec.matrix.entries)]
    return ProblemSpec("z", [], MatRF(rows), spec.poles, spec.genus)


def _local_term(pole, order):
    """A Laurent monomial whose 1-form has pole order `order` at pole; a
    finite pole of order 1 puts a pole of order 1 at infinity too."""
    if pole == INFINITY:
        return "1" if order == 2 else f"z^{order - 2}"
    return f"1/(z - ({pole}))^{order}"


def twists(spec):
    """(f, subleading) pairs: the twist with the highest admissible pole
    order at each declared pole, and the one whose pole order is just
    below that of every root, where there is room for one."""
    a = spec.matrix
    strong, weak = [], []
    for pole in spec.poles:
        nu = pole_order(a, pole)
        low = 2 if pole == INFINITY else 1
        if nu < low:
            continue
        strong.append(f"3*{_local_term(pole, nu)}")
        top = max(c.order for c in local_at(a, pole).clusters)
        # a 1-form pole of order k has local coefficient order -k
        k = min(nu, ceil(-top) - 1)
        if k >= low:
            weak.append(f"(-5/2)*{_local_term(pole, k)}")
    out = []
    for terms in (strong, weak):
        if terms:
            f = parse_expression(" + ".join(terms))
            if _admissible(spec, f):
                out.append((f, _subleading(spec, f)))
    return out


def _admissible(spec, f):
    """Whether f dz has poles only at declared poles, of order at most
    nu there (a residue term also puts a pole at infinity)."""
    points = list(spec.poles)
    if INFINITY not in points:
        points.append(INFINITY)
    for point in points:
        v = Chart(point).valuation(f, 1)
        nu = pole_order(spec.matrix, point) if point in spec.poles else 0
        if v is not None and -v > nu:
            return False
    return True


def _subleading(spec, f):
    """Whether, at every pole, f dz has no pole or a pole of smaller order
    than every root of the local charpoly."""
    for pole in spec.poles:
        if not pole_order(spec.matrix, pole):
            continue
        v = Chart(pole).valuation(f, 1)
        if v is None or v >= 0:
            continue
        if v <= max(c.order for c in local_at(spec.matrix, pole).clusters):
            return False
    return True


def _assert_same(before, after, subleading):
    if isinstance(before, str) or isinstance(after, str):
        assert before == after
        return
    (g0, p0), (g1, p1) = before, after
    if subleading:
        assert g1 == g0
        assert p1 == p0
        return
    assert {k: g1[k] for k in ALWAYS} == {k: g0[k] for k in ALWAYS}
    assert p1.keys() == p0.keys()
    for point in p0:
        for key in ("irr_end", "delta_end"):
            assert p1[point][key] == p0[point][key], (point, key)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_scalar_twist(name):
    spec = parse_problem(INPUTS[name])
    before = outcome(spec)
    cases = twists(spec)
    assert cases
    for f, subleading in cases:
        _assert_same(before, outcome(twisted(spec, f)), subleading)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_unimodular_conjugation(name, seed):
    spec = parse_problem(INPUTS[name])
    conj = conjugate_by(spec.matrix, unimodular(spec.matrix.n, seed))
    after = outcome(ProblemSpec("z", [], conj, spec.poles, spec.genus))
    _assert_same(outcome(spec), after, subleading=True)


def test_twist_keeping_a_ramified_cell_unramified_in_q_is_refused():
    """Twisting by 3/z^2 gives the ramified regular cell of the untwisted
    input the unramified q = 3/t, shared by both of its conjugates: a
    multiplicity-2 cell either way, refused with the same error class."""
    spec = parse_problem("poles 0, inf\nmatrix\n1/z^2, 0, 0\n"
                         "0, 0, 1\n0, 1/z, 0\nend\n")
    after = outcome(twisted(spec, parse_expression("3/z^2")))
    assert outcome(spec) == after == "AssumptionFailure"


def test_subleading_twists_are_exercised():
    """The stronger assertion runs on most inputs, not on none."""
    count = sum(sub for name in INPUTS
                for _, sub in twists(parse_problem(INPUTS[name])))
    assert count >= len(INPUTS) // 2


def test_twist_moving_a_root_changes_only_the_chart_data():
    """A twist that cancels the leading term of a root moves the germ
    data at infinity points; the invariants of the curve and of End(M)
    stay."""
    spec = parse_problem(EXAMPLE_TEXTS["example_fuchsian"])
    f = parse_expression("(-1/2)/z")
    assert not _subleading(spec, f)
    (g0, p0), (g1, p1) = outcome(spec), outcome(twisted(spec, f))
    assert (g0["b"], g1["b"]) == (4, 2)
    assert {k: g1[k] for k in ALWAYS} == {k: g0[k] for k in ALWAYS}
    assert [p["irr_end"] for p in p1.values()] == \
        [p["irr_end"] for p in p0.values()]


def test_direct_sum_of_airy_systems_is_reducible_through_sympy(monkeypatch):
    calls = []
    to_sympy = rigidity._bipoly_to_sympy

    def spy(f):
        calls.append(f)
        return to_sympy(f)
    monkeypatch.setattr(rigidity, "_bipoly_to_sympy", spy)
    doc, code = run_analysis(parse_problem(AIRY_SUM))
    assert code == 0
    assert doc["global"]["irreducibility"] == "reducible"
    assert len(calls) == 1


# -- Moebius moves -------------------------------------------------------

MOBIUS_INPUTS = dict(INPUTS, sqrt2_lines=SQRT2_LINES,
                     **{f"{family.__name__}_3_{seed}": family(3, seed)
                        for family in (fuchs, irreg) for seed in (1, 2)})

GLOBAL_KEYS = ("n", "b", "g_a", "delta_sum", "chi", "rig",
               "irreducibility")


class Translation:
    """z -> w - c: an entry e becomes e(w - c), a pole a becomes a + c."""

    finite_part = True

    def __init__(self, c):
        self.c = Fraction(c)

    def entry(self, e):
        return e.shifted(-self.c)

    def pole(self, a):
        return a if a == INFINITY else a + self.c


class Inversion:
    """z -> 1/w: an entry e becomes -e(1/w) w^-2, a pole a becomes 1/a,
    with 0 and infinity swapped."""

    finite_part = False
    _jacobian = RatFn(UPoly([-1]), UPoly([0, 0, 1]))

    def entry(self, e):
        return e.at_infinity() * self._jacobian

    def pole(self, a):
        if a == INFINITY:
            return Fraction(0)
        return INFINITY if a == 0 else 1 / a


MOVES = {"inversion": Inversion(), "translation_2": Translation(2),
         "translation_-1/3": Translation(Fraction(-1, 3))}


def moved(spec, move):
    rows = [[move.entry(e) for e in row] for row in spec.matrix.entries]
    return ProblemSpec("z", [], MatRF(rows),
                       [move.pole(a) for a in spec.poles], spec.genus)


def _point(label):
    return INFINITY if label == "inf" else Fraction(label)


def _label(point):
    return "inf" if point == INFINITY else str(point)


def mobius_outcome(spec):
    try:
        doc, code = run_analysis(spec)
    except SpecrigError as exc:
        return type(exc).__name__
    return doc, code


@pytest.mark.parametrize("move", sorted(MOVES))
@pytest.mark.parametrize("name", sorted(MOBIUS_INPUTS))
def test_mobius_move(name, move):
    spec = parse_problem(MOBIUS_INPUTS[name])
    before = mobius_outcome(spec)
    after = mobius_outcome(moved(spec, MOVES[move]))
    if isinstance(before, str) or isinstance(after, str):
        assert before == after
        return
    (doc0, code0), (doc1, code1) = before, after
    g0, g1 = doc0["global"], doc1["global"]
    assert {k: g1[k] for k in GLOBAL_KEYS} == {k: g0[k] for k in GLOBAL_KEYS}
    relabelled = {_label(MOVES[move].pole(_point(p["point"]))):
                  dict(p, point=None) for p in doc0["poles"]}
    assert {p["point"]: dict(p, point=None) for p in doc1["poles"]} == \
        relabelled
    if MOVES[move].finite_part or {0, INFINITY} <= set(spec.poles):
        # without the details, which name the point
        assert g1["smoothness"].split(":")[0] == \
            g0["smoothness"].split(":")[0]
        assert g1["main_theorem"].split(" (")[0] == \
            g0["main_theorem"].split(" (")[0]
        assert code1 == code0


def test_inversion_moves_a_finite_singular_point_off_the_finite_part():
    """gen_airy_2: y^2 = z^2 is singular over z = 0, which the inversion
    sends to infinity, outside the finite part."""
    spec = parse_problem(GENERATED["gen_airy_2"])
    (doc0, _), (doc1, _) = (mobius_outcome(spec),
                            mobius_outcome(moved(spec, Inversion())))
    assert doc0["global"]["smoothness"].startswith("singular")
    assert doc1["global"]["smoothness"] == "ok"
    assert [p["point"] for p in doc1["poles"]] == ["0"]


def test_inversion_compares_the_finite_part_on_several_inputs():
    both = [name for name, text in MOBIUS_INPUTS.items()
            if {0, INFINITY} <= set(parse_problem(text).poles)]
    assert len(both) >= 5
