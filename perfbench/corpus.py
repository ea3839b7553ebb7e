"""Benchmark corpus: the ROADMAP scaling families and the example inputs,
emitted as problem text after a seeded unimodular conjugation.

Every matrix entry is kept as a linear combination of a few basis
functions of z, so conjugating by a constant integer matrix P (entries of
P A P^-1 are sums of P_ik A_kl Pinv_lj) needs only rational arithmetic
and no part of the program under test.  Seed 0 leaves every matrix as
ROADMAP defines it; any other seed draws one conjugation per input.
Conjugation by a constant matrix leaves the characteristic polynomial,
and with it every reported invariant, unchanged.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

# basis functions: ("z", e) is z^e for an integer e (negative allowed),
# ("zm1", e) is (z - 1)^e


def _term(kind, e, c):
    return {(kind, e): Fraction(c)}


def _airy(n):
    rows = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = _term("z", 0, 1)
    rows[n - 1][0] = _term("z", 1, 1)
    return rows


def _gen_airy(k):
    return [[{}, _term("z", 0, 1)], [_term("z", k, 1), {}]]


def _diag_irreg(n):
    rows = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        rows[i][i] = {("z", -2): Fraction(i + 1)}
        if i:
            rows[i][i][("z", -1)] = Fraction(i)
    return rows


def _dense_fuchs(n):
    return [[{("z", -1): Fraction(i + 2 * j + 1),
              ("zm1", -1): Fraction((i * j) % 3 + 1)}
             for j in range(n)] for i in range(n)]


# the four files of examples_input/, in the same basis
EXAMPLES = {
    "example_airy": (["inf"], _airy(2)),
    "example_bessel": (["0", "inf"],
                       [[{}, _term("z", 0, 1)], [_term("z", -1, 1), {}]]),
    "example_fuchsian": (["0", "inf"],
                         [[_term("z", -1, Fraction(1, 2)), {}],
                          [{}, _term("z", -1, Fraction(1, 3))]]),
    "example_rank1": (["0"], [[_term("z", -2, 1)]]),
}


def family_input(name):
    """(poles, matrix) of a named corpus member, unconjugated."""
    if name in EXAMPLES:
        poles, rows = EXAMPLES[name]
        return poles, rows
    m = re.fullmatch(r"(airy|diag_irreg|dense_fuchs)_rank(\d+)"
                     r"|gen_airy_k(\d+)", name)
    if m is None:
        raise ValueError(f"unknown corpus member {name!r}")
    if m.group(3):
        return ["inf"], _gen_airy(int(m.group(3)))
    family, k = m.group(1), int(m.group(2))
    if family == "airy":
        return ["inf"], _airy(k)
    if family == "diag_irreg":
        return ["0", "inf"], _diag_irreg(k)
    return ["0", "1", "inf"], _dense_fuchs(k)


# -- seeded unimodular conjugation -------------------------------------------

# Few additions keep the conjugated matrix nearly as sparse as the
# original.  specrig's charpoly is a cofactor expansion whose cost follows
# the sparsity: with n additions a conjugated airy_rank7 took 31-307 ms
# against 23 ms unconjugated, so seeds measured different work; with two
# it takes 25-34 ms.
ROW_ADDITIONS = 2


def unimodular_pair(n, rng):
    """(P, P^-1) for a random integer matrix of determinant +-1: a
    permutation followed by ROW_ADDITIONS elementary row additions with
    multiplier +-1."""
    perm = list(range(n))
    rng.shuffle(perm)
    p = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
    pinv = [[int(perm[j] == i) for j in range(n)] for i in range(n)]
    if n < 2:
        return p, pinv
    for _ in range(ROW_ADDITIONS):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        # P <- (I + c E_ij) P, P^-1 <- P^-1 (I - c E_ij)
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]
        for row in pinv:
            row[j] -= c * row[i]
    return p, pinv


def _combine(pairs):
    """sum of c * entry over (entry, c) pairs, zero terms dropped"""
    acc = {}
    for entry, c in pairs:
        for key, v in entry.items():
            acc[key] = acc.get(key, 0) + c * v
    return {key: v for key, v in acc.items() if v}


def conjugate(rows, p, pinv):
    """Entries of P A P^-1."""
    n = len(rows)
    pa = [[_combine((rows[k][j], p[i][k]) for k in range(n))
           for j in range(n)] for i in range(n)]
    return [[_combine((pa[i][k], pinv[k][j]) for k in range(n))
             for j in range(n)] for i in range(n)]


# -- problem text -------------------------------------------------------------

def _coeff_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"({c})"


def entry_text(entry) -> str:
    parts = []
    for (kind, e), c in sorted(entry.items(), key=lambda kv: (kv[0][0],
                                                              -kv[0][1])):
        base = "z" if kind == "z" else "(z-1)"
        mag = abs(c)
        if e == 0:
            term = _coeff_str(mag)
        elif e > 0:
            power = base if e == 1 else f"{base}^{e}"
            term = power if mag == 1 else f"{_coeff_str(mag)}*{power}"
        else:
            power = base if e == -1 else f"{base}^{-e}"
            term = f"{_coeff_str(mag)}/{power}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(("+ " if c > 0 else "- ") + term)
    return " ".join(parts) if parts else "0"


def problem_text(title, poles, rows) -> str:
    lines = [f"# {title}", "poles " + ", ".join(poles), "matrix"]
    lines += [", ".join(entry_text(e) for e in row) for row in rows]
    lines.append("end")
    return "\n".join(lines) + "\n"


def generate(name, rng=None):
    """Problem text of a corpus member; conjugated when rng is given."""
    poles, rows = family_input(name)
    if rng is not None:
        p, pinv = unimodular_pair(len(rows), rng)
        rows = conjugate(rows, p, pinv)
    return problem_text(name, poles, rows)


# -- workloads ----------------------------------------------------------------

SMALL_FAMILIES = ([f"airy_rank{n}" for n in range(2, 8)]
                  + [f"gen_airy_k{k}" for k in range(1, 31)])
EXAMPLE_NAMES = list(EXAMPLES)

# inputs, analysis options and how many copies of the input list one pass
# holds.  flagship_batch repeats its ~8 ms operations, each copy under
# another conjugation, so that a pass lasts six to eight seconds at the
# baseline.  cross_check keeps its matrices as ROADMAP defines them and
# takes only the order of operations from the seed: the reduction route
# of check_reduction is not similarity invariant, and under conjugation
# it refuses about half of these inputs and runs past a minute on
# airy_rank6/7, so seeds would measure different work.
WORKLOADS = {
    "irregular_ladder": {
        "inputs": [f"diag_irreg_rank{n}" for n in range(2, 6)],
        "check_reduction": False, "conjugate": True, "copies": 1},
    "fuchsian_dense": {
        "inputs": ["dense_fuchs_rank2", "dense_fuchs_rank3",
                   "example_fuchsian"],
        "check_reduction": False, "conjugate": True, "copies": 1},
    "flagship_batch": {
        "inputs": SMALL_FAMILIES + ["diag_irreg_rank2"] + EXAMPLE_NAMES,
        "check_reduction": False, "conjugate": True, "copies": 16},
    "cross_check": {
        "inputs": SMALL_FAMILIES + ["diag_irreg_rank2", "diag_irreg_rank3"]
        + EXAMPLE_NAMES,
        "check_reduction": True, "conjugate": False, "copies": 1},
}


class Operation:
    """One input analysed once."""

    __slots__ = ("op_id", "name", "text", "check_reduction")

    def __init__(self, op_id, name, text, check_reduction):
        self.op_id = op_id
        self.name = name
        self.text = text
        self.check_reduction = check_reduction


def workload_ops(workload, seed):
    """The operations of one pass, in a seed-determined order."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for copy in range(spec["copies"]):
        for name in spec["inputs"]:
            conjugated = spec["conjugate"] and (seed != 0 or copy)
            conj = rng if conjugated else None
            ops.append((name, generate(name, conj)))
    if seed != 0:
        rng.shuffle(ops)
    return [Operation(i, name, text, spec["check_reduction"])
            for i, (name, text) in enumerate(ops)]
