"""Splitting by similarity: certificates and eigenvalue series."""

import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from specrig import splitting
from specrig.errors import (InsufficientTruncation, ReductionUnavailable,
                            SpecrigError)
from specrig.matrf import default_truncation, localize, pole_order
from specrig.parsing import parse_problem
from specrig.pipeline import run_analysis
from specrig.qpoly import UPoly, det_cofactor, resultant_det
from specrig.report import serialize
from specrig.series import INF, Series, qdiv
from specrig.splitting import (_balance, _charpoly_squarefree,
                               cmat_charpoly, cmat_identity, cmat_mul,
                               full_split, htl_from_reduction,
                               ramified_pullback, smat_coeff, smat_prec,
                               smat_val)
from specrig.tower import FieldTower, rational_value

from conftest import (balance_reference, cmat_inverse, dense_split_once,
                      gauss_jordan_eigenbasis, gauss_jordan_split, gen_airy,
                      mat, null_vector, row_reduce, smat_mul, smat_sub,
                      split_series, unimodular)


F = Fraction


def smat(rows, prec=None):
    """Series matrix from {exp: coeff} dicts / numbers."""
    out = []
    for row in rows:
        srow = []
        for c in row:
            if isinstance(c, dict):
                srow.append(Series({e: F(v) for e, v in c.items()}, prec))
            elif c:
                srow.append(Series.const(F(c), prec))
            else:
                srow.append(Series.zero(prec))
        out.append(srow)
    return out


_SQRT2 = FieldTower().adjoin(UPoly([F(-2), F(0), F(1)]))


def _entries(field):
    """Small entries of Q, or a + b sqrt(2) in a one-level tower."""
    ints = st.integers(-3, 3)
    if field == "Q":
        return ints.map(F)
    return st.tuples(ints, ints).map(lambda ab: ab[0] + ab[1] * _SQRT2)


def _square(entry, n):
    return st.lists(st.lists(entry, min_size=n, max_size=n),
                    min_size=n, max_size=n)


class TestLinearAlgebra:
    def test_null_vector(self):
        a = [[F(1), F(2)], [F(2), F(4)]]
        v = null_vector(a)
        assert any(v)
        assert all(sum(r[j] * v[j] for j in range(2)) == 0 for r in a)

    @pytest.mark.parametrize("field", ["Q", "Q(sqrt 2)"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_inverse_and_solve(self, field, data):
        entry = _entries(field)
        n = data.draw(st.integers(1, 4))
        m = data.draw(_square(entry, n))
        rhs = data.draw(st.lists(entry, min_size=n, max_size=n))
        if not det_cofactor(m):
            with pytest.raises(SpecrigError, match="^singular matrix$"):
                cmat_inverse(m)
            return
        inv = cmat_inverse(m)
        assert cmat_mul(inv, m) == cmat_identity(n)
        x = cmat_mul(inv, [[c] for c in rhs])
        assert cmat_mul(m, x) == [[c] for c in rhs]

    @pytest.mark.parametrize("field", ["Q", "Q(sqrt 2)"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_null_vector_of_rank_deficient(self, field, data):
        entry = _entries(field)
        n = data.draw(st.integers(1, 4))
        k = data.draw(st.integers(0, n - 1))
        # an n x k times k x n product has rank at most k < n
        b = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                               min_size=n, max_size=n))
        c = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                               min_size=k, max_size=k))
        a = cmat_mul(b, c) if k else [[F(0)] * n for _ in range(n)]
        v = null_vector(a)
        assert any(v)
        assert cmat_mul(a, [[x] for x in v]) == [[0]] * n

    def test_null_vector_of_nonsingular_raises(self):
        with pytest.raises(SpecrigError,
                           match="^matrix is nonsingular; no kernel vector$"):
            null_vector([[F(1), F(2)], [F(3), F(4)]])

    def test_cmat_charpoly(self):
        cp = cmat_charpoly([[F(1), F(2)], [F(3), F(4)]])
        # y^2 - 5y - 2
        assert cp.coeffs == (F(-2), F(-5), F(1))

    @pytest.mark.parametrize("field", ["Q", "Q(sqrt 2)"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_squarefree_rule_equals_the_resultant_rule(self, field, data):
        """_charpoly_squarefree decides by a gcd what Res(cp, cp') != 0
        decided, on the charpolys of random matrices and of conjugated
        triangular ones, whose diagonal may repeat an eigenvalue."""
        entry = _entries(field)
        n = data.draw(st.integers(1, 4))
        a = data.draw(_square(entry, n))
        repeated = False
        if data.draw(st.booleans()):
            small = [F(0), F(1)] + ([F(-1)] if field == "Q" else [_SQRT2])
            diag = data.draw(st.lists(st.sampled_from(small), min_size=n,
                                      max_size=n))
            repeated = len(set(map(repr, diag))) < n
            t = [[diag[i] if i == j else a[i][j] if i < j else F(0)
                  for j in range(n)] for i in range(n)]
            p = data.draw(_square(entry, n))
            a = (cmat_mul(cmat_mul(p, t), cmat_inverse(p))
                 if det_cofactor(p) else t)
        cp = cmat_charpoly(a)
        der = cp.derivative()
        # the rule before the gcd, kept as the reference
        expected = bool(resultant_det(cp, der)) if der else False
        assert _charpoly_squarefree(cp) == expected
        if repeated:
            assert not expected


def smat_diag(entries):
    n = len(entries)
    return [[entries[i] if i == j else Series.zero() for j in range(n)]
            for i in range(n)]


def residual_vanishes(g, T, eigs):
    """T g - diag(eigs) T is zero to its precision, computed here."""
    resid = smat_sub(smat_mul(T, g), smat_mul(smat_diag(eigs), T))
    return all(e.known_zero_to_prec() for row in resid for e in row)


class TestSplitOnce:
    def test_eigenvalue_series_2x2(self):
        # [[1, t], [t, 2]]: eigenvalues 1 - t^2 + ..., 2 + t^2 + ...
        g = smat([[1, {1: 1}], [{1: 1}, 2]], prec=4)
        _, (b1, b2) = split_series(g)
        assert b1.coeff(0) == 1 and b1.coeff(2) == -1
        assert b2.coeff(0) == 2 and b2.coeff(2) == 1
        assert b1.coeff(1) == 0 and b2.coeff(1) == 0

    def test_residual_vanishes(self):
        g = smat([[0, {1: 2}], [{2: -1}, 3]], prec=6)
        T, eigs = split_series(g)
        assert residual_vanishes(g, T, eigs)
        assert all(T[i][j].coeff(0) == (i == j)
                   for i in range(2) for j in range(2))

    def test_block_diagonal_required(self):
        g = smat([[0, 1], [1, 3]], prec=4)
        with pytest.raises(SpecrigError):
            split_series(g)
        # diagonal, but with a repeated entry
        g = smat([[2, {1: 1}], [{1: 1}, 2]], prec=4)
        with pytest.raises(SpecrigError, match="distinct entries"):
            split_series(g)

    def test_trace_preserved(self):
        g = smat([[1, {1: 3}], [{1: -2}, 4]], prec=5)
        _, (b1, b2) = split_series(g)
        diff = b1 + b2 - (g[0][0] + g[1][1])
        assert diff.known_zero_to_prec()

    def test_3x3_blocks(self):
        g = smat([[1, 0, {1: 1}],
                  [0, 2, {2: 1}],
                  [{1: -1}, {1: 1}, 5]], prec=5)
        T, eigs = split_series(g)
        assert [e.coeff(0) for e in eigs] == [1, 2, 5]
        assert all(e.prec == 5 for e in eigs)
        assert residual_vanishes(g, T, eigs)

    def test_needs_truncated_input(self):
        with pytest.raises(SpecrigError, match="needs truncated input"):
            split_series(smat([[1, 0], [0, 2]]))
        with pytest.raises(InsufficientTruncation):
            split_series([[Series.const(F(1)), Series.zero(0)],
                          [Series.zero(0), Series.const(F(2), 1)]])


class TestFullSplit:
    def test_distinct_leading_eigenvalues(self):
        g = smat([[1, {1: 1}], [{1: 1}, 2]], prec=4)
        eigs = full_split(g, FieldTower())
        assert sorted(e.coeff(0) for e in eigs) == [1, 2]

    def test_scalar_stripping(self):
        # 3/t * I + diag-splittable remainder
        g = smat([[{-1: 3, 0: 1}, {1: 1}], [{1: 1}, {-1: 3, 0: 2}]], prec=4)
        eigs = full_split(g, FieldTower())
        assert sorted(e.coeff(-1) for e in eigs) == [3, 3]
        assert sorted(e.coeff(0) for e in eigs) == [1, 2]

    def test_nilpotent_leading_raises(self):
        g = smat([[0, 1], [{1: 1}, 0]], prec=4)
        with pytest.raises(ReductionUnavailable):
            full_split(g, FieldTower())

    def test_balancing(self):
        # diag power gauge separates [[0, 1], [t^2, 0]]
        g = smat([[0, 1], [{2: 1}, 0]], prec=6)
        eigs = full_split(g, FieldTower())
        leads = sorted(e.leading() for e in eigs)
        assert [e.valuation() for e in eigs] == [1, 1]
        assert leads == [-1, 1]

    def test_balanced_leading_charpoly_is_formed_once(self, monkeypatch):
        """[[0, 1], [t^2, 0]] is shifted by _balance: one charpoly for the
        nilpotent leading matrix of g and one for the balanced one, which
        the split then uses without forming it again."""
        g = smat([[0, 1], [{2: 1}, 0]], prec=6)
        calls = []
        charpoly = splitting.cmat_charpoly

        def counting_charpoly(a):
            calls.append(a)
            return charpoly(a)

        monkeypatch.setattr(splitting, "cmat_charpoly", counting_charpoly)
        eigs = full_split(g, FieldTower())
        assert calls == [[[0, 1], [0, 0]], [[0, 1], [1, 0]]]
        assert sorted(e.leading() for e in eigs) == [-1, 1]

    def test_rational_coefficients_come_as_fractions(self):
        # eigenvalues 1 and (1 +- sqrt 5)/2; the first is reached through
        # tower arithmetic but returned as a Fraction
        g = smat([[0, 0, 1], [1, 1, 0], [1, 0, 1]])
        coeffs = [c for e in full_split(g, FieldTower())
                  for c in e.terms.values()]
        assert Fraction(1) in coeffs
        assert all(type(c) is Fraction for c in coeffs
                   if rational_value(c) is not None)


class TestPullback:
    def test_rescaling(self):
        g = smat([[{-2: 1}]])
        gt = ramified_pullback(g, 3)
        # z = t^3: (1/z^2) dz/... -> 3 t^{-4} in the t chart
        assert gt[0][0].terms == {F(-4): 3}

    def test_identity_order(self):
        g = smat([[{0: 5}]])
        assert ramified_pullback(g, 1)[0][0].terms == {F(0): 5}

    def test_invalid_order(self):
        with pytest.raises(SpecrigError):
            ramified_pullback(smat([[1]]), 0)


class TestHtlFromReduction:
    def test_airy_cells(self):
        a = mat([["0", "1"], ["z", "0"]])
        g = localize(a, "inf", 12)
        cells = htl_from_reduction(g, 2, FieldTower())
        assert len(cells) == 2
        qs = [q for q, _ in cells]
        assert all(list(q.terms) == [F(-3, 2)] for q in qs)
        c1, c2 = qs[0].terms[F(-3, 2)], qs[1].terms[F(-3, 2)]
        assert c1 == -c2 and c1 * c1 == 1
        assert cells[0][1] + cells[1][1] == 0  # residues sum to the trace

    def test_rank1(self):
        g = smat([[{-2: 1, -1: 5}]])
        cells = htl_from_reduction(g, 1, FieldTower())
        assert len(cells) == 1
        q, residue = cells[0]
        assert q.terms == {F(-1): 1}
        assert residue == 5

    def test_regular_diagonal(self):
        g = smat([[{-1: F(1, 2)}, 0], [0, {-1: F(1, 3)}]], prec=4)
        cells = htl_from_reduction(g, 1, FieldTower())
        assert sorted(res for _, res in cells) == [F(1, 3), F(1, 2)]
        assert all(not q.terms for q, _ in cells)


def airy(n):
    return mat([["z" if (i, j) == (n - 1, 0) else "1" if j == i + 1 else "0"
                 for j in range(n)] for i in range(n)])


def dense_fuchs(n):
    return mat([[f"{i + 2 * j + 1}/z + {(i * j) % 3 + 1}/(z-1)"
                 for j in range(n)] for i in range(n)])


class TestReductionPrecision:
    """The route splits only below t^0, so the cells must not depend on
    how far the input was expanded."""

    @pytest.mark.parametrize("a, pole, s", [
        (dense_fuchs(3), 0, 1),
        (dense_fuchs(3), 1, 1),
        (dense_fuchs(3), "inf", 1),
        (airy(2), "inf", 2),
    ])
    def test_cells_independent_of_truncation(self, a, pole, s):
        default = default_truncation(a.n, pole_order(a, pole))
        tower = FieldTower()
        # one tower, so equal cells print alike; the block order may differ
        cells = [sorted(map(repr, htl_from_reduction(
                     localize(a, pole, nterms), s, tower)))
                 for nterms in (8, default, 2 * default)]
        assert cells[0] == cells[1] == cells[2]

    @pytest.mark.parametrize("g, s", [
        (localize(airy(2), "inf", 8), 2),
        (localize(airy(3), "inf", 8), 3),
        (smat([[{-1: F(1, 2)}, 0], [0, {-1: F(1, 3)}]]), 1),
    ])
    def test_exact_input_is_cut_like_truncated_input(self, g, s):
        # airy at inf localizes exactly: its entries are polynomials in z
        assert smat_prec(g) == INF
        tower = FieldTower()
        cells = [sorted(map(repr, htl_from_reduction(
                     [[e if prec is None else e.truncate(prec) for e in row]
                      for row in g], s, tower)))
                 for prec in (None, 1, 4)]
        assert cells[0] == cells[1] == cells[2]

    def test_split_input_stops_at_the_residue(self, monkeypatch):
        """Every coefficient matrix handed to split_once lies below
        t^max(0, r0 + 1): the t^{r0 + m} one for m < len(a)."""
        seen = []
        original = splitting.split_once

        def spy(a, r0):
            seen.append((r0, len(a)))
            return original(a, r0)

        monkeypatch.setattr(splitting, "split_once", spy)
        g = localize(dense_fuchs(3), 0, 32)
        htl_from_reduction(g, 1, FieldTower())
        assert seen
        assert all(r0 + orders - 1 < max(0, r0 + 1) for r0, orders in seen)


def _leading_if_certified(g):
    """The leading matrix of g with no gauge, or None when one of its
    coefficients lies at or beyond its entry's precision or g has no
    terms."""
    if not any(e.terms for row in g for e in row):
        return None
    r0 = smat_val(g)
    if any(e.prec is not None and r0 >= e.prec for row in g for e in row):
        return None
    return smat_coeff(g, r0)


def _regular_semisimple_as_is(g):
    a0 = _leading_if_certified(g)
    return a0 is not None and _charpoly_squarefree(cmat_charpoly(a0))


@st.composite
def _series_matrix(draw):
    """A sparse constant matrix C moved by a random diagonal power gauge:
    entry (i, j) is C_ij t^{r - k_i + k_j}, exact or truncated one or two
    orders above that exponent, so the search has something to find.  A
    zero entry is exact or vanishes only up to a precision from one order
    below that exponent to two above it, which can leave a gauge's leading
    coefficient uncertified."""
    n = draw(st.integers(2, 4))
    c = draw(st.lists(st.sampled_from([0, 0, 1, -1, 2]),
                      min_size=n * n, max_size=n * n))
    k = (0,) + draw(st.tuples(*[st.integers(-6, 6)] * (n - 1)))
    r = draw(st.integers(-2, 1))
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            e = r - k[i] + k[j]
            cij = c[i * n + j]
            if cij:
                prec = draw(st.sampled_from([None, e + 1, e + 2]))
            else:
                prec = draw(st.sampled_from([None, e - 1, e, e + 1, e + 2]))
            row.append(Series({e: F(cij)} if cij else {}, prec))
        rows.append(row)
    return rows


def _leading_charpoly(g):
    return cmat_charpoly(_leading_if_certified(g))


class TestBalance:
    @settings(max_examples=20, deadline=None)
    @given(_series_matrix())
    # regular semisimple as it stands: the gauge k = 0 and the search's
    # gauge reach the eigenvalue coefficient 1 by different arithmetic
    @example(smat([[0, 0, 1], [1, 1, 0], [1, 0, 1]]))
    # k = 0 reaches the leading exponent -2 but leaves the (1, 0) entry
    # certified only below t^-1; the search's gauge lifts it to the cut t^0
    @example([[Series.zero(), Series.zero()],
              [Series.zero(-1), Series.monomial(F(1), -2)]])
    # the search's gauge stops the (1, 0) entry at t^-1, short of the cut
    @example([[Series.zero(), Series.zero()],
              [Series.zero(-3), Series.monomial(F(1), -2)]])
    def test_succeeds_exactly_when_the_search_does(self, g):
        """The computed gauge exists exactly when the search finds one or
        g is regular semisimple as it stands (the gauge k = 0, which the
        search skips), and it gives the same leading charpoly; the gauge
        itself may differ.  Where the search's gauge certifies the
        eigenvalue series to the cut max(0, lambda + 1), the computed one
        gives the same series.  The search does not look for precision,
        so elsewhere the computed series agree with it on every term it
        certifies and are certified at least as far."""
        got, found = _balance(g), balance_reference(g)
        if found is None and _regular_semisimple_as_is(g):
            found = g
        assert (got is None) == (found is None)
        if got is None:
            return
        got, lam, a0, cp = got
        assert (smat_val(got), smat_coeff(got, lam)) == (lam, a0)
        assert cp == cmat_charpoly(a0)
        assert _leading_charpoly(got) == _leading_charpoly(found)
        # a fresh tower each: both adjoin the same roots, which print alike
        ours = full_split(got, FieldTower())
        ref = full_split(found, FieldTower())
        cut = max(0, lam + 1)
        if all(e.prec is None or e.prec >= cut for e in ref):
            assert list(map(repr, ours)) == list(map(repr, ref))
            return
        for a, b in zip(ours, ref, strict=True):
            assert a.prec is None or a.prec >= b.prec
            assert repr(a.truncate(b.prec)) == repr(b)

    def test_non_integral_least_cycle_mean(self):
        # the only cycle, 0 -> 1 -> 0, has mean 1/2
        assert _balance(smat([[0, 1], [{1: 1}, 0]], prec=6)) is None

    def test_acyclic_valuation_graph(self):
        # every gauge leaves a strictly triangular, nilpotent leading matrix
        g = smat([[0, {1: 1}, 0], [0, 0, {-2: 3}], [0, 0, 0]], prec=4)
        assert _balance(g) is None

    def test_regular_semisimple_input_needs_no_shift(self):
        g = smat([[1, {1: 1}], [{1: 1}, 2]], prec=4)
        balanced, _, _, _ = _balance(g)
        assert [[e.terms for e in row] for row in balanced] == \
            [[e.terms for e in row] for row in g]

    def test_uncertified_leading_coefficient(self):
        # [[0, 1], [t^2, 0]] needs k = (0, -1); the diagonal zero at (1, 1)
        # is known only below t^0, short of the leading exponent 1
        g = smat([[0, 1], [{2: 1}, 0]], prec=6)
        assert _balance(g) is not None
        g[1][1] = Series.zero(1)
        assert _balance(g) is None
        assert balance_reference(g) is None

    def test_rank7_search_is_lazy(self):
        a = airy(7)
        g = localize(a, "inf", default_truncation(7, pole_order(a, "inf")))
        gt = ramified_pullback(g, 7)
        tracemalloc.start()
        try:
            balanced = _balance(gt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert balanced is not None
        assert peak < 50 * 2 ** 20


SRC = Path(__file__).resolve().parent.parent / "src"

# the message every conjugated airy of rank 5 is refused with, as the
# search over gauges gave it after 10-20 s
NO_GAUGE = ("ReductionUnavailable: leading matrix has a repeated eigenvalue "
            "and no balancing diagonal power gauge separates it")


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("n", [5, 6, 7])
def test_conjugated_airy_cross_check_ends(n, seed):
    """Conjugated airy of rank 5-7 under check_reduction, which the
    search ran for seconds to past ten minutes, is refused within 2 s.
    A fresh interpreter with a time limit runs it, so that a slow gauge
    fails the test instead of hanging the suite."""
    code = (
        "from time import perf_counter\n"
        "from conftest import airy, conjugate_by, unimodular\n"
        "from specrig.errors import SpecrigError\n"
        "from specrig.parsing import ProblemSpec, parse_problem\n"
        "from specrig.pipeline import run_analysis\n"
        f"spec = parse_problem(airy({n}))\n"
        "spec = ProblemSpec('z', [], conjugate_by(\n"
        f"    spec.matrix, unimodular({n}, {seed})), spec.poles, spec.genus)\n"
        "start = perf_counter()\n"
        "try:\n"
        "    run_analysis(spec, check_reduction=True)\n"
        "    print('analysed')\n"
        "except SpecrigError as exc:\n"
        "    print(f'{type(exc).__name__}: {exc}')\n"
        "print(perf_counter() - start)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), str(Path(__file__).resolve().parent)]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    outcome, seconds = subprocess.run(
        [sys.executable, "-c", code], env=env, timeout=60, check=True,
        capture_output=True, text=True).stdout.splitlines()
    assert outcome != "analysed"
    assert float(seconds) < 2
    if n == 5:
        assert outcome == NO_GAUGE


@pytest.mark.parametrize("k", [25, 27, 29])
def test_gen_airy_beyond_the_search_box_is_cross_checked(k):
    """After pullback 2, gen_airy_k needs the gauge diag(1, t^k), beyond
    the progressions up to +-24 that the search tried: the reduction
    route now runs on k = 25, 27, 29, agrees with the Puiseux cells and
    leaves the report as the plain analysis gives it."""
    spec = parse_problem(gen_airy(k))
    assert serialize(run_analysis(spec, check_reduction=True)[0]) == \
        serialize(run_analysis(spec)[0])


def random_split_example(rng, sparse=False):
    """Diagonal leading matrix with distinct rational entries plus random
    higher-order noise; with sparse, two orders in three are zero."""
    n = rng.randint(2, 4)
    lam = rng.sample(range(-5, 6), n)
    order = rng.randint(3, 12)
    lead = rng.randint(-3, 0)
    zero_orders = {m for m in range(1, order + 1)
                   if sparse and rng.random() < 2 / 3}
    g = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = {lead: F(lam[i] if i == j else 0)}
            for m in range(1, order + 1):
                if m not in zero_orders:
                    terms[lead + m] = F(rng.randint(-3, 3))
            row.append(Series(terms, lead + order + 1))
        g.append(row)
    return g


def test_randomized_certificates():
    rng = random.Random(2024)
    for _ in range(20):
        g = random_split_example(rng)
        T, eigs = split_series(g)
        assert residual_vanishes(g, T, eigs)
        r0 = smat_val(g)
        assert [e.coeff(r0) for e in eigs] == \
            [g[i][i].coeff(r0) for i in range(len(g))]


def test_sparse_orders_match_the_dense_recurrence():
    rng = random.Random(2025)
    for _ in range(30):
        g = random_split_example(rng, sparse=True)
        T, eigs = split_series(g)
        T_ref, eigs_ref = dense_split_once(g)
        assert [_as_terms(row) for row in T] == \
            [_as_terms(row) for row in T_ref]
        assert _as_terms(eigs) == _as_terms(eigs_ref)


def test_balanced_gen_airy_split_skips_zero_blocks(monkeypatch):
    """After balancing, gen_airy_k29 at inf (pullback 2) has 31 orders
    below the cut and one nonzero coefficient matrix, the leading one, so
    the split, its residual included, forms at most one matrix product
    per order instead of order^2 / 2 of them."""
    a = mat([["0", "1"], ["z^29", "0"]])
    g = localize(a, "inf", default_truncation(2, pole_order(a, "inf")))
    products, orders = [], []
    mul, split = splitting.cmat_mul, splitting.split_once

    def counting_mul(x, y):
        products.append(1)
        return mul(x, y)

    def counting_split(coeffs, r0):
        orders.append(len(coeffs) - 1)
        return split(coeffs, r0)

    monkeypatch.setattr(splitting, "cmat_mul", counting_mul)
    monkeypatch.setattr(splitting, "split_once", counting_split)
    htl_from_reduction(g, 2, FieldTower())
    assert orders and orders[0] > 1
    assert len(products) <= sum(orders)


# -- the block splitting the one-pass split replaced -----------------------


def _reference_solve_linear(m, rhs):
    n = len(m)
    red, pivots = row_reduce([list(row) + [r] for row, r in zip(m, rhs)])
    if pivots[:n] != list(range(n)):
        raise SpecrigError("singular linear system")
    return [row[n] for row in red]


def _reference_sylvester_solve(p, q, c):
    """Unique T with T q - p T = c when spectra of p and q are disjoint."""
    np_, nq = len(p), len(q[0])
    size = np_ * nq
    m = [[F(0)] * size for _ in range(size)]
    rhs = []
    for i in range(np_):
        for j in range(nq):
            row = m[i * nq + j]
            for l in range(nq):
                row[i * nq + l] = row[i * nq + l] + q[l][j]
            for k in range(np_):
                row[k * nq + j] = row[k * nq + j] - p[i][k]
            rhs.append(c[i][j])
    flat = _reference_solve_linear(m, rhs)
    return [[flat[i * nq + j] for j in range(nq)] for i in range(np_)]


def _reference_split(g, n1):
    """One block split of g with leading coefficient block diagonal in
    sizes (n1, n - n1), by a Sylvester solve at every order; returns the
    two diagonal blocks of B in T g = B T."""
    n = len(g)
    r0 = int(smat_val(g))
    prec = smat_prec(g)
    order = int(prec - r0) - (0 if prec - r0 != int(prec - r0) else 1)
    while r0 + order >= prec:
        order -= 1
    a = [smat_coeff(g, r0 + m) for m in range(order + 1)]
    for i in range(n):
        for j in range(n):
            if (i < n1) != (j < n1) and a[0][i][j]:
                raise SpecrigError("leading coefficient is not block "
                                   "diagonal")
    p = [row[:n1] for row in a[0][:n1]]
    q = [row[n1:] for row in a[0][n1:]]
    t_coeffs = [cmat_identity(n)]
    b_coeffs = [a[0]]
    for m in range(1, order + 1):
        s = [row[:] for row in a[m]]
        for k in range(1, m):
            tk_a = cmat_mul(t_coeffs[k], a[m - k])
            bk_t = cmat_mul(b_coeffs[k], t_coeffs[m - k])
            s = [[s[i][j] + tk_a[i][j] - bk_t[i][j] for j in range(n)]
                 for i in range(n)]
        s12 = [[-s[i][j] for j in range(n1, n)] for i in range(n1)]
        s21 = [[-s[i][j] for j in range(n1)] for i in range(n1, n)]
        t12 = _reference_sylvester_solve(p, q, s12)
        t21 = _reference_sylvester_solve(q, p, s21)
        tm = [[F(0)] * n for _ in range(n)]
        for i in range(n1):
            for j in range(n - n1):
                tm[i][n1 + j] = t12[i][j]
        for i in range(n - n1):
            for j in range(n1):
                tm[n1 + i][j] = t21[i][j]
        bm = [[s[i][j] if (i < n1) == (j < n1) else F(0)
               for j in range(n)] for i in range(n)]
        t_coeffs.append(tm)
        b_coeffs.append(bm)
    B = [[Series({r0 + m: b_coeffs[m][i][j] for m in range(order + 1)
                  if b_coeffs[m][i][j]}, r0 + order + 1)
          for j in range(n)] for i in range(n)]
    return ([row[:n1] for row in B[:n1]], [row[n1:] for row in B[n1:]])


def _reference_eigenvalue_series(h):
    """Eigenvalue series by n - 1 one-against-the-rest block splits."""
    out = []
    while len(h) > 1:
        first, h = _reference_split(h, 1)
        out.append(first[0][0])
    out.append(h[0][0])
    return out


@st.composite
def _diagonal_leading(draw, field):
    """(g, truncated): g = t^r (diag(l) + noise t + ...), the l pairwise
    distinct, exact or truncated one order above its last term."""
    entry = _entries(field)
    n = draw(st.integers(2, 4))
    lam = draw(st.lists(entry, min_size=n, max_size=n).filter(
        lambda ls: all(x != y for i, x in enumerate(ls) for y in ls[:i])))
    r = draw(st.integers(-3, 1))
    orders = draw(st.integers(0, 4))
    truncated = draw(st.booleans())
    prec = r + orders + 1 if truncated else None
    g = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = {r + m: draw(entry) for m in range(1, orders + 1)}
            terms[r] = lam[i] if i == j else 0
            row.append(Series(terms, prec))
        g.append(row)
    return g, truncated


def _as_terms(series):
    return [(e.terms, e.prec) for e in series]


@pytest.mark.parametrize("field", ["Q", "Q(sqrt 2)"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_one_pass_split_matches_block_reference(field, data):
    g, truncated = data.draw(_diagonal_leading(field))
    tower = _SQRT2.tower if field != "Q" else FieldTower()
    if truncated:
        T, eigs = split_series(g)
        assert _as_terms(eigs) == _as_terms(_reference_eigenvalue_series(g))
        assert residual_vanishes(g, T, eigs)
    # full_split cuts exact and truncated input alike before it splits
    cut = full_split(g, tower)
    with mock.patch.object(splitting, "split_once", lambda a, r0: (
            None, _reference_eigenvalue_series(_series_of(a, r0)))):
        assert _as_terms(cut) == _as_terms(full_split(g, tower))


def _series_of(a, r0):
    """The series matrix sum_m a[m] t^{r0 + m}, certified below
    t^{r0 + len(a)}."""
    n = len(a[0])
    return [[Series({r0 + m: am[i][j] for m, am in enumerate(a)},
                    r0 + len(a)) for j in range(n)] for i in range(n)]


# -- the eigenbasis of the adjugate against the Gauss-Jordan one -----------


# monic irreducible polynomials over Q by degree, low coefficient first:
# rational roots; sqrt 2, i, the golden ratio, a cube root of unity,
# sqrt 3, -1 +- sqrt 3; the cube root of 2 and x^3 - x - 1 (Galois group
# S3), x^3 - 3x + 1 (cyclic), x^3 + x + 1
_IRREDUCIBLE = {1: [[-r, 1] for r in range(-3, 4)],
                2: [[-2, 0, 1], [1, 0, 1], [-1, -1, 1], [1, 1, 1],
                    [-3, 0, 1], [-2, 2, 1]],
                3: [[-2, 0, 0, 1], [-1, -1, 0, 1], [1, -3, 0, 1],
                    [1, 1, 0, 1]]}
_PARTITIONS = {2: [(1, 1), (2,)], 3: [(1, 1, 1), (2, 1), (3,)],
               4: [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1)]}


@st.composite
def _squarefree_leading(draw):
    """A rational matrix of size 2-4 with squarefree charpoly: companion
    blocks of distinct monic irreducible factors of degree 1-3, so that
    quadratic and cubic factors put eigenvalues in the tower, conjugated
    by a seeded unimodular matrix."""
    n = draw(st.integers(2, 4))
    degrees = draw(st.sampled_from(_PARTITIONS[n]))
    factors = []
    for d in sorted(set(degrees)):
        factors += draw(st.lists(st.sampled_from(_IRREDUCIBLE[d]),
                                 min_size=degrees.count(d),
                                 max_size=degrees.count(d),
                                 unique_by=tuple))
    c = [[F(0)] * n for _ in range(n)]
    at = 0
    for f in factors:
        d = len(f) - 1
        for i in range(d):
            if i:
                c[at + i][at + i - 1] = F(1)
            c[at + i][at + d - 1] = F(-f[i])
        at += d
    p = unimodular(n, draw(st.integers(1, 50)))
    return cmat_mul(cmat_mul(p, c), cmat_inverse(p))


@settings(max_examples=40, deadline=None)
@given(a0=_squarefree_leading(), data=st.data())
def test_adjugate_eigenbasis_matches_gauss_jordan(a0, data):
    """V from the adjugate diagonalizes a0, V^-1 is its inverse, and the
    split after it gives the eigenvalue series that the Gauss-Jordan
    eigenbasis and a split over series matrices gave."""
    n = len(a0)
    cp = cmat_charpoly(a0)
    tower = FieldTower()
    eigs = [e for e, _ in tower.split_completely(cp)]
    v, vinv = splitting._eigenbasis(a0, cp, eigs)
    assert cmat_mul(vinv, v) == cmat_identity(n)
    assert cmat_mul(vinv, cmat_mul(a0, v)) == \
        [[eigs[i] if i == j else 0 for j in range(n)] for i in range(n)]
    # the columns differ from the elimination's by nonzero scalars only
    v_ref, _ = gauss_jordan_eigenbasis(a0, eigs)
    for j in range(n):
        k = next(i for i in range(n) if v_ref[i][j])
        ratio = v[k][j] * qdiv(1, v_ref[k][j])
        assert [v[i][j] for i in range(n)] == \
            [v_ref[i][j] * ratio for i in range(n)]
    r = data.draw(st.integers(-2, 0))
    orders = data.draw(st.integers(1, 3))
    higher = data.draw(st.lists(st.lists(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n),
        min_size=n, max_size=n), min_size=orders, max_size=orders))
    prec = data.draw(st.sampled_from([None, r + orders + 1]))
    g = [[Series({r + m: F(am[i][j]) for m, am in enumerate([a0] + higher)},
                 prec) for j in range(n)] for i in range(n)]
    ours = full_split(g, tower)
    ref = gauss_jordan_split(g, tower)
    for e in ours:
        ref.remove(e)  # equal values, in whatever order the roots come
    assert not ref
