"""Block splitting of truncated series matrices by pure similarity.

Given G(t) = t^r (A_0 + A_1 t + ...) with A_0 block diagonal and disjoint
block spectra, there is a unique T(t) = I + (off-diagonal corrections) with
T G = B T and B block diagonal; the coefficients of T come from Sylvester
equations order by order.  Repeating until all blocks are 1x1 yields the
eigenvalue series of G, an HTL-cell extraction independent of the
Newton-Puiseux route.  No derivative term appears: similarity preserves
eigenvalue series, and the correction a genuine gauge transform adds has
order >= 0, so principal parts through the t^{-1} coefficient agree.

A split certifies every block to the precision of its input: the
t^{r + m} coefficient of B comes from A_0 .. A_m alone.  So full_split
cuts its input below t^0, the part the HTL route (htl_from_reduction)
reads, which certifies the principal part and the residue and nothing
beyond them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product

from .errors import (InsufficientTruncation, InternalInconsistency,
                     NotRegularSemisimple, SpecrigError, SpectraOverlap)
from .qpoly import UPoly, det_cofactor, resultant_det, row_reduce
from .series import INF, Series
from .tower import FieldTower

# -- constant matrices over a field (Fraction / tower elements) -------------


def cmat_identity(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]


def cmat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0))
             for j in range(m)] for i in range(n)]


def cmat_charpoly(a) -> UPoly:
    n = len(a)
    y = UPoly([0, 1])
    rows = [[(y - UPoly.const(a[i][j])) if i == j else UPoly.const(-a[i][j])
             for j in range(n)] for i in range(n)]
    return det_cofactor(rows)


def solve_linear(m, rhs):
    """Solve m x = rhs by Gauss-Jordan elimination over an exact field."""
    n = len(m)
    red, pivots = row_reduce([list(row) + [r] for row, r in zip(m, rhs)])
    if pivots[:n] != list(range(n)):
        raise SpectraOverlap("singular linear system")
    return [row[n] for row in red]


def null_vector(a):
    """One nonzero kernel vector of a singular square matrix."""
    red, pivots = row_reduce(a)
    free = next((c for c in range(len(a)) if c not in pivots), None)
    if free is None:
        raise SpecrigError("matrix is nonsingular; no kernel vector")
    v = [Fraction(0)] * len(a)
    v[free] = Fraction(1)
    for row, col in zip(red, pivots):
        v[col] = -row[free]
    return v


def sylvester_solve(p, q, c):
    """Unique T with T q - p T = c when spectra of p and q are disjoint;
    raises SpectraOverlap (from solve_linear) when they are not."""
    np_, nq = len(p), len(q[0])
    size = np_ * nq
    m = [[Fraction(0)] * size for _ in range(size)]
    rhs = []
    for i in range(np_):
        for j in range(nq):
            row = m[i * nq + j]
            for l in range(nq):
                row[i * nq + l] = row[i * nq + l] + q[l][j]
            for k in range(np_):
                row[k * nq + j] = row[k * nq + j] - p[i][k]
            rhs.append(c[i][j])
    flat = solve_linear(m, rhs)
    return [[flat[i * nq + j] for j in range(nq)] for i in range(np_)]


# -- series matrices ---------------------------------------------------------


def smat_val(g):
    v = INF
    for row in g:
        for e in row:
            if e.terms:
                v = min(v, e.valuation())
    if v == INF:
        raise SpecrigError("zero series matrix has no leading exponent")
    return v


def smat_prec(g):
    p = INF
    for row in g:
        for e in row:
            if e.prec is not None:
                p = min(p, e.prec)
    return p


def smat_coeff(g, e):
    return [[x.coeff(e) for x in row] for row in g]


def smat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum((a[i][t] * b[t][j] for t in range(k)), Series.zero())
             for j in range(m)] for i in range(n)]


def smat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def smat_from_const(a):
    return [[Series.const(x) if x else Series.zero() for x in row]
            for row in a]


def smat_conjugate_const(g, v, vinv):
    sv = smat_from_const(v)
    svi = smat_from_const(vinv)
    return smat_mul(svi, smat_mul(g, sv))


class SplitCertificate:
    """T G = B T to the certified order, B block diagonal."""

    __slots__ = ("T", "B", "lead", "order", "n1")

    def __init__(self, T, B, lead, order, n1):
        self.T = T
        self.B = B
        self.lead = lead
        self.order = order
        self.n1 = n1

    def block(self, which):
        n1 = self.n1
        if which == 0:
            return [row[:n1] for row in self.B[:n1]]
        return [row[n1:] for row in self.B[n1:]]


def split_once(g, n1) -> SplitCertificate:
    """One block split of g with leading coefficient block diagonal in
    sizes (n1, n - n1), to every order g certifies; verifies the residual
    T g - B T literally."""
    n = len(g)
    r0 = smat_val(g)
    if r0 != int(r0):
        raise SpecrigError("series matrix must have integer exponents")
    r0 = int(r0)
    prec = smat_prec(g)
    if prec == INF:
        raise SpecrigError("split_once needs truncated input")
    order = int(prec - r0) - (0 if prec - r0 != int(prec - r0) else 1)
    # largest m with r0 + m < prec
    while r0 + order >= prec:
        order -= 1
    if order < 0:
        raise InsufficientTruncation("no certified orders beyond leading")
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
        t12 = sylvester_solve(p, q, s12)
        t21 = sylvester_solve(q, p, s21)
        tm = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n1):
            for j in range(n - n1):
                tm[i][n1 + j] = t12[i][j]
        for i in range(n - n1):
            for j in range(n1):
                tm[n1 + i][j] = t21[i][j]
        bm = [[s[i][j] if (i < n1) == (j < n1) else Fraction(0)
               for j in range(n)] for i in range(n)]
        t_coeffs.append(tm)
        b_coeffs.append(bm)
    t_prec = order + 1
    T = [[Series({m: t_coeffs[m][i][j] for m in range(order + 1)
                  if t_coeffs[m][i][j]}, t_prec)
          for j in range(n)] for i in range(n)]
    B = [[Series({r0 + m: b_coeffs[m][i][j] for m in range(order + 1)
                  if b_coeffs[m][i][j]}, r0 + order + 1)
          for j in range(n)] for i in range(n)]
    resid = smat_sub(smat_mul(T, g), smat_mul(B, T))
    for row in resid:
        for e in row:
            if e.terms:
                raise InternalInconsistency(
                    "split residual does not vanish to the certified order")
    return SplitCertificate(T, B, r0, order, n1)


def _is_scalar(a):
    n = len(a)
    c = a[0][0]
    for i in range(n):
        for j in range(n):
            if i == j:
                if a[i][j] != c:
                    return None
            elif a[i][j]:
                return None
    return c


def _charpoly_squarefree(cp: UPoly) -> bool:
    der = cp.derivative()
    if der.is_zero():
        return False
    return bool(resultant_det(cp, der))


def full_split(g, tower: FieldTower):
    """Eigenvalue series of g as scalar blocks, by repeated splitting,
    each certified below t^0 (below t^{r0 + 1} at least).

    Requires the leading matrix (after scalar stripping and diagonal power
    balancing, both similarity moves) to have pairwise distinct eigenvalues
    over the tower.  The regular-semisimple input, exact or truncated, is
    cut to precision max(0, r0 + 1) before splitting.  The cut is exact:
    the t^{r0 + m} coefficient of every block depends only on the
    coefficients of g through t^{r0 + m}, and the constant conjugation in
    front of it, like the stripping and balancing before it, leaves the
    eigenvalue series unchanged.  Balancing runs before the cut and so
    sees the full precision of g.
    """
    n = len(g)
    if n == 1:
        return [g[0][0]]
    if all(not e.terms for row in g for e in row):
        p = smat_prec(g)
        if p == INF:
            return [Series.zero() for _ in range(n)]
        return [Series.zero(p) for _ in range(n)]
    r0 = smat_val(g)
    a0 = smat_coeff(g, r0)
    cp = cmat_charpoly(a0)
    if _charpoly_squarefree(cp):
        eigs = [e for e, _ in tower.split_completely(cp)]
        if len(eigs) != n:
            raise InternalInconsistency("eigenvalue count mismatch")
        cut = max(0, r0 + 1)
        if smat_prec(g) > cut:
            g = [[e.truncate(cut) for e in row] for row in g]
        vcols = [null_vector([[a0[i][j] - (eig if i == j else 0)
                               for j in range(n)] for i in range(n)])
                 for eig in eigs]
        v = [[vcols[j][i] for j in range(n)] for i in range(n)]
        vinv = _cmat_inverse(v)
        h = smat_conjugate_const(g, v, vinv)
        out = []
        while len(h) > 1:
            cert = split_once(h, 1)
            out.append(cert.block(0)[0][0])
            h = cert.block(1)
        out.append(h[0][0])
        return out
    c = _is_scalar(a0)
    if c is not None:
        scalar = Series.monomial(c, r0)
        stripped = [[g[i][j] - (scalar if i == j else Series.zero())
                     for j in range(n)] for i in range(n)]
        return [scalar + b for b in full_split(stripped, tower)]
    balanced = _balance(g, tower)
    if balanced is not None:
        return full_split(balanced, tower)
    raise NotRegularSemisimple(
        "leading matrix has a repeated eigenvalue and no balancing "
        "diagonal power gauge separates it")


def _balance(g, tower):
    """Search small diagonal power conjugations diag(t^{k_i}) that make the
    leading matrix regular semisimple."""
    n = len(g)
    vals = [[(e.valuation() if e.terms else None) for e in row] for row in g]
    progressions = [tuple(c * i for i in range(1, n))
                    for c in range(-24, 25) if c]
    tried = set(progressions)
    # a generator: at rank 7 the brute range has 13^6 ~ 4.8M tuples
    brute = (ks for ks in product(range(-6, 7), repeat=n - 1)
             if ks not in tried)
    for ks in chain(progressions, brute):
        k = (0,) + ks
        if all(x == 0 for x in k):
            continue
        r0 = INF
        for i in range(n):
            for j in range(n):
                if vals[i][j] is not None:
                    r0 = min(r0, vals[i][j] + k[i] - k[j])
        if r0 == INF:
            continue
        a0 = [[(g[i][j].coeff(r0 - k[i] + k[j])
                if g[i][j].prec is None or r0 - k[i] + k[j] < g[i][j].prec
                else None)
               for j in range(n)] for i in range(n)]
        if any(x is None for row in a0 for x in row):
            continue
        cp = cmat_charpoly(a0)
        if _charpoly_squarefree(cp):
            return [[g[i][j].shift(k[i] - k[j]) for j in range(n)]
                    for i in range(n)]
    return None


def _cmat_inverse(a):
    n = len(a)
    red, pivots = row_reduce([list(row) + unit
                              for row, unit in zip(a, cmat_identity(n))])
    if pivots[:n] != list(range(n)):
        raise SpecrigError("singular matrix")
    return [row[n:] for row in red]


def ramified_pullback(g, s: int):
    """Transport of d/dz - G under z = t^s: G~(t) = s t^{s-1} G(t^s)."""
    if s < 1:
        raise SpecrigError("pullback order must be positive")
    if s == 1:
        return [row[:] for row in g]
    return [[(e.scale_exponents(s).shift(s - 1)) * s for e in row]
            for row in g]


def htl_from_reduction(g, s_hint: int, tower: FieldTower):
    """Scalar normal forms of the localized matrix g after pullback by
    s_hint: list of (principal part q in the z coordinate, residue).

    q keeps strictly negative exponents; the residue is the z^0
    coefficient of z * eigenvalue, divided through the pullback chain rule.
    t * block = s * (z * y)(t^s), so dividing by s and scaling exponents by
    1/s recovers the z-side data.

    Both are read from the blocks below t^0, the precision full_split
    certifies for exact and truncated g alike; the route certifies q and
    the residue and nothing beyond them.
    """
    gt = ramified_pullback(g, s_hint)
    blocks = full_split(gt, tower)
    cells = []
    for b in blocks:
        tb = b.shift(1)
        low = tb.nonpositive_part()
        inv = Fraction(1, s_hint)
        q = Series({e * inv: c * inv for e, c in low.terms.items() if e < 0})
        residue = low.terms.get(Fraction(0), Fraction(0)) * inv
        cells.append((q, residue))
    return cells
