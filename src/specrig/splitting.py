"""Eigenvalue series of truncated series matrices by pure similarity.

Given G(t) = t^r (A_0 + A_1 t + ...) with A_0 = diag(l_1, ..., l_n) and
the l_i pairwise distinct, there is a unique T(t) = I + (off-diagonal
corrections) with T G = diag(e_1, ..., e_n) T.  Order by order, every
entry of T comes from one division by l_i - l_j, and e_i is the
eigenvalue series of G that starts with l_i t^r: an HTL-cell extraction
independent of the Newton-Puiseux route.  full_split brings a leading
matrix with pairwise distinct eigenvalues to that diagonal form by a
constant conjugation.  No derivative term appears: similarity preserves
eigenvalue series, and the correction a genuine gauge transform adds has
order >= 0, so principal parts through the t^{-1} coefficient agree.

A split certifies every eigenvalue series to the precision of its input:
the t^{r + m} coefficient of e_i comes from A_0 .. A_m alone.  So
full_split cuts its input below t^0, the part the HTL route
(htl_from_reduction) reads, which certifies the principal part and the
residue and nothing beyond them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product
from math import ceil

from .errors import (InsufficientTruncation, InternalInconsistency,
                     ReductionUnavailable, SpecrigError)
from .qpoly import UPoly, det_cofactor, resultant_det, row_reduce
from .series import INF, Series, qdiv
from .tower import FieldTower

# -- constant matrices over a field (Fraction / tower elements) -------------


def cmat_identity(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]


def cmat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum((a[i][t] * b[t][j] for t in range(k) if a[i][t]),
                 Fraction(0)) for j in range(m)] for i in range(n)]


def cmat_charpoly(a) -> UPoly:
    n = len(a)
    y = UPoly([0, 1])
    rows = [[(y - UPoly.const(a[i][j])) if i == j else UPoly.const(-a[i][j])
             for j in range(n)] for i in range(n)]
    return det_cofactor(rows)


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
    # skip exact zeros only: a zero known to a precision caps the sum's
    return [[sum((a[i][t] * b[t][j] for t in range(k)
                  if not a[i][t].is_zero()), Series.zero())
             for j in range(m)] for i in range(n)]


def smat_from_const(a):
    return [[Series.const(x) if x else Series.zero() for x in row]
            for row in a]


def smat_conjugate_const(g, v, vinv):
    sv = smat_from_const(v)
    svi = smat_from_const(vinv)
    return smat_mul(svi, smat_mul(g, sv))


def split_once(g):
    """Eigenvalue series of g, whose leading coefficient is diagonal with
    pairwise distinct entries, to every order g certifies.

    Returns (T, eigs) with T = I + O(t) and T g = diag(eigs) T, and
    verifies that residual literally.  At order m, with s the part of
    the order-m equation already known, T_m[i][j] = s[i][j] / (l_i - l_j)
    off the diagonal and s[i][i] is the t^{r + m} coefficient of eigs[i].
    """
    n = len(g)
    r0 = smat_val(g)
    if r0 != int(r0):
        raise SpecrigError("series matrix must have integer exponents")
    r0 = int(r0)
    prec = smat_prec(g)
    if prec == INF:
        raise SpecrigError("split_once needs truncated input")
    order = ceil(prec - r0) - 1  # largest m with r0 + m < prec
    if order < 0:
        raise InsufficientTruncation("no certified orders beyond leading")
    a = [smat_coeff(g, r0 + m) for m in range(order + 1)]
    lam = [a[0][i][i] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and (a[0][i][j] or lam[i] == lam[j]):
                raise SpecrigError("leading coefficient is not diagonal "
                                   "with distinct entries")
    inv = [[qdiv(1, lam[i] - lam[j]) if i != j else None for j in range(n)]
           for i in range(n)]
    t_coeffs = [cmat_identity(n)]
    b_coeffs = [lam]
    for m in range(1, order + 1):
        s = [row[:] for row in a[m]]
        for k in range(1, m):
            tk_a = cmat_mul(t_coeffs[k], a[m - k])
            tmk, bk = t_coeffs[m - k], b_coeffs[k]
            s = [[s[i][j] + tk_a[i][j] - bk[i] * tmk[i][j]
                  for j in range(n)] for i in range(n)]
        t_coeffs.append([[s[i][j] * inv[i][j] if i != j else Fraction(0)
                          for j in range(n)] for i in range(n)])
        b_coeffs.append([s[i][i] for i in range(n)])
    T = [[Series({m: t_coeffs[m][i][j] for m in range(order + 1)
                  if t_coeffs[m][i][j]}, order + 1)
          for j in range(n)] for i in range(n)]
    eigs = [Series({r0 + m: b_coeffs[m][i] for m in range(order + 1)
                    if b_coeffs[m][i]}, r0 + order + 1) for i in range(n)]
    tg = smat_mul(T, g)
    for i in range(n):
        for j in range(n):
            if (tg[i][j] - eigs[i] * T[i][j]).terms:
                raise InternalInconsistency(
                    "split residual does not vanish to the certified order")
    return T, eigs


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
    """Eigenvalue series of g, by one split after a constant
    conjugation, each certified below t^0 (below t^{r0 + 1} at least).

    Requires the leading matrix (after scalar stripping and diagonal power
    balancing, both similarity moves) to have pairwise distinct eigenvalues
    over the tower.  The regular-semisimple input, exact or truncated, is
    cut to precision max(0, r0 + 1) before splitting.  The cut is exact:
    the t^{r0 + m} coefficient of every series depends only on the
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
        _, eig_series = split_once(smat_conjugate_const(g, v, vinv))
        return eig_series
    c = _is_scalar(a0)
    if c is not None:
        scalar = Series.monomial(c, r0)
        stripped = [[g[i][j] - (scalar if i == j else Series.zero())
                     for j in range(n)] for i in range(n)]
        return [scalar + b for b in full_split(stripped, tower)]
    balanced = _balance(g, tower)
    if balanced is not None:
        return full_split(balanced, tower)
    raise ReductionUnavailable(
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
    t * e = s * (z * y)(t^s) for an eigenvalue series e, so dividing by s
    and scaling exponents by 1/s recovers the z-side data.

    Both are read from the series below t^0, the precision full_split
    certifies for exact and truncated g alike; the route certifies q and
    the residue and nothing beyond them.
    """
    gt = ramified_pullback(g, s_hint)
    cells = []
    for b in full_split(gt, tower):
        tb = b.shift(1)
        low = tb.nonpositive_part()
        inv = Fraction(1, s_hint)
        q = Series({e * inv: c * inv for e, c in low.terms.items() if e < 0})
        residue = low.terms.get(Fraction(0), Fraction(0)) * inv
        cells.append((q, residue))
    return cells
