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

from math import ceil, floor

from .errors import (InsufficientTruncation, InternalInconsistency,
                     ReductionUnavailable, SpecrigError)
from .qpoly import UPoly, det_cofactor, poly_gcd, row_reduce
from .series import INF, Series, qdiv
from .tower import FieldTower, rational_value

# -- constant matrices over a field (rationals / tower elements) ------------


def cmat_identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def cmat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k) if a[i][t])
             for j in range(m)] for i in range(n)]


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
    v = [0] * len(a)
    v[free] = 1
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
    return [[sum((a[i][t] * b[t][j] for t in range(k) if a[i][t]),
                 Series.zero())
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
    A coefficient of eigs with a rational value is that Fraction, whether
    the arithmetic reached it as a rational or as a tower element.
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
    # a product with a zero factor adds nothing: after balancing, most
    # a_m of a sparse input are zero, and so are the T_k they would feed
    a_nonzero = [any(any(row) for row in am) for am in a]
    t_nonzero = [True]
    b_nonzero = [True]
    for m in range(1, order + 1):
        s = [row[:] for row in a[m]]
        for k in range(1, m):
            if t_nonzero[k] and a_nonzero[m - k]:
                tk_a = cmat_mul(t_coeffs[k], a[m - k])
                s = [[s[i][j] + tk_a[i][j] for j in range(n)]
                     for i in range(n)]
            if b_nonzero[k] and t_nonzero[m - k]:
                tmk, bk = t_coeffs[m - k], b_coeffs[k]
                s = [[s[i][j] - bk[i] * tmk[i][j] for j in range(n)]
                     for i in range(n)]
        tm = [[s[i][j] * inv[i][j] if i != j else 0
               for j in range(n)] for i in range(n)]
        bm = [s[i][i] for i in range(n)]
        t_coeffs.append(tm)
        b_coeffs.append(bm)
        t_nonzero.append(any(any(row) for row in tm))
        b_nonzero.append(any(bm))
    T = [[Series({m: t_coeffs[m][i][j] for m in range(order + 1)
                  if t_coeffs[m][i][j]}, order + 1)
          for j in range(n)] for i in range(n)]
    eigs = [Series({r0 + m: rational_value(b[i]) or b[i]
                    for m, b in enumerate(b_coeffs) if b[i]},
                   r0 + order + 1) for i in range(n)]
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
    """Whether cp, of degree at least 1 over Q or a field tower, has
    distinct roots: whether cp and cp' are coprime.  That is
    Res(cp, cp') != 0, decided by one gcd instead of a determinant."""
    return poly_gcd(cp, cp.derivative()).degree == 0


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

    The balancing gauge diag(t^{k_i}) is computed, not searched: k are
    potentials for the least cycle mean lambda of the entry valuations
    (see _balance).  A gauge with leading exponent below lambda gives a
    nilpotent leading matrix, and every gauge that reaches lambda gives the
    same leading charpoly, det(y t^lambda - D g D^-1) = det(y t^lambda - g);
    so balancing fails only when every diagonal power gauge does.
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
    if not _charpoly_squarefree(cp):
        c = _is_scalar(a0)
        if c is not None:
            scalar = Series.monomial(c, r0)
            stripped = [[g[i][j] - (scalar if i == j else Series.zero())
                         for j in range(n)] for i in range(n)]
            return [scalar + b for b in full_split(stripped, tower)]
        balanced = _balance(g)
        if balanced is None:
            raise ReductionUnavailable(
                "leading matrix has a repeated eigenvalue and no balancing "
                "diagonal power gauge separates it")
        g, r0, a0, cp = balanced
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
    return split_once(smat_conjugate_const(g, v, _cmat_inverse(v)))[1]


def _balance(g):
    """The diagonal power gauge diag(t^{k_i}) that makes the leading
    matrix of g regular semisimple, computed from the entry valuations,
    as (balanced g, lambda, leading matrix, its charpoly); None when no
    diagonal power gauge does.

    Let v_ij be the valuation of each entry with terms.  The gauge moves
    v_ij to v_ij + k_i - k_j, which leaves the mean of every cycle of the
    digraph i -> j unchanged, so the leading exponent is at most lambda,
    the least cycle mean (Karp).  It reaches lambda exactly when
    k_j - k_i <= v_ij - lambda on every entry with terms; an entry that
    vanishes only up to its precision adds k_j - k_i <= prec_ij - 1 - lambda,
    so that its leading coefficient is certified.  The Bellman-Ford
    potentials k solve these difference constraints, and a negative cycle
    means nothing does.

    No other gauge can succeed.  A gauge whose leading exponent lies below
    lambda leaves no cycle in the support of the leading matrix, which is
    then nilpotent.  Every gauge that reaches lambda gives the same leading
    characteristic polynomial, because det(y t^lambda - D g D^-1) =
    det(y t^lambda - g) for every diagonal D.  So one charpoly decides,
    and full_split splits the balanced matrix by it.

    The gauge also moves each precision prec_ij to prec_ij + k_i - k_j,
    and full_split certifies the eigenvalue series only to the least of
    them, up to its cut max(0, lambda + 1).  So where some gauge that
    reaches lambda also lifts every truncated entry to the cut, with
    k_j - k_i <= floor(prec_ij - cut), that gauge is taken; otherwise
    the constraints above decide alone.
    """
    n = len(g)
    edges, caps = [], []
    for i, row in enumerate(g):
        for j, e in enumerate(row):
            if e.terms:
                edges.append((i, j, e.valuation()))
            elif e.prec is not None:
                caps.append((i, j, e.prec))
    lam = _least_cycle_mean(n, edges)
    if lam is None or lam != int(lam):
        return None
    lam = int(lam)
    leading = ([(i, j, floor(v) - lam) for i, j, v in edges]
               + [(i, j, ceil(p) - 1 - lam) for i, j, p in caps])
    cut = max(0, lam + 1)
    lifts = [(i, j, floor(e.prec - cut)) for i, row in enumerate(g)
             for j, e in enumerate(row) if e.prec is not None]
    k = _potentials(n, leading + lifts)
    if k is None:
        k = _potentials(n, leading)
    if k is None:
        return None
    balanced = [[g[i][j].shift(k[i] - k[j]) for j in range(n)]
                for i in range(n)]
    a0 = smat_coeff(balanced, lam)
    cp = cmat_charpoly(a0)
    return (balanced, lam, a0, cp) if _charpoly_squarefree(cp) else None


def _least_cycle_mean(n, edges):
    """Karp's least cycle mean of the digraph on range(n) with weighted
    edges (i, j, w); None when it has no cycle."""
    # walks[m][v]: least weight of an m-edge walk ending at v, from anywhere
    walks = [[0] * n]
    for _ in range(n):
        prev, cur = walks[-1], [None] * n
        for i, j, w in edges:
            if prev[i] is not None and (cur[j] is None
                                        or prev[i] + w < cur[j]):
                cur[j] = prev[i] + w
        walks.append(cur)
    means = [max(qdiv(walks[n][v] - walks[m][v], n - m) for m in range(n))
             for v in range(n) if walks[n][v] is not None]
    return min(means, default=None)


def _potentials(n, edges):
    """k with k_j <= k_i + w on every edge (i, j, w), integers for integer
    weights: the shortest distances from a source joined to every vertex
    (Bellman-Ford); None when a negative cycle leaves no solution."""
    k = [0] * n
    for _ in range(n):
        changed = False
        for i, j, w in edges:
            if k[i] + w < k[j]:
                k[j] = k[i] + w
                changed = True
        if not changed:
            return k
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
        inv = qdiv(1, s_hint)
        q = Series({e * inv: c * inv for e, c in low.terms.items() if e < 0})
        residue = low.terms.get(0, 0) * inv
        cells.append((q, residue))
    return cells
