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

The conjugation never eliminates over the field tower.  Its columns and
the rows of its inverse are read off one adjugate adj(y - A_0) over the
field of A_0, which is rank one at each simple eigenvalue, and it acts
on the constant coefficient matrices A_m one at a time, never on series.
The split itself runs on those coefficient matrices and visits only the
orders where A_m, T_m or e_m is nonzero.

A split certifies every eigenvalue series to the precision of its input:
the t^{r + m} coefficient of e_i comes from A_0 .. A_m alone.  So
full_split cuts its input below t^0, the part the HTL route
(htl_from_reduction) reads, which certifies the principal part and the
residue and nothing beyond them.
"""

from __future__ import annotations

from math import ceil, floor

from .errors import InternalInconsistency, ReductionUnavailable, SpecrigError
from .qpoly import UPoly, det_cofactor, poly_gcd
from .series import INF, Series, qdiv
from .tower import FieldTower, rational_value

# -- constant matrices over a field (rationals / tower elements) ------------


def cmat_identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def cmat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k) if a[i][t] and b[t][j])
             for j in range(m)] for i in range(n)]


def cmat_charpoly(a) -> UPoly:
    n = len(a)
    y = UPoly([0, 1])
    rows = [[(y - UPoly.const(a[i][j])) if i == j else UPoly.const(-a[i][j])
             for j in range(n)] for i in range(n)]
    return det_cofactor(rows)


def _eigenbasis(a0, cp, eigs):
    """(V, V^-1) with V^-1 a0 V = diag(eigs), for the simple roots eigs of
    cp, the characteristic polynomial of a0, from one adjugate.

    Comparing coefficients in (y - a0) adj(y - a0) = cp(y) I gives
    adj(y - a0) = sum_k C_k y^k with C_{n-1} = I and
    C_{k-1} = a0 C_k + c_k I, and the closing identity a0 C_0 + c_0 I = 0,
    which is checked.  At a simple root l, l - a0 has rank n - 1, so
    adj(l - a0) has rank one: its columns are right eigenvectors and its
    rows left ones.  With v its first nonzero column and w its first
    nonzero row, w.v != 0 for a simple root, and w_i.v_j = 0 for distinct
    eigenvalues.  So V has the columns v_i and V^-1 the rows w_i / w_i.v_i:
    n inverses, and no elimination.
    """
    n = len(a0)
    adj = [cmat_identity(n)]  # C_{n-1}, ..., C_0, then a0 C_0 + c_0 I
    for c in reversed(cp.coeffs[:n]):
        adj.append([[x + c if i == j else x for j, x in enumerate(row)]
                    for i, row in enumerate(cmat_mul(a0, adj[-1]))])
    if any(map(any, adj.pop())):
        raise InternalInconsistency(
            "adjugate of the leading matrix fails a0 C_0 + c_0 I = 0")
    cols, rows = [], []
    for eig in eigs:
        powers = [1]  # eig^(n-1), ..., eig, 1, in the order of adj
        for _ in range(n - 1):
            powers.insert(0, powers[0] * eig)
        at = [[sum(c[i][j] * p for c, p in zip(adj, powers) if c[i][j])
               for j in range(n)] for i in range(n)]
        v = next(col for col in zip(*at) if any(col))
        w = next(row for row in at if any(row))
        d = sum(x * y for x, y in zip(w, v))
        if not d:
            raise InternalInconsistency(
                "left and right eigenvectors of a simple eigenvalue are "
                "orthogonal")
        inv = qdiv(1, d)
        cols.append(v)
        rows.append([x * inv for x in w])
    return [list(row) for row in zip(*cols)], rows


def split_once(a, r0):
    """Eigenvalue series of t^r0 (a[0] + a[1] t + ...), whose leading
    coefficient a[0] is diagonal with pairwise distinct entries, each
    certified below t^{r0 + len(a)}.

    Returns (T, eigs), T the coefficient matrices T_0 = I, T_1, ... with
    T a = diag(eigs) T to that order.  At order m, with s the part of the
    order-m equation already known, T_m[i][j] = s[i][j] / (l_i - l_j) off
    the diagonal and s[i][i] is the t^{r0 + m} coefficient of eigs[i].
    s sums products over the orders where a, T and eigs are nonzero
    only, and so does the residual T a - diag(eigs) T, recomputed at every
    order from the stored T, eigs and a.  A coefficient of eigs with a
    rational value is that Fraction, whether the arithmetic reached it as
    a rational or as a tower element.
    """
    n = len(a[0])
    lam = [a[0][i][i] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and (a[0][i][j] or lam[i] == lam[j]):
                raise SpecrigError("leading coefficient is not diagonal "
                                   "with distinct entries")
    inv = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            inv[i][j] = qdiv(1, lam[i] - lam[j])
            inv[j][i] = -inv[i][j]
    a_on = [any(map(any, am)) for am in a]
    t, b = [cmat_identity(n)], [lam]
    t_nz, b_nz = [0], [0]  # the orders of the nonzero T_k and b_k

    def known(m):
        """The t^m coefficient of T a - diag(b) T over the nonzero orders
        of T and b stored so far."""
        s = [[0] * n for _ in range(n)]
        for k in t_nz:
            if k <= m and a_on[m - k]:
                prod = cmat_mul(t[k], a[m - k]) if k else a[m]
                s = [[x + y for x, y in zip(sr, pr)]
                     for sr, pr in zip(s, prod)]
        for k in b_nz:
            if m - k in t_nz:
                bk, tl = b[k], t[m - k]
                s = [[x - bk[i] * y if y else x for x, y in zip(sr, tl[i])]
                     for i, sr in enumerate(s)]
        return s

    for m in range(1, len(a)):
        s = known(m)
        t.append([[s[i][j] * inv[i][j] if i != j and s[i][j] else 0
                   for j in range(n)] for i in range(n)])
        b.append([s[i][i] for i in range(n)])
        if any(map(any, t[m])):
            t_nz.append(m)
        if any(b[m]):
            b_nz.append(m)
    if any(any(map(any, known(m))) for m in range(len(a))):
        raise InternalInconsistency(
            "split residual does not vanish to the certified order")
    eigs = [Series({r0 + m: rational_value(bm[i]) or bm[i]
                    for m, bm in enumerate(b) if bm[i]}, r0 + len(a))
            for i in range(n)]
    return t, eigs


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
    read only below the cut t^max(0, r0 + 1) and its own precision.  The
    cut is exact:
    the t^{r0 + m} coefficient of every series depends only on the
    coefficients of g through t^{r0 + m}, and the constant conjugation in
    front of it, like the stripping and balancing before it, leaves the
    eigenvalue series unchanged.  Balancing runs before the cut and so
    sees the full precision of g.

    The conjugation V comes from one adjugate of the leading matrix a0
    (see _eigenbasis), so V^-1 a0 V = diag(eigs) holds by construction
    and is not formed.  V acts on each nonzero coefficient matrix a_m of
    g below the cut, never on series, and a rational a_m only scales the
    tower elements of V.  split_once takes the V^-1 a_m V with r0.

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
    cut = min(smat_prec(g), max(0, r0 + 1))
    v, vinv = _eigenbasis(a0, cp, eigs)
    a = [[[x if i == j else 0 for j in range(n)] for i, x in enumerate(eigs)]]
    for m in range(1, ceil(cut - r0)):
        am = smat_coeff(g, r0 + m)
        a.append(cmat_mul(vinv, cmat_mul(am, v)) if any(map(any, am))
                 else am)
    return split_once(a, r0)[1]


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
