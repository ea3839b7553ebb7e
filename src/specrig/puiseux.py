"""Newton polygons and rational Puiseux expansions over field towers.

A cluster is one Galois orbit of Puiseux roots of a squarefree polynomial
F(y) with truncated Laurent-series coefficients: a representative expansion
with exponents in (1/r)Z plus the orbit size r.  Conjugates are implicit;
the automorphism xi acts on a term c z^e by the phase factor exp(2 pi i k e)
and is never materialized as an explicit root of unity.  Comparisons that
would depend on the choice of embedding raise AmbiguousComparison.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import comb, lcm

from .errors import (AmbiguousComparison, InputError, InsufficientTruncation,
                     InternalInconsistency, SpecrigError)
from .qpoly import UPoly, integer_series, resultant_det
from .series import INF, Series, qdiv
from .tower import FieldTower, TowerElem


class Edge:
    """One lower-hull edge: root order rho = -slope, horizontal length,
    supporting points (i, leading coefficient)."""

    __slots__ = ("slope", "rho", "length", "i0", "points")

    def __init__(self, slope, length, i0, points):
        self.slope = slope
        self.rho = -slope
        self.length = length
        self.i0 = i0
        self.points = points


class NewtonPolygon:
    __slots__ = ("vertices", "edges", "zero_roots")

    def __init__(self, vertices, edges, zero_roots):
        self.vertices = vertices
        self.edges = edges  # sorted by increasing slope
        self.zero_roots = zero_roots


def newton_polygon(F: UPoly) -> NewtonPolygon:
    """Lower convex hull of {(i, val of coeff_i)} for F = sum coeff_i y^i.

    Coefficients are Series.  A coefficient that vanishes only up to its
    precision is allowed when the hull provably passes strictly below it;
    otherwise the polygon is not certified and we refuse.
    """
    known = {}
    unknown = {}
    wrapped = []
    for i, c in enumerate(F.coeffs):
        if not isinstance(c, Series):
            c = Series.const(c)
        wrapped.append(c)
        if not c:
            continue
        if c.known_zero_to_prec():
            unknown[i] = c.prec
            continue
        known[i] = c.valuation()
    if not known:
        raise SpecrigError("Newton polygon of a zero polynomial")
    i_min = min(known)
    if any(i < i_min for i in unknown):
        raise InsufficientTruncation(
            "low-order coefficient vanishes to precision; y-valuation "
            "undetermined")
    pts = sorted(known.items())
    hull = [pts[0]]
    for p in pts[1:]:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point when it is on or above the chord
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    def hull_val(x):
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            if x1 <= x <= x2:
                return y1 + Fraction(y2 - y1, x2 - x1) * (x - x1)
        raise InternalInconsistency("hull query outside span")
    for i, prec in unknown.items():
        if i < hull[0][0] or i > hull[-1][0]:
            raise InternalInconsistency("unknown coefficient beyond hull span")
        if hull_val(i) >= prec:
            raise InsufficientTruncation(
                f"coefficient of y^{i} vanishes to precision {prec}, which "
                "does not clear the Newton polygon")
    edges = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = Fraction(y2 - y1, x2 - x1)
        points = []
        for i in range(x1, x2 + 1):
            if i in known and known[i] == y1 + slope * (i - x1):
                points.append((i, wrapped[i].leading()))
        edges.append(Edge(slope, x2 - x1, x1, points))
    return NewtonPolygon(hull, edges, i_min)


def _residual_compressed(points, i0, q):
    """Rational residual R(T) with T = c^q; defined because supporting
    points satisfy i = i0 mod q."""
    coeffs = [0] * ((points[-1][0] - i0) // q + 1)
    for i, lead in points:
        if (i - i0) % q:
            raise InternalInconsistency("edge point off the ramification "
                                        "lattice")
        coeffs[(i - i0) // q] = lead
    return UPoly(coeffs)


class PuiseuxCluster:
    """Galois orbit of roots: representative expansion + orbit size r."""

    __slots__ = ("rep", "r", "order", "tower")

    def __init__(self, rep: Series, r: int, tower: FieldTower):
        self.rep = rep
        self.r = r
        self.order = rep.valuation()  # INF sentinel for the exact zero root
        self.tower = tower

    def __repr__(self):
        return f"PuiseuxCluster(r={self.r}, order={self.order}, {self.rep!r})"


def text_key(x) -> str:
    """str(x) as a sort key.  Python refuses str() of an integer past its
    conversion limit (sys.get_int_max_str_digits()); that is an
    InputError here, so such an input is refused instead of crashing."""
    try:
        return str(x)
    except ValueError as exc:
        raise InputError(
            "an exact coefficient grew past Python's limit of "
            f"{sys.get_int_max_str_digits()} digits for integer string "
            "conversion") from exc


def _factor_key(p: UPoly):
    return (p.degree, str([text_key(c) for c in p.coeffs]))


def _any_root(tower: FieldTower, p: UPoly):
    """One root of p, adjoining a generator when p has no linear factor."""
    factors = sorted(tower.factor(tower.lift_poly(p, tower.height)),
                     key=lambda fk: _factor_key(fk[0]))
    for f, _ in factors:
        if f.degree == 1:
            return qdiv(-f.coeffs[0], f.coeffs[1])
    return tower.adjoin(factors[0][0])


def _all_roots(tower: FieldTower, p: UPoly):
    roots = tower.split_completely(p)
    return sorted(roots, key=lambda rm: text_key(rm[0]))


def discriminant_valuation(F: UPoly):
    """ord_z of disc_y(F) for monic F over series over Q with integer
    exponents; raises on a zero or precision-hidden discriminant.  F is
    moved by the z^s that lifts its least exponent to 0 and cleared to
    P = c z^s F over truncated Z[[z]], so Res(P, P') is read as a
    valuation less s (2 deg F - 1).  Kept as the test reference for
    :meth:`CharpolyDiscriminant.valuation`, which the pipeline reads."""
    if F.degree < 2:
        return Fraction(0)
    s = -min((min(c.terms) for c in F.coeffs if c.terms), default=0)
    P = integer_series(F.map_coeffs(lambda c: c.shift(s)))
    res = resultant_det(P, P.derivative())
    if not res:
        raise SpecrigError("polynomial is not squarefree in y")
    return Fraction(res.valuation() - s * (2 * F.degree - 1))


def separation_depth(n, vdisc, minord):
    """Separation depth: strictly exceeds every pairwise root contact.

    With monic squarefree F of degree n, ord disc = 2 * sum of contacts
    over unordered root pairs, and each contact is at least the minimal
    root order minord, so each contact is at most
    vdisc/2 - (pairs - 1) * minord.
    """
    if n < 2:
        return Fraction(1)
    pairs = n * (n - 1) // 2
    bound = Fraction(vdisc, 2) - (pairs - 1) * min(minord, 0)
    return max(Fraction(0), bound) + 1


def puiseux_clusters(F: UPoly, vdisc):
    """All Puiseux root clusters of monic squarefree F over Series.

    Returns (clusters, tower); sum of r over clusters = deg_y F.
    Expansions are carried past :func:`separation_depth` so that every
    pairwise contact valuation is decided; its least root order is read
    off the Newton polygon of F, the first one the descent builds.  vdisc
    is the valuation of disc_y(F), read off the exact global discriminant
    by the pipeline; computing it is also what refuses an F that is not
    squarefree.
    """
    n = F.degree
    if n < 1:
        raise SpecrigError("need deg_y >= 1")
    poly = newton_polygon(F)
    minord = min((e.rho for e in poly.edges), default=Fraction(0))
    tower = FieldTower()
    clusters = []
    _descend(F, poly, {}, None, 1, n, tower,
             separation_depth(n, vdisc, minord), clusters, 0)
    if sum(c.r for c in clusters) != n:
        raise InternalInconsistency("cluster sizes do not sum to the degree")
    return clusters, tower


def _descend(F, poly, prev_terms, last_exp, lattice, mult, tower, target,
             out, depth_guard):
    """Continue the mult roots of F past last_exp, poly the Newton polygon
    of F; a root that is alone and reaches target is a cluster."""
    if depth_guard > 10000:  # pragma: no cover
        raise InternalInconsistency("Puiseux recursion did not terminate")
    live = [e for e in poly.edges if last_exp is None or e.rho > last_exp]
    zero_roots = poly.zero_roots
    if sum(e.length for e in live) + zero_roots != mult:
        raise InternalInconsistency(
            "edge lengths disagree with the root count being continued")
    if zero_roots:
        if zero_roots != 1:
            raise SpecrigError("polynomial is not squarefree in y "
                               "(repeated exact root)")
        out.append(PuiseuxCluster(Series(prev_terms), lattice, tower))
    for edge in sorted(live, key=lambda e: e.slope):
        rho = edge.rho
        d = rho.denominator
        new_lattice = lcm(lattice, d)
        q = new_lattice // lattice
        residual = _residual_compressed(edge.points, edge.i0, q)
        for t, m in _all_roots(tower, residual):
            if q == 1:
                c = t
            else:
                xq = UPoly([-t] + [0] * (q - 1) + [tower.one(tower.height)])
                c = _any_root(tower, xq)
            nt = dict(prev_terms)
            nt[rho] = c
            if m == 1 and rho >= target:
                rep = Series(nt, rho + Fraction(1, new_lattice))
                out.append(PuiseuxCluster(rep, new_lattice, tower))
                continue
            F_next = taylor_shift(F, c, rho)
            _descend(F_next, newton_polygon(F_next), nt, rho, new_lattice, m,
                     tower, target, out, depth_guard + 1)


def taylor_shift(F: UPoly, c, rho) -> UPoly:
    """F(y + c z^rho) for F over Series, as a Taylor shift by the
    monomial: G_j = sum over i >= j of C(i, j) c^(i-j) z^((i-j) rho) F_i.

    Each term of G_j is a scaled copy of a term of F_i moved by
    (i - j) rho, so no series is multiplied; exponents are carried as
    integers on the common lattice (1/den)Z.  G_j is certified below the
    least F_i.prec + (i - j) rho, a coefficient that vanishes only up to
    its precision included, as the composition by Series arithmetic
    certifies it.
    """
    coeffs = [f if isinstance(f, Series) else Series.const(f)
              for f in F.coeffs]
    den = lcm(rho.denominator, *(e.denominator for f in coeffs
                                 for e in f.terms),
              *(f.prec.denominator for f in coeffs if f.prec is not None))
    step = rho.numerator * (den // rho.denominator)
    lattice = [[(e.numerator * (den // e.denominator), a)
                for e, a in f.terms.items()] for f in coeffs]
    precs = [None if f.prec is None
             else f.prec.numerator * (den // f.prec.denominator)
             for f in coeffs]
    n = len(coeffs)
    powers = [1]
    for _ in range(1, n):
        powers.append(powers[-1] * c)
    exponents = {}  # lattice point -> its Fraction, shared by every G_j
    out = []
    for j in range(n):
        terms = {}
        prec = None
        for i in range(j, n):
            move = (i - j) * step
            if precs[i] is not None and (prec is None
                                         or precs[i] + move < prec):
                prec = precs[i] + move
            scale = comb(i, j) * powers[i - j] if i > j else None
            for e, a in lattice[i]:
                e += move
                if scale is not None:
                    a = a * scale
                terms[e] = terms[e] + a if e in terms else a
        clean = {}
        for e, a in terms.items():
            if a and (prec is None or e < prec):
                if e not in exponents:
                    exponents[e] = Fraction(e, den)
                clean[exponents[e]] = a
        out.append(Series._of(clean, None if prec is None
                              else Fraction(prec, den)))
    return UPoly(out)


# -- contact valuations ----------------------------------------------------

def _phase_denominator(k, e: Fraction) -> int:
    """Order of the phase exp(2 pi i k e) attached to a term z^e under
    the k-th power of the Puiseux automorphism."""
    f = (k * e) % 1
    return f.denominator


def _diff_nonzero(a, b, d: int) -> bool:
    """Decide a - zeta*b != 0 where zeta = exp(2 pi i f), f with
    denominator d in lowest terms (so zeta is a primitive d-th root of 1)."""
    if d == 1:
        return a != b
    if d == 2:
        return a != -b
    if not b:
        return bool(a)
    if not a:
        return True
    t = a / b if isinstance(a, TowerElem) or isinstance(b, TowerElem) \
        else Fraction(a) / Fraction(b)
    if t ** d != 1:
        return True
    if t == 1 or t == -1:
        # zeta is primitive of order d >= 3, never +-1
        return True
    raise AmbiguousComparison(
        "equality against a root of unity of order "
        f"{d} is not decided by the coefficient tower")


def first_difference(s1: Series, s2: Series, k: int, below):
    """Lowest exponent e < below where s1 and xi^k(s2) differ, or None.

    Exponents are compared in increasing order, so an undecidable
    comparison raises AmbiguousComparison only when every lower term
    agrees."""
    for e in sorted(set(s1.terms) | set(s2.terms)):
        if e >= below:
            break
        if _diff_nonzero(s1.terms.get(e, 0), s2.terms.get(e, 0),
                         _phase_denominator(k, e)):
            return e
    return None


def cluster_contact(c1: PuiseuxCluster, c2: PuiseuxCluster, k: int):
    """Exact valuation of rep(c1) - xi^k(rep(c2))."""
    s1, s2 = c1.rep, c2.rep
    bound = INF
    if s1.prec is not None:
        bound = min(bound, s1.prec)
    if s2.prec is not None:
        bound = min(bound, s2.prec)
    e = first_difference(s1, s2, k, bound)
    if e is not None:
        return e
    if bound == INF:
        if c1 is c2 and k % c1.r == 0:
            raise SpecrigError("contact of a root with itself is undefined")
        raise InternalInconsistency(
            "two exact expansions coincide; clusters are not separated")
    raise InsufficientTruncation(
        f"no contact found below precision {bound}")


def conjugate_pairs(c1, c2):
    """The ordered pairs of distinct roots, the first a conjugate of c1's
    representative and the second one of c2's, as (shifts, weight).

    Each shift k stands for the weight pairs that the Galois action moves
    onto (rep(c1), xi^k rep(c2)), all of the same contact: r(r - 1) pairs
    within one orbit (c1 is c2, k = 1..r-1, weight r) and r1 r2 across two
    (k below lcm(r1, r2), weight r1 r2 / lcm(r1, r2)).
    """
    if c1 is c2:
        return range(1, c1.r), c1.r
    s = lcm(c1.r, c2.r)
    return range(s), c1.r * c2.r // s


def pair_total(items, term):
    """The sum of a symmetric term over the ordered pairs of items: each
    term(a, a), plus twice term(a, b) for a listed before b."""
    return sum(term(a, a) + 2 * sum(term(a, b) for b in items[i + 1:])
               for i, a in enumerate(items))


def contact_pair_sum(clusters):
    """Sum of contact valuations over all ordered pairs of distinct roots.

    Equals ord_z disc_y(F_monic) for the polynomial the clusters came from.
    """
    def contacts(c1, c2):
        shifts, weight = conjugate_pairs(c1, c2)
        return weight * sum(cluster_contact(c1, c2, k) for k in shifts)
    return pair_total(clusters, contacts)


def principal_contact_negative(c1, c2, k):
    """Valuation of the difference of principal parts q = z * root
    restricted to exponents < 0, or None when that difference vanishes.

    Exponent bookkeeping is on the root representatives: a root term z^e
    contributes z^(e+1) to q, so only e < -1 matters.
    """
    e = first_difference(c1.rep, c2.rep, k, -1)
    return None if e is None else e + 1
