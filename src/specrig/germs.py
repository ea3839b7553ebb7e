"""Plane-curve-germ invariants of the spectral curve at infinity points.

Over a pole a, the branches escaping to infinity are the Puiseux clusters
with negative root order.  In the chart zeta = 1/y the germ is the product
of the clusters' minimal polynomials in zeta; the Milnor number comes out
two ways: from the irregularity formulas, and from the z-valuation of the
zeta-resultant of the germ equation with its zeta-derivative.  Both must
agree.  The oracle never multiplies the factors F_i out: for monic F_i,
v Res(F, F') = sum_i v Res(F_i, F_i') + 2 sum_(i<j) v Res(F_i, F_j),
each resultant taken over Z[[z]] on a positive rational multiple of the
factor, which has the same valuation (see :func:`germ_milnor_oracle`).
"""

from __future__ import annotations

from .errors import InternalInconsistency, SpecrigError
from .localmod import HTLCell, LocalModule, delta_end, irr_end, irr_hom
from .puiseux import pair_total
from .qpoly import UPoly, integer_series, resultant_det
from .series import Series, qdiv
from .tower import TowerElem, rational_value


class GermData:
    """Branch data of one infinity point of the spectral curve."""

    __slots__ = ("pole", "n", "m", "branches", "r_c", "local_inf",
                 "mu", "mu_oracle_value", "delta", "local")

    def __init__(self, local: LocalModule):
        self.pole = local.pole
        self.n = local.n
        self.m = local.m
        self.local = local
        self.branches = unbounded_branches(local)
        self.r_c = len(self.branches)
        self.local_inf = sum(c.p + c.r for c in self.branches)
        if self.r_c == 0:
            self.mu = 0
            self.mu_oracle_value = 0
            self.delta = 0
            return
        self.mu = germ_milnor(self)
        self.mu_oracle_value = germ_milnor_oracle(self)
        self.delta = delta_invariant(self)


def unbounded_branches(local: LocalModule):
    """Cells whose branch passes through the infinity point:
    ord(q~/z) < 0, i.e. the representative root order is negative."""
    return [c for c in local.cells if c.cluster.order < 0]


def branch_intersection(g: GermData, i: int, j: int) -> int:
    """(C_i, C_j) = p_i r_j + p_j r_i + r_i r_j - Irr(Hom)."""
    if i == j:
        raise SpecrigError("intersection of a branch with itself is "
                           "undefined")
    ci, cj = g.branches[i], g.branches[j]
    return ci.p * cj.r + cj.p * ci.r + ci.r * cj.r - irr_hom(ci, cj)


def branch_milnor(g: GermData, i: int) -> int:
    """mu of one branch: (2p + r - 1)(r - 1) - Irr(End of the cell)."""
    c = g.branches[i]
    return (2 * c.p + c.r - 1) * (c.r - 1) - irr_hom(c, c)


def germ_milnor(g: GermData) -> int:
    """Formula route, with the proof's branch decomposition re-derived as
    an internal consistency check."""
    local = g.local
    if local.nu < 1 and g.r_c and any(c.p for c in g.branches):
        raise SpecrigError("no singularity data at a regular point")
    n = g.n
    value = (-n * n - irr_end(local) + 2 * (n - 1) * g.local_inf
             + (g.m - g.r_c) + 1)
    decomposed = pair_total(
        range(g.r_c), lambda i, j: branch_milnor(g, i) if i == j
        else branch_intersection(g, i, j)) - g.r_c + 1
    if value != decomposed:
        raise InternalInconsistency(
            f"Milnor formula {value} disagrees with its branch "
            f"decomposition {decomposed}")
    return value


# -- oracle route ------------------------------------------------------------

def _newton_identities(power_sums, r):
    """Elementary symmetric functions e_1..e_r from power sums s_1..s_r."""
    es = [Series.const(1)]
    for k in range(1, r + 1):
        acc = Series.zero()
        for i in range(1, k + 1):
            term = es[k - i] * power_sums[i - 1]
            acc = acc + (term if i % 2 else -term)
        es.append(acc * qdiv(1, k))
    return es[1:]


def _cluster_min_poly(cell: HTLCell) -> UPoly:
    """Minimal polynomial in zeta = 1/y of one cluster's conjugate orbit.

    Power sums of the conjugates of zeta_rep keep only integer exponents,
    each weighted by r (the phase sums of fractional exponents vanish).
    """
    r = cell.r
    rep = cell.cluster.rep
    zeta = rep.inverse(order=None if rep.prec is not None else
                       -rep.valuation() * (r + 2) + 4)
    sums = []
    power = Series.const(1, zeta.prec)
    for _ in range(r):
        power = power * zeta
        sums.append(power.integer_part() * r)
    es = _newton_identities(sums, r)
    coeffs = [Series.const(1)]
    for k, e in enumerate(es, start=1):
        coeffs.append(e if k % 2 == 0 else -e)
    # coeffs[k] multiplies zeta^{r-k}
    return UPoly(list(reversed(coeffs)))


def germ_equation(g: GermData):
    """The factors of the reduced local equation F(zeta, z) of the germ,
    the product of the minimal polynomials of the unbounded clusters,
    each over truncated Z[[z]]: a list of P_i = c_i F_i for positive
    rationals c_i, each from :func:`integer_series` on the one factor.
    A minimal polynomial whose tower coefficients all have rational
    values (each written as that Fraction) is a factor as it is; the
    irrational ones are multiplied over Series, rationalized, and form
    one factor.  The factors are never multiplied together."""
    rational, irrational = [], []
    for c in g.branches:
        p = _cluster_min_poly(c).map_coeffs(_rationalized)
        (irrational if any(isinstance(x, TowerElem) for t in p.coeffs
                           for x in t.terms.values())
         else rational).append(p)
    if irrational:
        f = irrational[0]
        for p in irrational[1:]:
            f = f * p
        rational.append(f.map_coeffs(_rationalized))
    return [integer_series(p) for p in rational]


def _rationalized(s):
    """s as a series whose tower coefficients with a rational value are
    that Fraction; a rational s becomes the constant series."""
    if not isinstance(s, Series):
        return Series.const(s)
    values = {e: rational_value(c) for e, c in s.terms.items()}
    return Series({e: c if values[e] is None else values[e]
                   for e, c in s.terms.items()}, s.prec)


def germ_milnor_oracle(g: GermData) -> int:
    """mu = (F, dF/dzeta) + 1 - (F, z), both intersection numbers as
    z-valuations; (F, z) is the branch multiplicity sum.

    (F, F') is read factor by factor, on the factors P_i = c_i F_i of
    :func:`germ_equation`, F_i of degree d_i.  Each F_i is monic in zeta,
    so Res(F_i, G) is the product of G over the roots of F_i, and
    F = prod F_i gives F'(a) = F_i'(a) prod_(j != i) F_j(a) at a root a
    of F_i.  Hence Res(F, F') is prod_i Res(F_i, F_i') times
    Res(F_i, F_j) over the ordered pairs i != j, and since
    Res(F_j, F_i) = +-Res(F_i, F_j),

        v Res(F, F') = sum_i v Res(F_i, F_i') + 2 sum_(i<j) v Res(F_i, F_j).

    A linear F_i has Res(F_i, F_i') = 1 and adds no term of its own.
    Each resultant is eliminated over Z[[z]] on the cleared factors and
    read as it is: the Sylvester determinant is homogeneous of degree
    deg h in the coefficients of f and deg f in those of h, so
    Res(a f, b h) = a^(deg h) b^(deg f) Res(f, h) has the valuation of
    Res(f, h) for positive rationals a, b.  No factor needs a power of z
    to reach Z[[z]]: F_i has the constant leading coefficient 1, and its
    other coefficients, symmetric functions of the conjugates of
    zeta = 1/y, have positive order, since y is unbounded on the branch."""
    if g.r_c == 0:
        return 0
    factors = germ_equation(g)
    fz = sum(c.r for c in g.branches)
    res_val = 0
    for i, p in enumerate(factors):
        if p.degree > 1:
            res_val += _resultant_valuation(p, p.derivative())
        for q in factors[i + 1:]:
            res_val += 2 * _resultant_valuation(p, q)
    mu = res_val + 1 - fz
    if mu < 0:
        raise InternalInconsistency(f"oracle Milnor number {mu} invalid")
    return mu


def _resultant_valuation(p: UPoly, q: UPoly) -> int:
    """z-valuation of Res(p, q) over truncated Z[[z]]; a provably zero
    resultant means the germ equation is not reduced."""
    res = resultant_det(p, q)
    if not res:
        raise InternalInconsistency("germ equation is not reduced")
    return res.valuation()


def delta_invariant(g: GermData) -> int:
    """delta = (mu + r_C - 1) / 2, an integer for a reduced germ."""
    two_delta = g.mu + g.r_c - 1
    if two_delta % 2:
        raise InternalInconsistency(
            f"2*delta = {two_delta} is odd at pole {g.pole}")
    return two_delta // 2


def delta_identity_holds(g: GermData) -> bool:
    """2 delta - 2(n-1)(C, X_inf)_a == -delta(End) at this pole, with
    2 delta = mu + r_C - 1 read off the oracle's mu (0 when r_C = 0): the
    reported delta comes from the formula's mu, on which the identity
    holds by construction."""
    two_delta = g.mu_oracle_value + g.r_c - 1 if g.r_c else 0
    return (two_delta - 2 * (g.n - 1) * g.local_inf
            == -delta_end(g.local))
