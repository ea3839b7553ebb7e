"""Global invariants: curve class, genus, Euler characteristic, rigidity.

The spectral curve of a rank-n system on the projective line has class
n X_0 + b f with b the total intersection with the infinity divisor; its
arithmetic genus, the Euler characteristic of the normalization, and the
Euler-Poincare rigidity index must satisfy rig = chi whenever the curve is
irreducible and smooth away from infinity.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (InternalInconsistency, SpecrigError,
                     UnsupportedExtension)
from .localmod import delta_end
from .matrf import CharpolyDiscriminant
from .qpoly import UPoly, factor_order, factor_rational, poly_gcd
from .ratfn import Chart
from .series import qdiv
from .tower import FieldTower


class CurveClass:
    """Neron-Severi data C = n X_0 + b f over a genus-g base."""

    __slots__ = ("n", "b", "g")

    def __init__(self, n: int, b: int, g: int = 0):
        if n < 1 or b < 0:
            raise SpecrigError("curve class needs n >= 1 and b >= 0")
        self.n = n
        self.b = b
        self.g = g


def total_inf_intersection(germs) -> int:
    return sum(g.local_inf for g in germs)


def arithmetic_genus(c: CurveClass) -> int:
    """g_a = (n^2 (2g - 2) + (2n - 2) b) / 2 + 1."""
    val = Fraction(c.n ** 2 * (2 * c.g - 2) + (2 * c.n - 2) * c.b, 2) + 1
    if val.denominator != 1:
        raise InternalInconsistency(
            f"arithmetic genus {val} of a spectral curve class is "
            "not an integer")
    return int(val)


def euler_char_normalization(g_a: int, germs) -> int:
    """chi = (2 - 2 g_a) + 2 * sum of delta over the poles' germs: the
    Euler characteristic of the normalization only when the finite part
    is smooth (the cusp y^2 = z^3 of gen_airy_3 gives 0, its
    normalization 2)."""
    return 2 - 2 * g_a + 2 * sum(g.delta for g in germs)


def rigidity_index(locals_, g: int = 0) -> int:
    """rig = (2 - 2g) n^2 - sum over poles of delta(End)."""
    n = locals_[0].n
    return (2 - 2 * g) * n * n - sum(delta_end(L) for L in locals_)


def cohomology_dims(rig: int):
    """(h^0, h^1, h^2) = (1, 2 - rig, 1) for an irreducible connection."""
    return (1, 2 - rig, 1)


# -- bivariate helpers -------------------------------------------------------

def _bipoly_to_sympy(f: UPoly):
    """f as a sympy polynomial in the generators (y, z) over QQ; sympy is
    imported here, at the first bivariate factorization."""
    import sympy
    terms = {(i, j): sympy.Rational(c)
             for i, cz in enumerate(f.coeffs)
             for j, c in enumerate(cz.coeffs) if c}
    return sympy.Poly.from_dict(terms, *sympy.symbols("y z"), domain="QQ")


# the integers z0 at which irreducibility_status specializes F(z, y), in
# order; 0 and 1 are left out, where fibres such as y^n - z^k split
_SPECIALIZATIONS = range(2, 6)


def irreducibility_status(disc: CharpolyDiscriminant, locals_) -> str:
    """Tri-state verdict on the spectral curve F = 0, F = ``disc.cleared``
    of y-degree n, by the certificates tried in order:

    1. a totally ramified place (one cell with r = n) certifies
       "irreducible";
    2. an exact rational root y = N/D of F over Q(z), read off an exact
       unramified Puiseux cluster with rational coefficients and proved
       by substitution, certifies "reducible" when n >= 2;
    3. an irreducible F(z0, y) over Q, for an integer z0 in
       _SPECIALIZATIONS with D(z0) != 0, D = lc_y F, certifies that F has
       no two factors of positive y-degree: F = G H would give
       F(z0, y) = G(z0, y) H(z0, y) with deg_y kept on both sides, since
       lc_y G lc_y H = D does not vanish at z0.  The verdict stays
       "unknown", the one the fourth certificate would give;
    4. a factorization over Q(z) by sympy with two or more factors of
       positive y-degree certifies "reducible".

    Otherwise the verdict is "unknown".  The second and third
    certificates only skip the fourth.
    """
    for L in locals_:
        if len(L.cells) == 1 and L.cells[0].r == L.n:
            return "irreducible"
    f = disc.cleared
    if f.degree >= 2 and any(_is_root(f, num, den)
                             for num, den in _exact_rational_roots(locals_)):
        return "reducible"
    for z0 in _SPECIALIZATIONS:
        if f.lc().eval(z0):
            fiber = UPoly([c.eval(z0) for c in f.coeffs])
            if [k for _, k in factor_rational(fiber)] == [1]:
                return "unknown"
    _, factors = _bipoly_to_sympy(f).factor_list()
    ydeg_factors = sum(k for p, k in factors if p.degree(0) >= 1)
    if ydeg_factors > 1:
        return "reducible"
    return "unknown"


def _exact_rational_roots(locals_):
    """Candidate roots (N, D) of the charpoly, y = N(z) / D(z), one per
    exact unramified cluster whose coefficients are rational.

    A cluster's representative Y(t) is a Laurent polynomial in the
    coordinate t of the pole's :class:`Chart`, which maps it back to y."""
    for L in locals_:
        chart = Chart(L.pole)
        for c in L.clusters:
            terms = c.rep.terms
            if c.r != 1 or c.rep.prec is not None or not all(
                    e.denominator == 1 and isinstance(v, (int, Fraction))
                    for e, v in terms.items()):
                continue
            yield chart.root_in_z({int(e): v for e, v in terms.items()})


def _is_root(f: UPoly, num: UPoly, den: UPoly) -> bool:
    """Whether y = num / den is a root of f, by the exact sum
    sum_j f_j num^j den^(n - j) over Q[z], evaluated by Horner."""
    acc = UPoly()
    den_power = UPoly.const(1)
    for j in range(f.degree, -1, -1):
        acc = acc * num + f.coeffs[j] * den_power
        den_power = den_power * den
    return acc.is_zero()


def smoothness_check_finite_part(disc: CharpolyDiscriminant, declared_poles):
    """Singular points of the spectral curve away from the poles.

    Returns (status, detail): status 'ok', 'singular', or 'indeterminate'.
    disc is the problem's :class:`CharpolyDiscriminant`.
    """
    if disc.n < 1:
        raise SpecrigError("characteristic polynomial has no y degree")
    f, den, s = disc.cleared, disc.den, disc.res
    fy = f.derivative()
    fz = f.map_coeffs(lambda c: c.derivative())
    if s.is_zero():
        return "indeterminate", "discriminant vanishes identically"
    declared = set(declared_poles)  # z0 is rational: never INFINITY
    # each irreducible factor once, in factor_order whatever its
    # multiplicity: the first singular or indeterminate one names the detail
    for pi in sorted((p for p, _k in factor_rational(s)), key=factor_order):
        if pi.degree == 1:
            z0 = qdiv(-pi.coeffs[0], pi.coeffs[1])
            if z0 in declared or not den.eval(z0):
                continue
            if _common_root_at(f, fy, fz, z0):
                return "singular", f"singular point over z = {z0}"
        else:
            try:
                alpha = FieldTower().adjoin(pi)
            except UnsupportedExtension:
                return ("indeterminate",
                        f"discriminant factor of degree {pi.degree} "
                        "exceeds the extension bound")
            if _common_root_at(f, fy, fz, alpha):
                return ("singular",
                        "singular point over an irrational zero of the "
                        f"discriminant (degree {pi.degree} factor)")
    return "ok", None


def _common_root_at(f, fy, fz, z0):
    fv = UPoly([c.eval(z0) for c in f.coeffs])
    fyv = UPoly([c.eval(z0) for c in fy.coeffs])
    fzv = UPoly([c.eval(z0) for c in fz.coeffs])
    g = poly_gcd(poly_gcd(fv, fyv), fzv)
    return g.degree >= 1
