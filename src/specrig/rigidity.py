"""Global invariants: curve class, genus, Euler characteristic, rigidity.

The spectral curve of a rank-n system on the projective line has class
n X_0 + b f with b the total intersection with the infinity divisor; its
arithmetic genus, the Euler characteristic of the normalization, and the
Euler-Poincare rigidity index must satisfy rig = chi whenever the curve is
irreducible and smooth away from infinity.
"""

from __future__ import annotations

from fractions import Fraction

import sympy

from .errors import (InternalInconsistency, SpecrigError,
                     UnsupportedExtension)
from .germs import GermData
from .localmod import LocalModule, delta_end
from .matrf import CharpolyDiscriminant
from .qpoly import UPoly, factor_rational, poly_gcd, squarefree_part
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
    """chi of the normalization: (2 - 2 g_a) + 2 * sum of delta."""
    return 2 - 2 * g_a + 2 * sum(g.delta for g in germs)


def rigidity_index(locals_, g: int = 0) -> int:
    """rig = (2 - 2g) n^2 - sum over poles of delta(End)."""
    n = locals_[0].n
    return (2 - 2 * g) * n * n - sum(delta_end(L) for L in locals_)


def verify_milnor_per_pole(local: LocalModule, germ: GermData) -> bool:
    """mu (by the independent resultant oracle) must equal
    -delta(End) - r_C + 2(n-1)(C, X_inf)_a + 1."""
    n = local.n
    rhs = (-delta_end(local) - germ.r_c
           + 2 * (n - 1) * germ.local_inf + 1)
    return germ.mu_oracle_value == rhs and germ.mu == germ.mu_oracle_value


def cohomology_dims(rig: int):
    """(h^0, h^1, h^2) = (1, 2 - rig, 1) for an irreducible connection."""
    return (1, 2 - rig, 1)


# -- bivariate helpers -------------------------------------------------------

_Y, _Z = sympy.symbols("y z")


def _bipoly_to_sympy(f: UPoly):
    terms = {(i, j): sympy.Rational(c)
             for i, cz in enumerate(f.coeffs)
             for j, c in enumerate(cz.coeffs) if c}
    return sympy.Poly.from_dict(terms, _Y, _Z, domain="QQ")


def irreducibility_status(disc: CharpolyDiscriminant, locals_) -> str:
    """Tri-state: a totally ramified place certifies irreducibility; a
    rational-function-field factorization certifies reducibility;
    otherwise unknown.  disc is the problem's
    :class:`CharpolyDiscriminant`, whose cleared charpoly is factored."""
    for L in locals_:
        if len(L.cells) == 1 and L.cells[0].r == L.n:
            return "irreducible"
    _, factors = _bipoly_to_sympy(disc.cleared).factor_list()
    ydeg_factors = sum(k for p, k in factors if p.degree(_Y) >= 1)
    if ydeg_factors > 1:
        return "reducible"
    return "unknown"


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
    declared = {p for p in declared_poles if p != "inf"}
    for pi, _k in factor_rational(squarefree_part(s)):
        if pi.degree == 1:
            z0 = -Fraction(pi.coeffs[0]) / Fraction(pi.coeffs[1])
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
