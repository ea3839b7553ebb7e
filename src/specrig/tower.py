"""Towers of simple algebraic extensions of Q.

A tower is a chain Q = K_0 < K_1 < ... < K_h where K_j = K_{j-1}(a_j) and
a_j has a monic minimal polynomial over K_{j-1} that is verified irreducible
when adjoined. Elements of K_j are reduced polynomial expressions in a_j
with K_{j-1} coefficients; level-0 elements are plain Fractions.

Factorization over a level is done by Trager's norm method, recursing down
to Q where sympy does the rational factorization.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SpecrigError, UnsupportedExtension, InternalInconsistency
from .qpoly import (UPoly, factor_rational, poly_gcd, poly_xgcd,
                    resultant_det, squarefree_part)
from .series import qdiv

# largest degree of a minimal polynomial adjoin accepts
DEGREE_BOUND = 4


class TowerElem:
    """Element of tower level >= 1, as a reduced coefficient tuple over the
    previous level."""

    __slots__ = ("tower", "level", "coeffs")

    def __init__(self, tower, level, coeffs):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.tower = tower
        self.level = level
        self.coeffs = tuple(coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        a, b = _pair(self, other)
        if a is NotImplemented:
            return NotImplemented
        if isinstance(a, TowerElem):
            return a.coeffs == b.coeffs
        return a == b

    def __hash__(self):
        if not self.coeffs:
            return hash(Fraction(0))
        if len(self.coeffs) == 1:
            return hash(self.coeffs[0])
        return hash((self.level, self.coeffs))

    def __add__(self, other):
        a, b = _pair(self, other)
        if a is NotImplemented:
            return NotImplemented
        if not isinstance(a, TowerElem):
            return a + b
        pa, pb = UPoly(a.coeffs), UPoly(b.coeffs)
        return TowerElem(a.tower, a.level, (pa + pb).coeffs)

    __radd__ = __add__

    def __neg__(self):
        return TowerElem(self.tower, self.level, [-c for c in self.coeffs])

    def __sub__(self, other):
        neg = -other if isinstance(other, TowerElem) else -Fraction(other)
        return self + neg

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = _pair(self, other)
        if a is NotImplemented:
            return NotImplemented
        if not isinstance(a, TowerElem):
            return a * b
        prod = UPoly(a.coeffs) * UPoly(b.coeffs)
        m = a.tower.minpoly(a.level)
        return TowerElem(a.tower, a.level, (prod % m).coeffs)

    __rmul__ = __mul__

    def inverse(self):
        if not self.coeffs:
            raise ZeroDivisionError("inverse of zero tower element")
        m = self.tower.minpoly(self.level)
        d, u, _ = poly_xgcd(UPoly(self.coeffs), m)
        if d.degree != 0:
            raise InternalInconsistency(
                "zero divisor in tower: a minimal polynomial is reducible")
        return TowerElem(self.tower, self.level, u.coeffs)

    def __truediv__(self, other):
        a, b = _pair(self, other)
        if a is NotImplemented:
            return NotImplemented
        if not isinstance(a, TowerElem):
            return qdiv(a, b)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.tower.lift(other, self.level) * self.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.tower.lift(1, self.level)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __repr__(self):
        name = self.tower.levels[self.level - 1][0]
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(repr(c))
            elif i == 1:
                parts.append(f"{c!r}*{name}")
            else:
                parts.append(f"{c!r}*{name}^{i}")
        return "(" + " + ".join(parts) + ")"


def rational_value(x):
    """x (a rational or a tower element) as a Fraction, or None when it is
    irrational: when some level of its reduced form is not a constant."""
    while isinstance(x, TowerElem):
        if len(x.coeffs) > 1:
            return None
        x = x.coeffs[0] if x.coeffs else 0
    return Fraction(x)


def _pair(a, b):
    """Coerce the two operands to a common level; returns (a', b')."""
    la = a.level if isinstance(a, TowerElem) else 0
    if isinstance(b, TowerElem):
        lb = b.level
        tower = b.tower
    elif isinstance(b, (int, Fraction)):
        lb = 0
        tower = a.tower if isinstance(a, TowerElem) else None
    else:
        return NotImplemented, NotImplemented
    if isinstance(a, TowerElem) and isinstance(b, TowerElem) \
            and a.tower is not b.tower:
        raise SpecrigError("mixing elements of different towers")
    tower = a.tower if isinstance(a, TowerElem) else tower
    lv = max(la, lb)
    if lv == 0:
        return Fraction(a), Fraction(b)
    return tower.lift(a, lv), tower.lift(b, lv)


class FieldTower:
    """Chain of simple extensions; grows as roots are adjoined."""

    def __init__(self):
        self.levels = []  # (name, minpoly UPoly over previous level)
        self._gen_counter = 0

    @property
    def height(self):
        return len(self.levels)

    def minpoly(self, level) -> UPoly:
        return self.levels[level - 1][1]

    def lift(self, x, level):
        """Embed x (Fraction/int or lower-level element) into a level."""
        if isinstance(x, TowerElem):
            cur = x.level
            if cur > level:
                raise SpecrigError("cannot lower a tower element")
        else:
            x = Fraction(x)
            cur = 0
        while cur < level:
            cur += 1
            x = TowerElem(self, cur, (x,))
        return x

    def gen(self, level) -> TowerElem:
        return TowerElem(self, level,
                         (self.lift(0, level - 1), self.lift(1, level - 1)))

    def one(self, level):
        return self.lift(1, level)

    def poly_level(self, f: UPoly) -> int:
        return max((c.level for c in f.coeffs if isinstance(c, TowerElem)),
                   default=0)

    def lift_poly(self, f: UPoly, level) -> UPoly:
        return UPoly([self.lift(c, level) for c in f.coeffs])

    # -- construction --------------------------------------------------

    def adjoin(self, minpoly: UPoly) -> TowerElem:
        """Adjoin a root of a monic polynomial irreducible over the top
        level; returns the new generator."""
        minpoly = minpoly.monic()
        if minpoly.degree < 2:
            raise SpecrigError("adjoin needs degree >= 2")
        if minpoly.degree > DEGREE_BOUND:
            raise UnsupportedExtension(
                f"extension of degree {minpoly.degree} exceeds the bound "
                f"{DEGREE_BOUND}")
        top = self.height
        minpoly = self.lift_poly(minpoly, top)
        factors = self.factor(minpoly)
        if len(factors) != 1 or factors[0][1] != 1:
            raise SpecrigError("adjoin requires an irreducible polynomial")
        name = f"a{self._gen_counter}"
        self._gen_counter += 1
        self.levels.append((name, minpoly))
        return self.gen(self.height)

    # -- factorization (Trager) ----------------------------------------

    def factor(self, f: UPoly):
        """Monic irreducible factorization over the level of f's
        coefficients: list of (UPoly, multiplicity)."""
        level = self.poly_level(f)
        f = self.lift_poly(f, level)
        if f.degree < 1:
            return []
        if f.degree == 1:
            return [(f.monic(), 1)]
        sqf = squarefree_part(f)
        irr = self._factor_squarefree(sqf, level)
        out = []
        rest = f.monic()
        for p in irr:
            k = 0
            while True:
                q, r = rest.divmod(p)
                if r.is_zero():
                    rest, k = q, k + 1
                else:
                    break
            out.append((p, k))
        if rest.degree != 0:
            raise InternalInconsistency("factorization did not exhaust input")
        return out

    def _factor_squarefree(self, g: UPoly, level):
        if level == 0:
            return [p for p, _ in factor_rational(g)]
        g = g.monic()
        if g.degree == 1:
            return [g]
        alpha = self.gen(level)
        m = self.minpoly(level)
        d = m.degree
        for s in range(0, 10 * d * g.degree + 10):
            shift = UPoly([self.lift(-s, level) * alpha, self.lift(1, level)])
            h = g.compose(shift)
            norm = self._norm_resultant(h, m, level)
            der = norm.derivative()
            if not der.is_zero() and poly_gcd(norm, der).degree == 0:
                break
        else:  # pragma: no cover
            raise InternalInconsistency("no squarefree norm shift found")
        nfactors = self._factor_squarefree(norm.monic(), level - 1)
        out = []
        unshift = UPoly([self.lift(s, level) * alpha, self.lift(1, level)])
        for nf in nfactors:
            cand = poly_gcd(h, self.lift_poly(nf, level))
            if cand.degree >= 1:
                out.append(cand.compose(unshift).monic())
        total = sum(p.degree for p in out)
        if total != g.degree:
            raise InternalInconsistency("Trager factors do not cover input")
        return out

    def _norm_resultant(self, h: UPoly, m: UPoly, level) -> UPoly:
        """Res_y(m(y), h(x) with the top generator renamed to y), a
        polynomial over level-1."""
        # bivariate rep: coefficient of y^j is a UPoly in x over level-1
        dm = m.degree
        biv = [UPoly() for _ in range(dm)]
        for i, c in enumerate(h.coeffs):
            cc = self.lift(c, level)
            rep = cc.coeffs if isinstance(cc, TowerElem) else (cc,)
            for j, cj in enumerate(rep):
                if cj:
                    biv[j] = biv[j] + UPoly.const(cj).shift_up(i)
        H = UPoly(biv)  # in y, coeffs UPoly-in-x over level-1
        M = UPoly([UPoly.const(c) for c in m.coeffs])
        res = resultant_det(M, H)
        if isinstance(res, UPoly):
            return res
        return UPoly.const(res)

    # -- complete splitting ---------------------------------------------

    def split_completely(self, f: UPoly):
        """Roots of f with multiplicities, adjoining generators as needed
        until f splits into linear factors over the (extended) tower.
        After adjoin(p), p is not factored again: only its exact quotient
        by (y - generator), and the other factors, over the new level."""
        roots = []
        pending = [(f, 1)]
        while pending:
            poly, mult = pending.pop()
            nonlinear = []
            for p, k in self.factor(self.lift_poly(poly, self.height)):
                if p.degree == 1:
                    roots.append((-p.coeffs[0], mult * k))
                else:
                    nonlinear.append((p, mult * k))
            if not nonlinear:
                continue
            (p, k), rest = nonlinear[0], nonlinear[1:]
            alpha = self.adjoin(p)
            roots.append((alpha, k))
            quotient, remainder = self.lift_poly(p, self.height).divmod(
                UPoly([-alpha, self.one(self.height)]))
            if not remainder.is_zero():
                raise InternalInconsistency(
                    "an adjoined generator is not a root of its polynomial")
            pending.extend(rest)
            pending.append((quotient, k))
        return roots
