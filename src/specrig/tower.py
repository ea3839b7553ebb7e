"""Towers of simple algebraic extensions of Q.

A tower is a chain Q = K_0 < K_1 < ... < K_h where K_j = K_{j-1}(a_j) and
a_j has a monic minimal polynomial m_j over K_{j-1} that is verified
irreducible when adjoined.  Elements of K_j are reduced coordinate tuples
over K_{j-1} (rationals at level 1).  Sums are elementwise, a lower-level
operand scales the coordinates, a product is reduced by m_j (over Z at
level 1), and an inverse costs one inverse a level down, of the norm.

Factorization over a level is done by Trager's norm method, recursing down
to Q, where :func:`specrig.qpoly.factor_rational` factors over Z.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SpecrigError, UnsupportedExtension, InternalInconsistency
from .qpoly import (UPoly, det_cofactor, factor_order, factor_rational,
                    lcm_integers, poly_gcd, resultant_det, squarefree_part)
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

    def _level(self, other):  # 0 for a rational, None for a foreign type
        if isinstance(other, TowerElem):
            if other.tower is not self.tower:
                raise SpecrigError("mixing elements of different towers")
            return other.level
        return 0 if isinstance(other, (int, Fraction)) else None

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        level = self._level(other)
        if level is None or level > self.level:
            return NotImplemented if level is None else other == self
        if level == self.level:
            return self.coeffs == other.coeffs
        c = self.coeffs
        return len(c) < 2 and (c[0] if c else 0) == other

    def __hash__(self):
        if len(self.coeffs) < 2:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash((self.level, self.coeffs))

    def __add__(self, other):
        level = self._level(other)
        if level is None or level > self.level:
            return NotImplemented if level is None else other + self
        a = self.coeffs
        if level < self.level:
            head = a[0] + other if a else \
                self.tower.lift(other, self.level - 1)
            return TowerElem(self.tower, self.level, (head,) + a[1:])
        b = other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, y in enumerate(b):
            out[i] = out[i] + y
        return TowerElem(self.tower, self.level, out)

    __radd__ = __add__

    def __neg__(self):
        return TowerElem(self.tower, self.level, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        level = self._level(other)
        if level is None or level > self.level:
            return NotImplemented if level is None else other * self
        a = self
        if level == self.level:
            # an operand with one coordinate is a lower-level value
            if len(a.coeffs) < 2:
                a, other = other, a
            if len(other.coeffs) > 1:
                return a._product(other)
            other = other.coeffs[0] if other.coeffs else 0
        return TowerElem(a.tower, a.level, [c * other for c in a.coeffs])

    __rmul__ = __mul__

    def _product(self, other):
        """Schoolbook product of two same-level elements, reduced by the
        minimal polynomial; at level 1 over the integers."""
        tower, level = self.tower, self.level
        a, b = self.coeffs, other.coeffs
        if level == 1:
            (a, da), (b, db) = lcm_integers(a), lcm_integers(b)
        out = [tower.zero(level - 1)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] = out[j] + x * y
        m, lead = tower.reducers[level - 1]
        out = _reduce(out, m, lead)
        if level == 1:
            den = da * db * lead ** max(0, len(a) + len(b) - len(m))
            out = [qdiv(x, den) for x in out]
        return TowerElem(tower, level, out)

    def inverse(self):
        """The first column of adj(M) / det(M) for the matrix M of
        multiplication by self over the level below: one inverse there, of
        the norm det(M), and no other division."""
        c = self.coeffs
        if not c:
            raise ZeroDivisionError("inverse of zero tower element")
        tower, level = self.tower, self.level
        if len(c) == 1:
            return TowerElem(tower, level, (_inverse(c[0]),))
        den = 1
        if level == 1:
            c, den = lcm_integers(c)
        m, lead = tower.reducers[level - 1]
        zero = tower.zero(level - 1)
        # column j is lead^j (self x^j mod m)
        cols = [list(c) + [zero] * (len(m) - 1 - len(c))]
        while len(cols) < len(m) - 1:
            cols.append(_reduce([zero] + cols[-1], m, lead))
        rows = list(zip(*cols))
        cof = [(-1) ** j * det_cofactor([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(cols))]
        norm = sum(x * y for x, y in zip(rows[0], cof))
        if not norm:
            raise InternalInconsistency(
                "zero divisor in tower: a minimal polynomial is reducible")
        inv = qdiv(den, norm) if level == 1 else norm.inverse()
        return TowerElem(tower, level,
                         [x * (lead ** j * inv) for j, x in enumerate(cof)])

    def __truediv__(self, other):
        if self._level(other) is None:
            return NotImplemented
        return self * _inverse(other)

    def __rtruediv__(self, other):
        return self.inverse() * other

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
            c = c if isinstance(c, TowerElem) else Fraction(c)
            if i == 0:
                parts.append(repr(c))
            elif i == 1:
                parts.append(f"{c!r}*{name}")
            else:
                parts.append(f"{c!r}*{name}^{i}")
        return "(" + " + ".join(parts) + ")"


def _inverse(x):
    """1 / x for a rational or a tower element."""
    return x.inverse() if isinstance(x, TowerElem) else qdiv(1, x)


def _reduce(c, m, lead):
    """The coordinate list c reduced by the polynomial with coefficients m
    and leading coefficient lead, times lead per reduction step."""
    d = len(m) - 1
    for k in range(len(c) - 1, d - 1, -1):
        t = c.pop()
        if lead != 1:
            c = [lead * x for x in c]
        if t:
            for i, y in enumerate(m[:d], k - d):
                if y:
                    c[i] = c[i] - t * y
    return c


def rational_value(x):
    """x (a rational or a tower element) as a Fraction, or None when it is
    irrational: when some level of its reduced form is not a constant."""
    while isinstance(x, TowerElem):
        if len(x.coeffs) > 1:
            return None
        x = x.coeffs[0] if x.coeffs else 0
    return Fraction(x)


class FieldTower:
    """Chain of simple extensions; grows as roots are adjoined."""

    def __init__(self):
        self.levels = []  # (name, minpoly UPoly over previous level)
        # per level, m_j as (coefficients, leading coefficient); Z at level 1
        self.reducers = []

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
            x, cur = Fraction(x), 0
        while cur < level:
            cur += 1
            x = TowerElem(self, cur, (x,))
        return x

    def gen(self, level) -> TowerElem:
        return TowerElem(self, level,
                         (self.lift(0, level - 1), self.lift(1, level - 1)))

    def one(self, level):
        return self.lift(1, level)

    def zero(self, level):
        return TowerElem(self, level, ()) if level else 0

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
        self.levels.append((f"a{top}", minpoly))
        self.reducers.append(lcm_integers(minpoly.coeffs) if top == 0
                             else (minpoly.coeffs, 1))
        return self.gen(self.height)

    # -- factorization (Trager) ----------------------------------------

    def factor(self, f: UPoly):
        """Monic irreducible factorization over the level of f's
        coefficients: list of (UPoly, multiplicity)."""
        level = self.poly_level(f)
        f = self.lift_poly(f, level)
        if level == 0:
            # in the order of the squarefree part's factors, whatever
            # their multiplicities
            return sorted(factor_rational(f),
                          key=lambda pk: factor_order(pk[0]))
        if f.degree < 1:
            return []
        if f.degree == 1:
            return [(UPoly([f.coeffs[0] * _inverse(f.coeffs[1]),
                            self.one(level)]), 1)]
        sqf = squarefree_part(f)
        irr = self._factor_squarefree(sqf, level)
        out = []
        rest = f.monic()
        for p in irr:
            k = 0
            q, r = rest.divmod(p)
            while r.is_zero():
                rest, k = q, k + 1
                q, r = rest.divmod(p)
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
        # coefficient of y^j: the UPoly in x of the j-th coordinates of h
        coords = [self.lift(c, level).coeffs for c in h.coeffs]
        H = UPoly([UPoly([r[j] if j < len(r) else 0 for r in coords])
                   for j in range(m.degree)])
        res = resultant_det(UPoly([UPoly.const(c) for c in m.coeffs]), H)
        return res if isinstance(res, UPoly) else UPoly.const(res)

    # -- complete splitting ---------------------------------------------

    def split_completely(self, f: UPoly):
        """Roots of f with multiplicities, adjoining generators as needed
        until f splits into linear factors over the (extended) tower.
        After adjoin(p), p is not factored again: only its exact quotient
        by (y - generator), and the other factors, over the new level.
        The root of a linear polynomial c1 y + c0 is read off as
        -c0 c1^-1, at the top level."""
        roots = []
        pending = [(f, 1)]
        while pending:
            poly, mult = pending.pop()
            if poly.degree == 1:
                root = -poly.coeffs[0] * _inverse(poly.coeffs[1])
                roots.append((self.lift(root, self.height), mult))
                continue
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
