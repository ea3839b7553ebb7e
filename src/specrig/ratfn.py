"""Rational functions in one variable over Q, reduced with monic denominator.

Also provides exact local data: valuation at a rational point or at
infinity, and truncated Laurent expansion into :class:`specrig.series.Series`.
"""

from __future__ import annotations

from fractions import Fraction

from .qpoly import UPoly, poly_gcd
from .series import Series, qdiv, qnorm

INFINITY = "inf"  # token for the point at infinity
_ONE = UPoly([1])


class RatFn:
    """num/den with gcd(num, den) = 1 and den monic.

    Coefficients follow the rule of the rational layer: a rational that
    is an integer is an int, and a Fraction comes only from a division
    that does not come out even (:func:`specrig.series.qdiv`).

    The constructor normalizes once, and skips the two steps that are
    trivial: the gcd when den is constant (gcd(num, c) = 1 for c != 0)
    and the rescaling when den is already monic.  Results whose parts are
    coprime by construction (negation, powers and the chart changes
    :meth:`at_infinity` and :meth:`shifted`) go through
    :meth:`_coprime`, which only makes den monic.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: UPoly, den: UPoly = None):
        if den is None:
            den = _ONE
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = UPoly(), _ONE
        else:
            if den.degree >= 1:
                g = poly_gcd(num, den)
                if g.degree >= 1:
                    num, den = num // g, den // g
            num, den = _monic_den(num, den)
        self.num = num
        self.den = den

    @classmethod
    def _coprime(cls, num: UPoly, den: UPoly) -> "RatFn":
        """num/den for num and den already coprime, den nonzero: only
        makes den monic."""
        if num.is_zero():
            return cls(num)
        out = object.__new__(cls)
        out.num, out.den = _monic_den(num, den)
        return out

    @staticmethod
    def const(c):
        return RatFn(UPoly([c]))

    @staticmethod
    def var():
        return RatFn(UPoly([0, 1]))

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFn.const(other)
        if not isinstance(other, RatFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFn.const(other)
        return RatFn(self.num * other.den + other.num * self.den,
                     self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFn._coprime(-self.num, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFn.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return RatFn.const(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFn.const(other)
        return RatFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFn.const(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFn(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return RatFn.const(other) / self

    def __pow__(self, n):
        """gcd(num, den) = 1 implies gcd(num^k, den^k) = 1."""
        if n == 0:
            return RatFn.const(1)
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("division by zero rational function")
            return RatFn._coprime(self.den ** -n, self.num ** -n)
        return RatFn._coprime(self.num ** n, self.den ** n)

    def eval(self, x0):
        d = self.den.eval(x0)
        if not d:
            raise ZeroDivisionError("evaluation at a pole")
        return qdiv(self.num.eval(x0), d)

    # -- local data ------------------------------------------------------

    def valuation(self, a):
        """Order of vanishing at a rational point a or at INFINITY.

        Returns None for the zero function (order +infinity).
        """
        if self.is_zero():
            return None
        if a == INFINITY:
            return self.den.degree - self.num.degree
        return _root_order(self.num, a) - _root_order(self.den, a)

    def at_infinity(self) -> "RatFn":
        """Substitute z = 1/w; returns a rational function of w.

        The reversals rn, rd of num, den stay coprime: a common root
        w0 != 0 would give the common root 1/w0 of num and den, and
        rn(0) = lc(num), rd(0) = lc(den) are nonzero, so neither is
        divisible by w and the power of w below cancels nothing."""
        n, d = self.num, self.den
        dn, dd = n.degree, d.degree
        rn = UPoly(list(reversed(n.coeffs)))
        rd = UPoly(list(reversed(d.coeffs)))
        # f(1/w) = w^{dd-dn} * rn(w)/rd(w)
        if dd >= dn:
            return RatFn._coprime(rn.shift_up(dd - dn), rd)
        return RatFn._coprime(rn, rd.shift_up(dn - dd))

    def shifted(self, a) -> "RatFn":
        """Substitute z = w + a (local coordinate w = z - a).  This is an
        automorphism of Q[z], so coprime parts stay coprime and the
        monic denominator stays monic."""
        if not a:
            return self
        arg = UPoly([qnorm(a), 1])
        return RatFn._coprime(self.num.compose(arg), self.den.compose(arg))

    def expand_local(self, nterms: int) -> Series:
        """Laurent expansion at 0 with nterms certified coefficient orders
        past the leading one.  A Laurent polynomial (denominator t^vd)
        comes out exact, with every term, whatever nterms is."""
        if self.is_zero():
            return Series.zero()
        vd = _root_order_zero(self.den)
        if vd == self.den.degree:
            return Series({k - vd: c
                           for k, c in enumerate(self.num.coeffs) if c})
        vn = _root_order_zero(self.num)
        v = vn - vd
        num = UPoly(self.num.coeffs[vn:])
        den = UPoly(self.den.coeffs[vd:])
        # power series division num/den to nterms coefficients
        d0 = den.coeffs[0]
        out = []
        rem = list(num.coeffs) + [0] * nterms
        for k in range(nterms):
            c = qdiv(rem[k], d0)
            out.append(c)
            if c:
                for j in range(1, min(len(den.coeffs), nterms - k)):
                    rem[k + j] -= c * den.coeffs[j]
        return Series({v + i: c for i, c in enumerate(out) if c},
                      v + nterms)

    def __repr__(self):
        return f"RatFn({list(self.num.coeffs)}, {list(self.den.coeffs)})"


def _monic_den(num: UPoly, den: UPoly):
    """(num, den) divided by lc(den), so that den is monic."""
    lead = den.lc()
    if lead == 1:
        return num, den
    return (UPoly([qdiv(c, lead) for c in num.coeffs]), den.monic())


def _root_order(p: UPoly, a) -> int:
    """Multiplicity of the root a of p (0 for p = 0).  Each Horner pass
    is a synthetic division by z - a: its partial sums are the quotient's
    coefficients, highest first, and its last one is the remainder p(a)."""
    if not a:
        return _root_order_zero(p)
    c = p.coeffs
    k = 0
    while len(c) > 1:
        acc, quot = 0, []
        for x in reversed(c):
            acc = acc * a + x
            quot.append(acc)
        if acc:
            break
        c = quot[-2::-1]
        k += 1
    return k


def _root_order_zero(p: UPoly) -> int:
    k = 0
    while k <= p.degree and not p.coeffs[k]:
        k += 1
    return k


def ratfn_pole_points(f: RatFn):
    """Rational roots of the denominator with multiplicities; raises on
    irrational denominator factors (handled by the caller)."""
    from .qpoly import factor_rational
    out = []
    irrational = []
    for p, k in factor_rational(f.den):
        if p.degree == 1:
            out.append((qdiv(-p.coeffs[0], p.coeffs[1]), k))
        else:
            irrational.append((p, k))
    return out, irrational


def expand_at(f: RatFn, a, nterms: int) -> Series:
    """Laurent expansion of f in the local coordinate at a (or w = 1/z at
    INFINITY). No 1-form twist here; plain function expansion."""
    if a == INFINITY:
        return f.at_infinity().expand_local(nterms)
    return f.shifted(a).expand_local(nterms)


class Chart:
    """The local chart of P^1 at a rational point a or at INFINITY.

    Its coordinate t is z = a + t at a rational point and z = 1/t at
    infinity, and its Jacobian is dz/dt = sign t^order: (1, 0) at a
    rational point, (-1, -2) at infinity.  Every local invariant reads a
    rational function f of z as f(z(t)) (dz/dt)^w, for a weight w:

    * w = 1 for an entry of A: the equation dw = A(z) w dz is
      dw = A(z(t)) (dz/dt) w dt, so the 1-form A(z) dz has the matrix
      A(z(t)) dz/dt in the chart;
    * w = n - j for the coefficient c_j of y^j in cp(y) = det(y - A):
      the spectral curve lies in the cotangent line, where y dz = Y dt
      gives the fibre coordinate Y = y dz/dt, and the local charpoly
      det(Y - A dz/dt) = (dz/dt)^n cp(Y / (dz/dt))
      = sum_j c_j (dz/dt)^(n-j) Y^j;
    * w = n(n-1) for the discriminant of cp: it is a product of n(n-1)
      root differences over ordered pairs, each scaled by dz/dt.

    A root Y(t) of the local charpoly maps back to y = Y / (dz/dt).
    """

    __slots__ = ("point", "sign", "order")

    def __init__(self, a):
        if a == INFINITY:
            self.point, self.sign, self.order = INFINITY, -1, -2
        else:
            self.point, self.sign, self.order = qnorm(Fraction(a)), 1, 0

    def valuation(self, f: RatFn, weight: int = 0):
        """ord_t of f(z(t)) (dz/dt)^weight; None for f = 0."""
        v = f.valuation(self.point)
        return None if v is None else v + weight * self.order

    def expand(self, f: RatFn, nterms: int, weight: int) -> Series:
        """Laurent expansion of f(z(t)) (dz/dt)^weight in t, certified to
        nterms orders past its leading one, and exact when
        :meth:`is_laurent` holds."""
        s = expand_at(f, self.point, nterms)
        if weight * self.order:
            s = s.shift(weight * self.order)
        if self.sign < 0 and weight % 2:
            s = -s
        return s

    def is_laurent(self, f: RatFn) -> bool:
        """Whether f(z(t)) is a Laurent polynomial in t, so that
        :meth:`expand` is exact.  At infinity that holds when den is a
        power of z: the chart reverses den, and a reversal is a power of
        t only for a monomial."""
        point = 0 if self.point == INFINITY else self.point
        return _root_order(f.den, point) == f.den.degree

    def root_in_z(self, terms):
        """y = Y / (dz/dt) over Q[z] for a root Y(t) = sum terms[e] t^e
        with integer exponents e: returns (num, den) with y = num / den.

        y = sign sum terms[e] t^(e - order) is a Laurent polynomial in
        u = t = z - a at a rational point and in u = 1/t = z at infinity,
        cleared by den = u^k; only a finite point composes with u."""
        inf = self.point == INFINITY
        terms = {(self.order - e if inf else e - self.order):
                 self.sign * v for e, v in terms.items()}
        u = UPoly([0 if inf else -self.point, 1])
        k = max(0, -min(terms, default=0))
        dense = [0] * (max(terms, default=0) + k + 1)
        for e, v in terms.items():
            dense[e + k] = v
        num = UPoly(dense)
        return (num if inf else num.compose(u)), u ** k
