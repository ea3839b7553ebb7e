"""Dense univariate polynomials over an exact coefficient field.

Coefficients may be ``fractions.Fraction``, tower elements
(:mod:`specrig.tower`), rational functions, or truncated series -- anything
supporting ``+ - * /``, ``bool`` (nonzero test) and mixing with ints.
The zero polynomial is the empty coefficient tuple.
"""

from __future__ import annotations

from fractions import Fraction

import sympy

from .errors import (InsufficientTruncation, InternalInconsistency,
                     SpecrigError)
from .series import Series


class UPoly:
    """Polynomial a_0 + a_1 x + ... + a_d x^d as a coefficient tuple."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @staticmethod
    def const(c):
        return UPoly([c])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def lc(self):
        if not self.coeffs:
            raise SpecrigError("leading coefficient of zero polynomial")
        return self.coeffs[-1]

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other):
        if not isinstance(other, UPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return UPoly([-c for c in self.coeffs])

    def __add__(self, other):
        if not isinstance(other, UPoly):
            other = UPoly.const(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, UPoly):
            other = UPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return UPoly.const(other) - self

    def __mul__(self, other):
        if not isinstance(other, UPoly):
            other = UPoly.const(other)
        if not self.coeffs or not other.coeffs:
            return UPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
        return UPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise SpecrigError("negative polynomial power")
        result = UPoly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, c):
        return UPoly([a * c for a in self.coeffs])

    def shift_up(self, k):
        """Multiply by x^k."""
        if not self.coeffs:
            return self
        return UPoly([0] * k + list(self.coeffs))

    def divmod(self, other):
        """Quotient and remainder; requires invertible lc(other)."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UPoly(), self
        quot = [0] * (dq + 1)
        lead = other.lc()
        for k in range(dq, -1, -1):
            top = rem[k + other.degree]
            if not top:
                continue
            q = top / lead
            quot[k] = q
            for j, c in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - q * c
        return UPoly(quot), UPoly(rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self):
        if self.is_zero():
            return self
        lead = self.lc()
        return UPoly([c / lead for c in self.coeffs])

    def derivative(self):
        return UPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval(self, x0):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    def compose(self, other):
        """self(other) for a polynomial argument."""
        acc = UPoly()
        for c in reversed(self.coeffs):
            acc = acc * other + UPoly.const(c)
        return acc

    def map_coeffs(self, fn):
        return UPoly([fn(c) for c in self.coeffs])

    def __repr__(self):
        return f"UPoly({list(self.coeffs)!r})"


def poly_gcd(f: UPoly, g: UPoly) -> UPoly:
    """Monic gcd over a field."""
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def poly_xgcd(f: UPoly, g: UPoly):
    """Extended gcd: returns (d, u, v) with u*f + v*g = d, d monic."""
    r0, r1 = f, g
    s0, s1 = UPoly([1]), UPoly()
    t0, t1 = UPoly(), UPoly([1])
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    lead = r0.lc()
    inv = 1 / lead
    return r0.scale(inv), s0.scale(inv), t0.scale(inv)


def squarefree_part(f: UPoly) -> UPoly:
    if f.degree <= 0:
        return f.monic()
    return (f // poly_gcd(f, f.derivative())).monic()


def resultant(f: UPoly, g: UPoly):
    """Resultant over a field, by the Euclidean recurrence.

    Res(f, g) = lc(f)^{deg g} * prod g over roots of f (up to the usual
    sign convention baked into the recurrence).  Kept as the test
    reference for :func:`resultant_det`, which every caller uses.
    """
    if f.is_zero() and g.is_zero():
        raise SpecrigError("resultant of two zero polynomials")
    if f.is_zero() or g.is_zero():
        return _zero_like(f, g)
    if f.degree == 0:
        return f.lc() ** g.degree
    if g.degree == 0:
        return g.lc() ** f.degree
    r = f % g
    sign = -1 if (f.degree * g.degree) % 2 else 1
    if r.is_zero():
        return _zero_like(f, g)
    val = g.lc() ** (f.degree - r.degree) * resultant(g, r)
    return sign * val if sign < 0 else val


def _zero_like(f, g):
    for p in (f, g):
        if p.coeffs:
            return p.coeffs[-1] * 0
    return 0


def sylvester_matrix(f: UPoly, g: UPoly):
    """Sylvester matrix of f, g (both nonzero)."""
    m, n = f.degree, g.degree
    size = m + n
    rows = []
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for i in range(n):
        rows.append([0] * i + fc + [0] * (size - i - len(fc)))
    for i in range(m):
        rows.append([0] * i + gc + [0] * (size - i - len(gc)))
    return rows


def _exact_zero(a) -> bool:
    """Provably zero.  A series that vanishes only up to its precision is
    not: its unknown tail may carry the value."""
    return a.is_zero() if isinstance(a, Series) else not a


def det_cofactor(rows):
    """Determinant by cofactor expansion; factorial cost.

    Works over any commutative ring (no divisions).  Kept as the test
    reference for :func:`det_bareiss` and for the small charpoly
    determinants, where it beats elimination over Q(z)[y].
    """
    size = len(rows)
    if size == 0:
        return 1
    if size == 1:
        return rows[0][0]
    acc = None
    for j in range(size):
        a = rows[0][j]
        if _exact_zero(a):
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = a * det_cofactor(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc if acc is not None else rows[0][0] * 0


def _pivot_order(a):
    return a.valuation() if isinstance(a, Series) else 0


def _exact_quotient(num, den):
    """num / den where the division is known to be exact in the ring.

    Polynomials must leave no remainder; series use their own division,
    which is exact for exact operands and certified for truncated ones.
    """
    if isinstance(num, UPoly):
        quot, rem = num.divmod(den)
        if rem:
            raise InternalInconsistency(
                "fraction-free elimination: inexact polynomial division")
        return quot
    if isinstance(num, int) and isinstance(den, int):
        return Fraction(num, den)
    return num / den


def det_bareiss(rows):
    """Determinant by fraction-free (Bareiss) elimination, O(n^3) ring
    operations.

    Step k replaces each trailing entry by the bordered minor
    (M[k][k] M[i][j] - M[i][k] M[k][j]) / (previous pivot), a division
    that is exact in any integral domain.  Over truncated series the
    pivot is a certified-nonzero entry of lowest valuation, only exact
    zeros are skipped, and a pivot column that vanishes only to its
    precision raises InsufficientTruncation: the precision of the result
    is whatever Series arithmetic certifies.
    """
    m = [list(r) for r in rows]
    size = len(m)
    if size == 0:
        return 1
    negate = False
    prev = None
    for k in range(size - 1):
        live = [i for i in range(k, size) if m[i][k]]
        if not live:
            if all(_exact_zero(m[i][k]) for i in range(k, size)):
                return m[k][k] * 0
            raise InsufficientTruncation(
                "pivot column vanishes only to its precision; "
                "determinant undecided")
        p = min(live, key=lambda i: _pivot_order(m[i][k]))
        if p != k:
            m[k], m[p] = m[p], m[k]
            negate = not negate
        top = m[k]
        piv = top[k]
        for row in m[k + 1:]:
            lead = row[k]
            cross = not _exact_zero(lead)
            for j in range(k + 1, size):
                a = row[j]
                val = a if _exact_zero(a) else a * piv
                if cross and not _exact_zero(top[j]):
                    val = val - lead * top[j]
                if prev is not None and not _exact_zero(val):
                    val = _exact_quotient(val, prev)
                row[j] = val
        prev = piv
    det = m[-1][-1]
    return -det if negate else det


def row_reduce(rows):
    """Gauss-Jordan elimination over an exact field: (reduced rows, pivot
    columns), the i-th pivot column belonging to reduced row i.

    The pivot is the first nonzero entry of the column at or below the
    current row; it is scaled by 1/x for a Fraction and by x.inverse()
    for a tower element.  Callers read an inverse, a solution or a kernel
    vector off the result and decide themselves what a missing pivot
    means.
    """
    m = [list(r) for r in rows]
    pivots = []
    for col in range(len(m[0]) if m else 0):
        top = len(pivots)
        if top == len(m):
            break
        piv = next((r for r in range(top, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[top], m[piv] = m[piv], m[top]
        lead = m[top][col]
        inv = 1 / lead if isinstance(lead, Fraction) else lead.inverse()
        m[top] = [x * inv for x in m[top]]
        for r, row in enumerate(m):
            if r != top and row[col]:
                f = row[col]
                m[r] = [x - f * y for x, y in zip(row, m[top])]
        pivots.append(col)
    return m, pivots


def resultant_det(f: UPoly, g: UPoly):
    """Resultant via the Sylvester determinant; valid over any integral
    domain whose division is exact (see :func:`det_bareiss`)."""
    if f.is_zero() and g.is_zero():
        raise SpecrigError("resultant of two zero polynomials")
    if f.is_zero() or g.is_zero():
        return _zero_like(f, g)
    if f.degree == 0:
        return f.lc() ** g.degree
    if g.degree == 0:
        return g.lc() ** f.degree
    return det_bareiss(sylvester_matrix(f, g))


# -- rational-coefficient helpers (sympy-backed factorization) --------------

_X = sympy.Symbol("x")


def _to_sympy(f: UPoly):
    return sympy.Poly(list(reversed([sympy.Rational(c) for c in f.coeffs])), _X,
                      domain="QQ")


def _from_sympy(p) -> UPoly:
    return UPoly([Fraction(c.p, c.q) for c in reversed(p.all_coeffs())])


def factor_rational(f: UPoly):
    """Irreducible factorization over Q: list of (monic UPoly, multiplicity).

    All coefficients of f must be Fraction/int.  A linear f is its own
    factorization and never reaches sympy.
    """
    if f.degree < 1:
        return []
    if f.degree == 1:
        lead = Fraction(f.coeffs[1])
        return [(UPoly([Fraction(f.coeffs[0]) / lead, Fraction(1)]), 1)]
    _, factors = _to_sympy(f).factor_list()
    return [(_from_sympy(p).monic(), int(k)) for p, k in factors]
