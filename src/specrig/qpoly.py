"""Dense univariate polynomials over an exact coefficient ring.

Coefficients may be rationals, tower elements (:mod:`specrig.tower`),
rational functions, or truncated series, a ring without division; each
mixes with ints and is falsy only when provably zero.  A rational
that is an integer is an ``int``; a ``fractions.Fraction`` comes only from
a division that does not come out even, and every division of the
rational layer goes through :func:`specrig.series.qdiv`.  Over Q the gcd
(:func:`poly_gcd`) clears denominators once and works over Z; over Q[z]
the resultant (:func:`resultant_det`) clears them once, works over Z[z],
and rescales its result to Q once.  Series over Q reach truncated Z[[z]]
only through :func:`integer_series`, which clears one polynomial to a
positive rational multiple of itself: a series resultant is eliminated
only over Z[[z]] and read as a valuation, never rescaled to Q.
The zero polynomial is the empty coefficient tuple.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, count, zip_longest
from math import ceil, gcd, isqrt, lcm

from .errors import (InsufficientTruncation, InternalInconsistency,
                     SpecrigError)
from .series import INF, Series, qdiv


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

    def __iter__(self):
        return iter(self.coeffs)

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
        # a series that vanishes up to its precision is truthy and still
        # bounds the precision of the product
        live = [(j, b) for j, b in enumerate(other.coeffs) if b]
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in live:
                out[i + j] = out[i + j] + a * b
        return UPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise SpecrigError("negative polynomial power")
        *low, top = self.coeffs or (0,)
        if n and top and not any(low):
            # a monomial c x^d: c^n x^(dn)
            return UPoly([0] * (len(low) * n) + [top ** n])
        result = UPoly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift_up(self, k):
        """Multiply by x^k."""
        if not self.coeffs:
            return self
        return UPoly([0] * k + list(self.coeffs))

    def divmod(self, other):
        """Quotient and remainder of degree < deg other, also over series,
        whose cancelled tops may vanish only to their precision."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UPoly(), self
        quot = [0] * (dq + 1)
        lead = other.lc()
        inv = _ring_inverse(lead)
        for k in range(dq, -1, -1):
            top = rem[k + other.degree]
            if not top:
                continue
            q = qdiv(top, lead) if inv is None else top * inv
            quot[k] = q
            for j, c in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - q * c
        return UPoly(quot), UPoly(rem[:other.degree])

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self):
        if self.is_zero():
            return self
        lead = self.lc()
        inv = _ring_inverse(lead)
        if inv is None:
            return UPoly([qdiv(c, lead) for c in self.coeffs])
        return UPoly([c * inv for c in self.coeffs])

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
    """Monic gcd over a field; the gcd of two zero polynomials is zero.

    Over Q both operands are cleared to primitive integer polynomials.
    Coprime ones are recognized by one Euclid run modulo a prime (see
    :func:`_coprime_modulo_prime`); any other pair takes a primitive
    remainder sequence over Z (Collins, JACM 14, 1967), made monic once.
    Tower coefficients take the Euclidean algorithm over their field.
    """
    if not (_over_q(f) and _over_q(g)):
        a, b = f, g
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()
    if not f or not g:
        return (f or g).monic()
    a = _primitive_integers(f.coeffs)[0]
    b = _primitive_integers(g.coeffs)[0]
    if _coprime_modulo_prime(a, b):
        return UPoly([1])
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _int_pseudo_remainder(a, b)
        if not r:
            break
        a, b = b, _primitive_integers(r)[0]
    else:
        return UPoly([1])
    return UPoly(b).monic()


_PRIME = (1 << 61) - 1  # a Mersenne prime


def _coprime_modulo_prime(a, b):
    """True when Euclid over GF(_PRIME) proves the integer polynomials a
    and b (lowest degree first) coprime over Q: their gcd there is a
    constant and _PRIME divides neither leading coefficient, so the gcd
    over Z, whose leading coefficient divides both, keeps its degree
    modulo _PRIME."""
    if not (a[-1] % _PRIME and b[-1] % _PRIME):
        return False
    return len(_mod_gcd([x % _PRIME for x in a], [x % _PRIME for x in b],
                        _PRIME)) == 1


def _int_pseudo_remainder(a, b):
    """A nonzero integer multiple of the remainder of a by b, two integer
    coefficient lists (lowest degree first) with len(a) >= len(b) and a
    nonzero last entry of b; trailing zeros stripped.  Each step cancels
    the top entry of a against b scaled by the least integers that do
    it."""
    a = list(a)
    db = len(b) - 1
    lead = b[-1]
    for k in range(len(a) - 1 - db, -1, -1):
        top = a.pop()
        if not top:
            continue
        g = gcd(top, lead)
        m, q = lead // g, top // g
        if m != 1:
            a = [m * x for x in a]
        for j, y in enumerate(b[:db], k):
            if y:
                a[j] -= q * y
    while a and not a[-1]:
        a.pop()
    return a


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
        if not a:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = a * det_cofactor(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc if acc is not None else rows[0][0] * 0


def _pivot_order(a):
    """Lowest certified exponent of a pivot candidate; None if none."""
    if isinstance(a, _ZSeries):
        return a._first()
    return 0 if a else None


def _exact_quotient(num, den):
    """num / den where the division is known to be exact in the ring.

    Integers, polynomials and truncated integer series must leave no
    remainder; tower elements divide in their field.
    """
    if isinstance(num, _ZSeries):
        return num.exact_quotient(den)
    if isinstance(num, UPoly):
        if isinstance(den.lc(), int):
            return UPoly(_int_exact_quotient(num.coeffs, den.coeffs))
        quot, rem = num.divmod(den)
        if rem:
            raise InternalInconsistency(
                "fraction-free elimination: inexact polynomial division")
        return quot
    if isinstance(num, int) and isinstance(den, int):
        quot, rem = divmod(num, den)
        if rem:
            raise InternalInconsistency(
                "fraction-free elimination: inexact integer division")
        return quot
    return qdiv(num, den)


def _int_exact_quotient(a, b):
    """Quotient of two integer coefficient lists (lowest degree first)
    when b divides a over Z; any remainder raises."""
    quot = _int_quotient(a, b)
    if quot is None:
        raise InternalInconsistency(
            "fraction-free elimination: inexact polynomial division")
    return quot


def _int_quotient(a, b):
    """Quotient of two integer coefficient lists (lowest degree first)
    when b divides a over Z; None when it does not."""
    a = list(a)
    db = len(b) - 1
    lead = b[-1]
    quot = [0] * max(0, len(a) - db)
    for k in range(len(a) - 1 - db, -1, -1):
        c, rem = divmod(a[k + db], lead)
        if rem:
            return None
        quot[k] = c
        if c:
            for j, y in enumerate(b[:db], k):
                if y:
                    a[j] -= c * y
    return None if any(a[:db]) else quot


def _cap(prec):
    """Number of exponents 0, 1, ... below prec; None for an exact
    series."""
    return None if prec is None else max(0, ceil(prec))


class _ZSeries:
    """Truncated power series over Z: c[i] is the coefficient of z^i, and
    prec bounds the certified exponents as in :class:`Series` (None:
    exact).

    It is the integer form of a rational series with nonnegative integer
    exponents, made by :func:`integer_series`, and :func:`resultant_det`
    eliminates over it as given.  Its ``+``, ``-`` and ``*`` keep the
    precision that Series arithmetic certifies for the same operation,
    and its exact quotient the precision of a product with the truncated
    inverse of the divisor.  It is falsy only when provably zero.
    """

    __slots__ = ("c", "prec")

    def __init__(self, c, prec=None):
        n = len(c)
        if prec is not None:
            if isinstance(prec, Fraction) and prec.denominator == 1:
                prec = prec.numerator
            n = min(n, _cap(prec))
        while n and not c[n - 1]:
            n -= 1
        self.c = c if n == len(c) else c[:n]
        self.prec = prec

    def __bool__(self):
        return bool(self.c) or self.prec is not None

    def _first(self):
        return next((i for i, x in enumerate(self.c) if x), None)

    def low(self):
        first = self._first()
        if first is not None:
            return first
        return INF if self.prec is None else self.prec

    def valuation(self):
        first = self._first()
        if first is None:
            if self.prec is not None:
                raise InsufficientTruncation(
                    "series vanishes to its precision; valuation unknown")
            return INF
        return first

    def __neg__(self):
        return _ZSeries([-x for x in self.c], self.prec)

    def _minprec(self, other):
        if self.prec is None:
            return other.prec
        if other.prec is None:
            return self.prec
        return min(self.prec, other.prec)

    def __add__(self, other):
        if not isinstance(other, _ZSeries):
            other = _ZSeries([other])
        return _ZSeries([x + y for x, y in
                         zip_longest(self.c, other.c, fillvalue=0)],
                        self._minprec(other))

    __radd__ = __add__

    def __sub__(self, other):
        return _ZSeries([x - y for x, y in
                         zip_longest(self.c, other.c, fillvalue=0)],
                        self._minprec(other))

    def __rsub__(self, other):
        return _ZSeries([other]) - self

    def __mul__(self, other):
        if not isinstance(other, _ZSeries):
            other = _ZSeries([other])
        prec = None
        if self.prec is not None:
            prec = self.prec + other.low()
        if other.prec is not None:
            bound = other.prec + self.low()
            prec = bound if prec is None else min(prec, bound)
        a, b = self.c, other.c
        n = len(a) + len(b) - 1 if a and b else 0
        if prec is not None:
            n = min(n, _cap(prec))
        out = [0] * n
        for i, x in enumerate(a[:n]):
            if x:
                for j, y in enumerate(b[:n - i], i):
                    out[j] += x * y
        return _ZSeries(out, prec)

    __rmul__ = __mul__

    def exact_quotient(self, den):
        """self / den for a pivot den: exact by exact is polynomial
        division; anything else is power-series division, certified to
        the precision of self times the truncated inverse of den.  Its
        terms are those of a Bareiss minor, so they are integers; one
        that is not raises InternalInconsistency."""
        b = den.c
        v = den.valuation()
        if self.prec is None and den.prec is None:
            return _ZSeries(_int_exact_quotient(self.c, b))
        if den.prec is None:
            prec = self.prec - v
        else:
            prec = den.prec - 2 * v + self.low()
            if self.prec is not None:
                prec = min(prec, self.prec - v)
        a = self.c
        first = self._first()
        if first is not None and first < v and first - v < prec:
            raise InternalInconsistency(
                "fraction-free elimination: inexact series division")
        lead = b[v]
        tail = b[v + 1:]
        quot = []
        for k in range(_cap(prec)):
            acc = a[k + v] if k + v < len(a) else 0
            for j, y in enumerate(tail[:k]):
                if y:
                    acc -= y * quot[k - 1 - j]
            c, rem = divmod(acc, lead)
            if rem:
                raise InternalInconsistency(
                    "fraction-free elimination: inexact series division")
            quot.append(c)
        return _ZSeries(quot, prec)


def det_bareiss(rows):
    """Determinant by fraction-free (Bareiss) elimination, O(n^3) ring
    operations.

    Step k replaces each trailing entry by the bordered minor
    (M[k][k] M[i][j] - M[i][k] M[k][j]) / (previous pivot), a division
    that is exact in any integral domain.  Over Z and Z[z] it is an
    integer division that raises InternalInconsistency on a remainder;
    tower elements divide in their field.  Over the truncated integer
    series of :func:`resultant_det` the pivot is an entry of lowest
    valuation among those with a certified term, only provably zero
    entries are skipped, and a pivot column that vanishes only to its
    precision raises InsufficientTruncation: the precision of the result
    is whatever the series arithmetic certifies.
    """
    m = [list(r) for r in rows]
    size = len(m)
    if size == 0:
        return 1
    negate = False
    prev = None
    for k in range(size - 1):
        orders = [(v, i) for i in range(k, size)
                  if (v := _pivot_order(m[i][k])) is not None]
        if not orders:
            if not any(m[i][k] for i in range(k, size)):
                return m[k][k] * 0
            raise InsufficientTruncation(
                "pivot column vanishes only to its precision; "
                "determinant undecided")
        p = min(orders)[1]
        if p != k:
            m[k], m[p] = m[p], m[k]
            negate = not negate
        top = m[k]
        piv = top[k]
        for row in m[k + 1:]:
            lead = row[k]
            cross = bool(lead)
            for j in range(k + 1, size):
                a = row[j]
                val = a * piv if a else a
                if cross and top[j]:
                    val = val - lead * top[j]
                if prev is not None and val:
                    val = _exact_quotient(val, prev)
                row[j] = val
        prev = piv
    det = m[-1][-1]
    return -det if negate else det


def row_reduce(rows):
    """Gauss-Jordan elimination over an exact field: (reduced rows, pivot
    columns), the i-th pivot column belonging to reduced row i.

    The pivot is the first nonzero entry of the column at or below the
    current row; it is scaled by qdiv(1, x) for a rational and by
    x.inverse() for a tower element.  Callers read an inverse, a solution
    or a kernel vector off the result and decide themselves what a
    missing pivot means.
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
        inv = qdiv(1, lead) if _rational(lead) else lead.inverse()
        m[top] = [x * inv for x in m[top]]
        for r, row in enumerate(m):
            if r != top and row[col]:
                f = row[col]
                m[r] = [x - f * y for x, y in zip(row, m[top])]
        pivots.append(col)
    return m, pivots


def lcm_integers(values):
    """(the integers den * v, den) for rationals v, den the lcm of their
    denominators."""
    den = lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def _primitive_integers(values):
    """The coprime integers c * v for rational values v, with the one
    positive rational c = den / num that makes them so; returns
    (integers, den, num).  At least one value must be nonzero."""
    scaled, den = lcm_integers(values)
    num = gcd(*scaled)
    return [x // num for x in scaled], den, num


def _rational(c):
    return isinstance(c, (int, Fraction))


def _ring_inverse(c):
    """c.inverse() for a tower element or a series, so that one inverse
    serves every coefficient of a division by c; None for any other
    coefficient, which divides by its own rule (a rational by qdiv, so
    that an even quotient stays an int)."""
    if _rational(c):
        return None
    from .tower import TowerElem
    return c.inverse() if isinstance(c, (TowerElem, Series)) else None


def _over_q(p: UPoly) -> bool:
    return all(_rational(x) for x in p.coeffs)


def _integer_series(s: Series, ints) -> _ZSeries:
    """s over Z, from the integer multiples of its coefficients."""
    dense = [0] * (max(s.terms).numerator + 1 if s.terms else 0)
    for e, x in zip(s.terms, ints):
        dense[e.numerator] = x
    return _ZSeries(dense, s.prec)


def _cleared(p: UPoly, ring):
    """(P, den, num) with P = (den / num) p over Z, the scale of
    :func:`_primitive_integers` over every rational of p.  ring is the
    coefficient type of p: UPoly or Series."""
    if ring is UPoly:
        parts = [c.coeffs for c in p.coeffs]
    else:
        parts = [list(c.terms.values()) for c in p.coeffs]
    ints, den, num = _primitive_integers([x for xs in parts for x in xs])
    out, i = [], 0
    for c, xs in zip(p.coeffs, parts):
        chunk = ints[i:i + len(xs)]
        i += len(xs)
        out.append(UPoly(chunk) if ring is UPoly
                   else _integer_series(c, chunk))
    return UPoly(out), den, num


def _integer_sylvester(f: UPoly, g: UPoly):
    """Integer form of the Sylvester matrix of f and g over Q[z]
    (rational constants may mix with the polynomials): (rows, back), back
    mapping the determinant over Z[z] to Res(f, g).  None for any other
    exact ring (rationals alone, tower elements, truncated Z[[z]]); a
    series over Q raises InternalInconsistency, since it reaches Z[[z]]
    only through :func:`integer_series`.
    """
    coeffs = f.coeffs + g.coeffs
    if any(isinstance(c, Series) for c in coeffs):
        raise InternalInconsistency("resultant over series: clear them "
                                    "to truncated Z[[z]] first")
    if all(_rational(c) for c in coeffs) or not all(
            _rational(c) or isinstance(c, UPoly) and _over_q(c)
            for c in coeffs):
        return None
    f, g = (p.map_coeffs(lambda c: c if isinstance(c, UPoly)
                         else UPoly.const(c)) for p in (f, g))
    (fz, df, nf), (gz, dg, ng) = (_cleared(p, UPoly) for p in (f, g))
    # with c_f = df / nf and c_g = dg / ng,
    # Res(c_f f, c_g g) = c_f^deg g c_g^deg f Res(f, g)
    m, n = f.degree, g.degree
    num, den = nf ** n * ng ** m, df ** n * dg ** m

    def back(x):
        return UPoly([qdiv(a * num, den) for a in x.coeffs] if x else ())
    return sylvester_matrix(fz, gz), back


def integer_series(p: UPoly) -> UPoly:
    """c p over truncated Z[[z]] for one positive rational c, p a
    polynomial over series over Q with nonnegative integer exponents: the
    terms and precisions of p, scaled by the c of :func:`_cleared`.  c is
    not returned; its callers read resultants of such polynomials as
    z-valuations, which no positive scale moves.  Any other coefficient
    (a negative or fractional exponent, an irrational tower element, a
    coefficient that is not a series) raises InternalInconsistency.
    """
    if not all(isinstance(c, Series)
               and all(_rational(x) and e.denominator == 1 and e >= 0
                       for e, x in c.terms.items())
               for c in p.coeffs):
        raise InternalInconsistency("integer series over series that are "
                                    "not over Q with nonnegative integer "
                                    "exponents")
    return _cleared(p, Series)[0]


def resultant_det(f: UPoly, g: UPoly):
    """Resultant via the Sylvester determinant over an exact ring: Q,
    Q[z], a field tower or truncated Z[[z]] (see :func:`det_bareiss`).

    Over Q[z] the denominators are cleared once, the elimination runs
    over Z[z], and the result is rescaled once by
    Res(c f, d g) = c^deg g d^deg f Res(f, g).  Rationals, tower elements
    and truncated integer series are eliminated as they are.  A series
    over Q raises InternalInconsistency: series do not divide, so a
    series resultant is eliminated only over Z[[z]], on the integer form
    of :func:`integer_series`, and read there as a valuation.
    """
    if f.is_zero() and g.is_zero():
        raise SpecrigError("resultant of two zero polynomials")
    if f.is_zero() or g.is_zero():
        return _zero_like(f, g)
    if f.degree == 0:
        return f.lc() ** g.degree
    if g.degree == 0:
        return g.lc() ** f.degree
    integer = _integer_sylvester(f, g)
    if integer is None:
        return det_bareiss(sylvester_matrix(f, g))
    rows, back = integer
    return back(det_bareiss(rows))


# -- factorization over Q: Zassenhaus's method over Z ----------------------

def factor_rational(f: UPoly):
    """Irreducible factorization over Q: list of (monic UPoly, multiplicity)
    in sympy's order, by degree, then multiplicity, then the primitive
    integer coefficients from the top.

    All coefficients of f must be Fraction/int.  A quadratic splits
    exactly when its discriminant is the square of a rational
    (:func:`_factor_quadratic`).  From degree 3 on, the primitive integer
    form of f with a positive leading coefficient loses its rational roots
    (:func:`_split_rational_roots`), what they leave splits into
    squarefree parts (:func:`_squarefree_parts`), and each part is
    factored over Z (:func:`_zassenhaus`).
    """
    if f.degree < 1:
        return []
    if f.degree == 1:
        return [(f.monic(), 1)]
    if f.degree == 2:
        return _factor_quadratic(*(Fraction(c) for c in f.coeffs))
    ints = _primitive_integers(f.coeffs)[0]
    if ints[-1] < 0:
        ints = [-a for a in ints]
    zeros = next(i for i, a in enumerate(ints) if a)
    found = [([0, 1], zeros)] if zeros else []
    rest = _split_rational_roots(ints[zeros:], found)
    if rest is not None:
        found += [(g, k) for part, k in _squarefree_parts(rest)
                  for g in _zassenhaus(part)]
    found.sort(key=lambda gk: (len(gk[0]), gk[1], gk[0][::-1]))
    return [(UPoly(g).monic(), k) for g, k in found]


def factor_order(p: UPoly):
    """Sort key of sympy's order on irreducible factors over Q of one
    multiplicity: the degree, then the primitive integer coefficients
    from the top."""
    return p.degree, _primitive_integers(p.coeffs)[0][::-1]


# the largest |a_0 a_n| whose divisors are enumerated for rational roots
_ROOT_SEARCH_BOUND = 10 ** 7


def _split_rational_roots(g, found):
    """Divide the rational roots out of g, primitive integers (lowest
    degree first) with g(0) != 0 and a positive leading coefficient.
    Each root p/q in lowest terms goes to found as (q x - p as integers,
    multiplicity), and so does the rest once it is linear, or of degree 2
    or 3 with no rational root left, which makes it irreducible; then the
    result is None.  Otherwise it is the rest.

    A root has p | g(0) and q | lc(g).  The search stops once at most a
    linear factor is left, and does not run when |g(0) lc(g)| exceeds
    _ROOT_SEARCH_BOUND.  It costs less than Hensel lifting linear
    factors, and most polynomials of the analysis split into them.
    """
    if abs(g[0] * g[-1]) > _ROOT_SEARCH_BOUND:
        return g
    candidates = ((sign * p, q) for q in _divisors(g[-1])
                  for p in _divisors(abs(g[0])) if gcd(p, q) == 1
                  for sign in (1, -1))
    for p, q in candidates:
        if len(g) <= 2:
            break
        k = 0
        while _is_root(g, p, q):
            g = _int_exact_quotient(g, [-p, q])
            k += 1
        if k:
            found.append(([-p, q], k))
    if len(g) > 4:
        return g
    if len(g) > 1:
        found.append((g, 1))
    return None


def _divisors(n: int):
    """The positive divisors of n > 0, by trial division."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _is_root(g, p: int, q: int) -> bool:
    """Whether p/q is a root of the integer polynomial g (lowest degree
    first): q^n g(p/q) = sum a_i p^i q^(n-i), by Horner's rule."""
    acc, scale = g[-1], 1
    for a in reversed(g[:-1]):
        scale *= q
        acc = acc * p + a * scale
    return acc == 0


def _squarefree_parts(f):
    """Yun's squarefree decomposition of an integer polynomial f (lowest
    degree first) with a positive leading coefficient: (a_i, i) for each
    nonconstant a_i in f = c a_1 a_2^2 a_3^3 ..., a_i as its primitive
    integers with a positive leading one.  An f coprime to f' modulo a
    prime is its own one part."""
    df = [i * a for i, a in enumerate(f)][1:]
    if _coprime_modulo_prime(f, df):
        return [(f, 1)]
    a = poly_gcd(UPoly(f), UPoly(df))
    b, c = UPoly(f) // a, UPoly(df) // a
    out, i = [], 1
    while b.degree > 0:
        d = c - b.derivative()
        a = poly_gcd(b, d)
        if a.degree > 0:
            out.append((_primitive_integers(a.coeffs)[0], i))
        b, c = b // a, d // a
        i += 1
    return out


def _zassenhaus(f):
    """The irreducible factors over Z of a squarefree primitive integer
    polynomial f (lowest degree first) of degree n, with f(0) != 0 and a
    positive leading coefficient b (Zassenhaus, J. Number Theory 1,
    1969): f is factored modulo a prime p (:func:`_modular_factors`),
    the factors are lifted modulo p^k > 2 b 2^n |f|_2, twice b times
    Mignotte's bound on the coefficients of a factor of f
    (:func:`_hensel_lift`), and recombined by trial division
    (:func:`_recombine`)."""
    if len(f) == 2:
        return [f]
    p, parts, degrees = _modular_factors(f)
    if degrees == 1 | 1 << len(f) - 1:
        return [f]
    factors = [u for h, d in parts for u in _equal_degree(h, d, p, p)]
    bound = 4 * f[-1] ** 2 * 4 ** (len(f) - 1) * sum(a * a for a in f)
    pk = p
    while pk * pk <= bound:
        pk *= p
    return _recombine(f, _hensel_lift(f, factors, p, pk), pk, degrees)


# _modular_factors compares the first _PRIMES_TRIED admissible primes, and
# more, up to _PRIMES_MAX, while each gives more than _FEW_FACTORS factors:
# recombining r lifts may test up to 2^(r-1) subsets, which costs far more
# than further distinct-degree factorizations
_PRIMES_TRIED, _PRIMES_MAX, _FEW_FACTORS = 3, 20, 20


def _modular_factors(f):
    """(p, the distinct-degree factorization of f modulo p, degrees) for
    the prime p with the fewest factors among the odd primes tried, in
    increasing order, that divide neither the leading coefficient nor the
    discriminant of f (:func:`_distinct_degree`).  degrees has bit d set
    when d is a sum of the degrees of some modular factors modulo each
    prime tried, as the degree of a factor of f over Z must be; once only
    0 and deg f are left, f is irreducible and the search ends."""
    best, tried, degrees = None, 0, -1
    for p in _odd_primes():
        if not f[-1] % p:
            continue
        g = _mod_monic(f, p)
        if len(_mod_gcd(g, _mod_derivative(g, p), p)) > 1:
            continue
        parts = _distinct_degree(g, p)
        sums, n = 1, 0
        for h, d in parts:
            for _ in range((len(h) - 1) // d):
                sums |= sums << d
                n += 1
        degrees &= sums
        if best is None or n < best[0]:
            best = n, p, parts
        tried += 1
        if degrees == 1 | 1 << len(f) - 1 or tried == _PRIMES_MAX or \
                tried >= _PRIMES_TRIED and best[0] <= _FEW_FACTORS:
            break
    return best[1], best[2], degrees


def _odd_primes():
    for p in count(3, 2):
        if all(p % q for q in range(3, isqrt(p) + 1, 2)):
            yield p


def _distinct_degree(g, p):
    """[(h, d)]: h the product of the irreducible factors of degree d of
    g, monic and squarefree modulo p, for each d that has one; the x^(p^d)
    mod g are computed one from the other."""
    out, h, d = [], [0, 1], 0
    while 2 * (d + 1) < len(g):
        d += 1
        h = _mod_powmod(h, p, g, p)
        u = _mod_gcd(g, _mod_sub(h, [0, 1], p), p)
        if len(u) > 1:
            out.append((u, d))
            g = _mod_divmod(g, u, p)[0]
            h = _mod_divmod(h, g, p)[1]
    if len(g) > 1:
        out.append((g, len(g) - 1))
    return out


def _equal_degree(h, d, p, m):
    """The monic irreducible factors of h, all of degree d, modulo the odd
    prime p (Cantor and Zassenhaus): h splits at gcd(h, t^((p^d-1)/2) - 1)
    for the first test polynomial t that gives a proper factor, t running
    through the polynomials whose coefficients are the base-p digits of
    m, m + 1, ... (m = p is x)."""
    if len(h) - 1 == d:
        return [h]
    e = (p ** d - 1) // 2
    while True:
        t, k = [], m
        while k:
            k, c = divmod(k, p)
            t.append(c)
        m += 1
        u = _mod_gcd(h, _mod_sub(_mod_powmod(t, e, h, p), [1], p), p)
        if 1 < len(u) < len(h):
            return (_equal_degree(u, d, p, m)
                    + _equal_degree(_mod_divmod(h, u, p)[0], d, p, m))


def _hensel_lift(f, factors, p, pk):
    """Monic lifts modulo pk, a power of p, of the pairwise coprime monic
    factors of f modulo p, f = lc(f) prod factors mod p.  The factors are
    split in halves g = lc(f) prod of the first and h = prod of the rest;
    g, h and s, t with s g + t h = 1 are lifted by quadratic Hensel steps
    (von zur Gathen and Gerhard, Modern Computer Algebra, Algorithm 15.10),
    the modulus squared each step and capped at pk, and each half is
    lifted on from its lifted product."""
    if len(factors) == 1:
        return [_mod_monic(f, pk)]
    half = len(factors) // 2
    g, h = [f[-1] % p], [1]
    for u in factors[:half]:
        g = _mod_mul(g, u, p)
    for u in factors[half:]:
        h = _mod_mul(h, u, p)
    s, t = _mod_xgcd(g, h, p)
    m = p
    while m < pk:
        m = min(m * m, pk)
        e = _mod_sub(f, _mod_mul(g, h, m), m)
        q, r = _mod_divmod(_mod_mul(s, e, m), h, m)
        g = _mod_add(g, _mod_add(_mod_mul(t, e, m), _mod_mul(q, g, m), m), m)
        h = _mod_add(h, r, m)
        if m < pk:
            b = _mod_sub(_mod_add(_mod_mul(s, g, m), _mod_mul(t, h, m), m),
                         [1], m)
            c, d = _mod_divmod(_mod_mul(s, b, m), h, m)
            s = _mod_sub(s, d, m)
            t = _mod_sub(t, _mod_add(_mod_mul(t, b, m), _mod_mul(c, g, m),
                                     m), m)
    return (_hensel_lift(g, factors[:half], p, pk)
            + _hensel_lift(h, factors[half:], p, pk))


def _recombine(f, lifted, pk, degrees):
    """The irreducible factors of f over Z from the monic lifts of its
    modular factors modulo pk.  For subsets of s = 1, 2, ... lifts, the
    primitive part of lc(f) times their product, in symmetric residues,
    is a factor exactly when it divides f; a factor found is divided out
    and its subset dropped.  What is left once 2 s exceeds the number of
    lifts left is irreducible.

    A subset is tested only when its degree has its bit set in degrees
    (see :func:`_modular_factors`), and then first on constant terms
    alone: for a factor h the product's constant term is
    (lc(f) / lc(h)) h(0), which divides lc(f) f(0).
    """
    out, s = [], 1
    while 2 * s <= len(lifted):
        b = f[-1]
        for subset in combinations(range(len(lifted)), s):
            if not degrees >> sum(len(lifted[i]) - 1 for i in subset) & 1:
                continue
            c = b
            for i in subset:
                c = c * lifted[i][0] % pk
            if 2 * c > pk:
                c -= pk
            if not c or b * f[0] % c:
                continue
            g = [b]
            for i in subset:
                g = _mod_mul(g, lifted[i], pk)
            g = [c - pk if 2 * c > pk else c for c in g]
            g = [c // gcd(*g) for c in g]
            q = _int_quotient(f, g)
            if q is not None:
                out.append(g)
                f = q
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            s += 1
    return out + [f]


# -- polynomials modulo m (integer lists, lowest degree first, entries in
# [0, m), no trailing zero); a divisor's leading coefficient is a unit


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _mod_monic(a, m):
    inv = pow(a[-1], -1, m)
    return [x * inv % m for x in a]


def _mod_derivative(a, m):
    return _trim([i * x % m for i, x in enumerate(a)][1:])


def _mod_add(a, b, m):
    return _trim([(x + y) % m for x, y in zip_longest(a, b, fillvalue=0)])


def _mod_sub(a, b, m):
    return _trim([(x - y) % m for x, y in zip_longest(a, b, fillvalue=0)])


def _mod_mul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return _trim([x % m for x in out])


def _mod_divmod(a, b, m):
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, m)
    quot = [0] * max(0, len(a) - db)
    for k in range(len(a) - 1 - db, -1, -1):
        q = quot[k] = a[k + db] * inv % m
        if q:
            for j, y in enumerate(b[:db], k):
                a[j] -= q * y
    return _trim(quot), _trim([x % m for x in a[:db]])


def _mod_gcd(a, b, p):
    """Monic gcd modulo a prime; a is nonzero."""
    while b:
        a, b = b, _mod_divmod(a, b, p)[1]
    return _mod_monic(a, p)


def _mod_xgcd(a, b, p):
    """(s, t) with s a + t b = 1 modulo a prime, for coprime a and b;
    deg s < deg b and deg t < deg a."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _mod_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _mod_sub(s0, _mod_mul(q, s1, p), p)
        t0, t1 = t1, _mod_sub(t0, _mod_mul(q, t1, p), p)
    inv = pow(r0[0], -1, p)
    return [x * inv % p for x in s0], [x * inv % p for x in t0]


def _mod_powmod(a, e, g, m):
    """a^e mod g, modulo m, for e >= 1."""
    out = [1]
    while True:
        if e & 1:
            out = _mod_divmod(_mod_mul(out, a, m), g, m)[1]
        e >>= 1
        if not e:
            return out
        a = _mod_divmod(_mod_mul(a, a, m), g, m)[1]


def _factor_quadratic(c, b, a):
    """factor_rational of a x^2 + b x + c.  Two rational roots come
    ordered as sympy orders their primitive integer factors den x - num:
    by (den, -num)."""
    s = _rational_sqrt(b * b - 4 * a * c)
    if s is None:
        return [(UPoly([c / a, b / a, Fraction(1)]), 1)]
    if not s:
        return [(UPoly([b / (2 * a), Fraction(1)]), 2)]
    roots = sorted(((-b + s) / (2 * a), (-b - s) / (2 * a)),
                   key=lambda r: (r.denominator, -r.numerator))
    return [(UPoly([-r, Fraction(1)]), 1) for r in roots]


def _rational_sqrt(d: Fraction):
    """The rational square root of d >= 0, or None when there is none."""
    if d < 0:
        return None
    num, den = isqrt(d.numerator), isqrt(d.denominator)
    if num * num != d.numerator or den * den != d.denominator:
        return None
    return Fraction(num, den)
