"""Sparse truncated Puiseux/Laurent series with exact rational exponents.

A series is a finite map {exponent: coefficient} plus a precision bound:
coefficients at exponents < prec are exactly known, everything at or above
prec is unknown. prec = None means the series is exact (a Laurent
polynomial in some z^(1/r)). Coefficients live in Q or a field tower.

Any query that would need a coefficient beyond prec raises
InsufficientTruncation rather than returning a guess.

Series form a ring: ``+``, ``-``, ``*``, powers and :meth:`Series.inverse`,
and no division.  A series is falsy only when it is provably zero (exact
and empty); one that vanishes only up to its precision is truthy, so a
polynomial that strips falsy coefficients keeps its bound.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, lcm

from .errors import InsufficientTruncation, SpecrigError

INF = 10 ** 12  # sentinel used only in internal min/max bookkeeping


def qdiv(a, b):
    """a / b in the rational layer, where a rational that is an integer is
    an int: for two ints the exact quotient a // b when b divides a, else
    Fraction(a, b); a series is multiplied by 1 / b; any other operand (a
    Fraction, a tower element) divides by its own rule."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    if type(a) is Series:
        return a * qdiv(1, b)
    return a / b


def qnorm(x):
    """The rational x (an int or a Fraction) in the normal form of the
    rational layer: an int when it is an integer, else a Fraction."""
    if type(x) is int:
        return x
    return x.numerator if x.denominator == 1 else x


class Series:
    """Sparse series sum_e c_e z^e with precision; every exponent and the
    precision are in :func:`qnorm` form, so a series on the lattice Z
    runs on ints alone."""

    __slots__ = ("terms", "prec")

    def __init__(self, terms=None, prec=None):
        clean = {}
        p = None if prec is None else qnorm(prec)
        for e, c in (terms or {}).items():
            e = qnorm(e)
            if not c:
                continue
            if p is not None and e >= p:
                continue
            clean[e] = c
        self.terms = clean
        self.prec = p

    @staticmethod
    def _of(terms, prec):
        """A series from a term map that is already clean: exponents in
        :func:`qnorm` form below prec, and nonzero coefficients."""
        s = object.__new__(Series)
        s.terms = terms
        s.prec = prec
        return s

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(prec=None):
        return Series({}, prec)

    @staticmethod
    def monomial(coeff, exp, prec=None):
        return Series({exp: coeff}, prec)

    @staticmethod
    def const(c, prec=None):
        return Series({0: c}, prec)

    # -- predicates -----------------------------------------------------

    def known_zero_to_prec(self):
        return not self.terms

    def low(self):
        """Lower bound for the valuation (min of support and prec)."""
        vals = list(self.terms)
        if self.prec is not None:
            vals.append(self.prec)
        return min(vals) if vals else INF

    def valuation(self):
        """Exact order of the series; +INF sentinel for exact zero."""
        if self.terms:
            return min(self.terms)
        if self.prec is None:
            return INF
        raise InsufficientTruncation(
            f"series vanishes to its precision {self.prec}; valuation unknown")

    def coeff(self, e):
        if self.prec is not None and e >= self.prec:
            raise InsufficientTruncation(
                f"coefficient at {e} beyond precision {self.prec}")
        return self.terms.get(e, 0)

    def leading(self):
        v = self.valuation()
        if v == INF:
            raise SpecrigError("leading coefficient of zero series")
        return self.terms[v]

    # -- arithmetic -------------------------------------------------------

    def _minprec(self, other):
        if self.prec is None:
            return other.prec
        if other.prec is None:
            return self.prec
        return min(self.prec, other.prec)

    def __add__(self, other):
        return self._combine(other, False)

    __radd__ = __add__

    def __neg__(self):
        return Series._of({e: -c for e, c in self.terms.items()}, self.prec)

    def __sub__(self, other):
        return self._combine(other, True)

    def __rsub__(self, other):
        return Series.const(other) - self

    def _combine(self, other, negate):
        """self + other, or self - other when negate."""
        if not isinstance(other, Series):
            other = Series.const(other)
        prec = self._minprec(other)
        # only the operand of the larger precision has terms to drop
        if prec is None or self.prec == prec:
            terms = dict(self.terms)
        else:
            terms = {e: c for e, c in self.terms.items() if e < prec}
        cut = prec is not None and other.prec != prec
        for e, c in other.terms.items():
            if cut and e >= prec:
                continue
            if negate:
                c = -c
            if e in terms:
                c = terms[e] + c
                if not c:
                    del terms[e]
                    continue
            terms[e] = c
        return Series._of(terms, prec)

    def __mul__(self, other):
        if not isinstance(other, Series):
            if other:
                return Series._of({e: c * other
                                   for e, c in self.terms.items()},
                                  self.prec)
            other = Series.const(other)
        precs = []
        if self.prec is not None:
            precs.append(self.prec + other.low())
        if other.prec is not None:
            precs.append(other.prec + self.low())
        prec = qnorm(min(precs)) if precs else None
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                if prec is not None and e >= prec:
                    continue
                terms[e] = terms.get(e, 0) + c1 * c2
        return Series._of({qnorm(e): c for e, c in terms.items() if c},
                          prec)

    __rmul__ = __mul__

    def shift(self, e):
        """Multiply by z^e."""
        return Series._of({qnorm(k + e): c for k, c in self.terms.items()},
                          None if self.prec is None
                          else qnorm(self.prec + e))

    def scale_exponents(self, factor):
        """Substitute z -> z^factor (factor a positive rational)."""
        if factor <= 0:
            raise SpecrigError("exponent scale must be positive")
        return Series({k * factor: c for k, c in self.terms.items()},
                      None if self.prec is None else self.prec * factor)

    def truncate(self, prec):
        if self.prec is not None and self.prec < prec:
            raise InsufficientTruncation(
                f"cannot extend precision {self.prec} to {prec}")
        return Series(self.terms, prec)

    def inverse(self, order=None):
        """Multiplicative inverse. For a non-exact or non-monomial series
        the result is truncated; order caps the number of correction terms.

        Writing self = c0 z^v (1 + u), the coefficients b_m of 1 / (1 + u)
        on the lattice (1/den)Z of u's exponents follow b_0 = 1 and
        b_m = -sum over u's terms u_i z^(i/den) of u_i b_(m-i), for every
        lattice point below the bound: self.prec - v, or order for an
        exact series.  The inverse is certified below bound - v.
        """
        v = self.valuation()
        if v == INF:
            raise ZeroDivisionError("inverse of zero series")
        c0 = self.terms[v]
        if len(self.terms) == 1 and self.prec is None:
            return Series.monomial(qdiv(1, c0), -v)
        if self.prec is not None:
            bound = qnorm(self.prec - v)
        elif order is not None:
            bound = qnorm(order)
        else:
            raise SpecrigError(
                "inverse of an exact multi-term series needs an order")
        u = [(e - v, qdiv(c, c0)) for e, c in self.terms.items() if e != v]
        den = lcm(*(e.denominator for e, _ in u))
        u = sorted(((e.numerator * (den // e.denominator), c) for e, c in u),
                   key=lambda t: t[0])
        b = [0] * max(0, ceil(bound * den))
        if b:
            b[0] = 1
        for m in range(1, len(b)):
            acc = 0
            for i, c in u:
                if i > m:
                    break
                x = b[m - i]
                if x:
                    acc = acc - c * x
            b[m] = acc
        inv = qdiv(1, c0)
        terms = {qnorm(qdiv(m, den) - v): x * inv
                 for m, x in enumerate(b) if x}
        return Series._of(terms, qnorm(bound - v))

    def __bool__(self):
        # not provably zero: a series that vanishes only up to its
        # precision is truthy, since its unknown tail may carry the value
        return bool(self.terms) or self.prec is not None

    def __eq__(self, other):
        if not isinstance(other, Series):
            other = Series.const(other)
        return self.terms == other.terms and self.prec == other.prec

    def integer_part(self):
        """Terms with integer exponents only (same precision)."""
        return Series({e: c for e, c in self.terms.items()
                       if e.denominator == 1}, self.prec)

    def nonpositive_part(self):
        """Exact Laurent polynomial of terms with exponent <= 0."""
        if self.prec is not None and self.prec <= 0:
            raise InsufficientTruncation(
                "principal part not certified: precision <= 0")
        return Series({e: c for e, c in self.terms.items() if e <= 0})

    def __repr__(self):
        body = " + ".join(f"({c!r})*z^{e}"
                          for e, c in sorted(self.terms.items()))
        tail = "" if self.prec is None else f" + O(z^{self.prec})"
        return (body or "0") + tail
