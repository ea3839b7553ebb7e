"""Square matrices of rational functions: the global connection data.

Conventions: the equation is dw = A w with A a matrix of 1-forms A(z) dz,
read at a pole in the local chart of :class:`specrig.ratfn.Chart`.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError, UnsupportedPoleLocation, SpecrigError
from .qpoly import UPoly, det_cofactor, poly_gcd, resultant_det
from .ratfn import INFINITY, Chart, RatFn
from .series import Series


class MatRF:
    """n x n matrix of RatFn entries."""

    __slots__ = ("n", "entries")

    def __init__(self, entries):
        n = len(entries)
        if n < 1 or any(len(row) != n for row in entries):
            raise InputError("matrix must be square of size >= 1")
        self.n = n
        self.entries = [list(row) for row in entries]

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]


def charpoly(m: MatRF) -> UPoly:
    """det(yI - M) as a monic UPoly in y with RatFn coefficients.

    Computed over Q[z], where no gcd runs: with d the monic lcm of the
    entry denominators and N = d M, det(xI - N) = sum c_k x^k has
    polynomial coefficients, and det(yI - M) = d^-n det(d y I - N) gives
    the coefficient of y^k as c_k / d^(n-k), normalized once.  The
    cofactor kernel serves this small determinant: Bareiss elimination
    was slower on it, and its cost follows the sparsity of M.
    """
    n = m.n
    one = UPoly([1])
    d = _denominator_lcm(f for row in m.entries for f in row)
    x = UPoly([UPoly(), one])
    rows = []
    for i, row in enumerate(m.entries):
        cells = []
        for j, f in enumerate(row):
            cell = UPoly([-(f.num * (d // f.den))])
            cells.append(cell + x if i == j else cell)
        rows.append(cells)
    det = det_cofactor(rows)
    powers = [one]
    for _ in range(n):
        powers.append(powers[-1] * d)
    return UPoly([RatFn(det[k] or UPoly(), powers[n - k])
                  for k in range(n + 1)])


def _denominator_lcm(fs):
    """The monic lcm of the denominators of the rational functions fs;
    a constant denominator is 1 and changes nothing."""
    d = UPoly([1])
    for f in fs:
        if f.den.degree >= 1:
            d = d * (f.den // poly_gcd(d, f.den))
    return d


def cleared_charpoly(cp: UPoly):
    """Multiply through by the denominator lcm: returns (F, D) with F a
    polynomial in y whose coefficients are polynomials in z, and D(z) the
    clearing factor (vanishing only at poles)."""
    den = _denominator_lcm(cp.coeffs)
    out = []
    for c in cp.coeffs:
        if not c or (isinstance(c, RatFn) and c.is_zero()):
            out.append(UPoly())
        else:
            out.append(c.num * (den // c.den))
    return UPoly(out), den


class CharpolyDiscriminant:
    """The y-discriminant of a charpoly, computed once, exactly over Q[z].

    res = Res_y(F, F_y) for the cleared F = D cp, eliminated over Z[z] by
    :func:`resultant_det`.  As cp is monic of degree n,
    res = D^(2n-1) Res_y(cp, cp_y), so :meth:`valuation` reads the
    discriminant valuation of every local charpoly off one polynomial
    instead of one Sylvester determinant over series per pole.
    """

    __slots__ = ("n", "cleared", "den", "res")

    def __init__(self, cp: UPoly):
        self.n = cp.degree
        self.cleared, self.den = cleared_charpoly(cp)
        res = resultant_det(self.cleared, self.cleared.derivative())
        self.res = res if isinstance(res, UPoly) else UPoly.const(res)

    def valuation(self, a):
        """ord of Res_y(f, f_y) for the local charpoly f of
        :func:`localize_charpoly` at a: the discriminant has weight
        n(n-1) in the chart."""
        if self.res.is_zero():
            raise SpecrigError("polynomial is not squarefree in y")
        n = self.n
        chart = Chart(a)
        return Fraction(chart.valuation(RatFn(self.res), n * (n - 1))
                        - (2 * n - 1) * chart.valuation(RatFn(self.den)))


def pole_order(m: MatRF, a) -> int:
    """nu = max(0, -min entry valuation) in the local chart at a."""
    chart = Chart(a)
    worst = min((chart.valuation(f, 1) for row in m.entries for f in row
                 if f), default=None)
    if worst is None:
        raise InputError("zero matrix has no local data")
    return max(0, -worst)


def localize(m: MatRF, a, nterms: int):
    """Laurent expansion of the connection matrix in the local coordinate
    at a to nterms orders, as a matrix of Series; an entry that is a
    Laurent polynomial there comes out exact."""
    chart = Chart(a)
    return [[chart.expand(f, nterms, 1) for f in row] for row in m.entries]


def localize_charpoly(cp: UPoly, a, nterms: int):
    """Local expansion of the global characteristic polynomial's
    coefficients at a, the coefficient of y^j with weight n - j in the
    chart; returns a list of Series indexed by the power of y."""
    chart = Chart(a)
    n = cp.degree
    return [chart.expand(c, nterms, n - j) if c else Series.zero()
            for j, c in enumerate(cp.coeffs)]


def validate_poles(m: MatRF, declared):
    """Check the declared pole set against the actual poles of A dz.

    Returns a list of warning strings; raises on undeclared or irrational
    poles. `declared` is a list of Fractions and/or INFINITY.
    """
    from .ratfn import ratfn_pole_points

    declared_set = set(declared)
    warnings = []
    actual = set()
    for row in m.entries:
        for f in row:
            if f.is_zero():
                continue
            pts, irr = ratfn_pole_points(f)
            if irr:
                raise UnsupportedPoleLocation(
                    "matrix entry has a pole at an irrational point "
                    f"(irreducible denominator factor of degree "
                    f"{irr[0][0].degree})")
            for pt, _ in pts:
                actual.add(pt)
    for pt in sorted(actual):
        if pt not in declared_set:
            raise InputError(f"undeclared pole at z = {pt}")
    at_inf = Chart(INFINITY)
    v_inf = min((at_inf.valuation(f, 1) for row in m.entries for f in row
                 if not f.is_zero()), default=None)
    if v_inf is not None and v_inf < 0 and INFINITY not in declared_set:
        raise InputError("undeclared pole at infinity")
    for pt in declared:
        if pt == INFINITY:
            if v_inf is None or v_inf >= 0:
                warnings.append("declared pole at infinity is not a pole")
        elif pt not in actual:
            warnings.append(f"declared pole at z = {pt} is not a pole")
    return warnings


def default_truncation(n: int, nu_max: int) -> int:
    """Base of the truncation ceiling: the orders tried at a pole double
    from the a-priori first order (``pipeline.first_truncation``, never
    above this base) up to 8 times this base, the last order tried."""
    return 2 * (n * nu_max + n * n + 4)
