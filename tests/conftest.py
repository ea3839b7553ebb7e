"""Shared fixtures: the example corpus, small construction helpers, and
the test-only references (conjugation, printing, report parsing) that
the package itself never calls."""

import json
import random
from fractions import Fraction
from itertools import chain, product
from math import ceil
from pathlib import Path

import pytest

from specrig import germs, qpoly
from specrig.errors import (InputError, InsufficientTruncation,
                            InternalInconsistency, SpecrigError)
from specrig.localmod import build_local
from specrig.matrf import (CharpolyDiscriminant, MatRF, charpoly,
                           default_truncation, pole_order)
from specrig.parsing import parse_expression, parse_problem
from specrig.qpoly import UPoly, resultant_det, row_reduce
from specrig.ratfn import INFINITY, RatFn
from specrig.rigidity import _bipoly_to_sympy
from specrig.series import INF, Series, qdiv
from specrig.splitting import (_charpoly_squarefree, cmat_charpoly,
                               cmat_identity, cmat_mul, smat_coeff,
                               smat_mul, smat_prec, smat_val)
from specrig.tower import TowerElem


AIRY = """\
poles inf
matrix
0, 1
z, 0
end
"""

FUCHSIAN = """\
poles 0, inf
matrix
(1/2)/z, 0
0, (1/3)/z
end
"""

RANK1_IRREGULAR = """\
poles 0
matrix
1/z^2
end
"""

RANK1_REGULAR = """\
poles 0, inf
matrix
5/z
end
"""

BESSEL = """\
poles 0, inf
matrix
0, 1
1/z, 0
end
"""


def gen_airy(k: int) -> str:
    return f"poles inf\nmatrix\n0, 1\nz^{k}, 0\nend\n"


def problem_text(poles, rows) -> str:
    return "poles " + ", ".join(poles) + "\nmatrix\n" + "\n".join(
        ", ".join(row) for row in rows) + "\nend\n"


def airy(n: int) -> str:
    rows = [["0"] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = "1"
    rows[n - 1][0] = "z"
    return problem_text(["inf"], rows)


def diag_irreg(n: int) -> str:
    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = f"{i + 1}/z^2" + (f" + {i}/z" if i else "")
    return problem_text(["0", "inf"], rows)


def dense_fuchs(n: int) -> str:
    return problem_text(["0", "1", "inf"],
                        [[f"{i + 2 * j + 1}/z + {(i * j) % 3 + 1}/(z - 1)"
                          for j in range(n)] for i in range(n)])


def fuchs(n: int, seed: int) -> str:
    """A generic dense Fuchsian system with poles 0, 1, inf: each entry
    a/z + b/(z - 1), a drawn before b from randint(-3, 3)."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            a = rng.randint(-3, 3)
            row.append(f"{a}/z + {rng.randint(-3, 3)}/(z-1)")
        rows.append(row)
    return problem_text(["0", "1", "inf"], rows)


def irreg(n: int, seed: int) -> str:
    """A generic dense irregular system with poles 0, inf: each entry
    a/z^2 + b/z + c, with a and b drawn from randint(-3, 3) and then c
    from randint(-2, 2)."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            a = rng.randint(-3, 3)
            b = rng.randint(-3, 3)
            row.append(f"{a}/z^2 + {b}/z + {rng.randint(-2, 2)}")
        rows.append(row)
    return problem_text(["0", "inf"], rows)


EXAMPLES = Path(__file__).resolve().parent.parent / "examples_input"
EXAMPLE_TEXTS = {f"example_{p.stem}": p.read_text()
                 for p in sorted(EXAMPLES.glob("*.txt"))}


# y^2 = 2 z^2: the lines y = +-sqrt(2) z, irreducible over Q(z) but not
# over Q(sqrt 2)(z); its irreducibility is undecided
SQRT2_LINES = "poles inf\nmatrix\n0, 1\n2*z^2, 0\nend\n"

# the generator families at the sizes the property tests run, and the
# examples
GENERATED = dict(
    [(f"airy_{n}", airy(n)) for n in (2, 3, 4)]
    + [(f"gen_airy_{k}", gen_airy(k)) for k in range(1, 9)]
    + [(f"diag_irreg_{n}", diag_irreg(n)) for n in (2, 3, 4)]
    + [(f"dense_fuchs_{n}", dense_fuchs(n)) for n in (2, 3)]
    + sorted(EXAMPLE_TEXTS.items()))


CORPUS = {
    "airy": AIRY,
    "gen_airy_3": gen_airy(3),
    "gen_airy_5": gen_airy(5),
    "fuchsian": FUCHSIAN,
    "rank1_irregular": RANK1_IRREGULAR,
    "rank1_regular": RANK1_REGULAR,
}


@pytest.fixture
def corpus():
    return dict(CORPUS)


def mat(rows):
    """MatRF from a list of lists of expression strings."""
    return MatRF([[parse_expression(cell) for cell in row] for row in rows])


def problem(text):
    return parse_problem(text)


def local_at(a_mat, pole):
    """build_local at the default truncation, with the charpoly and its
    discriminant that run_analysis passes."""
    cp = charpoly(a_mat)
    nterms = default_truncation(a_mat.n, pole_order(a_mat, pole))
    return build_local(a_mat, pole, nterms, cp, CharpolyDiscriminant(cp))


@pytest.fixture
def airy_matrix():
    return mat([["0", "1"], ["z", "0"]])


@pytest.fixture
def fuchsian_matrix():
    return mat([["(1/2)/z", "0"], ["0", "(1/3)/z"]])


INF_POINT = INFINITY
ZERO = Fraction(0)


# -- test-only references ----------------------------------------------------

def conjugate_by(a: MatRF, p_rows) -> MatRF:
    """P A P^{-1} for a constant invertible rational matrix P
    (list of lists of Fractions)."""
    n = a.n
    p = [[RatFn.const(c) for c in row] for row in p_rows]
    pinv = _invert_constant(p_rows)
    pa = _matmul(p, a.entries, n)
    return MatRF(_matmul(pa, pinv, n))


def unimodular(n, seed):
    """A seeded constant integer matrix of determinant +-1: a
    permutation followed by two row additions with multiplier +-1."""
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    p = [[Fraction(int(perm[i] == j)) for j in range(n)] for i in range(n)]
    if n > 1:
        for _ in range(2):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-1, 1))
            p[i] = [x + c * y for x, y in zip(p[i], p[j])]
    return p


def _matmul(a, b, n):
    return [[sum((a[i][k] * b[k][j] for k in range(n)), RatFn.const(0))
             for j in range(n)] for i in range(n)]


def _invert_constant(rows):
    n = len(rows)
    aug = [[Fraction(x) for x in row]
           + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i, row in enumerate(rows)]
    red, pivots = row_reduce(aug)
    if pivots[:n] != list(range(n)):
        raise InputError("conjugating matrix is singular")
    return [[RatFn.const(x) for x in row[n:]] for row in red]


def poly_to_string(p: UPoly, variable: str = "z") -> str:
    if p.is_zero():
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coeffs[i] if i < len(p.coeffs) else 0
        if not c:
            continue
        c = Fraction(c)
        mag = abs(c)
        if i == 0:
            body = _frac_str(mag)
        else:
            v = variable if i == 1 else f"{variable}^{i}"
            body = v if mag == 1 else f"{_frac_str(mag)}*{v}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def _frac_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else \
        f"{c.numerator}/{c.denominator}"


def ratfn_to_string(f: RatFn, variable: str = "z") -> str:
    num = poly_to_string(f.num, variable)
    if f.den.degree == 0:
        return num
    return f"({num})/({poly_to_string(f.den, variable)})"


def parse_report(text: str) -> dict:
    return json.loads(text)


def smat_sub(a, b):
    """Entrywise difference of two series matrices."""
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def sympy_irreducibility_status(disc: CharpolyDiscriminant, locals_) -> str:
    """Reference for :func:`specrig.rigidity.irreducibility_status`
    without the exact-root certificate: the totally ramified place, then
    sympy's factorization of the cleared charpoly over Q(z)."""
    for L in locals_:
        if len(L.cells) == 1 and L.cells[0].r == L.n:
            return "irreducible"
    _, factors = _bipoly_to_sympy(disc.cleared).factor_list()
    if sum(k for p, k in factors if p.degree(0) >= 1) > 1:
        return "reducible"
    return "unknown"


def to_sympy(f: UPoly):
    """f as a sympy polynomial in x over QQ."""
    import sympy
    return sympy.Poly(list(reversed([sympy.Rational(c) for c in f.coeffs])),
                      sympy.Symbol("x"), domain="QQ")


def from_sympy(p) -> UPoly:
    return UPoly([qdiv(c.p, c.q) for c in reversed(p.all_coeffs())])


def sympy_factor_rational(f: UPoly):
    """Reference for :func:`specrig.qpoly.factor_rational`: sympy's
    ``factor_list``, in its order, each factor made monic with the
    package's coefficient types (an int where a rational is one)."""
    _, factors = to_sympy(f).factor_list()
    return [(from_sympy(p).monic(), int(k)) for p, k in factors]


def no_sympy(_):
    """Stand-in for ``rigidity._bipoly_to_sympy`` in tests that prove a
    verdict is reached without sympy."""
    raise AssertionError("reached sympy's bivariate factorization")


def refactoring_split(tower, f: UPoly):
    """Reference for :meth:`specrig.tower.FieldTower.split_completely`:
    after adjoining a root of a factor, factor that whole factor again
    over the new level, and adjoin every nonlinear factor found in one
    pass."""
    roots = []
    pending = [(f, 1)]
    while pending:
        poly, mult = pending.pop()
        poly = tower.lift_poly(poly, tower.height)
        for p, k in tower.factor(poly):
            if p.degree == 1:
                roots.append((qdiv(-p.coeffs[0], p.coeffs[1]), mult * k))
            else:
                tower.adjoin(p)
                pending.append((p, mult * k))
    return roots


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
    inv = qdiv(1, r0.lc())
    return r0 * inv, s0 * inv, t0 * inv


class UPolyTowerElem:
    """Reference for the arithmetic of :class:`specrig.tower.TowerElem`:
    every operand is lifted to the higher level, a product is a UPoly
    product reduced by UPoly division over Fraction, and an inverse runs
    :func:`poly_xgcd` against the minimal polynomial.  Coordinates are
    Fractions at level 1 and reference elements above; ``ref_elem``
    converts a kernel element."""

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
        a, b = _ref_pair(self, other)
        if a is NotImplemented:
            return NotImplemented
        if isinstance(a, UPolyTowerElem):
            return a.coeffs == b.coeffs
        return a == b

    def __hash__(self):
        if not self.coeffs:
            return hash(Fraction(0))
        if len(self.coeffs) == 1:
            return hash(self.coeffs[0])
        return hash((self.level, self.coeffs))

    def __add__(self, other):
        a, b = _ref_pair(self, other)
        if a is NotImplemented:
            return NotImplemented
        if not isinstance(a, UPolyTowerElem):
            return a + b
        pa, pb = UPoly(a.coeffs), UPoly(b.coeffs)
        return UPolyTowerElem(a.tower, a.level, (pa + pb).coeffs)

    __radd__ = __add__

    def __neg__(self):
        return UPolyTowerElem(self.tower, self.level,
                              [-c for c in self.coeffs])

    def __sub__(self, other):
        neg = -other if isinstance(other, UPolyTowerElem) \
            else -Fraction(other)
        return self + neg

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = _ref_pair(self, other)
        if a is NotImplemented:
            return NotImplemented
        if not isinstance(a, UPolyTowerElem):
            return a * b
        prod = UPoly(a.coeffs) * UPoly(b.coeffs)
        m = ref_minpoly(a.tower, a.level)
        return UPolyTowerElem(a.tower, a.level, (prod % m).coeffs)

    __rmul__ = __mul__

    def inverse(self):
        if not self.coeffs:
            raise ZeroDivisionError("inverse of zero tower element")
        m = ref_minpoly(self.tower, self.level)
        d, u, _ = poly_xgcd(UPoly(self.coeffs), m)
        assert d.degree == 0
        return UPolyTowerElem(self.tower, self.level, u.coeffs)

    def __truediv__(self, other):
        a, b = _ref_pair(self, other)
        if a is NotImplemented:
            return NotImplemented
        if not isinstance(a, UPolyTowerElem):
            return qdiv(a, b)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return ref_lift(self.tower, other, self.level) * self.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = ref_lift(self.tower, 1, self.level)
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


def ref_lift(tower, x, level):
    """x (a rational or a reference element) embedded into a level."""
    if isinstance(x, UPolyTowerElem):
        cur = x.level
    else:
        x, cur = Fraction(x), 0
    while cur < level:
        cur += 1
        x = UPolyTowerElem(tower, cur, (x,))
    return x


def ref_elem(x):
    """A kernel tower element (or a rational) as a reference element with
    Fraction coordinates at level 1."""
    if not isinstance(x, TowerElem):
        return Fraction(x)
    return UPolyTowerElem(x.tower, x.level, [ref_elem(c) for c in x.coeffs])


def ref_minpoly(tower, level) -> UPoly:
    return UPoly([ref_lift(tower, ref_elem(c), level - 1)
                  for c in tower.minpoly(level).coeffs])


def _ref_pair(a, b):
    """Both operands lifted to their common level."""
    la = a.level if isinstance(a, UPolyTowerElem) else 0
    if isinstance(b, UPolyTowerElem):
        lb, tower = b.level, b.tower
    elif isinstance(b, (int, Fraction)):
        lb, tower = 0, a.tower if isinstance(a, UPolyTowerElem) else None
    else:
        return NotImplemented, NotImplemented
    tower = a.tower if isinstance(a, UPolyTowerElem) else tower
    level = max(la, lb)
    if level == 0:
        return Fraction(a), Fraction(b)
    return ref_lift(tower, a, level), ref_lift(tower, b, level)


def residual_full(points, i0):
    """Classical residual Phi(c) of a Newton polygon edge: the sum of the
    leading coefficients of its supporting points (i, lead) times
    c^(i - i0)."""
    coeffs = [0] * (points[-1][0] - i0 + 1)
    for i, lead in points:
        coeffs[i - i0] = lead
    return UPoly(coeffs)


def horner_compose(f: UPoly, g: UPoly) -> UPoly:
    """f(g) by Horner's rule, each coefficient of f added in place to the
    constant term: the reference for ``UPoly.compose``, which adds
    ``UPoly.const(c)`` and so keeps the bound of a c that vanishes only up
    to its precision."""
    acc = UPoly()
    for c in reversed(f.coeffs):
        acc = acc * g
        acc = UPoly((acc.coeffs[0] + c,) + acc.coeffs[1:]
                    if acc.coeffs else (c,))
    return acc


def euclid_gcd(f: UPoly, g: UPoly) -> UPoly:
    """Reference for :func:`specrig.qpoly.poly_gcd` over Q: the monic gcd
    by Euclid's algorithm over the coefficient field (zero for two zero
    polynomials)."""
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def series_form(c):
    """(terms, prec) of a polynomial coefficient over series; a plain
    number stands for the exact constant series."""
    if not isinstance(c, Series):
        c = Series.const(c)
    return c.terms, c.prec


def fraction_series_product(polys):
    """The product of polynomials over series, multiplied as Series: the
    reference germ equation that the factors of
    :func:`specrig.germs.germ_equation` multiply out to."""
    f = UPoly([Series.const(Fraction(1))])
    for p in polys:
        f = f * p
    return f


def integer_form(x):
    """(coefficient list, prec) of a truncated integer series
    (:class:`specrig.qpoly._ZSeries`); a plain integer stands for the
    exact constant series."""
    if isinstance(x, qpoly._ZSeries):
        return x.c, x.prec
    return ([x] if x else []), None


def cleared_form(ref, c):
    """:func:`integer_form` of each coefficient of c ref, for ref a
    polynomial over series over Q with nonnegative integer exponents (or
    a single such series): the form that clearing ref over truncated
    Z[[z]] must give."""
    out = []
    for x in (ref.coeffs if isinstance(ref, UPoly) else [ref]):
        terms, prec = series_form(x)
        dense = [0] * (max(terms).numerator + 1 if terms else 0)
        for e, a in terms.items():
            dense[e.numerator] = a * c
        out.append(integer_form(qpoly._ZSeries(dense, prec)))
    return out if isinstance(ref, UPoly) else out[0]


def clearing_scale(got, ref):
    """The rational c of got = c ref, read off the first term of ref: got
    over truncated Z[[z]], ref the same polynomial (or series) over
    series over Q.  1 when ref has no term."""
    pairs = (zip(got.coeffs, ref.coeffs) if isinstance(ref, UPoly)
             else [(got, ref)])
    for x, y in pairs:
        for e, a in series_form(y)[0].items():
            coeffs = integer_form(x)[0]
            i = e.numerator
            return Fraction(coeffs[i] if i < len(coeffs) else 0) / a
    return 1


def geometric_inverse(s, order=None):
    """Reference for :meth:`specrig.series.Series.inverse`: with
    s = c0 z^v (1 + u), the geometric series 1 - u + u^2 - ... summed
    power by power, each power truncated at the bound."""
    v = s.valuation()
    c0 = s.terms[v]
    if len(s.terms) == 1 and s.prec is None:
        return Series.monomial(qdiv(1, c0), -v)
    u = Series({e - v: qdiv(c, c0) for e, c in s.terms.items() if e != v},
               None if s.prec is None else s.prec - v)
    if u.prec is not None:
        gap, bound = u.low(), u.prec
    else:
        gap, bound = min(u.terms), Fraction(order)
    acc = Series.const(1, bound)
    powu = Series.const(1, bound)
    k = 0
    while u.terms and k * gap < bound:
        k += 1
        powu = (powu * u).truncate(bound)
        acc = acc - powu if k % 2 else acc + powu
    return acc.shift(-v) * Series.const(qdiv(1, c0))


def balance_reference(g):
    """Reference for :func:`specrig.splitting._balance`: the search it
    replaced.  It tries the progressions k = (0, c, 2c, ...) for
    c = +-1 .. +-24, then every k in [-6, 6]^(n - 1), skips k = 0 and any k
    whose leading coefficient is not certified, and returns the first
    shift whose leading matrix has a squarefree charpoly."""
    n = len(g)
    vals = [[(e.valuation() if e.terms else None) for e in row] for row in g]
    progressions = [tuple(c * i for i in range(1, n))
                    for c in range(-24, 25) if c]
    tried = set(progressions)
    brute = (ks for ks in product(range(-6, 7), repeat=n - 1)
             if ks not in tried)
    for ks in chain(progressions, brute):
        k = (0,) + ks
        if all(x == 0 for x in k):
            continue
        r0 = INF
        for i in range(n):
            for j in range(n):
                if vals[i][j] is not None:
                    r0 = min(r0, vals[i][j] + k[i] - k[j])
        if r0 == INF:
            continue
        a0 = [[(g[i][j].coeff(r0 - k[i] + k[j])
                if g[i][j].prec is None or r0 - k[i] + k[j] < g[i][j].prec
                else None)
               for j in range(n)] for i in range(n)]
        if any(x is None for row in a0 for x in row):
            continue
        if _charpoly_squarefree(cmat_charpoly(a0)):
            return [[g[i][j].shift(k[i] - k[j]) for j in range(n)]
                    for i in range(n)]
    return None


def dense_split_once(g):
    """Reference for :func:`specrig.splitting.split_once`: the same
    recurrence with every product of the order-m sum formed, zero blocks
    included."""
    n = len(g)
    r0 = smat_val(g)
    if r0 != int(r0):
        raise SpecrigError("series matrix must have integer exponents")
    r0 = int(r0)
    prec = smat_prec(g)
    if prec == INF:
        raise SpecrigError("split_once needs truncated input")
    order = ceil(prec - r0) - 1
    if order < 0:
        raise InsufficientTruncation("no certified orders beyond leading")
    a = [smat_coeff(g, r0 + m) for m in range(order + 1)]
    lam = [a[0][i][i] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and (a[0][i][j] or lam[i] == lam[j]):
                raise SpecrigError("leading coefficient is not diagonal "
                                   "with distinct entries")
    inv = [[qdiv(1, lam[i] - lam[j]) if i != j else None for j in range(n)]
           for i in range(n)]
    t_coeffs = [cmat_identity(n)]
    b_coeffs = [lam]
    for m in range(1, order + 1):
        s = [row[:] for row in a[m]]
        for k in range(1, m):
            tk_a = cmat_mul(t_coeffs[k], a[m - k])
            tmk, bk = t_coeffs[m - k], b_coeffs[k]
            s = [[s[i][j] + tk_a[i][j] - bk[i] * tmk[i][j]
                  for j in range(n)] for i in range(n)]
        t_coeffs.append([[s[i][j] * inv[i][j] if i != j else Fraction(0)
                          for j in range(n)] for i in range(n)])
        b_coeffs.append([s[i][i] for i in range(n)])
    T = [[Series({m: t_coeffs[m][i][j] for m in range(order + 1)
                  if t_coeffs[m][i][j]}, order + 1)
          for j in range(n)] for i in range(n)]
    eigs = [Series({r0 + m: b_coeffs[m][i] for m in range(order + 1)
                    if b_coeffs[m][i]}, r0 + order + 1) for i in range(n)]
    tg = smat_mul(T, g)
    for i in range(n):
        for j in range(n):
            if (tg[i][j] - eigs[i] * T[i][j]).terms:
                raise InternalInconsistency(
                    "split residual does not vanish to the certified order")
    return T, eigs


# -- the series division and elimination that Z[[z]] replaced ---------------

def series_divide(num, den):
    """Reference quotient of two series (a rational stands for the exact
    constant), exact whenever it can be certified: the division that the
    fraction-free elimination over Series used before it ran over Z[[z]].
    An exact multi-term divisor has no finite inverse: an exact dividend
    is long-divided (raising unless the quotient is a Laurent
    polynomial), a truncated one is multiplied by an inverse carried
    just far enough to keep the dividend's relative precision."""
    num, den = (x if isinstance(x, Series) else Series.const(x)
                for x in (num, den))
    if den.prec is None and len(den.terms) > 1:
        if num.prec is None:
            return _long_divide(num, den)
        return num * den.inverse(order=num.prec - num.low())
    return num * den.inverse()


def _long_divide(num, den):
    """Exact quotient of two exact series, highest exponent first.  A
    true quotient q has min(q) = min(num) - min(den), so a remainder that
    would need a lower exponent proves inexactness."""
    if not num.terms:
        return Series.zero()
    top_d = max(den.terms)
    lead = den.terms[top_d]
    floor = min(num.terms) - min(den.terms)
    rem = dict(num.terms)
    quot = {}
    while rem:
        top = max(rem)
        e = top - top_d
        if e < floor:
            raise SpecrigError(
                "exact series division leaves a nonzero remainder")
        c = qdiv(rem[top], lead)
        quot[e] = c
        for ed, cd in den.terms.items():
            k = ed + e
            v = rem.get(k, 0) - c * cd
            if v:
                rem[k] = v
            else:
                rem.pop(k, None)
    return Series(quot)


def series_det_bareiss(rows):
    """Reference for :func:`specrig.qpoly.det_bareiss` over truncated
    integer series: the same fraction-free elimination on rows of Series
    and rationals, each exact division by :func:`series_divide`.  The
    pivot is an entry of lowest valuation among those with a certified
    term; only provably zero entries are skipped."""
    def order(a):
        if isinstance(a, Series):
            return a.valuation() if a.terms else None
        return 0 if a else None

    m = [list(r) for r in rows]
    size = len(m)
    if size == 0:
        return 1
    negate = False
    prev = None
    for k in range(size - 1):
        live = [i for i in range(k, size) if order(m[i][k]) is not None]
        if not live:
            if not any(m[i][k] for i in range(k, size)):
                return m[k][k] * 0
            raise InsufficientTruncation(
                "pivot column vanishes only to its precision")
        p = min(live, key=lambda i: order(m[i][k]))
        if p != k:
            m[k], m[p] = m[p], m[k]
            negate = not negate
        top = m[k]
        piv = top[k]
        for row in m[k + 1:]:
            lead = row[k]
            for j in range(k + 1, size):
                a = row[j]
                val = a * piv if a else a
                if lead and top[j]:
                    val = val - lead * top[j]
                if prev is not None and val:
                    val = (series_divide(val, prev)
                           if isinstance(val, Series)
                           or isinstance(prev, Series) else qdiv(val, prev))
                row[j] = val
        prev = piv
    det = m[-1][-1]
    return -det if negate else det


def full_product_milnor_oracle(g):
    """Reference for :func:`specrig.germs.germ_milnor_oracle`: the factors
    P_i = c_i F_i of :func:`specrig.germs.germ_equation` multiplied out
    over truncated Z[[z]] into P = c F, and one Sylvester resultant
    Res(P, P') = c^(2d-1) Res(F, F') read as a valuation."""
    if g.r_c == 0:
        return 0
    factors = germs.germ_equation(g)
    p = factors[0]
    for q in factors[1:]:
        p = p * q
    res_val = 0
    if p.degree > 1:
        res_val = resultant_det(p, p.derivative()).valuation()
    return res_val + 1 - sum(c.r for c in g.branches)
