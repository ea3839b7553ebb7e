"""Problem-file parser and rational-function expression grammar.

Problem files are line based:

    # comment
    variable z
    genus 0
    poles 0, inf
    matrix
    0, 1
    z, 0
    end

Expressions allow integers, the variable, + - * / ^ with integer
exponents k, |k| <= MAX_EXPONENT, and parentheses.  A sum, product,
quotient or power whose numerator or denominator would exceed degree
MAX_EXPONENT, before its gcd is cancelled, is refused before it is
computed.  Every syntax error carries line and column.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError
from .matrf import MatRF
from .ratfn import INFINITY, RatFn

# largest |k| accepted in base^k, and the largest degree an operation may
# give its numerator or denominator
MAX_EXPONENT = 1000


class ProblemSpec:
    __slots__ = ("variable", "n", "entries", "matrix", "poles", "genus")

    def __init__(self, variable, entries, matrix, poles, genus):
        self.variable = variable
        self.entries = entries
        self.matrix = matrix
        self.n = matrix.n
        self.poles = poles
        self.genus = genus


class _Tokens:
    def __init__(self, text, line, col0=0):
        self.text = text
        self.line = line
        self.col0 = col0
        self.pos = 0
        self.toks = []
        self._scan()
        self.idx = 0

    def _err(self, pos, msg):
        raise InputError(f"line {self.line}, column {self.col0 + pos + 1}: "
                         f"{msg}")

    def _scan(self):
        s = self.text
        i = 0
        while i < len(s):
            c = s[i]
            if c.isspace():
                i += 1
            elif "0" <= c <= "9":
                j = i
                while j < len(s) and "0" <= s[j] <= "9":
                    j += 1
                try:
                    value = int(s[i:j])
                except ValueError:  # past the interpreter's digit limit
                    self._err(i, f"integer literal of {j - i} digits is "
                                 "too long")
                self.toks.append(("int", value, i))
                i = j
            elif c.isalpha() or c == "_":
                j = i
                while j < len(s) and (s[j].isalnum() or s[j] == "_"):
                    j += 1
                self.toks.append(("name", s[i:j], i))
                i = j
            elif c in "+-*/^()":
                self.toks.append((c, c, i))
                i += 1
            else:
                self._err(i, f"unexpected character {c!r}")

    def peek(self):
        return self.toks[self.idx] if self.idx < len(self.toks) else \
            ("end", None, len(self.text))

    def next(self):
        t = self.peek()
        self.idx += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            self._err(t[2], f"expected {kind!r}, found {t[1]!r}")
        return t


class _ExprParser:
    """sum := term (('+'|'-') term)*; term := factor (('*'|'/') factor)*;
    factor := ('-')* power; power := atom ('^' exponent)?"""

    def __init__(self, tokens: _Tokens, variable: str):
        self.t = tokens
        self.variable = variable

    def parse(self) -> RatFn:
        v = self._sum()
        tail = self.t.peek()
        if tail[0] != "end":
            self.t._err(tail[2], f"unexpected {tail[1]!r} after expression")
        return v

    def _sum(self):
        v = self._term()
        while self.t.peek()[0] in ("+", "-"):
            op, _, pos = self.t.next()
            rhs = self._term()
            # a/b + c/d is built as (ad + cb) / (bd) before its gcd
            self._check_degree(pos, v.num.degree + rhs.den.degree,
                               rhs.num.degree + v.den.degree,
                               v.den.degree + rhs.den.degree)
            v = v + rhs if op == "+" else v - rhs
        return v

    def _term(self):
        v = self._factor()
        while self.t.peek()[0] in ("*", "/"):
            op, _, pos = self.t.next()
            rhs = self._factor()
            if op == "*":
                self._check_degree(pos, v.num.degree + rhs.num.degree,
                                   v.den.degree + rhs.den.degree)
                v = v * rhs
            else:
                if rhs.is_zero():
                    self.t._err(pos, "division by zero")
                self._check_degree(pos, v.num.degree + rhs.den.degree,
                                   v.den.degree + rhs.num.degree)
                v = v / rhs
        return v

    def _check_degree(self, pos, *degrees):
        if max(degrees) > MAX_EXPONENT:
            self.t._err(pos, "degree exceeds the bound "
                             f"{MAX_EXPONENT}")

    def _factor(self):
        if self.t.peek()[0] == "-":
            self.t.next()
            return -self._factor()
        return self._power()

    def _power(self):
        base = self._atom()
        if self.t.peek()[0] == "^":
            _, _, pos = self.t.next()
            k = self._exponent(pos)
            if abs(k) > MAX_EXPONENT:
                self.t._err(pos, "exponent exceeds the bound "
                                 f"|k| <= {MAX_EXPONENT}")
            if k < 0 and base.is_zero():
                self.t._err(pos, "zero raised to a negative power")
            self._check_degree(pos, abs(k) * base.num.degree,
                               abs(k) * base.den.degree)
            return base ** k
        return base

    def _exponent(self, pos) -> int:
        v = self._factor()
        if v.den.degree != 0 or v.num.degree > 0:
            self.t._err(pos, "non-constant exponent")
        c = Fraction(0) if v.num.is_zero() else v.num.coeffs[0]
        if c.denominator != 1:
            self.t._err(pos, "non-integer exponent")
        return int(c)

    def _atom(self):
        kind, val, pos = self.t.next()
        if kind == "int":
            return RatFn.const(val)
        if kind == "name":
            if val != self.variable:
                self.t._err(pos, f"unknown symbol {val!r} (variable is "
                                 f"{self.variable!r})")
            return RatFn.var()
        if kind == "(":
            v = self._sum()
            self.t.expect(")")
            return v
        self.t._err(pos, f"expected a value, found {val!r}")


def parse_expression(text: str, variable: str = "z", line: int = 1,
                     col0: int = 0) -> RatFn:
    return _ExprParser(_Tokens(text, line, col0), variable).parse()


def parse_pole(tok: str, line: int) -> object:
    if tok == "inf":
        return INFINITY
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"line {line}: invalid pole {tok!r} (use a "
                         "rational number or 'inf')")


def parse_problem(text: str) -> ProblemSpec:
    variable = "z"
    genus = 0
    poles = None
    rows = []
    entry_strings = []
    in_matrix = False
    matrix_done = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if in_matrix:
            if line.strip() == "end":
                in_matrix = False
                matrix_done = True
                continue
            cells = line.split(",")
            col = 0
            row = []
            srow = []
            for cell in cells:
                expr = parse_expression(cell, variable, lineno, col)
                row.append(expr)
                srow.append(cell.strip())
                col += len(cell) + 1
            rows.append(row)
            entry_strings.append(srow)
            continue
        key, _, rest = line.strip().partition(" ")
        rest = rest.strip()
        if key == "variable":
            if not rest.isidentifier():
                raise InputError(f"line {lineno}: invalid variable name "
                                 f"{rest!r}")
            variable = rest
        elif key == "genus":
            try:
                genus = int(rest)
            except ValueError:
                raise InputError(f"line {lineno}: genus must be an integer")
        elif key == "poles":
            toks = [t for chunk in rest.split(",") for t in chunk.split()]
            poles = [parse_pole(t, lineno) for t in toks]
            seen = set()
            for p in poles:
                if p in seen:
                    raise InputError(f"line {lineno}: duplicate pole {p}")
                seen.add(p)
        elif key == "matrix":
            if matrix_done:
                raise InputError(f"line {lineno}: second matrix block")
            in_matrix = True
        else:
            raise InputError(f"line {lineno}: unknown directive {key!r}")
    if in_matrix:
        raise InputError("matrix block not closed with 'end'")
    if not matrix_done:
        raise InputError("missing matrix block")
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise InputError("matrix is not square")
    if poles is None:
        raise InputError("missing poles declaration")
    if not poles:
        raise InputError("pole list is empty")
    if genus != 0:
        raise InputError("only genus 0 is supported for analysis")
    return ProblemSpec(variable, entry_strings, MatRF(rows), poles, genus)
