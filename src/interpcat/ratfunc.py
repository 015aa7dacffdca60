"""Exact scalar arithmetic over Q(t).

Every Hom space in the library is a module over the field of rational
functions in the single parameter t with rational coefficients.  Scalars come
in three layers:

  Fraction            -- arbitrary-precision rationals (stdlib)
  Poly                -- univariate polynomials in t, dense coefficient tuple
  RatFunc             -- reduced fractions of Polys with monic denominator

A RatFunc is always canonical: gcd(num, den) = 1 and den is monic, so
equality and hashing are structural.  All values are immutable.

The public constructor RatFunc(num, den) brings any pair to that form.
Arithmetic keeps it without redundant gcds (Henrici, JACM 1956; Knuth,
TAOCP vol. 2, 4.5.1) and hands its results to the private `_make`, which
trusts them.  Each shortcut stays exact because of a coprimality fact:

  * a constant denominator is normalized by scaling: no Euclid loop;
  * a gcd with a nonzero constant operand is 1, so it is never computed;
  * polynomials (denominator 1) add, subtract, multiply and negate as
    polynomials, and a/b + c/1 = (a + cb)/b is reduced because
    gcd(a + cb, b) = gcd(a, b);
  * a/b + c/d with g = gcd(b, d): s = a(d/g) + c(b/g) is coprime to b/g and
    d/g, so only h = gcd(s, g) can cancel, giving (s/h) / ((b/g)(d/h));
    when g = 1 the result (ad + bc)/(bd) is already reduced;
  * (a/b)(c/d): only gcd(a, d) and gcd(c, b) can cancel, and once they are
    divided out the product is reduced; a quotient is the product with the
    inverse, scaled to a monic denominator;
  * negation and t -> -t keep num and den coprime.

A coefficient is a Python int when it is integral and a Fraction only when
it is a true fraction, so the common cases (diagram signs, powers of t,
cleared symmetrizer coefficients) never touch Fraction arithmetic.  The
trusted constructor `_poly` turns integral Fractions into ints, and every
coefficient division goes through `_div`, which stays exact: int / int never
yields a float.  Fraction(n) == n and the two hash alike, so equality and
hashing stay structural.  Poly.leading() still returns a Fraction.

Text format (used by the CLI): ``(num)/(den)`` where each side is a sparse
sum of terms ``c``, ``c*t``, ``c*t^k``.  Bare integers, ``a/b`` rationals and
denominator-free polynomials are accepted as shorthand on input.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction, "RatFunc"]

_new = object.__new__


class PoleError(ZeroDivisionError):
    """Raised when a rational function is evaluated at a pole."""


class Poly:
    """Polynomial in t with rational coefficients, stored low degree first:
    ints when integral, Fractions otherwise."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        self.coeffs: tuple[int | Fraction, ...] = _poly(
            [c if type(c) is int else Fraction(c) for c in coeffs]
        ).coeffs

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial having degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        return Fraction(self.coeffs[-1]) if self.coeffs else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("Poly", self.coeffs))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _poly(out)

    def __neg__(self) -> "Poly":
        return _poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        out = list(a)
        out += [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] -= c
        return _poly(out)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) <= 1 or len(b) <= 1:
            if not a or not b:
                return POLY_ZERO
            return other.scale(a[0]) if len(a) == 1 else self.scale(b[0])
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _poly(out)

    def scale(self, c: Fraction | int) -> "Poly":
        if type(c) is not int and type(c) is not Fraction:
            c = Fraction(c)
        if c == 1:
            return self
        if not c:
            return POLY_ZERO
        return _poly([a * c for a in self.coeffs])

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        d = other.degree
        lower, lead = other.coeffs[:d], other.coeffs[d]
        rem = list(self.coeffs)
        q = [0] * max(0, len(rem) - d)
        for shift in range(len(rem) - 1 - d, -1, -1):
            factor = rem[shift + d]
            if factor:
                if lead != 1:
                    factor = _div(factor, lead)
                q[shift] = factor
                for i, c in enumerate(lower):
                    rem[shift + i] -= factor * c
        return _poly(q), _poly(rem[:d])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return self if lead == 1 else self.scale(_div(1, lead))

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd; the zero polynomial only for gcd(0, 0)."""
        a, b = self, other
        while b.coeffs:
            if len(b.coeffs) == 1:
                return POLY_ONE
            a, b = b, divmod(a, b)[1]
        return a.monic()

    def __call__(self, t0: Fraction | int) -> Fraction:
        t0 = Fraction(t0)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t0 + c
        return acc

    def at_minus_t(self) -> "Poly":
        """Substitute t -> -t."""
        return _poly([c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)])

    # -- text --------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                tk = "t" if k == 1 else f"t^{k}"
                body = tk if mag == 1 else f"{mag}*{tk}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"


def _poly(cs: list[int | Fraction]) -> Poly:
    """Trusted Poly constructor: cs holds ints and Fractions; trailing zeros
    are dropped and integral Fractions become ints."""
    while cs and not cs[-1]:
        cs.pop()
    for x in cs:
        if type(x) is not int:
            cs = [c.numerator if type(c) is not int and c.denominator == 1 else c for c in cs]
            break
    p = _new(Poly)
    p.coeffs = tuple(cs)
    return p


POLY_ZERO = Poly()
POLY_ONE = Poly((1,))
POLY_T = Poly((0, 1))


def poly_t_power(k: int) -> Poly:
    if k < 0:
        raise ValueError("negative power of t is not a polynomial")
    return _poly([0] * k + [1])


def _div(a: int | Fraction, b: int | Fraction) -> int | Fraction:
    """The exact coefficient quotient a / b: an int when it is integral, a
    Fraction otherwise, never a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return q.numerator if q.denominator == 1 else q


def _exquo(a: Poly, b: Poly) -> Poly:
    """a / b for a monic b that divides a exactly.

    Only the coefficients that become leading terms are updated; the rest
    would cancel to the zero remainder.
    """
    bc = b.coeffs
    d = len(bc) - 1
    if d == 0:
        return a
    rem = list(a.coeffs)
    q = [0] * (len(rem) - d)
    for shift in range(len(rem) - 1 - d, -1, -1):
        factor = rem[shift + d]
        if factor:
            q[shift] = factor
            for i in range(max(0, d - shift), d):
                rem[shift + i] -= factor * bc[i]
    return _poly(q)


class RatFunc:
    """Reduced fraction of two Polys; the scalar field Q(t)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, RatFunc):
            if den is not None:
                raise TypeError("RatFunc(RatFunc, den) is not supported")
            self.num, self.den = num.num, num.den
            return
        num = _as_poly(num)
        if den is None:
            self.num, self.den = num, POLY_ONE
            return
        den = _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if not num.coeffs:
            den = POLY_ONE
        elif len(num.coeffs) > 1 and len(den.coeffs) > 1:
            g = num.gcd(den)
            num, den = _exquo(num, g), _exquo(den, g)
        lead = den.coeffs[-1]
        if lead != 1:
            inv = _div(1, lead)
            num, den = num.scale(inv), den.scale(inv)
        self.num, self.den = num, den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _as_ratfunc(other)
        return (
            isinstance(other, RatFunc)
            and self.num.coeffs == other.num.coeffs
            and self.den.coeffs == other.den.coeffs
        )

    def __hash__(self) -> int:
        return hash(("RatFunc", self.num.coeffs, self.den.coeffs))

    def __add__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        return _sum(self.num, self.den, other.num, other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return _make(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        return _sum(self.num, self.den, -other.num, other.den)

    def __rsub__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        return _sum(other.num, other.den, -self.num, self.den)

    def __mul__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        return _product(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return _product(self.num, self.den, other.den, other.num)

    def __rtruediv__(self, other) -> "RatFunc":
        return _as_ratfunc(other) / self

    def eval(self, t0: Fraction | int) -> Fraction:
        """Exact value at t = t0; raises PoleError at a pole."""
        t0 = Fraction(t0)
        d = self.den(t0)
        if d == 0:
            raise PoleError(f"pole at t = {t0}")
        return self.num(t0) / d

    def at_minus_t(self) -> "RatFunc":
        num, den = self.num.at_minus_t(), self.den.at_minus_t()
        if den.coeffs[-1] != 1:  # odd degree: the leading coefficient is -1
            num, den = -num, -den
        return _make(num, den)

    def is_polynomial(self) -> bool:
        return self.den == POLY_ONE

    def __str__(self) -> str:
        # Display with integer coefficients: scale num and den jointly so the
        # pair is integral with content 1 (parses back to the same value).
        if self.is_zero():
            return "(0)/(1)"
        coeffs = self.num.coeffs + self.den.coeffs
        scale = Fraction(
            math.lcm(*(c.denominator for c in coeffs)),
            math.gcd(*(c.numerator for c in coeffs)),
        )
        return f"({self.num.scale(scale)})/({self.den.scale(scale)})"

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r}, {self.den!r})"


def _make(num: Poly, den: Poly) -> RatFunc:
    """Trusted RatFunc constructor for pairs that are canonical by construction."""
    f = _new(RatFunc)
    f.num = num
    f.den = den
    return f


def _sum(a: Poly, b: Poly, c: Poly, d: Poly) -> RatFunc:
    """a/b + c/d for canonical pairs, by Henrici's addition rule."""
    if not c.coeffs:
        return _make(a, b)
    if not a.coeffs:
        return _make(c, d)
    if len(b.coeffs) == 1:  # b = 1
        return _make(a + c, POLY_ONE) if len(d.coeffs) == 1 else _make(a * d + c, d)
    if len(d.coeffs) == 1:
        return _make(a + c * b, b)
    g = b if b.coeffs == d.coeffs else b.gcd(d)
    if len(g.coeffs) == 1:
        return _make(a * d + c * b, b * d)
    b_g = _exquo(b, g)
    s = a * _exquo(d, g) + c * b_g
    if not s.coeffs:
        return RF_ZERO
    if len(s.coeffs) > 1:
        h = s.gcd(g)
        if len(h.coeffs) > 1:
            return _make(_exquo(s, h), b_g * _exquo(d, h))
    return _make(s, b_g * d)


def _product(a: Poly, b: Poly, c: Poly, d: Poly) -> RatFunc:
    """(a/b) * (c/d) for coprime pairs with b monic and d nonzero.

    Cancels the cross gcds only; d need not be monic, so division is the
    product with the inverse, and the result is scaled to a monic denominator.
    """
    if not a.coeffs or not c.coeffs:
        return RF_ZERO
    if len(a.coeffs) > 1 and len(d.coeffs) > 1:
        g = a.gcd(d)
        a, d = _exquo(a, g), _exquo(d, g)
    if len(c.coeffs) > 1 and len(b.coeffs) > 1:
        g = c.gcd(b)
        c, b = _exquo(c, g), _exquo(b, g)
    num, den = a * c, b * d
    lead = den.coeffs[-1]
    if lead != 1:
        inv = _div(1, lead)
        num, den = num.scale(inv), den.scale(inv)
    return _make(num, den)


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly((x,))
    raise TypeError(f"cannot interpret {x!r} as a polynomial in t")


def _as_ratfunc(x) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, Fraction, Poly)):
        return _make(_as_poly(x), POLY_ONE)
    raise TypeError(f"cannot interpret {x!r} as a rational function in t")


RF_ZERO = _make(POLY_ZERO, POLY_ONE)
RF_ONE = _make(POLY_ONE, POLY_ONE)
RF_T = _make(POLY_T, POLY_ONE)


def t_power(k: int) -> RatFunc:
    """t^k for k >= 0."""
    return _make(poly_t_power(k), POLY_ONE)


def constant_or_self(c: Scalar) -> Scalar:
    """The one constant view of a coefficient: c as its constant (an int,
    or a Fraction when it is not integral, as a Poly stores it) when it
    carries no t, else the RatFunc c itself.  ints and Fractions pass
    through, and the zero RatFunc is 0."""
    if not isinstance(c, RatFunc):
        return c
    num, den = c.num.coeffs, c.den.coeffs
    if len(num) <= 1 and len(den) == 1:  # den is monic, so it is 1
        return num[0] if num else 0
    return c


def interpolate(points: Sequence[tuple[Fraction | int, Fraction | int]]) -> Poly:
    """Unique polynomial of degree < len(points) through the given points.

    Lagrange interpolation over exact rationals; the abscissae must be
    pairwise distinct.
    """
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation abscissae must be distinct")
    total = POLY_ZERO
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = POLY_ONE
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            basis = basis * Poly((-xj, 1))
            denom *= xi - xj
        total = total + basis.scale(yi / denom)
    return total


# -- text parsing -----------------------------------------------------------

_TERM_RE = re.compile(
    r"""
    (?P<sign>[+-]?)\s*
    (?:
        (?P<coeff>\d+(?:/\d+)?)\s*(?:\*\s*(?P<tpow1>t(?:\^\d+)?))?
      | (?P<tpow2>t(?:\^\d+)?)
    )
    """,
    re.VERBOSE,
)


def parse_poly(text: str) -> Poly:
    """Parse a sparse polynomial like ``t^2 - 3*t + 1/2``."""
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    coeffs: dict[int, Fraction] = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse polynomial {text!r} at position {pos}")
        sign_txt = m.group("sign")
        if not first and sign_txt == "":
            raise ValueError(f"missing +/- between terms in {text!r}")
        sign = -1 if sign_txt == "-" else 1
        coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
        tpow = m.group("tpow1") or m.group("tpow2")
        k = 0 if tpow is None else (1 if tpow == "t" else int(tpow[2:]))
        coeffs[k] = coeffs.get(k, Fraction(0)) + sign * coeff
        pos = m.end()
        while pos < len(s) and s[pos].isspace():
            pos += 1
        first = False
    deg = max(coeffs) if coeffs else 0
    return Poly(tuple(coeffs.get(k, Fraction(0)) for k in range(deg + 1)))


def _split_fraction_bar(s: str) -> tuple[str, str] | None:
    """Split at the single '/' outside parentheses, if any.

    A '/' squeezed between two digits is a rational coefficient ("1/2"),
    not the fraction bar, and is left to the polynomial parser.
    """
    depth = 0
    slash = None
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            if 0 < i < len(s) - 1 and s[i - 1].isdigit() and s[i + 1].isdigit():
                continue
            if slash is not None:
                return None
            slash = i
    if slash is None:
        return None
    return s[:slash], s[slash + 1 :]


def _strip_parens(s: str) -> str:
    s = s.strip()
    while s.startswith("(") and s.endswith(")"):
        depth = 0
        for i, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and i != len(s) - 1:
                    return s
        s = s[1:-1].strip()
    return s


def parse_ratfunc(text: str) -> RatFunc:
    """Parse ``(num)/(den)``; integers, ``a/b`` and bare polynomials also work."""
    s = text.strip()
    split = _split_fraction_bar(s)
    if split is None:
        return RatFunc(parse_poly(_strip_parens(s)))
    num_txt, den_txt = split
    return RatFunc(parse_poly(_strip_parens(num_txt)), parse_poly(_strip_parens(den_txt)))


def format_ratfunc(f: RatFunc) -> str:
    return str(f)
