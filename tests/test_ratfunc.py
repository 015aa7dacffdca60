"""Exact scalar arithmetic: canonical forms, evaluation, interpolation."""

import ast
import itertools
import operator
import pathlib
import random
from fractions import Fraction

import pytest

import interpcat
from interpcat import homspaces, karoubi, ratfunc
from interpcat.ratfunc import (
    PoleError,
    Poly,
    RatFunc,
    RF_ONE,
    RF_T,
    RF_ZERO,
    _make,
    constant_or_self,
    format_ratfunc,
    interpolate,
    parse_poly,
    parse_ratfunc,
    t_power,
)

t = RF_T


class TestArithmetic:
    def test_inverse_pair(self):
        assert t * (RF_ONE / t) == RF_ONE

    def test_factorization_division(self):
        assert (t * t - 1) / (t - 1) == t + 1

    def test_mixed_subtraction(self):
        assert (t * t + t) / 2 - t == RatFunc(Poly((0, -1, 1)), Poly((2,)))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            t / RatFunc(0)
        with pytest.raises(ZeroDivisionError):
            RatFunc(Poly((1,)), Poly(()))

    def test_canonical_form_is_structural(self):
        a = RatFunc(Poly((0, 2)), Poly((0, 0, 2)))  # 2t / 2t^2
        b = RF_ONE / t
        assert a == b and hash(a) == hash(b)
        assert a.den.leading() == 1

    def test_scalar_coercion(self):
        assert 1 + t == t + 1
        assert 2 * t == t + t
        assert t - Fraction(1, 2) == RatFunc(Poly((Fraction(-1, 2), 1)))


def _full_reduce(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Textbook normal form: divide out the Euclidean gcd, then make den monic."""
    a, b = num, den
    while not b.is_zero():
        a, b = b, divmod(a, b)[1]
    num, den = divmod(num, a)[0], divmod(den, a)[0]
    lead = den.leading()
    return num.scale(1 / lead), den.scale(1 / lead)


def _linear_product(roots, scale=1) -> Poly:
    p = Poly((scale,))
    for r in roots:
        p = p * Poly((-r, 1))
    return p


def _random_poly(rng: random.Random, max_degree: int = 2) -> Poly:
    coeffs = [Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3])) for _ in range(max_degree + 1)]
    coeffs[-1] = coeffs[-1] or Fraction(1)
    return Poly(coeffs[: rng.randint(1, max_degree + 1)])


# Roots of the denominators; numerators sometimes share one, so products
# and quotients have cross factors to cancel.
_ROOTS = (-2, -1, 0, 1, 2, Fraction(1, 2))


def _fraction_with_roots(rng: random.Random, roots) -> RatFunc:
    num = _random_poly(rng) * _linear_product(rng.sample(_ROOTS, rng.randint(0, 1)))
    den = _linear_product(roots, scale=rng.choice([1, -2, Fraction(3, 2)]))
    return RatFunc(num, den)


def _operand_pair(rng: random.Random, shape: str) -> tuple[RatFunc, RatFunc]:
    """Two operands of the given shape, from the paths of the arithmetic."""
    if shape == "constant":
        return tuple(RatFunc(Fraction(rng.randint(-5, 5), rng.randint(1, 4))) for _ in "xy")
    if shape == "polynomial":
        return tuple(RatFunc(_random_poly(rng, 3)) for _ in "xy")
    if shape == "constant denominator":
        return tuple(
            RatFunc(_random_poly(rng), Poly((rng.choice([2, -3, Fraction(1, 2)]),))) for _ in "xy"
        )
    if shape == "coprime denominators":
        left = rng.sample(_ROOTS[:3], rng.randint(1, 2))
        right = rng.sample(_ROOTS[3:], rng.randint(1, 2))
    else:  # "shared factor": the root sets overlap
        shared = rng.sample(_ROOTS, 1)
        rest = [r for r in _ROOTS if r not in shared]
        left = shared + rng.sample(rest, rng.randint(0, 1))
        right = shared + rng.sample(rest, rng.randint(0, 2))
    return _fraction_with_roots(rng, left), _fraction_with_roots(rng, right)


SHAPES = ("constant", "polynomial", "constant denominator", "coprime denominators", "shared factor")

# raw (unreduced) numerator and denominator of each binary operation
_RAW = {
    operator.add: lambda a, b, c, d: (a * d + c * b, b * d),
    operator.sub: lambda a, b, c, d: (a * d - c * b, b * d),
    operator.mul: lambda a, b, c, d: (a * c, b * d),
    operator.truediv: lambda a, b, c, d: (a * d, b * c),
}


def _raw_parts(x) -> tuple[Poly, Poly]:
    if isinstance(x, RatFunc):
        return x.num, x.den
    return Poly((x,)), Poly((1,))


def _assert_canonical(result: RatFunc, raw_num: Poly, raw_den: Poly):
    expected = RatFunc(raw_num, raw_den)
    assert (result.num, result.den) == _full_reduce(raw_num, raw_den)
    assert result == expected and hash(result) == hash(expected)
    assert result.den.leading() == 1
    assert result.num.gcd(result.den) == Poly((1,))


class TestPolyArithmetic:
    """Poly ring operations and division, checked by evaluation and degree."""

    def test_ring_operations_evaluate_pointwise(self):
        rng = random.Random("poly ring")
        points = (-2, 0, Fraction(1, 3), 5)
        for _ in range(60):
            a, b = _random_poly(rng, 3), _random_poly(rng, 3)
            k = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for x in points:
                assert (a + b)(x) == a(x) + b(x)
                assert (a - b)(x) == a(x) - b(x)
                assert (a * b)(x) == a(x) * b(x)
                assert (-a)(x) == -a(x)
                assert a.scale(k)(x) == k * a(x)
                assert a.at_minus_t()(x) == a(-x)
            for p in (a + b, a - b, a * b, -a, a.scale(k)):
                assert not p.coeffs or p.coeffs[-1] != 0

    def test_division_with_remainder(self):
        rng = random.Random("poly divmod")
        for _ in range(60):
            a, b = _random_poly(rng, 4), _random_poly(rng, 2)
            if not b:
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree
        assert divmod(Poly(()), Poly((0, 1))) == (Poly(()), Poly(()))
        assert divmod(Poly((1, 2)), Poly((0, 0, 1))) == (Poly(()), Poly((1, 2)))
        with pytest.raises(ZeroDivisionError):
            divmod(Poly((1,)), Poly(()))


class TestCanonicalForm:
    """Every fast path gives the fully reduced fraction the gcd path gives."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_binary_operations(self, shape):
        rng = random.Random(f"ratfunc {shape}")
        for _ in range(40):
            x, y = _operand_pair(rng, shape)
            scalars = [rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 4))]
            for a, b in [(x, y), (y, x), (x, x)] + [p for k in scalars for p in ((x, k), (k, x))]:
                for op, raw in _RAW.items():
                    if op is operator.truediv and not b:
                        continue
                    _assert_canonical(op(a, b), *raw(*_raw_parts(a), *_raw_parts(b)))
            _assert_canonical(-x, -x.num, x.den)

    def test_mixed_shapes(self):
        rng = random.Random("ratfunc mixed")
        for left, right in itertools.product(SHAPES, repeat=2):
            x, y = _operand_pair(rng, left)[0], _operand_pair(rng, right)[1]
            for op, raw in _RAW.items():
                if op is operator.truediv and not y:
                    continue
                _assert_canonical(op(x, y), *raw(x.num, x.den, y.num, y.den))

    def test_sum_cancels_a_shared_factor(self):
        # 1/(t(t-1)) + 1/(t(t+1)) = 2t / (t(t-1)(t+1)): the shared t cancels
        a = RF_ONE / (t * (t - 1))
        b = RF_ONE / (t * (t + 1))
        assert a + b == RatFunc(Poly((2,)), Poly((-1, 0, 1)))
        assert t / (t * t - 1) + RF_ONE / (t * t - 1) == RF_ONE / (t - 1)
        assert a - a == RF_ZERO and (a - a).den == Poly((1,))

    def test_constant_denominator(self):
        assert RatFunc(Poly([2]), Poly([4])) == Fraction(1, 2)
        f = RatFunc(Poly((0, 3)), Poly((-6,)))
        assert f.num == Poly((0, Fraction(-1, 2))) and f.is_polynomial()
        assert RatFunc(Poly(()), Poly((0, 0, 5))) == RF_ZERO

    def test_polynomial_results(self):
        p, q = t * t - 2, 3 * t + Fraction(1, 2)
        for result in (p + q, p - q, p * q, -p, p * 2, Fraction(1, 3) - q, (t * t - 1) / (t - 1)):
            assert result.is_polynomial()
        assert not (p / q).is_polynomial()

    def test_at_minus_t_keeps_den_monic(self):
        f = (t + 2) / (t * t * t - t + 1)
        g = f.at_minus_t()
        assert g.den.leading() == 1
        assert g.eval(3) == f.eval(-3)


class TestEval:
    def test_hook_dimension_point(self):
        # generic dimension of the (n-2, 2) family evaluated at n = 4
        f = RatFunc(Poly((0, -3, 1)), Poly((2,)))
        assert f.eval(4) == 2

    def test_root(self):
        assert (t - 1).eval(1) == 0

    def test_pole(self):
        with pytest.raises(PoleError):
            (RF_ONE / t).eval(0)

    def test_rational_point(self):
        assert ((t + 1) / (t - 1)).eval(Fraction(1, 2)) == -3


class TestInterpolate:
    def test_hook_family(self):
        # dims of the (n-2, 2) irreps at n = 4, 5, 6 pin down t(t-3)/2
        p = interpolate([(4, 2), (5, 5), (6, 9)])
        assert p == Poly((0, Fraction(-3, 2), Fraction(1, 2)))

    def test_linear(self):
        assert interpolate([(0, 0), (1, 1)]) == Poly((0, 1))

    def test_double_root(self):
        p = interpolate([(1, 0), (2, 0), (3, 1)])
        assert p == Poly((1, Fraction(-3, 2), Fraction(1, 2)))
        assert p(1) == 0 and p(2) == 0 and p(3) == 1

    def test_duplicate_abscissae(self):
        with pytest.raises(ValueError):
            interpolate([(1, 2), (1, 3)])

    def test_reproduces_points(self):
        pts = [(-2, 7), (0, Fraction(1, 3)), (5, -1), (9, 0)]
        p = interpolate(pts)
        assert all(p(x) == y for x, y in pts)


class TestText:
    def test_display_matches_cli_contract(self):
        assert format_ratfunc((t * t - 3 * t) / 2) == "(t^2 - 3*t)/(2)"

    def test_parse_full_form(self):
        assert parse_ratfunc("(t^2 - 3*t)/(2)") == (t * t - 3 * t) / 2

    def test_parse_shorthands(self):
        assert parse_ratfunc("5") == RatFunc(5)
        assert parse_ratfunc("3/4") == RatFunc(Fraction(3, 4))
        assert parse_ratfunc("t^2 + 1") == t * t + 1
        assert parse_ratfunc("-t + 1/2") == RatFunc(Poly((Fraction(1, 2), -1)))

    def test_roundtrip(self):
        for f in [t_power(3), (t + 1) / (t * t - 2), RatFunc(0), RatFunc(Fraction(-7, 3))]:
            assert parse_ratfunc(format_ratfunc(f)) == f

    def test_parse_garbage(self):
        with pytest.raises(ValueError):
            parse_poly("t^")
        with pytest.raises(ValueError):
            parse_poly("")
        with pytest.raises(ValueError):
            parse_poly("2 x")


# -- int coefficients ---------------------------------------------------------
#
# The reference below is Fraction-only textbook arithmetic on coefficient
# lists, wrapped in Polys that hold Fractions, as every coefficient was stored
# before ints were: results must agree with it in ==, hash, str and value.


def _trim(cs: list) -> list:
    cs = [Fraction(c) for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _ref_poly(cs: list) -> Poly:
    p = object.__new__(Poly)
    p.coeffs = tuple(_trim(cs))
    return p


def _ref_add(a: list, b: list) -> list:
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def _ref_neg(a: list) -> list:
    return [-c for c in a]


def _ref_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _ref_divmod(a: list, b: list) -> tuple[list, list]:
    rem, q = list(a), [Fraction(0)] * max(0, len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        factor = rem[shift + len(b) - 1] / b[-1]
        q[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] -= factor * c
    return _trim(q), _trim(rem)


def _ref_at_minus_t(a: list) -> list:
    return [c if i % 2 == 0 else -c for i, c in enumerate(a)]


def _ref_monic(a: list) -> list:
    return [c / a[-1] for c in a] if a else []


def _ref_gcd(a: list, b: list) -> list:
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return _ref_monic(a)


def _ref_ratfunc(num: list, den: list) -> RatFunc:
    g = _ref_gcd(num, den)
    num, den = _ref_divmod(num, g)[0], _ref_divmod(den, g)[0]
    lead = den[-1]
    return _make(_ref_poly([c / lead for c in num]), _ref_poly([c / lead for c in den]))


_REF_OPS = {
    operator.add: lambda a, b, c, d: (_ref_add(_ref_mul(a, d), _ref_mul(c, b)), _ref_mul(b, d)),
    operator.sub: lambda a, b, c, d: _REF_OPS[operator.add](a, b, _ref_neg(c), d),
    operator.mul: lambda a, b, c, d: (_ref_mul(a, c), _ref_mul(b, d)),
    operator.truediv: lambda a, b, c, d: (_ref_mul(a, d), _ref_mul(b, c)),
}


def _mixed_coeffs(rng: random.Random, n: int) -> list:
    """Coefficients of every kind the arithmetic meets: ints, integral and
    true Fractions, and ints above 2^64."""
    out = []
    for _ in range(n):
        kind = rng.randrange(4)
        if kind == 0:
            out.append(rng.randint(-6, 6))
        elif kind == 1:
            out.append(Fraction(2 * rng.randint(-4, 4), 2))
        elif kind == 2:
            out.append(Fraction(rng.randint(-7, 7), rng.choice([2, 3, 4, 6])))
        else:
            out.append(rng.choice([-1, 1]) * (2**64 + rng.randint(0, 9)))
    if not out[-1]:
        out[-1] = rng.choice([1, Fraction(3, 2), -2])
    return out


def _assert_int_coefficients(p: Poly):
    for c in p.coeffs:
        assert type(c) in (int, Fraction), (p, c)
        assert type(c) is int or c.denominator != 1, (p, c)
    if p.coeffs:
        assert type(p.leading()) is Fraction


_POINTS = (-3, 0, Fraction(1, 2), 2, 7)


def _assert_poly_matches(got: Poly, ref: list):
    expected = _ref_poly(ref)
    _assert_int_coefficients(got)
    assert got == expected and hash(got) == hash(expected)
    assert str(got) == str(expected)
    assert all(got(x) == expected(x) for x in _POINTS)


def _assert_ratfunc_matches(got: RatFunc, expected: RatFunc):
    _assert_int_coefficients(got.num)
    _assert_int_coefficients(got.den)
    assert got == expected and hash(got) == hash(expected)
    assert str(got) == str(expected)
    for x in _POINTS:
        if expected.den(x):
            assert got.eval(x) == expected.eval(x)


class TestIntCoefficients:
    """Integral coefficients are ints, true fractions Fractions, never floats."""

    def test_poly_operations(self):
        rng = random.Random("int coefficients poly")
        for _ in range(80):
            a_cs = _mixed_coeffs(rng, rng.randint(1, 4))
            b_cs = _mixed_coeffs(rng, rng.randint(1, 3))
            a, b = Poly(a_cs), Poly(b_cs)
            ra, rb = _trim(a_cs), _trim(b_cs)
            _assert_poly_matches(a, ra)
            _assert_poly_matches(a + b, _ref_add(ra, rb))
            _assert_poly_matches(a - b, _ref_add(ra, _ref_neg(rb)))
            _assert_poly_matches(a * b, _ref_mul(ra, rb))
            q, r = divmod(a, b)
            ref_q, ref_r = _ref_divmod(ra, rb)
            _assert_poly_matches(q, ref_q)
            _assert_poly_matches(r, ref_r)
            _assert_poly_matches(a.gcd(b), _ref_gcd(ra, rb))
            _assert_poly_matches(a.monic(), _ref_monic(ra))
            _assert_poly_matches(a.at_minus_t(), _ref_at_minus_t(ra))
            k = rng.choice([3, -1, Fraction(2, 3), Fraction(4, 2)])
            _assert_poly_matches(a.scale(k), [c * k for c in ra])

    def test_ratfunc_operations(self):
        rng = random.Random("int coefficients ratfunc")
        for _ in range(60):
            parts = [_mixed_coeffs(rng, rng.randint(1, 3)) for _ in range(4)]
            refs = [_trim(cs) for cs in parts]
            x = RatFunc(Poly(parts[0]), Poly(parts[1]))
            y = RatFunc(Poly(parts[2]), Poly(parts[3]))
            rx, ry = _ref_ratfunc(*refs[:2]), _ref_ratfunc(*refs[2:])
            _assert_ratfunc_matches(x, rx)
            _assert_ratfunc_matches(y, ry)
            k = rng.choice([2, -5, Fraction(6, 3), Fraction(-3, 4)])
            a, b, c, d = (list(p.coeffs) for p in (rx.num, rx.den, ry.num, ry.den))
            for op, raw in _REF_OPS.items():
                if y or op is not operator.truediv:
                    _assert_ratfunc_matches(op(x, y), _ref_ratfunc(*raw(a, b, c, d)))
                _assert_ratfunc_matches(op(x, k), _ref_ratfunc(*raw(a, b, _trim([k]), [1])))
            _assert_ratfunc_matches(-x, _ref_ratfunc(_ref_neg(refs[0]), refs[1]))
            minus = [_ref_at_minus_t(r) for r in refs[:2]]
            _assert_ratfunc_matches(x.at_minus_t(), _ref_ratfunc(*minus))

    def test_integral_results_are_ints(self):
        half = Fraction(1, 2)
        assert Poly((half, half)).scale(2).coeffs == (1, 1)
        assert all(type(c) is int for c in Poly((Fraction(4, 2), True, 3)).coeffs)
        assert type(RatFunc(Poly((3,)), Poly((Fraction(3, 2),))).num.coeffs[0]) is int
        assert (t / 3 + t / 3 + t / 3).num.coeffs == (0, 1)
        assert type((RF_ONE / 4).num.coeffs[0]) is Fraction
        assert Poly((2, 4)).monic().coeffs == (Fraction(1, 2), 1)
        assert Poly(()).leading() == 0 and type(Poly(()).leading()) is Fraction


class TestConstantOrSelf:
    """constant_or_self is the one constant view of a coefficient."""

    def test_constants_and_t(self):
        half = Fraction(1, 2)
        cases = [
            (3, 3), (half, half), (RatFunc(-4), -4), (RatFunc(half), half),
            (RatFunc(Fraction(6, 3)), 2), (RF_ZERO, 0),
        ]
        for c, expected in cases:
            got = constant_or_self(c)
            assert got == expected and type(got) is type(expected), c
        for c in (t, RF_ONE / t, t + 1, RatFunc(Poly((1,)), Poly((2, 1)))):
            assert constant_or_self(c) is c

    def test_one_home(self):
        # karoubi and homspaces use the ratfunc helper, and no module but
        # ratfunc reads the parts of a RatFunc that a second copy would read
        assert karoubi.constant_or_self is homspaces.constant_or_self is ratfunc.constant_or_self
        readers = set()
        for path in sorted(pathlib.Path(interpcat.__file__).parent.glob("*.py")):
            if path.name != "ratfunc.py":
                for node in ast.walk(ast.parse(path.read_text())):
                    if isinstance(node, ast.Attribute) and node.attr in ("num", "den", "coeffs"):
                        readers.add(path.stem)
                    if isinstance(node, ast.FunctionDef) and node.name in ("_scalar", "constant_or_self"):
                        readers.add(path.stem)
        assert not readers
