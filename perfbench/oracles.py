"""Independent reference values for the benchmark's output checks.

Everything here is classical combinatorics written from the formulas, with
the standard library only: it imports nothing from interpcat, so a check
that compares program output with these values compares two computations
that share no code.  Polynomials in t are lists of Fractions, low degree
first; a rational function is a (numerator, denominator) pair of them.
"""

from __future__ import annotations

import math
from fractions import Fraction

# ---------------------------------------------------------------------------
# counting


def bell(n: int) -> int:
    """Bell number B_n by the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def odd_double_factorial(points: int) -> int:
    """Perfect matchings on `points` points: (points - 1)!!, 0 if odd."""
    if points % 2:
        return 0
    out = 1
    for k in range(points - 1, 0, -2):
        out *= k
    return out


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k) by inclusion-exclusion."""
    total = sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
    return total // math.factorial(k)


def stirling_sum(n: int, upto: int) -> int:
    """Set partitions of n points into at most `upto` blocks."""
    return sum(stirling2(n, j) for j in range(min(n, upto) + 1))


# ---------------------------------------------------------------------------
# partitions and S_n dimensions


def partitions(n: int, cap: int | None = None):
    """All partitions of n (parts at most cap), largest first."""
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def hooks(lam):
    """Hook lengths of the cells of lam, row by row."""
    conj = [sum(1 for part in lam if part > j) for j in range(lam[0] if lam else 0)]
    return [lam[i] - j + conj[j] - i - 1 for i in range(len(lam)) for j in range(lam[i])]


def hook_length_dim(lam) -> int:
    """f^lam, the dimension of the S_n irreducible lam, by the hook formula."""
    return math.factorial(sum(lam)) // math.prod(hooks(lam))


def schur_weyl_sum(k: int, n: int) -> int:
    """dim End_{GL_n}(V^{(x)k}) = sum of (f^lam)^2 over lam |- k with <= n rows."""
    return sum(hook_length_dim(lam) ** 2 for lam in partitions(k) if len(lam) <= n)


def lr_dimension_total(mu, nu) -> int:
    """C(|mu|+|nu|, |mu|) f^mu f^nu: the degree of Ind(S_mu x S_nu).

    Equals sum over lam of c^lam_{mu,nu} f^lam.
    """
    return math.comb(sum(mu) + sum(nu), sum(mu)) * hook_length_dim(mu) * hook_length_dim(nu)


# ---------------------------------------------------------------------------
# classical dimensions at integer n


def s_dim_at(lam, n: int) -> int:
    """dim L(lam) of Rep(S_t) at t = n: f of the padded partition (n - |lam|, lam)."""
    return hook_length_dim((n - sum(lam),) + tuple(lam))


def gl_weyl_dim(black, white, n: int) -> int:
    """Weyl dimension of the GL_n irreducible (black_1, ..., 0, ..., -white_1)."""
    weight = list(black) + [0] * (n - len(black) - len(white)) + [-w for w in reversed(white)]
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= weight[i] - weight[j] + j - i
            den *= j - i
    return num // den


def o_invariant_dim(points: int, n: int) -> int:
    """dim (V^{(x)points})^{O(n)}, V = C^n: the sum of f^lam over lam |- points
    with even parts and at most n rows.

    GL_n -> O(n) branching: S_lam(V) holds one O(n)-invariant line when lam
    has even parts and at most n rows, and none otherwise.  At points = 2k it
    is dim End_{O(n)}(V^{(x)k}), the rank of the Brauer Gram matrix of
    Hom([k], [k]) at t = n.
    """
    return sum(
        hook_length_dim(lam)
        for lam in partitions(points)
        if len(lam) <= n and all(part % 2 == 0 for part in lam)
    )


def o_dim_closed(lam, n: int) -> int:
    """dim of the O(n) irreducible lam for |lam| <= 2, from the closed forms."""
    lam = tuple(lam)
    if lam == ():
        return 1
    if lam == (1,):
        return n
    if lam == (2,):
        return n * (n + 1) // 2 - 1
    if lam == (1, 1):
        return n * (n - 1) // 2
    raise ValueError(f"no closed form for {lam}")


# ---------------------------------------------------------------------------
# polynomials in t


def poly_trim(p):
    p = [Fraction(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_add(p, q):
    n = max(len(p), len(q))
    return poly_trim(
        [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]
    )


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_eval(p, x) -> Fraction:
    out = Fraction(0)
    for c in reversed(p):
        out = out * x + c
    return out


def t_power(k: int):
    return [Fraction(0)] * k + [Fraction(1)]


def content_hook_poly(lam):
    """prod over cells of (t + content)/hook: the dimension of S_lam(V), dim V = t."""
    out = [Fraction(1)]
    cells = [(i, j) for i in range(len(lam)) for j in range(lam[i])]
    for (i, j), h in zip(cells, hooks(lam)):
        out = poly_mul(out, [Fraction(j - i, h), Fraction(1, h)])
    return out


def rat_equal(a, b) -> bool:
    """Equality of (num, den) rational functions by cross multiplication."""
    return poly_mul(a[0], b[1]) == poly_mul(b[0], a[1])


def rat_is_poly(a, p) -> bool:
    return rat_equal(a, (p, [Fraction(1)]))
