"""Negligible morphisms and the semisimplification at integer t.

The trace pairing (f, g) -> Tr(f o g) between Hom([l], [m]) and
Hom([m], [l]) becomes degenerate exactly at the integer specializations
where the interpolation category fails to be semisimple.  Its radical is the
ideal of negligible morphisms; quotient Hom dimensions recover the classical
Hom dimensions, and the simples killed by the quotient are the L(lambda)
with |lambda| + lambda_1 > n.

Every Gram entry is Tr(f o g) = t^N, where N counts the components of f
glued to g; diagrams.pairing_table counts them without composing.  The
permutations of each row of endpoints (of each color, for GL) act on both
bases and keep the pairing: G[s f t, t^-1 g s^-1] = G[f, g].  So the table
takes one union-find row per orbit, and every other row of the orbit is a
byte permutation of a row already built (diagrams._row_transpositions).  The
exponents do not depend on t, so each Hom space's table is computed once
and shared by gram, gram_matrix_symbolic and negligible_basis at every t0:
an lru_cache of 32 tables of bytes, at most 300 x 300 bytes each under
MAX_GRAM_BASIS (about 2.9 MB in all).  Each call maps the exponents through
one list of the powers of its t0 into fresh rows.  At t0 = a/b the rank is
taken of the integer rows a^p b^(l + m - p) by linalg.integer_rank, which is
certified over Z; the report keeps the Fraction entries t0^p.  integer_rank
drops repeated rows and columns first, so at t0 = 1, and at t0 = 0 where
every pairing closes a loop, the rank is that of a 1 x 1 matrix.  The generic
rank is that rank at t = 1/2, where the categories are semisimple; an integer
point is not safe (at t = -1, GL End([1, 1]) has Gram rank 1).  The negligible
basis is read off the same integer rows, transposed, by
linalg.right_nullspace, which lifts its kernel vectors from Z the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from interpcat.diagrams import _row_transpositions, basis_size, enumerate_basis, pairing_table
from interpcat.homspaces import Morphism, as_signature, hom_basis
from interpcat.partitions import check_partition, partitions_of
from interpcat.linalg import determinant, integer_rank, right_nullspace
from interpcat.ratfunc import RF_ONE, RatFunc, t_power

Partition = tuple[int, ...]

# Largest Hom basis whose Gram matrix is built: S gram(3, 3) is 203 x 203; its
# pairing table (31 union-find rows, one per orbit) takes about 0.04 s and its
# certified integer rank about 0.04 s at t = 2, 0.07 to 0.1 s at t = 3, 4 or
# 1/2, and under 1 ms at t = 0 or 1, on a 2-CPU VM.  gram(4, 4) would be
# 4140 x 4140.
MAX_GRAM_BASIS = 300

# Largest Hom basis whose symbolic Gram determinant is expanded over Q(t).
MAX_SYMBOLIC_DET_BASIS = 15

_GENERIC_POINT = Fraction(1, 2)


def _gram_space(l, m, flavor: str, limit: int = MAX_GRAM_BASIS):
    """Signatures of [l] and [m], refusing mixed flavors and spaces over
    `limit` basis diagrams before any diagram is enumerated."""
    src = as_signature(l, flavor)
    tgt = as_signature(m, flavor)
    if src.flavor != tgt.flavor:
        raise ValueError("Hom between different flavors")
    size = basis_size(src.flavor, src.data, tgt.data)
    if size > limit:
        raise ValueError(
            f"Gram budget exceeded: at most {limit} basis diagrams, and Hom({src}, {tgt})"
            f" has {size}"
        )
    return src, tgt


@lru_cache(maxsize=32)
def _pairing_exponents(flavor: str, source, target) -> tuple[bytes, ...]:
    """Exponents of Tr(f o g) for the bases of Hom(source, target) (rows) and
    Hom(target, source) (columns).  They do not depend on t, so one table
    serves every t0.  One pairing_table call builds the first row of each
    orbit of the row permutations; the others are permuted copies."""
    fs = enumerate_basis(flavor, source, target)
    gs = enumerate_basis(flavor, target, source)
    moves = _row_transpositions(fs, gs)
    # walk each orbit from its first basis diagram along the generators; the
    # row of s f is the row of f read through s's permutation of the columns
    seen = [False] * len(fs)
    reps, steps = [], []
    for i in range(len(fs)):
        if seen[i]:
            continue
        seen[i] = True
        reps.append(i)
        orbit = [i]
        for j in orbit:
            for f_images, g_images in moves:
                n = f_images[j]
                if not seen[n]:
                    seen[n] = True
                    orbit.append(n)
                    steps.append((n, j, g_images))
    rows: list[bytes] = [b""] * len(fs)
    for i, row in zip(reps, pairing_table([fs[i] for i in reps], gs)):
        rows[i] = row
    for n, j, columns in steps:
        rows[n] = bytes(map(rows[j].__getitem__, columns))
    return tuple(rows)


def _gram_entries(src, tgt, t0: Fraction | None, cleared: bool = False) -> list[list]:
    """Tr(f o g) over the bases of Hom(src, tgt) and Hom(tgt, src), at t0 or
    in Q(t): fresh rows that look each exponent up in one list of powers.

    cleared=True gives b^top times the matrix at t0 = a/b, where top = l + m
    bounds every exponent: integer entries a^p b^(top - p), of the same rank."""
    rows = _pairing_exponents(src.flavor, src.data, tgt.data)
    top = sum(src.data) + sum(tgt.data)
    if t0 is None:
        powers = [t_power(p) for p in range(top + 1)]
    elif cleared:
        a, b = t0.numerator, t0.denominator
        powers = [a**p * b ** (top - p) for p in range(top + 1)]
    else:
        powers = [t0**p for p in range(top + 1)]
    return [[powers[p] for p in row] for row in rows]


def gram_matrix_symbolic(l, m, flavor: str = "S") -> list[list[RatFunc]]:
    """Trace-pairing Gram matrix over Q(t); entries are powers of t."""
    return _gram_entries(*_gram_space(l, m, flavor), None)


@dataclass
class GramReport:
    """Gram matrix of the trace pairing on Hom([l], [m]) at t0, or over Q(t)."""

    l: object
    m: object
    flavor: str
    t0: Fraction | None
    gram: list[list]
    rank: int
    nullity: int


def gram(l, m, t0: Fraction | int | None, flavor: str = "S") -> GramReport:
    """Exact Gram matrix and rank; t0 = None keeps entries symbolic in Q(t).

    The rank is linalg.integer_rank at t0, or at t = 1/2 for t0 = None: minors
    specialise, so rank G(1/2) <= rank G(t); a rank below |basis| raises ArithmeticError."""
    src, tgt = _gram_space(l, m, flavor)
    t0 = None if t0 is None else Fraction(t0)
    matrix = _gram_entries(src, tgt, t0)
    point = _GENERIC_POINT if t0 is None else t0
    rank = integer_rank(_gram_entries(src, tgt, point, cleared=True))
    if t0 is None and rank < len(matrix):
        raise ArithmeticError(f"Gram rank of Hom({src}, {tgt}) at t = 1/2: {rank} < {len(matrix)}")
    return GramReport(
        l=l, m=m, flavor=flavor, t0=t0, gram=matrix, rank=rank, nullity=len(matrix) - rank
    )


def gram_determinant_symbolic(l, m, flavor: str = "S") -> RatFunc:
    """Determinant of the symbolic Gram matrix (small Hom spaces only),
    refusing spaces over the budget before building the matrix.  An empty
    Hom basis, such as O's Hom([1], [0]), gives the 0 x 0 matrix, whose
    determinant is 1."""
    _gram_space(l, m, flavor, MAX_SYMBOLIC_DET_BASIS)
    matrix = gram_matrix_symbolic(l, m, flavor)
    return determinant(matrix) if matrix else RF_ONE


def is_negligible(f: Morphism, t0: Fraction | int) -> bool:
    """True iff Tr(f o g)(t0) = 0 for every basis diagram g: target -> source.
    Spaces over the Gram budget are refused before any g is enumerated."""
    _gram_space(f.source, f.target, f.source.flavor)
    t0 = Fraction(t0)
    diagrams = list(f.terms)
    coefficients = [c.eval(t0) for c in f.terms.values()]
    top = sum(f.source.data) + sum(f.target.data)
    powers = [t0**p for p in range(top + 1)]
    for g in hom_basis(f.target, f.source):
        # Tr(g o d) = Tr(d o g): one row of exponents per g, so the first
        # nonzero trace stops the scan
        (row,) = pairing_table([g], diagrams)
        if sum(c * powers[p] for c, p in zip(coefficients, row)):
            return False
    return True


def negligible_basis(l, m, t0: Fraction | int, flavor: str = "S") -> list[Morphism]:
    """Basis of the negligible subspace of Hom([l], [m]) at t = t0: the
    right_nullspace vectors of the transposed Gram matrix, taken over Z."""
    src, tgt = _gram_space(l, m, flavor)
    fs = hom_basis(src, tgt)
    out = []
    # f = sum a_i f_i is negligible iff a^T G = 0, i.e. a in the right
    # nullspace of G^T; G with its denominators cleared has the same one
    cleared = _gram_entries(src, tgt, Fraction(t0), cleared=True)
    transpose = [list(col) for col in zip(*cleared)]
    for vec in right_nullspace(transpose):
        terms = {d: RatFunc(a) for d, a in zip(fs, vec) if a}
        out.append(Morphism(src, tgt, terms))
    return out


def quotient_dim(l, m, n: int, flavor: str = "S") -> int:
    """Hom dimension in the negligible quotient at t = n: the Gram rank."""
    if n < 0:
        raise ValueError("quotient_dim expects a nonnegative integer n")
    return gram(l, m, n, flavor).rank


def annihilated_simples(n: int, max_size: int) -> list[Partition]:
    """All lambda with |lambda| <= max_size killed at t = n: |lambda| + lambda_1 > n."""
    if n < 0:
        raise ValueError("annihilated_simples expects a nonnegative integer n")
    out = []
    for k in range(max_size + 1):
        for lam in partitions_of(k):
            if lam and k + lam[0] > n:
                out.append(check_partition(lam))
    return out
