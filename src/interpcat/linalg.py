"""Exact linear algebra: two primitives.

- integer_rank: the rank of a matrix of Python ints, computed mod the prime
  2^61 - 1 and proved over Z by kernel vectors, all checked in one product
  per row of packed integers.  Repeated rows and columns are dropped first.
  Every rank in the library is one.  right_nullspace returns the same
  kernel vectors, after dropping repeated rows only.  The elimination mod p
  reduces a value only where it is read (a pivot test, a multiplier, a
  pivot row when it is scaled, a back-substitution row before it is used);
  an update is a - x * b with 0 <= x, b < p, and an entry takes at most one
  per pivot, so with r pivots no entry exceeds p + r p^2 in absolute value.
  Every value read is the one an elimination reducing at each step reads.
- One dense forward elimination over a field (Fraction or RatFunc).  Over
  Q(t) it serves only determinant; over Q, the fallbacks of integer_rank
  and right_nullspace, and dense_rank, the tests' reference rank.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterator, Sequence


def _forward_eliminate(rows: list[list]) -> Iterator[tuple[int, bool]]:
    """Bring rows to row echelon form in place, by elimination with row swaps.

    Yields (pivot column, whether a row swap brought the pivot up) for pivot
    row 0, 1, ... in turn, before clearing the entries below that pivot, so a
    caller that stops early does no further arithmetic.  Pivot rows are not
    scaled; the entries left of each pivot are zero and are never touched.
    """
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        if r == len(rows):
            return
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        yield col, pivot_row != r
        prow = rows[r]
        pval = prow[col]
        for i in range(r + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / pval
                rows[i][col:] = [a - f * b for a, b in zip(rows[i][col:], prow[col:])]
        r += 1


def dense_rank(matrix: Sequence[Sequence]) -> int:
    """Rank of a dense matrix: the number of pivots of forward elimination."""
    return sum(1 for _ in _forward_eliminate([list(r) for r in matrix]))


def determinant(matrix: Sequence[Sequence]):
    """Determinant over a field: the signed product of the elimination pivots."""
    n = len(matrix)
    if n == 0:
        raise ValueError("determinant of an empty matrix is undefined here")
    if any(len(r) != n for r in matrix):
        raise ValueError("determinant needs a square matrix")
    rows = [list(r) for r in matrix]
    sign = 1
    det = None
    found = 0
    for col, swapped in _forward_eliminate(rows):
        if col != found:
            break  # a column without a pivot: singular
        if swapped:
            sign = -sign
        det = rows[col][col] if det is None else det * rows[col][col]
        found += 1
    if found < n:
        return rows[0][0] - rows[0][0]
    return det if sign == 1 else -det


def right_nullspace(matrix: Sequence[Sequence]) -> list[list]:
    """Basis of {v : A v = 0} for a dense matrix over a field, or of ints.

    One vector per free column, in increasing column order, with a 1 in its
    free column and zeros in the other free columns.  These vectors depend
    only on the row space, so repeated rows are dropped first; the columns,
    which the vectors index, are all kept.  A matrix of Python ints gets the
    same vectors, as Fractions, from its elimination mod p: they are the
    kernel vectors integer_rank lifts and checks over Z.  If the check
    passes, the pivot columns mod p are those over Q, and a kernel vector is
    fixed by its entries in the free columns, so each lifted vector is the
    one Fraction elimination gives.  If a lift or the check fails, the
    vectors come from Fraction elimination instead.
    """
    rows = [list(r) for r in dict.fromkeys(map(tuple, matrix))]
    if not rows or not rows[0]:
        return []
    if all(type(x) is int for row in rows for x in row):
        _, kernel = _lifted_kernel(rows)
        if kernel is None:
            return right_nullspace([[Fraction(x) for x in row] for row in rows])
        basis = []
        for lifted in kernel:
            vec = [Fraction(0)] * len(rows[0])
            for col, (num, den) in lifted.items():
                vec[col] = Fraction(num, den)
            basis.append(vec)
        return basis
    ncols = len(rows[0])
    zero = rows[0][0] - rows[0][0]
    one = type(zero)(1)
    pivots = [col for col, _ in _forward_eliminate(rows)]
    # back-substitution: scale each pivot to 1 and clear the entries above it
    for k in reversed(range(len(pivots))):
        col = pivots[k]
        prow = rows[k]
        pval = prow[col]
        prow[col:] = [v / pval for v in prow[col:]]
        for i in range(k):
            f = rows[i][col]
            if f:
                rows[i][col:] = [a - f * b for a, b in zip(rows[i][col:], prow[col:])]
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [zero] * ncols
        vec[free] = one
        for prow, pcol in zip(rows, pivots):
            vec[pcol] = -prow[free]
        basis.append(vec)
    return basis


_P = (1 << 61) - 1  # a Mersenne prime
_LIFT_BOUND = math.isqrt(_P // 2)  # numerator and denominator bound of a lifted residue


def _lift(u: int) -> tuple[int, int] | None:
    """(n, d) with n = u d mod p, |n| <= _LIFT_BOUND and 0 < d <= _LIFT_BOUND,
    by rational reconstruction (Wang 1981); None if the bound is missed."""
    r0, r1, s0, s1 = _P, u, 0, 1
    while r1 > _LIFT_BOUND:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > _LIFT_BOUND:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _eliminate_mod_p(rows: list[list[int]]) -> list[int]:
    """Bring rows of residues mod p to row echelon form mod p in place, each
    pivot scaled to 1; returns the pivot column of row 0, 1, ...

    An entry is reduced only where it is read: as row[col] % p, to find a
    pivot or the multiple x of the pivot row to subtract.  A row update is
    a - x * b with no reduction, and a pivot row is reduced once, when it is
    scaled.  So pivot row i holds residues from pivots[i] on, and every
    other entry is congruent mod p to the fully reduced elimination's (0
    left of a pivot).  Each update subtracts x * b with 0 <= x, b < p, and
    a row takes at most one update per pivot, so with r pivots no entry
    exceeds p + r p^2 in absolute value."""
    pivots: list[int] = []
    for col in range(len(rows[0])):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][col] % _P), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        inv = pow(rows[r][col], -1, _P)
        tail = [x * inv % _P for x in rows[r][col:]]
        rows[r][col:] = tail
        for row in rows[r + 1 :]:
            x = row[col] % _P
            if x:
                row[col:] = [a - x * b for a, b in zip(row[col:], tail)]
        pivots.append(col)
    return pivots


def _slot_width(rows: Sequence[Sequence[int]], vectors: list[dict[int, int]]) -> int:
    """Bits per slot in _annihilates: w = bitlen(max |A|) +
    bitlen(max_j sum |v_j|) + 2, so every (A v_j)_i is below 2^(w - 2) in
    absolute value."""
    top = max(max(max(row), -min(row)) for row in rows)
    norm = max(sum(map(abs, v.values())) for v in vectors)
    return top.bit_length() + norm.bit_length() + 2


def _annihilates(rows: Sequence[Sequence[int]], vectors: list[dict[int, int]]) -> bool:
    """Whether A v = 0 over Z for every integer vector v, given as
    {column: entry}, with one product per row of A for all of them.

    Column c is packed as sum_j v_j[c] 2^(w j), w = _slot_width, so row i
    times the packed columns is sum_j (A v_j)_i 2^(w j).  Each slot is below
    2^(w - 2) in absolute value, so the lowest nonzero slot is no multiple of
    2^w and leaves the sum nonzero: the sum is 0 exactly when every slot is 0."""
    if not vectors:
        return True
    w = _slot_width(rows, vectors)
    packed = [0] * len(rows[0])
    for j, v in enumerate(vectors):
        for col, x in v.items():
            packed[col] += x << (w * j)
    return not any(sum(map(mul, row, packed)) for row in rows)


def _lifted_kernel(rows: Sequence[Sequence[int]]) -> tuple[int, list[dict] | None]:
    """(r, kernel) for a matrix of ints: r pivots of its elimination mod p,
    and for each free column in increasing order the kernel vector read off
    the echelon form, with 1 there and 0 in the other free columns, lifted to
    rationals as {column: (numerator, denominator)} on its nonzero entries.
    kernel is None as soon as a lift fails, or if the vectors, their
    denominators cleared, miss A v = 0 over Z (one _annihilates check)."""
    residues = [[x % _P for x in row] for row in rows]
    pivots = _eliminate_mod_p(residues)
    r = len(pivots)
    pivot_set = set(pivots)
    free = [c for c in range(len(rows[0])) if c not in pivot_set]
    # back-substitution on the free columns only: afterwards pivot row i reads
    # 1 at pivots[i], 0 at the other pivot columns and blocks[i] at the free
    # ones.  As in _eliminate_mod_p, an update is a - x * b, unreduced (x lies
    # in a pivot row's reduced tail), and blocks[k] is reduced once, when it
    # is final and used as below
    blocks = [[row[f] for f in free] for row in residues[:r]]
    for k in reversed(range(r)):
        col = pivots[k]
        blocks[k] = below = [b % _P for b in blocks[k]]
        for i in range(k):
            x = residues[i][col]
            if x:
                blocks[i] = [a - x * b for a, b in zip(blocks[i], below)]
    kernel, cleared = [], []
    for j, f in enumerate(free):
        # v[f] = 1, v[pivots[i]] = -blocks[i][j], 0 elsewhere
        lifted = {f: (1, 1)}
        for i, col in enumerate(pivots):
            if blocks[i][j]:
                entry = _lift(_P - blocks[i][j])
                if entry is None:
                    return r, None
                lifted[col] = entry
        denom = math.lcm(*(d for _, d in lifted.values()))
        kernel.append(lifted)
        cleared.append({col: n * (denom // d) for col, (n, d) in lifted.items()})
    return r, kernel if _annihilates(rows, cleared) else None


def integer_rank(matrix: Sequence[Sequence[int]]) -> int:
    """Exact rank of a matrix of Python ints, certified over Z.

    Repeated rows, then repeated columns, are dropped first; neither changes
    the rank, and a matrix of equal entries becomes 1 x 1.  The rows stay
    rows, and the matrix is turned only if it has more columns than rows.
    Elimination mod p = 2^61 - 1 gives r pivots, and r <= rank over Q,
    because a minor that is nonzero mod p is nonzero over Z.  Each free column
    gets the kernel vector with a 1 there and 0 in the other free columns; its
    residues are lifted to rationals, its denominators cleared, and A v = 0 is
    checked over Z for all the vectors at once (_annihilates).  The vectors
    are independent, so when the check passes the rank is at most r, hence
    exactly r.  If a lift or the check fails, the rank comes from Fraction
    elimination instead: the prime alone never decides it.
    """
    rows = list(dict.fromkeys(map(tuple, matrix)))
    if not rows or not rows[0]:
        return 0
    columns = list(dict.fromkeys(zip(*rows)))
    rows = columns if len(columns) > len(rows) else list(zip(*columns))
    rank, kernel = _lifted_kernel(rows)
    if kernel is not None:
        return rank
    return dense_rank([[Fraction(x) for x in row] for row in rows])
