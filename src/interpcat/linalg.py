"""Exact linear algebra over a field (Fraction or RatFunc entries).

Only the handful of primitives the library needs: incremental sparse row
echelon for ranks of morphism spans, and one dense forward elimination that
gives ranks, determinants and (with back-substitution) nullspaces of Gram
matrices.  Entries may be any field elements supporting +, -, *, / and
truthiness as a zero test.
"""

from __future__ import annotations

from typing import Hashable, Iterator, Sequence


class SparseEchelon:
    """Incremental row echelon over sparse dict rows with hashable keys.

    Each row's pivot is its key with the smallest repr, so the elimination
    path depends only on the keys' reprs.
    """

    def __init__(self):
        self._rows: dict[Hashable, dict] = {}  # pivot key -> row with pivot 1

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, row: dict) -> bool:
        """Reduce a row against the basis; returns True if the rank grew."""
        row = {k: v for k, v in row.items() if v}
        while row:
            pivot = min(row, key=repr)
            basis_row = self._rows.get(pivot)
            if basis_row is None:
                pval = row[pivot]
                self._rows[pivot] = {k: v / pval for k, v in row.items()}
                return True
            factor = row[pivot]
            new_row = dict(row)
            for k, v in basis_row.items():
                delta = factor * v
                cur = new_row.get(k)
                val = (cur - delta) if cur is not None else -delta
                if val:
                    new_row[k] = val
                else:
                    new_row.pop(k, None)
            row = new_row
        return False


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
    """Basis of {v : A v = 0} for a dense matrix over a field.

    One vector per free column, in increasing column order, with a 1 in its
    free column and zeros in the other free columns.
    """
    rows = [list(r) for r in matrix]
    if not rows or not rows[0]:
        return []
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
