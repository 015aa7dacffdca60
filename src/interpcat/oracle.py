"""Classical-side ground truth: explicit matrices on tensor powers.

Every diagram acts on actual tensor powers of the n-dimensional permutation
(or standard) representation, and the composition law of the diagram algebra
must match honest matrix multiplication with t evaluated at n.  This module
is the desk-scale stand-in for the limit construction relating the
interpolation categories to the classical ones: structure constants are
verified pair by pair, and image ranks of idempotents give classical
dimensions of interpolated objects.

A matrix is a list of rows of Python ints, one row per target index and one
column per source index, within an explicit size budget.  Index tuples
flatten row-major with the first tensor factor most significant.  A
diagram's entry is 1 where its blocks can take values that give the row and
the column (distinct values for a delta matrix), and 0 elsewhere, so each
matrix is built from the flat-index weights of its blocks
(_block_weights): the e matrix from itertools.product over the block values,
one shifted copy of a single row per row (_relaxed_rows), the delta matrix
from itertools.permutations (_strict_rows).  A morphism's matrix sums
diagram matrices with arbitrary integer scales.

verify_structure_constants compares B A with n^power times the matrix of the
composite for every pair, one packed int per row (_packed): every slot holds
one exact entry, so the comparison is in full.  Ranks over Q are
linalg.integer_rank of integer rows: a rank mod 2^61 - 1, proved over Z by
kernel vectors, with exact Fraction elimination as the fallback.
"""

from __future__ import annotations

import math
from itertools import chain, compress, permutations, product, repeat
from operator import add, mul

from interpcat.diagrams import Diagram, PartitionDiagram, compose_diagrams
from interpcat.homspaces import Morphism, as_signature, hom_basis
from interpcat.karoubi import KaroubiObject
from interpcat.linalg import integer_rank
from interpcat.ratfunc import PoleError

MAX_ENTRIES = 10**6

# a 0/1 byte as an ASCII binary digit
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _check_budget(n: int, l: int, m: int):
    if n**l * n**m > MAX_ENTRIES:
        raise ValueError(
            f"matrix budget exceeded: n^(l+m) = {n ** (l + m)} > {MAX_ENTRIES}"
        )


def _block_weights(blocks, l: int, m: int, n: int) -> list[tuple[int, int, bool]]:
    """(source weight, target weight, has a target endpoint) per block: a
    block with value v adds v times its weights to the flat indices, since
    slot j of the source contributes value * n^(l-1-j)."""
    powers = [n**j for j in range(max(l, m))]
    weights = []
    for block in blocks:
        src = tgt = 0
        for x in block:
            if x > 0:
                src += powers[l - x]
            else:
                tgt += powers[m + x]
        weights.append((src, tgt, min(block) < 0))
    return weights


def _index_sums(weights: list[int], n: int) -> list[int]:
    """sum_g v_g weights[g] for every value assignment v, in the order of
    itertools.product(range(n), repeat=len(weights))."""
    sums = [0]
    for w in weights:
        sums = [s + x for s, x in product(sums, [w * v for v in range(n)])]
    return sums


def _relaxed_rows(weights, l: int, m: int, n: int) -> list[list[int]]:
    """e matrix: the blocks with a target endpoint fix the row and add a base
    to the column; the other blocks add the same offsets to every base, so
    each row is one shifted copy of the row with base 0."""
    width = n**l
    if not width:  # n = 0 and l > 0: no columns
        return [[] for _ in range(n**m)]
    fixed = [(src, tgt) for src, tgt, bottom in weights if bottom]
    # zeros, then the row with base 0: the row with base b is a window of it
    shifted = [0] * (2 * width)
    for offset in _index_sums([src for src, _, bottom in weights if not bottom], n):
        shifted[width + offset] = 1
    rows = [[0] * width for _ in range(n**m)]
    bases = _index_sums([src for src, _ in fixed], n)
    for base, row in zip(bases, _index_sums([tgt for _, tgt in fixed], n)):
        rows[row] = shifted[width - base : 2 * width - base]
    return rows


def _strict_rows(weights, l: int, m: int, n: int) -> list[list[int]]:
    """delta matrix: one 1 per assignment of distinct values to the blocks."""
    rows = [[0] * n**l for _ in range(n**m)]
    w_src = [src for src, _, _ in weights]
    w_tgt = [tgt for _, tgt, _ in weights]
    for vals in permutations(range(n), len(weights)):
        rows[sum(map(mul, vals, w_tgt))][sum(map(mul, vals, w_src))] = 1
    return rows


def _pattern_matrix(d: Diagram, n: int, distinct: bool) -> list[list[int]]:
    source, target = d._signature()
    l, m = sum(source), sum(target)
    _check_budget(n, l, m)
    build = _strict_rows if distinct else _relaxed_rows
    return build(_block_weights(d._blocks, l, m, n), l, m, n)


def delta_matrix(p: PartitionDiagram, n: int) -> list[list[int]]:
    """Matrix of the strict equality pattern: blocks take distinct values."""
    return _pattern_matrix(p, n, distinct=True)


def e_matrix(p: PartitionDiagram, n: int) -> list[list[int]]:
    """Matrix of the relaxed equality pattern: blocks take arbitrary values."""
    return _pattern_matrix(p, n, distinct=False)


def diagram_matrix(d: Diagram, n: int, basis: str = "e") -> list[list[int]]:
    """Classical matrix of a single diagram at parameter value n.

    basis = "delta" selects the strict-orbit matrix of an S diagram.  A
    matching (O, GL) has only the relaxed one: every edge is a delta
    contraction, cross edges acting as identity wires and same-row edges as
    evaluation or coevaluation under the dual-basis pairing.
    """
    return _pattern_matrix(d, n, distinct=basis == "delta" and d.flavor == "S")


def morphism_matrix(f: Morphism, n: int) -> tuple[list[list[int]], int]:
    """(numerator rows, denominator) of f's matrix with t evaluated at n.

    The rational matrix is numerators/denominator; a pole of any coefficient
    at t = n raises PoleError ("idempotent not defined at this integer").
    """
    sig_l, sig_m = f.source.size, f.target.size
    _check_budget(n, sig_l, sig_m)
    try:
        coeffs = {d: c.eval(n) for d, c in f.terms.items()}
    except PoleError as exc:
        raise PoleError(f"morphism not defined at this integer: {exc}") from exc
    denom = math.lcm(*(c.denominator for c in coeffs.values()))
    mat = [[0] * n**sig_l for _ in range(n**sig_m)]
    for d, c in coeffs.items():
        scale = c.numerator * (denom // c.denominator)
        mat = [
            list(map(add, acc, map(scale.__mul__, row)))
            for acc, row in zip(mat, diagram_matrix(d, n))
        ]
    return mat, denom


def _slot_width(middle: int, scale: int) -> int:
    """Bits per slot of _packed in verify_structure_constants.

    An entry of B A counts middle indices, so it is at most middle = n^m; an
    entry of n^power C is 0 or scale = n^power.  Both sides are nonnegative
    and compared for equality, so w = the bit length of the larger bound is
    the narrowest width at which no slot carries into the next."""
    return max(middle, scale, 1).bit_length()


def _packed(row: list[int], w: int) -> int:
    """A 0/1 row as one int: entry s in the w-bit slot at 2^(w (len - 1 - s))."""
    digits = bytearray(b"0") * (len(row) * w)
    digits[w - 1 :: w] = bytes(row).translate(_DIGITS)
    return int(digits or b"0", 2)


def verify_structure_constants(l, m, k, n: int, flavor: str = "S") -> dict:
    """Check matrix fidelity of the composition law on Hom(l,m) x Hom(m,k).

    For every pair (A: l -> m, B: m -> k) of basis diagrams, the matrix
    product of B and A must equal n^power times the matrix of the composed
    diagram.  Rows are compared packed (_packed), w bits per entry: row r of
    B A is the sum of A's packed rows at the columns where row r of B has a
    1, and must equal n^power times the composite's packed row r.  w is
    _slot_width of n^m and the largest n^power of the call, so no slot
    carries and equal packed rows mean equal entries.  Each diagram's matrix
    is built once per call and kept only packed, or as the columns of its 1s;
    a matrix depends only on its diagram and n, so every pair is still
    checked against its own composite.  Returns
    {"pairs", "violations", "passed"}.
    """
    sl = as_signature(l, flavor)
    sm = as_signature(m, flavor)
    sk = as_signature(k, flavor)
    for a, b in ((sl, sm), (sm, sk), (sl, sk)):
        _check_budget(n, a.size, b.size)
    first_legs, second_legs = hom_basis(sl, sm), hom_basis(sm, sk)
    composites = [[compose_diagrams(b, a) for b in second_legs] for a in first_legs]
    top = max((power for row in composites for _, power in row), default=0)
    w = _slot_width(n**sm.size, n**top)
    middle = range(n**sm.size)
    # most rows are zero, and != with a zero row is the cheap test
    zero_middle, zero_source = [0] * n**sm.size, [0] * n**sl.size

    def pack(rows: list[list[int]]) -> list[int]:
        return [_packed(row, w) if row != zero_source else 0 for row in rows]

    # B enters through the columns of its 1s, A and the composites through
    # their packed rows; a B that is also one of those is packed from the
    # same build, and no dense matrix outlives its packing
    packed: dict[Diagram, list[int] | None] = dict.fromkeys(
        chain(first_legs, (c for row in composites for c, _ in row))
    )
    ones = []
    for b in second_legs:
        rows = diagram_matrix(b, n)
        ones.append([list(compress(middle, row)) if row != zero_middle else [] for row in rows])
        if b in packed:
            packed[b] = pack(rows)
    for d, rows in packed.items():
        if rows is None:
            packed[d] = pack(diagram_matrix(d, n))

    violations = []
    pairs = 0
    for a, a_composites in zip(first_legs, composites):
        rows_a = packed[a].__getitem__
        for b, ones_b, (composed, power) in zip(second_legs, ones, a_composites):
            pairs += 1
            lhs = list(map(sum, map(map, repeat(rows_a), ones_b)))
            scale = n**power
            if lhs != [scale * x for x in packed[composed]]:
                violations.append({"first": str(a), "second": str(b), "t_power": power})
    return {"pairs": pairs, "violations": violations, "passed": not violations}


def hom_dim_classical(l, m, n: int, flavor: str = "S") -> int:
    """Rank of the span of the classical diagram matrices of Hom(l, m).

    For the S flavor this is the span of the strict-orbit (delta) matrices;
    it equals the classical Hom dimension between tensor powers.
    """
    sl = as_signature(l, flavor)
    sm = as_signature(m, flavor)
    _check_budget(n, sl.size, sm.size)
    rows = [
        list(chain.from_iterable(diagram_matrix(d, n, basis="delta")))
        for d in hom_basis(sl, sm)
    ]
    return integer_rank(rows)


def functor_image_rank(X: KaroubiObject, n: int) -> int:
    """Classical dimension of the interpolated object at t = n.

    The image of ([m], e) under the interpolation functor is the image of
    e's matrix on the n-dimensional tensor power, so its dimension is the
    matrix rank (exact, over Q).
    """
    mat, _ = morphism_matrix(X.idem, n)
    return integer_rank(mat)
