"""Classical-side ground truth: explicit matrices on tensor powers.

Every diagram acts on actual tensor powers of the n-dimensional permutation
(or standard) representation, and the composition law of the diagram algebra
must match honest matrix multiplication with t evaluated at n.  This module
is the desk-scale stand-in for the limit construction relating the
interpolation categories to the classical ones: structure constants are
verified pair by pair, and image ranks of idempotents give classical
dimensions of interpolated objects.

Diagram matrices are numpy int64 within an explicit size budget: their
entries are 0/1 and the entries of their products are bounded by
n^l <= 10^6, far below overflow.  A morphism's matrix sums diagram matrices
with arbitrary integer scales, so it is accumulated in Python ints
(dtype=object).  Ranks over Q are linalg.integer_rank of these integer
matrices: a rank mod 2^61 - 1, proved over Z by kernel vectors, with exact
Fraction elimination as the fallback.
"""

from __future__ import annotations

import math

import numpy as np

from interpcat.diagrams import Diagram, PartitionDiagram, compose_diagrams
from interpcat.homspaces import Morphism, as_signature, hom_basis
from interpcat.karoubi import KaroubiObject
from interpcat.linalg import integer_rank
from interpcat.ratfunc import PoleError

MAX_ENTRIES = 10**6


def _check_budget(n: int, l: int, m: int):
    if n**l * n**m > MAX_ENTRIES:
        raise ValueError(
            f"matrix budget exceeded: n^(l+m) = {n ** (l + m)} > {MAX_ENTRIES}"
        )


def _group_weights(groups, l: int, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-group contributions to the flat source/target indices.

    Index tuples flatten row-major with the first tensor factor most
    significant, so slot j of the source contributes value * n^(l-1-j).
    """
    w_src = np.zeros(len(groups), dtype=np.int64)
    w_tgt = np.zeros(len(groups), dtype=np.int64)
    for g, members in enumerate(groups):
        for x in members:
            if x > 0:
                w_src[g] += n ** (l - x)
            else:
                w_tgt[g] += n ** (m + x)
    return w_src, w_tgt


def _assignment_matrix(count: int, n: int) -> np.ndarray:
    """All n^count value assignments, one per row."""
    if count == 0:
        return np.zeros((1, 0), dtype=np.int64)
    return np.indices((n,) * count, dtype=np.int64).reshape(count, -1).T


def _contraction_matrix(groups, l: int, m: int, n: int, distinct: bool) -> np.ndarray:
    """0/1 matrix with a 1 wherever each group of endpoints shares one value."""
    mat = np.zeros((n**m, n**l), dtype=np.int64)
    if distinct and len(groups) > n:
        return mat
    vals = _assignment_matrix(len(groups), n)
    if distinct and len(groups) > 1:
        ordered = np.sort(vals, axis=1)
        vals = vals[(np.diff(ordered, axis=1) != 0).all(axis=1)]
    w_src, w_tgt = _group_weights(groups, l, m, n)
    mat[vals @ w_tgt, vals @ w_src] = 1
    return mat


def _pattern_matrix(d: Diagram, n: int, distinct: bool) -> np.ndarray:
    source, target = d._signature()
    l, m = sum(source), sum(target)
    _check_budget(n, l, m)
    return _contraction_matrix(d._blocks, l, m, n, distinct)


def delta_matrix(p: PartitionDiagram, n: int) -> np.ndarray:
    """Matrix of the strict equality pattern: blocks take distinct values."""
    return _pattern_matrix(p, n, distinct=True)


def e_matrix(p: PartitionDiagram, n: int) -> np.ndarray:
    """Matrix of the relaxed equality pattern: blocks take arbitrary values."""
    return _pattern_matrix(p, n, distinct=False)


def diagram_matrix(d: Diagram, n: int, basis: str = "e") -> np.ndarray:
    """Classical matrix of a single diagram at parameter value n.

    basis = "delta" selects the strict-orbit matrix of an S diagram.  A
    matching (O, GL) has only the relaxed one: every edge is a delta
    contraction, cross edges acting as identity wires and same-row edges as
    evaluation or coevaluation under the dual-basis pairing.
    """
    return _pattern_matrix(d, n, distinct=basis == "delta" and d.flavor == "S")


def morphism_matrix(f: Morphism, n: int) -> tuple[np.ndarray, int]:
    """(numerator matrix, denominator) of f's matrix with t evaluated at n.

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
    # exact integers: int64 would wrap silently on large scales
    mat = np.zeros((n**sig_m, n**sig_l), dtype=object)
    for d, c in coeffs.items():
        scale = c.numerator * (denom // c.denominator)
        mat = mat + scale * diagram_matrix(d, n).astype(object)
    return mat, denom


def verify_structure_constants(l, m, k, n: int, flavor: str = "S") -> dict:
    """Check matrix fidelity of the composition law on Hom(l,m) x Hom(m,k).

    For every pair (A: l -> m, B: m -> k) of basis diagrams, the matrix
    product of B and A must equal n^power times the matrix of the composed
    diagram.  Each diagram's matrix is built once per call, in one dict that
    serves both legs and every composite; a matrix depends only on its
    diagram and n, so every pair is still checked against its own
    composite.  Returns {"pairs", "violations", "passed"}.
    """
    sl = as_signature(l, flavor)
    sm = as_signature(m, flavor)
    sk = as_signature(k, flavor)
    for a, b in ((sl, sm), (sm, sk), (sl, sk)):
        _check_budget(n, a.size, b.size)
    matrices: dict[Diagram, np.ndarray] = {}

    def matrix(d: Diagram) -> np.ndarray:
        if d not in matrices:
            matrices[d] = diagram_matrix(d, n)
        return matrices[d]

    second_legs = hom_basis(sm, sk)
    violations = []
    pairs = 0
    for a in hom_basis(sl, sm):
        mat_a = matrix(a)
        for b in second_legs:
            pairs += 1
            composed, power = compose_diagrams(b, a)
            lhs = matrix(b) @ mat_a
            rhs = n**power * matrix(composed)
            if not np.array_equal(lhs, rhs):
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
    rows = [diagram_matrix(d, n, basis="delta").reshape(-1).tolist() for d in hom_basis(sl, sm)]
    return integer_rank(rows)


def functor_image_rank(X: KaroubiObject, n: int) -> int:
    """Classical dimension of the interpolated object at t = n.

    The image of ([m], e) under the interpolation functor is the image of
    e's matrix on the n-dimensional tensor power, so its dimension is the
    matrix rank (exact, over Q).
    """
    mat, _ = morphism_matrix(X.idem, n)
    return integer_rank(mat.tolist())
