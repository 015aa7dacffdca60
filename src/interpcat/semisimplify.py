"""Negligible morphisms and the semisimplification at integer t.

The trace pairing (f, g) -> Tr(f o g) between Hom([l], [m]) and
Hom([m], [l]) becomes degenerate exactly at the integer specializations
where the interpolation category fails to be semisimple.  Its radical is the
ideal of negligible morphisms; quotient Hom dimensions recover the classical
Hom dimensions, and the simples killed by the quotient are the L(lambda)
with |lambda| + lambda_1 > n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from interpcat.diagrams import basis_size, closure_components, compose_diagrams
from interpcat.homspaces import Morphism, as_signature, hom_basis
from interpcat.partitions import check_partition, partitions_of
from interpcat.linalg import dense_rank, determinant, right_nullspace
from interpcat.ratfunc import RatFunc, t_power

Partition = tuple[int, ...]

# Largest Hom basis whose Gram matrix is built: S gram(3, 3) is 203 x 203 and
# ranks in about a second; gram(4, 4) would be 4140 x 4140.
MAX_GRAM_BASIS = 300


def _gram_bases(l, m, flavor: str):
    """Signatures of [l] and [m] and bases of Hom(l, m) and Hom(m, l),
    refusing spaces over the size budget before enumerating them."""
    src = as_signature(l, flavor)
    tgt = as_signature(m, flavor)
    size = basis_size(src.flavor, src.data, tgt.data)
    if size > MAX_GRAM_BASIS:
        raise ValueError(
            f"Gram budget exceeded: Hom({src}, {tgt}) has {size} > {MAX_GRAM_BASIS} diagrams"
        )
    return src, tgt, hom_basis(src, tgt), hom_basis(tgt, src)


def _pairing_power(f, g) -> int:
    """Exponent of t in Tr(f o g) for basis diagrams f: l->m, g: m->l."""
    d, middle = compose_diagrams(f, g)
    return middle + closure_components(d)


def _gram_entries(fs, gs, t0: Fraction | None) -> list[list]:
    """Tr(f o g) for f in fs (rows) and g in gs (columns), at t0 or in Q(t)."""
    powers = [[_pairing_power(f, g) for g in gs] for f in fs]
    if t0 is None:
        return [[t_power(p) for p in row] for row in powers]
    return [[t0**p for p in row] for row in powers]


def gram_matrix_symbolic(l, m, flavor: str = "S") -> list[list[RatFunc]]:
    """Trace-pairing Gram matrix over Q(t); entries are powers of t."""
    _, _, fs, gs = _gram_bases(l, m, flavor)
    return _gram_entries(fs, gs, None)


@dataclass
class GramReport:
    """Gram matrix of the trace pairing on Hom([l], [m]) at a rational point."""

    l: object
    m: object
    flavor: str
    t0: Fraction | None
    gram: list[list]
    rank: int
    nullity: int
    basis: str = "e"


def gram(l, m, t0: Fraction | int | None, flavor: str = "S") -> GramReport:
    """Exact Gram matrix and rank; t0 = None keeps entries symbolic in Q(t)."""
    _, _, fs, gs = _gram_bases(l, m, flavor)
    if t0 is not None:
        t0 = Fraction(t0)
    matrix = _gram_entries(fs, gs, t0)
    rank = dense_rank(matrix) if matrix else 0
    size = len(fs)
    return GramReport(
        l=l, m=m, flavor=flavor, t0=t0, gram=matrix, rank=rank, nullity=size - rank
    )


# Largest Hom basis whose symbolic Gram determinant is expanded over Q(t).
MAX_SYMBOLIC_DET_BASIS = 15


def gram_determinant_symbolic(l, m, flavor: str = "S") -> RatFunc:
    """Determinant of the symbolic Gram matrix (small Hom spaces only),
    refusing spaces over the budget before building the matrix."""
    src, tgt = as_signature(l, flavor), as_signature(m, flavor)
    size = basis_size(src.flavor, src.data, tgt.data)
    if size > MAX_SYMBOLIC_DET_BASIS:
        raise ValueError(
            f"symbolic Gram determinant supported up to {MAX_SYMBOLIC_DET_BASIS} basis"
            f" diagrams: Hom({src}, {tgt}) has {size}"
        )
    return determinant(gram_matrix_symbolic(l, m, flavor))


def is_negligible(f: Morphism, t0: Fraction | int) -> bool:
    """True iff Tr(f o g)(t0) = 0 for every basis diagram g: target -> source."""
    t0 = Fraction(t0)
    coefficients = [(d, c.eval(t0)) for d, c in f.terms.items()]
    for g in hom_basis(f.target, f.source):
        total = Fraction(0)
        for d, c in coefficients:
            total += c * t0 ** _pairing_power(d, g)
        if total:
            return False
    return True


def negligible_basis(l, m, t0: Fraction | int, flavor: str = "S") -> list[Morphism]:
    """Basis of the negligible subspace of Hom([l], [m]) at t = t0."""
    src, tgt, fs, gs = _gram_bases(l, m, flavor)
    out = []
    # f = sum a_i f_i is negligible iff a^T G = 0, i.e. a in the right
    # nullspace of G^T
    transpose = [list(col) for col in zip(*_gram_entries(fs, gs, Fraction(t0)))]
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
