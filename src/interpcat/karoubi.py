"""Karoubian-envelope objects ([m], e) and the classification machinery.

Indecomposables are indexed by partitions (S, O) or bipartitions (GL).  The
library never materializes a primitive idempotent for L(lambda); instead it
works with the symmetrizer objects Y_lambda = ([|lambda|], y_lambda), whose
decomposition matrix K(lambda, mu) = [Y_lambda : L(mu)] is unitriangular with
respect to size.  One routine builds y_lambda for every flavor: the tensor
product of the normalized Young symmetrizers of the label's parts (lambda
itself for S and O; the black and then the white partition for GL), each
part's permutations on its own block of strands.

Each Y_lambda is built once per process and shared (symmetrizer_object).
y_lambda is idempotent by construction, so Y_lambda is the one object that
skips the exact check f o f = f; every other KaroubiObject runs it, and so do
promote and the idem-check command.

Every multiplicity comes from one exact trace per Hom space and one
triangular solve (_multiplicities): [X : L(lambda)] is dim Hom(X, Y_lambda),
minus K(lambda, mu) [X : L(mu)] over the strictly smaller mu, by induction
on size.  Hom(X, Y) is the image of the idempotent P(d) = e_Y o d o e_X on
the diagram space, so its dimension is the trace of P: the sum over basis
diagrams d of the coefficient of d in e_Y o d o e_X.  Both halves of the
sandwich go through the homspaces composition kernel: d o e_X once per basis
diagram d, and e_Y o m once per diagram m of the Hom space that those reach,
indexed by m within the one Hom space.  The sum is a constant of Q(t).  Each
idempotent is scaled once to clear the denominators of its constant
coefficients (homspaces._integral_terms, as in compose and trace), the sum
runs over Z, and one division ends it; no dimension is taken at a sample
point, so every generic-t answer is exact and independent of any seed.  K
has one home, _symmetrizer_decomposition: the same solve with X = Y_lambda
over the labels below lambda.  The generic dimensions of simples follow by
the trace accounting
dim L(lambda) = tr(y_lambda) - sum K(lambda, mu) dim L(mu).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from interpcat.diagrams import (
    DIAGRAM_CLASSES,
    partition_diagram,
    walled_diagram,
)
from interpcat.homspaces import (
    Morphism,
    ObjectSignature,
    _compose_terms,
    _integral_terms,
    as_signature,
    compose,
    diagram_morphism,
    hom_basis,
    identity,
    trace,
)
from interpcat.partitions import check_partition, conjugate, sn_irrep_dimension
from interpcat.ratfunc import RatFunc, RF_ONE, RF_T, constant_or_self

Partition = tuple[int, ...]
Bipartition = tuple[Partition, Partition]


class SizeBudgetError(ValueError):
    """Raised when a recursion would exceed the desk-scale size budget."""


# ---------------------------------------------------------------------------
# permutation diagrams and symmetrizers


def _row_fill(lam: Partition) -> list[list[int]]:
    """Canonical tableau: 1..n filled row by row."""
    rows, nxt = [], 1
    for row_len in lam:
        rows.append(list(range(nxt, nxt + row_len)))
        nxt += row_len
    return rows


def _subgroup_perms(n: int, cells: list[list[int]]):
    """All permutations of 1..n stabilizing each cell set, as n-tuples."""
    perms_per_cell = [list(itertools.permutations(cell)) for cell in cells]
    for choice in itertools.product(*perms_per_cell):
        sigma = list(range(1, n + 1))
        for cell, image in zip(cells, choice):
            for src, dst in zip(cell, image):
                sigma[src - 1] = dst
        yield tuple(sigma)


def _perm_sign(sigma: tuple[int, ...]) -> int:
    seen = [False] * len(sigma)
    sign = 1
    for i in range(len(sigma)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = sigma[j] - 1
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _perm_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """(a b)(i) = a(b(i))."""
    return tuple(a[b[i] - 1] for i in range(len(a)))


def permutation_morphism(sigma: tuple[int, ...], flavor: str = "S") -> Morphism:
    """Embed sigma in End([n]) via the diagram {i, sigma(i)'}; flavors S and O."""
    sig = as_signature(len(sigma), flavor)
    blocks = [(i, -sigma[i - 1]) for i in range(1, len(sigma) + 1)]
    return diagram_morphism(DIAGRAM_CLASSES[flavor]._build(sig.data, sig.data, blocks))


def _symmetrizer_terms(lam: Partition) -> list[tuple[tuple[int, ...], int]]:
    """(permutation, sign) pairs of the normalized Young symmetrizer y_lam,
    for a checked partition lam."""
    n = sum(lam)
    rows = _row_fill(lam)
    cols = [[rows[i][j] for i in range(len(lam)) if lam[i] > j] for j in range(lam[0] if lam else 0)]
    out = []
    for p in _subgroup_perms(n, rows):
        for q in _subgroup_perms(n, cols):
            out.append((_perm_mul(p, q), _perm_sign(q)))
    return out


def _symmetrizer(flavor: str, lam) -> Morphism:
    """y_lam as the tensor product of the parts' Young symmetrizers, each
    part's permutations shifted onto its own block of strands.  Terms come
    part by part (GL: blacks, then whites), each in _symmetrizer_terms order."""
    parts = _parts(flavor, _normalize_label(flavor, lam))
    data = tuple(sum(p) for p in parts)
    sig = ObjectSignature(flavor, data)
    norm = math.prod(Fraction(sn_irrep_dimension(p), math.factorial(sum(p))) for p in parts)
    build = DIAGRAM_CLASSES[flavor]._build
    terms: dict = {}
    for choice in itertools.product(*(_symmetrizer_terms(p) for p in parts)):
        blocks, offset, sign = [], 0, 1
        for sigma, part_sign in choice:
            blocks += [(offset + i, -(offset + j)) for i, j in enumerate(sigma, 1)]
            offset += len(sigma)
            sign *= part_sign
        # a row permutation times a column permutation is never repeated,
        # so each diagram gets exactly one term
        terms[build(data, data, blocks)] = RatFunc(sign * norm)
    return Morphism(sig, sig, terms)


# Most terms of a symmetrizer that the CLI's young builds.  A row permutation
# times a column permutation is never repeated, so a label of size n has at
# most n! terms: every label of size 7 passes.  young --lambda [7] (5040
# terms) takes about 0.9 s on a 2-CPU VM, [4, 4] (9216) 1.4 s, and [9] did
# not finish in 20 s.
MAX_SYMMETRIZER_TERMS = 5040


def symmetrizer_terms(lam: Label, flavor: str = "S") -> int:
    """Number of terms of y_lam: prod lam_i! prod lam'_j!, over the black and
    the white partition for GL."""
    parts = _parts(flavor, lam)
    return math.prod(math.factorial(x) for p in parts for x in p + conjugate(p))


def young_symmetrizer(lam: Label, flavor: str = "S") -> Morphism:
    """The idempotent (dim/n!) a_lam b_lam in End([n]), n = |lam|.

    For flavor O, the same group-algebra element embedded in the Brauer
    algebra via permutation matchings.  For flavor GL, lam is a bipartition
    (black, white) and y_lam = y_black (x) y_white on [|black|, |white|].
    """
    return _symmetrizer(flavor, lam)


def bipartition_symmetrizer(bip: Bipartition) -> Morphism:
    """y_black (x) y_white on [r, s] = [|black|, |white|], GL flavor."""
    return _symmetrizer("GL", bip)


def is_idempotent(f: Morphism) -> bool:
    """Exact check f o f = f; raises if f is not an endomorphism."""
    if f.source != f.target:
        raise ValueError("idempotency is only defined for endomorphisms")
    return compose(f, f) == f


def special_p(n: int) -> Morphism:
    """The idempotent with strands 1..n-2 and block {n-1, n, (n-1)', n'}."""
    if n <= 1:
        raise ValueError("special_p needs n > 1")
    blocks = [(i, -i) for i in range(1, n - 1)] + [(n - 1, n, -(n - 1), -n)]
    return diagram_morphism(partition_diagram(n, n, blocks))


# ---------------------------------------------------------------------------
# promotion: idempotents one size up


def _phi_s(n: int):
    """phi_n: [n-1] -> [n] and phi'_n: [n] -> [n-1], with phi' phi = id."""
    phi = partition_diagram(
        n - 1, n, [(i, -i) for i in range(1, n - 1)] + [(n - 1, -(n - 1), -n)]
    )
    phi_p = partition_diagram(
        n, n - 1, [(i, -i) for i in range(1, n - 1)] + [(n - 1, n, -(n - 1))]
    )
    return diagram_morphism(phi), diagram_morphism(phi_p)


def _phi_gl(r: int, s: int):
    """phi: [r-1, s-1] -> [r, s] with a coevaluation cup; phi' phi = t id."""
    pairs = [(i, -i) for i in range(1, r)]
    pairs += [((r - 1) + j, -(r + 1 + j)) for j in range(1, s)]  # white j -> white j+1
    pairs.append((-r, -(r + 1)))  # cup: target black r, target white 1
    phi = walled_diagram((r - 1, s - 1), (r, s), pairs)
    pairs_p = [(i, -i) for i in range(1, r)]
    pairs_p += [(r + 1 + j, -((r - 1) + j)) for j in range(1, s)]
    pairs_p.append((r, r + 1))  # cap: source black r, source white 1
    phi_p = walled_diagram((r, s), (r - 1, s - 1), pairs_p)
    return diagram_morphism(phi), diagram_morphism(phi_p)


def _phi_gl_t0(r: int, s: int) -> Morphism:
    """The t = 0 replacement for phi, with phi' phi = id exactly."""
    if s >= 2:
        pairs = [(i, -i) for i in range(1, r)]
        pairs.append((r, -(r + 1)))  # white 1 -> white 1
        pairs += [((r - 1) + j, -(r + j + 1)) for j in range(2, s)]  # white j -> j+1
        pairs.append((-r, -(r + 2)))  # cup: target black r, target white 2
        return diagram_morphism(walled_diagram((r - 1, s - 1), (r, s), pairs))
    if s == 1 and r >= 2:
        pairs = [(i, -i) for i in range(1, r - 1)]
        pairs.append((r - 1, -r))  # last black slides over
        pairs.append((-(r - 1), -(r + 1)))  # cup: target black r-1, target white 1
        return diagram_morphism(walled_diagram((r - 1, 0), (r, 1), pairs))
    raise ValueError("no t = 0 promotion from End([0, 0])")


def promote(f: Morphism, t_is_zero: bool = False) -> Morphism:
    """Idempotent one size up realizing ([n], f~) ~ ([n-1], f).

    S flavor: f in End([m]) -> f~ in End([m+1]); GL flavor: f in
    End([r-1, s-1]) -> f~ in End([r, s]) (with the 1/t normalization unless
    t_is_zero, in which case the separate t = 0 diagrams are used).
    """
    if not is_idempotent(f):
        raise ValueError("promote needs an idempotent input")
    flavor = f.source.flavor
    if flavor == "S":
        m = f.source.data[0]
        if m == 0:
            if t_is_zero:
                raise ValueError("L(empty) does not promote at t = 0")
            mu = diagram_morphism(partition_diagram(0, 1, [(-1,)]))
            mu_p = diagram_morphism(partition_diagram(1, 0, [(1,)]))
            return compose(mu, compose(f, mu_p)) / RF_T
        phi, phi_p = _phi_s(m + 1)
        return compose(phi, compose(f, phi_p))
    if flavor == "GL":
        a, b = f.source.data
        r, s = a + 1, b + 1
        phi, phi_p = _phi_gl(r, s)
        if t_is_zero:
            return compose(_phi_gl_t0(r, s), compose(f, phi_p))
        return compose(phi, compose(f, phi_p)) / RF_T
    raise ValueError(
        "promotion is available for flavors S and GL only"
        " (the Brauer tower is outside this library's classification scope)"
    )


# ---------------------------------------------------------------------------
# Karoubi objects


@dataclass
class KaroubiObject:
    """A pair (signature, idempotent endomorphism)."""

    sig: ObjectSignature
    idem: Morphism

    def __post_init__(self):
        if self.idem.source != self.sig or self.idem.target != self.sig:
            raise ValueError("idempotent signature does not match the object")
        if not is_idempotent(self.idem):
            raise ValueError("KaroubiObject needs an exactly idempotent morphism")

    @classmethod
    def _trusted(cls, idem: Morphism) -> KaroubiObject:
        """(idem.source, idem) without the idempotency check, for an idem
        that is idempotent by construction (y_lam only)."""
        obj = cls.__new__(cls)
        obj.sig, obj.idem = idem.source, idem
        return obj


def object_of_identity(sig: ObjectSignature) -> KaroubiObject:
    return KaroubiObject(sig, identity(sig))


# labels for simples -------------------------------------------------------

Label = tuple  # Partition for S/O, Bipartition for GL


def _parts(flavor: str, lam: Label) -> tuple[Partition, ...]:
    """The partitions a label is made of: (lam,) for S and O, and
    (black, white) for GL."""
    if flavor == "GL":
        try:
            black, white = lam
        except (TypeError, ValueError):
            raise ValueError(
                f"{lam!r} is not a bipartition (expected a (black, white) pair)"
            ) from None
        return black, white
    return (lam,)


def _label_data(flavor: str, lam: Label) -> tuple[int, ...]:
    """Signature data of Y_lam: (|lam|,), or (|black|, |white|) for GL."""
    return tuple(sum(p) for p in _parts(flavor, lam))


def _label_size(flavor: str, lam: Label) -> int:
    return sum(_label_data(flavor, lam))


def _labels_below(flavor: str, lam: Label) -> list[Label]:
    """Labels of simples that can occur in Y_lam besides lam itself."""
    data = _label_data(flavor, lam)
    labels = DIAGRAM_CLASSES[flavor]._labels(data)
    return [mu for mu in labels if _label_size(flavor, mu) < sum(data)]


def symmetrizer_object(lam: Label, flavor: str = "S") -> KaroubiObject:
    """Y_lam = ([|lam|], y_lam): contains L(lam) once plus smaller simples.

    The object is built once per process and shared by every caller, as the
    compose_diagrams composites are, so it must not be mutated."""
    return _symmetrizer_object(flavor, _normalize_label(flavor, lam))


# bounded: one object per normalized label, and a classify round asks for 52
@lru_cache(maxsize=256)
def _symmetrizer_object(flavor: str, lam: Label) -> KaroubiObject:
    """Y_lam for a normalized label.  y_lam = (f^lam / n!) a_lam b_lam, or a
    tensor product of two such for GL, is idempotent by construction, so it
    is not checked again; the tests check every y_lam of S and O up to size 5
    and of GL up to total size 4."""
    return KaroubiObject._trusted(young_symmetrizer(lam, flavor))


# ---------------------------------------------------------------------------
# generic multiplicities


def _hom_dim(X: KaroubiObject, Y: KaroubiObject) -> int:
    """dim Hom(X, Y) at generic t: the trace of the idempotent
    P(d) = e_Y o d o e_X on the diagram space Hom(x, y).

    Over a field of characteristic 0 the trace of an idempotent is its rank,
    so dim Hom(X, Y) is the sum over basis diagrams d of the coefficient of d
    in e_Y o d o e_X: an exact constant of Q(t), with no elimination and no
    sample point.  Both halves of the sandwich go through the homspaces
    kernel: R_d = d o e_X once per basis diagram d, and L_m = e_Y o m once
    per diagram m that some R_d reaches, in a dict local to this Hom space;
    the trace is the sum over d and m of R_d[m] L_m[d].  Each idempotent is
    first scaled by the lcm n of its constant coefficients' denominators
    (homspaces._integral_terms), so the sum runs over Z, and over Q(t) only
    where a t enters it, from a closed loop or a non-constant coefficient;
    one division by n_X n_Y ends it.  A sum that is not a multiple q n_X n_Y
    with q an integer in [0, |basis|] means an idempotent was wrong, and
    raises ArithmeticError."""
    basis = hom_basis(X.sig, Y.sig)
    nx, ex = _integral_terms(X.idem)
    ny, ey = _integral_terms(Y.idem)
    left: dict = {}
    total = 0
    for d in basis:
        for m, cm in _compose_terms([(d, 1)], ex).items():
            if not cm:
                continue
            if m not in left:
                left[m] = _compose_terms(ey, [(m, 1)])
            c = left[m].get(d)
            if c:
                total += cm * c
    total = constant_or_self(total)
    if not isinstance(total, RatFunc):
        q, r = divmod(total, nx * ny)
        if not r and 0 <= q <= len(basis):
            return q
    raise ArithmeticError(
        f"the trace {total / Fraction(nx * ny)} of e_Y o - o e_X is not a dimension"
    )


# bounded: one small dict per symmetrizer label
@lru_cache(maxsize=256)
def _symmetrizer_decomposition(flavor: str, lam: Label) -> dict[Label, int]:
    """K(lam, mu) = [Y_lam : L(mu)] for the strictly smaller mu, exactly: the
    one home of K.  K is unitriangular, K(lam, lam) = 1 and every other
    constituent of Y_lam is strictly smaller, so the recursion decreases size.

    y_lam and every y_mu are Q-combinations of permutation diagrams, and
    composing a permutation diagram with any diagram closes no loop and no
    middle component.  So every sandwich y_lam o d o y_mu has constant
    coefficients, and each Hom dimension is a trace summed over Z after
    clearing the denominators of y_lam and y_mu, with one division and no
    sample point.
    """
    return _multiplicities(_symmetrizer_object(flavor, lam), _labels_below(flavor, lam))


def _multiplicities(X: KaroubiObject, labels: list[Label]) -> dict[Label, int]:
    """[X : L(lam)] for each label, in size order: dim Hom(X, Y_lam) minus
    K(lam, mu) [X : L(mu)] over the strictly smaller mu, exactly."""
    flavor = X.sig.flavor
    mult: dict[Label, int] = {}
    for lam in labels:
        value = _hom_dim(X, _symmetrizer_object(flavor, lam))
        for mu, k in _symmetrizer_decomposition(flavor, lam).items():
            value -= k * mult[mu]
        if value < 0:
            raise ValueError(f"negative multiplicity of L({lam}): the K system is inconsistent")
        mult[lam] = value
    return mult


def multiplicity(X: KaroubiObject, lam: Label) -> int:
    """Multiplicity of L(lam) in X at generic t."""
    lam = _normalize_label(X.sig.flavor, lam)
    return decompose(X).get(lam, 0)


def _normalize_label(flavor: str, lam) -> Label:
    parts = tuple(check_partition(p) for p in _parts(flavor, lam))
    return parts if flavor == "GL" else parts[0]


def decompose(X: KaroubiObject, seed: int = 0) -> dict[Label, int]:
    """Multiset {label: multiplicity} with all zero entries dropped.

    `seed` is accepted for compatibility and has no effect: every Hom
    dimension is an exact trace (see _hom_dim)."""
    labels = DIAGRAM_CLASSES[X.sig.flavor]._labels(X.sig.data)
    return {lam: m for lam, m in _multiplicities(X, labels).items() if m}


# ---------------------------------------------------------------------------
# generic dimensions of simples

_SIZE_BUDGET = {"S": 4, "GL": 4, "O": 2}


def dim_simple(lam: Label, flavor: str = "S") -> RatFunc:
    """Generic dimension of L(lam): a degree-|lam| polynomial in t.

    Exact and deterministic: tr(y_lam) minus the K-weighted dimensions of
    the smaller simples, with K computed exactly (no sample point).
    """
    lam = _normalize_label(flavor, lam)
    if _label_size(flavor, lam) > _SIZE_BUDGET[flavor]:
        raise SizeBudgetError(
            f"dim_simple budget is |lam| <= {_SIZE_BUDGET[flavor]} for flavor {flavor}"
        )
    return _dim_simple(flavor, lam)


# keys are normalized labels within _SIZE_BUDGET, so the cache stays small
@lru_cache(maxsize=None)
def _dim_simple(flavor: str, lam: Label) -> RatFunc:
    if _label_size(flavor, lam) == 0:
        return RF_ONE
    result = trace(_symmetrizer_object(flavor, lam).idem)
    for mu, k in _symmetrizer_decomposition(flavor, lam).items():
        if k:
            result = result - k * _dim_simple(flavor, mu)
    return result
