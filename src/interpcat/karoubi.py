"""Karoubian-envelope objects ([m], e) and the classification machinery.

Indecomposables are indexed by partitions (S, O) or bipartitions (GL).  The
library never materializes a primitive idempotent for L(lambda); instead it
works with the symmetrizer objects Y_lambda = ([|lambda|], y_lambda), whose
decomposition matrix K(lambda, mu) = [Y_lambda : L(mu)] is unitriangular with
respect to size.  One routine builds y_lambda for every flavor: the tensor
product of the normalized Young symmetrizers of the label's parts (lambda
itself for S and O; the black and then the white partition for GL), each
part's permutations on its own block of strands.  Such a permutation keeps
each color, so every term is built unchecked by Diagram._permutation, and
all terms share the two coefficients +-norm.

Promotion (promote) lifts an idempotent f on X to phi f phi' / c, where
phi' phi = c id and phi, phi' each place one generator beside identities
(_beside): S's split and merge or unit and counit, GL's cup and cap, with
the t = 0 cup one strand over so that the cup and cap close no loop.

Each Y_lambda is built once per process and shared (symmetrizer_object).
y_lambda is idempotent by construction, so Y_lambda is the one object that
skips the exact check f o f = f; every other KaroubiObject runs it, and so do
promote and the idem-check command.

Every multiplicity comes from one exact trace per Hom space and one
triangular solve (_multiplicities): [X : L(lambda)] is dim Hom(X, Y_lambda),
minus K(lambda, mu) [X : L(mu)] over the strictly smaller mu, by induction
on size.  Hom(X, Y) is the image of the idempotent P(d) = e_Y o d o e_X on
the diagram space, so its dimension is the trace of P: the sum over basis
diagrams d of the coefficient of d in e_Y o d o e_X.  Each idempotent's
terms are summed by conjugacy class (_class_sums, by _class_key: a
permutation's colored cycle type; any other diagram alone), and the trace
takes one of two routes (_hom_dims, proofs at _hom_dim):

  fixed points  when e_X and e_Y are both sums of permutations (identity
                objects, every y_lambda, conjugated and tensored
                symmetrizers): d -> s o d o x permutes the basis for
                permutations s and x, so its trace is the number of
                diagrams it fixes, a closed form in the two cycle types
                (the flavor's _fixed_count).  No basis is enumerated and
                nothing is composed.
  traces        for any other X (promoted idempotents, special_p, JSON
                idempotents), _Traces: d o e_X is composed once per basis
                diagram d and per (X, target signature), shared by every
                label of that size; the trace against a permutation is a
                class function, so each class of e_Y costs one trace, at one
                representative, shared by every Y of the signature, and a
                class whose coefficients sum to 0 costs none.  Every
                composition goes through the homspaces composition kernel.

The sum is a constant of Q(t).  Each idempotent is scaled once to clear the
denominators of its constant coefficients (homspaces._integral_terms, as in
compose and trace), the sum runs over Z, and one division ends it, checked
to be a dimension (_dimension); no dimension is taken at a sample point, so
every generic-t answer is exact and independent of any seed.  K has one
home, _symmetrizer_decomposition: the same solve with X = Y_lambda over the
labels below lambda.  The generic dimensions of simples follow by the trace
accounting dim L(lambda) = tr(y_lambda) - sum K(lambda, mu) dim L(mu).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from interpcat.diagrams import (
    DIAGRAM_CLASSES,
    Diagram,
    basis_size,
    identity_diagram,
    partition_diagram,
    tensor_diagram,
)
from interpcat.homspaces import (
    Morphism,
    ObjectSignature,
    _compose_terms,
    _integral_terms,
    as_signature,
    coev,
    compose,
    diagram_morphism,
    ev,
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
    """All permutations of 1..n stabilizing each ascending cell set, as
    (n-tuple, sign) pairs: the sign is the parity of each cell's inversions."""
    for choice in itertools.product(*map(itertools.permutations, cells)):
        sigma, inversions = list(range(1, n + 1)), 0
        for cell, image in zip(cells, choice):
            for src, dst in zip(cell, image):
                sigma[src - 1] = dst
            inversions += sum(a > b for a, b in itertools.combinations(image, 2))
        yield tuple(sigma), (-1) ** inversions


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
    for p, _ in _subgroup_perms(n, rows):
        for q, sign in _subgroup_perms(n, cols):
            out.append((_perm_mul(p, q), sign))
    return out


def _symmetrizer(flavor: str, lam) -> Morphism:
    """y_lam as the tensor product of the parts' Young symmetrizers, each
    part's permutations shifted onto its own block of strands.  Terms come
    part by part (GL: blacks, then whites), each in _symmetrizer_terms order:
    a permutation keeping each color, with one of the two coefficients +-norm."""
    parts = _parts(flavor, lam)
    data = tuple(sum(p) for p in parts)
    sig = ObjectSignature(flavor, data)
    norm = math.prod(Fraction(sn_irrep_dimension(p), math.factorial(sum(p))) for p in parts)
    coefficient = {1: RatFunc(norm), -1: RatFunc(-norm)}
    permutation = DIAGRAM_CLASSES[flavor]._permutation
    terms: dict = {}
    for choice in itertools.product(*(_symmetrizer_terms(p) for p in parts)):
        images, sign = [], 1
        for sigma, part_sign in choice:
            offset = len(images)
            images += [offset + j for j in sigma]
            sign *= part_sign
        # a row permutation times a column permutation is never repeated,
        # so each diagram gets exactly one term
        terms[permutation(data, images)] = coefficient[sign]
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


# ---------------------------------------------------------------------------
# promotion: idempotents one size up

# The generators that promotion places beside identities: the unit, counit,
# split and merge of the commutative Frobenius algebra [1] of Rep(S_t), and
# the cup 1 -> [1, 1] and cap [1, 1] -> 1 of the object [1, 0] of Rep(GL_t).
_UNIT = partition_diagram(0, 1, [(-1,)])
_COUNIT = partition_diagram(1, 0, [(1,)])
_SPLIT = partition_diagram(1, 2, [(1, -1, -2)])
_MERGE = partition_diagram(2, 1, [(1, 2, -1)])
_SPLIT_MERGE = partition_diagram(2, 2, [(1, 2, -1, -2)])  # split o merge
(_CUP,) = coev(ObjectSignature("GL", (1, 0))).terms
(_CAP,) = ev(ObjectSignature("GL", (1, 0))).terms


def _beside(left, g: Diagram, right) -> Diagram:
    """id_left (x) g (x) id_right, for endpoint data left and right of g's flavor."""
    flavor = g.flavor
    return tensor_diagram(
        tensor_diagram(identity_diagram(flavor, left), g), identity_diagram(flavor, right)
    )


def special_p(n: int) -> Morphism:
    """The idempotent with strands 1..n-2 and block {n-1, n, (n-1)', n'}:
    id_{n-2} (x) (split o merge)."""
    if n <= 1:
        raise ValueError("special_p needs n > 1")
    return diagram_morphism(_beside(n - 2, _SPLIT_MERGE, 0))


def promote(f: Morphism, t_is_zero: bool = False) -> Morphism:
    """Idempotent one size up realizing ([n], f~) ~ ([n-1], f): f~ = phi f phi' / c.

    S: End([m]) -> End([m+1]), phi = id_{m-1} (x) split, phi' = id_{m-1} (x)
    merge and c = 1; from [0], the unit and counit with c = t, so none at
    t = 0.  GL: End([a, b]) -> End([a+1, b+1]), phi = id_[a,0] (x) cup (x)
    id_[0,b], phi' the same with the cap, and c = t.  If t_is_zero, phi =
    id_[a,1] (x) cup (x) id_[0,b-1], or id_[a-1,0] (x) cup (x) id_[1,0] when
    b = 0.  The cup then skips the strand the cap's path comes in on, the
    first white (or the last black), and leaves by the next one: the cup and
    cap meet at one endpoint, not two, so they close no loop and c = 1.
    """
    if not is_idempotent(f):
        raise ValueError("promote needs an idempotent input")
    flavor = f.source.flavor
    if flavor == "S":
        (m,) = f.source.data
        if m:
            phi, phi_p, loop = _beside(m - 1, _SPLIT, 0), _beside(m - 1, _MERGE, 0), False
        elif t_is_zero:
            raise ValueError("L(empty) does not promote at t = 0")
        else:
            phi, phi_p, loop = _UNIT, _COUNIT, True
    elif flavor == "GL":
        a, b = f.source.data
        phi_p, loop = _beside((a, 0), _CAP, (0, b)), not t_is_zero
        if loop:
            phi = _beside((a, 0), _CUP, (0, b))
        elif b:
            phi = _beside((a, 1), _CUP, (0, b - 1))
        elif a:
            phi = _beside((a - 1, 0), _CUP, (1, 0))
        else:
            raise ValueError("no t = 0 promotion from End([0, 0])")
    else:
        raise ValueError(
            "promotion is available for flavors S and GL only"
            " (the Brauer tower is outside this library's classification scope)"
        )
    lifted = compose(diagram_morphism(phi), compose(f, diagram_morphism(phi_p)))
    return lifted / RF_T if loop else lifted


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
    """The checked partitions a label is made of: (lam,) for S and O, and
    (black, white) for GL.  The one check of a label."""
    if flavor == "GL":
        try:
            black, white = lam
        except (TypeError, ValueError):
            raise ValueError(
                f"{lam!r} is not a bipartition (expected a (black, white) pair)"
            ) from None
        return check_partition(black), check_partition(white)
    return (check_partition(lam),)


def _label_data(flavor: str, lam: Label) -> tuple[int, ...]:
    """Signature data of Y_lam for a normalized label, not checked again:
    (|lam|,), or (|black|, |white|) for GL."""
    return tuple(map(sum, lam)) if flavor == "GL" else (sum(lam),)


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


def _class_key(d: Diagram):
    """The key that an idempotent's terms are summed by (_class_sums): for a
    permutation diagram, its cycle type with each cycle tagged by its color
    (endpoint i <= data[0] is black; S and O have one color), as sorted
    (black, length) pairs; any other diagram is its own key.  Two
    permutations that keep each color are conjugate by such a permutation
    exactly when their keys agree."""
    source, target = d._signature()
    blocks = d._blocks
    n = sum(source)
    # n blocks of two, none with two sources (a canonical block lists its
    # sources first), join each source +i to one target -j
    if source != target or len(blocks) != n or any(len(b) != 2 or b[1] > 0 for b in blocks):
        return d
    image = [0] * n
    for i, j in blocks:
        image[i - 1] = -j - 1
    seen = [False] * n
    cycles = []
    for start in range(n):
        length, i = 0, start
        while not seen[i]:
            seen[i], i, length = True, image[i], length + 1
        if length:
            cycles.append((start < source[0], length))
    return tuple(sorted(cycles))


def _class_sums(idem: Morphism) -> tuple[int, dict]:
    """(n, {key: sum of n c_s over the terms s with that _class_key}) for
    the idempotent cleared once (homspaces._integral_terms); a key whose sum
    is 0 is left out.  Every key is a cycle type (a tuple) exactly when every
    term is a permutation."""
    n, terms = _integral_terms(idem)
    sums: dict = {}
    for s, c in terms:
        key = _class_key(s)
        sums[key] = sums.get(key, 0) + c
    return n, {key: c for key, c in sums.items() if c}


def _dimension(total, n: int, size: int) -> int:
    """total / n, a trace cleared by n, as the dimension of a space with a
    basis of size diagrams: an ArithmeticError unless it is an integer in
    [0, size], since then an idempotent was wrong."""
    total = constant_or_self(total)
    if not isinstance(total, RatFunc):
        q, r = divmod(total, n)
        if not r and 0 <= q <= size:
            return q
    raise ArithmeticError(f"the trace {total / Fraction(n)} of e_Y o - o e_X is not a dimension")


class _Traces:
    """The trace route of _hom_dim from X into one target signature y,
    shared by every Y of that signature: R_d = d o e_X, composed once per
    basis diagram d and kept by column, columns[m] = {d: R_d[m]}; and chi,
    one trace per class key, taken at the first term of e_Y with that key."""

    def __init__(self, X: KaroubiObject, target: ObjectSignature):
        self.target = target
        self.basis = hom_basis(X.sig, target)
        self.nx, ex = _integral_terms(X.idem)
        self.columns: dict = {}
        for d in self.basis:
            for m, c in _compose_terms([(d, 1)], ex).items():
                if c:
                    self.columns.setdefault(m, {})[d] = c
        self.chi: dict = {}

    def _chi(self, s: Diagram):
        """sum_d sum_m R_d[m] (s o m)[d]: s o m once per column m."""
        total = 0
        for m, column in self.columns.items():
            for d, v in _compose_terms([(s, 1)], [(m, 1)]).items():
                c = column.get(d)
                if c:
                    total += c * v
        return total

    def hom_dim(self, Y: KaroubiObject) -> int:
        """dim Hom(X, Y) for a Y of the target signature (see _hom_dim)."""
        ny, sums = _class_sums(Y.idem)
        for s in Y.idem.terms:
            key = _class_key(s)
            if key in sums and key not in self.chi:
                self.chi[key] = self._chi(s)
        total = sum(c * self.chi[key] for key, c in sums.items())
        return _dimension(total, self.nx * ny, len(self.basis))


def _permutations(sums: dict) -> bool:
    """Whether the class sums of _class_sums come from permutations only."""
    return all(isinstance(key, tuple) for key in sums)


def _hom_dims(X: KaroubiObject):
    """Y -> dim Hom(X, Y), for one X and any number of Y (see _hom_dim).
    When e_X and e_Y are both sums of permutations, the fixed-point route:
    sum over class keys k_s of e_Y and k_x of e_X of
    S_Y(k_s) S_X(k_x) F(k_s, k_x), with S the class sums (_class_sums) and F
    the flavor's _fixed_count, divided once by n_X n_Y.  Otherwise the trace
    route, _Traces, kept for the latest target signature."""
    flavor, x = X.sig.flavor, X.sig.data
    nx, sx = _class_sums(X.idem)
    fixed = DIAGRAM_CLASSES[flavor]._fixed_count if _permutations(sx) else None
    traces = None

    def hom_dim(Y: KaroubiObject) -> int:
        nonlocal traces
        if fixed:
            ny, sy = _class_sums(Y.idem)
            if _permutations(sy):
                total = sum(cy * cx * fixed(ky, kx) for ky, cy in sy.items() for kx, cx in sx.items())
                return _dimension(total, nx * ny, basis_size(flavor, x, Y.sig.data))
        if traces is None or traces.target != Y.sig:
            traces = _Traces(X, Y.sig)
        return traces.hom_dim(Y)

    return hom_dim


def _hom_dim(X: KaroubiObject, Y: KaroubiObject) -> int:
    """dim Hom(X, Y) at generic t: the trace of the idempotent
    P(d) = e_Y o d o e_X on the diagram space Hom(x, y), by one of two
    routes (_hom_dims).

    Over a field of characteristic 0 the trace of an idempotent is its rank,
    so dim Hom(X, Y) = tr P, an exact constant of Q(t), with no elimination
    and no sample point.  Write R(d) = d o e_X and, for a diagram s of
    End(y), L_s(d) = s o d.  With e_Y = sum_s c_s s, P = sum_s c_s L_s R, so
    tr P = sum_s c_s chi(s), where
    chi(s) = tr(L_s R) = sum_d sum_m R_d[m] (s o m)[d].

    chi is a class function on the permutations g of y that keep each color.
    Composing with g closes no component, so L_g permutes the basis
    diagrams, with inverse L_{g^-1}; L_g L_s = L_{g o s}; and L_g R = R L_g,
    since g o (d o e_X) = (g o d) o e_X.  So
    chi(g o s o g^-1) = tr(L_g L_s R L_g^-1) = tr(L_s R) = chi(s).  Such
    permutations are conjugate exactly when their _class_key agree, so
    tr P = sum over keys of (the sum of c_s over the key) chi(one s of it).
    A diagram that is not a permutation is its own key.

    The fixed-point route, when e_X = sum_x a_x x is a sum of permutations
    too: then tr P = sum_s sum_x c_s a_x tr(d -> s o d o x).  For
    permutations s and x, d -> s o d o x closes no component and has the
    inverse d -> s^-1 o d o x^-1, so it permutes the basis diagrams with
    coefficient 1, and its trace is the number of diagrams it fixes.  That
    number depends only on the cycle types of s and x, by the argument
    above on each side, and each flavor counts it in closed form
    (_fixed_count): no basis is enumerated and nothing is composed.

    The trace route, for any other X (_Traces): R and chi are held for
    (X, y), so _multiplicities shares them between every label of one size,
    and a key whose coefficients sum to 0 costs nothing.

    On both routes each idempotent is first scaled by the lcm n of its
    constant coefficients' denominators (homspaces._integral_terms), so the
    sum runs over Z, and over Q(t) only where a t enters it, from a closed
    loop or a non-constant coefficient; one division by n_X n_Y ends it.  A
    sum that is not a multiple q n_X n_Y with q an integer in [0, |basis|]
    means an idempotent was wrong, and raises ArithmeticError (_dimension)."""
    return _hom_dims(X)(Y)


# bounded: one small dict per symmetrizer label
@lru_cache(maxsize=256)
def _symmetrizer_decomposition(flavor: str, lam: Label) -> dict[Label, int]:
    """K(lam, mu) = [Y_lam : L(mu)] for the strictly smaller mu, exactly: the
    one home of K.  K is unitriangular, K(lam, lam) = 1 and every other
    constituent of Y_lam is strictly smaller, so the recursion decreases size.

    y_lam and every y_mu are Q-combinations of permutation diagrams, so
    every Hom dimension takes the fixed-point route of _hom_dim: class sums
    of y_lam and y_mu against the flavor's closed-form fixed-point counts,
    summed over Z after clearing their denominators, with one division, no
    basis, no composition and no sample point.
    """
    return _multiplicities(_symmetrizer_object(flavor, lam), _labels_below(flavor, lam))


def _multiplicities(X: KaroubiObject, labels: list[Label]) -> dict[Label, int]:
    """[X : L(lam)] for each label, in size order: dim Hom(X, Y_lam) minus
    K(lam, mu) [X : L(mu)] over the strictly smaller mu, exactly."""
    flavor = X.sig.flavor
    mult: dict[Label, int] = {}
    hom_dim = _hom_dims(X)  # labels come size by size, so one _Traces at a time
    for lam in labels:
        value = hom_dim(_symmetrizer_object(flavor, lam))
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
    parts = _parts(flavor, lam)
    return parts if flavor == "GL" else parts[0]


# Largest End(x) basis that decompose takes, for X on x: End(x) is the
# largest Hom basis whose traces _Traces takes.  The times below hold for
# the trace route only; on the fixed-point route each of these objects
# decomposes in under 0.02 s.  Fresh-process times on a 2-CPU VM of the
# multiplicities of object_of_identity(x) forced onto the trace route, once
# the K solves are done: S [4] (4,140 diagrams) 0.5 s, GL (4, 3) (5,040)
# 1.5 s, O [6] (10,395) 2.0 s, and S [5] (115,975) 29 s.
MAX_DECOMPOSE_BASIS = 5000


def decompose(X: KaroubiObject, seed: int = 0) -> dict[Label, int]:
    """Multiset {label: multiplicity} with all zero entries dropped.

    An X whose End(x) has more than MAX_DECOMPOSE_BASIS basis diagrams is
    refused before any y_lam or basis is built.  `seed` is accepted for
    compatibility and has no effect: every Hom dimension is an exact trace
    (see _hom_dim)."""
    flavor, data = X.sig.flavor, X.sig.data
    size = basis_size(flavor, data, data)
    if size > MAX_DECOMPOSE_BASIS:
        raise SizeBudgetError(
            f"decompose budget exceeded: End({X.sig}) has {size} basis diagrams"
            f" > MAX_DECOMPOSE_BASIS = {MAX_DECOMPOSE_BASIS}"
        )
    labels = DIAGRAM_CLASSES[flavor]._labels(data)
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
