"""Independent cross-checks pitting whole subsystems against each other.

The multiplicity engine is rank-based; here its outputs are re-derived from
classical character theory (Murnaghan-Nakayama recursion plus explicit
permutation-action traces at an integer point in the stable range), which
shares no code with the Karoubi machinery.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import pytest

from interpcat import karoubi
from interpcat.diagrams import DIAGRAM_CLASSES, enumerate_basis
from interpcat.homspaces import identity, sig_s, trace
from interpcat.karoubi import (
    KaroubiObject,
    decompose,
    multiplicity,
    object_of_identity,
    promote,
    young_symmetrizer,
)
from interpcat.oracle import morphism_matrix
from interpcat.partitions import partitions_of

# -- symmetric group character table via Murnaghan-Nakayama ------------------


@lru_cache(maxsize=None)
def sn_character(lam, rho) -> int:
    """chi_lambda at the class of cycle type rho, both partitions of n."""
    if not lam:
        return 1 if not rho else 0
    strip = rho[0]
    rest = rho[1:]
    total = 0
    for removed, height in _border_strips(lam, strip):
        total += (-1) ** (height - 1) * sn_character(removed, rest)
    return total


def _border_strips(lam, size):
    """All ways to remove a border strip of the given size from lam.

    Yields (remaining partition, strip height).  Uses the beta-number model:
    removing a border strip of length s is subtracting s from one first-column
    hook length, keeping all distinct.
    """
    n_rows = len(lam)
    betas = [lam[i] + (n_rows - 1 - i) for i in range(n_rows)]
    beta_set = set(betas)
    for i, b in enumerate(betas):
        nb = b - size
        if nb < 0 or nb in beta_set:
            continue
        new_betas = sorted([x for x in betas if x != b] + [nb], reverse=True)
        height = sum(1 for x in betas if nb < x < b)
        new_lam = [nb2 - (n_rows - 1 - j) for j, nb2 in enumerate(new_betas)]
        yield tuple(x for x in new_lam if x), height + 1


def class_size(rho, n: int) -> int:
    z = 1
    counts: dict[int, int] = {}
    for part in rho:
        counts[part] = counts.get(part, 0) + 1
    for part, mult in counts.items():
        z *= part**mult * math.factorial(mult)
    return math.factorial(n) // z


def cycle_type_representative(rho, n: int):
    """A permutation of 0..n-1 with the given cycle type, as an index map."""
    perm = list(range(n))
    start = 0
    for part in rho:
        cycle = list(range(start, start + part))
        for idx, src in enumerate(cycle):
            perm[src] = cycle[(idx + 1) % part]
        start += part
    return perm


def classical_multiplicity(X: KaroubiObject, mu, n: int) -> Fraction:
    """Multiplicity of the padded irrep (n - |mu|, mu) in the image of X at t = n.

    Computed purely by characters: the trace of (g acting on V^(x)m) o e(n)
    paired against chi_{mu[n]} over the classes of S_n.
    """
    m = X.sig.data[0]
    mat, den = morphism_matrix(X.idem, n)
    padded = (n - sum(mu),) + tuple(mu)
    total = Fraction(0)
    for rho in partitions_of(n):
        g = cycle_type_representative(rho, n)
        # trace of the composite: sum over basis indices I of M[g(I), I]
        tr = 0
        for flat_i in range(n**m):
            digits = []
            rem = flat_i
            for _ in range(m):
                digits.append(rem % n)
                rem //= n
            digits.reverse()
            moved = 0
            for d in digits:
                moved = moved * n + g[d]
            tr += mat[moved][flat_i]
        total += Fraction(class_size(rho, n) * sn_character(padded, rho) * tr, den)
    return total / math.factorial(n)


def _label_parts(flavor: str, lam) -> tuple:
    """The partitions of a label, one per row block: (black, white) for GL."""
    return tuple(lam) if flavor == "GL" else (lam,)


def _classes(sizes: tuple[int, ...]):
    """(cycle types, representative, class size) for each class of the
    product of symmetric groups on consecutive blocks of the given sizes;
    the representative maps endpoint i (1-based) to its image."""
    for rhos in itertools.product(*(partitions_of(n) for n in sizes)):
        image, offset, size = [], 0, 1
        for rho, n in zip(rhos, sizes):
            image += [offset + 1 + x for x in cycle_type_representative(rho, n)]
            offset += n
            size *= class_size(rho, n)
        yield rhos, image, size


@lru_cache(maxsize=None)
def _weighted_fixed_points(flavor: str, source: tuple, target: tuple) -> dict:
    """{(target class, source class): class sizes x fixed basis diagrams}.

    Hom(source, target) is a permutation module for the row groups: a pair
    (sigma, tau) relabels target endpoint -j as -sigma(j) and source endpoint
    +i as +tau(i), and fixes a diagram when its set of blocks is unchanged.
    """
    blocks = [frozenset(map(frozenset, d._blocks)) for d in enumerate_basis(flavor, source, target)]
    table = {}
    for rho_t, sigma, size_t in _classes(target):
        for rho_s, tau, size_s in _classes(source):
            fixed = 0
            for bs in blocks:
                moved = frozenset(
                    frozenset(tau[x - 1] if x > 0 else -sigma[-x - 1] for x in b) for b in bs
                )
                fixed += moved == bs
            table[rho_t, rho_s] = size_t * size_s * fixed
    return table


def hom_dim_by_characters(flavor: str, lam, mu) -> Fraction:
    """dim Hom(Y_mu, Y_lam) = (1/|G|) sum_g fix(g) chi_lam chi_mu(g) over
    G = (row groups of lam) x (row groups of mu); characters are real."""
    target = karoubi._label_data(flavor, lam)
    source = karoubi._label_data(flavor, mu)
    order = math.prod(math.factorial(n) for n in target + source)
    total = 0
    for (rho_t, rho_s), weight in _weighted_fixed_points(flavor, source, target).items():
        if weight:
            chi = 1
            for part, rho in zip(_label_parts(flavor, lam) + _label_parts(flavor, mu), rho_t + rho_s):
                chi *= sn_character(part, rho)
            total += weight * chi
    return Fraction(total, order)


def _labels_up_to(flavor: str, size: int) -> list:
    """Every label of total size <= size."""
    if flavor == "GL":
        signatures = [(a, b) for a in range(size + 1) for b in range(size + 1 - a)]
    else:
        signatures = [(size - 1,), (size,)]
    return sorted({lam for data in signatures for lam in DIAGRAM_CLASSES[flavor]._labels(data)})


class TestCharacterOracle:
    def test_mn_table_s3(self):
        # the full character table of S_3: trivial, standard, sign
        table = {
            (3,): {(3,): 1, (2, 1): 1, (1, 1, 1): 1},
            (2, 1): {(3,): -1, (2, 1): 0, (1, 1, 1): 2},
            (1, 1, 1): {(3,): 1, (2, 1): -1, (1, 1, 1): 1},
        }
        for lam, row in table.items():
            for rho, value in row.items():
                assert sn_character(lam, rho) == value, (lam, rho)

    def test_mn_dimensions(self):
        from interpcat.partitions import sn_irrep_dimension

        for n in range(1, 7):
            for lam in partitions_of(n):
                assert sn_character(lam, (1,) * n) == sn_irrep_dimension(lam)

    def test_class_sizes_sum(self):
        for n in range(1, 7):
            assert sum(class_size(rho, n) for rho in partitions_of(n)) == math.factorial(n)

    def test_multiplicities_match_character_theory(self):
        # generic-t multiplicities equal classical ones at n in the stable
        # range; the classical side below is pure character theory
        n = 6
        cases = [
            KaroubiObject(sig_s(2), young_symmetrizer((2,))),
            KaroubiObject(sig_s(2), young_symmetrizer((1, 1))),
            object_of_identity(sig_s(2)),
            object_of_identity(sig_s(1)),
        ]
        for X in cases:
            mults = decompose(X)
            m = X.sig.data[0]
            for size in range(m + 1):
                for mu in partitions_of(size):
                    want = classical_multiplicity(X, mu, n)
                    assert want.denominator == 1
                    assert mults.get(mu, 0) == want, (X.sig, mu, want)

    def test_three_box_symmetrizer_against_characters(self):
        n = 6
        X = KaroubiObject(sig_s(3), young_symmetrizer((2, 1)))
        mults = decompose(X)
        for size in range(4):
            for mu in partitions_of(size):
                want = classical_multiplicity(X, mu, n)
                assert mults.get(mu, 0) == want, (mu, want)


class TestDecompositionMatrixByCharacters:
    """K(lam, mu) = [Y_lam : L(mu)] against symmetric-group characters.

    Y_lam and Y_mu are summands of [|lam|] and [|mu|] cut out by primitive
    idempotents of the row groups' algebras, so dim Hom(Y_mu, Y_lam) =
    sum_nu K(lam, nu) K(mu, nu) is a character inner product of the
    permutation module Hom([|mu|], [|lam|]).  For lam = mu this is the
    primitivity identity 1 + sum_{nu < lam} K(lam, nu)^2.
    """

    @pytest.mark.parametrize("flavor,size", [("S", 3), ("O", 4), ("GL", 4)])
    def test_gram_of_k_matches_characters(self, flavor, size):
        # K(lam, lam) = 1, and K(lam, nu) = 0 unless nu is lam or smaller
        labels = _labels_up_to(flavor, size)
        K = {
            (lam, nu): 1 if nu == lam else karoubi._symmetrizer_decomposition(flavor, lam).get(nu, 0)
            for lam in labels
            for nu in labels
        }
        for lam in labels:
            for mu in labels:
                got = sum(K[lam, nu] * K[mu, nu] for nu in labels)
                assert got == hom_dim_by_characters(flavor, lam, mu), (lam, mu)


class TestPromotionInvariance:
    def test_promotion_preserves_decomposition(self):
        # ([m+1], promote(e)) is isomorphic to ([m], e), so the multiset of
        # simples must be identical
        for idem in [
            young_symmetrizer((2,)),
            young_symmetrizer((1, 1)),
            identity(sig_s(1)),
        ]:
            X = KaroubiObject(idem.source, idem)
            lifted = KaroubiObject(
                promote(idem).source, promote(idem)
            )
            assert decompose(X) == decompose(lifted)
            assert trace(X.idem) == trace(lifted.idem)

    def test_double_promotion(self):
        e = promote(identity(sig_s(0)))  # pi/t in End([1])
        lifted = promote(promote(e))
        X = KaroubiObject(lifted.source, lifted)
        assert X.sig == sig_s(3)
        assert decompose(X) == {(): 1}
        assert multiplicity(X, (1,)) == 0
