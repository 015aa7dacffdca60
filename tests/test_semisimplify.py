"""Trace-pairing Gram machinery, negligibility, quotient dimensions."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from interpcat.diagrams import (
    _canonical_blocks,
    _row_transpositions,
    basis_size,
    brauer_diagram,
    compose_diagrams,
    enumerate_basis,
    identity_diagram,
    pairing_table,
    partition_diagram,
    walled_diagram,
)
from interpcat.homspaces import (
    as_signature,
    compose,
    diagram_morphism,
    hom_basis,
    identity,
    sig_gl,
    sig_s,
    tensor,
    zero_morphism,
)
from interpcat.linalg import dense_rank, right_nullspace
from interpcat.partitions import bell_number
from interpcat.ratfunc import RF_ONE, RatFunc, RF_T
from interpcat.selftest import random_morphism
from interpcat import linalg, semisimplify
from interpcat.semisimplify import (
    MAX_GRAM_BASIS,
    annihilated_simples,
    gram,
    gram_determinant_symbolic,
    is_negligible,
    negligible_basis,
    quotient_dim,
)

t = RF_T
PI = partition_diagram(1, 1, [(1,), (-1,)])


class TestGram:
    def test_symbolic_end_1(self):
        rep = gram(1, 1, None)
        assert rep.gram == [[t, t], [t, t * t]]

    def test_symbolic_determinant(self):
        assert gram_determinant_symbolic(1, 1) == t * t * (t - 1)

    def test_symbolic_determinant_refused_up_front(self):
        # S (3, 3) has 203 basis diagrams: refused before any matrix is built
        start = time.perf_counter()
        with pytest.raises(ValueError, match="15 basis diagrams.* has 203"):
            gram_determinant_symbolic(3, 3)
        assert time.perf_counter() - start < 0.1

    def test_symbolic_determinant_limit_counts_gl_diagrams(self):
        # the limit is on basis diagrams: End(GL[1, 1]) has 2, End(GL[2, 2]) has 4! = 24
        assert gram_determinant_symbolic(sig_gl(1, 1), sig_gl(1, 1), "GL") == t * t * (t * t - 1)
        with pytest.raises(ValueError, match="15 basis diagrams.* has 24"):
            gram_determinant_symbolic(sig_gl(2, 2), sig_gl(2, 2), "GL")

    @pytest.mark.parametrize(
        "l, m, flavor", [(1, 0, "O"), (0, 3, "O"), (2, 1, "O"), (sig_gl(1, 0), sig_gl(0, 0), "GL")]
    )
    def test_symbolic_determinant_of_an_empty_space(self, l, m, flavor):
        # no basis diagram: the Gram matrix is 0 x 0, of rank 0 at every t,
        # and its determinant is 1 (it raised "determinant of an empty matrix")
        assert gram(l, m, 2, flavor).rank == 0
        assert gram(l, m, None, flavor).gram == []
        assert gram_determinant_symbolic(l, m, flavor) == RF_ONE

    @pytest.mark.parametrize("l, m", [(sig_gl(1, 0), sig_s(1)), (sig_s(1), sig_gl(1, 0))])
    def test_mixed_flavors_refused(self, l, m):
        # the flavor check runs before the basis is sized
        with pytest.raises(ValueError, match="Hom between different flavors"):
            gram(l, m, 2, "GL")
        with pytest.raises(ValueError, match="Hom between different flavors"):
            gram_determinant_symbolic(l, m, "GL")

    def test_rank_at_1(self):
        rep = gram(1, 1, 1)
        assert (rep.rank, rep.nullity) == (1, 1)

    def test_rank_at_2(self):
        rep = gram(1, 1, 2)
        assert (rep.rank, rep.nullity) == (2, 0)

    def test_rank_plus_nullity(self):
        for l in range(3):
            for m in range(3 - l):
                for t0 in (0, 1, 3, Fraction(5, 2)):
                    rep = gram(l, m, t0)
                    assert rep.rank + rep.nullity == bell_number(l + m)

    def test_gl_and_o_flavors(self):
        rep = gram(sig_gl(1, 1), sig_gl(1, 1), 2, "GL")
        assert rep.rank + rep.nullity == 2
        rep = gram(1, 1, 3, "O")
        assert rep.rank + rep.nullity == 1


def _stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind, by S(n, k) = k S(n-1, k) + S(n-1, k-1)."""
    row = [1] + [0] * k  # S(0, j)
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def _partitions(k: int, largest: int | None = None):
    """Every partition of k with parts at most largest, parts decreasing."""
    if k == 0:
        yield ()
        return
    for first in range(min(k, largest or k), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first,) + rest


def _hook_dimension(lam) -> int:
    """f^lam, the dimension of the Specht module, by the hook length formula."""
    conjugate = [sum(1 for part in lam if part > j) for j in range(lam[0] if lam else 0)]
    hooks = math.prod(
        part - j + conjugate[j] - i - 1 for i, part in enumerate(lam) for j in range(part)
    )
    return math.factorial(sum(lam)) // hooks


def _classical_rank(flavor: str, l, m, n: int) -> int:
    """dim Hom(V^l, V^m) for O(n), and dim Hom(V^r1 V*^s1, V^r2 V*^s2) for
    GL(n), from Schur-Weyl duality: the sum of f^lam over lam |- l + m with
    even parts and at most n rows (V^(l + m) holds S_lam V once per standard
    tableau, and S_lam V has an O(n)-invariant line exactly for these lam), and
    the sum of (f^lam)^2 over lam |- k = r1 + s2 with at most n rows."""
    if flavor == "O":
        return sum(
            _hook_dimension(lam) for lam in _partitions(l + m)
            if len(lam) <= n and all(part % 2 == 0 for part in lam)
        )
    k = l[0] + m[1]
    return sum(_hook_dimension(lam) ** 2 for lam in _partitions(k) if len(lam) <= n)


# (flavor, l, m) with Hom(l, m) nonzero, for the table-sharing tests
PAIRED_SPACES = [
    ("S", 0, 2), ("S", 1, 2), ("S", 1, 3), ("S", 2, 2),
    ("O", 0, 2), ("O", 1, 3), ("O", 2, 2),
    ("GL", sig_gl(1, 0), sig_gl(2, 1)), ("GL", sig_gl(2, 1), sig_gl(2, 1)),
    ("GL", sig_gl(1, 1), sig_gl(2, 2)),
]
POINTS = [0, 1, 2, Fraction(5, 2), None]


class TestPairingTableSharing:
    """Gram entries come from one t-free table of exponents per Hom space."""

    @pytest.mark.parametrize("flavor, l, m", PAIRED_SPACES)
    @pytest.mark.parametrize("t0", POINTS)
    def test_trace_cyclicity(self, flavor, l, m, t0):
        # Tr(f o g) = Tr(g o f): Gram(m, l) is the transpose of Gram(l, m)
        forward = gram(l, m, t0, flavor).gram
        assert forward
        assert gram(m, l, t0, flavor).gram == [list(col) for col in zip(*forward)]

    def test_shuffled_ladder_matches_cold_calls(self):
        calls = [(space, t0) for space in PAIRED_SPACES for t0 in POINTS]
        cold = {}
        for (flavor, l, m), t0 in calls:
            semisimplify._pairing_exponents.cache_clear()
            cold[flavor, l, m, t0] = gram(l, m, t0, flavor)
        semisimplify._pairing_exponents.cache_clear()
        random.Random(7).shuffle(calls)
        for (flavor, l, m), t0 in calls:
            assert gram(l, m, t0, flavor) == cold[flavor, l, m, t0]
        assert semisimplify._pairing_exponents.cache_info().hits > 0

    def test_rows_are_fresh(self):
        first = gram(1, 1, 2)
        first.gram[0][0] = None
        assert gram(1, 1, 2).gram == [[2, 2], [2, 4]]

    def test_cache_is_bounded(self):
        assert semisimplify._pairing_exponents.cache_info().maxsize == 32

    def test_rank_is_stirling_sum(self):
        # at t = n the S Gram rank of Hom([l], [m]) is dim Hom_{S_n}(V^l, V^m)
        cases = [(l, k - l, n) for k in range(6) for l in range(k + 1) for n in range(7)]
        cases += [(3, 3, n) for n in range(8)]
        for l, m, n in cases:
            expected = sum(_stirling2(l + m, j) for j in range(n + 1))
            assert gram(l, m, n).rank == expected, (l, m, n)


    # O spaces of l + m = 8 (105 diagrams) take about 1.7 s, and GL spaces of
    # k = 5 (120 diagrams) about 9 s, for n = 1 to 4 on a 2-CPU VM
    @pytest.mark.parametrize(
        "flavor, sizes",
        [
            pytest.param("O", range(0, 7, 2), id="O-up-to-6"),
            pytest.param("O", [8], marks=pytest.mark.slow, id="O-8"),
            pytest.param("GL", range(5), id="GL-up-to-4"),
            pytest.param("GL", [5], marks=pytest.mark.slow, id="GL-5"),
        ],
    )
    def test_o_and_gl_ranks_are_classical(self, flavor, sizes):
        # at t = n the Gram rank is the O(n) or GL(n) Hom dimension, for
        # every space under MAX_GRAM_BASIS
        spaces = [sp for size in sizes for sp in _gram_spaces(size) if sp[0] == flavor]
        assert spaces and all(basis_size(*sp) <= MAX_GRAM_BASIS for sp in spaces)
        for _, l, m in spaces:
            for n in range(1, 5):
                assert gram(l, m, n, flavor).rank == _classical_rank(flavor, l, m, n), (l, m, n)

    @pytest.mark.parametrize(
        "flavor, l, m, t0", [("S", 3, 3, 1), ("O", 4, 4, 0), ("O", 4, 4, 1)]
    )
    def test_equal_entries_rank_as_one_by_one(self, monkeypatch, flavor, l, m, t0):
        # every entry t0^N is 1 at t0 = 1 and 0 at t0 = 0, where each pairing
        # closes at least one loop: the rank is taken of a 1 x 1 matrix
        shapes = []
        lifted_kernel = linalg._lifted_kernel

        def spy(rows):
            shapes.append((len(rows), len(rows[0])))
            return lifted_kernel(rows)

        monkeypatch.setattr(linalg, "_lifted_kernel", spy)
        report = gram(l, m, t0, flavor)
        assert len({x for row in report.gram for x in row}) == 1
        assert shapes == [(1, 1)]
        assert report.rank == (1 if t0 else 0)

    @pytest.mark.parametrize("flavor, l, m", PAIRED_SPACES)
    def test_integer_rank_matches_fraction_elimination(self, flavor, l, m):
        # the rank of the cleared integer matrix is the rank of the report's
        # Fraction matrix, at integer, negative and non-integer points
        for t0 in (0, 1, 2, 3, Fraction(5, 2), -3, Fraction(7, 3)):
            report = gram(l, m, t0, flavor)
            assert report.rank == dense_rank(report.gram), t0
            assert all(isinstance(x, Fraction) for row in report.gram for x in row)


class TestNegligible:
    def test_radical_element_at_1(self):
        f = identity(sig_s(1)) - diagram_morphism(PI)
        assert is_negligible(f, 1)
        assert not is_negligible(f, 2)

    def test_identity_not_negligible(self):
        assert not is_negligible(identity(sig_s(1)), 2)

    def test_zero_is_negligible(self):
        assert is_negligible(zero_morphism(sig_s(1), sig_s(2)), 3)

    def test_nullspace_dimension_matches(self):
        for t0 in (0, 1, 2):
            for l, m in [(1, 1), (2, 1), (2, 2)]:
                basis = negligible_basis(l, m, t0)
                assert len(basis) == gram(l, m, t0).nullity
                for f in basis:
                    assert is_negligible(f, t0)

    def test_absorption(self):
        rng = random.Random(5)
        for t0 in (0, 1, 2):
            for f in negligible_basis(1, 1, t0):
                g = random_morphism(rng, sig_s(2), sig_s(1))
                assert is_negligible(compose(f, g), t0)
                h = random_morphism(rng, sig_s(1), sig_s(2))
                assert is_negligible(compose(h, f), t0)
                w = random_morphism(rng, sig_s(1), sig_s(1))
                assert is_negligible(tensor(f, w), t0)


def _gram_spaces(size: int) -> list:
    """Every nonzero Hom space of l + m (S, O) or r1 + s2 (GL) equal to size."""
    spaces = [("S", l, size - l) for l in range(size + 1)]
    if size % 2 == 0:
        spaces += [("O", l, size - l) for l in range(size + 1)]
    return spaces + [
        ("GL", (r1, size - r2), (r2, size - r1))
        for r1 in range(size + 1)
        for r2 in range(size + 1)
    ]


# every space under MAX_GRAM_BASIS, split at 52 basis diagrams: the Fraction
# reference takes about 2 s for all the smaller ones and 160 s for the rest
GRAM_SPACES = [sp for size in range(11) for sp in _gram_spaces(size)]
BUDGET_SPACES = [sp for sp in GRAM_SPACES if basis_size(*sp) <= MAX_GRAM_BASIS]
SMALL_SPACES = [sp for sp in BUDGET_SPACES if basis_size(*sp) <= 52]
LARGE_SPACES = [sp for sp in BUDGET_SPACES if basis_size(*sp) > 52]

# a 5 x 5 table of exponents for S Hom([0], [3]) whose Q(t) determinant is
# nonzero but vanishes at t = 1/2: full generic rank, rank 4 at the point
SINGULAR_AT_HALF = (
    bytes([0, 0, 2, 1, 1]), bytes([1, 3, 1, 1, 0]), bytes([2, 2, 1, 0, 3]),
    bytes([2, 1, 0, 0, 3]), bytes([1, 2, 0, 0, 0]),
)


class TestGenericRank:
    """gram(l, m, None) takes its rank by integer_rank at t = 1/2, and raises
    when that rank is not full."""

    @pytest.mark.parametrize("flavor", ["S", "O", "GL"])
    def test_matches_q_t_elimination(self, flavor):
        # the independent reference: elimination over Q(t), about 1.4 s in all
        for _, l, m in [sp for sp in SMALL_SPACES if sp[0] == flavor]:
            report = gram(l, m, None, flavor)
            assert report.rank == dense_rank(report.gram) == len(report.gram), (l, m)

    def test_no_elimination_over_q_t(self, monkeypatch):
        calls = []

        def spy(name):
            real = getattr(linalg, name)

            def wrapper(*args):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(linalg, name, wrapper)

        spy("dense_rank")
        spy("_forward_eliminate")
        for flavor, l, m in [("S", 3, 3), ("O", 4, 4), ("GL", sig_gl(2, 1), sig_gl(2, 1))]:
            assert gram(l, m, None, flavor).nullity == 0
        assert calls == []

    def test_rank_below_full_at_the_point_raises(self, monkeypatch):
        monkeypatch.setattr(semisimplify, "_pairing_exponents", lambda *key: SINGULAR_AT_HALF)
        # a low rank at one point proves nothing about the generic rank
        assert dense_rank(semisimplify.gram_matrix_symbolic(0, 3)) == 5
        with pytest.raises(ArithmeticError, match=r"Hom\(S\[0\], S\[3\]\) at t = 1/2: 4 < 5"):
            gram(0, 3, None)
        assert gram(0, 3, 2).rank == 5

    # the largest spaces under MAX_GRAM_BASIS; by Q(t) elimination O (4, 4)
    # took 21.6 s and O (0, 8) over 40 s
    @pytest.mark.parametrize(
        "flavor, l, m, size",
        [("O", 4, 4, 105), ("O", 0, 8, 105), ("GL", sig_gl(3, 2), sig_gl(3, 2), 120),
         ("S", 3, 3, 203)],
    )
    def test_largest_spaces_within_budget(self, flavor, l, m, size):
        semisimplify._pairing_exponents.cache_clear()
        start = time.perf_counter()
        report = gram(l, m, None, flavor)
        assert time.perf_counter() - start < 2.0
        assert report.rank == len(report.gram) == size

    @pytest.mark.slow
    @pytest.mark.parametrize("flavor", ["S", "O", "GL"])
    def test_every_budget_space_is_full_rank_at_the_point(self, flavor):
        for _, l, m in [sp for sp in BUDGET_SPACES if sp[0] == flavor]:
            assert gram(l, m, None, flavor).rank == basis_size(flavor, l, m), (l, m)


def _fraction_negligible_basis(flavor, l, m, t0) -> list[list]:
    """The negligible basis as elimination over Fraction finds it: the right
    nullspace of the transposed Fraction Gram matrix, as morphism terms."""
    report = gram(l, m, t0, flavor)
    fs = hom_basis(as_signature(l, flavor), as_signature(m, flavor))
    return [
        [(d, RatFunc(a)) for d, a in zip(fs, vec) if a]
        for vec in right_nullspace([list(col) for col in zip(*report.gram)])
    ]


def _assert_integer_basis_matches(flavor, l, m, t0):
    got = [list(f.terms.items()) for f in negligible_basis(l, m, t0, flavor)]
    assert got == _fraction_negligible_basis(flavor, l, m, t0), (flavor, l, m, t0)


class TestIntegerNegligibleBasis:
    """negligible_basis lifts its kernel vectors from Z; they are the vectors
    Fraction elimination gives, entry for entry."""

    def test_spaces_cover_the_gram_budget(self):
        assert len(BUDGET_SPACES) == 144
        largest = {sp[0]: basis_size(*sp) for sp in BUDGET_SPACES}
        assert largest == {"S": 203, "O": 105, "GL": 120}
        for flavor, l, m in GRAM_SPACES:
            if basis_size(flavor, l, m) > MAX_GRAM_BASIS:
                with pytest.raises(ValueError, match="Gram budget"):
                    negligible_basis(l, m, 0, flavor)

    @pytest.mark.parametrize("flavor", ["S", "O", "GL"])
    def test_small_spaces_match_fraction_elimination(self, flavor):
        for _, l, m in [sp for sp in SMALL_SPACES if sp[0] == flavor]:
            for t0 in (0, 1, 2, 3):
                _assert_integer_basis_matches(flavor, l, m, t0)

    def test_s_three_three_at_two(self):
        # the largest S space under the budget; 1.1 s over Fraction alone
        _assert_integer_basis_matches("S", 3, 3, 2)

    @pytest.mark.slow
    @pytest.mark.parametrize("flavor, l, m", LARGE_SPACES)
    def test_large_spaces_match_fraction_elimination(self, flavor, l, m):
        for t0 in (0, 1, 2, 3):
            _assert_integer_basis_matches(flavor, l, m, t0)

    def test_failed_lift_falls_back_to_fraction_elimination(self, monkeypatch):
        expected = [list(f.terms.items()) for f in negligible_basis(2, 2, 1)]
        fallbacks = []
        nullspace = linalg.right_nullspace

        def spy(matrix):
            fallbacks.append(matrix)
            return nullspace(matrix)

        monkeypatch.setattr(linalg, "_lift", lambda u: None)
        monkeypatch.setattr(linalg, "right_nullspace", spy)
        got = [list(f.terms.items()) for f in negligible_basis(2, 2, 1)]
        assert got == expected
        assert len(fallbacks) == 1
        assert all(isinstance(x, Fraction) for row in fallbacks[0] for x in row)


def _direct_table(flavor, source, target) -> list[bytes]:
    """pairing_table over the two whole bases, one union-find per entry."""
    fs = enumerate_basis(flavor, source, target)
    return pairing_table(fs, enumerate_basis(flavor, target, source))


def _orbit_table(flavor, source, target) -> list[bytes]:
    """_pairing_exponents below its cache and its budget check."""
    return list(semisimplify._pairing_exponents.__wrapped__(flavor, source, target))


def _relabelled_images(ds, a, b) -> list[int]:
    """The index in ds of each diagram with endpoints a and b swapped,
    relabelling every diagram directly."""
    index = {d._blocks: i for i, d in enumerate(ds)}
    swap = {a: b, b: a}
    return [
        index[_canonical_blocks([[swap.get(x, x) for x in block] for block in d._blocks])]
        for d in ds
    ]


def _data(sp) -> tuple:
    flavor, l, m = sp
    return flavor, as_signature(l, flavor).data, as_signature(m, flavor).data


def _random_diagram(rng, flavor, source, target):
    """A random diagram of Hom(source, target), built by its public constructor."""
    l, m = sum(source), sum(target)
    points = list(range(1, l + 1)) + [-j for j in range(1, m + 1)]
    if flavor == "S":
        blocks: dict[int, list[int]] = {}
        for x in points:
            blocks.setdefault(rng.randrange(len(points)), []).append(x)
        return partition_diagram(l, m, blocks.values())
    if flavor == "O":
        rng.shuffle(points)
        return brauer_diagram(l, m, zip(points[::2], points[1::2]))
    # an edge joins a source black or a target white to a target black or a source white
    (r1, s1), (r2, s2) = source, target
    side_a = list(range(1, r1 + 1)) + [-(r2 + j) for j in range(1, s2 + 1)]
    side_b = [-j for j in range(1, r2 + 1)] + list(range(r1 + 1, r1 + s1 + 1))
    rng.shuffle(side_b)
    return walled_diagram(source, target, zip(side_a, side_b))


def _random_permutation(rng, data) -> list[int]:
    """perm[i - 1] is the image of endpoint i: any permutation of each color
    block of the row (the one block of S and O, blacks then whites for GL)."""
    perm, start = [], 0
    for count in data:
        block = list(range(start + 1, start + count + 1))
        rng.shuffle(block)
        perm += block
        start += count
    return perm


def _and_inverse(perm: list[int]) -> tuple[list[int], list[int]]:
    inverse = [0] * len(perm)
    for i, p in enumerate(perm, 1):
        inverse[p - 1] = i
    return perm, inverse


def _permutation_diagram(flavor, data, perm):
    """The diagram joining source endpoint i to target endpoint perm[i - 1]."""
    pairs = [(i, -p) for i, p in enumerate(perm, 1)]
    if flavor == "GL":
        return walled_diagram(data, data, pairs)
    build = partition_diagram if flavor == "S" else brauer_diagram
    return build(data[0], data[0], pairs)


def _after(*ds):
    """d1 o d2 o ... by compose_diagrams; permutations close no loop."""
    out = ds[-1]
    for d in reversed(ds[:-1]):
        out, power = compose_diagrams(d, out)
        assert power == 0
    return out


# Hom spaces for the invariance test: (source data, target data) per flavor
INVARIANCE_SPACES = {
    "S": [((1,), (3,)), ((2,), (2,)), ((3,), (3,)), ((2,), (4,)), ((0,), (3,))],
    "O": [((1,), (3,)), ((2,), (2,)), ((3,), (3,)), ((2,), (4,)), ((4,), (4,))],
    "GL": [
        ((2, 1), (2, 1)), ((1, 2), (2, 3)), ((3, 1), (3, 1)), ((2, 2), (2, 2)), ((3, 0), (4, 1)),
    ],
}

# (flavor, source data, target data) with an empty basis
EMPTY_SPACES = [
    ("O", (0,), (1,)), ("O", (1,), (2,)), ("GL", (1, 0), (0, 0)), ("GL", (1, 0), (0, 1)),
]


class TestOrbitPairingTable:
    """_pairing_exponents runs the union-find for one row per orbit of the
    row permutations and fills the other rows by permuting bytes."""

    @pytest.mark.parametrize("sp", BUDGET_SPACES, ids=str)
    def test_equals_the_direct_table(self, sp):
        assert _orbit_table(*_data(sp)) == _direct_table(*_data(sp))

    def test_budget_spaces_cover_both_colors_and_the_zero_object(self):
        gl = [_data(sp)[1:] for sp in BUDGET_SPACES if sp[0] == "GL"]
        assert any(min(src) > 1 and min(tgt) > 1 for src, tgt in gl)
        assert {("S", 0, 0), ("O", 0, 0), ("GL", (0, 0), (0, 0))} <= set(BUDGET_SPACES)

    @pytest.mark.parametrize("flavor, source, target", EMPTY_SPACES)
    def test_empty_bases(self, flavor, source, target):
        assert basis_size(flavor, source, target) == 0
        assert _orbit_table(flavor, source, target) == _direct_table(flavor, source, target) == []

    @pytest.mark.slow
    @pytest.mark.parametrize("flavor, source, target", [("S", (3,), (4,)), ("O", (5,), (5,))])
    def test_equals_the_direct_table_above_the_budget(self, flavor, source, target):
        # 877 and 945 diagrams; about 4 and 5 s, nearly all in the direct table
        assert basis_size(flavor, source, target) > MAX_GRAM_BASIS
        assert _orbit_table(flavor, source, target) == _direct_table(flavor, source, target)

    @pytest.mark.parametrize(
        "flavor, source, target",
        [
            ("S", (3,), (3,)),
            ("S", (2,), (3,)),
            pytest.param("S", (3,), (4,), marks=pytest.mark.slow),
            ("O", (4,), (4,)),
            pytest.param("O", (5,), (5,), marks=pytest.mark.slow),
            ("GL", (3, 1), (3, 1)),
            ("GL", (2, 2), (2, 2)),
            ("GL", (2, 1), (1, 0)),
            ("S", (0,), (3,)),
            ("S", (1,), (0,)),
        ],
    )
    def test_mirrored_columns_equal_relabelled_ones(self, flavor, source, target):
        # the g-side permutations are read through the mirror image of each g;
        # relabelling every g directly gives the same ones
        fs = enumerate_basis(flavor, source, target)
        gs = enumerate_basis(flavor, target, source)
        generators = [
            (sign * i, sign * (i + 1))
            for sign, data in ((1, source), (-1, target))
            for start, count in zip(itertools.accumulate((0,) + data), data)
            for i in range(start + 1, start + count)
        ]
        assert _row_transpositions(fs, gs) == [
            (_relabelled_images(fs, a, b), _relabelled_images(gs, -a, -b)) for a, b in generators
        ]

    @pytest.mark.parametrize(
        "flavor, source, target, orbits",
        [
            ("S", (3,), (3,), 31),
            ("S", (2,), (3,), 16),
            ("O", (4,), (4,), 3),
            ("GL", (3, 1), (3, 1), 2),
            ("GL", (2, 2), (2, 2), 3),
        ],
    )
    def test_one_union_find_row_per_orbit(self, monkeypatch, flavor, source, target, orbits):
        built = []

        def spy(fs, gs):
            built.append(len(fs))
            return pairing_table(fs, gs)

        monkeypatch.setattr(semisimplify, "pairing_table", spy)
        semisimplify._pairing_exponents.cache_clear()
        rows = semisimplify._pairing_exponents(flavor, source, target)
        assert built == [orbits]
        assert len(rows) == basis_size(flavor, source, target) > orbits
        assert semisimplify._pairing_exponents(flavor, source, target) is rows
        assert built == [orbits]

    @pytest.mark.parametrize("flavor", ["S", "O", "GL"])
    def test_pairing_is_invariant_under_row_permutations(self, flavor):
        # G[s f t, t^-1 g s^-1] = G[f, g] for any s of the target row and t of
        # the source row, each preserving colors, composed as diagrams
        rng = random.Random(18)
        moved = 0
        for source, target in INVARIANCE_SPACES[flavor]:
            for _ in range(40):
                f = _random_diagram(rng, flavor, source, target)
                g = _random_diagram(rng, flavor, target, source)
                sigma = _random_permutation(rng, target)
                tau = _random_permutation(rng, source)
                s, s_inv = (_permutation_diagram(flavor, target, p) for p in _and_inverse(sigma))
                t_, t_inv = (_permutation_diagram(flavor, source, p) for p in _and_inverse(tau))
                assert _after(s, s_inv) == identity_diagram(flavor, target)
                f2 = _after(s, f, t_)
                g2 = _after(t_inv, g, s_inv)
                assert pairing_table([f2], [g2]) == pairing_table([f], [g])
                moved += f2 != f
        assert moved > 100


class TestQuotientDim:
    def test_end_vv_at_2(self):
        assert quotient_dim(2, 2, 2) == 8

    def test_end_v_at_1(self):
        assert quotient_dim(1, 1, 1) == 1

    def test_stable_range(self):
        assert quotient_dim(1, 1, 5) == 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            quotient_dim(1, 1, -1)

    def test_character_theory_oracle(self):
        # dim Hom_{S_n}(V^l, V^m) = (1/n!) sum_sigma fix(sigma)^(l+m)
        import itertools
        import math

        def classical(l, m, n):
            total = 0
            for sigma in itertools.permutations(range(n)):
                fixed = sum(1 for i, x in enumerate(sigma) if i == x)
                total += fixed ** (l + m)
            return total // math.factorial(n)

        for n in (1, 2, 3):
            for l in range(3):
                for m in range(3 - l):
                    assert quotient_dim(l, m, n) == classical(l, m, n), (l, m, n)

    @pytest.mark.slow
    @pytest.mark.parametrize("n, rank", [(2, 64), (3, 365)])
    def test_stirling_sums_above_the_budget(self, n, rank):
        # S Hom([3], [4]) has Bell(7) = 877 diagrams, over MAX_GRAM_BASIS, so
        # its Gram rows come through _gram_space's limit; about 1.1 and 2.6 s
        src, tgt = semisimplify._gram_space(3, 4, "S", limit=bell_number(7))
        rows = semisimplify._gram_entries(src, tgt, Fraction(n), cleared=True)
        assert len(rows) == 877 > MAX_GRAM_BASIS
        assert linalg.integer_rank(rows) == rank == sum(_stirling2(7, k) for k in range(n + 1))


class TestAnnihilated:
    def test_examples(self):
        assert annihilated_simples(2, 2) == [(2,), (1, 1)]
        assert annihilated_simples(0, 1) == [(1,)]
        assert annihilated_simples(5, 2) == []

    def test_threshold_boundary(self):
        # (1) survives at n = 2: |lambda| + lambda_1 = 2 <= 2
        assert (1,) not in annihilated_simples(2, 2)
        assert (1,) in annihilated_simples(1, 1)

    def test_negative_n_raises(self):
        with pytest.raises(ValueError, match="expects a nonnegative integer n"):
            annihilated_simples(-1, 2)
