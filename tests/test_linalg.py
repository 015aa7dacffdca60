"""Dense elimination: rank, determinant and nullspace share one pass.  The
integer rank is certified over Z, with Fraction elimination as its fallback.
The elimination mod p, which reduces only where it reads, is pinned to the
one that reduces at every step, kept here as the reference."""

import math
import random
from fractions import Fraction

import pytest

from interpcat import linalg, semisimplify
from interpcat.diagrams import basis_size
from interpcat.linalg import (
    dense_rank,
    determinant,
    integer_rank,
    right_nullspace,
)
from interpcat.ratfunc import RF_T, RatFunc
from interpcat.semisimplify import MAX_GRAM_BASIS

F = Fraction
t = RF_T


def apply(matrix, vec):
    return [sum((a * v for a, v in zip(row, vec)), type(vec[0])(0)) for row in matrix]


class TestDense:
    def test_determinant_needs_row_swap(self):
        assert determinant([[F(0), F(1)], [F(1), F(0)]]) == -1
        assert determinant([[F(0), F(2), F(1)], [F(3), F(1), F(0)], [F(1), F(0), F(0)]]) == -1

    def test_singular_determinant_is_a_field_zero(self):
        for matrix in ([[F(1), F(2)], [F(2), F(4)]], [[F(0), F(1)], [F(0), F(2)]]):
            det = determinant(matrix)
            assert det == 0 and isinstance(det, Fraction)

    def test_symbolic_determinant(self):
        assert determinant([[t, t], [t, t * t]]) == t * t * t - t * t

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ([[F(1), F(2)]], "determinant needs a square matrix"),
            ([[F(1)], [F(2)]], "determinant needs a square matrix"),
            ([[F(1), F(2)], [F(3)]], "determinant needs a square matrix"),
            # no field element to return: semisimplify's empty Gram matrix
            # answers 1 itself
            ([], "determinant of an empty matrix is undefined here"),
        ],
    )
    def test_determinant_refusals(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            determinant(matrix)

    def test_rank_skips_pivotless_columns(self):
        matrix = [[F(0), F(1), F(2), F(3)], [F(0), F(2), F(4), F(7)], [F(0), F(0), F(0), F(1)]]
        assert dense_rank(matrix) == 2
        assert dense_rank([]) == 0
        assert dense_rank([[F(0), F(0)]]) == 0

    def test_nullspace_solves_and_counts(self):
        matrix = [[F(0), F(1), F(2), F(3)], [F(0), F(2), F(4), F(7)], [F(1), F(0), F(1), F(0)]]
        basis = right_nullspace(matrix)
        assert len(basis) == 4 - dense_rank(matrix)
        for vec in basis:
            assert apply(matrix, vec) == [0, 0, 0]

    def test_nullspace_of_zero_ratfunc_matrix_keeps_entry_type(self):
        basis = right_nullspace([[RatFunc(0), RatFunc(0)]])
        assert basis == [[RatFunc(1), RatFunc(0)], [RatFunc(0), RatFunc(1)]]
        assert all(isinstance(x, RatFunc) for vec in basis for x in vec)


@pytest.fixture
def fallbacks(monkeypatch):
    """Record every Fraction elimination that integer_rank falls back to."""
    calls = []

    def spy(matrix):
        calls.append(matrix)
        return dense_rank(matrix)

    monkeypatch.setattr(linalg, "dense_rank", spy)
    return calls


class TestIntegerRank:
    @pytest.mark.parametrize("shape", ["wide", "tall"])
    def test_planted_rank_matches_fraction_elimination(self, shape, fallbacks):
        rng = random.Random(f"planted {shape}")
        for _ in range(60):
            short, long = rng.randint(1, 8), rng.randint(8, 14)
            k, n = (short, long) if shape == "wide" else (long, short)
            r = rng.randint(0, min(k, n, 6))
            left = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(k)]
            right = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(r)]
            matrix = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
            assert integer_rank(matrix) == dense_rank([[F(x) for x in row] for row in matrix]) <= r
        # kernel entries are ratios of minors of at most 6 x 6 matrices with
        # entries below 10, inside the lifting bound: every rank is certified
        assert fallbacks == []

    def test_small_and_degenerate_matrices(self, fallbacks):
        assert integer_rank([]) == 0
        assert integer_rank([[]]) == 0
        assert integer_rank([[0, 0, 0], [0, 0, 0]]) == 0
        assert integer_rank([[7]]) == 1
        assert integer_rank([[0]]) == 0
        assert integer_rank([[2**64, 2**64], [3, 3]]) == 1
        assert integer_rank([[2**62 + 1, 0], [0, -(2**62) - 1]]) == 2
        assert fallbacks == []

    def test_prime_multiple_falls_back(self, fallbacks):
        # 2^61 - 1 is 0 mod p, so the kernel vector (1) fails A v = 0 over Z
        assert integer_rank([[2**61 - 1]]) == 1
        assert len(fallbacks) == 1
        assert integer_rank([[2**61 - 1, 0], [0, 2 * (2**61 - 1)], [5, 0]]) == 2
        assert len(fallbacks) == 2

    def test_large_denominator_falls_back(self, fallbacks):
        # the kernel vector (-1/d, 1) has a denominator above the lifting bound
        d = 2**40 + 1
        assert integer_rank([[d, 1], [2 * d, 2], [3 * d, 3]]) == 1
        assert len(fallbacks) == 1

    def test_entries_above_the_prime(self, fallbacks):
        # 2^70 = 2^9 mod p: the lifted kernel vector (-1/512, 1) fails over Z
        assert integer_rank([[2**70, 1], [2**71, 2]]) == 1
        assert integer_rank([[2**70, 1], [2**71, 3]]) == 2
        assert len(fallbacks) == 1


class TestIntegerNullspace:
    """right_nullspace of a matrix of ints: lifted from Z, else over Fraction."""

    def test_planted_kernels_match_fraction_elimination(self, monkeypatch):
        fallbacks = []
        nullspace = linalg.right_nullspace

        def spy(matrix):
            fallbacks.append(matrix)
            return nullspace(matrix)

        monkeypatch.setattr(linalg, "right_nullspace", spy)
        rng = random.Random("planted nullspace")
        for _ in range(60):
            k, n, r = rng.randint(1, 10), rng.randint(1, 10), rng.randint(0, 6)
            left = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(k)]
            right = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(r)]
            matrix = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
            basis = right_nullspace(matrix)
            assert basis == right_nullspace([[F(x) for x in row] for row in matrix])
            assert all(type(x) is F for vec in basis for x in vec)
        # every kernel is certified, as in test_planted_rank_matches_fraction_elimination
        assert fallbacks == []

    def test_failed_check_falls_back(self):
        # 2^61 - 1 is 0 mod p: the kernel vector (1, 0) read mod p fails over Z
        p = 2**61 - 1
        assert right_nullspace([[p, 1]]) == [[F(-1, p), F(1)]]
        assert right_nullspace([[2, 4], [1, 2]]) == [[F(-2), F(1)]]
        assert right_nullspace([[1, 0], [0, 3]]) == []


def _planted(rng, k: int, n: int, r: int) -> list[list[int]]:
    """A k x n product of random k x r and r x n matrices with entries in [-9, 9]."""
    left = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(k)]
    right = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(r)]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]


def _repeated(rng, matrix: list[list[int]]) -> list[list[int]]:
    """matrix with each row, then each column, taken 1 to 3 times, shuffled."""
    rows = [row for row in matrix for _ in range(rng.randint(1, 3))]
    rng.shuffle(rows)
    cols = [col for col in zip(*rows) for _ in range(rng.randint(1, 3))]
    rng.shuffle(cols)
    return [list(row) for row in zip(*cols)]


@pytest.fixture
def kernel_shapes(monkeypatch):
    """Record the shape of every matrix that _lifted_kernel sees."""
    shapes = []
    lifted_kernel = linalg._lifted_kernel

    def spy(rows):
        shapes.append((len(rows), len(rows[0])))
        return lifted_kernel(rows)

    monkeypatch.setattr(linalg, "_lifted_kernel", spy)
    return shapes


class TestRepeatedRowsAndColumns:
    """integer_rank drops repeated rows and then repeated columns, and keeps
    rows as rows; right_nullspace drops repeated rows only."""

    def test_planted_rank_with_repeats(self, fallbacks):
        rng = random.Random("repeated rows and columns")
        negative = 0
        for _ in range(80):
            k, n, r = rng.randint(1, 7), rng.randint(1, 7), rng.randint(0, 5)
            matrix = _repeated(rng, _planted(rng, k, n, r))
            negative += any(x < 0 for row in matrix for x in row)
            assert integer_rank(matrix) == dense_rank([[F(x) for x in row] for row in matrix])
        assert negative > 40
        assert fallbacks == []

    def test_planted_kernels_with_repeats(self, monkeypatch):
        fallbacks = []
        nullspace = linalg.right_nullspace

        def spy(matrix):
            fallbacks.append(matrix)
            return nullspace(matrix)

        monkeypatch.setattr(linalg, "right_nullspace", spy)
        rng = random.Random("repeated rows, kept columns")
        for _ in range(80):
            k, n, r = rng.randint(1, 7), rng.randint(1, 7), rng.randint(0, 5)
            matrix = _repeated(rng, _planted(rng, k, n, r))
            basis = right_nullspace(matrix)
            assert basis == right_nullspace([[F(x) for x in row] for row in matrix])
            assert all(len(vec) == len(matrix[0]) for vec in basis)
        assert fallbacks == []

    def test_equal_entries_rank_as_one_by_one(self, kernel_shapes, fallbacks):
        assert integer_rank([[5] * 40] * 30) == 1
        assert integer_rank([[0] * 40] * 30) == 0
        assert kernel_shapes == [(1, 1), (1, 1)]
        assert fallbacks == []

    def test_rows_stay_rows(self, kernel_shapes):
        # repeated columns go, and the rest keeps its orientation
        assert integer_rank([[1, 1, 2], [3, 3, 4]]) == 2
        assert integer_rank([[1, 1, 1, 2], [3, 3, 3, 4], [5, 5, 5, 6]]) == 2
        # two distinct rows and three distinct columns: turned to 3 x 2
        assert integer_rank([[1, 2, 3], [1, 2, 3], [4, 5, 7]]) == 2
        assert kernel_shapes == [(2, 2), (3, 2), (3, 2)]

    def test_nullspace_keeps_repeated_columns(self, kernel_shapes):
        # columns 0 and 1 are equal, so e_0 - e_1 is in the kernel
        assert right_nullspace([[1, 1, 2], [1, 1, 2], [3, 3, 4]]) == [[F(-1), F(1), F(0)]]
        assert kernel_shapes == [(2, 3)]


class TestPackedCheck:
    """_annihilates checks A v = 0 for every v at once, one vector per slot
    of w = _slot_width bits in one integer per column."""

    # one row, two vectors: the true slots are A v_0 = 8 and A v_1 = -1, and
    # w = bitlen(3) + bitlen(|2| + |1|) + 2 = 6
    ROW = [[3, 2]]
    CARRY = [{0: 2, 1: 1}, {0: 1, 1: -2}]

    @staticmethod
    def slots(rows, vectors):
        return [sum(row[c] * x for c, x in v.items()) for v in vectors for row in rows]

    def test_slots_reach_the_bound(self):
        # every slot is below 2^(w - 2), and this one is not below 2^(w - 3):
        # the width is the documented one, not a narrower or wider one
        w = linalg._slot_width(self.ROW, self.CARRY)
        assert w == 6
        assert 2 ** (w - 3) <= max(map(abs, self.slots(self.ROW, self.CARRY))) < 2 ** (w - 2)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_narrower_slot_carries_into_the_next(self, monkeypatch, sign):
        vectors = [{c: sign * x for c, x in v.items()} for v in self.CARRY]
        assert self.slots(self.ROW, vectors) == [8 * sign, -sign]
        assert not linalg._annihilates(self.ROW, vectors)
        # at 3 bits slot 0 holds 8 = 2^3 and cancels slot 1: the packed sum is
        # 3 * (2 + 8) + 2 * (1 - 16) = 0 for sign 1, although no slot is 0
        monkeypatch.setattr(linalg, "_slot_width", lambda rows, vecs: 3)
        assert linalg._annihilates(self.ROW, vectors)

    def test_negative_entries(self):
        rows = [[-3, 2, 1], [1, -1, 0], [-2 ** 70, 2 ** 70, 0]]
        kernel = [{0: 1, 1: 1, 2: 1}, {0: -5, 1: -5, 2: -5}]
        assert linalg._annihilates(rows, kernel)
        # (1, 1, 1) + e_2 misses only the first row, by 1, in the last slot
        assert not linalg._annihilates(rows, kernel + [{0: 1, 1: 1, 2: 2}])
        assert not linalg._annihilates(rows, [{0: -1}] + kernel)

    def test_zero_matrix(self):
        zero = [[0, 0, 0], [0, 0, 0]]
        assert linalg._annihilates(zero, [{0: 1}, {1: -7}, {2: 2 ** 80}])
        assert linalg._annihilates(zero, [])
        assert linalg._annihilates([[1, 2]], [])

    def test_matches_the_vector_by_vector_check(self):
        rng = random.Random("packed check")
        for _ in range(100):
            k, n = rng.randint(1, 6), rng.randint(2, 7)
            rows = _planted(rng, k, n, rng.randint(0, n - 1))
            vectors = []
            for vec in right_nullspace([[F(x) for x in row] for row in rows]):
                scale = math.lcm(*(x.denominator for x in vec)) * rng.choice([1, -1, 3])
                vectors.append({c: int(x * scale) for c, x in enumerate(vec) if x})
            assert linalg._annihilates(rows, vectors)
            if vectors:
                v, c = rng.choice(vectors), rng.randrange(n)
                v[c] = v.get(c, 0) + rng.choice([1, -1])
            expected = all(self.slots([row], [v]) == [0] for row in rows for v in vectors)
            assert linalg._annihilates(rows, vectors) == expected


P = linalg._P


def _reference_eliminate(rows: list[list[int]]) -> list[int]:
    """The elimination mod p that reduces every entry at every step: each
    row update is (a - x b) mod p.  _eliminate_mod_p must match it."""
    pivots: list[int] = []
    for col in range(len(rows[0])):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        inv = pow(rows[r][col], -1, P)
        tail = [x * inv % P for x in rows[r][col:]]
        rows[r][col:] = tail
        for row in rows[r + 1 :]:
            x = row[col]
            if x:
                row[col:] = [(a - x * b) % P for a, b in zip(row[col:], tail)]
        pivots.append(col)
    return pivots


def _reference_lifted_kernel(rows, pivots, echelon):
    """_lifted_kernel's result from _reference_eliminate's pivots and echelon
    rows, with a back-substitution that also reduces at every step; the lift
    and the check over Z are the library's."""
    r = len(pivots)
    free = [c for c in range(len(rows[0])) if c not in pivots]
    blocks = [[row[f] for f in free] for row in echelon[:r]]
    for k in reversed(range(r)):
        col, below = pivots[k], blocks[k]
        for i in range(k):
            x = echelon[i][col]
            if x:
                blocks[i] = [(a - x * b) % P for a, b in zip(blocks[i], below)]
    kernel, cleared = [], []
    for j, f in enumerate(free):
        lifted = {f: (1, 1)}
        for i, col in enumerate(pivots):
            if blocks[i][j]:
                entry = linalg._lift(P - blocks[i][j])
                if entry is None:
                    return r, None
                lifted[col] = entry
        denom = math.lcm(*(d for _, d in lifted.values()))
        kernel.append(lifted)
        cleared.append({col: n * (denom // d) for col, (n, d) in lifted.items()})
    return r, kernel if linalg._annihilates(rows, cleared) else None


def _assert_matches_reference(matrix, result):
    """_eliminate_mod_p finds the reference's pivots and leaves rows congruent
    mod p to its echelon rows, and result, _lifted_kernel(matrix), is the
    reference's."""
    lazy = [[x % P for x in row] for row in matrix]
    echelon = [list(row) for row in lazy]
    pivots = _reference_eliminate(echelon)
    assert linalg._eliminate_mod_p(lazy) == pivots
    assert [[x % P for x in row] for row in lazy] == echelon
    assert result == _reference_lifted_kernel(matrix, pivots, echelon)


def _fuzz_matrices(count: int) -> list[list[list[int]]]:
    """Seeded planted-rank matrices in five kinds: plain, every entry
    shifted by 2^70, multiples of p added to some entries, some rows times
    p, and rows repeated."""
    rng = random.Random("lazy reduction")
    out = []
    for n in range(count):
        k, m, r = rng.randint(1, 12), rng.randint(1, 12), rng.randint(1, 8)
        matrix = _planted(rng, k, m, r)
        kind = n % 5
        if kind == 1:
            matrix = [[x + 2**70 for x in row] for row in matrix]
        elif kind == 2:
            matrix = [[x + P * rng.choice([0, 0, 1, -3]) for x in row] for row in matrix]
        elif kind == 3:
            matrix = [[x * P for x in row] if rng.random() < 0.3 else row for row in matrix]
        elif kind == 4:
            matrix = [list(row) for row in matrix for _ in range(rng.randint(1, 3))]
            rng.shuffle(matrix)
        out.append(matrix)
    return out


def _budget_gram_spaces():
    """(flavor, source, target) for every nonzero Hom space under the Gram
    budget: l + m <= 10 for S and O, r1 + s2 <= 10 for GL."""
    spaces = [("S", l, n - l) for n in range(11) for l in range(n + 1)]
    spaces += [("O", l, n - l) for n in range(0, 11, 2) for l in range(n + 1)]
    spaces += [
        ("GL", (r1, n - r2), (r2, n - r1))
        for n in range(11) for r1 in range(n + 1) for r2 in range(n + 1)
    ]
    return [sp for sp in spaces if 0 < basis_size(*sp) <= MAX_GRAM_BASIS]


# split at 15 basis diagrams: the smaller spaces take about 0.2 s at all six
# points, the larger ones about 45 s, on a 2-CPU VM
BUDGET_SPACES = _budget_gram_spaces()
SMALL_SPACES = [sp for sp in BUDGET_SPACES if basis_size(*sp) <= 15]
LARGE_SPACES = [sp for sp in BUDGET_SPACES if basis_size(*sp) > 15]
GRAM_POINTS = [0, 1, 2, 3, -1, F(1, 2)]


class TestLazyReduction:
    """_eliminate_mod_p and the back-substitution reduce a value mod p only
    where it is read.  Pinned to the elimination that reduces at every step:
    the same pivots, echelon rows congruent mod p, the same kernel vectors."""

    def test_fuzz_matches_the_reference(self):
        failed = certified = 0
        for matrix in _fuzz_matrices(400):
            result = linalg._lifted_kernel(matrix)
            _assert_matches_reference(matrix, result)
            failed += result[1] is None
            certified += result[1] is not None
        # both branches of _lifted_kernel are reached
        assert failed > 40 and certified > 200

    @staticmethod
    def _gram_kernels(monkeypatch, spaces, points):
        """(matrix, result) of every _lifted_kernel call that the Gram rank
        and the negligible basis make on spaces at points: integer_rank of the
        cleared Gram rows and right_nullspace of their transpose."""
        calls = []
        lifted_kernel = linalg._lifted_kernel

        def spy(rows):
            calls.append((rows, lifted_kernel(rows)))
            return calls[-1][1]

        monkeypatch.setattr(linalg, "_lifted_kernel", spy)
        for flavor, source, target in spaces:
            src, tgt = semisimplify._gram_space(source, target, flavor)
            for t0 in points:
                rows = semisimplify._gram_entries(src, tgt, F(t0), cleared=True)
                integer_rank(rows)
                right_nullspace([list(col) for col in zip(*rows)])
        assert len(calls) == 2 * len(points) * len(spaces)
        return calls

    def test_small_gram_spaces_match_the_reference(self, monkeypatch):
        for matrix, result in self._gram_kernels(monkeypatch, SMALL_SPACES, GRAM_POINTS):
            _assert_matches_reference(matrix, result)

    @pytest.mark.slow
    @pytest.mark.parametrize("t0", GRAM_POINTS)
    def test_large_gram_spaces_match_the_reference(self, monkeypatch, t0):
        for matrix, result in self._gram_kernels(monkeypatch, LARGE_SPACES, [t0]):
            _assert_matches_reference(matrix, result)

    def test_entries_stay_within_the_growth_bound(self):
        matrices = _fuzz_matrices(100)
        src, tgt = semisimplify._gram_space(4, 4, "O")
        matrices.append(semisimplify._gram_entries(src, tgt, F(2), cleared=True))
        unreduced = 0
        for matrix in matrices:
            rows = [[x % P for x in row] for row in matrix]
            r = len(linalg._eliminate_mod_p(rows))
            top = max(abs(x) for row in rows for x in row)
            assert top <= P + r * P**2
            unreduced += top >= P
        # the bound is not vacuous: entries are left unreduced
        assert unreduced > 10
