"""Dense elimination: rank, determinant and nullspace share one pass.  The
integer rank is certified over Z, with Fraction elimination as its fallback."""

import random
from fractions import Fraction

import pytest

from interpcat import linalg
from interpcat.linalg import (
    dense_rank,
    determinant,
    integer_rank,
    right_nullspace,
)
from interpcat.ratfunc import RF_T, RatFunc

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
