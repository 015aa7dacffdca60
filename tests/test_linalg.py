"""Dense elimination: rank, determinant and nullspace share one pass."""

from fractions import Fraction

from interpcat.linalg import dense_rank, determinant, right_nullspace
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
