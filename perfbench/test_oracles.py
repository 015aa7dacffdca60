"""Hand-checked values for the benchmark's independent oracles.

    python3 -m pytest -q perfbench/test_oracles.py
"""

from fractions import Fraction

import pytest

import oracles as O


def test_counting():
    assert [O.bell(n) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]
    assert [O.odd_double_factorial(p) for p in (0, 2, 4, 6, 8, 3)] == [1, 1, 3, 15, 105, 0]
    assert O.stirling2(4, 2) == 7 and O.stirling2(5, 3) == 25 and O.stirling2(3, 0) == 0
    assert O.stirling2(0, 0) == 1
    # S(6, j) = 1, 31, 90, 65, 15, 1
    assert [O.stirling_sum(6, n) for n in range(7)] == [0, 1, 32, 122, 187, 202, 203]
    assert O.stirling_sum(0, 0) == 1


def test_partitions_and_hooks():
    assert list(O.partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert list(O.partitions(0)) == [()]
    assert O.hooks((2, 1)) == [3, 1, 1]
    assert [O.hook_length_dim(lam) for lam in O.partitions(4)] == [1, 3, 2, 3, 1]
    assert O.hook_length_dim((3, 2)) == 5 and O.hook_length_dim(()) == 1
    assert sum(O.hook_length_dim(lam) ** 2 for lam in O.partitions(5)) == 120


def test_schur_weyl_and_lr_total():
    # End_{GL_2}(V^{(x)3}): (3) and (2,1) give 1 + 4
    assert O.schur_weyl_sum(3, 2) == 5
    assert [O.schur_weyl_sum(4, n) for n in range(5)] == [0, 1, 14, 23, 24]
    # s_(1) s_(1) = s_(2) + s_(1,1): 1 + 1 = C(2,1)
    assert O.lr_dimension_total((1,), (1,)) == 2
    # s_(2,1) s_(1) = s_(3,1) + s_(2,2) + s_(2,1,1): 3 + 2 + 3 = C(4,3) * 2
    assert O.lr_dimension_total((2, 1), (1,)) == 8


def test_classical_dimensions():
    # S_n: L((1)) at n = 3 is the standard rep (2, 1), dimension 2
    assert O.s_dim_at((1,), 3) == 2 and O.s_dim_at((), 5) == 1
    assert O.s_dim_at((2,), 5) == 5  # (3, 2)
    # GL_3: (2, 1, 0) has dimension 8; V (x) V* minus trace is 8 too
    assert O.gl_weyl_dim((2, 1), (), 3) == 8
    assert O.gl_weyl_dim((1,), (1,), 3) == 8
    assert O.gl_weyl_dim((), (2,), 2) == 3 and O.gl_weyl_dim((), (), 4) == 1
    # O(3): symmetric traceless 5, antisymmetric 3
    assert O.o_dim_closed((2,), 3) == 5 and O.o_dim_closed((1, 1), 3) == 3
    assert O.o_dim_closed((1,), 7) == 7
    # Haar averages of tr(g)^m: O(1) = {1, -1} gives (1 + (-1)^m) / 2; on O(2)
    # the rotations give C(m, m/2) and the reflections (trace 0) nothing
    assert [O.o_invariant_dim(m, 1) for m in (2, 3, 8)] == [1, 0, 1]
    assert [O.o_invariant_dim(m, 2) for m in (2, 4, 6, 8)] == [1, 3, 10, 35]
    # n >= m/2: every Brauer diagram survives, (m - 1)!!
    assert O.o_invariant_dim(8, 4) == 105 and O.o_invariant_dim(8, 9) == 105
    with pytest.raises(ValueError):
        O.o_dim_closed((3,), 4)


def test_polynomials():
    half = Fraction(1, 2)
    # dim Sym^2 = t(t+1)/2, dim Alt^2 = t(t-1)/2
    assert O.content_hook_poly((2,)) == [0, half, half]
    assert O.content_hook_poly((1, 1)) == [0, -half, half]
    assert O.poly_eval(O.content_hook_poly((2, 1)), 3) == 8
    assert O.poly_mul([1, 1], [-1, 1]) == [-1, 0, 1]
    assert O.poly_add([1, 2], [-1, -2]) == []
    assert O.t_power(2) == [0, 0, 1]
    assert O.rat_equal(([0, 1], [1]), ([0, 2], [2]))
    assert not O.rat_equal(([1], [1, 1]), ([1], [1]))
    assert O.rat_is_poly(([0, 0, 2], [0, 2]), [0, 1])
