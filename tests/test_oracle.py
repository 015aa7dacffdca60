"""Classical matrix realizations and structure-constant verification."""

import numpy as np
import pytest

from interpcat.diagrams import (
    coarsenings,
    compose_diagrams,
    enumerate_basis,
    identity_diagram,
    partition_diagram,
)
from interpcat.homspaces import diagram_morphism, identity, sig_gl, sig_s
from interpcat.karoubi import KaroubiObject, young_symmetrizer
from interpcat import oracle
from interpcat.linalg import integer_rank
from interpcat.oracle import (
    delta_matrix,
    diagram_matrix,
    e_matrix,
    functor_image_rank,
    hom_dim_classical,
    morphism_matrix,
    verify_structure_constants,
)
from interpcat.partitions import bell_number
from interpcat.ratfunc import PoleError, RF_T

PI = partition_diagram(1, 1, [(1,), (-1,)])


class TestPatternMatrices:
    def test_e_pi_all_ones(self):
        for n in (1, 2, 4):
            assert np.array_equal(e_matrix(PI, n), np.ones((n, n), dtype=np.int64))

    def test_delta_pi_off_diagonal(self):
        for n in (2, 3):
            expected = np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)
            assert np.array_equal(delta_matrix(PI, n), expected)

    def test_identity_matrix(self):
        assert np.array_equal(e_matrix(identity_diagram("S", 1), 3), np.eye(3, dtype=np.int64))

    def test_delta_vanishes_with_many_blocks(self):
        d = partition_diagram(2, 1, [(1,), (2,), (-1,)])
        assert not delta_matrix(d, 2).any()

    def test_coarsening_sum(self):
        for d in enumerate_basis("S", 2, 1):
            lhs = e_matrix(d, 3)
            rhs = sum(delta_matrix(c, 3) for c in coarsenings(d))
            assert np.array_equal(lhs, rhs)

    def test_budget_guard(self):
        with pytest.raises(ValueError, match="budget"):
            e_matrix(identity_diagram("S", 8), 7)

    def test_four_to_three_map(self):
        # P = {1,1'}, {2,4}, {3}, {2',3'} sends v_i1 x v_i2 x v_i3 x v_i4 to
        # sum_j v_i1 x v_j x v_j, strictly when i2 = i4 and i1, i2, i3, j are
        # pairwise distinct, relaxed when only i2 = i4 is required
        p = partition_diagram(4, 3, [(1, -1), (2, 4), (3,), (-2, -3)])
        n = 4
        strict = delta_matrix(p, n)
        relaxed = e_matrix(p, n)

        def flat(tup):
            out = 0
            for v in tup:
                out = out * n + v
            return out

        col = flat((0, 1, 2, 1))
        strict_rows = [r for r in range(n**3) if strict[r, col]]
        assert strict_rows == [flat((0, 3, 3))]
        relaxed_rows = [r for r in range(n**3) if relaxed[r, col]]
        assert relaxed_rows == [flat((0, j, j)) for j in range(n)]
        # i2 != i4 kills the column entirely
        assert not strict[:, flat((0, 1, 2, 3))].any()
        assert not relaxed[:, flat((0, 1, 2, 3))].any()

    def test_zero_to_five_state(self):
        # P = {1',2'}, {3',5'}, {4'}: the strict image vector has one term per
        # injective choice of three values, the relaxed one per arbitrary choice
        p = partition_diagram(0, 5, [(-1, -2), (-3, -5), (-4,)])
        n = 3
        assert int(delta_matrix(p, n).sum()) == 3 * 2 * 1
        assert int(e_matrix(p, n).sum()) == 3**3


class TestStructureConstants:
    def test_small_s_cases(self):
        for n in (2, 3):
            rep = verify_structure_constants(1, 1, 1, n)
            assert rep["passed"] and rep["pairs"] == 4

    def test_gl_one_dimensional(self):
        rep = verify_structure_constants(
            sig_gl(1, 1), sig_gl(1, 1), sig_gl(1, 1), 1, "GL"
        )
        assert rep["passed"]

    def test_o_flavor(self):
        rep = verify_structure_constants(2, 2, 2, 3, "O")
        assert rep["passed"] and rep["pairs"] == 9

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize(
        "flavor, l, m, k",
        [
            ("O", 0, 4, 0),
            ("O", 0, 6, 0),
            ("O", 2, 4, 2),
            ("GL", (0, 0), (2, 2), (0, 0)),
            ("GL", (0, 0), (3, 3), (0, 0)),
            ("GL", (1, 1), (2, 2), (1, 1)),
        ],
    )
    def test_several_middle_loops(self, flavor, l, m, k, n):
        # cups into caps close up to m/2 (O) or r (GL) loops in the middle row;
        # each pair must scale by n^loops
        loops = {
            compose_diagrams(b, a)[1]
            for a in enumerate_basis(flavor, l, m)
            for b in enumerate_basis(flavor, m, k)
        }
        assert max(loops) >= 2
        rep = verify_structure_constants(l, m, k, n, flavor)
        assert rep["passed"] and rep["pairs"] > 0

    def test_report_shape(self):
        rep = verify_structure_constants(0, 2, 0, 2)
        assert set(rep) == {"pairs", "violations", "passed"}
        assert rep["pairs"] == bell_number(2) ** 2


class TestStructureConstantViolations:
    """verify_structure_constants builds each diagram's matrix once per call;
    a wrong power or a wrong composite must still be reported for its pair."""

    L, M, K, N = 2, 1, 2, 3

    def _pairs(self):
        return [(a, b) for a in enumerate_basis("S", self.L, self.M)
                for b in enumerate_basis("S", self.M, self.K)]

    def _report_with(self, monkeypatch, wrong: dict):
        """The report when compose_diagrams(b, a) returns wrong[(a, b)]."""
        def patched(b, a):
            return wrong.get((a, b)) or compose_diagrams(b, a)

        monkeypatch.setattr(oracle, "compose_diagrams", patched)
        return verify_structure_constants(self.L, self.M, self.K, self.N)

    @staticmethod
    def _violation(a, b, power):
        return {"first": str(a), "second": str(b), "t_power": power}

    def test_wrong_power_is_reported(self, monkeypatch):
        a, b = self._pairs()[3]
        composed, power = compose_diagrams(b, a)
        rep = self._report_with(monkeypatch, {(a, b): (composed, power + 1)})
        assert rep["violations"] == [self._violation(a, b, power + 1)]
        assert not rep["passed"] and rep["pairs"] == len(self._pairs())

    @pytest.mark.parametrize("where", ["first", "last"])
    def test_wrong_shared_composite_is_reported(self, monkeypatch, where):
        # the wrong composite is the true one of several other pairs: its
        # matrix is first built for the faulty pair and then served to the
        # others (first), or is in the memo before the faulty pair (last)
        pairs = self._pairs()
        composites = [compose_diagrams(b, a) for a, b in pairs]
        shared = max(set(composites), key=composites.count)
        sharing = [i for i, c in enumerate(composites) if c[0] == shared[0]]
        others = [i for i in range(len(pairs)) if i not in sharing]
        assert len(sharing) >= 3
        i = others[0] if where == "first" else others[-1]
        assert (i < sharing[0]) if where == "first" else (i > sharing[0])
        a, b = pairs[i]
        rep = self._report_with(monkeypatch, {(a, b): (shared[0], composites[i][1])})
        assert rep["violations"] == [self._violation(a, b, composites[i][1])]
        assert not rep["passed"]

    def test_each_matrix_is_built_once(self, monkeypatch):
        built = []

        def spy(d, n):
            built.append(d)
            return diagram_matrix(d, n)

        monkeypatch.setattr(oracle, "diagram_matrix", spy)
        rep = verify_structure_constants(self.L, self.M, self.K, self.N)
        legs = {d for pair in self._pairs() for d in pair}
        composites = {compose_diagrams(b, a)[0] for a, b in self._pairs()}
        assert rep["passed"]
        assert sorted(map(str, built)) == sorted(map(str, legs | composites))


class TestHomDimClassical:
    def test_frozen_values(self):
        assert hom_dim_classical(2, 2, 2) == 8
        assert hom_dim_classical(1, 1, 2) == 2
        assert hom_dim_classical(sig_gl(2, 0), sig_gl(2, 0), 1, "GL") == 1

    def test_character_theory_oracle(self):
        import itertools
        import math

        def classical(l, m, n):
            total = 0
            for sigma in itertools.permutations(range(n)):
                fixed = sum(1 for i, x in enumerate(sigma) if i == x)
                total += fixed ** (l + m)
            return total // math.factorial(n)

        for n in (1, 2, 3, 4):
            for l in range(3):
                for m in range(3 - l):
                    assert hom_dim_classical(l, m, n) == classical(l, m, n)

    def test_stability_threshold(self):
        for l in range(3):
            for m in range(3 - l):
                for n in (l + m, l + m + 1, l + m + 2):
                    if n == 0:
                        continue
                    assert hom_dim_classical(l, m, n) == bell_number(l + m)

    def test_gl_schur_weyl(self):
        # End(V^(x)2) for GL_n has dimension |S_2| = 2 once n >= 2
        for n in (2, 3):
            assert hom_dim_classical(sig_gl(2, 0), sig_gl(2, 0), n, "GL") == 2


class TestFunctorRank:
    def test_standard_rep(self):
        X = KaroubiObject(sig_s(1), identity(sig_s(1)) - diagram_morphism(PI) / RF_T)
        assert functor_image_rank(X, 4) == 3

    def test_symmetric_square(self):
        X = KaroubiObject(sig_s(2), young_symmetrizer((2,)))
        assert functor_image_rank(X, 3) == 6

    def test_unit(self):
        X = KaroubiObject(sig_s(0), identity(sig_s(0)))
        for n in (1, 2, 5):
            assert functor_image_rank(X, n) == 1

    def test_pole_reported(self):
        X = KaroubiObject(sig_s(1), diagram_morphism(PI) / RF_T)
        with pytest.raises(PoleError, match="not defined at this integer"):
            functor_image_rank(X, 0)

    def test_matches_trace_in_semisimple_range(self):
        X = KaroubiObject(sig_s(2), young_symmetrizer((1, 1)))
        from interpcat.homspaces import trace

        for n in (4, 5, 6):
            assert functor_image_rank(X, n) == trace(X.idem).eval(n)


class TestMorphismMatrix:
    def test_common_denominator(self):
        f = diagram_morphism(PI) / RF_T
        mat, den = morphism_matrix(f, 2)
        assert den == 2
        assert np.array_equal(mat, np.ones((2, 2), dtype=np.int64))

    def test_large_scales_do_not_wrap(self):
        # 2^62 (id + pi) at n = 3: the diagonal 2^63 overflows int64, where it
        # wrapped to -2^63 and the exact rank dropped from 3 to 2
        f = (identity(sig_s(1)) + diagram_morphism(PI)) * 2**62
        mat, den = morphism_matrix(f, 3)
        assert den == 1
        assert mat.tolist() == [[2**63 if i == j else 2**62 for j in range(3)] for i in range(3)]
        assert integer_rank(mat.tolist()) == 3

    def test_gl_diagram_matrix_contractions(self):
        from interpcat.diagrams import walled_diagram

        cup_cap = walled_diagram((1, 1), (1, 1), [(1, 2), (-1, -2)])
        mat = diagram_matrix(cup_cap, 2)
        # coev o ev on V (x) V*: rank one, trace n
        assert mat.shape == (4, 4)
        assert np.linalg.matrix_rank(mat) == 1
        assert mat.trace() == 2
