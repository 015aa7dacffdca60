"""Classical matrix realizations and structure-constant verification."""

import hashlib
import json
from pathlib import Path

import pytest

from interpcat.diagrams import (
    coarsenings,
    compose_diagrams,
    enumerate_basis,
    identity_diagram,
    partition_diagram,
)
from interpcat.homspaces import as_signature, diagram_morphism, hom_basis, identity, sig_gl, sig_s
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
MATRICES = json.loads((Path(__file__).parent / "data" / "oracle_matrices.json").read_text())


def _space_id(space) -> str:
    return "{flavor}-{source}-{target}-n{n}-{basis}".format(**space).replace(" ", "")


@pytest.mark.parametrize("space", MATRICES["spaces"], ids=_space_id)
def test_matrices_match_the_recorded_hashes(space):
    # every matrix of the spaces selftest and perfbench's quotient workload
    # build, against the sha256 recorded from the array-based builder that
    # the stdlib one replaced
    flavor = space["flavor"]
    source, target = (tuple(x) if isinstance(x, list) else x for x in (space["source"], space["target"]))
    basis = hom_basis(as_signature(source, flavor), as_signature(target, flavor))
    got = [
        hashlib.sha256(repr(diagram_matrix(d, space["n"], space["basis"])).encode()).hexdigest()
        for d in basis
    ]
    assert got == space["sha256"]


class TestPatternMatrices:
    def test_e_pi_all_ones(self):
        for n in (1, 2, 4):
            assert e_matrix(PI, n) == [[1] * n for _ in range(n)]

    def test_delta_pi_off_diagonal(self):
        for n in (2, 3):
            expected = [[int(i != j) for j in range(n)] for i in range(n)]
            assert delta_matrix(PI, n) == expected

    def test_identity_matrix(self):
        expected = [[int(i == j) for j in range(3)] for i in range(3)]
        assert e_matrix(identity_diagram("S", 1), 3) == expected

    def test_plain_int_rows(self):
        # lists of rows of Python ints, one row per target index
        for mat in (e_matrix(PI, 2), delta_matrix(PI, 2), morphism_matrix(diagram_morphism(PI), 2)[0]):
            assert type(mat) is list and all(type(row) is list for row in mat)
            assert {type(x) for row in mat for x in row} == {int}
        assert [len(row) for row in e_matrix(partition_diagram(2, 1, [(1, 2, -1)]), 3)] == [9] * 3

    def test_delta_vanishes_with_many_blocks(self):
        d = partition_diagram(2, 1, [(1,), (2,), (-1,)])
        assert delta_matrix(d, 2) == [[0] * 4 for _ in range(2)]

    def test_coarsening_sum(self):
        for d in enumerate_basis("S", 2, 1):
            lhs = e_matrix(d, 3)
            deltas = [delta_matrix(c, 3) for c in coarsenings(d)]
            rhs = [list(map(sum, zip(*rows))) for rows in zip(*deltas)]
            assert lhs == rhs

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
        strict_rows = [r for r in range(n**3) if strict[r][col]]
        assert strict_rows == [flat((0, 3, 3))]
        relaxed_rows = [r for r in range(n**3) if relaxed[r][col]]
        assert relaxed_rows == [flat((0, j, j)) for j in range(n)]
        # i2 != i4 kills the column entirely
        assert not any(row[flat((0, 1, 2, 3))] for row in strict)
        assert not any(row[flat((0, 1, 2, 3))] for row in relaxed)

    def test_zero_to_five_state(self):
        # P = {1',2'}, {3',5'}, {4'}: the strict image vector has one term per
        # injective choice of three values, the relaxed one per arbitrary choice
        p = partition_diagram(0, 5, [(-1, -2), (-3, -5), (-4,)])
        n = 3
        assert sum(map(sum, delta_matrix(p, n))) == 3 * 2 * 1
        assert sum(map(sum, e_matrix(p, n))) == 3**3


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

    @pytest.mark.parametrize("l, m, k, n", [(1, 1, 2, 2), (2, 2, 1, 3)])
    def test_second_legs_that_are_composites(self, l, m, k, n):
        # with l = m a second leg can also be a composite: one build of it
        # gives both the columns of its 1s and its packed rows
        second_legs = enumerate_basis("S", m, k)
        composites = {
            compose_diagrams(b, a)[0] for a in enumerate_basis("S", l, m) for b in second_legs
        }
        assert composites & set(second_legs)
        rep = verify_structure_constants(l, m, k, n)
        assert rep["passed"] and rep["pairs"] == bell_number(l + m) * bell_number(m + k)

    def test_report_shape(self):
        rep = verify_structure_constants(0, 2, 0, 2)
        assert set(rep) == {"pairs", "violations", "passed"}
        assert rep["pairs"] == bell_number(2) ** 2


class TestPackedRows:
    """verify_structure_constants packs each 0/1 row into one int with
    w = _slot_width bits per entry, and a row of B A is a sum of packed rows."""

    def test_layout(self):
        # entry s in the slot at 2^(w (len - 1 - s))
        assert oracle._packed([1, 0, 1], 2) == 0b01_00_01
        assert oracle._packed([0, 0, 1], 3) == 0b000_000_001
        assert oracle._packed([1], 1) == 1
        assert oracle._packed([], 4) == 0

    def test_slots_reach_the_bound(self):
        # pi o pi = t pi: at n = 3 every entry of B A counts all 3 = n^m middle
        # indices, n^power is 3 too, and w = 2 is the narrowest width above 3
        assert compose_diagrams(PI, PI) == (PI, 1)
        w = oracle._slot_width(3, 3)
        assert w == 2 and 2 ** (w - 1) <= 3 < 2**w
        assert oracle._slot_width(1, 1) == 1 and oracle._slot_width(0, 0) == 1
        assert oracle._slot_width(2**4, 2**5) == 6

    def test_narrower_slot_carries_into_the_next(self):
        # at n = 3 and m = 1 an entry of B A can be 3: the row [0, 0, 3], three
        # middle indices on the last column, and the row [0, 1, 1] of n^0 C
        # differ.  At w bits they pack apart; at w - 1 the 3 carries into the
        # middle slot and the two rows pack alike, so a violation goes unseen
        w = oracle._slot_width(3, 1)
        lhs = [3 * oracle._packed([0, 0, 1], width) for width in (w, w - 1)]
        rhs = [oracle._packed([0, 1, 1], width) for width in (w, w - 1)]
        assert lhs[0] != rhs[0] and lhs[1] == rhs[1]

    def test_wide_slots(self):
        # n = 4, m = 4: B A reaches 256 = n^m, 9 bits; (0, 4, 0) pairs close up
        # to four loops, so n^power reaches 256 as well
        assert oracle._slot_width(4**4, 4**4) == 9
        assert verify_structure_constants(0, 4, 0, 4)["passed"]
        rep = verify_structure_constants(1, 3, 1, 4)
        assert rep["passed"] and rep["pairs"] == bell_number(4) ** 2


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
        assert mat == [[1, 1], [1, 1]]

    def test_large_scales_do_not_wrap(self):
        # 2^62 (id + pi) at n = 3: the diagonal 2^63 overflows int64, where it
        # wrapped to -2^63 and the exact rank dropped from 3 to 2
        f = (identity(sig_s(1)) + diagram_morphism(PI)) * 2**62
        mat, den = morphism_matrix(f, 3)
        assert den == 1
        assert mat == [[2**63 if i == j else 2**62 for j in range(3)] for i in range(3)]
        assert integer_rank(mat) == 3

    def test_gl_diagram_matrix_contractions(self):
        from interpcat.diagrams import walled_diagram

        cup_cap = walled_diagram((1, 1), (1, 1), [(1, 2), (-1, -2)])
        mat = diagram_matrix(cup_cap, 2)
        # coev o ev on V (x) V*: rank one, trace n
        assert [len(row) for row in mat] == [4] * 4
        assert integer_rank(mat) == 1
        assert sum(mat[i][i] for i in range(4)) == 2
