"""LR coefficients, pairings, triple encoding, stable multiplicities, moments."""

import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from interpcat.partitions import check_partition, contains, partitions_of, sub_partitions
from interpcat.selftest import hall_pairing_by_expansion, schur_products_expanded
from interpcat.symfun import (
    MAX_SEARCH_BOX,
    MomentSequence,
    ShiftData,
    TriplePartition,
    char_difference_forward,
    gl_mixed_multiplicity,
    lr_coefficient,
    osp_multiplicity,
    pbark,
    pk,
    search_decomposition,
    shift_instance,
    skew_schur_pairing,
    stable_hc_multiplicity,
    triple_decode,
    triple_encode,
    weight_moment_difference,
)


class TestSubPartitions:
    def test_sized_matches_filtered_partitions_of(self):
        bounds = [p for k in range(9) for p in partitions_of(k)]
        for bound in bounds:
            every_size = []
            for n in range(11):
                expected = [p for p in partitions_of(n) if contains(bound, p)]
                assert sub_partitions(bound, n) == expected, (bound, n)
                every_size += expected
            assert sorted(sub_partitions(bound)) == sorted(every_size)


@pytest.mark.parametrize("bad", [[2.5, 1], [True], [2, False], ["2"], 3])
def test_partition_entries_must_be_integers(bad):
    with pytest.raises(ValueError, match="expected integers"):
        check_partition(bad)


class TestLR:
    def test_pieri_case(self):
        assert lr_coefficient((3,), (2,), (1,)) == 1

    def test_hook_case(self):
        assert lr_coefficient((2, 1), (1,), (1, 1)) == 1

    def test_reflexive(self):
        assert lr_coefficient((3, 2), (3, 2), ()) == 1

    def test_degree_mismatch_is_zero(self):
        assert lr_coefficient((3,), (1,), (1,)) == 0

    def test_containment_required(self):
        assert lr_coefficient((2, 2), (3,), (1,)) == 0

    def test_first_multiplicity_two(self):
        # the classical smallest example with c = 2
        assert lr_coefficient((4, 3, 2, 1), (3, 2, 1), (3, 2, 1)) == 0
        assert lr_coefficient((4, 2, 1), (2, 1), (2, 1, 1)) == 1
        assert lr_coefficient((3, 2, 1), (2, 1), (2, 1)) == 2

    def test_against_straightening_oracle(self):
        for total in range(5):
            for mu, nu, expansion in schur_products_expanded(total):
                for lam in partitions_of(total):
                    assert lr_coefficient(lam, mu, nu) == expansion.get(lam, 0)

    def test_symmetry(self):
        rng = random.Random(0)
        for _ in range(40):
            lam = rng.choice(partitions_of(rng.randint(0, 6)))
            mu = rng.choice(partitions_of(rng.randint(0, 4)))
            nu = rng.choice(partitions_of(rng.randint(0, 4)))
            assert lr_coefficient(lam, mu, nu) == lr_coefficient(lam, nu, mu)


class TestPairing:
    def test_spec_value(self):
        assert skew_schur_pairing((2, 1), (1,), (2, 1), (1,)) == 2

    def test_single_boxes(self):
        assert skew_schur_pairing((1,), (1,), (1,), (1,)) == 1
        assert skew_schur_pairing((1,), (), (1,), ()) == 1

    def test_weight_mismatch(self):
        assert skew_schur_pairing((2,), (), (1,), ()) == 0

    def test_against_hall_oracle(self):
        shapes = [lam for k in range(4) for lam in partitions_of(k)]
        for lam in shapes:
            for mu in shapes:
                for nu in sub_partitions(lam):
                    for nubar in sub_partitions(mu):
                        assert skew_schur_pairing(lam, nu, mu, nubar) == (
                            hall_pairing_by_expansion(lam, nu, mu, nubar)
                        )


class TestMultiplicities:
    def test_gl_adjoint(self):
        assert gl_mixed_multiplicity((1,), (1,), (1,), (1,)) == 1
        assert gl_mixed_multiplicity((1,), (1,), (), ()) == 1

    def test_gl_pieri(self):
        assert gl_mixed_multiplicity((2,), (1,), (1,), ()) == 1

    def test_osp_spec_square(self):
        assert osp_multiplicity((1,), (1,), (1, 1)) == 1
        assert osp_multiplicity((1,), (1,), (2,)) == 1
        assert osp_multiplicity((1,), (1,), ()) == 1
        assert osp_multiplicity((1,), (1,), (1,)) == 0

    def test_osp_trace_form_orthogonality(self):
        shapes = [lam for k in range(4) for lam in partitions_of(k)]
        for lam in shapes:
            for mu in shapes:
                assert osp_multiplicity(lam, mu, ()) == (1 if lam == mu else 0)


def pairing_by_definition(lam, nu, mu, nubar):
    """sum over every eta of the right size, without pruning."""
    weight = sum(lam) - sum(nu)
    if weight < 0 or weight != sum(mu) - sum(nubar):
        return 0
    return sum(
        lr_coefficient(lam, nu, eta) * lr_coefficient(mu, nubar, eta)
        for eta in partitions_of(weight)
    )


def nl_by_definition(lam, mu, nu):
    """sum_{zeta,sigma,tau} c^lam_{zeta,sigma} c^mu_{zeta,tau} c^nu_{sigma,tau}, unpruned."""
    total = 0
    for z in range(min(sum(lam), sum(mu)) + 1):
        for zeta, sigma, tau in itertools.product(
            partitions_of(z), partitions_of(sum(lam) - z), partitions_of(sum(mu) - z)
        ):
            total += (
                lr_coefficient(lam, zeta, sigma)
                * lr_coefficient(mu, zeta, tau)
                * lr_coefficient(nu, sigma, tau)
            )
    return total


class TestPrunedSums:
    """The sums over shapes inside the meet against the sums over all shapes."""

    def test_random_small_shapes(self):
        rng = random.Random(10)

        def shape(top):
            return rng.choice(partitions_of(rng.randint(0, top)))

        for _ in range(60):
            lam, mu, nu = shape(6), shape(6), shape(6)
            assert osp_multiplicity(lam, mu, nu) == nl_by_definition(lam, mu, nu)
            sub, subbar = rng.choice(sub_partitions(lam)), rng.choice(sub_partitions(mu))
            expected = pairing_by_definition(lam, sub, mu, subbar)
            assert skew_schur_pairing(lam, sub, mu, subbar) == expected
            assert gl_mixed_multiplicity(lam, mu, sub, subbar) == expected

    @pytest.mark.parametrize(
        "lam, nu, mu, nubar",
        [
            ((4, 3, 2, 1), (1,), (5, 3, 2), (1,)),
            ((4, 3, 2, 1), (3, 2, 1), (3, 1), ()),
            ((3, 1), (), (4, 3, 2, 1), (3, 2, 1)),
            ((5, 3, 1), (4, 2), (2, 1), ()),
        ],
    )
    def test_asymmetric_pairings(self, lam, nu, mu, nubar):
        expected = pairing_by_definition(lam, nu, mu, nubar)
        assert skew_schur_pairing(lam, nu, mu, nubar) == expected
        assert gl_mixed_multiplicity(lam, mu, nu, nubar) == expected

    @pytest.mark.parametrize(
        "lam, mu, nu",
        [
            ((1,), (4, 3, 2), (4, 3, 1)),
            ((4, 3, 2), (1,), (4, 3, 2, 1)),
            ((3, 2, 1), (2,), (2, 1)),
            ((1, 1), (3, 3, 2), (3, 3)),
        ],
    )
    def test_asymmetric_newell_littlewood(self, lam, mu, nu):
        assert osp_multiplicity(lam, mu, nu) == nl_by_definition(lam, mu, nu)


class TestTriple:
    def test_spec_example(self):
        tp = triple_encode((5, 4, 2, 1), 1, 1)
        assert (tp.alpha, tp.beta, tp.gamma) == ((4,), (3,), (3, 1))
        assert triple_decode(tp) == (5, 4, 2, 1)

    def test_single_row(self):
        tp = triple_encode((1,), 1, 0)
        assert (tp.alpha, tp.beta, tp.gamma) == ((1,), (), ())
        assert triple_decode(tp) == (1,)

    def test_zero_cuts(self):
        tp = triple_encode((3, 2), 0, 0)
        assert tp.gamma == (3, 2)
        assert triple_decode(tp) == (3, 2)

    def test_roundtrip_all_up_to_8(self):
        for size in range(9):
            for lam in partitions_of(size):
                d = sum(1 for i, row in enumerate(lam) if row >= i + 1)
                for k in range(d + 1):
                    for l in range(d + 1):
                        try:
                            tp = triple_encode(lam, k, l)
                        except ValueError:
                            continue
                        assert triple_decode(tp) == lam, (lam, k, l)

    def test_invalid_cut_reports_reason(self):
        with pytest.raises(ValueError, match="diagonal"):
            triple_encode((2, 1), 2, 2)

    def test_decode_validates_constraints(self):
        with pytest.raises(ValueError, match="constraint 1"):
            triple_decode(TriplePartition((2,), (), (), k=2, l=0))
        with pytest.raises(ValueError, match="constraint 5"):
            triple_decode(TriplePartition((1,), (1,), (2, 2), k=1, l=1))
        with pytest.raises(ValueError, match="constraint 5"):
            # gamma three columns wide against a single beta column of height 1
            triple_decode(TriplePartition((3,), (1,), (1, 1), k=1, l=1))


class TestStableHC:
    def test_spec_single_box(self):
        shift = ShiftData((0,), (), (), ())
        assert stable_hc_multiplicity(shift, ((1,), (1,)), "gl") == 1

    def test_empty_configuration(self):
        shift = ShiftData((), (), (2, 1), (2, 1))
        assert stable_hc_multiplicity(shift, ((), ()), "gl") == 1
        assert stable_hc_multiplicity(shift, (), "osp") == 1

    def test_against_direct_large_n(self):
        cases = [
            (ShiftData((0,), (), (), ()), ((1,), (1,))),
            (ShiftData((1,), (), (), ()), ((1,), (2,))),
            (ShiftData((0,), (0,), (1,), (1,)), ((1,), (1,))),
            (ShiftData((), (1,), (1,), ()), ((1,), (1, 1))),
        ]
        for shift, (nu, nubar) in cases:
            stable = stable_hc_multiplicity(shift, (nu, nubar), "gl")
            for n in (10, 13):
                lam, mu = shift_instance(shift, n)
                assert gl_mixed_multiplicity(lam, mu, nu, nubar) == stable

    def test_osp_against_direct(self):
        shift = ShiftData((0,), (), (1,), (1,))
        stable = stable_hc_multiplicity(shift, (1, 1), "osp")
        for n in (10, 13):
            lam, mu = shift_instance(shift, n)
            assert osp_multiplicity(lam, mu, (1, 1)) == stable

    def test_two_row_cuts(self):
        # k = 2: the direct side fills shapes of 35 to 44 boxes
        cases = [
            (ShiftData((1, -1), (), (), ()), ((1,), (1,)), "gl", 1),
            (ShiftData((1, -1), (), (), ()), (2,), "osp", 1),
            (ShiftData((0, 0), (), (1,), (1,)), ((1,), (1,)), "gl", 3),
        ]
        start = time.perf_counter()
        for shift, nu, flavor, expected in cases:
            assert stable_hc_multiplicity(shift, nu, flavor) == expected
            for n in (11, 14):
                lam, mu = shift_instance(shift, n)
                if flavor == "gl":
                    assert gl_mixed_multiplicity(lam, mu, *nu) == expected
                else:
                    assert osp_multiplicity(lam, mu, nu) == expected
        assert time.perf_counter() - start < 2.0

    def test_malformed_shift(self):
        with pytest.raises(ValueError):
            ShiftData((0,), (), (1, 2), ())

    @pytest.mark.parametrize("a", [(1.7,), (True,), (0, 2.0)])
    def test_shift_entries_must_be_integers(self, a):
        with pytest.raises(ValueError, match="must be integers"):
            ShiftData(a, (), (), ())


GRID_A = [(), (0,), (1,), (-1,), (2,), (0, 0), (1, -1)]
GRID_B = [(), (0,), (1,), (-1,)]
GRID_SMALL = [p for k in range(3) for p in partitions_of(k)]
GRID_NL = [p for k in range(5) for p in partitions_of(k)]
GRID_FILE = Path(__file__).parent / "data" / "stable_grid.json"


def stable_grid():
    """(key, value) over the whole grid; keys are [kind, *arguments] as JSON lists.

    gl and osp: stable_hc_multiplicity for a in GRID_A, b in GRID_B and
    gamma, delta, nu, nubar of size <= 2; nl: osp_multiplicity on every
    triple of shapes of size <= 4.
    """
    for a, b, gamma, delta in itertools.product(GRID_A, GRID_B, GRID_SMALL, GRID_SMALL):
        shift = ShiftData(a, b, gamma, delta)
        for nu, nubar in itertools.product(GRID_SMALL, repeat=2):
            value = stable_hc_multiplicity(shift, (nu, nubar), "gl")
            yield ["gl", a, b, gamma, delta, nu, nubar], value
        for nu in GRID_SMALL:
            yield ["osp", a, b, gamma, delta, nu], stable_hc_multiplicity(shift, nu, "osp")
    for lam, mu, nu in itertools.product(GRID_NL, repeat=3):
        yield ["nl", lam, mu, nu], osp_multiplicity(lam, mu, nu)


class TestStableGrid:
    """Values recorded before the stable layer was rewritten: nonzero entries only."""

    def test_grid_reproduced(self):
        start = time.perf_counter()
        got = {json.dumps(key): value for key, value in stable_grid() if value}
        recorded = {json.dumps(key): value for key, value in json.loads(GRID_FILE.read_text())}
        assert got == recorded
        assert time.perf_counter() - start < 2.0


class TestMoments:
    def test_pk_values(self):
        assert pk(3, 2) == 7
        assert pbark(0, 3) == -1

    def test_telescoping(self):
        for m in range(1, 7):
            for k in range(1, 7):
                assert sum(pk(i, k) for i in range(m)) == Fraction(m) ** k

    def test_forward_gl(self):
        ms = char_difference_forward((1,), (0,), "gl", 3)
        assert [ms.values[k] for k in (1, 2, 3)] == [0, 4, 6]

    def test_forward_constant(self):
        ms = char_difference_forward((0,), (), "gl", 4)
        assert all(ms.values[k] == 1 for k in range(1, 5))

    def test_forward_osp(self):
        ms = char_difference_forward((1,), (), "osp", 4)
        assert ms.values[2] == 3 and ms.values[4] == 15
        assert ms.values[1] == 0 and ms.values[3] == 0

    def test_osp_rejects_c(self):
        with pytest.raises(ValueError):
            char_difference_forward((1,), (2,), "osp", 4)

    def test_weight_difference_single_up(self):
        w = weight_moment_difference((3, 1, 0), {1}, set(), 3)
        assert [w.values[k] for k in (1, 2, 3)] == [1, 7, 37]

    def test_weight_difference_up_and_down(self):
        # P_1(2) + Pbar_1(1) = 1 - 1 = 0; matches the direct power-sum
        # difference for (2,1) -> (3,0), which pins k=1 at 0
        w = weight_moment_difference((2, 1), {1}, {2}, 2)
        assert [w.values[k] for k in (1, 2)] == [0, 4]

    def test_weight_difference_trivial(self):
        w = weight_moment_difference((5, 2), set(), set(), 4)
        assert all(v == 0 for v in w.values.values())

    def test_index_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            weight_moment_difference((1, 2), {1}, {1}, 2)

    def test_moment_sequence_osp_parity(self):
        with pytest.raises(ValueError):
            MomentSequence("osp", {1: Fraction(1)})

    @pytest.mark.parametrize("k", [0, -1])
    def test_moment_degree_below_one_rejected(self, k):
        with pytest.raises(ValueError, match=f"k={k}"):
            MomentSequence("gl", {k: Fraction(0), 1: Fraction(1)})


class TestSearch:
    def test_all_ones(self):
        ms = MomentSequence("gl", {k: Fraction(1) for k in range(1, 7)})
        assert search_decomposition(ms, 1, 0, 5) == ((0,), ())

    def test_roundtrip(self):
        ms = char_difference_forward((2,), (), "gl", 6)
        assert search_decomposition(ms, 1, 0, 5) == ((2,), ())

    def test_no_solution(self):
        values = {1: Fraction(1)}
        values.update({k: Fraction(0) for k in range(2, 7)})
        ms = MomentSequence("gl", values)
        assert search_decomposition(ms, 1, 0, 5) is None

    def test_needs_enough_moments(self):
        ms = MomentSequence("gl", {1: Fraction(1)})
        with pytest.raises(ValueError, match="moments"):
            search_decomposition(ms, 1, 0, 5)

    def test_osp_search(self):
        ms = char_difference_forward((3,), (), "osp", 6)
        assert search_decomposition(ms, 1, 0, 5) == ((3,), ())

    def test_box_budget(self):
        # C(2B + r, r) C(2B + s, s) candidate pairs: 286 * 1 at B = 5 for
        # (r, s) = (3, 0) is searched; 12,341 * 41 at B = 20 for (3, 1) is
        # refused up front
        assert MAX_SEARCH_BOX == 10**5
        ms = char_difference_forward((1, 2, -3), (), "gl", 5)
        assert search_decomposition(ms, 3, 0, 5) == ((-3, 1, 2), ())
        ms = char_difference_forward((1, 2, -3), (4,), "gl", 6)
        with pytest.raises(ValueError, match=f"budget exceeded: 505981 candidates > {MAX_SEARCH_BOX}"):
            search_decomposition(ms, 3, 1, 20)
        with pytest.raises(ValueError, match="non-negative"):
            search_decomposition(ms, -1, 1, 5)
