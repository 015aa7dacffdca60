"""LR coefficients, pairings, triple encoding, stable multiplicities, moments."""

import itertools
import json
import math
import random
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from interpcat import symfun
from interpcat.partitions import check_partition, contains, is_int, partitions_of, sub_partitions
from interpcat.selftest import hall_pairing_by_expansion, schur_products_expanded
from interpcat.symfun import (
    MAX_MOMENT_BITS,
    MAX_MOMENT_DEGREE,
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


def reference_check_partition(lam):
    """check_partition as two passes over the parts, before the single pass."""
    try:
        parts = tuple(lam)
    except TypeError as exc:
        raise ValueError(f"{lam!r} is not a partition (expected integers)") from exc
    if not all(is_int(x) for x in parts):
        raise ValueError(f"{lam!r} is not a partition (expected integers)")
    lam = tuple(int(x) for x in parts)
    if any(a <= 0 for a in lam) or any(a < b for a, b in zip(lam, lam[1:])):
        raise ValueError(f"{lam} is not a partition (weakly decreasing, positive)")
    return lam


class _IntSubclass(int):
    """An integral part that is not exactly an int: accepted, read as int."""


@pytest.mark.parametrize(
    "lam",
    [(), [3, 2, 1], (1, 1), (2, 0), (0,), (-1,), (1, 2), (3, -1, -2), (2, 2, 0), (4, 1, 2),
     (0, 0), [2.0], [True], (5, 3, 3, 1), "ab", 3, None, (Decimal(2), 1), (_IntSubclass(2), 1)],
)
def test_check_partition_matches_two_passes(lam):
    def outcome(check):
        try:
            return check(lam)
        except ValueError as exc:
            return str(exc)

    assert outcome(check_partition) == outcome(reference_check_partition)


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
        # a negative bound searched the empty range(-B, B + 1) and found nothing
        with pytest.raises(ValueError, match="non-negative"):
            search_decomposition(ms, 1, 0, -2)

    def test_equals_the_pairwise_walk(self):
        rng = random.Random(20)
        seen = set()
        for _ in range(300):
            ms, r, s, bound, kinds = random_search(rng)
            found = search_decomposition(ms, r, s, bound)
            assert found == reference_search(ms, r, s, bound), (ms, r, s, bound)
            seen |= kinds | {"found" if found else "none"}
        assert seen == {
            "cancelling", "fraction", "osp", "osp odd degrees only", "gl odd degrees only",
            "gl odd key degrees, even confirmation", "r = 0", "s = 0", "B = 0",
            "extra degrees", "found", "none",
        }

    def test_confirmation_rejects_a_key_hit(self, monkeypatch):
        # (2, -1; 4) matches on the r + s + 2 = 5 key degrees and not on the
        # sixth, so its key hit reaches the exact check and fails there
        ms = char_difference_forward((-1, 2), (4,), "gl", 6)
        ms.values[6] += 1
        calls = count_moments(monkeypatch)
        assert search_decomposition(ms, 2, 1, 4) is None
        assert reference_search(ms, 2, 1, 4) is None
        assert calls

    def test_non_integral_target_computes_no_moment(self, monkeypatch):
        # no integer key equals a non-integral one; the pairwise walk called
        # _moment once per pair
        ms = char_difference_forward((Fraction(1, 2), 3), (Fraction(-2, 3),), "gl", 6)
        calls = count_moments(monkeypatch)
        assert search_decomposition(ms, 2, 1, 4) is None
        assert not calls

    @pytest.mark.parametrize("r, s, bound", [(1, 0, 49999), (0, 1, 49999), (3, 1, 10)])
    def test_budget_bounds_time(self, r, s, bound):
        # just under MAX_SEARCH_BOX; the pairwise walk took minutes on the
        # first two and 2 s on the third
        side = 2 * bound
        assert math.comb(side + r, r) * math.comb(side + s, s) <= MAX_SEARCH_BOX
        ms = MomentSequence("gl", {k: Fraction(10**12) for k in range(1, 7)})
        start = time.perf_counter()
        assert search_decomposition(ms, r, s, bound) is None
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"search took {elapsed:.1f}s (budget 5s)"


class TestMomentDegreeBudget:
    """Every entry point refuses a moment degree above MAX_MOMENT_DEGREE up
    front and finishes within a second at it."""

    def test_forward_moments(self):
        start = time.perf_counter()
        ms = char_difference_forward((2, -7), (5,), "gl", MAX_MOMENT_DEGREE)
        weight_moment_difference((9, 4, 1), {1}, {3}, MAX_MOMENT_DEGREE)
        assert time.perf_counter() - start < 1.0
        assert max(ms.values) == MAX_MOMENT_DEGREE
        over = MAX_MOMENT_DEGREE + 1
        with pytest.raises(ValueError, match=f"{over} > MAX_MOMENT_DEGREE = {MAX_MOMENT_DEGREE}"):
            char_difference_forward((2,), (), "gl", over)
        with pytest.raises(ValueError, match=f"{over} > MAX_MOMENT_DEGREE"):
            weight_moment_difference((9, 4, 1), {1}, {3}, over)

    def test_forward_moment_size(self):
        # K times the bit lengths of |p| + q over the entries p/q of b and c:
        # 2^139 + 1 and 1 + 2^139 have 140 bits each, 1 + (2^140 - 1) has 141
        K = MAX_MOMENT_DEGREE
        assert K * 280 == MAX_MOMENT_BITS
        start = time.perf_counter()
        ms = char_difference_forward((2**139,), (Fraction(1, 2**139),), "gl", K)
        assert time.perf_counter() - start < 1.0
        assert max(len(str(v.numerator)) for v in ms.values.values()) < 4300
        with pytest.raises(ValueError, match=f"{K * 281} > MAX_MOMENT_BITS = {MAX_MOMENT_BITS}"):
            char_difference_forward((2**139,), (Fraction(1, 2**140 - 1),), "gl", K)
        # 2 * 7000 bits, at and just over the limit
        assert char_difference_forward((2**6999,), (), "osp", 2).values[2]
        with pytest.raises(ValueError, match="MAX_MOMENT_BITS"):
            char_difference_forward((2**7000,), (), "osp", 2)

    def test_search(self):
        ms = char_difference_forward((3,), (), "gl", MAX_MOMENT_DEGREE)
        assert search_decomposition(ms, 1, 0, 5) == ((3,), ())
        ms.values[MAX_MOMENT_DEGREE + 1] = Fraction(0)
        with pytest.raises(ValueError, match=f"{MAX_MOMENT_DEGREE + 1} > MAX_MOMENT_DEGREE"):
            search_decomposition(ms, 1, 0, 5)

    def test_degrees_in_use_are_under_it(self):
        # demo 04 asks for K = 8, the CLI corpus and the benchmark for at
        # most 6, selftest for 5
        assert MAX_MOMENT_DEGREE > 8


def reference_search(m, r, s, bound):
    """The walk over every (b, c) pair that search_decomposition replaced."""
    candidates = range(-bound, bound + 1)
    ks = [k for k in sorted(m.values) if not (m.flavor == "osp" and k % 2)]
    for b in itertools.combinations_with_replacement(candidates, r):
        for c in itertools.combinations_with_replacement(candidates, s):
            if all(symfun._moment(b, c, k) == m.values[k] for k in ks):
                return tuple(b), tuple(c)
    return None


def random_search(rng):
    """A random (moments, r, s, bound) and the kinds of case it covers."""
    flavor = rng.choice(["gl", "gl", "osp"])
    r = rng.randint(0, 2)
    s = 0 if flavor == "osp" else rng.randint(0, 2)
    bound = rng.randint(0, 4)
    extra = rng.randint(0, 3)
    hits = [("osp", flavor == "osp"), ("r = 0", r == 0), ("s = 0", s == 0),
            ("B = 0", bound == 0), ("extra degrees", extra > 0)]
    kinds = {name for name, hit in hits if hit}
    if flavor == "osp" and rng.random() < 0.1:
        kinds.add("osp odd degrees only")
        odd = {k: 0 for k in range(1, 2 * (r + extra) + 4, 2)}
        return MomentSequence("osp", odd), r, s, bound, kinds
    b = [rng.randint(-bound - 1, bound + 1) for _ in range(rng.randint(0, 3))]
    c = [rng.randint(-bound - 1, bound + 1) for _ in range(rng.randint(0, 3))] if s else []
    if b and c and rng.random() < 0.3:
        c[0] = b[0] + 1
        kinds.add("cancelling")
    if b and rng.random() < 0.2:
        b[0] = Fraction(2 * rng.randint(-5, 5) + 1, 2)
        kinds.add("fraction")
    K = r + s + 2 + extra if flavor == "gl" else 2 * (r + 2 + extra)
    if flavor == "gl" and rng.random() < 0.3:
        # odd degrees cannot tell c_j from 1 - c_j (nor b_i from -1 - b_i),
        # so a bucket holds several c's: their order decides the answer, and
        # an even degree past the keys can reject the first and keep a later one
        even = rng.random() < 0.5
        kinds.add("gl odd key degrees, even confirmation" if even else "gl odd degrees only")
        ms = char_difference_forward(b, c, flavor, 2 * K)
        kept = {k: v for k, v in ms.values.items() if k % 2 or (even and k == 2 * K)}
        return MomentSequence("gl", kept), r, s, bound, kinds
    return char_difference_forward(b, c, flavor, K), r, s, bound, kinds


def count_moments(monkeypatch):
    """A list that grows by one with each call of symfun._moment."""
    calls = []
    moment = symfun._moment

    def spy(b, c, k):
        calls.append(k)
        return moment(b, c, k)

    monkeypatch.setattr(symfun, "_moment", spy)
    return calls
