"""Idempotents, promotion, multiplicities, generic dimensions of simples."""

import ast
import itertools
import json
import math
import pathlib
import time
from fractions import Fraction

import pytest

import interpcat
from interpcat import diagrams, homspaces, karoubi
from interpcat.cli import main
from interpcat.diagrams import DIAGRAM_CLASSES, compose_diagrams, partition_diagram, walled_diagram
from interpcat.homspaces import (
    Morphism,
    coev,
    compose,
    diagram_morphism,
    ev,
    hom_basis,
    identity,
    morphism_to_json,
    sig_gl,
    sig_o,
    sig_s,
    tensor,
    trace,
)
from interpcat.karoubi import (
    KaroubiObject,
    SizeBudgetError,
    _hom_dim,
    bipartition_symmetrizer,
    decompose,
    dim_simple,
    is_idempotent,
    multiplicity,
    object_of_identity,
    permutation_morphism,
    promote,
    special_p,
    symmetrizer_object,
    young_symmetrizer,
)
from interpcat.linalg import dense_rank
from interpcat.partitions import partitions_of, sn_irrep_dimension
from interpcat.ratfunc import RatFunc, RF_ONE, RF_T, constant_or_self, t_power
from interpcat.selftest import gl_weyl_dimension, hook_content_dimension

t = RF_T
PI = partition_diagram(1, 1, [(1,), (-1,)])


def std_idempotent():
    """1 - pi/t: the complement of the trivial summand inside [1]."""
    return identity(sig_s(1)) - diagram_morphism(PI) / t


# ([3], special_p(3)) is isomorphic to [2]: the block {2, 3, 2', 3'} factors
# through one strand
SPECIAL_P3 = {(): 2, (1,): 3, (2,): 1, (1, 1): 1}


class TestIsIdempotent:
    def test_pi_over_t(self):
        assert is_idempotent(diagram_morphism(PI) / t)

    def test_pi_alone_is_not(self):
        assert not is_idempotent(diagram_morphism(PI))

    def test_identity(self):
        for sig in (sig_s(2), sig_o(2), sig_gl(1, 1)):
            assert is_idempotent(identity(sig))

    def test_rejects_non_endomorphism(self):
        with pytest.raises(ValueError):
            is_idempotent(diagram_morphism(partition_diagram(1, 2, [(1, -1), (-2,)])))


class TestYoungSymmetrizer:
    def test_trivial_rep(self):
        swap_d = partition_diagram(2, 2, [(1, -2), (2, -1)])
        expected = (identity(sig_s(2)) + diagram_morphism(swap_d)) / 2
        assert young_symmetrizer((2,)) == expected

    def test_sign_rep(self):
        swap_d = partition_diagram(2, 2, [(1, -2), (2, -1)])
        expected = (identity(sig_s(2)) - diagram_morphism(swap_d)) / 2
        assert young_symmetrizer((1, 1)) == expected

    def test_hook_21_idempotent_and_primitive(self):
        y = young_symmetrizer((2, 1))
        assert is_idempotent(y)
        assert trace(y) == (t * t * t - t) / 3
        # primitive in the embedded group algebra: y FS_3 y is the image of
        # the idempotent x -> y x y, so its dimension is the trace
        # sum_sigma [sigma](y sigma y), and it is 1
        import itertools

        total = RatFunc(0)
        for sigma in itertools.permutations(range(1, 4)):
            perm = permutation_morphism(sigma)
            (d,) = perm.terms
            total += compose(y, compose(perm, y)).terms.get(d, 0)
        assert total == 1

    def test_all_size_4_idempotent(self):
        for lam in partitions_of(4):
            assert is_idempotent(young_symmetrizer(lam)), lam

    def test_brauer_permutation(self):
        got = permutation_morphism((2, 3, 1), "O")
        assert str(got) == "(1)/(1) * B[3->3: {1, 2'}, {2, 3'}, {3, 1'}]"

    def test_brauer_flavor(self):
        y = young_symmetrizer((2,), "O")
        assert is_idempotent(y)
        assert trace(y) == (t * t + t) / 2

    def test_bipartition(self):
        y = bipartition_symmetrizer(((1,), (1,)))
        assert y == identity(sig_gl(1, 1))
        y2 = bipartition_symmetrizer(((2,), ()))
        assert is_idempotent(y2)


def reference_young_symmetrizer(lam, flavor):
    """S and O: one permutation_morphism diagram per symmetrizer term."""
    n = sum(lam)
    norm = RatFunc(Fraction(sn_irrep_dimension(lam), math.factorial(n)))
    sig = sig_s(n) if flavor == "S" else sig_o(n)
    terms: dict = {}
    for sigma, sign in karoubi._symmetrizer_terms(lam):
        d = next(iter(permutation_morphism(sigma, flavor).terms))
        terms[d] = terms.get(d, RatFunc(0)) + norm * sign
    return Morphism(sig, sig, terms)


def reference_bipartition_symmetrizer(bip):
    """GL: walled diagrams pairing the black and the white permutations."""
    black, white = bip
    r, s = sum(black), sum(white)
    norm = Fraction(
        sn_irrep_dimension(black) * sn_irrep_dimension(white),
        math.factorial(r) * math.factorial(s),
    )
    terms: dict = {}
    black_terms = karoubi._symmetrizer_terms(black) if r else [((), 1)]
    white_terms = karoubi._symmetrizer_terms(white) if s else [((), 1)]
    for sb, sgb in black_terms:
        for sw, sgw in white_terms:
            pairs = [(i, -sb[i - 1]) for i in range(1, r + 1)]
            pairs += [(r + j, -(r + sw[j - 1])) for j in range(1, s + 1)]
            d = walled_diagram((r, s), (r, s), pairs)
            terms[d] = terms.get(d, RatFunc(0)) + RatFunc(Fraction(sgb * sgw) * norm)
    return Morphism(sig_gl(r, s), sig_gl(r, s), terms)


SMALL_PARTITIONS = [lam for n in range(5) for lam in partitions_of(n)]
SMALL_BIPARTITIONS = [
    (black, white)
    for n in range(5)
    for r in range(n + 1)
    for black in partitions_of(r)
    for white in partitions_of(n - r)
]


def same_terms(f, g):
    """Equal morphisms whose terms also come in the same order."""
    return f == g and list(f.terms.items()) == list(g.terms.items())


class TestOneSymmetrizerBuilder:
    """young_symmetrizer, bipartition_symmetrizer and symmetrizer_object build
    y_lam through one routine; each must give the terms of the two separate
    loops it replaced, in the same order."""

    @pytest.mark.parametrize("flavor", ["S", "O"])
    def test_partitions_match_permutation_loop(self, flavor):
        for lam in SMALL_PARTITIONS:
            ref = reference_young_symmetrizer(lam, flavor)
            assert same_terms(young_symmetrizer(lam, flavor), ref), lam
            assert same_terms(symmetrizer_object(lam, flavor).idem, ref), lam

    def test_bipartitions_match_walled_loop(self):
        for bip in SMALL_BIPARTITIONS:
            ref = reference_bipartition_symmetrizer(bip)
            assert same_terms(bipartition_symmetrizer(bip), ref), bip
            assert same_terms(young_symmetrizer(bip, "GL"), ref), bip
            assert same_terms(symmetrizer_object(bip, "GL").idem, ref), bip

    def test_gl_needs_a_bipartition(self):
        with pytest.raises(ValueError):
            young_symmetrizer((2, 1), "GL")

    def test_term_count(self):
        # symmetrizer_terms counts without building: one term per diagram
        for lam in SMALL_PARTITIONS:
            for flavor in ("S", "O"):
                built = young_symmetrizer(lam, flavor)
                assert karoubi.symmetrizer_terms(lam, flavor) == len(built.terms), lam
        for bip in SMALL_BIPARTITIONS:
            assert karoubi.symmetrizer_terms(bip, "GL") == len(bipartition_symmetrizer(bip).terms)
        assert karoubi.symmetrizer_terms((4, 2, 1)) == 4 * 3 * 2 * 2 * (3 * 2 * 2)
        assert karoubi.symmetrizer_terms(((3,), (1, 1)), "GL") == 3 * 2 * 2


def cycle_sign(sigma) -> int:
    """(-1)^(n - number of cycles) of a permutation of 1..n."""
    seen, cycles = set(), 0
    for i in range(1, len(sigma) + 1):
        if i not in seen:
            cycles += 1
            while i not in seen:
                seen.add(i)
                i = sigma[i - 1]
    return (-1) ** (len(sigma) - cycles)


class TestSymmetrizerBuild:
    """y_lam's terms are permutation diagrams of Diagram._permutation, with
    one shared coefficient per sign, and their signs come from the cells'
    inversions.  The references above read _symmetrizer_terms, so its signs
    are checked here against an independent count."""

    @pytest.mark.parametrize("n", range(6))
    def test_signs_match_cycle_count(self, n):
        for lam in partitions_of(n):
            fill = karoubi._row_fill(lam)
            rows = [set(row) for row in fill]
            cols = [{row[j] for row in fill if len(row) > j} for j in range(lam[0] if lam else 0)]

            def keeps(sigma, cells):
                return all({sigma[i - 1] for i in cell} == cell for cell in cells)

            perms = list(itertools.permutations(range(1, n + 1)))
            expected = {
                tuple(p[q[i] - 1] for i in range(n)): cycle_sign(q)
                for p in perms if keeps(p, rows)
                for q in perms if keeps(q, cols)
            }
            got = karoubi._symmetrizer_terms(lam)
            assert len(got) == len(expected) and dict(got) == expected, lam

    def test_no_validated_build_and_two_coefficients(self, monkeypatch):
        checked = []
        monkeypatch.setattr(diagrams, "_check_cover", lambda *args: checked.append(args))
        labels = [("S", lam) for lam in SMALL_PARTITIONS + list(partitions_of(5))]
        labels += [("O", lam) for _, lam in labels]
        labels += [("GL", bip) for bip in SMALL_BIPARTITIONS]
        for flavor, lam in labels:
            y = young_symmetrizer(lam, flavor)
            assert len({id(c) for c in y.terms.values()}) <= 2, (flavor, lam)
        assert not checked


class TestGlLabelNotAPair:
    """A GL label that is not a (black, white) pair is a ValueError naming it."""

    def test_dim_simple(self):
        with pytest.raises(ValueError, match="5 is not a bipartition"):
            dim_simple(5, "GL")

    def test_young_symmetrizer(self):
        with pytest.raises(ValueError, match="5 is not a bipartition"):
            young_symmetrizer(5, "GL")

    def test_multiplicity(self):
        X = object_of_identity(sig_gl(1, 0))
        with pytest.raises(ValueError, match=r"\(\(1,\),\) is not a bipartition"):
            multiplicity(X, ((1,),))
        with pytest.raises(ValueError, match="5 is not a bipartition"):
            multiplicity(X, 5)


# one malformed label per shape, as (flavor, label), and the one message
# karoubi._parts gives for it
MALFORMED_LABELS = {
    "zero-part": ("S", (2, 0), "(2, 0) is not a partition (weakly decreasing, positive)"),
    "increasing": ("O", (1, 2), "(1, 2) is not a partition (weakly decreasing, positive)"),
    "not-integers": ("S", ("2",), "('2',) is not a partition (expected integers)"),
    "GL-zero-part": ("GL", ((2, 0), ()), "(2, 0) is not a partition (weakly decreasing, positive)"),
    "GL-increasing": ("GL", ((), [1, 2]), "(1, 2) is not a partition (weakly decreasing, positive)"),
    "GL-not-a-pair": ("GL", ((1,),), "((1,),) is not a bipartition (expected a (black, white) pair)"),
    "GL-partition": ("GL", (2, 1), "2 is not a partition (expected integers)"),
}
UNIT = {"S": sig_s(0), "O": sig_o(0), "GL": sig_gl(0, 0)}


def _label_entry_points(flavor, lam) -> dict:
    """{name: call} for each entry point that takes a label of this flavor."""
    calls = {
        "dim_simple": lambda: dim_simple(lam, flavor),
        "young_symmetrizer": lambda: young_symmetrizer(lam, flavor),
        "symmetrizer_object": lambda: symmetrizer_object(lam, flavor),
        "symmetrizer_terms": lambda: karoubi.symmetrizer_terms(lam, flavor),
        "multiplicity": lambda: multiplicity(object_of_identity(UNIT[flavor]), lam),
    }
    if flavor == "GL":
        calls["bipartition_symmetrizer"] = lambda: bipartition_symmetrizer(lam)
    return calls


class TestLabelData:
    """karoubi._parts is the one check of a label."""

    @pytest.mark.parametrize("flavor, lam, message", list(MALFORMED_LABELS.values()), ids=list(MALFORMED_LABELS))
    def test_one_message_per_shape(self, flavor, lam, message):
        for name, call in _label_entry_points(flavor, lam).items():
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message, name

    @pytest.mark.parametrize(
        "flavor, as_list, as_tuple",
        [("S", [2, 1], (2, 1)), ("O", [1, 1], (1, 1)), ("GL", [[1], [1]], ((1,), (1,)))],
    )
    def test_lists_are_labels(self, flavor, as_list, as_tuple):
        # symmetrizer_terms once raised TypeError on a list
        expected = {name: call() for name, call in _label_entry_points(flavor, as_tuple).items()}
        for name, call in _label_entry_points(flavor, as_list).items():
            assert call() == expected[name], name

    def test_symmetrizer_terms_checks_its_label(self):
        # (2, 0) once gave 2 terms and (1, 2) 4, labels dim_simple refuses
        assert karoubi.symmetrizer_terms([2, 1]) == 4
        for lam in [(2, 0), (1, 2)]:
            with pytest.raises(ValueError) as refused:
                dim_simple(lam)
            with pytest.raises(ValueError) as info:
                karoubi.symmetrizer_terms(lam)
            assert str(info.value) == str(refused.value)

    def test_every_entry_point_is_reached(self):
        names = {name for f, lam, _ in MALFORMED_LABELS.values() for name in _label_entry_points(f, lam)}
        assert names == {
            "dim_simple", "young_symmetrizer", "bipartition_symmetrizer", "symmetrizer_object",
            "symmetrizer_terms", "multiplicity",
        }


class TestSpecialP:
    def test_n2_single_block(self):
        p = special_p(2)
        assert p == diagram_morphism(partition_diagram(2, 2, [(1, 2, -1, -2)]))

    def test_idempotent_up_to_4(self):
        for n in range(2, 5):
            assert is_idempotent(special_p(n))

    def test_compresses_to_smaller_algebra(self):
        import itertools

        p = special_p(3)
        for sigma in itertools.permutations(range(1, 4)):
            f = compose(p, compose(permutation_morphism(sigma), p))
            for d in f.terms:
                assert any({2, 3} <= set(b) for b in d.blocks)
                assert any({-2, -3} <= set(b) for b in d.blocks)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            special_p(1)


class TestPromote:
    def test_unit_promotes_to_pi_over_t(self):
        out = promote(identity(sig_s(0)))
        assert out == diagram_morphism(PI) / t
        assert is_idempotent(out)

    def test_trace_preserved(self):
        e1 = std_idempotent()
        out = promote(e1)
        assert is_idempotent(out)
        assert trace(out) == t - 1

    def test_gl_unit_promotes_to_cup_cap(self):
        from interpcat.diagrams import walled_diagram

        out = promote(identity(sig_gl(0, 0)))
        cup_cap = walled_diagram((1, 1), (1, 1), [(1, 2), (-1, -2)])
        assert out == diagram_morphism(cup_cap) / t

    def test_iterated_promotion(self):
        e = identity(sig_s(0))
        for size in range(1, 4):
            e = promote(e)
            assert e.source == sig_s(size)
            assert is_idempotent(e)
            assert trace(e) == RF_ONE

    def test_t_zero_variants(self):
        for f in (identity(sig_s(1)), young_symmetrizer((2,))):
            assert is_idempotent(promote(f, t_is_zero=True))
        for f in (identity(sig_gl(1, 0)), identity(sig_gl(1, 1)), identity(sig_gl(0, 1))):
            assert is_idempotent(promote(f, t_is_zero=True))

    def test_t_zero_rejects_empty(self):
        with pytest.raises(ValueError):
            promote(identity(sig_s(0)), t_is_zero=True)
        with pytest.raises(ValueError):
            promote(identity(sig_gl(0, 0)), t_is_zero=True)

    def test_rejects_non_idempotent(self):
        with pytest.raises(ValueError):
            promote(diagram_morphism(PI))

    def test_rejects_brauer(self):
        with pytest.raises(ValueError):
            promote(identity(sig_o(1)))


# The generators that promotion places beside identities: the commutative
# Frobenius algebra of Rep(S_t) and the cup and cap of Rep(GL_t), built here
# from public constructors, apart from karoubi.
S_UNIT = diagram_morphism(partition_diagram(0, 1, [(-1,)]))
S_COUNIT = diagram_morphism(partition_diagram(1, 0, [(1,)]))
S_SPLIT = diagram_morphism(partition_diagram(1, 2, [(1, -1, -2)]))
S_MERGE = diagram_morphism(partition_diagram(2, 1, [(1, 2, -1)]))
GL_CUP = coev(sig_gl(1, 0))
GL_CAP = ev(sig_gl(1, 0))


def beside(left, g, right):
    """id_left (x) g (x) id_right."""
    return tensor(tensor(identity(left), g), identity(right))


def reference_promotion(sig, t_is_zero):
    """(phi, phi', c) for promotion from End(sig): phi' phi = c id, and
    promote(f) = phi f phi' / c."""
    if sig.flavor == "S":
        (m,) = sig.data
        if m == 0:
            return S_UNIT, S_COUNIT, t
        left, empty = sig_s(m - 1), sig_s(0)
        return beside(left, S_SPLIT, empty), beside(left, S_MERGE, empty), RF_ONE
    a, b = sig.data
    cap = beside(sig_gl(a, 0), GL_CAP, sig_gl(0, b))
    if not t_is_zero:
        return beside(sig_gl(a, 0), GL_CUP, sig_gl(0, b)), cap, t
    if b:  # the cup skips the first white, which the cap's path runs through
        return beside(sig_gl(a, 1), GL_CUP, sig_gl(0, b - 1)), cap, RF_ONE
    return beside(sig_gl(a - 1, 0), GL_CUP, sig_gl(1, 0)), cap, RF_ONE


PROMOTION_CASES = [
    (sig, t_is_zero)
    for sig in [sig_s(m) for m in range(5)]
    + [sig_gl(a, n - a) for n in range(4) for a in range(n + 1)]
    for t_is_zero in (False, True)
    if sig.size or not t_is_zero
]
PROMOTION_IDS = [f"{sig}-{'t0' if z else 'generic'}" for sig, z in PROMOTION_CASES]


def idempotents_of(sig):
    """The identity of sig and every y_lam on it."""
    if sig.flavor == "S":
        return [identity(sig)] + [young_symmetrizer(lam) for lam in partitions_of(sig.size)]
    a, b = sig.data
    return [identity(sig)] + [
        bipartition_symmetrizer((black, white))
        for black in partitions_of(a)
        for white in partitions_of(b)
    ]


class TestPromotionRelations:
    """promote(f) = phi f phi' / c needs phi' phi = c id: c = t for the S unit
    and counit and the generic GL cup and cap, c = 1 for split and merge and
    the GL cup at t = 0."""

    @pytest.mark.parametrize("sig, t_is_zero", PROMOTION_CASES, ids=PROMOTION_IDS)
    def test_phi_prime_phi(self, sig, t_is_zero):
        phi, phi_p, c = reference_promotion(sig, t_is_zero)
        assert phi.source == sig == phi_p.target
        assert compose(phi_p, phi) == identity(sig) * c

    @pytest.mark.parametrize("sig, t_is_zero", PROMOTION_CASES, ids=PROMOTION_IDS)
    def test_promote_is_phi_f_phi_prime(self, sig, t_is_zero):
        phi, phi_p, c = reference_promotion(sig, t_is_zero)
        for f in idempotents_of(sig):
            assert promote(f, t_is_zero=t_is_zero) == compose(phi, compose(f, phi_p)) / c


class TestKaroubiObject:
    def test_validates_idempotency(self):
        with pytest.raises(ValueError):
            KaroubiObject(sig_s(1), diagram_morphism(PI))

    def test_validates_signature(self):
        with pytest.raises(ValueError):
            KaroubiObject(sig_s(2), identity(sig_s(1)))


class TestMultiplicity:
    def test_symmetric_square(self):
        X = KaroubiObject(sig_s(2), young_symmetrizer((2,)))
        assert multiplicity(X, (1,)) == 2
        assert multiplicity(X, ()) == 2
        assert multiplicity(X, (2,)) == 1
        assert multiplicity(X, (1, 1)) == 0

    def test_label_out_of_range(self):
        X = object_of_identity(sig_s(1))
        assert multiplicity(X, (2, 1)) == 0


def sandwich_rank(X, Y):
    """dim Hom(X, Y) by elimination: dense_rank over Q(t) of the sandwiches
    e_Y o d o e_X, one row per basis diagram d, on the union of their keys."""
    rows = [
        compose(Y.idem, compose(diagram_morphism(d), X.idem)).terms
        for d in hom_basis(X.sig, Y.sig)
    ]
    keys = list(dict.fromkeys(k for row in rows for k in row))
    return dense_rank([[RatFunc(row.get(k, 0)) for k in keys] for row in rows])


# the K spaces of small symmetrizer objects, and their multiplicities
K_CASES = [("S", lam) for n in range(1, 4) for lam in partitions_of(n)]
K_CASES += [("O", (2,)), ("O", (1, 1))]
K_CASES += [("GL", ((1,), (1,))), ("GL", ((2,), (1,))), ("GL", ((1, 1), (1,)))]
K_OF_SYMMETRIZERS = [
    {(): 1},
    {(): 2, (1,): 2},
    {(): 0, (1,): 1},
    {(): 3, (1,): 4, (2,): 2, (1, 1): 1},
    {(): 1, (1,): 3, (2,): 2, (1, 1): 2},
    {(): 0, (1,): 0, (2,): 0, (1, 1): 1},
    {(): 1},
    {(): 0},
    {((), ()): 1},
    {((1,), ()): 1},
    {((1,), ()): 1},
]


def forbid_q_t_arithmetic(monkeypatch):
    """Make every RatFunc arithmetic operation fail the test."""

    def q_t_arithmetic(self, other):
        raise AssertionError("RatFunc arithmetic on constant coefficients")

    for op in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__truediv__"):
        monkeypatch.setattr(RatFunc, op, q_t_arithmetic)


class TestExactHomRank:
    """_hom_dim is the trace of d -> e_Y o d o e_X, an exact constant of Q(t):
    there is no elimination and no sample point."""

    def test_exact_rank_counts_t_powers(self):
        # End of (S[1], id - pi/t) is one-dimensional because pi o pi = t pi
        X = KaroubiObject(sig_s(1), std_idempotent())
        assert _hom_dim(X, X) == 1
        assert _hom_dim(X, object_of_identity(sig_s(1))) == 1

    def test_no_sample_point_is_used(self, monkeypatch):
        # idempotents that carry t: a rank taken at a point would evaluate them
        def sample_point_used(self, t0):
            raise AssertionError(f"coefficient evaluated at t = {t0}")

        std = std_idempotent()
        gl_adjoint = promote(bipartition_symmetrizer(((1,), (1,))))
        monkeypatch.setattr(RatFunc, "eval", sample_point_used)
        assert decompose(KaroubiObject(sig_s(2), tensor(std, std))) == {
            (): 1, (1,): 1, (1, 1): 1, (2,): 1,
        }
        assert decompose(KaroubiObject(gl_adjoint.source, gl_adjoint)) == {
            ((), ()): 1, ((1,), (1,)): 1,
        }
        assert decompose(KaroubiObject(sig_s(3), special_p(3))) == SPECIAL_P3

    def test_constant_sandwiches_take_no_q_t_arithmetic(self, monkeypatch):
        # symmetrizers and identities have constant coefficients and their
        # sandwiches close no loop, so every trace is summed over Q
        cases = []
        for X in (symmetrizer_object((2, 1)), object_of_identity(sig_o(2))):
            flavor = X.sig.flavor
            labels = DIAGRAM_CLASSES[flavor]._labels(X.sig.data)
            cases.append((X, {lam: symmetrizer_object(lam, flavor) for lam in labels}))

        forbid_q_t_arithmetic(monkeypatch)
        ranks = [{lam: _hom_dim(X, Y) for lam, Y in ys.items()} for X, ys in cases]
        assert ranks == [
            {(): 1, (1,): 4, (2,): 10, (1, 1): 5, (3,): 21, (2, 1): 19, (1, 1, 1): 2},
            {(): 1, (2,): 2, (1, 1): 1},
        ]

    def test_symmetrizer_k_spaces_take_no_q_t_arithmetic(self, monkeypatch):
        # y_lam o d o y_mu has constant coefficients, so every K space of a
        # symmetrizer object is a trace summed over Q
        forbid_q_t_arithmetic(monkeypatch)
        k = [karoubi._symmetrizer_decomposition.__wrapped__(f, lam) for f, lam in K_CASES]
        assert k == K_OF_SYMMETRIZERS

    def test_symmetrizer_k_spaces_take_no_fraction_arithmetic(self, monkeypatch):
        # each y_lam is scaled once to integer coefficients, so the trace is
        # summed over Z and divided once; the Y_lam are memoized, so they are
        # built before Fraction is forbidden
        for f, lam in K_CASES:
            for mu in [lam] + karoubi._labels_below(f, lam):
                symmetrizer_object(mu, f)

        def fraction_arithmetic(*args):
            raise AssertionError("Fraction arithmetic in the trace loop")

        for op in ("__add__", "__radd__", "__mul__", "__rmul__", "__new__"):
            monkeypatch.setattr(Fraction, op, fraction_arithmetic)
        k = [karoubi._symmetrizer_decomposition.__wrapped__(f, lam) for f, lam in K_CASES]
        assert k == K_OF_SYMMETRIZERS

    def test_constant_idempotent_that_closes_loops(self, monkeypatch):
        # coefficient 1, but the block {1, 2, 1'} and the singleton {2'} make
        # some sandwiches close loops, so those ranks are taken over Q(t)
        e = diagram_morphism(partition_diagram(2, 2, [(1, 2, -1), (-2,)]))
        assert is_idempotent(e) and trace(e) == t
        X = KaroubiObject(sig_s(2), e)
        powers = []

        def recorded(k):
            powers.append(k)
            return t_power(k)

        # the sandwiches go through the homspaces composition kernel
        monkeypatch.setattr(homspaces, "t_power", recorded)
        found = decompose(X)
        assert found == {(): 1, (1,): 1}
        assert any(powers)
        total = sum((m * dim_simple(lam) for lam, m in found.items()), RatFunc(0))
        assert total == trace(e) == t

    def test_each_composition_reaches_the_kernel_once(self, monkeypatch):
        # the compose_diagrams memo is process-wide: across two decompositions
        # no pair is composed twice, and the repeat composes nothing
        compose_diagrams.cache_clear()
        runs = []
        for cls in DIAGRAM_CLASSES.values():
            kernel = cls._compose

            def spy(p, q, kernel=kernel):
                runs.append((p, q))
                return kernel(p, q)

            monkeypatch.setattr(cls, "_compose", spy)
        X = object_of_identity(sig_s(3))
        decompose(X)
        first = len(runs)
        assert decompose(X) == {
            (): 5, (1,): 10, (2,): 6, (1, 1): 6, (3,): 1, (2, 1): 2, (1, 1, 1): 1,
        }
        assert first and len(runs) == first
        assert len(runs) == len(set(runs))

    def test_each_sandwich_half_is_composed_once(self, monkeypatch):
        # an X with terms that are not permutations takes the trace route:
        # R_d = d o e_X is composed once per basis diagram d of each target
        # signature, shared by every label of that size; chi is taken once
        # per class key, by one representative s, as s o m once per diagram
        # m that R reaches.  ([3], promote(y_(2))) is isomorphic to Y_(2).
        X = KaroubiObject(sig_s(3), promote(young_symmetrizer((2,))))
        labels = karoubi._labels_below("S", (2, 1)) + [(2, 1)]
        for lam in labels:  # the K solves, memoized, compose their own traces
            karoubi._symmetrizer_decomposition("S", lam)
        _, ex = homspaces._integral_terms(X.idem)
        compose_terms = karoubi._compose_terms
        right, chi = {}, []

        def spy(fs, gs):
            out = compose_terms(fs, gs)
            if gs == ex:
                ((d, _),) = fs
                assert d not in right
                right[d] = out
            else:
                ((s, _),), ((m, _),) = fs, gs
                chi.append((s, m))
            return out

        monkeypatch.setattr(karoubi, "_compose_terms", spy)
        assert karoubi._multiplicities(X, labels) == {
            (): 2, (1,): 2, (2,): 1, (1, 1): 0, (2, 1): 0,
        }
        targets = dict.fromkeys(symmetrizer_object(lam).sig for lam in labels)
        bases = {sig: hom_basis(X.sig, sig) for sig in targets}
        assert list(right) == [d for basis in bases.values() for d in basis]
        representatives = dict.fromkeys(s for s, _ in chi)
        keys = [(s.bottom, karoubi._class_key(s)) for s in representatives]
        assert len(keys) == len(set(keys))
        # the (2, 1) classes: the identity, the 3-cycles, and no transposition,
        # whose class sum in y_(2, 1) is 0
        assert sorted(k for n, k in keys if n == 3) == [
            ((True, 1), (True, 1), (True, 1)), ((True, 3),),
        ]
        for s in representatives:
            reached = {m for d in bases[sig_s(s.bottom)] for m, c in right[d].items() if c}
            composed = [m for r, m in chi if r == s]
            assert len(composed) == len(set(composed)) and set(composed) == reached


class TestOneCompositionKernel:
    """Sparse combinations of diagrams are composed by one loop,
    homspaces._compose_terms, for compose and for the _hom_dim sandwich."""

    def test_one_home(self):
        assert karoubi._compose_terms is homspaces._compose_terms
        assert karoubi._integral_terms is homspaces._integral_terms
        callers, clearers = set(), set()
        for path in sorted(pathlib.Path(interpcat.__file__).parent.glob("*.py")):
            for fn in ast.walk(ast.parse(path.read_text())):
                if isinstance(fn, ast.FunctionDef):
                    if fn.name == "_integral_terms":
                        clearers.add(path.stem)
                    for node in ast.walk(fn):
                        name = getattr(node, "id", None) or getattr(node, "attr", None)
                        if name == "compose_diagrams":
                            callers.add((path.stem, fn.name))
        # besides the kernel: the CLI composes two diagrams, and the oracle and
        # selftest check the diagram law itself, one pair of diagrams at a time
        assert callers == {
            ("homspaces", "_compose_terms"),
            ("cli", "cmd_compose"),
            ("oracle", "verify_structure_constants"),
            ("selftest", "check_composition_associativity"),
        }
        # one routine clears a morphism's constant denominators
        assert clearers == {"homspaces"}
        # karoubi does not even import compose_diagrams
        tree = ast.parse(pathlib.Path(karoubi.__file__).read_text())
        imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
        assert "_compose_terms" in imported and "compose_diagrams" not in imported


class TestTraceAgainstElimination:
    """The library's one independent check of Hom dimensions: the trace
    _hom_dim equals the rank of the sandwich rows over Q(t)."""

    @staticmethod
    def spaces():
        std = KaroubiObject(sig_s(1), std_idempotent())
        loops = KaroubiObject(
            sig_s(2), diagram_morphism(partition_diagram(2, 2, [(1, 2, -1), (-2,)]))
        )
        p3 = KaroubiObject(sig_s(3), special_p(3))
        adjoint = promote(bipartition_symmetrizer(((1,), (1,))))
        gl_adjoint = KaroubiObject(adjoint.source, adjoint)
        s1, s2 = object_of_identity(sig_s(1)), object_of_identity(sig_s(2))
        o2 = object_of_identity(sig_o(2))
        gl11 = object_of_identity(sig_gl(1, 1))
        return [
            (std, std), (std, s1), (s1, std), (std, s2),
            (loops, loops), (loops, symmetrizer_object((2,))), (s1, loops),
            (p3, symmetrizer_object((2,))), (symmetrizer_object((1, 1)), p3),
            (symmetrizer_object((2, 1)), symmetrizer_object((1,))),
            (o2, o2), (o2, symmetrizer_object((2,), "O")),
            (symmetrizer_object((1, 1), "O"), object_of_identity(sig_o(0))),
            (gl_adjoint, gl_adjoint), (gl_adjoint, gl11), (gl11, gl_adjoint),
            (gl_adjoint, symmetrizer_object(((1,), (1,)), "GL")),
            (symmetrizer_object(((2,), (1,)), "GL"), object_of_identity(sig_gl(1, 0))),
        ]

    def test_trace_equals_sandwich_rank(self):
        for X, Y in self.spaces():
            assert _hom_dim(X, Y) == sandwich_rank(X, Y), (X.sig, Y.sig)

    def test_hom_dims_are_symmetric(self):
        # the category is semisimple at generic t, so dim Hom(X, Y) and
        # dim Hom(Y, X) are both sum_lam m_X(lam) m_Y(lam)
        for X, Y in self.spaces():
            assert _hom_dim(X, Y) == _hom_dim(Y, X), (X.sig, Y.sig)

    def test_hom_dim_is_the_pairing_of_multiplicities(self):
        # the trace of each space against the multiplicities that the K
        # system inverts out of the traces against the symmetrizer objects
        for X, Y in self.spaces():
            mx, my = decompose(X), decompose(Y)
            pairing = sum(m * my.get(lam, 0) for lam, m in mx.items())
            assert _hom_dim(X, Y) == pairing, (X.sig, Y.sig)


class TestHomDimGuard:
    """A trace that is not an integer in [0, |basis|] is not a dimension."""

    def test_non_idempotent_scaling_raises(self):
        # d -> 2 id o d o 2 id = 4 d has trace 8 on the 2-diagram End(S[1])
        X = KaroubiObject._trusted(identity(sig_s(1)) * RatFunc(2))
        with pytest.raises(ArithmeticError):
            _hom_dim(X, X)

    def test_integral_trace_not_divisible_by_the_denominators_raises(self):
        # e = id/2 clears to id with n = 2: the cleared trace 2 on the
        # 2-diagram End(S[1]) is not a multiple of n_X n_Y = 4
        X = KaroubiObject._trusted(identity(sig_s(1)) * RatFunc(Fraction(1, 2)))
        with pytest.raises(ArithmeticError, match="the trace 1/2 "):
            _hom_dim(X, X)

    def test_non_constant_trace_raises(self):
        # pi o d o pi: id -> t pi and pi -> t^2 pi, so the trace is t^2
        X = KaroubiObject._trusted(diagram_morphism(PI))
        with pytest.raises(ArithmeticError):
            _hom_dim(X, X)


def reference_hom_dim(X, Y):
    """dim Hom(X, Y) by the trace of d -> e_Y o d o e_X taken in two halves,
    term by term: R_d = d o e_X once per basis diagram d, L_m = e_Y o m once
    per diagram m that some R_d reaches, and the sum over d and m of
    R_d[m] L_m[d], over Z after clearing, divided once by n_X n_Y."""
    nx, ex = homspaces._integral_terms(X.idem)
    ny, ey = homspaces._integral_terms(Y.idem)
    left, total = {}, 0
    for d in hom_basis(X.sig, Y.sig):
        for m, cm in homspaces._compose_terms([(d, 1)], ex).items():
            if m not in left:
                left[m] = homspaces._compose_terms(ey, [(m, 1)])
            total += cm * left[m].get(d, 0)
    q, r = divmod(constant_or_self(total), nx * ny)
    assert not r
    return q


def identity_spaces():
    """object_of_identity of every signature up to the budget, against the
    symmetrizer object of every label that its Hom spaces reach."""
    for flavor, budget in karoubi._SIZE_BUDGET.items():
        for size in range(budget + 1):
            for data in ([(r, size - r) for r in range(size + 1)] if flavor == "GL" else [(size,)]):
                X = object_of_identity(homspaces.ObjectSignature(flavor, data))
                for lam in DIAGRAM_CLASSES[flavor]._labels(data):
                    yield X, symmetrizer_object(lam, flavor)


class TestClassSums:
    """_hom_dim sums e_Y's terms per conjugacy class and takes one trace per
    class; it equals the trace taken term by term."""

    def test_trace_spaces_match_the_reference(self):
        for X, Y in TestTraceAgainstElimination.spaces():
            assert _hom_dim(X, Y) == reference_hom_dim(X, Y), (X.sig, Y.sig)

    def test_k_spaces_match_the_reference(self):
        for flavor, lam in K_CASES:
            X = symmetrizer_object(lam, flavor)
            for mu in [lam] + karoubi._labels_below(flavor, lam):
                Y = symmetrizer_object(mu, flavor)
                assert _hom_dim(X, Y) == reference_hom_dim(X, Y), (lam, mu)

    def test_identity_objects_match_the_reference(self):
        # every size up to each budget; the S objects of size 4 are slow
        for X, Y in identity_spaces():
            if X.sig != sig_s(4):
                assert _hom_dim(X, Y) == reference_hom_dim(X, Y), (X.sig, Y.sig)

    @pytest.mark.slow
    def test_largest_identity_object_matches_the_reference(self):
        for X, Y in identity_spaces():
            if X.sig == sig_s(4):
                assert _hom_dim(X, Y) == reference_hom_dim(X, Y), Y.sig

    def test_class_keys(self):
        P = DIAGRAM_CLASSES["S"]._permutation
        assert karoubi._class_key(P((4,), [2, 3, 1, 4])) == ((True, 1), (True, 3))
        assert karoubi._class_key(P((4,), [1, 3, 2, 4])) == karoubi._class_key(P((4,), [4, 2, 3, 1]))
        assert karoubi._class_key(P((0,), [])) == ()
        # a diagram that is not a permutation is its own key, also when it
        # has as many blocks of two as a permutation: a cup and a cap
        others = [
            PI,
            partition_diagram(2, 2, [(1, -2), (2,), (-1,)]),
            partition_diagram(1, 2, [(1, -1, -2)]),
            partition_diagram(2, 2, [(1, 2), (-1, -2)]),
            diagrams.brauer_diagram(2, 2, [(1, 2), (-1, -2)]),
            diagrams.brauer_diagram(3, 3, [(1, -3), (2, 3), (-1, -2)]),
            walled_diagram((1, 1), (1, 1), [(1, 2), (-1, -2)]),
        ]
        for d in others:
            assert karoubi._class_key(d) is d

    def test_gl_keys_keep_the_color(self):
        # a black and a white transposition are not conjugate by a permutation
        # that keeps each color, so they get different keys; with one key,
        # the asymmetric Y_((2), (1, 1)) sums their coefficients +1/4 and
        # -1/4 to 0, and its End is no longer a dimension
        W = DIAGRAM_CLASSES["GL"]._permutation
        black, white = W((2, 2), [2, 1, 3, 4]), W((2, 2), [1, 2, 4, 3])
        assert karoubi._class_key(black) == ((False, 1), (False, 1), (True, 2))
        assert karoubi._class_key(white) == ((False, 2), (True, 1), (True, 1))
        X = symmetrizer_object(((2,), (1, 1)), "GL")
        Y = symmetrizer_object(((1, 1), (2,)), "GL")
        for A, B, dim in ((X, X, 2), (Y, Y, 2), (X, Y, 1), (Y, X, 1)):
            assert _hom_dim(A, B) == reference_hom_dim(A, B) == sandwich_rank(A, B) == dim

    def test_zero_class_sums_take_no_trace(self):
        # y_(2, 1) has coefficient sum 0 on the transpositions, so End(Y_(2, 1))
        # takes two traces: the identity and the 3-cycles
        Y = symmetrizer_object((2, 1))
        traces = karoubi._Traces(Y, Y.sig)
        assert traces.hom_dim(Y) == 19
        assert sorted(traces.chi) == [((True, 1), (True, 1), (True, 1)), ((True, 3),)]


def labels_up_to_four(flavor):
    """Every label of total size <= 4."""
    if flavor == "GL":
        data = [(r, s) for r in range(5) for s in range(5 - r)]
    else:
        data = [(3,), (4,)]
    return sorted({lam for d in data for lam in DIAGRAM_CLASSES[flavor]._labels(d)})


# (flavor, size of X, which X of that size); a case that takes over 1 s on
# a 2-CPU VM is slow: each S X of size 4 takes 1 to 10 s
ROUTE_CASES = [(f, n, None) for f, top in (("S", 3), ("O", 4), ("GL", 4)) for n in range(top + 1)]
ROUTE_CASES += [pytest.param("S", 4, i, marks=pytest.mark.slow) for i in range(6)]


class TestFixedPointRoute:
    """An X whose idempotent is a sum of permutations takes dim Hom(X, Y_lam)
    from the class sums of e_X and e_Y and the flavor's closed-form
    fixed-point counts, with no basis and no composition; it equals the
    trace route, _Traces."""

    @staticmethod
    def assert_matches_the_trace_route(xs, ys, monkeypatch):
        traces = karoubi._Traces
        want = [[traces(X, Y.sig).hom_dim(Y) for Y in ys] for X in xs]
        monkeypatch.setattr(karoubi, "_Traces", None)  # the route takes no trace
        assert [[_hom_dim(X, Y) for Y in ys] for X in xs] == want

    @pytest.mark.parametrize("flavor, size, which", ROUTE_CASES)
    def test_identities_and_symmetrizers(self, flavor, size, which, monkeypatch):
        # X: the identity object of each signature of this size and each
        # Y_mu of this size (only the one at index which, unless None); Y:
        # every Y_lam up to size 4
        labels = labels_up_to_four(flavor)
        data = [(r, size - r) for r in range(size + 1)] if flavor == "GL" else [(size,)]
        xs = [object_of_identity(homspaces.ObjectSignature(flavor, d)) for d in data]
        xs += [symmetrizer_object(mu, flavor) for mu in labels if karoubi._label_size(flavor, mu) == size]
        ys = [symmetrizer_object(lam, flavor) for lam in labels]
        self.assert_matches_the_trace_route(xs if which is None else [xs[which]], ys, monkeypatch)

    def test_conjugated_and_tensored_symmetrizers(self, monkeypatch):
        sigma = (2, 3, 1)
        conjugated = compose(
            permutation_morphism(sigma), compose(young_symmetrizer((2, 1)), permutation_morphism((3, 1, 2)))
        )
        tensored = tensor(young_symmetrizer((2,)), young_symmetrizer((1,)))
        gl_tensored = tensor(
            bipartition_symmetrizer(((1, 1), ())), bipartition_symmetrizer(((), (1,)))
        )
        xs = [KaroubiObject(e.source, e) for e in (conjugated, tensored)]
        ys = [symmetrizer_object(lam) for lam in labels_up_to_four("S")]
        self.assert_matches_the_trace_route(xs, ys, monkeypatch)
        X = KaroubiObject(gl_tensored.source, gl_tensored)
        ys = [symmetrizer_object(lam, "GL") for lam in labels_up_to_four("GL")]
        monkeypatch.undo()
        self.assert_matches_the_trace_route([X], ys, monkeypatch)
        # conjugation gives an isomorphic object
        assert decompose(xs[0]) == decompose(symmetrizer_object((2, 1)))

    def test_no_basis_and_no_composition(self, monkeypatch):
        X = symmetrizer_object((2, 1))
        labels = karoubi._labels_below("S", (2, 1)) + [(2, 1)]
        for lam in labels:  # the K solves are memoized
            karoubi._symmetrizer_decomposition("S", lam)
        monkeypatch.setattr(karoubi, "hom_basis", None)
        monkeypatch.setattr(karoubi, "_compose_terms", None)
        assert karoubi._multiplicities(X, labels) == {
            (): 1, (1,): 3, (2,): 2, (1, 1): 2, (2, 1): 1,
        }

    def test_a_permutation_x_against_another_y_takes_the_trace_route(self, monkeypatch):
        # the route needs both idempotents to be sums of permutations
        X, Y = symmetrizer_object((1, 1)), KaroubiObject(sig_s(3), special_p(3))

        def counted(cls, target, source):
            raise AssertionError("a fixed-point count for an X or Y with other terms")

        monkeypatch.setattr(diagrams.PartitionDiagram, "_fixed_count", classmethod(counted))
        assert _hom_dim(X, Y) == reference_hom_dim(X, Y) == 4
        assert _hom_dim(Y, X) == reference_hom_dim(Y, X) == 4


class TestDecomposeBudget:
    """decompose refuses an X whose End(x) has more than MAX_DECOMPOSE_BASIS
    basis diagrams, before any y_lam or basis is built."""

    def test_limit_lies_between_the_objects_in_use_and_the_slow_ones(self):
        limit = karoubi.MAX_DECOMPOSE_BASIS
        assert limit == 5000
        assert diagrams.basis_size("S", (4,), (4,)) == 4140 <= limit
        assert diagrams.basis_size("GL", (4, 3), (4, 3)) == 5040 > limit
        assert diagrams.basis_size("O", (6,), (6,)) == 10395 > limit

    @pytest.mark.parametrize(
        "sig, size",
        [(sig_gl(4, 3), 5040), (sig_o(6), 10395), (sig_s(5), 115975), (sig_gl(4, 4), 40320)],
        ids=["GL-4-3", "O-6", "S-5", "GL-4-4"],
    )
    def test_over_the_limit_is_refused_up_front(self, sig, size, monkeypatch):
        X = object_of_identity(sig)
        monkeypatch.setattr(karoubi, "_multiplicities", None)  # never runs
        message = (
            f"decompose budget exceeded: End({sig}) has {size} basis diagrams"
            f" > MAX_DECOMPOSE_BASIS = {karoubi.MAX_DECOMPOSE_BASIS}"
        )
        unit = ((), ()) if sig.flavor == "GL" else ()
        for call in (lambda: decompose(X), lambda: multiplicity(X, unit)):
            start = time.perf_counter()
            with pytest.raises(SizeBudgetError) as info:
                call()
            assert time.perf_counter() - start < 1.0
            assert str(info.value) == message

    def test_largest_object_under_the_limit(self):
        # End([4]) is semisimple at generic t, so it is the sum of the
        # squared multiplicities
        mult = decompose(object_of_identity(sig_s(4)))
        assert sum(m * m for m in mult.values()) == 4140

    def test_cli_exit_1(self, capsys):
        f = json.dumps(morphism_to_json(identity(sig_gl(4, 3))))
        start = time.perf_counter()
        assert main(["decompose", "-f", f]) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            "error: decompose budget exceeded: End(GL[4, 3]) has 5040 basis diagrams"
            " > MAX_DECOMPOSE_BASIS = 5000\n"
        )


class TestDecompose:
    def test_symmetric_square(self):
        X = KaroubiObject(sig_s(2), young_symmetrizer((2,)))
        assert decompose(X) == {(): 2, (1,): 2, (2,): 1}

    def test_exterior_square(self):
        X = KaroubiObject(sig_s(2), young_symmetrizer((1, 1)))
        assert decompose(X) == {(1,): 1, (1, 1): 1}

    def test_unit(self):
        assert decompose(object_of_identity(sig_s(0))) == {(): 1}

    def test_tensor_square_counts(self):
        # V (x) V = 2 triv + 3 std + S^2_0 + wedge^2_0 classically
        X = object_of_identity(sig_s(2))
        assert decompose(X) == {(): 2, (1,): 3, (2,): 1, (1, 1): 1}

    def test_gl_mixed(self):
        X = object_of_identity(sig_gl(1, 1))
        assert decompose(X) == {((), ()): 1, ((1,), (1,)): 1}

    def test_gl_two_one(self):
        # V (x) V (x) V* = (S^2 V + wedge^2 V) (x) V* classically
        X = object_of_identity(sig_gl(2, 1))
        assert decompose(X) == {
            ((1,), ()): 2,
            ((2,), (1,)): 1,
            ((1, 1), (1,)): 1,
        }

    def test_gl_two_two(self):
        # (S^2 + wedge^2) (x) (S^2 + wedge^2)* expanded by the stable
        # mixed-tensor rule: each factor pair contributes its own level-2
        # bipartition, one adjoint, and a trivial iff the factors match
        X = object_of_identity(sig_gl(2, 2))
        assert decompose(X) == {
            ((), ()): 2,
            ((1,), (1,)): 4,
            ((2,), (2,)): 1,
            ((2,), (1, 1)): 1,
            ((1, 1), (2,)): 1,
            ((1, 1), (1, 1)): 1,
        }

    def test_brauer_square(self):
        X = object_of_identity(sig_o(2))
        assert decompose(X) == {(): 1, (2,): 1, (1, 1): 1}

    def test_brauer_cube(self):
        X = object_of_identity(sig_o(3))
        assert decompose(X) == {(1,): 3, (3,): 1, (2, 1): 2, (1, 1, 1): 1}

    def test_accounting_identity(self):
        # sum of m_lam dim L(lam) = tr(e), exactly in Q(t)
        std = std_idempotent()
        gl_adjoint = promote(bipartition_symmetrizer(((1,), (1,))))
        for X, flavor in [
            (KaroubiObject(sig_s(2), young_symmetrizer((2,))), "S"),
            (KaroubiObject(sig_s(2), young_symmetrizer((1, 1))), "S"),
            (object_of_identity(sig_gl(1, 1)), "GL"),
            (object_of_identity(sig_o(2)), "O"),
            # idempotents that carry t, or whose Hom spaces close loops
            (KaroubiObject(sig_s(2), tensor(std, std)), "S"),
            (KaroubiObject(sig_s(3), tensor(std, young_symmetrizer((2,)))), "S"),
            (KaroubiObject(gl_adjoint.source, gl_adjoint), "GL"),
            (KaroubiObject(sig_s(3), special_p(3)), "S"),
        ]:
            total = RatFunc(0)
            for lam, mult in decompose(X).items():
                total = total + mult * dim_simple(lam, flavor)
            assert total == trace(X.idem)


class TestDimSimple:
    def test_frozen_small_dimensions(self):
        assert dim_simple((1,)) == t - 1
        assert dim_simple((2,)) == (t * t - 3 * t) / 2
        assert dim_simple((1, 1)) == (t - 1) * (t - 2) / 2
        assert dim_simple(((1,), (1,)), "GL") == t * t - 1

    def test_polynomial_normalized_leading_coeff(self):
        from interpcat.partitions import hook_product

        for size in range(1, 4):
            for lam in partitions_of(size):
                poly = dim_simple(lam)
                assert poly.is_polynomial()
                assert poly.num.degree == size
                lead = poly.num.leading()
                assert lead == Fraction(1, hook_product(lam))

    def test_hook_window(self):
        for size in range(1, 4):
            for lam in partitions_of(size):
                poly = dim_simple(lam)
                for n in range(size + lam[0], 13):
                    assert poly.eval(n) == hook_content_dimension(lam, n), (lam, n)

    def test_gl_weyl_window(self):
        poly = dim_simple(((1,), (1,)), "GL")
        for n in range(2, 13):
            assert poly.eval(n) == gl_weyl_dimension(((1,), (1,)), n)

    def test_o_flavor_small(self):
        assert dim_simple((1,), "O") == t
        assert dim_simple((2,), "O") == (t * t + t) / 2 - 1
        assert dim_simple((1, 1), "O") == (t * t - t) / 2

    def test_budget(self):
        with pytest.raises(SizeBudgetError):
            dim_simple((5,))
        with pytest.raises(SizeBudgetError):
            dim_simple((2, 1), "O")

    def test_exact_without_sample_points(self, monkeypatch):
        # K and dim_simple evaluate no coefficient at a point
        def sample_point_used(self, t0):
            raise AssertionError(f"coefficient evaluated at t = {t0}")

        monkeypatch.setattr(RatFunc, "eval", sample_point_used)
        karoubi._symmetrizer_decomposition.cache_clear()
        karoubi._dim_simple.cache_clear()
        assert dim_simple((2, 1)) == t * (t - 2) * (t - 4) / 3
        assert dim_simple(((1,), (1,)), "GL") == t * t - 1
        assert dim_simple((1, 1), "O") == (t * t - t) / 2

    def test_below_threshold_is_generic_polynomial(self):
        # at t = 2 the generic polynomial for (2) evaluates to -1: it is a
        # polynomial value, not an object dimension, below the threshold
        assert dim_simple((2,)).eval(2) == -1


class TestSymmetrizerObjects:
    def test_contains_own_label_once(self):
        for lam in [(1,), (2,), (1, 1), (2, 1)]:
            Y = symmetrizer_object(lam, "S")
            assert multiplicity(Y, lam) == 1

    def test_normalized_labels_share_one_object(self):
        assert symmetrizer_object([2, 1]) is symmetrizer_object((2, 1), "S")
        assert symmetrizer_object(([1], []), "GL") is symmetrizer_object(((1,), ()), "GL")


# every label _labels yields for the objects the tests, selftest and the
# benchmark decompose: S and O up to size 5, GL up to total size 4
TRUSTED_LABELS = [
    (flavor, lam) for flavor in ("S", "O") for k in range(6) for lam in partitions_of(k)
] + [
    ("GL", (black, white))
    for a in range(5)
    for b in range(5 - a)
    for black in partitions_of(a)
    for white in partitions_of(b)
]


class TestTrustedSymmetrizers:
    """The memoized Y_lam skip the idempotency check, so every y_lam it can
    serve is checked here, and every other object is still checked."""

    @pytest.mark.parametrize("flavor, lam", TRUSTED_LABELS, ids=str)
    def test_exactly_idempotent(self, flavor, lam):
        y = karoubi._symmetrizer_object(flavor, lam).idem
        assert compose(y, y) == y

    @pytest.mark.parametrize("flavor, lam", TRUSTED_LABELS, ids=str)
    def test_memo_matches_a_fresh_build_term_for_term(self, flavor, lam):
        Y = karoubi._symmetrizer_object(flavor, lam)
        fresh = karoubi._symmetrizer(flavor, lam)
        assert Y.sig == fresh.source == fresh.target
        assert list(Y.idem.terms.items()) == list(fresh.terms.items())

    def test_other_objects_are_still_checked(self, capsys):
        twice = identity(sig_s(2)) * RatFunc(2)
        with pytest.raises(ValueError, match="exactly idempotent"):
            KaroubiObject(sig_s(2), twice)
        with pytest.raises(ValueError, match="needs an idempotent"):
            promote(twice)
        assert main(["idem-check", "-f", json.dumps(morphism_to_json(twice))]) == 0
        assert json.loads(capsys.readouterr().out) == {"idempotent": False}


class TestIntegerArithmetic:
    """compose and trace clear the denominators +-f^lam/n! of a y_lam once
    (homspaces._integral_terms): its idempotency check composes over the
    ints, and its trace takes no Q(t) product."""

    @staticmethod
    def symmetrizers():
        # the trusted y_lam of S and O up to size 4 and of GL up to total size 4
        return [
            karoubi._symmetrizer_object(flavor, lam).idem
            for flavor, lam in TRUSTED_LABELS
            if (sum(map(sum, lam)) if flavor == "GL" else sum(lam)) <= 4
        ]

    def test_idempotency_checks_compose_over_the_ints(self, monkeypatch):
        kernel, seen = homspaces._compose_terms, set()

        def spy(fs, gs):
            seen.update(type(c) for _, c in fs + gs)
            return kernel(fs, gs)

        ys = self.symmetrizers()
        assert len(ys) == 24 + 38
        monkeypatch.setattr(homspaces, "_compose_terms", spy)
        assert all(is_idempotent(y) for y in ys)
        assert seen == {int}

    def test_traces_take_no_q_t_product(self, monkeypatch):
        ys = self.symmetrizers()
        expected = []
        for y in ys:
            total = RatFunc(0)
            for d, c in y.terms.items():
                total = total + c * t_power(diagrams.closure_components(d))
            expected.append(total)

        def product(self, other):
            raise AssertionError("RatFunc product in the trace of a y_lam")

        monkeypatch.setattr(RatFunc, "__mul__", product)
        monkeypatch.setattr(RatFunc, "__rmul__", product)
        assert [trace(y) for y in ys] == expected


class TestSymmetrizerMemo:
    def test_each_label_is_built_once(self, monkeypatch):
        for cache in (
            karoubi._symmetrizer_object,
            karoubi._symmetrizer_decomposition,
            karoubi._dim_simple,
            diagrams._cached_basis,
        ):
            cache.cache_clear()
        built, checked = [], []
        build, check = karoubi._symmetrizer, karoubi.is_idempotent

        def build_spy(flavor, lam):
            y = build(flavor, lam)
            built.append(((flavor, lam), y))
            return y

        def check_spy(f):
            checked.append(f)
            return check(f)

        monkeypatch.setattr(karoubi, "_symmetrizer", build_spy)
        monkeypatch.setattr(karoubi, "is_idempotent", check_spy)
        X = object_of_identity(sig_s(3))
        first = decompose(X)
        after_first = len(built)
        second = decompose(X)
        assert len(built) == after_first
        assert dim_simple((2, 1)) == t * (t - 2) * (t - 4) / 3
        labels = [label for label, _ in built]
        assert labels and len(labels) == len(set(labels))
        assert not any(f is y for f in checked for _, y in built)
        assert first == second
        assert sum(m * m for m in second.values()) == 203  # Bell(6) = dim End([3])


@pytest.mark.slow
def test_dim_simple_full_size_four_row():
    """The whole |lam| = 4 ladder against the hook-length oracle (about 2 s)."""
    from interpcat.selftest import hook_content_dimension

    for lam in partitions_of(4):
        poly = dim_simple(lam)
        assert poly.is_polynomial() and poly.num.degree == 4
        for n in range(4 + lam[0], 13):
            assert poly.eval(n) == hook_content_dimension(lam, n), (lam, n)
