"""Morphism algebra: composition law, trace, duality, basis change."""

import itertools
import random
from fractions import Fraction

import pytest

from interpcat.diagrams import (
    BrauerDiagram,
    PartitionDiagram,
    WalledDiagram,
    brauer_diagram,
    closure_components,
    compose_diagrams,
    enumerate_basis,
    identity_diagram,
    partition_diagram,
    tensor_diagram,
    walled_diagram,
)
from interpcat.homspaces import (
    Morphism,
    ObjectSignature,
    as_signature,
    compose,
    coev,
    delta_to_e,
    diagram_morphism,
    dimension,
    e_to_delta,
    ev,
    hom_basis,
    identity,
    morphism_from_json,
    morphism_to_json,
    sig_gl,
    sig_o,
    sig_s,
    sp_dimension,
    sp_trace,
    swap,
    tensor,
    trace,
    zero_morphism,
)
from interpcat.karoubi import bipartition_symmetrizer, promote, young_symmetrizer
from interpcat.ratfunc import RF_ONE, RF_T, Poly, RatFunc, t_power
from interpcat.selftest import random_morphism

t = RF_T

PI = partition_diagram(1, 1, [(1,), (-1,)])
WORKED_P = partition_diagram(3, 6, [(1, 3, -2), (2, -4, -5), (-1,), (-3, -6)])
WORKED_Q = partition_diagram(6, 2, [(1, 3), (2, -2), (4, -1), (5,), (6,)])


class TestCompose:
    def test_worked_pair_gives_t_times_composite(self):
        out = compose(diagram_morphism(WORKED_Q), diagram_morphism(WORKED_P))
        composite = partition_diagram(3, 2, [(1, 3, -2), (2, -1)])
        assert out.terms == {composite: t}

    def test_cup_cap_relation(self):
        e = diagram_morphism(walled_diagram((1, 1), (1, 1), [(1, 2), (-1, -2)]))
        assert compose(e, e) == e.scale(t)

    def test_identity_neutral(self):
        rng = random.Random(7)
        for flavor, sig in [("S", sig_s(2)), ("O", sig_o(2)), ("GL", sig_gl(1, 1))]:
            f = random_morphism(rng, sig, sig)
            assert compose(identity(sig), f) == f
            assert compose(f, identity(sig)) == f

    def test_signature_mismatch(self):
        with pytest.raises(ValueError):
            compose(diagram_morphism(WORKED_P), diagram_morphism(WORKED_P))

    def test_bilinearity(self):
        a = diagram_morphism(PI, 3)
        b = identity(sig_s(1)).scale(RatFunc(2))
        g = diagram_morphism(PI)
        lhs = compose(a + b, g)
        assert lhs == compose(a, g) + compose(b, g)


class TestTensor:
    def test_identity_tensor(self):
        assert tensor(identity(sig_s(1)), identity(sig_s(1))) == identity(sig_s(2))

    def test_bilinear_scalars(self):
        a = diagram_morphism(PI).scale(RatFunc(2))
        b = identity(sig_s(1)).scale(RatFunc(3))
        out = tensor(a, b)
        (coeff,) = out.terms.values()
        assert coeff == RatFunc(6)

    def test_unit_object(self):
        f = diagram_morphism(WORKED_P)
        assert tensor(f, identity(sig_s(0))) == f

    def test_flavor_mismatch(self):
        with pytest.raises(ValueError):
            tensor(diagram_morphism(PI), identity(sig_o(1)))


class TestTraceDimension:
    def test_dim_powers(self):
        for m in range(6):
            assert dimension(sig_s(m)) == t_power(m)
            assert dimension(sig_o(m)) == t_power(m)
        for r in range(3):
            for s in range(3):
                assert dimension(sig_gl(r, s)) == t_power(r + s)

    def test_trace_pi(self):
        assert trace(diagram_morphism(PI)) == t

    def test_trace_swap(self):
        assert trace(swap(sig_s(1), sig_s(1))) == t

    def test_trace_needs_endo(self):
        with pytest.raises(ValueError):
            trace(diagram_morphism(WORKED_P))

    def test_sp_alias(self):
        assert sp_dimension(1) == -t
        assert sp_dimension(2) == t * t
        e = diagram_morphism(brauer_diagram(2, 2, [(1, 2), (-1, -2)]))
        assert sp_trace(e) == -t

    def test_trace_at_zero_convention(self):
        # only the empty diagram survives evaluation at t = 0
        assert trace(identity(sig_s(0))).eval(0) == 1
        assert trace(identity(sig_s(1))).eval(0) == 0


class TestDuality:
    def test_ev_coev_loop(self):
        out = compose(ev(sig_s(1)), coev(sig_s(1)))
        assert out == identity(sig_s(0)).scale(t)

    def test_gl_ev_swap_coev(self):
        s10 = sig_gl(1, 0)
        out = compose(ev(s10), compose(swap(s10, s10.dual()), coev(s10)))
        assert out == identity(sig_gl(0, 0)).scale(t)

    def test_zigzag_all_flavors(self):
        for sig in [sig_s(1), sig_s(3), sig_o(2), sig_gl(1, 1), sig_gl(2, 1)]:
            lhs = compose(
                tensor(identity(sig), ev(sig)), tensor(coev(sig), identity(sig))
            )
            assert lhs == identity(sig), sig

    def test_dual_signatures(self):
        assert sig_gl(2, 1).dual() == sig_gl(1, 2)
        assert sig_s(3).dual() == sig_s(3)

    def test_swap_on_unit(self):
        m = swap(sig_s(0), sig_s(2))
        assert m == identity(sig_s(2))

    def test_o_gl_ev_coev_diagrams(self):
        one = "(1)/(1) * "
        cases = [
            (sig_o(0), "B[0->0: ]", "B[0->0: ]"),
            (sig_o(1), "B[2->0: {1, 2}]", "B[0->2: {1', 2'}]"),
            (sig_o(2), "B[4->0: {1, 3}, {2, 4}]", "B[0->4: {1', 3'}, {2', 4'}]"),
            (sig_gl(0, 0), "W[(0, 0)->(0, 0): ]", "W[(0, 0)->(0, 0): ]"),
            (sig_gl(1, 0), "W[(1, 1)->(0, 0): {1, 2}]", "W[(0, 0)->(1, 1): {1', 2'}]"),
            (sig_gl(0, 1), "W[(1, 1)->(0, 0): {1, 2}]", "W[(0, 0)->(1, 1): {1', 2'}]"),
            (sig_gl(1, 1), "W[(2, 2)->(0, 0): {1, 4}, {2, 3}]",
             "W[(0, 0)->(2, 2): {1', 4'}, {2', 3'}]"),
            (sig_gl(2, 0), "W[(2, 2)->(0, 0): {1, 4}, {2, 3}]",
             "W[(0, 0)->(2, 2): {1', 4'}, {2', 3'}]"),
            (sig_gl(0, 2), "W[(2, 2)->(0, 0): {1, 4}, {2, 3}]",
             "W[(0, 0)->(2, 2): {1', 4'}, {2', 3'}]"),
        ]
        for sig, ev_str, coev_str in cases:
            assert str(ev(sig)) == one + ev_str, sig
            assert str(coev(sig)) == one + coev_str, sig

    def test_o_gl_swap_diagrams(self):
        one = "(1)/(1) * "
        cases = [
            (sig_o(0), sig_o(1), "B[1->1: {1, 1'}]"),
            (sig_o(1), sig_o(1), "B[2->2: {1, 2'}, {2, 1'}]"),
            (sig_o(2), sig_o(1), "B[3->3: {1, 2'}, {2, 3'}, {3, 1'}]"),
            (sig_o(1), sig_o(2), "B[3->3: {1, 3'}, {2, 1'}, {3, 2'}]"),
            (sig_o(2), sig_o(2), "B[4->4: {1, 3'}, {2, 4'}, {3, 1'}, {4, 2'}]"),
            (sig_gl(0, 0), sig_gl(1, 1), "W[(1, 1)->(1, 1): {1, 1'}, {2, 2'}]"),
            (sig_gl(1, 0), sig_gl(0, 1), "W[(1, 1)->(1, 1): {1, 1'}, {2, 2'}]"),
            (sig_gl(1, 1), sig_gl(1, 0), "W[(2, 1)->(2, 1): {1, 2'}, {2, 1'}, {3, 3'}]"),
            (sig_gl(2, 0), sig_gl(0, 2),
             "W[(2, 2)->(2, 2): {1, 1'}, {2, 2'}, {3, 3'}, {4, 4'}]"),
            (sig_gl(1, 1), sig_gl(1, 1),
             "W[(2, 2)->(2, 2): {1, 2'}, {2, 1'}, {3, 4'}, {4, 3'}]"),
        ]
        for a, b, want in cases:
            assert str(swap(a, b)) == one + want, (a, b)


# The GL code that one color-by-color row merge replaced, kept as references.


def reference_tensor(p, q):
    """q's endpoints shifted past p's (S, O), or interleaved past p's block
    of each color (GL)."""
    if p.flavor != "GL":
        blocks = list(p._blocks) + [
            tuple(x + p.top if x > 0 else x - p.bottom for x in b) for b in q._blocks
        ]
        build = partition_diagram if p.flavor == "S" else brauer_diagram
        return build(p.top + q.top, p.bottom + q.bottom, blocks)
    (pr1, ps1), (pr2, ps2) = p.source, p.target
    (qr1, qs1), (qr2, qs2) = q.source, q.target

    def p_map(x):
        if x > 0:
            return x if x <= pr1 else x + qr1
        return -(-x if -x <= pr2 else -x + qr2)

    def q_map(x):
        if x > 0:
            return pr1 + x if x <= qr1 else pr1 + qr1 + ps1 + (x - qr1)
        j = -x
        return -(pr2 + j if j <= qr2 else pr2 + qr2 + ps2 + (j - qr2))

    pairs = [tuple(map(p_map, pr)) for pr in p.pairs] + [tuple(map(q_map, pr)) for pr in q.pairs]
    return walled_diagram((pr1 + qr1, ps1 + qs1), (pr2 + qr2, ps2 + qs2), pairs)


def reference_swap(sig_a, sig_b):
    if sig_a.flavor == "GL":
        (ra, sa), (rb, sb) = sig_a.data, sig_b.data
        pairs = (
            [(i, -(rb + i)) for i in range(1, ra + 1)]
            + [(ra + i, -i) for i in range(1, rb + 1)]
            + [(ra + rb + j, -(rb + ra + sb + j)) for j in range(1, sa + 1)]
            + [(ra + rb + sa + j, -(rb + ra + j)) for j in range(1, sb + 1)]
        )
        d = walled_diagram((ra + rb, sa + sb), (rb + ra, sb + sa), pairs)
    else:
        (a,), (b,) = sig_a.data, sig_b.data
        blocks = [(i, -(b + i)) for i in range(1, a + 1)] + [(a + j, -j) for j in range(1, b + 1)]
        build = partition_diagram if sig_a.flavor == "S" else brauer_diagram
        d = build(a + b, b + a, blocks)
    return diagram_morphism(d)


def reference_dual(sig):
    if sig.flavor == "GL":
        r, s = sig.data
        return ObjectSignature("GL", (s, r))
    return sig


def reference_identity(flavor, data):
    pairs = tuple((i, -i) for i in range(1, sum(data) + 1))
    if flavor == "GL":
        return WalledDiagram(data, data, pairs)
    cls = PartitionDiagram if flavor == "S" else BrauerDiagram
    return cls(data[0], data[0], pairs)


def morphism_repr(f):
    return repr((f.source, f.target, list(f.terms.items())))


# every S and O signature up to 4 and every GL signature up to (3, 3)
MERGE_SIGNATURES = {
    "S": [sig_s(m) for m in range(5)],
    "O": [sig_o(m) for m in range(5)],
    "GL": [sig_gl(r, s) for r in range(4) for s in range(4)],
}


def small_spaces(flavor, n):
    """(source, target) data of every Hom space with at most n endpoints."""
    width = 2 if flavor == "GL" else 1
    for counts in itertools.product(range(n + 1), repeat=2 * width):
        if sum(counts) <= n:
            yield counts[:width], counts[width:]


class TestColorByColorMerge:
    """tensor_diagram, swap, dual and identity_diagram merge rows color by
    color through one kernel for every flavor; each must give what the
    separate S/O and GL code it replaced gave, repr for repr."""

    @pytest.mark.parametrize("flavor", ["S", "O", "GL"])
    def test_swap_dual_identity_match_the_references(self, flavor):
        for a in MERGE_SIGNATURES[flavor]:
            assert repr(a.dual()) == repr(reference_dual(a)), a
            assert repr(identity_diagram(flavor, a.data)) == repr(
                reference_identity(flavor, a.data)
            ), a
            for b in MERGE_SIGNATURES[flavor]:
                assert morphism_repr(swap(a, b)) == morphism_repr(reference_swap(a, b)), (a, b)

    @pytest.mark.parametrize("flavor", ["S", "O", "GL"])
    def test_tensor_matches_the_reference(self, flavor):
        # every pair of basis diagrams with up to 6 endpoints in all
        ds = [d for src, tgt in small_spaces(flavor, 5) for d in enumerate_basis(flavor, src, tgt)]
        size = {d: sum(map(sum, d._signature())) for d in ds}
        pairs = [(p, q) for p in ds for q in ds if size[p] + size[q] <= 6]
        for p, q in pairs:
            assert repr(tensor_diagram(p, q)) == repr(reference_tensor(p, q)), (p, q)
        assert len(pairs) > 100


class TestBasisChange:
    def test_e_pi_in_delta_basis(self):
        merged = partition_diagram(1, 1, [(1, -1)])
        out = e_to_delta(diagram_morphism(PI))
        assert out.terms == {PI: RF_ONE, merged: RF_ONE}

    def test_delta_pi_in_e_basis(self):
        merged = partition_diagram(1, 1, [(1, -1)])
        out = delta_to_e(diagram_morphism(PI))
        assert out.terms == {PI: RF_ONE, merged: -RF_ONE}

    def test_single_block_fixed(self):
        merged = partition_diagram(1, 1, [(1, -1)])
        assert e_to_delta(diagram_morphism(merged)) == diagram_morphism(merged)

    def test_roundtrip_random(self):
        rng = random.Random(3)
        for _ in range(10):
            f = random_morphism(rng, sig_s(rng.randint(0, 2)), sig_s(rng.randint(0, 2)), 3)
            assert delta_to_e(e_to_delta(f)) == f

    def test_rejects_other_flavors(self):
        with pytest.raises(ValueError):
            e_to_delta(identity(sig_o(1)))


class TestWireFormat:
    def test_roundtrip(self):
        rng = random.Random(11)
        for sig in [(sig_s(1), sig_s(2)), (sig_o(1), sig_o(1)), (sig_gl(1, 0), sig_gl(1, 0))]:
            f = random_morphism(rng, *sig, nterms=3)
            blob = morphism_to_json(f)
            assert morphism_from_json(blob) == f

    def test_missing_fields(self):
        with pytest.raises(ValueError, match="source"):
            morphism_from_json({"target": {"flavor": "S", "m": 0}, "terms": []})

    def test_zero_morphism(self):
        z = zero_morphism(sig_s(1), sig_s(1))
        assert morphism_from_json(morphism_to_json(z)) == z

    def test_basis_tag_only_for_s(self):
        blob = morphism_to_json(identity(sig_gl(1, 0)))
        assert "basis" not in blob
        blob = morphism_to_json(identity(sig_s(1)))
        assert blob["basis"] == "e"


class TestAsSignature:
    def test_endpoints(self):
        assert as_signature(2, "S") == sig_s(2)
        assert as_signature((1, 0), "GL") == sig_gl(1, 0)
        assert as_signature(sig_o(3), "S") == ObjectSignature("O", (3,))

    @pytest.mark.parametrize("x, flavor", [(True, "S"), ((True, 0), "GL"), ("2", "O"), (1.0, "S")])
    def test_non_integers_are_refused(self, x, flavor):
        with pytest.raises(ValueError, match="not an integer or a tuple of integers"):
            as_signature(x, flavor)


class TestSignatureData:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: sig_s(True),
            lambda: sig_o(False),
            lambda: sig_gl(1.5, 0),
            lambda: sig_gl(1, True),
            lambda: ObjectSignature("S", [2]),
            lambda: ObjectSignature("GL", [1, 0]),
            lambda: ObjectSignature("S", ("2",)),
            lambda: ObjectSignature("S", (-1,)),
        ],
        ids=["S-bool", "O-bool", "GL-float", "GL-bool", "S-list", "GL-list", "S-str", "S-negative"],
    )
    def test_non_integer_data_is_refused(self, make):
        with pytest.raises(ValueError, match="bad signature data"):
            make()

    def test_booleans_do_not_reach_tensor(self):
        # True == 1 once let S[True] (x) S[1] read as S[2]
        with pytest.raises(ValueError):
            sig_s(True).tensor(sig_s(1))
        assert sig_s(1).tensor(sig_s(1)) == sig_s(2)


class TestHomBasis:
    def test_gl_zero_space(self):
        assert hom_basis(sig_gl(1, 0), sig_gl(0, 1)) == []

    def test_o_parity(self):
        assert hom_basis(sig_o(1), sig_o(2)) == []

    def test_term_validation(self):
        with pytest.raises(ValueError):
            Morphism(sig_s(2), sig_s(2), {PI: RF_ONE})

    @pytest.mark.parametrize(
        "sig, d",
        [
            (sig_s(1), brauer_diagram(1, 1, [(1, -1)])),
            (sig_o(2), identity_diagram("S", (2,))),
            (sig_gl(0, 1), identity_diagram("GL", (1, 0))),
            (sig_gl(1, 2), identity_diagram("GL", (2, 1))),
        ],
        ids=["O-in-S", "S-in-O", "GL-colors-swapped", "GL-colors-swapped-2"],
    )
    def test_diagram_of_another_flavor_or_colors_does_not_fit(self, sig, d):
        # the same data, but another flavor or the colors swapped
        assert sum(d._signature()[0]) == sig.size
        with pytest.raises(ValueError, match="does not fit"):
            Morphism(sig, sig, {d: RF_ONE})

    def test_source_and_target_are_checked_apart(self):
        d = partition_diagram(1, 2, [(1, -1), (-2,)])
        Morphism(sig_s(1), sig_s(2), {d: RF_ONE})
        for source, target in ((sig_s(2), sig_s(2)), (sig_s(1), sig_s(1)), (sig_s(2), sig_s(1))):
            with pytest.raises(ValueError, match="does not fit"):
                Morphism(source, target, {d: RF_ONE})


# ---------------------------------------------------------------------------
# compose and trace against term-by-term Q(t) arithmetic


def reference_compose(f, g):
    """f after g with every product and sum taken in Q(t), term by term."""
    out = {}
    for df, cf in f.terms.items():
        for dg, cg in g.terms.items():
            d, power = compose_diagrams(df, dg)
            out[d] = out.get(d, RatFunc(0)) + cf * cg * t_power(power)
    return Morphism(g.source, f.target, out)


def reference_trace(f):
    total = RatFunc(0)
    for d, c in f.terms.items():
        total = total + c * t_power(closure_components(d))
    return total


def exact_terms(f):
    # repr tells an int coefficient from an integral Fraction
    return [(d, repr(c)) for d, c in f.terms.items()]


def random_coefficient(rng, kind):
    if kind == "int":
        return rng.randint(-4, 4)
    if kind == "fraction" or rng.random() < 0.5:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 12))
    # (a + b t) / (c + t), c >= 1, as in the benchmark's random morphisms
    a, b = rng.randint(-3, 3), rng.choice([-2, -1, 1, 2])
    return RatFunc(Poly((a, b)), Poly((rng.randint(1, 3), 1)))


def random_mixed_morphism(rng, source, target):
    """Up to 4 terms, all ints, all Fractions, or Fractions mixed with
    coefficients that carry t; no terms is the zero morphism."""
    basis = hom_basis(source, target)
    kind = rng.choice(("int", "fraction", "mixed"))
    terms = {}
    for _ in range(rng.randint(0, 4)):
        d = rng.choice(basis)
        terms[d] = terms.get(d, RatFunc(0)) + random_coefficient(rng, kind)
    return Morphism(source, target, terms)


# signatures whose pairwise Hom spaces are all nonzero
CONNECTED_SIGNATURES = {
    "S": [[sig_s(m) for m in range(3)]],
    "O": [[sig_o(0), sig_o(2)], [sig_o(1), sig_o(3)]],
    "GL": [[sig_gl(k, k) for k in range(3)], [sig_gl(1, 0), sig_gl(2, 1)], [sig_gl(0, 1), sig_gl(1, 2)]],
}


class TestClearedArithmetic:
    """compose and trace clear each morphism's constant denominators once
    and divide once; they give the same coefficients, to the type of each
    Poly coefficient, as term-by-term Q(t) arithmetic."""

    def assert_compose_and_trace(self, f, g):
        got, ref = compose(f, g), reference_compose(f, g)
        assert exact_terms(got) == exact_terms(ref)
        if got.source == got.target:
            assert repr(trace(got)) == repr(reference_trace(ref))

    @pytest.mark.parametrize("flavor", ["S", "O", "GL"])
    def test_random_mixed_coefficients(self, flavor):
        rng = random.Random(f"cleared {flavor}")
        for _ in range(60):
            sigs = rng.choice(CONNECTED_SIGNATURES[flavor])
            x, y, z = (rng.choice(sigs) for _ in range(3))
            f, g = random_mixed_morphism(rng, y, z), random_mixed_morphism(rng, x, y)
            self.assert_compose_and_trace(f, g)
            if y == z:
                assert repr(trace(f)) == repr(reference_trace(f))

    def test_idempotents_zero_and_integral_morphisms(self):
        std = identity(sig_s(1)) - diagram_morphism(PI) / t
        idempotents = [
            young_symmetrizer((2, 1)),
            young_symmetrizer((1, 1), "O"),
            bipartition_symmetrizer(((1,), (1,))),
            std,
            promote(std),
            # the promoted GL idempotents carry 1/t
            promote(bipartition_symmetrizer(((1,), ()))),
            promote(bipartition_symmetrizer(((1,), (1,)))),
        ]
        for e in idempotents:
            sig = e.source
            scaled = e * RatFunc(Fraction(-7, 6))
            for g in (e, scaled, identity(sig), identity(sig) * 3, zero_morphism(sig, sig)):
                self.assert_compose_and_trace(e, g)
                self.assert_compose_and_trace(g, e)
            assert repr(trace(e)) == repr(reference_trace(e))
