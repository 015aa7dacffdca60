"""Diagram kernels: canonical forms, composition counts, bases, wire format."""

import ast
import dataclasses
import importlib
import itertools
import json
import pathlib
import pkgutil
import random

import pytest

import interpcat
from interpcat import diagrams, karoubi
from interpcat.diagrams import (
    DIAGRAM_CLASSES,
    basis_size,
    brauer_diagram,
    closure_components,
    coarsenings,
    compose_diagrams,
    diagram_from_json,
    diagram_to_json,
    enumerate_basis,
    flip,
    identity_diagram,
    pairing_table,
    partition_diagram,
    refines,
    tensor_diagram,
    walled_diagram,
)
from interpcat.homspaces import as_signature, swap
from interpcat.partitions import bell_number, double_factorial_odd, partitions_of
from interpcat.semisimplify import MAX_GRAM_BASIS

PI = partition_diagram(1, 1, [(1,), (-1,)])

# the worked composition from the graphical-notation discussion:
# P: [3] -> [6] followed by Q: [6] -> [2]
WORKED_P = partition_diagram(3, 6, [(1, 3, -2), (2, -4, -5), (-1,), (-3, -6)])
WORKED_Q = partition_diagram(6, 2, [(1, 3), (2, -2), (4, -1), (5,), (6,)])
WORKED_RESULT = partition_diagram(3, 2, [(1, 3, -2), (2, -1)])


class TestCanonical:
    def test_identity(self):
        assert partition_diagram(1, 1, [(1, -1)]) == identity_diagram("S", 1)

    def test_canonical_ordering_unique(self):
        a = partition_diagram(3, 6, [(-1,), (2, -4, -5), (-6, -3), (3, -2, 1)])
        assert a == WORKED_P

    def test_empty_diagram(self):
        d = partition_diagram(0, 0, [])
        assert d.blocks == ()

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            partition_diagram(2, 0, [(1, 2), (2,)])

    def test_missing_endpoint_rejected(self):
        with pytest.raises(ValueError):
            partition_diagram(2, 1, [(1, -1)])

    def test_empty_block_rejected(self):
        # an empty block raised IndexError while the blocks were sorted
        with pytest.raises(ValueError, match="partition diagram has an empty block"):
            partition_diagram(1, 1, [(1, -1), ()])
        with pytest.raises(ValueError, match="Brauer diagram blocks must be pairs"):
            brauer_diagram(1, 1, [(), (1, -1)])
        with pytest.raises(ValueError, match="walled diagram blocks must be pairs"):
            walled_diagram((1, 0), (1, 0), [(1, -1), ()])

    def test_identity_needs_data_of_its_flavor(self):
        # identity_diagram builds through _trusted, so it checks the shape
        for flavor, x in [("S", (1, 2)), ("O", (1, 0)), ("GL", 2), ("GL", (1, 1, 1))]:
            with pytest.raises(ValueError, match="does not fit flavor"):
                identity_diagram(flavor, x)

    @pytest.mark.parametrize("build", [enumerate_basis, basis_size])
    def test_bases_need_data_of_their_flavor(self, build):
        # the same check as identity_diagram's: basis_size("S", (1, 2), 1)
        # answered 2, and enumerate_basis failed while unpacking the data
        fits = {"S": 1, "O": 1, "GL": (1, 0)}
        for flavor, x in [("S", (1, 2)), ("O", (1, 0)), ("GL", 1), ("GL", (1, 1, 1))]:
            for source, target in [(x, fits[flavor]), (fits[flavor], x)]:
                with pytest.raises(ValueError, match=f"does not fit flavor {flavor}"):
                    build(flavor, source, target)

    def test_walled_color_rules(self):
        # cross edge must preserve color
        with pytest.raises(ValueError):
            walled_diagram((1, 1), (1, 1), [(1, -2), (2, -1)])
        # same-row edge must mix colors
        with pytest.raises(ValueError):
            walled_diagram((2, 0), (0, 2), [(1, 2), (-1, -2)])
        # the cup-cap endomorphism of [1, 1] is fine
        walled_diagram((1, 1), (1, 1), [(1, 2), (-1, -2)])


class TestValidatedBuilder:
    """Diagram._build checks outside diagrams once, in order: endpoint data,
    pairs for a matching, the cover, the walled color rules.  Each rule has
    one message, whichever constructor or row count breaks it."""

    @pytest.mark.parametrize(
        "build, args, message",
        [
            # the first four were accepted
            (partition_diagram, (-2, 0, []), "object endpoint -2 has a negative count"),
            (brauer_diagram, (True, 1, [(1, -1)]), "object endpoint True is not an integer"),
            (partition_diagram, (1, 1, [(True, -1)]), "partition diagram: endpoint True is not an integer"),
            (walled_diagram, ((-1, 0), (-1, 0), []), r"object endpoint \(-1, 0\) has a negative count"),
            # raised Python's "too many values to unpack"
            (walled_diagram, ((1, 0, 0), (1, 0, 0), [(1, -1)]), "does not fit flavor GL"),
        ],
    )
    def test_endpoint_data(self, build, args, message):
        with pytest.raises(ValueError, match=message):
            build(*args)

    @pytest.mark.parametrize(
        "build, args, message",
        [
            (brauer_diagram, (1, 1, [(1, -1, 2)]), "Brauer diagram blocks must be pairs"),
            (walled_diagram, ((1, 1), (1, 1), [(1, 2, -1), (-2,)]), "walled diagram blocks must be pairs"),
            (partition_diagram, (1, 1, [(1, -1), ()]), "partition diagram has an empty block"),
            (partition_diagram, (2, 1, [(1, -1)]),
             r"partition diagram: endpoints mismatch \(missing \{2\}, extra set\(\)\)"),
            (partition_diagram, (2, 0, [(1, 2), (2,)]), "partition diagram: endpoint 2 appears in two blocks"),
            (walled_diagram, ((2, 0), (0, 2), [(1, 2), (-1, -2)]),
             r"same-row edge \(1, 2\) must join opposite colors"),
            (walled_diagram, ((1, 1), (1, 1), [(1, -2), (2, -1)]),
             r"cross-row edge \(1, -2\) must join equal colors"),
            # an odd O row said "Brauer diagram needs an even number of
            # endpoints", and an unbalanced GL signature "walled diagram
            # signature violates r1 + s2 = r2 + s1"; pairs, cover and colors
            # imply both
            (brauer_diagram, (1, 0, [(1,)]), "Brauer diagram blocks must be pairs"),
            (brauer_diagram, (3, 0, [(1, 2)]), r"Brauer diagram: endpoints mismatch \(missing \{3\}"),
            (walled_diagram, ((1, 0), (0, 0), [(1,)]), "walled diagram blocks must be pairs"),
            (walled_diagram, ((1, 0), (0, 0), []), r"walled diagram: endpoints mismatch \(missing \{1\}"),
            (walled_diagram, ((1, 0), (0, 1), [(1, -1)]),
             r"cross-row edge \(1, -1\) must join equal colors"),
        ],
    )
    def test_one_rule_one_message(self, build, args, message):
        with pytest.raises(ValueError, match=message):
            build(*args)

    @pytest.mark.parametrize(
        "build, args, message",
        [
            # both raised Python's TypeError from the sort of the blocks
            (partition_diagram, (1, 0, [("a",)]), "partition diagram: endpoint 'a' is not an integer"),
            (partition_diagram, (1, 0, [1]), "partition diagram blocks must be iterables of endpoints"),
            (partition_diagram, (1, 0, 5), "partition diagram blocks must be iterables of endpoints"),
            (brauer_diagram, (1, 1, [(1, None)]), "Brauer diagram: endpoint None is not an integer"),
            (walled_diagram, ((1, 0), (1, 0), [(1, -1), None]),
             "walled diagram blocks must be iterables of endpoints"),
            (partition_diagram, (1, 0, [(1.0,)]), "partition diagram: endpoint 1.0 is not an integer"),
        ],
    )
    def test_blocks_are_checked_before_they_are_sorted(self, build, args, message):
        with pytest.raises(ValueError, match=message):
            build(*args)

    def test_json_takes_the_same_checks(self):
        blob = {"flavor": "O", "top": -2, "bottom": 0, "blocks": []}
        with pytest.raises(ValueError, match="object endpoint -2 has a negative count"):
            diagram_from_json(blob)
        with pytest.raises(ValueError, match="Brauer diagram blocks must be pairs"):
            diagram_from_json({**blob, "top": 1, "blocks": [[1]]})


class TestStoredHash:
    """Each diagram stores the hash the dataclass computed from its fields, so
    dict and set orders, repr and equality are as before."""

    @pytest.mark.parametrize(
        "d, fields, text",
        [
            (partition_diagram(2, 1, [(2,), (-1, 1)]), (2, 1, ((1, -1), (2,))),
             "PartitionDiagram(top=2, bottom=1, blocks=((1, -1), (2,)))"),
            (brauer_diagram(1, 1, [(-1, 1)]), (1, 1, ((1, -1),)),
             "BrauerDiagram(top=1, bottom=1, pairs=((1, -1),))"),
            (walled_diagram((1, 1), (1, 1), [(-2, -1), (2, 1)]), ((1, 1), (1, 1), ((1, 2), (-1, -2))),
             "WalledDiagram(source=(1, 1), target=(1, 1), pairs=((1, 2), (-1, -2)))"),
        ],
    )
    def test_value_repr_and_equality(self, d, fields, text):
        assert hash(d) == hash(fields)
        assert repr(d) == text
        twin = type(d)(*fields)
        assert twin == d and hash(twin) == hash(d)
        assert d != type(d)(*fields[:2], ())

    @pytest.mark.parametrize("flavor, data", [("S", (2,)), ("O", (2,)), ("GL", (1, 1))])
    def test_bases_and_composites(self, flavor, data):
        basis = enumerate_basis(flavor, data, data)
        composites = [compose_diagrams(p, q)[0] for p in basis for q in basis]
        for d in basis + composites:
            compared = tuple(getattr(d, f.name) for f in dataclasses.fields(d) if f.compare)
            assert hash(d) == hash(compared)


class TestCompose:
    def test_worked_composition_example(self):
        result, n = compose_diagrams(WORKED_Q, WORKED_P)
        assert result == WORKED_RESULT
        assert n == 1

    def test_identity_composition(self):
        assert compose_diagrams(identity_diagram("S", 2), identity_diagram("S", 2)) == (
            identity_diagram("S", 2),
            0,
        )

    def test_pi_squared(self):
        assert compose_diagrams(PI, PI) == (PI, 1)

    def test_signature_mismatch(self):
        with pytest.raises(ValueError):
            compose_diagrams(WORKED_P, WORKED_P)

    def test_brauer_cup_cap(self):
        e = brauer_diagram(2, 2, [(1, 2), (-1, -2)])
        assert compose_diagrams(e, e) == (e, 1)

    def test_brauer_identity(self):
        e = brauer_diagram(2, 2, [(1, 2), (-1, -2)])
        assert compose_diagrams(identity_diagram("O", 2), e) == (e, 0)

    def test_brauer_swap_involution(self):
        swap = brauer_diagram(2, 2, [(1, -2), (2, -1)])
        assert compose_diagrams(swap, swap) == (identity_diagram("O", 2), 0)

    def test_walled_cup_cap(self):
        e = walled_diagram((1, 1), (1, 1), [(1, 2), (-1, -2)])
        assert compose_diagrams(e, e) == (e, 1)

    def test_walled_identity(self):
        e = walled_diagram((1, 1), (1, 1), [(1, 2), (-1, -2)])
        assert compose_diagrams(e, identity_diagram("GL", (1, 1))) == (e, 0)

    def test_walled_zigzag_chain(self):
        # (id (x) ev) o (coev (x) id) traced at the diagram level on [1, 0]
        coev_id = walled_diagram((1, 0), (2, 1), [(1, -2), (-1, -3)])
        id_ev = walled_diagram((2, 1), (1, 0), [(1, -1), (2, 3)])
        assert compose_diagrams(id_ev, coev_id) == (identity_diagram("GL", (1, 0)), 0)


class TestTensorFlip:
    def test_identity_tensor(self):
        one = identity_diagram("S", 1)
        assert tensor_diagram(one, one) == identity_diagram("S", 2)

    def test_pi_tensor_id(self):
        got = tensor_diagram(PI, identity_diagram("S", 1))
        assert got == partition_diagram(2, 2, [(1,), (-1,), (2, -2)])

    def test_empty_unit(self):
        empty = partition_diagram(0, 0, [])
        assert tensor_diagram(empty, WORKED_P) == WORKED_P

    def test_flip_identity(self):
        assert flip(identity_diagram("S", 3)) == identity_diagram("S", 3)

    def test_flip_mirror(self):
        assert flip(WORKED_P) == partition_diagram(
            6, 3, [(-1, -3, 2), (-2, 4, 5), (1,), (3, 6)]
        )

    def test_flip_involution(self):
        for d in enumerate_basis("S", 2, 1):
            assert flip(flip(d)) == d
        for d in enumerate_basis("GL", (1, 1), (2, 0)):
            assert flip(flip(d)) == d

    def test_flip_brauer(self):
        d = brauer_diagram(2, 4, [(1, -3), (2, -1), (-2, -4)])
        assert flip(d) == brauer_diagram(4, 2, [(1, -2), (2, 4), (3, -1)])

    def test_flip_walled(self):
        d = walled_diagram((2, 1), (1, 0), [(1, -1), (2, 3)])
        assert flip(d) == walled_diagram((1, 0), (2, 1), [(1, -1), (-2, -3)])

    def test_brauer_tensor(self):
        swap = brauer_diagram(2, 2, [(1, -2), (2, -1)])
        cup = brauer_diagram(0, 2, [(-1, -2)])
        assert tensor_diagram(swap, cup) == brauer_diagram(
            2, 4, [(1, -2), (2, -1), (-3, -4)]
        )
        cap = brauer_diagram(2, 0, [(1, 2)])
        strand = brauer_diagram(1, 1, [(1, -1)])
        assert tensor_diagram(cap, strand) == brauer_diagram(3, 1, [(1, 2), (3, -1)])

    def test_gl_tensor_color_sorting(self):
        a = identity_diagram("GL", (1, 1))
        b = identity_diagram("GL", (1, 0))
        out = tensor_diagram(a, b)
        assert out.source == (2, 1)
        # a's black 1 stays at 1, b's black goes to 2, a's white to 3
        assert out.pairs == ((1, -1), (2, -2), (3, -3))


class TestRefinement:
    def test_refinement_example(self):
        finer = partition_diagram(2, 3, [(1, 2), (-1, -3), (-2,)])
        coarser = partition_diagram(2, 3, [(1, 2, -1, -3), (-2,)])
        assert refines(finer, coarser)
        assert not refines(coarser, finer)

    def test_reflexive(self):
        assert refines(WORKED_P, WORKED_P)

    def test_coarser_does_not_refine(self):
        merged = partition_diagram(1, 1, [(1, -1)])
        assert not refines(merged, PI)
        assert refines(PI, merged)

    def test_coarsenings_bell_counts(self):
        assert len(coarsenings(PI)) == bell_number(2)
        three_blocks = partition_diagram(2, 1, [(1,), (2,), (-1,)])
        assert len(coarsenings(three_blocks)) == bell_number(3)
        single = partition_diagram(1, 1, [(1, -1)])
        assert coarsenings(single) == [single]


class TestClosure:
    def test_identity_closure(self):
        for m in range(4):
            assert closure_components(identity_diagram("S", m)) == m

    def test_pi_closure(self):
        assert closure_components(PI) == 1

    def test_swap_closure(self):
        swap = partition_diagram(2, 2, [(1, -2), (2, -1)])
        assert closure_components(swap) == 1

    def test_requires_square(self):
        with pytest.raises(ValueError):
            closure_components(WORKED_P)


class TestBases:
    def test_counts_s(self):
        assert len(enumerate_basis("S", 1, 1)) == 2
        for l, m in [(0, 2), (1, 2), (2, 2)]:
            assert len(enumerate_basis("S", l, m)) == bell_number(l + m)

    def test_counts_o(self):
        assert len(enumerate_basis("O", 2, 2)) == 3
        assert enumerate_basis("O", 1, 2) == []
        assert len(enumerate_basis("O", 3, 3)) == double_factorial_odd(6)

    def test_matching_counts(self):
        # an odd set has no perfect matching, so its count is 0, not a raise
        assert [double_factorial_odd(n) for n in range(8)] == [1, 0, 1, 0, 3, 0, 15, 0]
        for l, m in [(1, 2), (3, 0), (2, 2), (3, 3)]:
            count = double_factorial_odd(l + m)
            assert diagrams.basis_size("O", l, m) == len(enumerate_basis("O", l, m)) == count

    def test_counts_gl(self):
        assert len(enumerate_basis("GL", (1, 1), (1, 1))) == 2
        assert enumerate_basis("GL", (1, 0), (0, 1)) == []
        assert len(enumerate_basis("GL", (2, 1), (2, 1))) == 6

    def test_deterministic_order(self):
        assert enumerate_basis("S", 1, 1) == enumerate_basis("S", 1, 1)


BASIS_SPACES = [("S", 2, 2), ("S", 1, 3), ("O", 2, 4), ("O", 1, 2), ("GL", (2, 1), (1, 0))]


class TestBasisMemo:
    """enumerate_basis is memoized per process; callers get fresh lists."""

    @pytest.mark.parametrize("flavor, source, target", BASIS_SPACES)
    def test_cold_and_warm_match_a_fresh_enumeration(self, flavor, source, target):
        cls = DIAGRAM_CLASSES[flavor]
        data = [(x,) if isinstance(x, int) else x for x in (source, target)]
        fresh = cls._basis(*data)
        diagrams._cached_basis.cache_clear()
        cold = enumerate_basis(flavor, source, target)
        warm = enumerate_basis(flavor, source, target)
        assert cold == warm == fresh
        assert diagrams._cached_basis.cache_info().hits == 1

    @pytest.mark.parametrize("flavor, source, target", BASIS_SPACES)
    def test_mutating_a_result_leaves_the_memo(self, flavor, source, target):
        first = enumerate_basis(flavor, source, target)
        expected = list(first)
        first.append(None)
        first.reverse()
        assert enumerate_basis(flavor, source, target) == expected

    @pytest.mark.parametrize(
        "flavor, source, target",
        [("S", True, 1), ("S", -1, 1), ("O", 2, -2), ("GL", (1, False), (1, 1)), ("GL", (-1, 0), (0, 1))],
    )
    def test_bad_endpoints_raise_every_time_and_cache_nothing(self, flavor, source, target):
        diagrams._cached_basis.cache_clear()
        for _ in range(2):
            with pytest.raises(ValueError):
                enumerate_basis(flavor, source, target)
        assert diagrams._cached_basis.cache_info().currsize == 0


class TestWireFormat:
    def test_roundtrip_all_flavors(self):
        samples = (
            enumerate_basis("S", 2, 1)
            + enumerate_basis("O", 1, 3)
            + enumerate_basis("GL", (1, 1), (2, 0))
        )
        for d in samples:
            blob = json.dumps(diagram_to_json(d))
            assert diagram_from_json(json.loads(blob)) == d

    def test_exact_json_each_flavor(self):
        assert diagram_to_json(partition_diagram(2, 1, [(1, -1), (2,)])) == {
            "flavor": "S", "top": 2, "bottom": 1, "blocks": [[1, -1], [2]],
        }
        assert diagram_to_json(brauer_diagram(2, 2, [(1, 2), (-1, -2)])) == {
            "flavor": "O", "top": 2, "bottom": 2, "blocks": [[1, 2], [-1, -2]],
        }
        assert diagram_to_json(walled_diagram((2, 1), (1, 0), [(1, -1), (2, 3)])) == {
            "flavor": "GL",
            "top": 3,
            "bottom": 1,
            "top_colors": "110",
            "bottom_colors": "1",
            "blocks": [[1, -1], [2, 3]],
        }

    def test_missing_field(self):
        with pytest.raises(ValueError, match="flavor"):
            diagram_from_json({"top": 1, "bottom": 1, "blocks": [[1, -1]]})

    def test_gl_color_strings(self):
        d = walled_diagram((1, 1), (1, 1), [(1, 2), (-1, -2)])
        blob = diagram_to_json(d)
        assert blob["top_colors"] == "10" and blob["bottom_colors"] == "10"
        with pytest.raises(ValueError, match="sorted"):
            diagram_from_json({**blob, "top_colors": "01"})


def _signatures(flavor: str, largest: int) -> list:
    """Every S/O endpoint count up to largest, or GL (r, s) with r, s <= largest."""
    if flavor == "GL":
        return [(r, s) for r in range(largest + 1) for s in range(largest + 1)]
    return list(range(largest + 1))


def _rebuild(d):
    """d built again through its flavor's validated constructor."""
    if d.flavor == "S":
        return partition_diagram(d.top, d.bottom, d.blocks)
    if d.flavor == "O":
        return brauer_diagram(d.top, d.bottom, d.pairs)
    return walled_diagram(d.source, d.target, d.pairs)


class TestTrustedComposition:
    """Composites skip validation, so they must equal validated rebuilds."""

    @pytest.mark.parametrize(
        "flavor, largest, total", [("S", 6, 6), ("O", 4, None), ("GL", 2, None)]
    )
    def test_composites_match_validated_rebuild(self, flavor, largest, total):
        sides = _signatures(flavor, largest)
        pairs = 0
        for k, l, m in itertools.product(sides, repeat=3):
            if total is not None and k + l + m > total:
                continue
            qs = enumerate_basis(flavor, k, l)
            for p in enumerate_basis(flavor, l, m):
                for q in qs:
                    d, _ = compose_diagrams(p, q)
                    rebuilt = _rebuild(d)
                    assert d == rebuilt and hash(d) == hash(rebuilt), (p, q)
                    pairs += 1
        assert pairs > 0

    @staticmethod
    def _color_preserving(flavor: str):
        """(data, images) for every permutation that keeps each color: S and O
        up to 5 strands, GL with r + s <= 4."""
        if flavor != "GL":
            return [((n,), images) for n in range(6)
                    for images in itertools.permutations(range(1, n + 1))]
        return [
            ((r, s), blacks + whites)
            for r in range(5)
            for s in range(5 - r)
            for blacks in itertools.permutations(range(1, r + 1))
            for whites in itertools.permutations(range(r + 1, r + s + 1))
        ]

    @pytest.mark.parametrize("flavor", ["S", "O", "GL"])
    def test_permutations_match_validated_rebuild(self, flavor):
        cls = DIAGRAM_CLASSES[flavor]
        cases = self._color_preserving(flavor)
        for data, images in cases:
            d = cls._permutation(data, images)
            rebuilt = _rebuild(d)
            assert d == rebuilt and hash(d) == hash(rebuilt), (data, images)
            assert d._blocks == tuple((i, -j) for i, j in enumerate(images, 1))
        # sum of n! for n <= 5; sum of r! s! for r + s <= 4
        assert len(cases) == {"S": 154, "O": 154, "GL": 88}[flavor]

    @pytest.mark.parametrize("flavor, largest", [("S", 3), ("O", 3), ("GL", 2)])
    def test_swaps_match_validated_rebuild(self, flavor, largest):
        sides = [as_signature(x, flavor) for x in _signatures(flavor, largest)]
        for a, b in itertools.product(sides, repeat=2):
            (d,) = swap(a, b).terms
            rebuilt = _rebuild(d)
            assert d == rebuilt and hash(d) == hash(rebuilt), (a, b)

    @pytest.mark.parametrize("flavor", ["S", "O", "GL"])
    def test_symmetrizer_terms_match_validated_rebuild(self, flavor):
        if flavor == "GL":
            labels = [(black, white) for n in range(5) for r in range(n + 1)
                      for black in partitions_of(r) for white in partitions_of(n - r)]
        else:
            labels = [lam for n in range(6) for lam in partitions_of(n)]
        terms = 0
        for lam in labels:
            for d in karoubi._symmetrizer(flavor, lam).terms:
                rebuilt = _rebuild(d)
                assert d == rebuilt and hash(d) == hash(rebuilt), (lam, d)
                terms += 1
        assert terms > len(labels)


    @pytest.mark.parametrize("flavor, largest", [("S", 3), ("O", 4), ("GL", 4)])
    def test_tensor_products_match_validated_rebuild(self, flavor, largest):
        # tensor_diagram builds through _trusted after sorting the blocks;
        # every pair of basis diagrams with at most `largest` endpoints each
        if flavor == "GL":
            sides = _signatures(flavor, 2)
            spaces = [(a, b) for a in sides for b in sides if sum(a) + sum(b) <= largest]
        else:
            spaces = [(a, n - a) for n in range(largest + 1) for a in range(n + 1)]
        ds = [d for a, b in spaces for d in enumerate_basis(flavor, a, b)]
        for p in ds:
            for q in ds:
                d = tensor_diagram(p, q)
                rebuilt = _rebuild(d)
                assert d == rebuilt and hash(d) == hash(rebuilt), (p, q)
        assert len(ds) ** 2 == {"S": 841, "O": 361, "GL": 529}[flavor]

    @pytest.mark.parametrize("flavor", ["S", "O", "GL"])
    def test_bases_and_flips_match_validated_rebuild(self, flavor):
        # every space with at most MAX_GRAM_BASIS diagrams: l + m <= 6 for S,
        # l + m <= 8 for O and r1 + s2 <= 5 for GL
        sides = _signatures(flavor, 8 if flavor != "GL" else 5)
        ds = [
            d
            for a, b in itertools.product(sides, repeat=2)
            if basis_size(flavor, a, b) <= MAX_GRAM_BASIS
            for d in enumerate_basis(flavor, a, b)
        ]
        for d in ds + [flip(d) for d in ds]:
            rebuilt = _rebuild(d)
            assert d == rebuilt and hash(d) == hash(rebuilt), d
        assert len(ds) == {"S": 1837, "O": 1069, "GL": 5039}[flavor]

    def test_coarsenings_match_validated_rebuild(self):
        ds = [d for n in range(5) for l in range(n + 1) for d in enumerate_basis("S", l, n - l)]
        found = 0
        for p in ds:
            for coarser in coarsenings(p):
                rebuilt = _rebuild(coarser)
                assert coarser == rebuilt and hash(coarser) == hash(rebuilt), (p, coarser)
                found += 1
        assert found == sum(bell_number(len(p.blocks)) for p in ds)

    def test_derived_diagrams_skip_the_cover_check(self, monkeypatch):
        # _check_cover runs only in Diagram._build: bases, flips, coarsenings,
        # tensor products and composites are built unchecked
        checked = []
        monkeypatch.setattr(diagrams, "_check_cover", lambda *args: checked.append(args))
        diagrams._cached_basis.cache_clear()
        compose_diagrams.cache_clear()
        for flavor, x in [("S", 2), ("O", 2), ("GL", (1, 1))]:
            basis = enumerate_basis(flavor, x, x)
            for p in basis:
                flip(p)
                for q in basis:
                    tensor_diagram(p, q)
                    compose_diagrams(p, q)
        for p in enumerate_basis("S", 2, 1):
            coarsenings(p)
        assert not checked
        # the spy sees a validated build
        partition_diagram(1, 0, [(1,)])
        assert len(checked) == 1


class TestTrustedBuilders:
    """_trusted skips every check, so only the diagram kernels reach it, and
    _permutation, which trusts its caller to keep each color, serves diagrams
    and the y_lam builder alone.  Outside input cannot take that path: it
    goes through Diagram._build, the one place that checks the cover."""

    @staticmethod
    def _references(module: str, source: str, name: str) -> set[tuple[str, str]]:
        """(module.scope, receiver) for every use of name, as an attribute or
        a bare name; the receiver is the dotted text before the attribute."""
        found = set()

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    visit(child, scope + [child.name])
                    continue
                if isinstance(child, ast.Attribute) and child.attr == name:
                    found.add((".".join([module, *scope]), ast.unparse(child.value)))
                elif isinstance(child, ast.Name) and child.id == name:
                    found.add((".".join([module, *scope]), ""))
                visit(child, scope)

        visit(ast.parse(source), [])
        return found

    def _package_references(self, name: str) -> set[tuple[str, str]]:
        found = set()
        for path in sorted(pathlib.Path(interpcat.__file__).parent.glob("*.py")):
            if path.name != "diagrams.py":
                found |= self._references(path.stem, path.read_text(), name)
        return found

    def test_only_diagrams_build_trusted(self):
        # KaroubiObject._trusted is another method: an object around a y_lam
        assert self._package_references("_trusted") == {
            ("karoubi._symmetrizer_object", "KaroubiObject")
        }

    def test_only_the_symmetrizer_builds_permutations(self):
        assert self._package_references("_permutation") == {
            ("karoubi._symmetrizer", "DIAGRAM_CLASSES[flavor]")
        }

    def test_karoubi_places_no_endpoints_by_hand(self):
        # promotion and special_p place generators beside identities
        # (tensor_diagram); the generators themselves are module constants.
        # permutation_morphism validates the sigma its caller gives, and the
        # tests use it as the reference for the y_lam terms.
        source = pathlib.Path(karoubi.__file__).read_text()
        in_functions = {
            (scope, name)
            for name in ("_build", "partition_diagram", "brauer_diagram", "walled_diagram")
            for scope, _ in self._references("karoubi", source, name)
            if scope != "karoubi"
        }
        assert in_functions == {("karoubi.permutation_morphism", "_build")}

    def test_only_the_validated_builder_checks_the_cover(self):
        source = pathlib.Path(diagrams.__file__).read_text()
        found = self._references("diagrams", source, "_check_cover")
        assert found | self._package_references("_check_cover") == {("diagrams.Diagram._build", "")}

    def test_validated_builds_outside_diagrams(self):
        assert {scope for scope, _ in self._package_references("_build")} == {
            "homspaces._ev_diagram",
            "karoubi.permutation_morphism",
        }

    def test_derived_diagrams_build_unchecked(self):
        # the three public constructors wrap Diagram._build, and only JSON
        # reaches either inside diagrams: _basis, _flip, _tensor, _compose,
        # _permutation and coarsenings_with_moebius build through _trusted
        source = pathlib.Path(diagrams.__file__).read_text()
        found = {
            scope
            for name in ("_build", "partition_diagram", "brauer_diagram", "walled_diagram")
            for scope, _ in self._references("diagrams", source, name)
        }
        assert found == {
            "diagrams.Diagram._from_json",
            "diagrams.WalledDiagram._from_json",
            "diagrams.partition_diagram",
            "diagrams.brauer_diagram",
            "diagrams.walled_diagram",
        }

    def test_the_scan_sees_each_form(self):
        source = """
x = D._trusted
def a(cls):
    return cls._trusted(1, 1, [])
class K:
    def b(self):
        return _trusted
"""
        assert self._references("m", source, "_trusted") == {
            ("m", "D"), ("m.a", "cls"), ("m.K.b", "")
        }


class TestPairingTable:
    @staticmethod
    def _reference(f, g) -> int:
        d, middle = compose_diagrams(f, g)
        return middle + closure_components(d)

    @pytest.mark.parametrize("flavor, total", [("S", 6), ("O", 8), ("GL", 4)])
    def test_matches_composition_and_closure(self, flavor, total):
        if flavor == "GL":
            sides = [(r, s) for r in range(total + 1) for s in range(total + 1 - r)]
            spaces = itertools.product(sides, repeat=2)
        else:
            spaces = ((l, n - l) for n in range(total + 1) for l in range(n + 1))
        entries = 0
        for l, m in spaces:
            fs, gs = enumerate_basis(flavor, l, m), enumerate_basis(flavor, m, l)
            table = pairing_table(fs, gs)
            assert table == [bytes(self._reference(f, g) for g in gs) for f in fs], (l, m)
            entries += len(fs) * len(gs)
        assert entries > 0

    @pytest.mark.parametrize(
        "flavor, source, target", [("S", 2, 3), ("O", 2, 4), ("GL", (2, 1), (2, 1))]
    )
    def test_matches_the_per_pair_union_find(self, flavor, source, target):
        # each entry resumes from the roots of f's row; merging f's and g's
        # blocks in one _components call gives the same counts
        fs, gs = enumerate_basis(flavor, source, target), enumerate_basis(flavor, target, source)
        l, m = (sum(data) for data in fs[0]._signature())

        def entry(f, g) -> int:
            layers = [(f._blocks, -1, l - 1), (g._blocks, l - 1, -1)]
            return len(set(diagrams._components(l + m, layers)))

        per_pair = [bytes(entry(f, g) for g in gs) for f in fs]
        assert pairing_table(fs, gs) == per_pair

    def test_worked_trace(self):
        # Tr(pi o pi) = t^2: both singletons close into their own component
        assert pairing_table([PI, identity_diagram("S", 1)], [PI]) == [b"\x02", b"\x01"]

    def test_empty_rows_and_columns(self):
        assert pairing_table([], enumerate_basis("S", 1, 1)) == []
        assert pairing_table(enumerate_basis("O", 1, 2), []) == []
        assert pairing_table([partition_diagram(0, 0, [])], [partition_diagram(0, 0, [])]) == [
            b"\x00"
        ]

    def test_mismatched_signatures_raise(self):
        fs = enumerate_basis("S", 2, 1)
        with pytest.raises(ValueError, match="cannot pair"):
            pairing_table(fs, enumerate_basis("S", 2, 1))
        with pytest.raises(ValueError, match="cannot pair"):
            pairing_table(fs + enumerate_basis("S", 1, 2), enumerate_basis("S", 1, 2))
        with pytest.raises(ValueError, match="cannot pair"):
            pairing_table(
                enumerate_basis("GL", (1, 1), (1, 1)), enumerate_basis("GL", (2, 0), (2, 0))
            )

    def test_mixed_flavors_raise(self):
        with pytest.raises(TypeError):
            pairing_table(enumerate_basis("S", 1, 1), enumerate_basis("O", 1, 1))


class TestComponentsStart:
    """_components resumes from the roots of an earlier call."""

    @staticmethod
    def _random_blocks(rng: random.Random, top: int, bottom: int) -> list[list[int]]:
        """A random set partition of the endpoints of [top] -> [bottom], in
        blocks of 1 to 3 endpoints."""
        endpoints = list(range(1, top + 1)) + [-j for j in range(1, bottom + 1)]
        rng.shuffle(endpoints)
        blocks = []
        while endpoints:
            size = rng.randint(1, 3)
            blocks.append(endpoints[:size])
            endpoints = endpoints[size:]
        return blocks

    def test_resumed_roots_equal_one_call(self):
        rng = random.Random("components start")
        for _ in range(300):
            top, bottom = rng.randint(0, 6), rng.randint(0, 6)
            n = top + bottom
            # a's rows as in pairing_table's f, b's as in its g; c merges a's again
            a = (self._random_blocks(rng, top, bottom), -1, top - 1)
            b = (self._random_blocks(rng, bottom, top), top - 1, -1)
            c = (self._random_blocks(rng, top, bottom), -1, top - 1)
            roots = diagrams._components(n, [a])
            start = list(roots)
            assert diagrams._components(n, [b], roots) == diagrams._components(n, [a, b])
            assert diagrams._components(n, [b, c], roots) == diagrams._components(n, [a, b, c])
            assert roots == start


def _random_pairs(flavor: str, rng: random.Random, count: int) -> list:
    """count composable (p, q) pairs of random diagrams, q: [k] -> [l], p: [l] -> [m]."""
    sides = _signatures(flavor, 2 if flavor == "GL" else 3)
    out = []
    while len(out) < count:
        k, l, m = (rng.choice(sides) for _ in range(3))
        qs, ps = enumerate_basis(flavor, k, l), enumerate_basis(flavor, l, m)
        if qs and ps:
            out.append((rng.choice(ps), rng.choice(qs)))
    return out


@pytest.mark.parametrize("flavor", ["S", "O", "GL"])
class TestCompositionMemo:
    """compose_diagrams memoizes the kernel for the process and interns its composites."""

    def test_memo_returns_what_the_kernel_computes(self, flavor):
        pairs = _random_pairs(flavor, random.Random(f"memo {flavor}"), 80)
        fresh = [p._compose(q) for p, q in pairs]
        compose_diagrams.cache_clear()
        cold = [compose_diagrams(p, q) for p, q in pairs]
        warm = [compose_diagrams(p, q) for p, q in pairs]
        assert cold == fresh and warm == fresh
        assert compose_diagrams.cache_info().hits >= len(pairs)
        compose_diagrams.cache_clear()
        assert [compose_diagrams(p, q) for p, q in pairs] == fresh

    def test_equal_composites_are_one_object(self, flavor):
        pairs = _random_pairs(flavor, random.Random(f"intern {flavor}"), 80)
        first: dict = {}
        for clear in (False, True):
            if clear:
                compose_diagrams.cache_clear()
            for p, q in pairs:
                d, _ = compose_diagrams(p, q)
                assert first.setdefault(d, d) is d, (p, q)
        assert len(first) < len(pairs)

    def test_failed_calls_raise_every_time(self, flavor):
        # S[2] and O[2] identities have equal fields and hashes but differ in type
        d = identity_diagram(flavor, (1, 1) if flavor == "GL" else 2)
        stranger = identity_diagram("O" if flavor == "S" else "S", 2)
        wide = identity_diagram(flavor, (2, 1) if flavor == "GL" else 4)
        compose_diagrams.cache_clear()
        for _ in range(3):
            for p, q in ((d, stranger), (stranger, d)):
                with pytest.raises(TypeError, match="different flavors"):
                    compose_diagrams(p, q)
            with pytest.raises(ValueError, match="cannot compose"):
                compose_diagrams(d, wide)
        assert compose_diagrams.cache_info().currsize == 0


# lru_caches left unbounded, each with why its keys stay few
UNBOUNDED_CACHES = {
    "interpcat.karoubi._dim_simple": "keys are normalized labels within _SIZE_BUDGET",
    "interpcat.partitions.partitions_of": "one key per n, bounded by the input size",
}


class TestBoundedCaches:
    def test_every_lru_cache_has_a_finite_maxsize(self):
        sizes = {}
        for info in pkgutil.iter_modules(interpcat.__path__, "interpcat."):
            if info.name == "interpcat.__main__":
                continue  # importing it runs the CLI
            module = importlib.import_module(info.name)
            for obj in vars(module).values():
                members = list(vars(obj).values()) if isinstance(obj, type) else []
                for f in [obj] + members:
                    if hasattr(f, "cache_parameters") and f.__module__ == info.name:
                        sizes[f"{info.name}.{f.__qualname__}"] = f.cache_parameters()["maxsize"]
        assert sizes["interpcat.diagrams.compose_diagrams"] == 1 << 16
        assert sizes["interpcat.diagrams._cached_basis"] == 128
        assert sizes["interpcat.karoubi._symmetrizer_object"] == 256
        assert {name for name, size in sizes.items() if size is None} == set(UNBOUNDED_CACHES)


# Functions outside diagrams that compare a flavor with a string literal, and
# why the mathematics or the wire format differs there.  Everything else that
# differs between the flavors lives on the diagram classes.
FLAVOR_BRANCHES = {
    "cli._label": "a GL label is a {black, white} object, an S or O label one array",
    "cli._label_to_json": "the same label shapes, written back",
    "cli._endpoint": "a GL endpoint is an [r, s] pair, an S or O endpoint one integer",
    "cli.cmd_dim": "GL takes --r and --s, S and O --m; Sp is the O value at -t",
    "cli.cmd_gram": "the report writes an S or O endpoint as an integer, GL as a pair",
    "cli.cmd_trace": "Sp is a trace-level alias of O with t -> -t",
    "cli.cmd_hc_stable": "gl takes nu and nubar and checks against mult-gl, osp one nu",
    "homspaces.sp_trace": "Rep(O_t) ~ Rep(Sp_-t) holds at the trace level only",
    "homspaces._change_basis": "only S has the delta basis of strict partition orbits",
    "homspaces.morphism_to_json": "only S morphisms carry the e/delta basis tag",
    "homspaces._ev_diagram": "GL nests its arcs, each joining a black to a white; S and O "
    "keep parallel arcs",
    "homspaces.signature_to_json": "the wire format names GL counts r and s, S and O m",
    "homspaces.signature_from_json": "the same field names, read back",
    "karoubi.promote": "S promotes by its Frobenius generators, GL by its cup and cap; O has none",
    "karoubi._parts": "a GL label is a (black, white) pair of partitions",
    "karoubi._normalize_label": "the same label shapes",
    "karoubi._label_data": "the same label shapes, normalized, so that _parts does not check them again",
    "oracle.diagram_matrix": "only S has the strict delta matrices",
    "selftest._random_sig": "random GL data is a pair, S and O data one count",
    "selftest.check_composition_associativity": "random O rows need even sums, GL rows are "
    "pairs",
    "symfun._hc_sum": "gl and osp fix the arm weight and the LR term "
    "differently",
    "symfun.MomentSequence.__post_init__": "osp moments vanish in odd degree",
    "symfun.char_difference_forward": "osp takes no c parameters and has no odd moments",
    "symfun.search_decomposition": "osp searches take s = 0 and skip the odd moments",
}


def _names_a_flavor(node) -> bool:
    if isinstance(node, ast.Subscript):  # obj["flavor"]
        return isinstance(node.slice, ast.Constant) and node.slice.value == "flavor"
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
    return name.endswith("flavor")


def _is_string_literal(node) -> bool:
    nodes = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return bool(nodes) and all(
        isinstance(x, ast.Constant) and isinstance(x.value, str) for x in nodes
    )


def _flavor_branches(module: str, source: str) -> set[str]:
    """module.function for every comparison of a flavor with a string literal."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Compare):
                operands = [child.left, *child.comparators]
                if any(map(_names_a_flavor, operands)) and any(map(_is_string_literal, operands)):
                    found.add(".".join([module, *scope]))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


class TestFlavorBranches:
    def test_only_the_listed_functions_branch_on_a_flavor(self):
        found = set()
        for path in sorted(pathlib.Path(interpcat.__file__).parent.glob("*.py")):
            if path.name != "diagrams.py":
                found |= _flavor_branches(path.stem, path.read_text())
        assert found == set(FLAVOR_BRANCHES)

    def test_the_merged_rows_have_no_branch(self):
        # the braiding, the dual and the signature shape come from the
        # diagram classes, not from a GL branch
        merged = {"homspaces.swap", "homspaces.ObjectSignature.dual",
                  "homspaces.ObjectSignature.__post_init__"}
        assert not merged & set(FLAVOR_BRANCHES)

    def test_the_scan_sees_each_form(self):
        source = """
def a(sig):
    return sig.flavor == "GL"
def b(obj):
    return "S" != obj["flavor"]
def c(flavor):
    return flavor in ("S", "O")
class K:
    def d(self, other):
        return self.flavor != "O" or other == "GL" or self.flavor == other.flavor
def e(x):
    return x == "GL"
"""
        assert _flavor_branches("m", source) == {"m.a", "m.b", "m.c", "m.K.d"}
