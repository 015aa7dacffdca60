"""Diagram kernels for the three flavors of interpolation category.

Endpoint encoding, shared by every flavor: a diagram from [l] to [m] has
source endpoints +1..+l (the unprimed row in the usual pictures) and target
endpoints -1..-m (the primed row).  All diagrams are immutable and canonical,
so they can serve as dict keys for sparse morphisms.

Flavors:

  PartitionDiagram  -- set partition of the l+m endpoints (S flavor)
  BrauerDiagram     -- perfect matching of the l+m endpoints (O flavor)
  WalledDiagram     -- perfect matching with black/white colors (GL flavor);
                       cross-row edges join equal colors, same-row edges join
                       opposite colors

Per-flavor behaviour lives on these classes and nowhere else: each carries
the kernels that differ as private methods (_signature, _to_json,
_check_colors) and classmethods (_trusted, _basis, _basis_size, _from_json,
_labels), its _kind for messages, _pairs for a matching, and _colors, the
length of its signature data: (m,) for S and O, the Diagram default, and
(r, s) for GL, blacks then whites on each row.  Entry points keyed by a
flavor string look the class up (_diagram_class).  _endpoint is the one
check of signature data, with one message per malformed shape: the entry
points here that take endpoints, homspaces.ObjectSignature (and so
as_signature and signature JSON) and the CLI's endpoint flags all use it.

Diagram._build is the one validated constructor, for outside input: the
three public constructors, JSON, and the diagrams homspaces and karoubi
place by hand.  It checks the endpoint data (_endpoint), checks that each
block is iterable and each endpoint an integer (_integer_blocks), sorts the
blocks (_canonical_blocks), then checks pairs, the cover (_check_cover) and
the color rules (_check_colors).  Every other kernel is written once, on
Diagram, and builds what it derives from valid diagrams through _trusted,
which neither sorts nor validates; tests pin each such build to its
validated rebuild.  The union-find (_components), the S and O bases and
_permutation (behind _identity, _braiding and every Young symmetrizer term)
emit canonical blocks (sources ascending before targets, each block keyed
by its least endpoint); _tensor, _flip, the GL basis and
coarsenings_with_moebius sort theirs (_canonical_blocks).  _tensor and
_braiding merge two rows color by color (_merge_rows), and _tensor builds
each map of karoubi's promotion: a generator beside identities.  _compose
and _closure run on one union-find: a matching is a set partition whose
blocks have size 2, with the same composition law.

pairing_table runs the same union-find over the closed picture of f glued
to g, and counts its components, the exponent of t in Tr(f o g), without
building the composite: f's blocks are merged once per row, and each column
resumes from those roots with g's blocks.  _row_transpositions gives, for
each swap of two adjacent endpoints of one row and one color, the
permutation it makes of a basis and of the basis paired with it, by
relabelling each diagram once and looking up its canonical blocks;
semisimplify uses them to run one union-find row per orbit of a pairing
table.

Composition convention: compose_diagrams(p, q) is "p after q" -- q maps
[k] -> [l], p maps [l] -> [m], and the second return value is the exponent
of t produced by components lying in the middle row only, which for
matchings (GL, O) are the closed loops.

compose_diagrams, the one composition kernel, is memoized for the process
(lru_cache of 1 << 16 pairs; see compose_diagrams.cache_info()).  A hit
returns what the kernel computed, so results stay exact, and each composite
goes through the bounded _interned, so equal composites share one object.
enumerate_basis is memoized the same way (lru_cache of 128 bases), and
returns a fresh list of the shared diagrams on every call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from interpcat.partitions import bell_number, double_factorial_odd, is_int, partitions_of


def _endpoint_key(x: int) -> tuple[int, int]:
    # sources sort before targets; each row ascending
    return (0, x) if x > 0 else (1, -x)


def _canonical_blocks(blocks: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    bs = [tuple(sorted(b, key=_endpoint_key)) for b in blocks]
    # an empty block sorts last, for _check_cover to refuse
    bs.sort(key=lambda b: _endpoint_key(b[0]) if b else (2, 0))
    return tuple(bs)


def _integer_blocks(blocks, kind: str) -> list[tuple[int, ...]]:
    """The blocks as tuples, once each is iterable and each endpoint an
    integer, so that sorting them cannot raise TypeError."""
    try:
        blocks = [tuple(b) for b in blocks]
    except TypeError:
        raise ValueError(f"{kind} blocks must be iterables of endpoints") from None
    for x in itertools.chain.from_iterable(blocks):
        if not is_int(x):
            raise ValueError(f"{kind}: endpoint {x!r} is not an integer")
    return blocks


def _check_cover(blocks: Sequence[Sequence[int]], top: int, bottom: int, kind: str):
    expected = set(range(1, top + 1)) | {-j for j in range(1, bottom + 1)}
    seen: set[int] = set()
    for b in blocks:
        if not b:
            raise ValueError(f"{kind} has an empty block")
        for x in b:
            if x in seen:
                raise ValueError(f"{kind}: endpoint {x} appears in two blocks")
            seen.add(x)
    if seen != expected:
        missing = expected - seen
        extra = seen - expected
        raise ValueError(f"{kind}: endpoints mismatch (missing {missing}, extra {extra})")


def _pretty(block: Iterable[int]) -> str:
    return "{" + ", ".join(str(x) if x > 0 else f"{-x}'" for x in block) + "}"


def _components(
    n: int,
    layers: Iterable[tuple[Iterable[Sequence[int]], int, int]],
    start: Sequence[int] | None = None,
) -> list[int]:
    """Union-find over the nodes 0..n-1.

    layers holds (blocks, source_offset, target_offset) triples: endpoint +i
    of a block is node source_offset + i, endpoint -j is node target_offset + j.
    Merges the nodes of every block and returns the root of every node, the
    least node of its component.  start, the roots returned by an earlier
    call, resumes from its merges: the result equals one call with the layers
    of both."""
    parent = list(range(n) if start is None else start)
    for blocks, s, t in layers:
        for block in blocks:
            root = -1
            for x in block:
                x = s + x if x > 0 else t - x
                while parent[x] != x:
                    x = parent[x]
                if root < 0 or x == root:
                    root = x
                elif x < root:
                    parent[root] = root = x
                else:
                    parent[x] = root
    # parents precede their children, so one ascending pass reaches the roots
    for x in range(n):
        parent[x] = parent[parent[x]]
    return parent


def _merge_rows(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple, list[int], list[int]]:
    """Two rows, given as endpoint counts per color, merged color by color:
    a's endpoints of each color, then b's.  Returns the merged counts and the
    new places of a's endpoints 1..sum(a) and of b's endpoints 1..sum(b)."""
    new_a, new_b, start = [], [], 0
    for na, nb in zip(a, b):
        new_a += range(start + 1, start + na + 1)
        new_b += range(start + na + 1, start + na + nb + 1)
        start += na + nb
    return tuple(map(sum, zip(a, b))), new_a, new_b


# ---------------------------------------------------------------------------
# the shared kernels


class Diagram:
    """Kernels shared by the three diagram classes, written against their
    `flavor`, `_kind`, `_blocks` (blocks or pairs), `_trusted`, `_signature`."""

    flavor: str
    _colors = 1
    _pairs = False  # a matching: every block is a pair

    # Diagrams are dict keys throughout, so each stores its hash once: the
    # value the generated dataclass hash would give, hash of the compared
    # fields.  Each class binds __hash__ to this method, as a dataclass
    # otherwise replaces it.
    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.top, self.bottom, self._blocks)))

    def __hash__(self) -> int:
        return self._hash

    def _signature(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(source data, target data)."""
        return (self.top,), (self.bottom,)

    @classmethod
    def _trusted(cls, source, target, blocks) -> Diagram:
        """Diagram from blocks known to be valid and canonical: no checks."""
        return cls(source[0], target[0], tuple(map(tuple, blocks)))

    @classmethod
    def _build(cls, source, target, blocks) -> Diagram:
        """The one validated constructor: endpoint data that fits cls,
        iterable blocks of integer endpoints in canonical order, pairs for a
        matching, each endpoint covered once, then the color rule.  Any
        failure is a ValueError."""
        source, target = _endpoint(cls, source), _endpoint(cls, target)
        blocks = _canonical_blocks(_integer_blocks(blocks, cls._kind))
        if cls._pairs and any(len(b) != 2 for b in blocks):
            raise ValueError(f"{cls._kind} blocks must be pairs")
        _check_cover(blocks, sum(source), sum(target), cls._kind)
        d = cls._trusted(source, target, blocks)
        d._check_colors()
        return d

    def _check_colors(self) -> None:
        """The flavor's rule beyond pairs and cover: none for S and O."""

    @classmethod
    def _permutation(cls, data: tuple[int, ...], images: Sequence[int]) -> Diagram:
        """The permutation diagram on data joining +i to -images[i - 1], for
        images that keep each color's endpoints among themselves: unchecked."""
        return cls._trusted(data, data, [(i, -j) for i, j in enumerate(images, 1)])

    @classmethod
    def _identity(cls, data: tuple[int, ...]) -> Diagram:
        return cls._permutation(data, range(1, sum(data) + 1))

    @classmethod
    def _braiding(cls, a: tuple[int, ...], b: tuple[int, ...]) -> Diagram:
        """The braiding A (x) B -> B (x) A of objects with data a and b: each
        endpoint joins its places in the rows A (x) B and B (x) A."""
        data, a_source, b_source = _merge_rows(a, b)
        _, b_target, a_target = _merge_rows(b, a)
        images = [y for _, y in sorted(zip(a_source + b_source, a_target + b_target))]
        return cls._permutation(data, images)

    @classmethod
    def _from_json(cls, obj: dict) -> Diagram:
        return cls._build(obj["top"], obj["bottom"], obj["blocks"])

    def _to_json(self) -> dict:
        """{"flavor": ..., "top": l, "bottom": m, "blocks": [[...]]} with signed ints."""
        source, target = self._signature()
        return {
            "flavor": self.flavor,
            "top": sum(source),
            "bottom": sum(target),
            "blocks": [list(b) for b in self._blocks],
        }

    def _flip(self) -> Diagram:
        source, target = self._signature()
        blocks = _canonical_blocks([-x for x in b] for b in self._blocks)
        return self._trusted(target, source, blocks)

    def _tensor(self, q: Diagram) -> Diagram:
        """Disjoint union, each row merged with q's color by color."""
        (source, p_source, q_source), (target, p_target, q_target) = (
            _merge_rows(a, b) for a, b in zip(self._signature(), q._signature())
        )
        blocks = [
            tuple(new_source[x - 1] if x > 0 else -new_target[-x - 1] for x in block)
            for d, new_source, new_target in ((self, p_source, p_target), (q, q_source, q_target))
            for block in d._blocks
        ]
        return self._trusted(source, target, _canonical_blocks(blocks))

    def _closure(self) -> int:
        source, target = self._signature()
        if source != target:
            raise ValueError("closure needs source and target of equal signature")
        # the closing arc i -- i' makes +i and -i one node
        root = _components(sum(source), [(self._blocks, -1, -1)])
        return len(set(root))

    def _compose(self, q: Diagram) -> tuple[Diagram, int]:
        """self after q, with q: [k] -> [l] and self: [l] -> [m].

        Glues q's target row to self's source row and merges blocks by
        union-find.  Returns (self * q, N): the outer endpoints grouped by
        component, and the number N of components made of middle endpoints
        only (closed loops, for matchings)."""
        q_source, q_target = q._signature()
        p_source, p_target = self._signature()
        if q_target != p_source:
            raise ValueError(
                f"cannot compose: q has target {list(q_target)}, p has source {list(p_source)}"
            )
        k, l, m = sum(q_source), sum(q_target), sum(p_target)
        kl = k + l
        # node ids: 0..k-1 outer sources, k..kl-1 the middle row, kl..kl+m-1 outer targets
        root = _components(kl + m, [(q._blocks, -1, k - 1), (self._blocks, k - 1, kl - 1)])
        outer: dict[int, list[int]] = {}
        for i in range(k):
            outer.setdefault(root[i], []).append(i + 1)
        for j in range(m):
            outer.setdefault(root[kl + j], []).append(-1 - j)
        middle_only = len(set(root[k:kl]).difference(outer))
        return self._trusted(q_source, p_target, outer.values()), middle_only


# ---------------------------------------------------------------------------
# the three flavors


@dataclass(frozen=True)
class PartitionDiagram(Diagram):
    """Set partition of the endpoints of a map [top] -> [bottom]."""

    top: int
    bottom: int
    blocks: tuple[tuple[int, ...], ...]
    _hash: int = field(init=False, repr=False, compare=False)
    __hash__ = Diagram.__hash__

    flavor = "S"
    _kind = "partition diagram"
    _blocks = property(lambda self: self.blocks)

    def __str__(self) -> str:
        return f"P[{self.top}->{self.bottom}: {', '.join(map(_pretty, self.blocks))}]"

    @classmethod
    def _basis(cls, source, target) -> list[PartitionDiagram]:
        """All Bell(l+m) partition diagrams, in restricted-growth order."""
        (l,), (m,) = source, target
        pts = list(range(1, l + 1)) + [-j for j in range(1, m + 1)]
        return [cls._trusted(source, target, blocks) for blocks in _set_partitions_of(pts)]

    @classmethod
    def _basis_size(cls, source, target) -> int:
        return bell_number(source[0] + target[0])

    @classmethod
    def _labels(cls, data) -> list[tuple[int, ...]]:
        """Partitions of every k <= m."""
        (m,) = data
        return [lam for k in range(m + 1) for lam in partitions_of(k)]


@dataclass(frozen=True)
class BrauerDiagram(Diagram):
    """Perfect matching of the endpoints of a map [top] -> [bottom]."""

    top: int
    bottom: int
    pairs: tuple[tuple[int, int], ...]
    _hash: int = field(init=False, repr=False, compare=False)
    __hash__ = Diagram.__hash__

    flavor = "O"
    _kind = "Brauer diagram"
    _pairs = True
    _blocks = property(lambda self: self.pairs)

    def __str__(self) -> str:
        return f"B[{self.top}->{self.bottom}: {', '.join(map(_pretty, self.pairs))}]"

    @classmethod
    def _basis(cls, source, target) -> list[BrauerDiagram]:
        """All (l+m-1)!! matchings; empty when l+m is odd."""
        (l,), (m,) = source, target
        if (l + m) % 2:
            return []
        pts = list(range(1, l + 1)) + [-j for j in range(1, m + 1)]
        return [cls._trusted(source, target, pairs) for pairs in _matchings_of(pts)]

    @classmethod
    def _basis_size(cls, source, target) -> int:
        return double_factorial_odd(source[0] + target[0])

    @classmethod
    def _labels(cls, data) -> list[tuple[int, ...]]:
        """Partitions of m, m - 2, ...: matchings change size in pairs."""
        (m,) = data
        return [lam for k in range(m % 2, m + 1, 2) for lam in partitions_of(k)]


@dataclass(frozen=True)
class WalledDiagram(Diagram):
    """Black/white matching diagram between mixed tensor signatures.

    source = (r1, s1) means r1 black endpoints (V factors) followed by s1
    white endpoints (dual factors) on the source row; likewise target.
    """

    source: tuple[int, int]
    target: tuple[int, int]
    pairs: tuple[tuple[int, int], ...]
    _hash: int = field(init=False, repr=False, compare=False)
    __hash__ = Diagram.__hash__

    flavor = "GL"
    _kind = "walled diagram"
    _colors = 2
    _pairs = True
    _blocks = property(lambda self: self.pairs)

    def color(self, x: int) -> int:
        """1 = black (V), 0 = white (V*), for endpoint +i or -j."""
        if x > 0:
            return 1 if x <= self.source[0] else 0
        return 1 if -x <= self.target[0] else 0

    def __str__(self) -> str:
        return f"W[{self.source}->{self.target}: {', '.join(map(_pretty, self.pairs))}]"

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.source, self.target, self.pairs)))

    def _signature(self):
        return self.source, self.target

    @classmethod
    def _trusted(cls, source, target, pairs) -> WalledDiagram:
        return cls(source, target, tuple(map(tuple, pairs)))

    def _check_colors(self) -> None:
        for a, b in self.pairs:
            same_row = (a > 0) == (b > 0)
            if same_row and self.color(a) == self.color(b):
                raise ValueError(f"same-row edge {(a, b)} must join opposite colors")
            if not same_row and self.color(a) != self.color(b):
                raise ValueError(f"cross-row edge {(a, b)} must join equal colors")

    @classmethod
    def _basis(cls, source, target) -> list[WalledDiagram]:
        """All (r1+s2)! walled diagrams; empty when signatures are incompatible.

        Valid edges always join the set A = {source blacks, target whites} with
        B = {target blacks, source whites}, so diagrams are bijections A -> B.
        """
        (r1, s1), (r2, s2) = source, target
        if r1 + s2 != r2 + s1:
            return []
        side_a = [+i for i in range(1, r1 + 1)] + [-(r2 + j) for j in range(1, s2 + 1)]
        side_b = [-j for j in range(1, r2 + 1)] + [+(r1 + i) for i in range(1, s1 + 1)]
        return [
            cls._trusted(source, target, _canonical_blocks(zip(side_a, perm)))
            for perm in itertools.permutations(side_b)
        ]

    @classmethod
    def _basis_size(cls, source, target) -> int:
        (r1, s1), (r2, s2) = source, target
        return math.factorial(r1 + s2) if r1 + s2 == r2 + s1 else 0

    @classmethod
    def _labels(cls, data) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Bipartitions of sizes (r - i, s - i), smallest total size first."""
        r, s = data
        out = [
            (black, white)
            for i in range(min(r, s), -1, -1)
            for black in partitions_of(r - i)
            for white in partitions_of(s - i)
        ]
        out.sort(key=lambda lab: (sum(lab[0]) + sum(lab[1]), lab))
        return out

    @classmethod
    def _from_json(cls, obj: dict) -> WalledDiagram:
        for field in ("top_colors", "bottom_colors"):
            if field not in obj:
                raise ValueError(f"diagram JSON missing field '{field}'")
        source = _colors_to_signature(obj["top_colors"], "top_colors")
        target = _colors_to_signature(obj["bottom_colors"], "bottom_colors")
        if sum(source) != obj["top"] or sum(target) != obj["bottom"]:
            raise ValueError("color strings disagree with 'top'/'bottom' counts")
        return cls._build(source, target, obj["blocks"])

    def _to_json(self) -> dict:
        (r1, s1), (r2, s2) = self.source, self.target
        out = super()._to_json()
        out["top_colors"] = "1" * r1 + "0" * s1
        out["bottom_colors"] = "1" * r2 + "0" * s2
        return out


DIAGRAM_CLASSES: dict[str, type[Diagram]] = {
    "S": PartitionDiagram,
    "O": BrauerDiagram,
    "GL": WalledDiagram,
}


def _diagram_class(flavor: str) -> type[Diagram]:
    try:
        return DIAGRAM_CLASSES[flavor]
    except (KeyError, TypeError):
        raise ValueError(f"unknown flavor {flavor!r}") from None


# ---------------------------------------------------------------------------
# validated constructors


def partition_diagram(top: int, bottom: int, blocks: Iterable[Iterable[int]]) -> PartitionDiagram:
    """Canonicalize and validate a partition diagram."""
    return PartitionDiagram._build(top, bottom, blocks)


def brauer_diagram(top: int, bottom: int, pairs: Iterable[Iterable[int]]) -> BrauerDiagram:
    return BrauerDiagram._build(top, bottom, pairs)


def walled_diagram(
    source: Sequence[int], target: Sequence[int], pairs: Iterable[Iterable[int]]
) -> WalledDiagram:
    return WalledDiagram._build(source, target, pairs)


def _endpoint(cls: type[Diagram], x) -> tuple[int, ...]:
    """Signature data of an endpoint argument that fits cls, one count per
    color (_colors of them): m -> (m,), (r, s) -> (r, s).  Anything else, a
    boolean or a negative count included, raises ValueError."""
    if is_int(x):
        data = (x,)
    else:
        data = tuple(x) if isinstance(x, (tuple, list)) else None
        if data is None or not all(is_int(v) for v in data):
            raise ValueError(f"object endpoint {x!r} is not an integer or a tuple of integers")
    if min(data, default=0) < 0:
        raise ValueError(f"object endpoint {x!r} has a negative count")
    if len(data) != cls._colors:
        raise ValueError(f"object endpoint {x!r} does not fit flavor {cls.flavor}")
    return data


def identity_diagram(flavor: str, x) -> Diagram:
    """The identity diagram of [m] (S, O) or [r, s] (GL)."""
    cls = _diagram_class(flavor)
    return cls._identity(_endpoint(cls, x))


# ---------------------------------------------------------------------------
# composition, tensor, flip, refinement, closure


@lru_cache(maxsize=1 << 16)
def _interned(d: Diagram) -> Diagram:
    """The first diagram seen equal to d, so equal composites share one object."""
    return d


@lru_cache(maxsize=1 << 16)
def compose_diagrams(p: Diagram, q: Diagram) -> tuple[Diagram, int]:
    """p after q: q maps [k] -> [l], p maps [l] -> [m].

    Returns (p * q, N) with N the exponent of t: middle-only components (S)
    or closed loops (O, GL).  A call that raises caches nothing.
    """
    if type(p) is not type(q):
        raise TypeError(f"cannot compose diagrams of different flavors: {p!r}, {q!r}")
    d, power = p._compose(q)
    return _interned(d), power


def pairing_table(fs: Sequence[Diagram], gs: Sequence[Diagram]) -> list[bytes]:
    """Exponent of t in Tr(f o g) for every f in fs (rows) and g in gs (columns).

    Every f maps [l] -> [m] and every g maps [m] -> [l], all of one flavor.
    Tr(f o g) = t^N, where N counts the components of the closed picture:
    f's target row glued to g's source row and g's target row to f's source
    row.  No composite diagram is built: f's blocks are merged once for its
    row, and each entry resumes the union-find from those roots with g's
    blocks (_components' start).  Row i is a bytes object whose byte j is N
    for (fs[i], gs[j]); N <= l + m, which must be below 256.
    """
    if not fs:
        return []
    cls = type(fs[0])
    source, target = fs[0]._signature()
    for d, want in [(f, (source, target)) for f in fs] + [(g, (target, source)) for g in gs]:
        if type(d) is not cls:
            raise TypeError(f"cannot pair diagrams of different flavors: {fs[0]!r}, {d!r}")
        if d._signature() != want:
            raise ValueError(
                f"cannot pair: {d} does not map {list(want[0])} -> {list(want[1])}"
            )
    l = sum(source)
    n = l + sum(target)
    # node ids: 0..l-1 the source row of f (= g's target row), l..n-1 its target row
    columns = [((g._blocks, l - 1, -1),) for g in gs]
    return [
        bytes(len(set(_components(n, column, roots))) for column in columns)
        for roots in [_components(n, ((f._blocks, -1, l - 1),)) for f in fs]
    ]


def _row_transpositions(
    fs: Sequence[Diagram], gs: Sequence[Diagram]
) -> list[tuple[list[int], list[int]]]:
    """How each generator of the row symmetries permutes two whole bases.

    fs is the basis of Hom(source, target) and gs that of Hom(target, source).
    A generator s swaps two adjacent endpoints of one row of fs, of one color
    for GL: +i and +(i+1) on the source row or -j and -(j+1) on the target
    row.  It swaps -i and -(i+1), or +j and +(j+1), on the row of gs glued
    to that one, so G[s f, g] = G[f, s g] in pairing_table.  Returns, per
    generator, the index of s f for every f and of s g for every g.  Each f
    is relabelled and looked up by its canonical blocks; s g is the mirror
    image (x -> -x) of s applied to the mirror image of g, a diagram of fs."""
    if not fs:
        return []
    swaps = []
    for sign, data in zip((1, -1), fs[0]._signature()):
        start = 0
        for count in data:  # (m,), or (blacks, whites) with the blacks first
            swaps += [(sign * i, sign * (i + 1)) for i in range(start + 1, start + count)]
            start += count
    index = {f._blocks: i for i, f in enumerate(fs)}
    mirror = [index[_canonical_blocks([[-x for x in b] for b in g._blocks])] for g in gs]
    back = {i: k for k, i in enumerate(mirror)}
    moves = []
    for a, b in swaps:
        swap = {a: b, b: a}
        f_images = [
            index[_canonical_blocks([[swap.get(x, x) for x in block] for block in f._blocks])]
            for f in fs
        ]
        moves.append((f_images, [back[f_images[i]] for i in mirror]))
    return moves


def tensor_diagram(p: Diagram, q: Diagram) -> Diagram:
    """Disjoint union, with q's endpoints re-indexed after p's of the same
    color on each row, so every row stays color-sorted (_merge_rows)."""
    if type(p) is not type(q):
        raise TypeError(f"cannot tensor diagrams of different flavors: {p!r}, {q!r}")
    return p._tensor(q)


def flip(d: Diagram) -> Diagram:
    """Swap the source and target rows (the dual-morphism diagram)."""
    return d._flip()


def refines(p: PartitionDiagram, p2: PartitionDiagram) -> bool:
    """True iff every block of p is contained in a block of p2."""
    if (p.top, p.bottom) != (p2.top, p2.bottom):
        raise ValueError("refinement needs identical endpoint sets")
    owner: dict[int, int] = {}
    for idx, b in enumerate(p2.blocks):
        for x in b:
            owner[x] = idx
    return all(len({owner[x] for x in b}) == 1 for b in p.blocks)


def coarsenings_with_moebius(p: PartitionDiagram) -> Iterator[tuple[PartitionDiagram, int]]:
    """(coarsening, mu) for every way of merging p's blocks, in restricted-growth order.

    mu is the Moebius function of the interval [p, coarsening] in the
    refinement order: product over merged groups g of (-1)^(|g|-1) (|g|-1)!.
    """
    for grouping in _set_partitions_of(list(range(len(p.blocks)))):
        merged = [
            tuple(itertools.chain.from_iterable(p.blocks[i] for i in group))
            for group in grouping
        ]
        mu = math.prod((-1) ** (len(g) - 1) * math.factorial(len(g) - 1) for g in grouping)
        yield p._trusted(*p._signature(), _canonical_blocks(merged)), mu


def coarsenings(p: PartitionDiagram) -> list[PartitionDiagram]:
    """All diagrams refined by p, i.e. every way of merging p's blocks."""
    return [coarser for coarser, _ in coarsenings_with_moebius(p)]


def closure_components(d: Diagram) -> int:
    """Components after closing the diagram with arcs i -- i' for every i.

    This is the exponent l(D) in the graphical trace: Tr(e_D) = t^l(D).
    Requires equal source and target signatures.
    """
    return d._closure()


# ---------------------------------------------------------------------------
# basis enumeration


def _set_partitions_of(items: list) -> Iterator[list[list]]:
    """All set partitions, in deterministic restricted-growth order."""
    if not items:
        yield []
        return

    def rec(i: int, blocks: list[list]):
        if i == len(items):
            yield [list(b) for b in blocks]
            return
        for b in blocks:
            b.append(items[i])
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([items[i]])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(1, [[items[0]]])


def _matchings_of(items: list[int]) -> Iterator[list[tuple[int, int]]]:
    """All perfect matchings; smallest unmatched point is paired first."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for idx, partner in enumerate(rest):
        sub = rest[:idx] + rest[idx + 1 :]
        for tail in _matchings_of(sub):
            yield [(first, partner)] + tail


def enumerate_basis(flavor: str, source, target) -> list[Diagram]:
    """Complete diagram basis of Hom(source, target), in deterministic order.

    Bell(l+m) diagrams for S, (l+m-1)!! for O, (r1+s2)! for GL; empty when
    no diagram fits the two signatures.  Each basis is enumerated once per
    process (_cached_basis); every call returns a fresh list of the shared
    diagrams.  The endpoints are checked on every call, so a bad one raises
    and caches nothing.
    """
    cls = _diagram_class(flavor)
    return list(_cached_basis(cls, _endpoint(cls, source), _endpoint(cls, target)))


# bounded: a classify round asks for 36 distinct bases
@lru_cache(maxsize=128)
def _cached_basis(cls: type[Diagram], source, target) -> tuple[Diagram, ...]:
    return tuple(cls._basis(source, target))


def basis_size(flavor: str, source, target) -> int:
    """len(enumerate_basis(flavor, source, target)), without enumerating."""
    cls = _diagram_class(flavor)
    return cls._basis_size(_endpoint(cls, source), _endpoint(cls, target))


# ---------------------------------------------------------------------------
# JSON wire format


def diagram_to_json(d: Diagram) -> dict:
    """{"flavor": ..., "top": l, "bottom": m, "blocks": [[...]]} with signed ints;
    GL adds "top_colors"/"bottom_colors" bit strings."""
    return d._to_json()


def _colors_to_signature(colors: str, field: str) -> tuple[int, int]:
    if not isinstance(colors, str):
        raise ValueError(f"diagram JSON field '{field}' must be a string")
    r = colors.count("1")
    if colors != "1" * r + "0" * (len(colors) - r):
        raise ValueError(f"{field}: colors must be sorted, blacks ('1') before whites ('0')")
    return r, len(colors) - r


def diagram_from_json(obj: dict) -> Diagram:
    if not isinstance(obj, dict):
        raise ValueError("diagram JSON must be an object")
    for field in ("flavor", "top", "bottom", "blocks"):
        if field not in obj:
            raise ValueError(f"diagram JSON missing field '{field}'")
    cls = _diagram_class(obj["flavor"])
    if not isinstance(obj["blocks"], list):
        raise ValueError("diagram JSON field 'blocks' must be an array")
    for i, b in enumerate(obj["blocks"]):
        if not isinstance(b, list):
            raise ValueError(f"diagram JSON field 'blocks[{i}]' must be an array")
    for field in ("top", "bottom"):
        if not is_int(obj[field]):
            raise ValueError(f"diagram JSON field '{field}' must be an integer")
    return cls._from_json(obj)
