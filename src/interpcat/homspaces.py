"""Hom spaces: sparse Q(t)-linear combinations of diagrams.

A Morphism is a finitely supported map {diagram -> RatFunc} together with
source and target signatures.  Composition extends the diagram laws
bilinearly, multiplying each term by t raised to the middle-component (S) or
loop (GL, O) count.  The S flavor carries two bases: the relaxed-pattern
basis e_P the composition law lives in, and the strict-orbit basis delta_P
related to it by the refinement-order zeta/Moebius matrix.

compose, trace and karoubi._hom_dim clear a morphism's constant denominators
once (_integral_terms) and add and multiply ints; a Fraction appears only at
the one final division.

Sp_t is exposed as an alias at the trace level: sp_trace / sp_dimension
return the O-flavor value with t replaced by -t, through the equivalence
Rep(O_t) ~ Rep(Sp_{-t}); the sign-twisted braiding itself is not modeled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from interpcat.diagrams import (
    DIAGRAM_CLASSES,
    Diagram,
    _diagram_class,
    _endpoint,
    closure_components,
    coarsenings_with_moebius,
    compose_diagrams,
    enumerate_basis,
    flip,
    identity_diagram,
    tensor_diagram,
)
from interpcat.ratfunc import RF_ONE, Poly, RatFunc, constant_or_self, t_power


@dataclass(frozen=True)
class ObjectSignature:
    """[m] for S and O flavors; [r, s] for GL.  diagrams._endpoint checks
    the data and normalizes it to a tuple."""

    flavor: str
    data: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "data", _endpoint(_diagram_class(self.flavor), self.data))

    @property
    def size(self) -> int:
        return sum(self.data)

    def tensor(self, other: "ObjectSignature") -> "ObjectSignature":
        if other.flavor != self.flavor:
            raise ValueError("cannot tensor signatures of different flavors")
        return ObjectSignature(
            self.flavor, tuple(a + b for a, b in zip(self.data, other.data))
        )

    def dual(self) -> "ObjectSignature":
        """The dual object: its colors swapped, [s, r] for GL."""
        return ObjectSignature(self.flavor, self.data[::-1])

    def __str__(self) -> str:
        return f"{self.flavor}{list(self.data)}"


def sig_s(m: int) -> ObjectSignature:
    return ObjectSignature("S", (m,))


def sig_gl(r: int, s: int) -> ObjectSignature:
    return ObjectSignature("GL", (r, s))


def sig_o(m: int) -> ObjectSignature:
    return ObjectSignature("O", (m,))


def as_signature(x, flavor: str) -> ObjectSignature:
    """x if it is a signature, else the flavor's signature with endpoint x:
    an int m for S and O, an (r, s) pair for GL."""
    return x if isinstance(x, ObjectSignature) else ObjectSignature(flavor, x)


def hom_basis(source: ObjectSignature, target: ObjectSignature) -> list[Diagram]:
    """Diagram basis of Hom(source, target); [] when the space is zero."""
    if source.flavor != target.flavor:
        raise ValueError("Hom between different flavors")
    return enumerate_basis(source.flavor, source.data, target.data)


class Morphism:
    """Finitely supported RatFunc-linear combination of diagrams."""

    __slots__ = ("source", "target", "terms")

    def __init__(self, source: ObjectSignature, target: ObjectSignature, terms=None):
        self.source = source
        self.target = target
        fit = (source.flavor, target.flavor, (source.data, target.data))
        clean: dict[Diagram, RatFunc] = {}
        for d, c in (terms or {}).items():
            c = c if isinstance(c, RatFunc) else RatFunc(c)
            if c.is_zero():
                continue
            if (d.flavor, d.flavor, d._signature()) != fit:
                raise ValueError(f"diagram {d} does not fit {source} -> {target}")
            clean[d] = c
        self.terms = clean

    # -- vector space structure ---------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Morphism)
            and self.source == other.source
            and self.target == other.target
            and self.terms == other.terms
        )

    def __add__(self, other: "Morphism") -> "Morphism":
        if (self.source, self.target) != (other.source, other.target):
            raise ValueError("cannot add morphisms with different signatures")
        terms = dict(self.terms)
        for d, c in other.terms.items():
            terms[d] = terms.get(d, RatFunc(0)) + c
        return Morphism(self.source, self.target, terms)

    def __neg__(self) -> "Morphism":
        return Morphism(self.source, self.target, {d: -c for d, c in self.terms.items()})

    def __sub__(self, other: "Morphism") -> "Morphism":
        return self + (-other)

    def scale(self, c) -> "Morphism":
        c = c if isinstance(c, RatFunc) else RatFunc(c)
        return Morphism(self.source, self.target, {d: c * v for d, v in self.terms.items()})

    def __mul__(self, c) -> "Morphism":
        return self.scale(c)

    __rmul__ = __mul__

    def __truediv__(self, c) -> "Morphism":
        return self.scale(RF_ONE / (c if isinstance(c, RatFunc) else RatFunc(c)))

    def __str__(self) -> str:
        if not self.terms:
            return f"0: {self.source} -> {self.target}"
        parts = [f"{c} * {d}" for d, c in sorted(self.terms.items(), key=lambda kv: str(kv[0]))]
        return " + ".join(parts)

    __repr__ = __str__


def zero_morphism(source: ObjectSignature, target: ObjectSignature) -> Morphism:
    return Morphism(source, target, {})


def diagram_morphism(d: Diagram, coeff=1) -> Morphism:
    source, target = (ObjectSignature(d.flavor, data) for data in d._signature())
    return Morphism(source, target, {d: RatFunc(coeff)})


def identity(sig: ObjectSignature) -> Morphism:
    return diagram_morphism(identity_diagram(sig.flavor, sig.data))


def _integral_terms(f: Morphism) -> tuple[int, list]:
    """(n, [(d, n c_d)]), the one clearing of a morphism's denominators: n is
    the lcm of the denominators of the constant c_d, so each constant n c_d
    is an int; a coefficient that carries t stays a RatFunc, times n."""
    terms = [(d, constant_or_self(c)) for d, c in f.terms.items()]
    n = math.lcm(*(c.denominator for _, c in terms if not isinstance(c, RatFunc)))
    return n, [
        (d, c * n if isinstance(c, RatFunc) else c.numerator * (n // c.denominator))
        for d, c in terms
    ]


def _compose_terms(fs, gs) -> dict:
    """{d: sum of c_f c_g t^N} over the pairs of (diagram, coefficient) lists
    fs and gs, where (d, N) = compose_diagrams(d_f, d_g): the one loop that
    composes sparse combinations of diagrams, for compose and for the class
    sums of karoubi._Traces (d o e_X per basis diagram d, and s o m per
    class representative s).  Both clear denominators first (_integral_terms),
    so constant coefficients multiply and add as ints; only a coefficient or
    a closed component that carries t brings in Q(t) arithmetic."""
    out: dict = {}
    for df, cf in fs:
        for dg, cg in gs:
            d, power = compose_diagrams(df, dg)
            c = cf * cg * t_power(power) if power else cf * cg
            prev = out.get(d)
            out[d] = c if prev is None else prev + c
    return out


def compose(f: Morphism, g: Morphism) -> Morphism:
    """f after g (the second argument acts first).

    f and g are cleared once each (_integral_terms), the kernel runs over
    the ints, and each output coefficient is divided once by n_f n_g: a
    constant becomes one Fraction, and one that carries t stays a RatFunc."""
    if g.target != f.source:
        raise ValueError(f"cannot compose: g targets {g.target}, f expects {f.source}")
    (nf, fs), (ng, gs) = _integral_terms(f), _integral_terms(g)
    n = nf * ng
    out = {
        d: c / n if isinstance(c, RatFunc) else Fraction(c, n)
        for d, c in _compose_terms(fs, gs).items()
    }
    return Morphism(g.source, f.target, out)


def tensor(f: Morphism, g: Morphism) -> Morphism:
    if f.source.flavor != g.source.flavor:
        raise ValueError("cannot tensor morphisms of different flavors")
    out: dict[Diagram, RatFunc] = {}
    for df, cf in f.terms.items():
        for dg, cg in g.terms.items():
            d = tensor_diagram(df, dg)
            c = cf * cg
            prev = out.get(d)
            out[d] = c if prev is None else prev + c
    return Morphism(f.source.tensor(g.source), f.target.tensor(g.target), out)


def trace(f: Morphism) -> RatFunc:
    """Graphical trace: sum of coeff * t^(closure components) over terms.
    Cleared once (_integral_terms), the constant terms add as ints, one per
    power of t, the rest in Q(t), and one division by n ends the sum."""
    if f.source != f.target:
        raise ValueError("trace needs an endomorphism")
    n, terms = _integral_terms(f)
    coeffs: list[int] = []
    rest = RatFunc(0)
    for d, c in terms:
        k = closure_components(d)
        if isinstance(c, RatFunc):
            rest = rest + c * t_power(k)
        else:
            coeffs += [0] * (k + 1 - len(coeffs))
            coeffs[k] += c
    return (RatFunc(Poly(coeffs)) + rest) / n


def dimension(sig: ObjectSignature) -> RatFunc:
    """Categorical dimension: t^m for [m], t^(r+s) for [r, s]."""
    return trace(identity(sig))


def sp_trace(f: Morphism) -> RatFunc:
    """Trace of an O-flavor endomorphism read in Rep(Sp_t): t -> -t."""
    if f.source.flavor != "O":
        raise ValueError("sp_trace applies to O-flavor morphisms")
    return trace(f).at_minus_t()


def sp_dimension(m: int) -> RatFunc:
    return dimension(sig_o(m)).at_minus_t()


# ---------------------------------------------------------------------------
# basis change between e_P and delta_P (S flavor)


def _change_basis(f: Morphism, moebius: bool) -> Morphism:
    """Spread each term over the coarsenings of its diagram, weighted by the
    Moebius function mu(P, P') when `moebius` is set."""
    if f.source.flavor != "S":
        raise ValueError("basis change only applies to the S flavor")
    out: dict[Diagram, RatFunc] = {}
    for d, c in f.terms.items():
        for coarser, mu in coarsenings_with_moebius(d):
            contrib = c * mu if moebius else c
            prev = out.get(coarser)
            out[coarser] = contrib if prev is None else prev + contrib
    return Morphism(f.source, f.target, out)


def e_to_delta(f: Morphism) -> Morphism:
    """Rewrite e-basis coefficients in the delta basis: e_P = sum_{P' >= P} delta_P'."""
    return _change_basis(f, moebius=False)


def delta_to_e(f: Morphism) -> Morphism:
    """Moebius inversion of e_to_delta: delta_P = sum_{P' >= P} mu(P, P') e_P'."""
    return _change_basis(f, moebius=True)


# ---------------------------------------------------------------------------
# rigidity: evaluation, coevaluation, braiding


def _ev_diagram(sig: ObjectSignature) -> Diagram:
    if sig.flavor == "GL":
        r, s = sig.data
        # source is [s, r] (x) [r, s] = [s + r, r + s]; whites start at s + r
        r1 = s + r
        source, pairs = (r1, r + s), []
        for k in range(1, r + 1):  # X's black k with X*'s white r + 1 - k
            pairs.append((s + k, r1 + (r + 1 - k)))
        for j in range(1, s + 1):  # X*'s black s + 1 - j with X's white j
            pairs.append((s + 1 - j, r1 + r + j))
    else:
        (m,) = sig.data
        source, pairs = (2 * m,), [(i, m + i) for i in range(1, m + 1)]
    return DIAGRAM_CLASSES[sig.flavor]._build(source, (0,) * len(source), pairs)


def ev(sig: ObjectSignature) -> Morphism:
    """Evaluation X* (x) X -> 1: parallel arcs for S and O, nested for GL."""
    return diagram_morphism(_ev_diagram(sig))


def coev(sig: ObjectSignature) -> Morphism:
    """Coevaluation 1 -> X (x) X*: the mirror image of the evaluation of X*."""
    return diagram_morphism(flip(_ev_diagram(sig.dual())))


def swap(sig_a: ObjectSignature, sig_b: ObjectSignature) -> Morphism:
    """The braiding diagram c_{A,B}: A (x) B -> B (x) A."""
    if sig_a.flavor != sig_b.flavor:
        raise ValueError("cannot swap signatures of different flavors")
    return diagram_morphism(DIAGRAM_CLASSES[sig_a.flavor]._braiding(sig_a.data, sig_b.data))


# ---------------------------------------------------------------------------
# JSON wire format


def signature_to_json(sig: ObjectSignature) -> dict:
    if sig.flavor == "GL":
        return {"flavor": "GL", "r": sig.data[0], "s": sig.data[1]}
    return {"flavor": sig.flavor, "m": sig.data[0]}


def signature_from_json(obj: dict) -> ObjectSignature:
    if not isinstance(obj, dict):
        raise ValueError("signature JSON must be an object")
    if "flavor" not in obj:
        raise ValueError("signature JSON missing field 'flavor'")
    fields = ("r", "s") if obj["flavor"] == "GL" else ("m",)
    for field in fields:
        if field not in obj:
            raise ValueError(f"signature JSON missing field '{field}'")
    return ObjectSignature(obj["flavor"], tuple(obj[field] for field in fields))


def morphism_to_json(f: Morphism, basis: str = "e") -> dict:
    from interpcat.diagrams import diagram_to_json
    from interpcat.ratfunc import format_ratfunc

    # a symmetrizer's n! coefficients are all +-c for one c: format each once
    texts: dict[RatFunc, str] = {}
    terms = []
    for d, c in sorted(f.terms.items(), key=lambda kv: str(kv[0])):
        text = texts.get(c)
        if text is None:
            text = texts[c] = format_ratfunc(c)
        terms.append({"diagram": diagram_to_json(d), "coeff": text})
    out = {
        "source": signature_to_json(f.source),
        "target": signature_to_json(f.target),
        "terms": terms,
    }
    if f.source.flavor == "S":
        out["basis"] = basis
    return out


def morphism_from_json(obj: dict) -> Morphism:
    from interpcat.diagrams import diagram_from_json
    from interpcat.ratfunc import parse_ratfunc

    if not isinstance(obj, dict):
        raise ValueError("morphism JSON must be an object")
    for field in ("source", "target", "terms"):
        if field not in obj:
            raise ValueError(f"morphism JSON missing field '{field}'")
    source = signature_from_json(obj["source"])
    target = signature_from_json(obj["target"])
    if not isinstance(obj["terms"], list):
        raise ValueError("morphism JSON field 'terms' must be an array")
    terms: dict[Diagram, RatFunc] = {}
    for i, term in enumerate(obj["terms"]):
        if not isinstance(term, dict):
            raise ValueError(f"morphism JSON field 'terms[{i}]' must be an object")
        for field in ("diagram", "coeff"):
            if field not in term:
                raise ValueError(f"morphism JSON missing field 'terms[{i}].{field}'")
        if not isinstance(term["coeff"], str):
            raise ValueError(f"morphism JSON field 'terms[{i}].coeff' must be a string")
        d = diagram_from_json(term["diagram"])
        c = parse_ratfunc(term["coeff"])
        terms[d] = terms.get(d, RatFunc(0)) + c
    return Morphism(source, target, terms)
