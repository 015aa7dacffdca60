"""The benchmark's four job lists and the checks on their outputs.

`make_jobs(workload, seed)` returns the job list: plain Python data made
from the seed (labels, permutations, coefficient integers, planted vectors)
and the job order.  It calls nothing in interpcat, so it is the input half
of `setup_s`.  Each job's function turns its inputs into library objects,
runs the computation and returns plain data; that is the timed part.  Each
job's check then compares the plain data with `oracles` or with a property
the mathematics guarantees, again without calling the library.

This module imports no part of interpcat at load time.  The job functions
import the submodules they use, so `setup_s` covers `import interpcat`
alone: whatever the package itself does not import is paid for by the first
job that needs it, inside `wall_s`, as it would be in a CLI call.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles as O

@dataclass
class Job:
    name: str
    fn: Callable
    args: tuple
    check: Callable  # (out, args, results) -> list of error strings


def plain(x):
    """A RatFunc as a (numerator, denominator) pair of coefficient lists."""
    return (list(x.num.coeffs), list(x.den.coeffs))


def signature(flavor: str, data):
    from interpcat import homspaces

    if flavor == "S":
        return homspaces.sig_s(data)
    if flavor == "O":
        return homspaces.sig_o(data)
    return homspaces.sig_gl(*data)


def label_size(flavor: str, lam) -> int:
    return sum(lam[0]) + sum(lam[1]) if flavor == "GL" else sum(lam)


def basis_count(flavor: str, src, tgt) -> int:
    if flavor == "S":
        return O.bell(src + tgt)
    if flavor == "O":
        return O.odd_double_factorial(src + tgt)
    (r1, s1), (r2, s2) = src, tgt
    return math.factorial(r1 + s2) if r1 + s2 == r2 + s1 else 0


# dim_simple is computed for these sizes only: S at size 4 takes minutes
DIM_SIZE = {"S": 3, "GL": 4, "O": 2}


def dims_for(flavor: str, labels):
    """dim_simple of every label, or None if one is outside DIM_SIZE."""
    from interpcat import karoubi

    if any(label_size(flavor, lam) > DIM_SIZE[flavor] for lam in labels):
        return None
    return {lam: plain(karoubi.dim_simple(lam, flavor)) for lam in labels}


def weighted_dim(mult: dict, dims: dict):
    """sum of m_lam dim L(lam) as a (num, den) pair."""
    num, den = [], [Fraction(1)]
    for lam, m in mult.items():
        dn, dd = dims[lam]
        num = O.poly_add(O.poly_mul(num, dd), O.poly_mul([Fraction(m)], O.poly_mul(dn, den)))
        den = O.poly_mul(den, dd)
    return (num, den)


def accounting_errors(out, expected_trace) -> list[str]:
    """tr(e) equals the expected polynomial and sum m dim L(lam) equals tr(e)."""
    errs = []
    if not O.rat_is_poly(out["trace"], expected_trace):
        errs.append(f"trace {out['trace']} != {expected_trace}")
    if out["dims"] is not None and not O.rat_equal(
        weighted_dim(out["mult"], out["dims"]), out["trace"]
    ):
        errs.append("sum of m * dim L differs from the trace")
    return errs


# ---------------------------------------------------------------------------
# classify


def run_dim_simple(flavor, lam):
    from interpcat import karoubi

    return plain(karoubi.dim_simple(lam, flavor))


def check_dim_simple(out, args, results):
    flavor, lam = args
    if flavor == "GL":
        black, white = lam
        lo, ref = max(1, len(black) + len(white)), lambda n: O.gl_weyl_dim(black, white, n)
    else:
        lo = sum(lam) + (lam[0] if lam else 0)
        ref = (lambda n: O.s_dim_at(lam, n)) if flavor == "S" else (lambda n: O.o_dim_closed(lam, n))
    num, den = out
    return [
        f"dim L({lam}) at n = {n}"
        for n in range(lo, 13)
        if O.poly_eval(num, n) != ref(n) * O.poly_eval(den, n)
    ]


def _decompose(X, seed):
    from interpcat import homspaces, karoubi

    mult = karoubi.decompose(X, seed=seed)
    return {
        "mult": mult,
        "dims": dims_for(X.sig.flavor, mult),
        "trace": plain(homspaces.trace(X.idem)),
    }


def run_decompose_identity(flavor, data, seed):
    from interpcat import karoubi

    return _decompose(karoubi.object_of_identity(signature(flavor, data)), seed)


def check_decompose_identity(out, args, results):
    flavor, data, _ = args
    mult = out["mult"]
    size = sum(data) if flavor == "GL" else data
    errs = []
    if sum(m * m for m in mult.values()) != basis_count(flavor, data, data):
        errs.append("sum of m^2 differs from dim End")
    if flavor == "GL":
        r, s = data
        top = {
            (b, w): O.hook_length_dim(b) * O.hook_length_dim(w)
            for b in O.partitions(r)
            for w in O.partitions(s)
        }
    else:
        top = {lam: O.hook_length_dim(lam) for lam in O.partitions(size)}
    got_top = {lam: m for lam, m in mult.items() if label_size(flavor, lam) == size}
    if got_top != top:
        errs.append(f"top multiplicities {got_top} != {top}")
    return errs + accounting_errors(out, O.t_power(size))


def perm_inverse(sigma):
    inv = [0] * len(sigma)
    for i, s in enumerate(sigma, 1):
        inv[s - 1] = i
    return tuple(inv)


def run_decompose_symmetrizer(lam, sigma, seed):
    """Y_lam, conjugated by the permutation sigma unless sigma is None."""
    from interpcat import homspaces, karoubi

    y = karoubi.young_symmetrizer(lam, "S")
    if sigma is not None:
        p = karoubi.permutation_morphism(sigma)
        p_inv = karoubi.permutation_morphism(perm_inverse(sigma))
        y = homspaces.compose(p, homspaces.compose(y, p_inv))
    return _decompose(karoubi.KaroubiObject(y.source, y), seed)


def check_decompose_symmetrizer(out, args, results):
    lam, sigma, _ = args
    mult = out["mult"]
    errs = []
    if mult.get(lam) != 1 or any(
        sum(mu) >= sum(lam) for mu in mult if mu != lam
    ):
        errs.append(f"L({lam}) is not the only top constituent, once: {mult}")
    if sigma is not None and mult != results[f"symmetrizer {lam}"]["mult"]:
        errs.append("conjugated symmetrizer decomposes differently")
    return errs + accounting_errors(out, O.content_hook_poly(lam))


def _symmetrizer(flavor, lam):
    from interpcat import karoubi

    if flavor == "GL":
        return karoubi.bipartition_symmetrizer(lam)
    return karoubi.young_symmetrizer(lam, flavor)


def _hook_trace(flavor, lam):
    if flavor == "GL":
        return O.poly_mul(O.content_hook_poly(lam[0]), O.content_hook_poly(lam[1]))
    return O.content_hook_poly(lam)


def run_decompose_promoted(flavor, lam, seed):
    from interpcat import karoubi

    y = _symmetrizer(flavor, lam)
    before = karoubi.decompose(karoubi.KaroubiObject(y.source, y), seed=seed)
    up = karoubi.promote(y)
    out = _decompose(karoubi.KaroubiObject(up.source, up), seed)
    out["before"] = before
    return out


def check_decompose_promoted(out, args, results):
    flavor, lam, _ = args
    errs = []
    if out["mult"] != out["before"]:
        errs.append(f"promotion changed the decomposition: {out['before']} -> {out['mult']}")
    return errs + accounting_errors(out, _hook_trace(flavor, lam))


def run_decompose_tensor(flavor, a, b, seed):
    from interpcat import homspaces, karoubi

    e = homspaces.tensor(_symmetrizer(flavor, a), _symmetrizer(flavor, b))
    return _decompose(karoubi.KaroubiObject(e.source, e), seed)


def check_decompose_tensor(out, args, results):
    flavor, a, b, _ = args
    errs = []
    if flavor == "S":
        # top part of Y_a (x) Y_b is Ind(S_a x S_b): sum m f^lam = C(n, |a|) f^a f^b
        n = sum(a) + sum(b)
        top = sum(m * O.hook_length_dim(lam) for lam, m in out["mult"].items() if sum(lam) == n)
        if top != O.lr_dimension_total(a, b):
            errs.append(f"top constituents weigh {top}, not {O.lr_dimension_total(a, b)}")
    expected = O.poly_mul(_hook_trace(flavor, a), _hook_trace(flavor, b))
    return errs + accounting_errors(out, expected)


def run_decompose_special_p(n, seed):
    from interpcat import homspaces, karoubi

    return _decompose(karoubi.KaroubiObject(homspaces.sig_s(n), karoubi.special_p(n)), seed)


def check_decompose_special_p(out, args, results):
    n, _ = args
    # ([n], p) is isomorphic to [n - 1]
    errs = []
    if out["mult"] != results[f"identity S {n - 1}"]["mult"]:
        errs.append("([n], p) does not decompose like [n - 1]")
    if sum(m * m for m in out["mult"].values()) != O.bell(2 * (n - 1)):
        errs.append("sum of m^2 differs from Bell(2(n - 1))")
    return errs + accounting_errors(out, O.t_power(n - 1))


def classify_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    ladders = [("S", lam) for k in range(4) for lam in O.partitions(k)]
    ladders += [
        ("GL", (b, w))
        for k in range(5)
        for a in range(k + 1)
        for b in O.partitions(a)
        for w in O.partitions(k - a)
    ]
    ladders += [("O", lam) for k in range(3) for lam in O.partitions(k)]
    for flavor, lam in ladders:
        jobs.append(Job(f"dim {flavor} {lam}", run_dim_simple, (flavor, lam), check_dim_simple))
    objects = [("S", m) for m in range(4)]
    objects += [("GL", (r, s)) for r in range(4) for s in range(5 - r) if s < 4]
    objects += [("O", m) for m in range(4)]
    for flavor, data in objects:
        jobs.append(
            Job(
                f"identity {flavor} {data}",
                run_decompose_identity,
                (flavor, data, rng.randrange(2**31)),
                check_decompose_identity,
            )
        )
    for lam in [(1,), (2,), (1, 1), (3,), (2, 1)]:
        jobs.append(
            Job(f"symmetrizer {lam}", run_decompose_symmetrizer,
                (lam, None, rng.randrange(2**31)), check_decompose_symmetrizer)
        )
        n = sum(lam)
        if lam in [(2,), (1, 1), (2, 1)]:
            sigma = tuple(rng.sample(range(1, n + 1), n))
            while sigma == tuple(range(1, n + 1)):
                sigma = tuple(rng.sample(range(1, n + 1), n))
            jobs.append(
                Job(f"conjugated {lam} by {sigma}", run_decompose_symmetrizer,
                    (lam, sigma, rng.randrange(2**31)), check_decompose_symmetrizer)
            )
    for flavor, lam in [("S", (1,)), ("S", (2,)),
                        ("GL", ((1,), ())), ("GL", ((), (1,))), ("GL", ((1,), (1,)))]:
        jobs.append(
            Job(f"promoted {flavor} {lam}", run_decompose_promoted,
                (flavor, lam, rng.randrange(2**31)), check_decompose_promoted)
        )
    for flavor, a, b in [("S", (1,), (1,)), ("S", (2,), (1,)),
                         ("GL", ((1,), ()), ((), (1,))), ("GL", ((1,), ()), ((1,), ()))]:
        jobs.append(
            Job(f"tensor {flavor} {a} {b}", run_decompose_tensor,
                (flavor, a, b, rng.randrange(2**31)), check_decompose_tensor)
        )
    jobs.append(Job("special_p 3", run_decompose_special_p, (3, rng.randrange(2**31)),
                    check_decompose_special_p))
    return jobs


# ---------------------------------------------------------------------------
# quotient


def run_gram(flavor, l, m, n):
    from interpcat import semisimplify

    report = semisimplify.gram(l, m, n, flavor)
    return {"rank": report.rank, "size": len(report.gram)}


def check_gram(out, args, results):
    flavor, l, m, n = args
    errs = []
    if out["size"] != basis_count(flavor, l, m):
        errs.append(f"Gram matrix has {out['size']} rows, not the basis size")
    if flavor == "S":
        expected = O.stirling_sum(l + m, n)
    elif flavor == "GL":
        expected = O.schur_weyl_sum(l[0] + m[1], n)
    else:
        expected = O.o_invariant_dim(l + m, n)
    if out["rank"] != expected:
        errs.append(f"rank {out['rank']} != {expected}")
    return errs


def run_quotient_vs_classical(l, m, n):
    from interpcat import oracle, semisimplify

    return {
        "quotient": semisimplify.quotient_dim(l, m, n),
        "classical": oracle.hom_dim_classical(l, m, n),
    }


def check_quotient_vs_classical(out, args, results):
    l, m, n = args
    expected = O.stirling_sum(l + m, n)
    if out["quotient"] == out["classical"] == expected:
        return []
    return [f"quotient {out['quotient']}, classical {out['classical']}, expected {expected}"]


def run_structure_constants(l, m, k, n):
    from interpcat import oracle

    report = oracle.verify_structure_constants(l, m, k, n)
    return {"pairs": report["pairs"], "passed": report["passed"]}


def check_structure_constants(out, args, results):
    l, m, k, n = args
    errs = [] if out["passed"] else ["matrix composition law violated"]
    if out["pairs"] != O.bell(l + m) * O.bell(m + k):
        errs.append(f"{out['pairs']} pairs checked, not Bell(l+m) Bell(m+k)")
    return errs


def quotient_jobs(rng: random.Random) -> list[Job]:
    grams = [("S", l, k - l, n) for k in range(1, 5) for l in range(k + 1) for n in range(6)]
    grams += [("S", 2, 3, n) for n in range(6)]
    grams += [("S", 3, 3, 1), ("O", 4, 4, 1), ("O", 4, 4, 2)]
    grams += [("GL", (3, 1), (3, 1), n) for n in range(5)]
    grams += [("GL", (2, 1), (2, 1), n) for n in range(5)]
    jobs = [Job(f"gram {g}", run_gram, g, check_gram) for g in grams]
    for n in (2, 3, 4):
        for l, m in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2)):
            jobs.append(Job(f"quotient {l} {m} {n}", run_quotient_vs_classical, (l, m, n),
                            check_quotient_vs_classical))
        for l, m, k in ((1, 1, 1), (2, 1, 2), (2, 2, 1), (1, 2, 2), (2, 2, 2)):
            jobs.append(Job(f"structure {l} {m} {k} {n}", run_structure_constants,
                            (l, m, k, n), check_structure_constants))
    return jobs


# ---------------------------------------------------------------------------
# symbolic


def run_symbolic_gram(flavor, l, m):
    from interpcat import semisimplify

    report = semisimplify.gram(l, m, None, flavor)
    return {"rank": report.rank, "size": len(report.gram)}


def check_symbolic_gram(out, args, results):
    flavor, l, m = args
    size = basis_count(flavor, l, m)
    if out["rank"] == out["size"] == size:
        return []
    return [f"generic rank {out['rank']} of {out['size']}, basis size {size}"]


def run_gram_determinant(l, m):
    from interpcat import semisimplify

    return plain(semisimplify.gram_determinant_symbolic(l, m))


def check_gram_determinant(out, args, results):
    l, m = args
    if not out[0]:
        return ["Gram determinant is zero"]
    ref = results[f"determinant 0 {l + m}"]
    neg = ([-c for c in ref[0]], ref[1])
    if not (O.rat_equal(out, ref) or O.rat_equal(out, neg)):
        return [f"determinant differs from Hom([0], [{l + m}]) beyond sign"]
    return []


def run_symmetrizer(flavor, lam):
    from interpcat import homspaces, karoubi

    y = _symmetrizer(flavor, lam)
    return {"idempotent": karoubi.is_idempotent(y), "trace": plain(homspaces.trace(y))}


def check_symmetrizer(out, args, results):
    flavor, lam = args
    errs = [] if out["idempotent"] else ["not idempotent"]
    if not O.rat_is_poly(out["trace"], _hook_trace(flavor, lam)):
        errs.append("trace differs from the content-hook formula")
    return errs


def run_promotion_chain(flavor, lam, steps):
    from interpcat import homspaces, karoubi

    f = _symmetrizer(flavor, lam)
    traces = [plain(homspaces.trace(f))]
    for _ in range(steps):
        f = karoubi.promote(f)
        traces.append(plain(homspaces.trace(f)))
    return {"traces": traces, "idempotent": karoubi.is_idempotent(f)}


def check_promotion_chain(out, args, results):
    flavor, lam, _ = args
    errs = [] if out["idempotent"] else ["promoted idempotent is not idempotent"]
    expected = _hook_trace(flavor, lam)
    if not all(O.rat_is_poly(tr, expected) for tr in out["traces"]):
        errs.append("promotion changed the trace")
    return errs


def morphism(flavor, src, tgt, spec):
    """Build sum c_i d_i from (basis index, numerator, denominator) triples."""
    from interpcat import homspaces
    from interpcat.ratfunc import Poly, RatFunc

    s, t = signature(flavor, src), signature(flavor, tgt)
    basis = homspaces.hom_basis(s, t)
    terms = {}
    for idx, num, den in spec:
        c = RatFunc(Poly(num), Poly(den))
        d = basis[idx]
        terms[d] = terms[d] + c if d in terms else c
    return homspaces.Morphism(s, t, terms)


def run_trace_cyclicity(flavor, x, y, spec_f, spec_g):
    from interpcat import homspaces

    f = morphism(flavor, x, y, spec_f)
    g = morphism(flavor, y, x, spec_g)
    return {
        "fg": plain(homspaces.trace(homspaces.compose(f, g))),
        "gf": plain(homspaces.trace(homspaces.compose(g, f))),
    }


def check_trace_cyclicity(out, args, results):
    return [] if O.rat_equal(out["fg"], out["gf"]) else ["tr(fg) != tr(gf)"]


def run_e_delta_roundtrip(l, m, spec):
    from interpcat import homspaces

    f = morphism("S", l, m, spec)
    back = homspaces.delta_to_e(homspaces.e_to_delta(f))
    return {
        "before": {d: plain(c) for d, c in f.terms.items()},
        "after": {d: plain(c) for d, c in back.terms.items()},
    }


def check_e_delta_roundtrip(out, args, results):
    before, after = out["before"], out["after"]
    if before.keys() != after.keys() or not all(
        O.rat_equal(before[d], after[d]) for d in before
    ):
        return ["delta_to_e(e_to_delta(f)) != f"]
    return []


def random_spec(rng: random.Random, count: int, terms: int):
    """Random terms with coefficients (a + b t) / (c + t), c >= 1."""
    spec = []
    for _ in range(terms):
        a, b = rng.randint(-3, 3), rng.choice([-2, -1, 1, 2])
        spec.append((rng.randrange(count), (a, b), (rng.randint(1, 3), 1)))
    return spec


def symbolic_jobs(rng: random.Random) -> list[Job]:
    grams = [("S", l, k - l) for k in range(1, 5) for l in range(k + 1)]
    grams += [("O", 3, 3), ("GL", (2, 2), (2, 2))]
    jobs = [Job(f"symbolic gram {g}", run_symbolic_gram, g, check_symbolic_gram) for g in grams]
    jobs += [Job(f"determinant {l} {4 - l}", run_gram_determinant, (l, 4 - l),
                 check_gram_determinant) for l in range(5)]
    labels = [("S", lam) for k in range(1, 5) for lam in O.partitions(k)]
    labels += [("O", lam) for k in range(1, 5) for lam in O.partitions(k)]
    labels += [
        ("GL", (b, w))
        for k in range(1, 5)
        for a in range(k + 1)
        for b in O.partitions(a)
        for w in O.partitions(k - a)
    ]
    jobs += [Job(f"symmetrizer {f} {lam}", run_symmetrizer, (f, lam), check_symmetrizer)
             for f, lam in labels]
    chains = [("S", (1,), 3), ("S", (2,), 2), ("S", (1, 1), 2), ("S", (2, 1), 1),
              ("GL", ((), ()), 3), ("GL", ((1,), ()), 2), ("GL", ((), (1,)), 2),
              ("GL", ((1,), (1,)), 1), ("GL", ((2,), ()), 1), ("GL", ((), (1, 1)), 1)]
    jobs += [Job(f"promotion {c}", run_promotion_chain, c, check_promotion_chain) for c in chains]
    shapes = {"S": [1, 2, 3], "O": [1, 2, 3], "GL": [(1, 0), (1, 1), (2, 1), (0, 2)]}
    for flavor, sizes in shapes.items():
        for i in range(10):
            x, y = rng.choice(sizes), rng.choice(sizes)
            if flavor == "O" and (x + y) % 2:
                y = x
            if flavor == "GL" and x[0] + y[1] != y[0] + x[1]:
                y = x
            jobs.append(Job(
                f"cyclicity {flavor} {i}", run_trace_cyclicity,
                (flavor, x, y, random_spec(rng, basis_count(flavor, x, y), 4),
                 random_spec(rng, basis_count(flavor, y, x), 4)),
                check_trace_cyclicity,
            ))
    for i in range(12):
        l, m = rng.randint(1, 2), rng.randint(1, 2)
        jobs.append(Job(f"e-delta {i}", run_e_delta_roundtrip,
                        (l, m, random_spec(rng, O.bell(l + m), 3)), check_e_delta_roundtrip))
    return jobs


# ---------------------------------------------------------------------------
# stable


def run_lr_block(k):
    """Every c^lam_{mu,nu} with |lam| = k and |mu| + |nu| = k."""
    from interpcat import symfun

    out = {}
    for a in range(k + 1):
        for mu in O.partitions(a):
            for nu in O.partitions(k - a):
                for lam in O.partitions(k):
                    out[lam, mu, nu] = symfun.lr_coefficient(lam, mu, nu)
    return out


def check_lr_block(out, args, results):
    (k,) = args
    errs = []
    for a in range(k + 1):
        for mu in O.partitions(a):
            for nu in O.partitions(k - a):
                total = sum(out[lam, mu, nu] * O.hook_length_dim(lam) for lam in O.partitions(k))
                if total != O.lr_dimension_total(mu, nu):
                    errs.append(f"sum_lam c^lam_({mu},{nu}) f^lam = {total}")
                if any(out[lam, mu, nu] != out[lam, nu, mu] for lam in O.partitions(k)):
                    errs.append(f"c^lam_({mu},{nu}) is not symmetric")
    return errs


OSP_SHAPES = [lam for k in range(5) for lam in O.partitions(k)]


def run_osp_block(lam):
    from interpcat import symfun

    return {
        (mu, nu): symfun.osp_multiplicity(lam, mu, nu)
        for mu in OSP_SHAPES
        for nu in OSP_SHAPES
    }


def check_osp_block(out, args, results):
    (lam,) = args
    errs = []
    for mu in OSP_SHAPES:
        if out[mu, ()] != (mu == lam):
            errs.append(f"osp({lam}, {mu}, ()) = {out[mu, ()]}")
        other = results[f"osp {mu}"]
        if any(out[mu, nu] != other[lam, nu] for nu in OSP_SHAPES):
            errs.append(f"osp({lam}, {mu}, .) is not symmetric")
        if sum(lam) + sum(mu) <= 4:
            # only zeta = empty contributes: N = c^nu_{lam,mu} from the LR block
            block = results[f"lr {sum(lam) + sum(mu)}"]
            if any(out[mu, nu] != block[nu, lam, mu]
                   for nu in O.partitions(sum(lam) + sum(mu))):
                errs.append(f"top of osp({lam}, {mu}, .) differs from LR")
    return errs


HC_GL = [
    ((0,), (), (), (), (1,), (1,)),
    ((1,), (), (), (), (1,), (2,)),
    ((0,), (0,), (1,), (1,), (1,), (1,)),
    ((-1,), (), (), (), (2,), (1,)),
    ((), (1,), (1,), (), (1,), (1, 1)),
    ((0,), (), (2,), (1,), (2,), (1,)),
    ((1,), (), (1,), (), (2,), (1, 1)),
    ((0,), (1,), (), (1,), (1,), (1, 1)),
    ((1, -1), (), (), (), (1,), (1,)),
]
HC_OSP = [
    ((0,), (), (), (), (2,)),
    ((0,), (), (1,), (1,), (1, 1)),
    ((1,), (), (), (), (2, 1)),
    ((0,), (), (2,), (), (2,)),
]


def run_hc_gl(a, b, gamma, delta, nu, nubar):
    from interpcat import symfun

    shift = symfun.ShiftData(a, b, gamma, delta)
    stable = symfun.stable_hc_multiplicity(shift, (nu, nubar), "gl")
    direct = []
    for n in (11, 14):
        lam, mu = symfun.shift_instance(shift, n)
        direct.append(symfun.gl_mixed_multiplicity(lam, mu, nu, nubar))
    return {"stable": stable, "direct": direct}


def run_hc_osp(a, b, gamma, delta, nu):
    from interpcat import symfun

    shift = symfun.ShiftData(a, b, gamma, delta)
    stable = symfun.stable_hc_multiplicity(shift, nu, "osp")
    direct = []
    for n in (11, 14):
        lam, mu = symfun.shift_instance(shift, n)
        direct.append(symfun.osp_multiplicity(lam, mu, nu))
    return {"stable": stable, "direct": direct}


def check_hc(out, args, results):
    if all(d == out["stable"] for d in out["direct"]):
        return []
    return [f"stable {out['stable']} != direct {out['direct']}"]


def run_search(b, c):
    from interpcat import symfun

    r, s = len(b), len(c)
    moments = symfun.char_difference_forward(b, c, "gl", r + s + 3)
    return symfun.search_decomposition(moments, r, s, 5)


def check_search(out, args, results):
    b, c = args
    return [] if out == (tuple(b), tuple(c)) else [f"search found {out}"]


def stable_jobs(rng: random.Random) -> list[Job]:
    jobs = [Job(f"lr {k}", run_lr_block, (k,), check_lr_block) for k in range(9)]
    jobs += [Job(f"osp {lam}", run_osp_block, (lam,), check_osp_block) for lam in OSP_SHAPES]
    jobs += [Job(f"hc gl {case}", run_hc_gl, case, check_hc) for case in HC_GL]
    jobs += [Job(f"hc osp {case}", run_hc_osp, case, check_hc) for case in HC_OSP]
    # r + s <= 3 keeps each search short, so the seed barely moves the cost
    for r, s in [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (2, 1), (1, 2)] * 4:
        while True:
            b = sorted(rng.randint(-5, 5) for _ in range(r))
            c = sorted(rng.randint(-5, 5) for _ in range(s))
            # a pair x in b, x + 1 in c cancels in every moment
            if not any(x + 1 == y for x in b for y in c):
                break
        jobs.append(Job(f"search {b} {c}", run_search, (tuple(b), tuple(c)), check_search))
    return jobs


BUILDERS = {
    "classify": classify_jobs,
    "quotient": quotient_jobs,
    "symbolic": symbolic_jobs,
    "stable": stable_jobs,
}


def make_jobs(workload: str, seed: int) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    jobs = BUILDERS[workload](rng)
    rng.shuffle(jobs)
    return jobs
