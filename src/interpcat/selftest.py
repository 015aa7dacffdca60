"""Invariant suites for every module, runnable as `interpcat selftest`.

Each named check either passes silently or raises AssertionError; the runner
collects one line per check into a deterministic report (fixed seed, no
timestamps), so repeated runs are byte-identical.  A check that raises any
other exception is reported with status "error" and counted as a failure.
The brute-force symmetric-function oracles (monomial expansion and Schur
straightening) live here because several checks pit library routines
against them.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from interpcat import diagrams, homspaces, karoubi, oracle, semisimplify, symfun
from interpcat.homspaces import (
    Morphism,
    as_signature,
    compose,
    diagram_morphism,
    dimension,
    e_to_delta,
    delta_to_e,
    hom_basis,
    identity,
    sig_gl,
    sig_o,
    sig_s,
    tensor,
    trace,
)
from interpcat.partitions import (
    bell_number,
    check_partition,
    double_factorial_odd,
    partitions_of,
    sn_irrep_dimension,
    sub_partitions,
)
from interpcat.ratfunc import Poly, RatFunc, RF_ONE, RF_T, interpolate, t_power

# ---------------------------------------------------------------------------
# brute-force symmetric function oracles (independent of symfun internals)


def _ssyt_weights(shape, inner, nvars: int):
    """Weight monomials of all semistandard skew tableaux, as exponent dicts."""
    rows = len(shape)
    inner = tuple(inner) + (0,) * (rows - len(inner))
    cells = [(i, j) for i in range(rows) for j in range(inner[i], shape[i])]
    out: dict[tuple[int, ...], int] = {}
    filling: dict[tuple[int, int], int] = {}

    def rec(pos: int, weight: list[int]):
        if pos == len(cells):
            key = tuple(weight)
            out[key] = out.get(key, 0) + 1
            return
        i, j = cells[pos]
        left = filling.get((i, j - 1))
        above = filling.get((i - 1, j))
        lo = 1
        if left is not None:
            lo = max(lo, left)
        if above is not None:
            lo = max(lo, above + 1)
        for v in range(lo, nvars + 1):
            filling[(i, j)] = v
            weight[v - 1] += 1
            rec(pos + 1, weight)
            weight[v - 1] -= 1
            del filling[(i, j)]

    rec(0, [0] * nvars)
    return out


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict[tuple[int, ...], int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def _schur_expand(poly: dict, nvars: int) -> dict[tuple[int, ...], int]:
    """Expand a symmetric polynomial in the Schur basis by straightening."""
    poly = dict(poly)
    out: dict[tuple[int, ...], int] = {}
    while poly:
        lead = max(poly)
        lam = tuple(x for x in lead if x)
        if tuple(sorted(lead, reverse=True)) != lead:
            raise AssertionError(f"non-symmetric leading term {lead}")
        coeff = poly[lead]
        out[lam] = coeff
        for exp, mult in _ssyt_weights(lam, (), nvars).items():
            cur = poly.get(exp, 0) - coeff * mult
            if cur:
                poly[exp] = cur
            else:
                poly.pop(exp, None)
    return out


def schur_products_expanded(total: int):
    """All (mu, nu, expansion) with |mu| + |nu| = total, via straightening."""
    nvars = max(total, 1)
    for a in range(total + 1):
        for mu in partitions_of(a):
            left = _ssyt_weights(mu, (), nvars)
            for nu in partitions_of(total - a):
                product = _poly_mul(left, _ssyt_weights(nu, (), nvars))
                yield mu, nu, _schur_expand(product, nvars)


def hall_pairing_by_expansion(lam, nu, mu, nubar) -> int:
    """(s_{lam/nu}, s_{mu/nubar}) via Schur expansions of both skews."""
    weight = sum(lam) - sum(nu)
    if weight != sum(mu) - sum(nubar) or weight < 0:
        return 0
    nvars = max(sum(lam) + sum(mu), 1)
    left = _schur_expand(_ssyt_weights(lam, nu, nvars), nvars)
    right = _schur_expand(_ssyt_weights(mu, nubar, nvars), nvars)
    return sum(c * right.get(eta, 0) for eta, c in left.items())


def hook_content_dimension(lam, n: int) -> int:
    """Classical dim of the S_n irrep for the padded partition (n-|lam|, lam)."""
    padded = (n - sum(lam),) + tuple(lam)
    if padded[0] < (lam[0] if lam else 0):
        raise ValueError(f"padding invalid: n = {n} too small for {lam}")
    return sn_irrep_dimension(check_partition(padded))


def gl_weyl_dimension(bip, n: int) -> int:
    """Weyl dimension of the mixed GL_n irrep with highest weight from bip."""
    black, white = bip
    lam = list(black) + [0] * (n - len(black) - len(white)) + [
        -x for x in reversed(white)
    ]
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    return num // den


# ---------------------------------------------------------------------------
# randomized morphism generator


def random_morphism(rng: random.Random, src, tgt, nterms: int = 2) -> Morphism:
    basis = hom_basis(src, tgt)
    terms = {}
    if not basis:
        return homspaces.zero_morphism(src, tgt)
    for _ in range(nterms):
        d = rng.choice(basis)
        c = RatFunc(Poly((rng.randint(-3, 3), rng.randint(-2, 2))))
        terms[d] = terms.get(d, RatFunc(0)) + c
    return Morphism(src, tgt, terms)


def _random_sig(rng: random.Random, flavor: str):
    if flavor == "GL":
        return as_signature((rng.randint(0, 1), rng.randint(0, 1)), flavor)
    return as_signature(rng.randint(0, 2), flavor)


# ---------------------------------------------------------------------------
# the checks


def check_field_axioms(rng: random.Random, full: bool):
    def rand_rf():
        num = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))])
        den = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))])
        if den.is_zero():
            den = Poly((1,))
        return RatFunc(num, den)

    for _ in range(60 if full else 20):
        a, b, c = rand_rf(), rand_rf(), rand_rf()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == RatFunc(0)
        if not a.is_zero():
            assert a * (RF_ONE / a) == RF_ONE


def check_eval_homomorphism(rng: random.Random, full: bool):
    for _ in range(40 if full else 15):
        a = RatFunc(Poly([rng.randint(-3, 3) for _ in range(3)]), Poly((rng.randint(1, 4), 1)))
        b = RatFunc(Poly([rng.randint(-3, 3) for _ in range(2)]))
        t0 = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
        try:
            lhs = (a * b).eval(t0)
            rhs = a.eval(t0) * b.eval(t0)
            assert lhs == rhs
            assert (a + b).eval(t0) == a.eval(t0) + b.eval(t0)
        except ZeroDivisionError:
            continue


def check_interpolation_roundtrip(rng: random.Random, full: bool):
    spec_points = [(4, 2), (5, 5), (6, 9)]
    assert interpolate(spec_points) == Poly((0, Fraction(-3, 2), Fraction(1, 2)))
    assert interpolate([(0, 0), (1, 1)]) == Poly((0, 1))
    assert interpolate([(1, 0), (2, 0), (3, 1)]) == Poly((1, Fraction(-3, 2), Fraction(1, 2)))
    for _ in range(20 if full else 8):
        deg = rng.randint(0, 4)
        p = Poly([rng.randint(-5, 5) for _ in range(deg + 1)])
        xs = rng.sample(range(-10, 10), deg + 1)
        points = [(x, p(x)) for x in xs]
        q = interpolate(points)
        assert all(q(x) == y for x, y in points)


def check_composition_associativity(rng: random.Random, full: bool):
    # exhaustive over all chains [a]->[b]->[c]->[d] with a..d <= 2, S flavor
    limit = 2
    for a, b, c, d in itertools.product(range(limit + 1), repeat=4):
        for h in diagrams.enumerate_basis("S", a, b):
            for g in diagrams.enumerate_basis("S", b, c):
                gh, n1 = diagrams.compose_diagrams(g, h)
                for f in diagrams.enumerate_basis("S", c, d):
                    fg, n2 = diagrams.compose_diagrams(f, g)
                    left = diagrams.compose_diagrams(f, gh)
                    right = diagrams.compose_diagrams(fg, h)
                    assert left[0] == right[0]
                    assert left[1] + n1 == right[1] + n2
    # randomized GL / O triples
    for flavor in ("O", "GL"):
        for _ in range(30 if full else 10):
            if flavor == "O":
                sigs = [rng.randint(0, 3) for _ in range(4)]
                if (sigs[0] + sigs[1]) % 2 or (sigs[1] + sigs[2]) % 2 or (sigs[2] + sigs[3]) % 2:
                    continue
                bases = [
                    diagrams.enumerate_basis("O", sigs[i], sigs[i + 1]) for i in range(3)
                ]
            else:
                datas = [(rng.randint(0, 1), rng.randint(0, 1)) for _ in range(4)]
                bases = [
                    diagrams.enumerate_basis("GL", datas[i], datas[i + 1])
                    for i in range(3)
                ]
            if not all(bases):
                continue
            h, g, f = (rng.choice(b) for b in bases)
            gh, n1 = diagrams.compose_diagrams(g, h)
            fg, n2 = diagrams.compose_diagrams(f, g)
            left = diagrams.compose_diagrams(f, gh)
            right = diagrams.compose_diagrams(fg, h)
            assert left[0] == right[0] and left[1] + n1 == right[1] + n2


def check_interchange_law(rng: random.Random, full: bool):
    for flavor in ("S", "O", "GL"):
        for _ in range(20 if full else 8):
            x, y, z = (_random_sig(rng, flavor) for _ in range(3))
            w = _random_sig(rng, flavor)
            a = random_morphism(rng, y, z)
            b = random_morphism(rng, w, x)
            c = random_morphism(rng, x, y)
            d = random_morphism(rng, _random_sig(rng, flavor), w)
            lhs = compose(tensor(a, b), tensor(c, d))
            rhs = tensor(compose(a, c), compose(b, d))
            assert lhs == rhs


def check_refinement_partial_order(rng: random.Random, full: bool):
    basis = diagrams.enumerate_basis("S", 2, 2 if full else 1)
    for p in basis:
        assert diagrams.refines(p, p)
    for p in basis:
        for q in basis:
            if diagrams.refines(p, q) and diagrams.refines(q, p):
                assert p == q
            for r in basis:
                if diagrams.refines(p, q) and diagrams.refines(q, r):
                    assert diagrams.refines(p, r)


def check_closure_flip_invariance(rng: random.Random, full: bool):
    for p in diagrams.enumerate_basis("S", 2, 2):
        assert diagrams.closure_components(p) == diagrams.closure_components(diagrams.flip(p))
    for p in diagrams.enumerate_basis("O", 2, 2):
        assert diagrams.closure_components(p) == diagrams.closure_components(diagrams.flip(p))


def check_basis_counts(rng: random.Random, full: bool):
    top = 5 if full else 4
    for l in range(3):
        for m in range(top - l + 1):
            assert len(diagrams.enumerate_basis("S", l, m)) == bell_number(l + m)
            assert len(diagrams.enumerate_basis("O", l, m)) == double_factorial_odd(l + m)
    import math

    for r1, s1, r2, s2 in itertools.product(range(3), repeat=4):
        count = len(diagrams.enumerate_basis("GL", (r1, s1), (r2, s2)))
        expected = math.factorial(r1 + s2) if r1 + s2 == r2 + s1 else 0
        assert count == expected


def check_trace_cyclicity(rng: random.Random, full: bool):
    for flavor in ("S", "O", "GL"):
        for _ in range(15 if full else 6):
            x = _random_sig(rng, flavor)
            y = _random_sig(rng, flavor)
            f = random_morphism(rng, x, y)
            g = random_morphism(rng, y, x)
            assert trace(compose(f, g)) == trace(compose(g, f))


def check_dimension_multiplicativity(rng: random.Random, full: bool):
    for flavor in ("S", "O", "GL"):
        for _ in range(6):
            a = _random_sig(rng, flavor)
            b = _random_sig(rng, flavor)
            assert dimension(a.tensor(b)) == dimension(a) * dimension(b)
    assert dimension(sig_s(3)) == t_power(3)
    assert dimension(sig_gl(2, 1)) == t_power(3)
    assert dimension(sig_o(2)) == t_power(2)


def check_e_delta_roundtrip(rng: random.Random, full: bool):
    pi = diagrams.partition_diagram(1, 1, [(1,), (-1,)])
    merged = diagrams.partition_diagram(1, 1, [(1, -1)])
    assert e_to_delta(diagram_morphism(pi)).terms == {
        pi: RF_ONE,
        merged: RF_ONE,
    }
    assert delta_to_e(diagram_morphism(pi)).terms == {
        pi: RF_ONE,
        merged: -RF_ONE,
    }
    for _ in range(12 if full else 5):
        l, m = rng.randint(0, 2), rng.randint(0, 2)
        f = random_morphism(rng, sig_s(l), sig_s(m), nterms=3)
        assert delta_to_e(e_to_delta(f)) == f
        assert e_to_delta(delta_to_e(f)) == f


def check_zigzag_identities(rng: random.Random, full: bool):
    for m in range(1, 4):
        for make in (sig_s, sig_o):
            sig = make(m)
            left = compose(
                tensor(identity(sig), homspaces.ev(sig)),
                tensor(homspaces.coev(sig), identity(sig)),
            )
            assert left == identity(sig), f"zig-zag failed on {sig}"
    for r, s in [(1, 0), (0, 1), (1, 1), (2, 1)]:
        sig = sig_gl(r, s)
        left = compose(
            tensor(identity(sig), homspaces.ev(sig)),
            tensor(homspaces.coev(sig), identity(sig)),
        )
        assert left == identity(sig), f"zig-zag failed on {sig}"


def check_swap_involution(rng: random.Random, full: bool):
    for flavor in ("S", "O", "GL"):
        for _ in range(6):
            a = _random_sig(rng, flavor)
            b = _random_sig(rng, flavor)
            fwd = homspaces.swap(a, b)
            back = homspaces.swap(b, a)
            assert compose(back, fwd) == identity(a.tensor(b))


def check_young_idempotency(rng: random.Random, full: bool):
    top = 4 if full else 3
    for n in range(1, top + 1):
        for lam in partitions_of(n):
            y = karoubi.young_symmetrizer(lam)
            assert karoubi.is_idempotent(y), f"y_{lam} not idempotent"
    # primitivity of y_(2,1) inside the group algebra of S_3: y FS_3 y is the
    # image of the idempotent x -> y x y, whose trace sum_sigma [sigma](y sigma y)
    # is its dimension, 1
    y = karoubi.young_symmetrizer((2, 1))
    total = RatFunc(0)
    for sigma in itertools.permutations(range(1, 4)):
        perm = karoubi.permutation_morphism(sigma)
        (d,) = perm.terms
        total += compose(y, compose(perm, y)).terms.get(d, 0)
    assert total == 1


def check_special_p(rng: random.Random, full: bool):
    for n in range(2, 5):
        p = karoubi.special_p(n)
        assert karoubi.is_idempotent(p)
    # p e_sigma p lies in the embedded smaller partition algebra (n = 3)
    p = karoubi.special_p(3)
    for sigma in itertools.permutations(range(1, 4)):
        f = compose(p, compose(karoubi.permutation_morphism(sigma), p))
        for d in f.terms:
            merged_top = any({2, 3} <= set(b) for b in d.blocks)
            merged_bot = any({-2, -3} <= set(b) for b in d.blocks)
            assert merged_top and merged_bot


def check_promote_idempotent(rng: random.Random, full: bool):
    pi = diagrams.partition_diagram(1, 1, [(1,), (-1,)])
    f = diagram_morphism(pi) / RF_T
    cases = [
        identity(sig_s(0)),
        f,
        identity(sig_s(1)) - f,
        karoubi.young_symmetrizer((2,)),
        identity(sig_gl(0, 0)),
    ]
    for idem in cases:
        lifted = karoubi.promote(idem)
        assert karoubi.is_idempotent(lifted)
        assert trace(lifted) == trace(idem)  # promoted object is isomorphic
    lifted = karoubi.promote(identity(sig_gl(0, 0)))
    assert karoubi.is_idempotent(karoubi.promote(lifted))
    # t = 0 variants compose exactly without 1/t factors
    for idem in (identity(sig_s(1)), karoubi.young_symmetrizer((2,))):
        lifted = karoubi.promote(idem, t_is_zero=True)
        assert karoubi.is_idempotent(lifted)
    for idem in (identity(sig_gl(1, 0)), identity(sig_gl(1, 1))):
        lifted = karoubi.promote(idem, t_is_zero=True)
        assert karoubi.is_idempotent(lifted)


def check_decomposition_accounting(rng: random.Random, full: bool):
    cases = [
        ("S", karoubi.KaroubiObject(sig_s(2), karoubi.young_symmetrizer((2,)))),
        ("S", karoubi.KaroubiObject(sig_s(2), karoubi.young_symmetrizer((1, 1)))),
        ("GL", karoubi.object_of_identity(sig_gl(1, 1))),
        ("O", karoubi.object_of_identity(sig_o(2))),
    ]
    if full:
        cases.append(("S", karoubi.object_of_identity(sig_s(2))))
    for flavor, X in cases:
        total = RatFunc(0)
        for lam, mult in karoubi.decompose(X).items():
            total = total + mult * karoubi.dim_simple(lam, flavor)
        assert total == trace(X.idem), f"accounting failed for {X.sig}"


def check_dim_hook_agreement(rng: random.Random, full: bool):
    top = 3 if full else 2
    for size in range(1, top + 1):
        for lam in partitions_of(size):
            poly = karoubi.dim_simple(lam)
            for n in range(size + lam[0], 13):
                assert poly.eval(n) == hook_content_dimension(lam, n)
    assert karoubi.dim_simple(((1,), (1,)), "GL").eval(5) == gl_weyl_dimension(
        ((1,), (1,)), 5
    )


def check_gram_rank_nullity(rng: random.Random, full: bool):
    det = semisimplify.gram_determinant_symbolic(1, 1)
    assert det == t_power(3) - t_power(2)
    for l in range(3):
        for m in range(3 - l):
            for t0 in (0, 1, 2, Fraction(5, 2)):
                rep = semisimplify.gram(l, m, t0)
                assert rep.rank + rep.nullity == bell_number(l + m)


def check_noninteger_nondegenerate(rng: random.Random, full: bool):
    top = 5 if full else 4
    for t0 in (Fraction(5, 2), Fraction(7, 3)):
        for l in range(top + 1):
            for m in range(top - l + 1):
                rep = semisimplify.gram(l, m, t0)
                assert rep.nullity == 0, f"degenerate at {t0} on Hom([{l}],[{m}])"


def check_quotient_matches_classical(rng: random.Random, full: bool):
    top = 4 if full else 3
    for l in range(top + 1):
        for m in range(top - l + 1):
            for n in range(5):
                assert semisimplify.quotient_dim(l, m, n) == oracle.hom_dim_classical(
                    l, m, n
                ), (l, m, n)


def check_negligible_absorption(rng: random.Random, full: bool):
    rounds = 60 if full else 12
    hits = 0
    attempts = 0
    while hits < rounds and attempts < rounds * 20:
        attempts += 1
        t0 = rng.choice([0, 1, 2])
        l, m = rng.randint(0, 2), rng.randint(0, 2)
        null = semisimplify.negligible_basis(l, m, t0)
        if not null:
            continue
        coeffs = [rng.randint(-3, 3) for _ in null]
        f = homspaces.zero_morphism(sig_s(l), sig_s(m))
        for c, vec in zip(coeffs, null):
            f = f + vec.scale(c)
        if f.is_zero():
            continue
        hits += 1
        assert semisimplify.is_negligible(f, t0)
        k = rng.randint(0, 2)
        g = random_morphism(rng, sig_s(k), sig_s(l))
        assert semisimplify.is_negligible(compose(f, g), t0)
        h = random_morphism(rng, sig_s(m), sig_s(k))
        assert semisimplify.is_negligible(compose(h, f), t0)
        w = random_morphism(rng, sig_s(1), sig_s(1))
        assert semisimplify.is_negligible(tensor(f, w), t0)
    assert hits >= rounds // 2, "not enough negligible samples drawn"


def check_annihilated_simples(rng: random.Random, full: bool):
    assert semisimplify.annihilated_simples(2, 2) == [(2,), (1, 1)]
    assert semisimplify.annihilated_simples(0, 1) == [(1,)]
    assert semisimplify.annihilated_simples(5, 2) == []
    # killed simples have zero classical dimension at t = n in the window
    for n in range(4):
        for lam in semisimplify.annihilated_simples(n, 2):
            poly = karoubi.dim_simple(lam)
            value = poly.eval(n)
            classical = (
                hook_content_dimension(lam, n) if n - sum(lam) >= lam[0] else None
            )
            assert classical is None or classical == value


def check_oracle_homomorphism(rng: random.Random, full: bool):
    top, ns = (4, (2, 3, 4)) if full else (3, (2, 3))
    for l in range(top + 1):
        for m in range(top - l + 1):
            for k in range(top - m + 1):
                for n in ns:
                    rep = oracle.verify_structure_constants(l, m, k, n)
                    assert rep["passed"], (l, m, k, n, rep["violations"][:1])
    rep = oracle.verify_structure_constants(
        sig_gl(1, 1), sig_gl(1, 1), sig_gl(1, 1), 2, "GL"
    )
    assert rep["passed"]
    rep = oracle.verify_structure_constants(2, 2, 2, 2, "O")
    assert rep["passed"]


def check_ematrix_coarsening_sum(rng: random.Random, full: bool):
    for _ in range(10 if full else 4):
        l, m = rng.randint(0, 2), rng.randint(0, 2)
        n = rng.randint(1, 3)
        p = rng.choice(diagrams.enumerate_basis("S", l, m))
        lhs = oracle.e_matrix(p, n)
        deltas = [oracle.delta_matrix(c, n) for c in diagrams.coarsenings(p)]
        assert lhs == [list(map(sum, zip(*rows))) for rows in zip(*deltas)]


def check_functor_rank_agreement(rng: random.Random, full: bool):
    pi = diagrams.partition_diagram(1, 1, [(1,), (-1,)])
    std = karoubi.KaroubiObject(sig_s(1), identity(sig_s(1)) - diagram_morphism(pi) / RF_T)
    for n in range(2, 9 if full else 6):
        assert oracle.functor_image_rank(std, n) == n - 1
    X = karoubi.KaroubiObject(sig_s(2), karoubi.young_symmetrizer((2,)))
    for n in range(4, 7):
        assert oracle.functor_image_rank(X, n) == trace(X.idem).eval(n)


def check_hom_dim_stability(rng: random.Random, full: bool):
    for l in range(3):
        for m in range(3 - l):
            for n in range(l + m, l + m + 2):
                if n == 0:
                    continue
                assert oracle.hom_dim_classical(l, m, n) == bell_number(l + m)


def check_lr_vs_straightening(rng: random.Random, full: bool):
    top = 5 if full else 4
    for total in range(top + 1):
        for mu, nu, expansion in schur_products_expanded(total):
            for lam in partitions_of(total):
                assert symfun.lr_coefficient(lam, mu, nu) == expansion.get(lam, 0), (
                    lam,
                    mu,
                    nu,
                )


def check_lr_symmetry_and_degree(rng: random.Random, full: bool):
    for _ in range(60 if full else 25):
        lam = rng.choice(partitions_of(rng.randint(0, 6)))
        mu = rng.choice(partitions_of(rng.randint(0, 4)))
        nu = rng.choice(partitions_of(rng.randint(0, 4)))
        assert symfun.lr_coefficient(lam, mu, nu) == symfun.lr_coefficient(lam, nu, mu)
        if sum(mu) + sum(nu) != sum(lam):
            assert symfun.lr_coefficient(lam, mu, nu) == 0


def check_pairing_hall_oracle(rng: random.Random, full: bool):
    top = 3 if full else 2
    shapes = [lam for k in range(top + 1) for lam in partitions_of(k)]
    for lam in shapes:
        for mu in shapes:
            for nu in sub_partitions(lam):
                for nubar in sub_partitions(mu):
                    got = symfun.skew_schur_pairing(lam, nu, mu, nubar)
                    want = hall_pairing_by_expansion(lam, nu, mu, nubar)
                    assert got == want, (lam, nu, mu, nubar)


def check_osp_orthogonality(rng: random.Random, full: bool):
    shapes = [lam for k in range(4) for lam in partitions_of(k)]
    for lam in shapes:
        for mu in shapes:
            value = symfun.osp_multiplicity(lam, mu, ())
            assert value == (1 if lam == mu else 0), (lam, mu)


def check_triple_roundtrip(rng: random.Random, full: bool):
    top = 8 if full else 6
    for size in range(top + 1):
        for lam in partitions_of(size):
            d = len([1 for i, row in enumerate(lam) if row >= i + 1])
            for k in range(d + 1):
                for l in range(d + 1):
                    try:
                        tp = symfun.triple_encode(lam, k, l)
                    except ValueError:
                        continue
                    assert symfun.triple_decode(tp) == lam, (lam, k, l)


def check_moment_additivity(rng: random.Random, full: bool):
    for _ in range(20 if full else 8):
        b1 = [rng.randint(-4, 4) for _ in range(rng.randint(0, 2))]
        b2 = [rng.randint(-4, 4) for _ in range(rng.randint(0, 2))]
        c1 = [rng.randint(-4, 4) for _ in range(rng.randint(0, 2))]
        c2 = [rng.randint(-4, 4) for _ in range(rng.randint(0, 2))]
        joint = symfun.char_difference_forward(b1 + b2, c1 + c2, "gl", 5)
        left = symfun.char_difference_forward(b1, c1, "gl", 5)
        right = symfun.char_difference_forward(b2, c2, "gl", 5)
        for k in range(1, 6):
            assert joint.values[k] == left.values[k] + right.values[k]


def check_telescoping(rng: random.Random, full: bool):
    for m in range(1, 9):
        for k in range(1, 9):
            total = sum(symfun.pk(i, k) for i in range(m))
            assert total == Fraction(m) ** k


def check_char_search_roundtrip(rng: random.Random, full: bool):
    rounds = 30 if full else 8
    done = 0
    while done < rounds:
        r, s = rng.randint(0, 2), rng.randint(0, 2)
        if r == s == 0:
            continue
        b = sorted(rng.randint(-5, 5) for _ in range(r))
        c = sorted(rng.randint(-5, 5) for _ in range(s))
        if any(x + 1 == y for x in b for y in c):
            continue  # cancelling pair: moments cannot see it
        moments = symfun.char_difference_forward(b, c, "gl", r + s + 3)
        found = symfun.search_decomposition(moments, r, s, 5)
        assert found == (tuple(b), tuple(c)), (b, c, found)
        done += 1


def check_hc_stabilization(rng: random.Random, full: bool):
    cases = [
        (symfun.ShiftData((0,), (), (), ()), ((1,), (1,))),
        (symfun.ShiftData((1,), (), (), ()), ((1,), (2,))),
        (symfun.ShiftData((0,), (0,), (1,), (1,)), ((1,), (1,))),
        (symfun.ShiftData((-1,), (), (), ()), ((2,), (1,))),
        (symfun.ShiftData((), (1,), (1,), ()), ((1,), (1, 1))),
    ]
    if full:
        cases += [
            (symfun.ShiftData((0,), (), (2,), (1,)), ((2,), (1,))),
            (symfun.ShiftData((1, -1), (), (), ()), ((1,), (1,))),
        ]
    ns = (11, 14)
    for shift, (nu, nubar) in cases:
        stable = symfun.stable_hc_multiplicity(shift, (nu, nubar), "gl")
        for n in ns:
            lam, mu = symfun.shift_instance(shift, n)
            assert symfun.gl_mixed_multiplicity(lam, mu, nu, nubar) == stable
    osp_cases = [
        (symfun.ShiftData((0,), (), (), ()), (2,)),
        (symfun.ShiftData((0,), (), (1,), (1,)), (1, 1)),
    ]
    for shift, nu in osp_cases:
        stable = symfun.stable_hc_multiplicity(shift, nu, "osp")
        for n in ns:
            lam, mu = symfun.shift_instance(shift, n)
            assert symfun.osp_multiplicity(lam, mu, nu) == stable


CHECKS = [
    ("field_axioms", check_field_axioms),
    ("eval_homomorphism", check_eval_homomorphism),
    ("interpolation_roundtrip", check_interpolation_roundtrip),
    ("composition_associativity", check_composition_associativity),
    ("interchange_law", check_interchange_law),
    ("refinement_partial_order", check_refinement_partial_order),
    ("closure_flip_invariance", check_closure_flip_invariance),
    ("basis_counts", check_basis_counts),
    ("trace_cyclicity", check_trace_cyclicity),
    ("dimension_multiplicativity", check_dimension_multiplicativity),
    ("e_delta_roundtrip", check_e_delta_roundtrip),
    ("zigzag_identities", check_zigzag_identities),
    ("swap_involution", check_swap_involution),
    ("young_idempotency", check_young_idempotency),
    ("special_p", check_special_p),
    ("promote_idempotent", check_promote_idempotent),
    ("decomposition_accounting", check_decomposition_accounting),
    ("dim_hook_agreement", check_dim_hook_agreement),
    ("gram_rank_nullity", check_gram_rank_nullity),
    ("noninteger_nondegenerate", check_noninteger_nondegenerate),
    ("quotient_matches_classical", check_quotient_matches_classical),
    ("negligible_absorption", check_negligible_absorption),
    ("annihilated_simples", check_annihilated_simples),
    ("oracle_homomorphism", check_oracle_homomorphism),
    ("ematrix_coarsening_sum", check_ematrix_coarsening_sum),
    ("functor_rank_agreement", check_functor_rank_agreement),
    ("hom_dim_stability", check_hom_dim_stability),
    ("lr_vs_straightening", check_lr_vs_straightening),
    ("lr_symmetry_and_degree", check_lr_symmetry_and_degree),
    ("pairing_hall_oracle", check_pairing_hall_oracle),
    ("osp_orthogonality", check_osp_orthogonality),
    ("triple_roundtrip", check_triple_roundtrip),
    ("moment_additivity", check_moment_additivity),
    ("telescoping", check_telescoping),
    ("char_search_roundtrip", check_char_search_roundtrip),
    ("hc_stabilization", check_hc_stabilization),
]


def run_selftest(level: str = "quick", seed: int = 0) -> dict:
    """Run every named invariant check; returns the deterministic report."""
    if level not in ("quick", "full"):
        raise ValueError("selftest level must be 'quick' or 'full'")
    full = level == "full"
    results = []
    failures = 0
    for name, fn in CHECKS:
        rng = random.Random(f"{seed}:{name}")
        try:
            fn(rng, full)
            results.append({"name": name, "status": "pass"})
        except AssertionError as exc:
            failures += 1
            results.append({"name": name, "status": "fail", "detail": str(exc)})
        except Exception as exc:  # a crashing check is reported, not fatal
            failures += 1
            detail = f"{type(exc).__name__}: {exc}"
            results.append({"name": name, "status": "error", "detail": detail})
    return {
        "level": level,
        "seed": seed,
        "checks": results,
        "counts": {"pass": len(CHECKS) - failures, "fail": failures},
    }
