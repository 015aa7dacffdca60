"""Command-line front end: stable JSON in, stable JSON out.

Every payload flag accepts inline JSON, a path to a JSON file, or @path.
All numeric output is exact (rationals and rational-function strings); the
flag grammar is frozen in docs/cli.md.  Exit codes: 0 success, 1 domain
error, 2 usage or schema error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from interpcat import diagrams, homspaces, karoubi, oracle, semisimplify, symfun
from interpcat.homspaces import (
    as_signature,
    compose,
    diagram_morphism,
    dimension,
    morphism_from_json,
    morphism_to_json,
    trace,
)
from interpcat.partitions import check_partition, is_int
from interpcat.ratfunc import format_ratfunc
from interpcat.selftest import run_selftest


class SchemaError(ValueError):
    """Payload violates the wire format; reported with the field path."""


def _load_payload(text: str, field: str):
    if text.startswith("@"):
        path = text[1:]
        try:
            with open(path) as fh:
                return json.load(fh)
        except OSError as exc:
            raise SchemaError(f"{field}: cannot read file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{field}: file {path} is not valid JSON: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        pass
    if os.path.exists(text):
        try:
            with open(text) as fh:
                return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{field}: file {text} is not valid JSON: {exc}") from exc
    raise SchemaError(f"{field}: neither inline JSON nor a readable file: {text!r}")


def _partition(payload, field: str) -> tuple[int, ...]:
    if not isinstance(payload, list) or not all(is_int(x) for x in payload):
        raise SchemaError(f"{field}: expected a JSON array of integers")
    try:
        return check_partition(payload)
    except ValueError as exc:
        raise SchemaError(f"{field}: {exc}") from exc


def _label(payload, field: str, flavor: str):
    """Partition array for S and O, {"black": [...], "white": [...]}
    bipartition for GL."""
    if isinstance(payload, dict) != (flavor == "GL"):
        raise SchemaError(f"{field}: flavor GL takes a bipartition, S/O a partition")
    if flavor == "GL":
        for sub in ("black", "white"):
            if sub not in payload:
                raise SchemaError(f"{field}.{sub}: missing bipartition component")
        return (_partition(payload["black"], f"{field}.black"),
                _partition(payload["white"], f"{field}.white"))
    return _partition(payload, field)


def _from_json(parse, payload, field: str):
    """parse(payload), reporting a malformed payload as a schema error."""
    try:
        return parse(payload)
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"{field}: {exc}") from exc


def _morphism(text: str, field: str):
    return _from_json(morphism_from_json, _load_payload(text, field), field)


def _diagram_or_morphism(text: str, field: str):
    payload = _load_payload(text, field)
    if isinstance(payload, dict) and "terms" in payload:
        return ("morphism", _from_json(morphism_from_json, payload, field))
    return ("diagram", _from_json(diagrams.diagram_from_json, payload, field))


def _endpoint(text: str, flavor: str, field: str):
    """An int for S/O or an [r, s] pair for GL, as a signature."""
    payload = _load_payload(text, field)
    if flavor != "GL":
        # the grammar takes a bare int, where a signature also takes [m]
        _nonnegative(payload, field)
    return _from_json(lambda x: as_signature(x, flavor), payload, field)


def _nonnegative(value, field: str) -> int:
    if not is_int(value) or value < 0:
        raise SchemaError(f"{field}: expected a nonnegative integer")
    return value


def _rational(text: str, field: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{field}: not a rational number: {text!r}") from exc


def _emit(obj):
    text = json.dumps(obj, sort_keys=True, indent=None, separators=(",", ": "))
    print(text, flush=True)


def _label_to_json(lam, flavor: str):
    if flavor == "GL":
        return {"black": list(lam[0]), "white": list(lam[1])}
    return list(lam)


# -- subcommand handlers -----------------------------------------------------


def _check_flavor(stated: str | None, value, field: str):
    if stated is None:
        return
    actual = value.source.flavor if isinstance(value, homspaces.Morphism) else value.flavor
    if actual != stated:
        raise SchemaError(f"{field}: payload has flavor {actual}, --flavor says {stated}")


def _operands(args):
    """-P and -Q of compose and tensor: both diagrams or both morphisms, of
    the --flavor if one is stated; two diagrams must share their flavor."""
    kind_p, p = _diagram_or_morphism(args.P, "-P")
    kind_q, q = _diagram_or_morphism(args.Q, "-Q")
    if kind_p != kind_q:
        raise SchemaError("-P and -Q must both be diagrams or both be morphisms")
    _check_flavor(args.flavor, p, "-P")
    _check_flavor(args.flavor, q, "-Q")
    if kind_p == "diagram" and p.flavor != q.flavor:
        raise SchemaError(f"-Q: diagram has flavor {q.flavor}, -P has flavor {p.flavor}")
    return kind_p, p, q


def cmd_compose(args):
    kind, p, q = _operands(args)
    if kind == "diagram":
        d, power = diagrams.compose_diagrams(q, p)  # -P acts first
        return {"diagram": diagrams.diagram_to_json(d), "t_power": power}
    return morphism_to_json(compose(q, p))


def cmd_tensor(args):
    kind, p, q = _operands(args)
    if kind == "diagram":
        return {"diagram": diagrams.diagram_to_json(diagrams.tensor_diagram(p, q))}
    return morphism_to_json(homspaces.tensor(p, q))


def cmd_trace(args):
    kind, f = _diagram_or_morphism(args.morphism, "-f")
    if kind == "diagram":
        f = diagram_morphism(f)
    if args.flavor == "Sp":
        value = homspaces.sp_trace(f)
    else:
        _check_flavor(args.flavor, f, "-f")
        value = trace(f)
    return {"trace": format_ratfunc(value)}


# dim [m] = t^m is a dense polynomial with m + 1 coefficients, built from the
# identity diagram on m strands: --m 1000000 ran for 1.5 s in 260 MB
MAX_DIMENSION_DEGREE = 10_000


def cmd_dim(args):
    flavor = args.flavor
    if flavor == "GL":
        if args.r is None or args.s is None:
            raise SchemaError("--r/--s: required for flavor GL")
        endpoint = (_nonnegative(args.r, "--r"), _nonnegative(args.s, "--s"))
        degree = sum(endpoint)
    else:
        if args.m is None:
            raise SchemaError("--m: required for flavors S, O, Sp")
        endpoint = degree = _nonnegative(args.m, "--m")
    if degree > MAX_DIMENSION_DEGREE:
        raise ValueError(
            f"dimension budget exceeded: degree {degree}"
            f" > MAX_DIMENSION_DEGREE = {MAX_DIMENSION_DEGREE}"
        )
    if flavor == "Sp":
        value = homspaces.sp_dimension(endpoint)
    else:
        value = dimension(as_signature(endpoint, flavor))
    return {"dimension": format_ratfunc(value)}


def cmd_basis_change(args):
    f = _morphism(args.morphism, "-f")
    if args.to == "delta":
        out = homspaces.e_to_delta(f)
    else:
        out = homspaces.delta_to_e(f)
    return morphism_to_json(out, basis=args.to)


def cmd_idem_check(args):
    return {"idempotent": karoubi.is_idempotent(_morphism(args.morphism, "-f"))}


def cmd_young(args):
    lam = _label(_load_payload(args.lam, "--lambda"), "--lambda", args.flavor)
    terms = karoubi.symmetrizer_terms(lam, args.flavor)
    if terms > karoubi.MAX_SYMMETRIZER_TERMS:
        raise ValueError(
            f"symmetrizer budget exceeded: {terms} terms"
            f" > MAX_SYMMETRIZER_TERMS = {karoubi.MAX_SYMMETRIZER_TERMS}"
        )
    return morphism_to_json(karoubi.young_symmetrizer(lam, args.flavor))


def cmd_promote(args):
    f = _morphism(args.morphism, "-f")
    return morphism_to_json(karoubi.promote(f, t_is_zero=args.t_zero))


def cmd_simple_dim(args):
    lam = _label(_load_payload(args.lam, "--lambda"), "--lambda", args.flavor)
    return format_ratfunc(karoubi.dim_simple(lam, args.flavor))


def cmd_decompose(args):
    e = _morphism(args.morphism, "-f")
    X = karoubi.KaroubiObject(e.source, e)
    out = [
        {"lambda": _label_to_json(lam, e.source.flavor), "mult": m}
        for lam, m in sorted(karoubi.decompose(X, seed=args.seed).items())
    ]
    return {"terms": out}


def cmd_gram(args):
    flavor = args.flavor
    l = _endpoint(args.l, flavor, "-l")
    m = _endpoint(args.m, flavor, "-m")
    ls = l.data[0] if flavor != "GL" else list(l.data)
    ms = m.data[0] if flavor != "GL" else list(m.data)
    if args.symbolic:
        rep = semisimplify.gram(l, m, None, flavor)
        entries = [[format_ratfunc(v) for v in row] for row in rep.gram]
        t0_out = None
    else:
        if args.t is None:
            raise SchemaError("--t: required unless --symbolic is given")
        t0 = _rational(args.t, "--t")
        rep = semisimplify.gram(l, m, t0, flavor)
        entries = [[str(v) for v in row] for row in rep.gram]
        t0_out = str(t0)
    return {
        "l": ls,
        "m": ms,
        "flavor": flavor,
        "t0": t0_out,
        "basis": "e",
        "rank": rep.rank,
        "nullity": rep.nullity,
        "gram": entries,
    }


def cmd_negligible(args):
    f = _morphism(args.morphism, "-f")
    t0 = _rational(args.t, "--t")
    return {"negligible": semisimplify.is_negligible(f, t0)}


def cmd_quotient_dim(args):
    flavor = args.flavor
    l = _endpoint(args.l, flavor, "-l")
    m = _endpoint(args.m, flavor, "-m")
    return {"dim": semisimplify.quotient_dim(l, m, _nonnegative(args.n, "--n"), flavor)}


def cmd_oracle_check(args):
    flavor = args.flavor
    l = _endpoint(args.l, flavor, "-l")
    m = _endpoint(args.m, flavor, "-m")
    k = _endpoint(args.k, flavor, "-k")
    return oracle.verify_structure_constants(l, m, k, _nonnegative(args.n, "--n"), flavor)


def cmd_functor_rank(args):
    e = _morphism(args.morphism, "-f")
    X = karoubi.KaroubiObject(e.source, e)
    return {"rank": oracle.functor_image_rank(X, _nonnegative(args.n, "--n"))}


# The LR fill visits every LR tableau, so its time grows with the coefficient
# itself.  The worst cases found on a 2-CPU VM: |lambda| = 50, 0.11 s (c =
# 10,008); 55, 0.44 s (c = 36,624); 66, 4.3 s (c = 108,048).  The fill and
# sub_partitions recurse once per cell or row, so a column of 3000 boxes ran
# out of recursion depth in lr, pairing, mult-gl, mult-osp and hc-stable.
# For all but lr the limit bounds the depth, not the time: pairing at
# |lambda| = |mu| = 50 took 54 s, and mult-osp on three 50-box partitions
# ran for over 180 s.
MAX_LR_SIZE = 50

# Most arms, len(--a) + len(--b), that hc-stable takes.  Each arm adds one
# level to symfun._vectors_with_sum's recursion, so --a with 3,000 zeros ran
# out of recursion depth.  With --nu [1] --nubar [1] and all shifts 0, 50
# arms take 0.2 s from the CLI on a 2-CPU VM, 200 take 0.3 s and 900 take
# 15 s.  As with MAX_LR_SIZE, the limit bounds the depth, not the time.
MAX_HC_ARMS = 50

# Most terms of the stable sum that hc-stable takes (symfun.stable_hc_terms),
# counted before any term is visited: the arm vectors of each weight number
# C(w + k + l - 1, k + l - 1) over k + l arms.  With all shifts 0 and
# --nu [w] --nubar [w], 4 arms of weight 37 (9,880 terms) take 0.9 s from the
# CLI on a 2-CPU VM and 38 arms of weight 3 (9,880) 1.1 s; 50 arms of weight 4
# (292,825 terms) took 39 s, and 6 arms over gamma = delta = [3, 2] with
# nu = nubar = [6, 4, 2] (27,013 terms) 6 to 7 s.  The largest sum in use
# (the corpus, selftest, the demos, the tests and the stable benchmark) has
# 51 terms.
MAX_HC_TERMS = 10_000


def _check_lr_size(command: str, names: str, *partitions) -> None:
    """Refuse, before any work, a partition of more than MAX_LR_SIZE boxes;
    names holds each partition's name, as the message gives it."""
    for name, lam in zip(names.split(), partitions):
        if sum(lam) > MAX_LR_SIZE:
            raise ValueError(
                f"{command} budget exceeded: |{name}| = {sum(lam)} > MAX_LR_SIZE = {MAX_LR_SIZE}"
            )


def cmd_lr(args):
    lam = _partition(_load_payload(args.lam, "--lambda"), "--lambda")
    mu = _partition(_load_payload(args.mu, "--mu"), "--mu")
    nu = _partition(_load_payload(args.nu, "--nu"), "--nu")
    _check_lr_size("lr", "lambda", lam)
    return {"coefficient": symfun.lr_coefficient(lam, mu, nu)}


def cmd_pairing(args):
    lam = _partition(_load_payload(args.lam, "--lambda"), "--lambda")
    nu = _partition(_load_payload(args.nu, "--nu"), "--nu")
    mu = _partition(_load_payload(args.mu, "--mu"), "--mu")
    nubar = _partition(_load_payload(args.nubar, "--nubar"), "--nubar")
    _check_lr_size("pairing", "lambda nu mu nubar", lam, nu, mu, nubar)
    return {"value": symfun.skew_schur_pairing(lam, nu, mu, nubar)}


def cmd_mult_gl(args):
    lam = _partition(_load_payload(args.lam, "--lambda"), "--lambda")
    mu = _partition(_load_payload(args.mu, "--mu"), "--mu")
    nu = _partition(_load_payload(args.nu, "--nu"), "--nu")
    nubar = _partition(_load_payload(args.nubar, "--nubar"), "--nubar")
    _check_lr_size("mult-gl", "lambda mu nu nubar", lam, mu, nu, nubar)
    return {"multiplicity": symfun.gl_mixed_multiplicity(lam, mu, nu, nubar)}


def cmd_mult_osp(args):
    lam = _partition(_load_payload(args.lam, "--lambda"), "--lambda")
    mu = _partition(_load_payload(args.mu, "--mu"), "--mu")
    nu = _partition(_load_payload(args.nu, "--nu"), "--nu")
    _check_lr_size("mult-osp", "lambda mu nu", lam, mu, nu)
    return {"multiplicity": symfun.osp_multiplicity(lam, mu, nu)}


def cmd_triple(args):
    k, l = _nonnegative(args.k, "-k"), _nonnegative(args.l, "-l")
    if args.mode == "encode":
        if args.lam is None:
            raise SchemaError("--lambda: required for encode")
        lam = _partition(_load_payload(args.lam, "--lambda"), "--lambda")
        tp = symfun.triple_encode(lam, k, l)
        return {
            "alpha": list(tp.alpha),
            "beta": list(tp.beta),
            "gamma": list(tp.gamma),
            "k": tp.k,
            "l": tp.l,
        }
    for name in ("alpha", "beta", "gamma"):
        if getattr(args, name) is None:
            raise SchemaError(f"--{name}: required for decode")
    tp = symfun.TriplePartition(
        alpha=_partition(_load_payload(args.alpha, "--alpha"), "--alpha"),
        beta=_partition(_load_payload(args.beta, "--beta"), "--beta"),
        gamma=_partition(_load_payload(args.gamma, "--gamma"), "--gamma"),
        k=k,
        l=l,
    )
    return {"lambda": list(symfun.triple_decode(tp))}


def cmd_hc_stable(args):
    def int_vector(text, field):
        payload = _load_payload(text, field)
        if not isinstance(payload, list) or not all(is_int(x) for x in payload):
            raise SchemaError(f"{field}: expected a JSON array of integers")
        return tuple(payload)

    shift = symfun.ShiftData(
        a=int_vector(args.a, "--a"),
        b=int_vector(args.b, "--b"),
        gamma=_partition(_load_payload(args.gamma, "--gamma"), "--gamma"),
        delta=_partition(_load_payload(args.delta, "--delta"), "--delta"),
    )
    if args.flavor == "gl":
        if args.nubar is None:
            raise SchemaError("--nubar: required for flavor gl")
        nu = (
            _partition(_load_payload(args.nu, "--nu"), "--nu"),
            _partition(_load_payload(args.nubar, "--nubar"), "--nubar"),
        )
    else:
        nu = _partition(_load_payload(args.nu, "--nu"), "--nu")
    check_n = None if args.check_n is None else _nonnegative(args.check_n, "--check-n")
    nus = nu if args.flavor == "gl" else (nu,)
    _check_lr_size("hc-stable", "gamma delta nu nubar", shift.gamma, shift.delta, *nus)
    arms = shift.k + shift.l
    if arms > MAX_HC_ARMS:
        raise ValueError(
            f"hc-stable budget exceeded: len(a) + len(b) = {arms} > MAX_HC_ARMS = {MAX_HC_ARMS}"
        )
    terms = symfun.stable_hc_terms(shift, nu, args.flavor)
    if terms > MAX_HC_TERMS:
        raise ValueError(
            f"hc-stable budget exceeded: the stable sum has {terms} terms"
            f" > MAX_HC_TERMS = {MAX_HC_TERMS}"
        )
    out = {}
    if check_n is not None:
        # the instance's first arm alone has at least n plus the largest
        # |shift| boxes, so that bound refuses a large n or shift before the
        # instance is built
        least = check_n + max(map(abs, shift.a + shift.b), default=0)
        if arms and least > MAX_LR_SIZE:
            raise ValueError(
                f"hc-stable budget exceeded: |lambda| >= {least} > MAX_LR_SIZE = {MAX_LR_SIZE}"
            )
        lam, mu = symfun.shift_instance(shift, check_n)
        _check_lr_size("hc-stable", "lambda mu", lam, mu)
        if args.flavor == "gl":
            direct = symfun.gl_mixed_multiplicity(lam, mu, nu[0], nu[1])
        else:
            direct = symfun.osp_multiplicity(lam, mu, nu)
        out["direct_check"] = {
            "n": check_n,
            "lambda": list(lam),
            "mu": list(mu),
            "multiplicity": direct,
        }
    out["multiplicity"] = symfun.stable_hc_multiplicity(shift, nu, args.flavor)
    return out


def cmd_char_moments(args):
    def rational_vector(text, field):
        payload = _load_payload(text, field)
        if not isinstance(payload, list):
            raise SchemaError(f"{field}: expected a JSON array")
        try:
            return tuple(Fraction(str(x)) for x in payload)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"{field}: {exc}") from exc

    b = rational_vector(args.b, "--b")
    c = rational_vector(args.c, "--c") if args.c is not None else ()
    ms = symfun.char_difference_forward(b, c, args.flavor, _nonnegative(args.K, "-K"))
    return {
        "flavor": ms.flavor,
        "values": {str(k): str(v) for k, v in sorted(ms.values.items())},
    }


def cmd_char_search(args):
    payload = _load_payload(args.moments, "--moments")
    if not isinstance(payload, dict) or "flavor" not in payload or "values" not in payload:
        raise SchemaError("--moments: expected {flavor, values}")
    if not isinstance(payload["values"], dict):
        raise SchemaError("--moments: values must be an object mapping degrees to moments")
    try:
        values = {int(k): Fraction(str(v)) for k, v in payload["values"].items()}
        ms = symfun.MomentSequence(payload["flavor"], values)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"--moments: {exc}") from exc
    r, s = _nonnegative(args.r, "-r"), _nonnegative(args.s, "-s")
    found = symfun.search_decomposition(ms, r, s, _nonnegative(args.B, "-B"))
    if found is None:
        return {"result": None}
    return {"b": list(found[0]), "c": list(found[1])}


def cmd_selftest(args):
    seed = args.seed
    if seed is None:
        text = os.environ.get("INTERPCAT_SEED", "0")
        try:
            seed = int(text)
        except ValueError as exc:
            raise SchemaError(f"INTERPCAT_SEED: expected an integer, got {text!r}") from exc
    return run_selftest(args.level, seed)


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interpcat",
        description="Exact calculus for the interpolation categories "
        "Rep(S_t), Rep(GL_t), Rep(O_t).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("compose", cmd_compose, help="compose two diagrams or morphisms (-P acts first)")
    p.add_argument("--flavor", default=None, choices=["S", "GL", "O"])
    p.add_argument("-P", required=True, help="diagram/morphism applied first")
    p.add_argument("-Q", required=True, help="diagram/morphism applied second")

    p = add("tensor", cmd_tensor, help="tensor product of diagrams or morphisms")
    p.add_argument("--flavor", default=None, choices=["S", "GL", "O"])
    p.add_argument("-P", required=True)
    p.add_argument("-Q", required=True)

    p = add("trace", cmd_trace, help="graphical trace of an endomorphism")
    p.add_argument("-f", dest="morphism", required=True)
    p.add_argument("--flavor", default=None, choices=["S", "GL", "O", "Sp"])

    p = add("dim", cmd_dim, help="categorical dimension of an object")
    p.add_argument("--flavor", required=True, choices=["S", "GL", "O", "Sp"])
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--s", type=int, default=None)

    p = add("basis-change", cmd_basis_change, help="convert between e and delta bases")
    p.add_argument("-f", dest="morphism", required=True)
    p.add_argument("--to", required=True, choices=["e", "delta"])

    p = add("idem-check", cmd_idem_check, help="exact idempotency check")
    p.add_argument("-f", dest="morphism", required=True)

    p = add("young", cmd_young, help="normalized Young symmetrizer idempotent")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--flavor", default="S", choices=["S", "GL", "O"])

    p = add("promote", cmd_promote, help="idempotent one object size up")
    p.add_argument("-f", dest="morphism", required=True)
    p.add_argument("--t-zero", dest="t_zero", action="store_true")

    p = add("simple-dim", cmd_simple_dim, help="generic dimension of a simple object")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--flavor", default="S", choices=["S", "GL", "O"])

    p = add("decompose", cmd_decompose, help="indecomposable decomposition of ([m], e)")
    p.add_argument("-f", dest="morphism", required=True, help="idempotent morphism JSON")
    p.add_argument("--seed", type=int, default=0, help="accepted; no effect (ranks are exact)")

    p = add("gram", cmd_gram, help="Gram matrix of the trace pairing")
    p.add_argument("-l", required=True)
    p.add_argument("-m", required=True)
    p.add_argument("--t", default=None)
    p.add_argument("--flavor", default="S", choices=["S", "GL", "O"])
    p.add_argument("--symbolic", action="store_true")

    p = add("negligible", cmd_negligible, help="negligibility of a morphism at t0")
    p.add_argument("-f", dest="morphism", required=True)
    p.add_argument("--t", required=True)

    p = add("quotient-dim", cmd_quotient_dim, help="Hom dimension in the quotient at t = n")
    p.add_argument("-l", required=True)
    p.add_argument("-m", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--flavor", default="S", choices=["S", "GL", "O"])

    p = add("oracle-check", cmd_oracle_check, help="matrix verification of structure constants")
    p.add_argument("-l", required=True)
    p.add_argument("-m", required=True)
    p.add_argument("-k", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--flavor", default="S", choices=["S", "GL", "O"])

    p = add("functor-rank", cmd_functor_rank, help="classical rank of an idempotent at t = n")
    p.add_argument("-f", dest="morphism", required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("lr", cmd_lr, help="Littlewood-Richardson coefficient")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)

    p = add("pairing", cmd_pairing, help="Hall pairing of two skew Schur functions")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--nubar", required=True)

    p = add("mult-gl", cmd_mult_gl, help="stable mixed-tensor multiplicity (GL)")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--nubar", required=True)

    p = add("mult-osp", cmd_mult_osp, help="stable tensor multiplicity (O/Sp)")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)

    p = add("triple", cmd_triple, help="[alpha, beta, gamma] encoding of a partition")
    p.add_argument("--mode", required=True, choices=["encode", "decode"])
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--alpha", default=None)
    p.add_argument("--beta", default=None)
    p.add_argument("--gamma", default=None)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-l", type=int, required=True)

    p = add("hc-stable", cmd_hc_stable, help="stabilized Harish-Chandra multiplicity")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--nubar", default=None)
    p.add_argument("--flavor", default="gl", choices=["gl", "osp"])
    p.add_argument("--check-n", dest="check_n", type=int, default=None)

    p = add("char-moments", cmd_char_moments, help="forward central-character moments")
    p.add_argument("--b", required=True)
    p.add_argument("--c", default=None)
    p.add_argument("--flavor", default="gl", choices=["gl", "osp"])
    p.add_argument("-K", type=int, default=6)

    p = add("char-search", cmd_char_search, help="bounded integer moment decomposition")
    p.add_argument("--moments", required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-s", type=int, required=True)
    p.add_argument("-B", type=int, default=5)

    p = add("selftest", cmd_selftest, help="run the invariant suites")
    p.add_argument("--level", default="quick", choices=["quick", "full"])
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="property-test seed (INTERPCAT_SEED overrides the default)",
    )

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.fn(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _emit(result)
    except BrokenPipeError:
        # the reader closed stdout early: send what is left to devnull, so
        # the interpreter's flush at exit fails no second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    if args.command == "selftest" and result["counts"]["fail"]:
        failed = [c["name"] for c in result["checks"] if c["status"] != "pass"]
        print("FAILED: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
