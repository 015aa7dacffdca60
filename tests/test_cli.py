"""CLI surface: subcommand outputs, wire-format round-trips, exit codes."""

import json
import os
import random
import subprocess
import sys
import time

import pytest

from interpcat import cli, karoubi, selftest, semisimplify, symfun
from interpcat.cli import main
from interpcat.ratfunc import RF_T

WORKED_P = {"flavor": "S", "top": 3, "bottom": 6, "blocks": [[1, 3, -2], [2, -4, -5], [-1], [-3, -6]]}
WORKED_Q = {"flavor": "S", "top": 6, "bottom": 2, "blocks": [[1, 3], [2, -2], [4, -1], [5], [6]]}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


class TestCompose:
    def test_worked_example_inline(self, capsys):
        got = run_json(
            capsys, "compose", "--flavor", "S", "-P", json.dumps(WORKED_P), "-Q", json.dumps(WORKED_Q)
        )
        assert got["t_power"] == 1
        assert got["diagram"]["blocks"] == [[1, 3, -2], [2, -1]]

    def test_worked_example_files(self, capsys, tmp_path):
        p = tmp_path / "P.json"
        q = tmp_path / "Q.json"
        p.write_text(json.dumps(WORKED_P))
        q.write_text(json.dumps(WORKED_Q))
        got = run_json(capsys, "compose", "-P", str(p), "-Q", str(q))
        assert got["t_power"] == 1

    def test_at_prefix(self, capsys, tmp_path):
        p = tmp_path / "P.json"
        p.write_text(json.dumps(WORKED_P))
        got = run_json(capsys, "tensor", "-P", f"@{p}", "-Q", f"@{p}")
        assert got["diagram"]["top"] == 6

    def test_mismatch_is_domain_error(self, capsys):
        code, _ = run_cli(capsys, "compose", "-P", json.dumps(WORKED_P), "-Q", json.dumps(WORKED_P))
        assert code == 1

    def test_bad_payload_is_schema_error(self, capsys):
        code, _ = run_cli(capsys, "compose", "-P", '{"flavor":"S"}', "-Q", json.dumps(WORKED_Q))
        assert code == 2

    def test_flavor_mismatch_is_schema_error(self, capsys):
        code, _ = run_cli(
            capsys, "compose", "--flavor", "O", "-P", json.dumps(WORKED_P), "-Q", json.dumps(WORKED_Q)
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["compose", "tensor"])
    def test_mixed_flavor_diagrams_are_schema_error(self, capsys, command):
        s_diagram = {"flavor": "S", "top": 1, "bottom": 1, "blocks": [[1, -1]]}
        o_diagram = {"flavor": "O", "top": 1, "bottom": 1, "blocks": [[1, -1]]}
        code = main([command, "-P", json.dumps(s_diagram), "-Q", json.dumps(o_diagram)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "schema error: -Q: diagram has flavor O, -P has flavor S\n"


class TestScalarCommands:
    def test_simple_dim_spec_output(self, capsys):
        code, out = run_cli(capsys, "simple-dim", "--flavor", "S", "--lambda", "[2]")
        assert code == 0
        assert out.strip() == '"(t^2 - 3*t)/(2)"'

    def test_gram_spec_values(self, capsys):
        got = run_json(capsys, "gram", "-l", "1", "-m", "1", "--t", "1", "--flavor", "S")
        assert got["rank"] == 1 and got["nullity"] == 1

    def test_gram_symbolic(self, capsys):
        got = run_json(capsys, "gram", "-l", "1", "-m", "1", "--symbolic")
        assert got["gram"][0] == ["(t)/(1)", "(t)/(1)"]
        assert got["t0"] is None

    def test_dim_flavors(self, capsys):
        assert run_json(capsys, "dim", "--flavor", "S", "--m", "3") == {"dimension": "(t^3)/(1)"}
        assert run_json(capsys, "dim", "--flavor", "GL", "--r", "2", "--s", "1") == {
            "dimension": "(t^3)/(1)"
        }
        assert run_json(capsys, "dim", "--flavor", "Sp", "--m", "1") == {"dimension": "(-t)/(1)"}

    def test_lr(self, capsys):
        assert run_json(capsys, "lr", "--lambda", "[3]", "--mu", "[2]", "--nu", "[1]") == {
            "coefficient": 1
        }

    def test_quotient_dim(self, capsys):
        got = run_json(capsys, "quotient-dim", "-l", "2", "-m", "2", "--n", "2")
        assert got == {"dim": 8}

    def test_oracle_check(self, capsys):
        got = run_json(capsys, "oracle-check", "-l", "1", "-m", "1", "-k", "1", "--n", "3")
        assert got["passed"] is True

    def test_char_roundtrip_via_cli(self, capsys):
        moments = run_json(capsys, "char-moments", "--b", "[2]", "--c", "[]", "-K", "6")
        got = run_json(capsys, "char-search", "--moments", json.dumps(moments), "-r", "1", "-s", "0")
        assert got == {"b": [2], "c": []}

    def test_mult_commands(self, capsys):
        assert run_json(
            capsys, "mult-gl", "--lambda", "[1]", "--mu", "[1]", "--nu", "[1]", "--nubar", "[1]"
        ) == {"multiplicity": 1}
        assert run_json(capsys, "mult-osp", "--lambda", "[1]", "--mu", "[1]", "--nu", "[1,1]") == {
            "multiplicity": 1
        }

    def test_hc_stable_with_check(self, capsys):
        got = run_json(
            capsys,
            "hc-stable",
            "--a", "[0]", "--b", "[]", "--gamma", "[]", "--delta", "[]",
            "--nu", "[1]", "--nubar", "[1]", "--check-n", "11",
        )
        assert got["multiplicity"] == 1
        assert got["direct_check"]["multiplicity"] == 1


class TestMorphismCommands:
    def test_young_then_idem_check(self, capsys):
        y = run_json(capsys, "young", "--lambda", "[2,1]")
        got = run_json(capsys, "idem-check", "-f", json.dumps(y))
        assert got == {"idempotent": True}

    def test_young_then_decompose(self, capsys):
        y = run_json(capsys, "young", "--lambda", "[2]")
        got = run_json(capsys, "decompose", "-f", json.dumps(y))
        assert got == {
            "terms": [
                {"lambda": [], "mult": 2},
                {"lambda": [1], "mult": 2},
                {"lambda": [2], "mult": 1},
            ]
        }

    def test_gl_bipartition_path(self, capsys):
        y = run_json(capsys, "young", "--lambda", '{"black":[1],"white":[1]}', "--flavor", "GL")
        got = run_json(capsys, "decompose", "-f", json.dumps(y))
        assert got == {
            "terms": [
                {"lambda": {"black": [], "white": []}, "mult": 1},
                {"lambda": {"black": [1], "white": [1]}, "mult": 1},
            ]
        }
        code, out = run_cli(
            capsys, "simple-dim", "--flavor", "GL", "--lambda", '{"black":[1],"white":[1]}'
        )
        assert code == 0 and out.strip() == '"(t^2 - 1)/(1)"'

    def test_flavor_label_mismatch(self, capsys):
        code, _ = run_cli(capsys, "simple-dim", "--flavor", "GL", "--lambda", "[2]")
        assert code == 2

    def test_promote_then_trace(self, capsys):
        y = run_json(capsys, "young", "--lambda", "[1]")
        lifted = run_json(capsys, "promote", "-f", json.dumps(y))
        got = run_json(capsys, "trace", "-f", json.dumps(lifted))
        assert got == {"trace": "(t)/(1)"}

    def test_basis_change_roundtrip(self, capsys):
        y = run_json(capsys, "young", "--lambda", "[2]")
        delta = run_json(capsys, "basis-change", "--to", "delta", "-f", json.dumps(y))
        assert delta["basis"] == "delta"
        back = run_json(capsys, "basis-change", "--to", "e", "-f", json.dumps(delta))
        assert back["terms"] == y["terms"]

    def test_functor_rank(self, capsys):
        y = run_json(capsys, "young", "--lambda", "[2]")
        got = run_json(capsys, "functor-rank", "-f", json.dumps(y), "--n", "3")
        assert got == {"rank": 6}

    def test_negligible(self, capsys):
        blob = {
            "source": {"flavor": "S", "m": 1},
            "target": {"flavor": "S", "m": 1},
            "terms": [
                {"diagram": {"flavor": "S", "top": 1, "bottom": 1, "blocks": [[1, -1]]}, "coeff": "1"},
                {"diagram": {"flavor": "S", "top": 1, "bottom": 1, "blocks": [[1], [-1]]}, "coeff": "-1"},
            ],
        }
        assert run_json(capsys, "negligible", "-f", json.dumps(blob), "--t", "1") == {
            "negligible": True
        }
        assert run_json(capsys, "negligible", "-f", json.dumps(blob), "--t", "2") == {
            "negligible": False
        }

    def test_emitted_json_reparses(self, capsys):
        # every JSON the CLI emits is accepted back bit-exactly
        y = run_json(capsys, "young", "--lambda", "[2,1]")
        code, out1 = run_cli(capsys, "idem-check", "-f", json.dumps(y))
        code, out2 = run_cli(capsys, "idem-check", "-f", json.dumps(y))
        assert out1 == out2


class TestTripleCommand:
    def test_encode(self, capsys):
        got = run_json(
            capsys, "triple", "--mode", "encode", "--lambda", "[5,4,2,1]", "-k", "1", "-l", "1"
        )
        assert got == {"alpha": [4], "beta": [3], "gamma": [3, 1], "k": 1, "l": 1}

    def test_decode(self, capsys):
        got = run_json(
            capsys,
            "triple", "--mode", "decode",
            "--alpha", "[4]", "--beta", "[3]", "--gamma", "[3,1]", "-k", "1", "-l", "1",
        )
        assert got == {"lambda": [5, 4, 2, 1]}

    def test_decode_missing_field(self, capsys):
        code, _ = run_cli(capsys, "triple", "--mode", "decode", "--alpha", "[4]", "-k", "1", "-l", "1")
        assert code == 2


class TestSelftestCommand:
    def test_quick_passes(self, capsys):
        got = run_json(capsys, "selftest", "--level", "quick", "--seed", "7")
        assert got["counts"]["fail"] == 0
        names = [c["name"] for c in got["checks"]]
        assert "e_delta_roundtrip" in names

    def test_seed_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("INTERPCAT_SEED", "123")
        got = run_json(capsys, "selftest", "--level", "quick")
        assert got["seed"] == 123

    def test_bad_seed_env_is_schema_error(self, capsys, monkeypatch):
        monkeypatch.setenv("INTERPCAT_SEED", "abc")
        assert main(["selftest", "--level", "quick"]) == 2
        assert "INTERPCAT_SEED" in capsys.readouterr().err

    def test_bad_seed_env_spares_other_commands(self, capsys, monkeypatch):
        monkeypatch.setenv("INTERPCAT_SEED", "abc")
        got = run_json(capsys, "lr", "--lambda", "[2,1]", "--mu", "[1]", "--nu", "[1,1]")
        assert got == {"coefficient": 1}

    def test_crashing_check_is_reported(self, capsys, monkeypatch):
        def check_crash(rng, full):
            raise ZeroDivisionError("division by zero")

        checks = [selftest.CHECKS[0], ("crash", check_crash)]
        monkeypatch.setattr(selftest, "CHECKS", checks)
        code, out = run_cli(capsys, "selftest", "--level", "quick")
        assert code == 1
        got = json.loads(out)
        assert got["counts"] == {"pass": 1, "fail": 1}
        assert got["checks"][1] == {
            "name": "crash",
            "status": "error",
            "detail": "ZeroDivisionError: division by zero",
        }


ENDO_S1 = {"source": {"flavor": "S", "m": 1}, "target": {"flavor": "S", "m": 1}}


# moments of b = (2,), c = () for char-search
MOMENTS = json.dumps({"flavor": "gl", "values": {"1": "1", "2": "5", "3": "19"}})
IDENTITY_S1 = json.dumps(
    {**ENDO_S1, "terms": [{"coeff": "1", "diagram": {"flavor": "S", "top": 1, "bottom": 1, "blocks": [[1, -1]]}}]}
)
HC_ARGS = ["hc-stable", "--a", "[0]", "--b", "[]", "--gamma", "[]", "--delta", "[]", "--nu", "[1]", "--nubar", "[1]"]


class TestExitCodes:
    def test_negative_multiplicity_exit_1(self, capsys, monkeypatch):
        # the guard in the K inversion: ranks too small for K are an error
        y = run_json(capsys, "young", "--lambda", "[1]")
        k_of = {(1,): {(): 5}}
        monkeypatch.setattr(karoubi, "_symmetrizer_decomposition", lambda flavor, lam: k_of.get(lam, {}))
        assert main(["decompose", "-f", json.dumps(y)]) == 1
        assert "negative multiplicity of L((1,))" in capsys.readouterr().err

    def test_trace_guard_exit_1(self, capsys, monkeypatch):
        # a loop on every composite of the sandwich puts t into the trace of
        # e_Y o - o e_X, so _hom_dim's check that the trace is a dimension
        # fails; compose, and so KaroubiObject's idempotency check, is untouched
        y = run_json(capsys, "young", "--lambda", "[1]")
        compose_terms = karoubi._compose_terms

        def with_a_loop(fs, gs):
            return {d: c * RF_T for d, c in compose_terms(fs, gs).items()}

        monkeypatch.setattr(karoubi, "_compose_terms", with_a_loop)
        assert main(["decompose", "-f", json.dumps(y)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the trace ") and "Traceback" not in err

    def test_symbolic_gram_rank_guard_exit_1(self, capsys, monkeypatch):
        # two equal rows of exponents: the rank at t = 1/2 is not full
        monkeypatch.setattr(semisimplify, "_pairing_exponents", lambda *key: (b"\1\1", b"\1\1"))
        assert main(["gram", "-l", "1", "-m", "1", "--symbolic"]) == 1
        assert capsys.readouterr().err == "error: Gram rank of Hom(S[1], S[1]) at t = 1/2: 1 < 2\n"

    @pytest.mark.parametrize(
        "field, argv",
        [
            ("-K", ["char-moments", "--b", "[1]", "-K", "-3"]),
            ("-r", ["char-search", "--moments", MOMENTS, "-r", "-1", "-s", "0"]),
            ("-s", ["char-search", "--moments", MOMENTS, "-r", "1", "-s", "-1"]),
            ("-B", ["char-search", "--moments", MOMENTS, "-r", "1", "-s", "0", "-B", "-2"]),
            ("--n", ["quotient-dim", "-l", "2", "-m", "2", "--n", "-1"]),
            ("--n", ["oracle-check", "-l", "1", "-m", "1", "-k", "1", "--n", "-1"]),
            ("--n", ["functor-rank", "-f", IDENTITY_S1, "--n", "-1"]),
            ("--check-n", HC_ARGS + ["--check-n", "-5"]),
            ("-k", ["triple", "--mode", "encode", "--lambda", "[5,4,2,1]", "-k", "-1", "-l", "1"]),
            ("-l", ["triple", "--mode", "encode", "--lambda", "[5,4,2,1]", "-k", "1", "-l", "-1"]),
            ("-k", ["triple", "--mode", "decode", "--alpha", "[4]", "--beta", "[3]", "--gamma", "[3,1]",
                    "-k", "-1", "-l", "1"]),
            ("-l", ["triple", "--mode", "decode", "--alpha", "[4]", "--beta", "[3]", "--gamma", "[3,1]",
                    "-k", "1", "-l", "-1"]),
        ],
    )
    def test_negative_count_exit_2(self, capsys, field, argv):
        # -K -3 printed no moments and -B -2 searched an empty box, both with
        # exit 0; the --n, --check-n, -k and -l cases failed deeper, with exit 1
        assert main(argv) == 2
        assert capsys.readouterr().err == f"schema error: {field}: expected a nonnegative integer\n"

    def test_oversized_gram_refused_up_front(self, capsys):
        start = time.perf_counter()
        code = main(["gram", "-l", "4", "-m", "4", "--t", "2"])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("values", [[1, 2], "x"])
    def test_char_search_non_object_values_exit_2(self, capsys, values):
        moments = json.dumps({"flavor": "gl", "values": values})
        assert main(["char-search", "--moments", moments, "-r", "1", "-s", "0"]) == 2
        assert capsys.readouterr().err.startswith("schema error: --moments: ")

    def test_char_search_degree_below_one_exit_2(self, capsys):
        moments = json.dumps({"flavor": "gl", "values": {"-1": "1", "0": "0", "1": "1"}})
        assert main(["char-search", "--moments", moments, "-r", "1", "-s", "0"]) == 2
        assert "schema error: --moments: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, argv",
        [
            ("--lambda", ["lr", "--lambda", "[true]", "--mu", "[]", "--nu", "[1]"]),
            ("--lambda", ["simple-dim", "--lambda", "[true]"]),
            ("--a", ["hc-stable", "--a", "[true]", "--b", "[]", "--gamma", "[]", "--delta", "[]",
                     "--nu", "[1]", "--nubar", "[2]"]),
            ("-l", ["quotient-dim", "-l", "true", "-m", "1", "--n", "3"]),
            ("-l", ["gram", "--flavor", "GL", "-l", "[true, 0]", "-m", "[1, 0]", "--t", "2"]),
            ("-P", ["compose", "-P", '{"flavor":"S","top":true,"bottom":1,"blocks":[[1,-1]]}',
                    "-Q", '{"flavor":"S","top":1,"bottom":1,"blocks":[[1,-1]]}']),
            ("-P", ["compose", "-P", '{"flavor":"S","top":1,"bottom":1,"blocks":[[true,-1]]}',
                    "-Q", '{"flavor":"S","top":1,"bottom":1,"blocks":[[1,-1]]}']),
            ("-f", ["idem-check", "-f", json.dumps({
                "source": {"flavor": "S", "m": True}, "target": {"flavor": "S", "m": 1},
                "terms": [{"diagram": {"flavor": "S", "top": 1, "bottom": 1, "blocks": [[1, -1]]},
                           "coeff": "1"}]})]),
            ("-f", ["idem-check", "-f", json.dumps({
                "source": {"flavor": "GL", "r": True, "s": 0},
                "target": {"flavor": "GL", "r": 1, "s": 0},
                "terms": [{"diagram": {"flavor": "GL", "top": 1, "bottom": 1, "blocks": [[1, -1]],
                                       "top_colors": "1", "bottom_colors": "1"},
                           "coeff": "1"}]})]),
        ],
    )
    def test_booleans_are_not_integers(self, capsys, field, argv):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"schema error: {field}: ")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["idem-check", "-f", json.dumps({
                "source": {"flavor": "S", "m": 1}, "target": {"flavor": "S", "m": 1},
                "terms": [{"diagram": {"flavor": "S", "top": 1, "bottom": 1, "blocks": [[1, -1]]},
                           "coeff": 5}]})],
             "-f: morphism JSON field 'terms[0].coeff' must be a string"),
            (["compose",
              "-P", '{"flavor":"GL","top":1,"bottom":1,"blocks":[[1,-1]],'
                    '"top_colors":1,"bottom_colors":"1"}',
              "-Q", '{"flavor":"GL","top":1,"bottom":1,"blocks":[[1,-1]],'
                    '"top_colors":"1","bottom_colors":"1"}'],
             "-P: diagram JSON field 'top_colors' must be a string"),
        ],
    )
    def test_non_string_fields_exit_2(self, capsys, argv, message):
        # both crashed with an AttributeError (text.strip(), colors.count)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"schema error: {message}\n"

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({**ENDO_S1, "terms": None}, "morphism JSON field 'terms' must be an array"),
            ({**ENDO_S1, "terms": [3]}, "morphism JSON field 'terms[0]' must be an object"),
            ({"flavor": "S", "top": 1, "bottom": 1, "blocks": True},
             "diagram JSON field 'blocks' must be an array"),
            ({"flavor": "S", "top": 1, "bottom": 1, "blocks": [3]},
             "diagram JSON field 'blocks[0]' must be an array"),
            (3, "diagram JSON must be an object"),
        ],
    )
    def test_wrong_json_type_names_the_field(self, capsys, payload, message):
        # each printed a bare Python TypeError ("'NoneType' object is not
        # iterable", "argument of type 'int' is not iterable", ...)
        assert main(["trace", "-f", json.dumps(payload)]) == 2
        assert capsys.readouterr().err == f"schema error: -f: {message}\n"

    def test_type_error_from_a_parser_is_a_schema_error(self):
        # the safety net for a parser that raises before its field checks
        def parse(payload):
            raise TypeError("unnamed field")

        with pytest.raises(cli.SchemaError, match="^-f: unnamed field$"):
            cli._from_json(parse, {}, "-f")

    def test_moment_degree_budget_exit_1(self, capsys):
        limit = symfun.MAX_MOMENT_DEGREE
        assert run_json(capsys, "char-moments", "--b", "[2]", "--c", "[1]", "-K", str(limit))
        message = f"error: moment degree budget exceeded: {limit + 1} > MAX_MOMENT_DEGREE = {limit}\n"
        assert main(["char-moments", "--b", "[2]", "-K", str(limit + 1)]) == 1
        assert capsys.readouterr().err == message
        moments = json.dumps({"flavor": "gl", "values": {str(k): "1" for k in range(1, limit + 2)}})
        assert main(["char-search", "--moments", moments, "-r", "1", "-s", "0"]) == 1
        assert capsys.readouterr().err == message
        # ran for more than 20 s before the budget
        start = time.perf_counter()
        assert main(["char-moments", "--b", "[2]", "-K", "100000"]) == 1
        assert time.perf_counter() - start < 1.0
        assert "MAX_MOMENT_DEGREE" in capsys.readouterr().err

    def test_moment_size_budget_exit_1(self, capsys):
        # at K = 50, 10^100 used to compute every moment and then fail on
        # printing one of over 4300 digits; 2^279 + 1 has 280 bits and
        # 2^280 has 281, so 50 * 280 is the limit itself
        limit, K = symfun.MAX_MOMENT_BITS, symfun.MAX_MOMENT_DEGREE
        assert limit == 50 * 280
        got = run_json(capsys, "char-moments", "--b", f"[{2**279}]", "-K", str(K))
        assert len(got["values"]) == K
        for entry in (2**280 - 1, 10**100):
            start = time.perf_counter()
            assert main(["char-moments", "--b", f"[{entry}]", "-K", str(K)]) == 1
            assert time.perf_counter() - start < 1.0
            assert f"> MAX_MOMENT_BITS = {limit}" in capsys.readouterr().err

    def test_symmetrizer_budget_exit_1(self, capsys):
        # [7] has 7! terms, the limit itself; [3, 3, 2] has 3!3!2! * 3!3!2! =
        # 5184 and black [5], white [4, 1] has 5! * 4! 2! = 5760; [9] ran for
        # over 20 s before the budget
        limit = karoubi.MAX_SYMMETRIZER_TERMS
        assert limit == 5040
        got = run_json(capsys, "young", "--lambda", "[7]")
        assert len(got["terms"]) == limit
        over = [
            ("S", "[3,3,2]", 5184),
            ("O", "[9]", 362880),
            ("GL", '{"black":[5],"white":[4,1]}', 5760),
        ]
        for flavor, lam, terms in over:
            start = time.perf_counter()
            assert main(["young", "--flavor", flavor, "--lambda", lam]) == 1
            assert time.perf_counter() - start < 1.0
            err = capsys.readouterr().err
            assert f"{terms} terms > MAX_SYMMETRIZER_TERMS = {limit}" in err

    def test_dimension_budget_exit_1(self, capsys):
        # --m 1000000 built a dense polynomial of 10^6 coefficients in 1.5 s
        limit = cli.MAX_DIMENSION_DEGREE
        assert limit == 10_000
        at = {
            "S": ["--m", str(limit)],
            "O": ["--m", str(limit)],
            "Sp": ["--m", str(limit)],
            "GL": ["--r", str(limit - 1), "--s", "1"],
        }
        for flavor, argv in at.items():
            # the limit is even, so Sp's (-t)^m is t^m as well
            got = run_json(capsys, "dim", "--flavor", flavor, *argv)
            assert got == {"dimension": f"(t^{limit})/(1)"}
        over = {
            "S": ["--m", str(limit + 1)],
            "O": ["--m", str(limit + 1)],
            "Sp": ["--m", str(limit + 1)],
            "GL": ["--r", str(limit // 2), "--s", str(limit // 2 + 1)],
        }
        for flavor, argv in over.items():
            start = time.perf_counter()
            assert main(["dim", "--flavor", flavor, *argv]) == 1
            assert time.perf_counter() - start < 1.0
            err = capsys.readouterr().err
            assert err == f"error: dimension budget exceeded: degree {limit + 1} > MAX_DIMENSION_DEGREE = {limit}\n"

    def test_empty_block_exit_2(self, capsys):
        # an empty block crashed with an IndexError while the blocks were sorted
        empty = '{"flavor":"S","top":1,"bottom":1,"blocks":[[1,-1],[]]}'
        assert main(["trace", "-f", empty]) == 2
        assert capsys.readouterr().err == "schema error: -f: partition diagram has an empty block\n"

    @pytest.mark.parametrize(
        "field, argv",
        [
            ("--m", ["--flavor", "S", "--m", "-1"]),
            ("--m", ["--flavor", "Sp", "--m", "-1"]),
            ("--r", ["--flavor", "GL", "--r", "-1", "--s", "0"]),
            ("--s", ["--flavor", "GL", "--r", "1", "--s", "-2"]),
        ],
    )
    def test_negative_dim_endpoint_exit_2(self, capsys, field, argv):
        # the text _endpoint gives; Sp no longer reaches flavor O
        assert main(["dim", *argv]) == 2
        assert capsys.readouterr().err == f"schema error: {field}: expected a nonnegative integer\n"

    def test_oversized_search_refused_up_front(self, capsys):
        moments = json.dumps({"flavor": "gl", "values": {str(k): "1" for k in range(1, 9)}})
        start = time.perf_counter()
        code = main(["char-search", "--moments", moments, "-r", "3", "-s", "3", "-B", "60"])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert "budget" in capsys.readouterr().err


# valid payloads for the type fuzz
S_DIAGRAM = {"flavor": "S", "top": 1, "bottom": 1, "blocks": [[1, -1]]}
O_DIAGRAM = {"flavor": "O", "top": 1, "bottom": 1, "blocks": [[1, -1]]}
GL_DIAGRAM = {"flavor": "GL", "top": 2, "bottom": 2, "blocks": [[1, -1], [2, -2]],
              "top_colors": "10", "bottom_colors": "10"}
S_MORPHISM = {"source": {"flavor": "S", "m": 1}, "target": {"flavor": "S", "m": 1},
              "terms": [{"diagram": S_DIAGRAM, "coeff": "1"}]}
GL_MORPHISM = {"source": {"flavor": "GL", "r": 1, "s": 1}, "target": {"flavor": "GL", "r": 1, "s": 1},
               "terms": [{"diagram": GL_DIAGRAM, "coeff": "(1)/(t)"}]}

# one valid call per subcommand with payload flags; every argument that is
# not a str is a payload, passed as inline JSON
FUZZ_CALLS = [
    ["compose", "-P", GL_DIAGRAM, "-Q", GL_DIAGRAM],
    ["tensor", "-P", S_MORPHISM, "-Q", S_MORPHISM],
    ["trace", "-f", O_DIAGRAM],
    ["basis-change", "--to", "delta", "-f", S_MORPHISM],
    ["idem-check", "-f", GL_MORPHISM],
    ["young", "--flavor", "GL", "--lambda", {"black": [1], "white": [1]}],
    ["promote", "-f", S_MORPHISM],
    ["simple-dim", "--lambda", [1]],
    ["decompose", "-f", S_MORPHISM],
    ["gram", "--flavor", "GL", "-l", [1, 0], "-m", [1, 0], "--t", "2"],
    ["negligible", "-f", S_MORPHISM, "--t", "1"],
    ["quotient-dim", "-l", 1, "-m", 1, "--n", "2"],
    ["oracle-check", "-l", 1, "-m", 1, "-k", 1, "--n", "2"],
    ["functor-rank", "-f", S_MORPHISM, "--n", "2"],
    ["lr", "--lambda", [2, 1], "--mu", [1], "--nu", [2]],
    ["pairing", "--lambda", [2, 1], "--nu", [1], "--mu", [2, 1], "--nubar", [1]],
    ["mult-gl", "--lambda", [1], "--mu", [1], "--nu", [1], "--nubar", [1]],
    ["mult-osp", "--lambda", [2, 1], "--mu", [1], "--nu", [2]],
    ["triple", "--mode", "encode", "--lambda", [2, 1], "-k", "1", "-l", "1"],
    ["triple", "--mode", "decode", "--alpha", [1], "--beta", [1], "--gamma", [], "-k", "1", "-l", "1"],
    ["hc-stable", "--a", [0], "--b", [], "--gamma", [], "--delta", [], "--nu", [1], "--nubar", [1]],
    ["char-moments", "--b", [2], "--c", [1]],
    ["char-search", "--moments", {"flavor": "gl", "values": {"1": "1", "2": "5", "3": "19"}},
     "-r", "1", "-s", "0"],
]

# values of each JSON type a field is swapped to; no huge integers, as no
# entry point has a size budget for them yet
TYPE_SAMPLES = {
    "number": [0, 2, -1, 0.5],
    "string": ["", "x", "[1]"],
    "list": [[], [0], ["a"], [[1]]],
    "object": [{}, {"a": 1}, {"flavor": "S"}],
    "boolean": [True, False],
    "null": [None],
}

# swaps that give a valid payload: a moment value is a rational, as a JSON
# string or a JSON number
VALID_SWAPS = {("char-search", "--moments", ("values", k), "number") for k in "123"}


def _json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    for name, kind in (("number", (int, float)), ("string", str), ("list", list)):
        if isinstance(value, kind):
            return name
    return "object"


def _paths(value, path=()):
    """The key path of every node of a JSON value, the root included."""
    yield path
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


def _replaced(value, path, new):
    """A copy of value with the node at path replaced by new."""
    if not path:
        return new
    out = dict(value) if isinstance(value, dict) else list(value)
    out[path[0]] = _replaced(value[path[0]], path[1:], new)
    return out


def _strict_from_json(parse, payload, field):
    """cli._from_json without its TypeError mapping."""
    try:
        return parse(payload)
    except ValueError as exc:
        raise cli.SchemaError(f"{field}: {exc}") from exc


class TestPayloadTypeFuzz:
    """Every field of every payload flag, swapped for a value of each other
    JSON type, is refused with exit 1 or 2; no exception escapes main, and
    no bare Python TypeError reaches the schema-error mapping: the payload
    parsers raise ValueErrors that name the field."""

    @pytest.mark.parametrize("call", FUZZ_CALLS, ids=lambda call: " ".join(x for x in call[:3] if isinstance(x, str)))
    def test_wrong_types_exit_1_or_2(self, capsys, monkeypatch, call):
        # one parser for all calls: building it is most of a refused call's time
        parser = cli.build_parser()
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        monkeypatch.setattr(cli, "_from_json", _strict_from_json)
        argv = [x if isinstance(x, str) else json.dumps(x) for x in call]
        assert main(argv) == 0, capsys.readouterr().err
        rng = random.Random(19)
        swaps = 0
        for i, payload in enumerate(call):
            if isinstance(payload, str):
                continue
            for path in _paths(payload):
                node = payload
                for key in path:
                    node = node[key]
                for kind, samples in TYPE_SAMPLES.items():
                    if kind == _json_type(node) or (call[0], call[i - 1], path, kind) in VALID_SWAPS:
                        continue
                    bad = json.dumps(_replaced(payload, path, rng.choice(samples)))
                    code = main(argv[:i] + [bad] + argv[i + 1:])
                    assert code in (1, 2), (call[i - 1], path, bad, capsys.readouterr())
                    swaps += 1
        capsys.readouterr()
        assert swaps >= 5


class TestSubprocess:
    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "interpcat", "lr", "--lambda", "[2,1]", "--mu", "[1]", "--nu", "[1,1]"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"coefficient": 1}

    def test_closed_stdout_exit_1_without_traceback(self):
        # the read end is closed before the process starts, so its one
        # write to stdout meets a broken pipe, as under `| head -c 100`
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "interpcat", "gram", "-l", "2", "-m", "2", "--flavor", "O", "--symbolic"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr and "Error" not in proc.stderr

    def test_usage_error_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "interpcat", "no-such-command"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    def test_domain_error_exit_1(self):
        proc = subprocess.run(
            [sys.executable, "-m", "interpcat", "simple-dim", "--lambda", "[7]"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "budget" in proc.stderr
