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
from interpcat.diagrams import PartitionDiagram
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


class TestSelftestRefusals:
    """Each raise of selftest that no other tier-1 test reached: the CLI's
    --level choices keep a bad level from run_selftest, and the oracles
    are given valid input by their checks."""

    @pytest.mark.parametrize(
        "make, error, message",
        [
            (lambda: selftest.run_selftest("bogus"), ValueError,
             "selftest level must be 'quick' or 'full'"),
            (lambda: selftest.hook_content_dimension((2,), 2), ValueError,
             r"padding invalid: n = 2 too small for \(2,\)"),
            # x_2, not symmetric in x_1 and x_2
            (lambda: selftest._schur_expand({(0, 1): 1}, 2), AssertionError,
             r"non-symmetric leading term \(0, 1\)"),
        ],
        ids=["level", "padding", "non-symmetric"],
    )
    def test_raises(self, make, error, message):
        with pytest.raises(error, match=message):
            make()


ENDO_S1 = {"source": {"flavor": "S", "m": 1}, "target": {"flavor": "S", "m": 1}}


# moments of b = (2,), c = () for char-search
MOMENTS = json.dumps({"flavor": "gl", "values": {"1": "1", "2": "5", "3": "19"}})
IDENTITY_S1 = json.dumps(
    {**ENDO_S1, "terms": [{"coeff": "1", "diagram": {"flavor": "S", "top": 1, "bottom": 1, "blocks": [[1, -1]]}}]}
)
HC_ARGS = ["hc-stable", "--a", "[0]", "--b", "[]", "--gamma", "[]", "--delta", "[]", "--nu", "[1]", "--nubar", "[1]"]


# one valid call per command under MAX_LR_SIZE, keyed by its name and
# flavor; each "[1]" is a partition the budget test swaps for a column
LR_CALLS = {
    "pairing": ["--lambda", "[1]", "--nu", "[]", "--mu", "[1]", "--nubar", "[]"],
    "mult-gl": ["--lambda", "[1]", "--mu", "[1]", "--nu", "[]", "--nubar", "[]"],
    "mult-osp": ["--lambda", "[1]", "--mu", "[1]", "--nu", "[]"],
    "hc-stable gl": ["--a", "[0]", "--b", "[]", "--gamma", "[1]", "--delta", "[1]",
                     "--nu", "[1]", "--nubar", "[1]"],
    "hc-stable osp": ["--flavor", "osp", "--a", "[0]", "--b", "[]", "--gamma", "[1]",
                      "--delta", "[1]", "--nu", "[1]"],
}
PARTITION_FLAGS = {"--lambda", "--mu", "--nu", "--nubar", "--gamma", "--delta"}


class TestExitCodes:
    def test_negative_multiplicity_exit_1(self, capsys, monkeypatch):
        # the guard in the K inversion: ranks too small for K are an error
        y = run_json(capsys, "young", "--lambda", "[1]")
        k_of = {(1,): {(): 5}}
        monkeypatch.setattr(karoubi, "_symmetrizer_decomposition", lambda flavor, lam: k_of.get(lam, {}))
        assert main(["decompose", "-f", json.dumps(y)]) == 1
        assert "negative multiplicity of L((1,))" in capsys.readouterr().err

    def test_trace_guard_exit_1(self, capsys, monkeypatch):
        # the promoted y_(1) has terms that are not permutations, so it takes
        # the trace route: a loop on every composite of the sandwich puts t
        # into the trace of e_Y o - o e_X, so _hom_dim's check that the trace
        # is a dimension fails; compose, and so promote and KaroubiObject's
        # idempotency check, is untouched
        y = run_json(capsys, "promote", "-f", json.dumps(run_json(capsys, "young", "--lambda", "[1]")))
        compose_terms = karoubi._compose_terms

        def with_a_loop(fs, gs):
            return {d: c * RF_T for d, c in compose_terms(fs, gs).items()}

        monkeypatch.setattr(karoubi, "_compose_terms", with_a_loop)
        assert main(["decompose", "-f", json.dumps(y)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the trace ") and "Traceback" not in err

    def test_fixed_point_guard_exit_1(self, capsys, monkeypatch):
        # y_(2) is a sum of permutations, so it takes the fixed-point route;
        # a count of 1 + (number of cycles of x) gives its two classes, the
        # identity and the transposition, 3 and 2: the sum 5 against Y_() is
        # not a multiple of n_X n_Y = 2, so it is not a dimension
        y = run_json(capsys, "young", "--lambda", "[2]")
        fixed = classmethod(lambda cls, target, source: 1 + len(source))
        monkeypatch.setattr(PartitionDiagram, "_fixed_count", fixed)
        assert main(["decompose", "-f", json.dumps(y)]) == 1
        assert capsys.readouterr().err == (
            "error: the trace 5/2 of e_Y o - o e_X is not a dimension\n"
        )

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

    def test_oversized_negligible_refused_up_front(self, capsys):
        # is_negligible scanned every basis diagram of Hom(target, source):
        # 2.3 s for the identity of [5], and Bell(8) = 4140 diagrams for [4]
        def identity_of(m):
            diagram = {"flavor": "S", "top": m, "bottom": m,
                       "blocks": [[i, -i] for i in range(1, m + 1)]}
            return json.dumps({"source": {"flavor": "S", "m": m}, "target": {"flavor": "S", "m": m},
                               "terms": [{"diagram": diagram, "coeff": "1"}]})

        limit = semisimplify.MAX_GRAM_BASIS
        assert limit == 300
        start = time.perf_counter()
        assert main(["negligible", "-f", identity_of(4), "--t", "2"]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert f"Gram budget exceeded: at most {limit} basis diagrams" in err and "4140" in err
        # Hom([3], [3]) has 203 diagrams, under the budget
        assert run_json(capsys, "negligible", "-f", identity_of(3), "--t", "2") == {
            "negligible": False
        }

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

    def test_lr_budget_exit_1(self, capsys):
        # the fill visits every LR tableau: c = 108,048 at |lambda| = 66 took
        # 4.3 s, and a column of 4000 boxes ran out of recursion depth
        limit = cli.MAX_LR_SIZE
        assert limit == 50
        at = ["--lambda", "[10,9,8,7,6,5,4,1]", "--mu", "[6,5,4,3,2,1,1]", "--nu", "[7,6,5,4,3,2,1]"]
        assert run_json(capsys, "lr", *at) == {"coefficient": 1616}
        over = [
            ("[11,9,8,7,6,5,4,1]", "[6,5,4,3,2,1,1]", "[7,6,5,4,3,2,1]"),
            ("[11,10,9,8,7,6,5,4,3,2,1]", "[8,7,6,5,4,3]", "[8,7,6,5,4,2,1]"),
            (json.dumps([1] * 4000), json.dumps([1] * 2000), json.dumps([1] * 2000)),
        ]
        for lam, mu, nu in over:
            start = time.perf_counter()
            assert main(["lr", "--lambda", lam, "--mu", mu, "--nu", nu]) == 1
            assert time.perf_counter() - start < 1.0
            size = sum(json.loads(lam))
            assert capsys.readouterr().err == f"error: lr budget exceeded: |lambda| = {size} > MAX_LR_SIZE = {limit}\n"

    @pytest.mark.parametrize(
        "command, flag",
        [(command, flag) for command, argv in LR_CALLS.items() for flag in argv if flag in PARTITION_FLAGS],
    )
    def test_lr_size_budget_of_every_partition_exit_1(self, capsys, command, flag):
        # each ran out of recursion depth on a long column and printed a
        # RecursionError traceback with exit 1
        argv = list(LR_CALLS[command])
        argv[argv.index(flag) + 1] = json.dumps([1] * 3000)
        start = time.perf_counter()
        assert main([command.split()[0], *argv]) == 1
        assert time.perf_counter() - start < 1.0
        name, limit = flag[2:], cli.MAX_LR_SIZE
        assert capsys.readouterr().err == (
            f"error: {command.split()[0]} budget exceeded: |{name}| = 3000 > MAX_LR_SIZE = {limit}\n"
        )

    @pytest.mark.parametrize("command", list(LR_CALLS))
    def test_lr_size_budget_admits_the_limit(self, capsys, command):
        column = json.dumps([1] * cli.MAX_LR_SIZE)
        argv = [column if x == "[1]" else x for x in LR_CALLS[command]]
        assert main([command.split()[0], *argv]) == 0, capsys.readouterr().err

    @pytest.mark.parametrize(
        "a, b, err",
        [
            ([0] * 3000, [], "len(a) + len(b) = 3000 > MAX_HC_ARMS = 50"),
            ([0] * 26, [0] * 25, "len(a) + len(b) = 51 > MAX_HC_ARMS = 50"),
        ],
        ids=["3000-zeros", "just-over"],
    )
    def test_hc_arms_budget_exit_1(self, capsys, monkeypatch, a, b, err):
        # each arm is one level of _vectors_with_sum's recursion: 3,000
        # zeros in --a once ended in a RecursionError traceback
        assert cli.MAX_HC_ARMS == 50
        monkeypatch.setattr(symfun, "stable_hc_multiplicity", None)  # never runs
        argv = ["--a", json.dumps(a), "--b", json.dumps(b)] + HC_ARGS[5:]
        start = time.perf_counter()
        assert main([HC_ARGS[0], *argv]) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == f"error: hc-stable budget exceeded: {err}\n"

    def test_hc_arms_budget_admits_the_limit(self, capsys):
        argv = ["--a", json.dumps([0] * 25), "--b", json.dumps([0] * 25)] + HC_ARGS[5:]
        assert run_json(capsys, HC_ARGS[0], *argv) == {"multiplicity": 50}

    @pytest.mark.parametrize(
        "argv, err",
        [
            # the instance's lambda has about 5,000 rows: a RecursionError
            # traceback once, now refused before it is built
            (["--check-n", "5000"], "|lambda| >= 5000 > MAX_LR_SIZE = 50"),
            (["--check-n", "10000000000"], "|lambda| >= 10000000000 > MAX_LR_SIZE = 50"),
            (["--b", "[-1000000000]", "--check-n", "0"], "|lambda| >= 1000000000 > MAX_LR_SIZE = 50"),
            # built, then refused: lambda = [51]
            (["--check-n", "50"], "|lambda| = 51 > MAX_LR_SIZE = 50"),
            # lambda = [45] and mu = [55]
            (["--a", "[10]", "--check-n", "35"], "|mu| = 55 > MAX_LR_SIZE = 50"),
        ],
        ids=["5000", "huge", "huge-shift", "just-over", "mu"],
    )
    def test_check_n_budget_exit_1(self, capsys, monkeypatch, argv, err):
        monkeypatch.setattr(symfun, "stable_hc_multiplicity", None)  # never runs
        if ">=" in err:
            monkeypatch.setattr(symfun, "shift_instance", None)  # never built
        call = dict(zip(HC_ARGS[1::2], HC_ARGS[2::2]))
        call.update(zip(argv[::2], argv[1::2]))
        start = time.perf_counter()
        assert main([HC_ARGS[0], *(x for item in call.items() for x in item)]) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == f"error: hc-stable budget exceeded: {err}\n"

    def test_check_n_budget_admits_the_limit(self, capsys):
        got = run_json(capsys, *HC_ARGS, "--check-n", "49")
        assert got["direct_check"] == {"n": 49, "lambda": [50], "mu": [50], "multiplicity": 1}

    @pytest.mark.parametrize(
        "arms, weight, terms",
        [(4, 38, 10660), (50, 4, 292825)],
        ids=["just-over", "50-zeros"],
    )
    def test_hc_terms_budget_exit_1(self, capsys, monkeypatch, arms, weight, terms):
        # the terms are counted before any is visited: 50 zero shifts with
        # --nu [4] --nubar [4] once ran for 39 s
        assert cli.MAX_HC_TERMS == 10_000
        monkeypatch.setattr(symfun, "stable_hc_multiplicity", None)  # never runs
        nu = json.dumps([weight])
        argv = ["--a", json.dumps([0] * arms), *HC_ARGS[3:9], "--nu", nu, "--nubar", nu]
        start = time.perf_counter()
        assert main([HC_ARGS[0], *argv]) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"error: hc-stable budget exceeded: the stable sum has {terms} terms"
            " > MAX_HC_TERMS = 10000\n"
        )

    def test_hc_terms_budget_admits_the_limit(self, capsys):
        # 4 zero shifts of weight 37: C(40, 3) = 9,880 terms, each 1
        argv = ["--a", "[0, 0, 0, 0]", *HC_ARGS[3:9], "--nu", "[37]", "--nubar", "[37]"]
        assert run_json(capsys, HC_ARGS[0], *argv) == {"multiplicity": 9880}

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["trace", "-f", "@{tmp}/missing.json"], "-f: cannot read file {tmp}/missing.json: "),
            (["trace", "-f", "@{tmp}/bad.json"], "-f: file {tmp}/bad.json is not valid JSON: "),
            (["trace", "-f", "{tmp}/bad.json"], "-f: file {tmp}/bad.json is not valid JSON: "),
            (["gram", "-l", "two", "-m", "1", "--t", "2"],
             "-l: neither inline JSON nor a readable file: 'two'\n"),
            (["simple-dim", "--lambda", "[1,2]"],
             "--lambda: (1, 2) is not a partition (weakly decreasing, positive)\n"),
            (["compose", "-P", '{"flavor":"S","top":1,"bottom":1,"blocks":[[1,-1]]}', "-Q", IDENTITY_S1],
             "-P and -Q must both be diagrams or both be morphisms\n"),
            (["negligible", "-f", IDENTITY_S1, "--t", "1/0"],
             "--t: not a rational number: '1/0'\n"),
            (["dim", "--flavor", "GL", "--r", "1"], "--r/--s: required for flavor GL\n"),
            (["dim", "--flavor", "O"], "--m: required for flavors S, O, Sp\n"),
            (["gram", "-l", "1", "-m", "1"], "--t: required unless --symbolic is given\n"),
            (["triple", "--mode", "encode", "-k", "1", "-l", "1"], "--lambda: required for encode\n"),
            (HC_ARGS[:-2], "--nubar: required for flavor gl\n"),
            (["young", "--flavor", "GL", "--lambda", '{"white": [1]}'],
             "--lambda.black: missing bipartition component\n"),
            (["simple-dim", "--flavor", "GL", "--lambda", '{"black": [1]}'],
             "--lambda.white: missing bipartition component\n"),
        ],
        ids=["unreadable-file", "at-file-not-json", "file-not-json", "neither-json-nor-file",
             "not-a-partition", "mixed-operands", "bad-rational", "missing-r-s", "missing-m",
             "missing-t", "missing-encode-lambda", "missing-nubar", "missing-black", "missing-white"],
    )
    def test_schema_refusals_exit_2(self, capsys, tmp_path, argv, err):
        # each raise of cli that no other tier-1 test reached
        (tmp_path / "bad.json").write_text("not json")
        assert main([x.replace("{tmp}", str(tmp_path)) for x in argv]) == 2
        got = capsys.readouterr().err
        assert got.startswith("schema error: " + err.replace("{tmp}", str(tmp_path)))
        assert "Traceback" not in got
        assert got.endswith("\n") and got.count("\n") == 1

    @pytest.mark.parametrize(
        "flavor, endpoint, message",
        [
            ("GL", "3", "object endpoint 3 does not fit flavor GL"),
            ("GL", "[1]", "object endpoint [1] does not fit flavor GL"),
            ("GL", "[1,-1]", "object endpoint [1, -1] has a negative count"),
            ("GL", '{"r": 1, "s": 0}', "object endpoint {'r': 1, 's': 0} is not an integer or a tuple of integers"),
            # the grammar takes a bare integer for S and O, where a signature also takes [m]
            ("S", "[1]", "expected a nonnegative integer"),
            ("O", "[2]", "expected a nonnegative integer"),
        ],
    )
    def test_bad_endpoint_exit_2(self, capsys, flavor, endpoint, message):
        # the GL cases said "GL endpoints are [r, s] pairs"; their text is now
        # the one every signature entry point gives (diagrams._endpoint)
        other = "[1,0]" if flavor == "GL" else "2"
        assert main(["gram", "--flavor", flavor, "-l", endpoint, "-m", other, "--t", "2"]) == 2
        assert capsys.readouterr().err == f"schema error: -l: {message}\n"

    def test_empty_block_exit_2(self, capsys):
        # an empty block crashed with an IndexError while the blocks were sorted
        empty = '{"flavor":"S","top":1,"bottom":1,"blocks":[[1,-1],[]]}'
        assert main(["trace", "-f", empty]) == 2
        assert capsys.readouterr().err == "schema error: -f: partition diagram has an empty block\n"

    @pytest.mark.parametrize("command", ["compose", "tensor"])
    @pytest.mark.parametrize(
        "bad, other",
        [
            ({"flavor": "S", "top": -1, "bottom": 0, "blocks": []},
             {"flavor": "S", "top": 1, "bottom": 1, "blocks": [[1, -1]]}),
            ({"flavor": "O", "top": -2, "bottom": 0, "blocks": []},
             {"flavor": "O", "top": 1, "bottom": 1, "blocks": [[1, -1]]}),
        ],
    )
    def test_negative_diagram_endpoint_exit_2(self, capsys, command, bad, other):
        # both exited 0: tensor printed a diagram with "top": -1 and a block [-1, -1]
        assert main([command, "-P", json.dumps(bad), "-Q", json.dumps(other)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error: -P: ") and "Traceback" not in err
        assert "negative count" in err

    def test_negative_diagram_endpoint_in_a_trace_exit_2(self, capsys):
        # exited 1 with "bad signature data (-1,) for flavor S"
        payload = {"flavor": "S", "top": -1, "bottom": -1, "blocks": []}
        assert main(["trace", "-f", json.dumps(payload)]) == 2
        assert capsys.readouterr().err == "schema error: -f: object endpoint -1 has a negative count\n"

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


NO_NUMPY_SCRIPT = """
import contextlib, io, sys
import interpcat.cli
assert "numpy" not in sys.modules, "import interpcat.cli"
for argv in (
    ["dim", "--flavor", "S", "--m", "2"],
    ["lr", "--lambda", "[2,1]", "--mu", "[1]", "--nu", "[1,1]"],
    ["oracle-check", "-l", "2", "-m", "1", "-k", "2", "--n", "3"],
    ["selftest", "--level", "quick"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert interpcat.cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
"""


class TestSubprocess:
    def test_no_command_imports_numpy(self):
        # the package is stdlib only: neither its import nor these commands,
        # the matrix oracle's included, load numpy
        proc = subprocess.run([sys.executable, "-c", NO_NUMPY_SCRIPT], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

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
