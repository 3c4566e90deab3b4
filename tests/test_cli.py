"""End-to-end CLI tests: requests on stdin or --input, deterministic
JSON on stdout, machine-readable errors with exit status 2 (usage) or
1 (computation)."""

import io
import json
import sys
import time
from pathlib import Path

from multischur import cli, expansions
from multischur.cli import main
from multischur.exactalg import Scalar, scalar_from_json
from multischur.expansions import refined_dual_grothendieck, symfunc_from_json, symfunc_to_json
from multischur.shapes import Partition

x1 = Scalar.variable("x1")
x2 = Scalar.variable("x2")
t1 = Scalar.variable("t1")


def _invoke(monkeypatch, capsys, request, argv=()):
    text = request if isinstance(request, str) else json.dumps(request)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code = main(list(argv))
    return code, capsys.readouterr().out


MULTISCHUR_REQ = {
    "command": "multischur",
    "lambda": [1, 1],
    "bx": {"prefix": [["x1", "x2"], ["x1", "x2", "t1"]], "tail": {"kind": "empty"}},
}


def test_multischur_request(monkeypatch, capsys):
    code, out = _invoke(monkeypatch, capsys, MULTISCHUR_REQ)
    assert code == 0
    assert out.endswith("\n")
    value = scalar_from_json(json.loads(out))
    assert value == x1 * x2 + t1 * x1 + t1 * x2


def test_unicode_lambda_key(monkeypatch, capsys):
    req = dict(MULTISCHUR_REQ)
    req["λ"] = req.pop("lambda")
    code, out = _invoke(monkeypatch, capsys, req)
    _, want = _invoke(monkeypatch, capsys, MULTISCHUR_REQ)
    assert code == 0
    assert out == want


def test_determinism_byte_identical(monkeypatch, capsys):
    req = {"command": "expand", "lambda": [2, 1], "basis": "refined", "t": ["t1", "t2"]}
    code1, out1 = _invoke(monkeypatch, capsys, req)
    code2, out2 = _invoke(monkeypatch, capsys, req)
    assert code1 == code2 == 0
    assert out1 == out2


def test_expand_refined_request(monkeypatch, capsys):
    req = {"command": "expand", "lambda": [2, 1], "basis": "refined", "t": ["t1", "t2"]}
    code, out = _invoke(monkeypatch, capsys, req)
    assert code == 0
    f = symfunc_from_json(json.loads(out))
    want = refined_dual_grothendieck((2, 1), (t1, Scalar.variable("t2")))
    assert f == want
    assert f.coefficient(Partition((2, 1))) == Scalar.one()
    assert f.coefficient(Partition((2,))) == t1


def test_emitted_symfunc_round_trips(monkeypatch, capsys):
    req = {
        "command": "expand",
        "lambda": [2],
        "basis": "stable",
        "t": ["t1", "t2", "t3", "t4"],
        "D": 4,
    }
    code, out = _invoke(monkeypatch, capsys, req)
    assert code == 0
    f = symfunc_from_json(json.loads(out))
    assert json.loads(out) == symfunc_to_json(f)
    assert f.truncation == 4


def test_verify_request(monkeypatch, capsys):
    req = {"command": "verify", "theorem": "orthonormality", "maxWeight": 2}
    code, out = _invoke(monkeypatch, capsys, req)
    assert code == 0
    result = json.loads(out)
    assert result["theorem"] == "orthonormality"
    assert result["passed"] is True
    assert result["cases"] == 16
    assert result["failures"] == []
    assert result["parameters"] == {"maxWeight": 2}


def test_verify_seed_recorded(monkeypatch, capsys):
    req = {"command": "verify", "theorem": "cauchy"}
    code, out = _invoke(monkeypatch, capsys, req, argv=["--seed", "9"])
    assert code == 0
    assert json.loads(out)["parameters"]["seed"] == 9


def test_flags_do_not_leak_between_calls(monkeypatch, capsys):
    req = {"command": "verify", "theorem": "orthonormality", "maxWeight": 1}
    code, out = _invoke(monkeypatch, capsys, req, argv=["--seed", "5"])
    assert code == 0
    assert json.loads(out)["parameters"] == {"maxWeight": 1, "seed": 5}
    code, out = _invoke(monkeypatch, capsys, req)
    assert code == 0
    assert json.loads(out)["parameters"] == {"maxWeight": 1}


def test_max_weight_flag_merges(monkeypatch, capsys):
    req = {"command": "verify", "theorem": "orthonormality"}
    code, out = _invoke(monkeypatch, capsys, req, argv=["--max-weight", "2"])
    assert code == 0
    assert json.loads(out)["parameters"] == {"maxWeight": 2}


def test_truncation_flag_merges(monkeypatch, capsys):
    req = {"command": "expand", "lambda": [1], "basis": "stable", "t": ["t1", "t2"]}
    code, out = _invoke(monkeypatch, capsys, req, argv=["--truncation", "3"])
    assert code == 0
    assert json.loads(out)["truncation"] == 3


def test_command_flag_merges(monkeypatch, capsys):
    req = {k: v for k, v in MULTISCHUR_REQ.items() if k != "command"}
    code, out = _invoke(monkeypatch, capsys, req, argv=["--command", "multischur"])
    assert code == 0
    assert scalar_from_json(json.loads(out)) == x1 * x2 + t1 * x1 + t1 * x2


def test_input_file(monkeypatch, capsys, tmp_path):
    path = tmp_path / "req.json"
    path.write_text(json.dumps(MULTISCHUR_REQ), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    code = main(["--input", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert scalar_from_json(json.loads(out)) == x1 * x2 + t1 * x1 + t1 * x2


def test_missing_input_file(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    code = main(["--input", str(tmp_path / "absent.json")])
    err = json.loads(capsys.readouterr().out)["error"]
    assert code == 1
    assert err["type"] == "io"


def test_flagged_request(monkeypatch, capsys):
    req = {"command": "multischur", "lambda": [1], "flag": [1], "vars": ["x1"]}
    code, out = _invoke(monkeypatch, capsys, req)
    assert code == 0
    assert scalar_from_json(json.loads(out)) == x1


def test_inner_request(monkeypatch, capsys):
    req = {
        "command": "inner",
        "f": {"stable": {"lambda": [1], "t": ["t1", "t2"], "D": 3}},
        "g": {"refined": {"lambda": [1], "t": ["t1", "t2"]}},
    }
    code, out = _invoke(monkeypatch, capsys, req)
    assert code == 0
    assert scalar_from_json(json.loads(out)) == Scalar.one()


def test_eval_request(monkeypatch, capsys):
    req = {"command": "eval", "f": {"schur": [2, 1]}, "vars": ["a", "b"]}
    code, out = _invoke(monkeypatch, capsys, req)
    a = Scalar.variable("a")
    b = Scalar.variable("b")
    assert code == 0
    assert scalar_from_json(json.loads(out)) == a * a * b + a * b * b


def test_reserved_name_rejected(monkeypatch, capsys):
    req = {"command": "expand", "lambda": [1], "basis": "refined", "t": ["beta"]}
    code, out = _invoke(monkeypatch, capsys, req)
    err = json.loads(out)["error"]
    assert code == 2
    assert err["type"] == "usage"
    assert err["operation"] == "expand"
    assert "beta" in err["message"]


def test_unknown_command(monkeypatch, capsys):
    code, out = _invoke(monkeypatch, capsys, {"command": "sing"})
    err = json.loads(out)["error"]
    assert code == 2
    assert err["type"] == "usage"
    assert "sing" in err["message"]


def test_empty_request(monkeypatch, capsys):
    code, out = _invoke(monkeypatch, capsys, "")
    err = json.loads(out)["error"]
    assert code == 2
    assert err["type"] == "usage"


def test_invalid_json(monkeypatch, capsys):
    code, out = _invoke(monkeypatch, capsys, "{not json")
    err = json.loads(out)["error"]
    assert code == 2
    assert err["type"] == "usage"
    assert err["operation"] == "parse"


def test_unknown_theorem(monkeypatch, capsys):
    req = {"command": "verify", "theorem": "perpetual-motion"}
    code, out = _invoke(monkeypatch, capsys, req)
    err = json.loads(out)["error"]
    assert code == 2
    assert err["type"] == "usage"
    assert "orthonormality" in err["message"]


def test_stability_error_exit_one(monkeypatch, capsys):
    req = {
        "command": "skew",
        "lambda": [1],
        "bx": {"refined": ["t1", "t2"]},
        "bp": [["x1"]],
    }
    code, out = _invoke(monkeypatch, capsys, req)
    err = json.loads(out)["error"]
    assert code == 1
    assert err["type"] == "stability"
    assert err["operation"] == "skew"
    assert set(json.loads(out)["error"]) == {"type", "operation", "message"}


def _assert_usage_error(monkeypatch, capsys, req):
    code, out = _invoke(monkeypatch, capsys, req)
    assert out.count("\n") == 1
    assert code == 2, out
    assert json.loads(out)["error"]["type"] == "usage"


def test_non_object_shorthand_spec_rejected(monkeypatch, capsys):
    for f in ({"refined": 5}, {"stable": [1]}, {"refined": "t1"}):
        _assert_usage_error(monkeypatch, capsys, {"command": "inner", "f": f, "g": {"schur": [1]}})


def test_non_integer_exponent_rejected(monkeypatch, capsys):
    for e in (1.5, True, "2", 0):
        letter = {"coefficient": "1", "monomial": {"x1": e}}
        _assert_usage_error(monkeypatch, capsys, {"command": "multischur", "lambda": [1], "bx": [[letter]]})


def test_verify_parameters_below_one_rejected(monkeypatch, capsys):
    for theorem, key, value in [
        ("orthonormality", "maxWeight", -1),
        ("orthonormality", "maxWeight", 0),
        ("classical", "window", -5),
        ("classical", "pairingRows", 0),
        ("hall-duality", "truncation", 0),
        ("truncation-stability", "maxRows", -2),
        ("beta-chain", "maxDualWeight", 0),
        ("branching", "generalMaxWeight", 0),
    ]:
        req = {"command": "verify", "theorem": theorem, key: value}
        _assert_usage_error(monkeypatch, capsys, req)
    code, _ = _invoke(monkeypatch, capsys, {"command": "verify", "theorem": "orthonormality"}, argv=["--max-weight", "0"])
    assert code == 2


def test_non_list_sequence_rows_rejected(monkeypatch, capsys):
    mixed = ({"refined": ["t1"], "constant": ["x1"]}, {"refined": ["t1"], "prefix": [["x1"]]})
    for bx in ({"prefix": 5}, {"tail": {"kind": "refined", "increments": 5}}, *mixed):
        _assert_usage_error(monkeypatch, capsys, {"command": "multischur", "lambda": [1], "bx": bx})


def test_by_must_be_a_sequence(monkeypatch, capsys):
    base = {"lambda": [1], "bx": [["x1"]]}
    for command, extra in [("multischur", {}), ("skew", {}), ("expand", {"basis": "schur"})]:
        req = {"command": command, **base, **extra}
        _, want = _invoke(monkeypatch, capsys, req)
        assert _invoke(monkeypatch, capsys, {**req, "by": None}) == (0, want)
        for by in (0, False, ""):
            _assert_usage_error(monkeypatch, capsys, {**req, "by": by})
    refined = {"command": "expand", "basis": "refined", "lambda": [1], "t": [], "bx": [["x1"]], "by": 0}
    _assert_usage_error(monkeypatch, capsys, refined)


def test_verify_caps(monkeypatch, capsys):
    """Every suite field has a cap that admits the documented sizes; past
    it the request is refused as tractability before the suite runs."""
    ran = []

    def stub(**kwargs):
        ran.append(kwargs)
        return {"parameters": {}, "passed": True}

    sizes = {
        "orthonormality": {"maxWeight": 8},
        "dual-engine": {"maxWeight": 7},
        "hall-duality": {"maxWeight": 9, "truncation": 9},
        "branching": {"maxWeight": 6, "generalMaxWeight": 6},
        "truncation-stability": {"maxWeight": 5, "maxRows": 5, "maxTruncation": 7},
        "beta-chain": {"maxWeight": 7, "maxDualWeight": 8},
        "classical": {"maxWeight": 8, "window": 4, "pairingRows": 4},
    }
    for theorem, fields in sizes.items():
        monkeypatch.setitem(cli.SUITES, theorem, stub)
        code, out = _invoke(monkeypatch, capsys, {"command": "verify", "theorem": theorem, **fields})
        assert code == 0, out
        for key, value in fields.items():
            ran.clear()
            req = {"command": "verify", "theorem": theorem, **fields, key: value + 1}
            code, out = _invoke(monkeypatch, capsys, req)
            assert code == 1, out
            assert json.loads(out)["error"]["type"] == "tractability"
            assert ran == []
    req = {"command": "verify", "theorem": "orthonormality"}
    code, out = _invoke(monkeypatch, capsys, req, argv=["--max-weight", "9"])
    assert code == 1 and json.loads(out)["error"]["type"] == "tractability"


def test_degree_and_row_bounds_rejected(monkeypatch, capsys):
    refined = {"refined": ["t1", "t2", "t3"]}
    for req in [
        {"command": "expand", "basis": "stable", "lambda": [1], "t": ["t1"], "D": -3},
        {"command": "expand", "basis": "stable", "lambda": [2, 1], "t": ["t1", "t2"], "D": 2},
        {"command": "expand", "basis": "truncated", "lambda": [2], "bx": refined, "r": 1, "D": 1},
        {"command": "expand", "basis": "truncated", "lambda": [1, 1], "bx": refined, "r": 1, "D": 3},
        {"command": "expand", "basis": "stable-dual", "lambda": [2], "bx": refined, "t": ["t1"], "D": 1},
        {"command": "inner", "f": {"stable": {"lambda": [2], "t": ["t1"], "D": 1}}, "g": {"schur": [1]}},
        {"command": "eval", "f": {"stable": {"lambda": [1], "t": ["t1"], "D": 0}}, "vars": ["x1"]},
    ]:
        _assert_usage_error(monkeypatch, capsys, req)


def test_too_few_letters_rejected(monkeypatch, capsys):
    refined = {"refined": ["t1", "t2"]}
    for req in [
        {"command": "expand", "basis": "refined", "lambda": [2, 1], "t": []},
        {"command": "expand", "basis": "refined", "lambda": [1, 1, 1], "t": ["t1"], "bx": refined},
        {"command": "expand", "basis": "stable", "lambda": [1, 1, 1], "t": ["t1"], "D": 3},
        {"command": "expand", "basis": "stable", "lambda": [1], "t": ["t1"], "D": 3},
        {"command": "expand", "basis": "stable-dual", "lambda": [1], "bx": refined, "t": ["t1"], "D": 3},
        {"command": "inner", "f": {"refined": {"lambda": [1, 1], "t": []}}, "g": {"schur": [1]}},
        {"command": "eval", "f": {"stable": {"lambda": [1], "t": [], "D": 2}}, "vars": ["x1"]},
    ]:
        _assert_usage_error(monkeypatch, capsys, req)
    # exactly enough letters: rows 1..3 use (t1, t2)
    req = {"command": "expand", "basis": "stable", "lambda": [1, 1, 1], "t": ["t1", "t2"], "D": 3}
    code, out = _invoke(monkeypatch, capsys, req)
    assert code == 0, out


def test_degree_bound_budget(monkeypatch, capsys):
    refined = {"refined": ["t1", "t2"]}
    for req in [
        {"command": "expand", "basis": "truncated", "lambda": [1], "bx": [["x1"]], "r": 1, "D": 300},
        {"command": "expand", "basis": "stable", "lambda": [1], "t": ["t1"], "D": 31},
        {"command": "expand", "basis": "stable-dual", "lambda": [1], "bx": refined, "t": ["t1"], "D": 31},
        {"command": "inner", "f": {"stable": {"lambda": [1], "t": [], "D": 300}}, "g": {"schur": [1]}},
    ]:
        t0 = time.perf_counter()
        code, out = _invoke(monkeypatch, capsys, req)
        assert time.perf_counter() - t0 < 1.0
        assert code == 1, out
        assert json.loads(out)["error"]["type"] == "tractability"


def test_zero_denominator_rejected(monkeypatch, capsys):
    letter = {"coefficient": "1/0", "monomial": {"x1": 1}}
    _assert_usage_error(monkeypatch, capsys, {"command": "multischur", "lambda": [1], "bx": [[letter]]})
    f = {"terms": [{"partition": [1], "coeff": [{"coefficient": "1/0"}]}]}
    _assert_usage_error(monkeypatch, capsys, {"command": "eval", "f": f, "vars": ["x1"]})
    _assert_usage_error(monkeypatch, capsys, {"command": "inner", "f": f, "g": {"schur": [1]}})


def test_bad_truncation_rejected(monkeypatch, capsys):
    for D in (True, 1.5, "a", -1):
        f = {"terms": [{"partition": [1], "coeff": [{"coefficient": "1"}]}], "truncation": D}
        _assert_usage_error(monkeypatch, capsys, {"command": "inner", "f": f, "g": {"schur": [1]}})


def test_malformed_flag_rejected(monkeypatch, capsys):
    for flag, vars_ in [([0], ["x1"]), ([2, 1], ["x1", "x2"]), ([3], ["x1"])]:
        req = {"command": "multischur", "lambda": [1], "flag": flag, "vars": vars_}
        _assert_usage_error(monkeypatch, capsys, req)


def test_unexpected_exception_is_internal_error(monkeypatch, capsys):
    def broken(req):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "multischur", broken)
    code, out = _invoke(monkeypatch, capsys, MULTISCHUR_REQ)
    assert code == 1
    assert out.count("\n") == 1
    err = json.loads(out)["error"]
    assert err == {"type": "internal", "operation": "multischur", "message": "RuntimeError: boom"}


GOLDEN = Path(__file__).parent / "data" / "cli_golden.jsonl"


def test_golden_responses(monkeypatch, capsys):
    """Every request of the golden file gives the recorded stdout and exit
    code byte for byte."""
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        case = json.loads(line)
        code, out = _invoke(monkeypatch, capsys, case["request"])
        assert (code, out) == (case["exit"], case["stdout"]), case["request"]


def test_eval_caches_stay_bounded(monkeypatch, capsys):
    # more distinct (shape, values) keys than the memo holds
    memo = expansions._jacobi_trudi
    misses = memo.cache_info().misses
    letters = ["x1", "x2", "x3", "x4", "t1"]
    sizes = []
    for n in range(1, len(letters) + 1):
        for start in range(len(letters)):
            vars_ = (letters[start:] + letters[:start])[:n]
            for lam in ([1], [2], [1, 1], [3], [2, 1], [1, 1, 1]):
                for coeff in ("1", "2", "-1/2"):
                    req = {"command": "eval", "f": {"schur": lam}, "vars": vars_ + [coeff]}
                    code, _ = _invoke(monkeypatch, capsys, req)
                    assert code == 0
                    sizes.append(memo.cache_info().currsize)
    assert memo.cache_info().misses - misses > expansions.CACHE_SIZE
    assert max(sizes) <= expansions.CACHE_SIZE
    assert expansions._h_word_schur.cache_info().maxsize == expansions.CACHE_SIZE


def test_skew_budget(monkeypatch, capsys):
    cap = cli._SKEW_CAP
    rows = {"refined": ["t1", "t2", "t3"]}
    at_cap = {"command": "skew", "lambda": [cap - 2, 1], "mu": [1], "bx": [["x1"], ["x2"]]}
    code, out = _invoke(monkeypatch, capsys, at_cap)
    assert code == 0, out
    for lam, mu in [([cap - 1, 1], [1]), ([5] * 4, [1]), ([1] * (cap + 1), []), ([1], [1] * cap)]:
        for extra in ({}, {"bp": rows}):
            req = {"command": "skew", "lambda": lam, "mu": mu, "bx": rows, **extra}
            t0 = time.perf_counter()
            code, out = _invoke(monkeypatch, capsys, req)
            assert time.perf_counter() - t0 < 1.0
            assert code == 1, out
            assert json.loads(out)["error"]["type"] == "tractability"
