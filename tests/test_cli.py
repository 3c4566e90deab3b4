"""End-to-end CLI tests: requests on stdin or --input, deterministic
JSON on stdout, machine-readable errors with exit status 2 (usage) or
1 (computation)."""

import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multischur
from multischur import cli, exactalg, expansions, verifications
from multischur.cli import main
from multischur.exactalg import Scalar, scalar_from_json
from multischur.expansions import SymFunc, refined_dual_grothendieck, symfunc_from_json, symfunc_to_json
from multischur.shapes import Partition
from multischur.suite_sizes import SIZES

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
    """Each field has one spelling: `λ`, `μ` and an expand `truncation` are
    unread keys, refused as usage errors."""
    req = dict(MULTISCHUR_REQ)
    req["λ"] = req.pop("lambda")
    skew = {"command": "skew", "lambda": [2], "bx": [["x1"]]}
    stable = {"command": "expand", "basis": "stable", "lambda": [1], "t": ["t1"]}
    for bad in (req, {**skew, "μ": [1]}, {**stable, "truncation": 2}):
        code, out = _invoke(monkeypatch, capsys, bad)
        assert code == 2 and json.loads(out)["error"]["type"] == "usage", (bad, out)
        assert "does not read" in json.loads(out)["error"]["message"], out
    for good in ({**skew, "mu": [1]}, {**stable, "D": 2}):
        assert _invoke(monkeypatch, capsys, good)[0] == 0, good


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
    code, out = _invoke(monkeypatch, capsys, {**req, "seed": 4})
    assert code == 0
    assert json.loads(out)["parameters"]["seed"] == 4
    for seed in ({"x": [1, 2]}, True, 1.5):  # a seed is a JSON integer
        _assert_usage_error(monkeypatch, capsys, {**req, "seed": seed})


def test_bad_argument_list_is_one_usage_error(monkeypatch, capsys):
    """An unknown option, a removed flag, --input without a file, a repeated
    --input or --input=FILE is one JSON usage error, with nothing on stderr
    and no SystemExit; the arguments are refused before any file is read."""
    for argv in (["--bogus"], ["--input"], ["--max-weight", "2"], ["--seed", "9"], ["2"],
                 ["--input", "a.json", "--input", "b.json"], ["--input=a.json"]):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(MULTISCHUR_REQ)))
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out.count("\n") == 1 and err == "", (argv, out, err)
        assert json.loads(out)["error"]["type"] == "usage"


def test_help_prints_usage(monkeypatch, capsys):
    """`-h` and `--help` are no options: each is one usage error that gives
    the usage line, returned as exit status 2 with no SystemExit."""
    for argv in (["--help"], ["-h"], ["-h", "--input", "req.json"]):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(MULTISCHUR_REQ)))
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out.count("\n") == 1 and err == "", (argv, out, err)
        error = json.loads(out)["error"]
        assert error["type"] == "usage", argv
        assert "unrecognized arguments" in error["message"] and "usage: multischur [--input FILE]" in error["message"], argv


def test_input_file(monkeypatch, capsys, tmp_path):
    path = tmp_path / "req.json"
    path.write_text(json.dumps(MULTISCHUR_REQ), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    code = main(["--input", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert scalar_from_json(json.loads(out)) == x1 * x2 + t1 * x1 + t1 * x2


def test_abbreviated_input_option_is_one_usage_error(monkeypatch, capsys, tmp_path):
    """--input has one spelling: a prefix of it names no option."""
    path = tmp_path / "req.json"
    path.write_text(json.dumps(MULTISCHUR_REQ), encoding="utf-8")
    for argv in (["--inp", str(path)], [f"--i={path}"], ["--inpu", str(path)]):
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out.count("\n") == 1 and err == "", (argv, out, err)
        error = json.loads(out)["error"]
        assert error["type"] == "usage" and "unrecognized arguments" in error["message"], argv


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


def test_request_text_not_utf8_is_a_usage_error(monkeypatch, capsys, tmp_path):
    """The same bytes give the same error from a file and from stdin."""
    text = b'{"command": "\xff"}'
    path = tmp_path / "req.json"
    path.write_bytes(text)
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    outs = [(main(["--input", str(path)]), capsys.readouterr().out)]
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text), encoding="utf-8"))
    outs.append((main([]), capsys.readouterr().out))
    for code, out in outs:
        err = json.loads(out)["error"]
        assert code == 2 and err["type"] == "usage", out
        assert err["message"].startswith("request is not valid JSON")
    assert outs[0] == outs[1]


def test_request_nested_too_deep_is_a_usage_error(monkeypatch, capsys):
    code, out = _invoke(monkeypatch, capsys, "[" * 100_000 + "]" * 100_000)
    err = json.loads(out)["error"]
    assert code == 2 and err["type"] == "usage", out
    assert err["message"].startswith("request is not valid JSON")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="this Python converts integers of any length")
def test_integer_past_the_digit_limit_is_a_usage_error(monkeypatch, capsys):
    text = '{"command":"verify","theorem":"cauchy","seed":1' + "0" * 5000 + "}"
    code, out = _invoke(monkeypatch, capsys, text)
    err = json.loads(out)["error"]
    assert code == 2 and err["type"] == "usage", out
    assert err["message"].startswith("request is not valid JSON")


def test_unknown_theorem(monkeypatch, capsys):
    req = {"command": "verify", "theorem": "perpetual-motion"}
    code, out = _invoke(monkeypatch, capsys, req)
    err = json.loads(out)["error"]
    assert code == 2
    assert err["type"] == "usage"
    assert "orthonormality" in err["message"]


# One family of rows, (x1), (x1, t1), then empty rows, in the three
# spellings that end in empty rows.
SAME_ROWS = [
    [["x1"], ["x1", "t1"]],
    {"prefix": [["x1"], ["x1", "t1"]], "tail": {"kind": "empty"}},
    {"prefix": [["x1"], ["x1", "t1"]], "tail": {"kind": "constant", "letters": []}},
]


def test_spellings_of_one_family_answer_alike(monkeypatch, capsys):
    """The bare-list and empty-tail spellings were once refused as
    `stability`; all three get the constant-empty spelling's answer."""
    skew_one = {"command": "skew", "lambda": [1], "bx": {"refined": ["t1", "t2"]}}
    for field, base in [
        ("bp", skew_one),
        ("bp", {"command": "skew", "lambda": [2, 1], "mu": [1], "bx": {"refined": ["t1", "t2"]}}),
        ("bx", {"command": "expand", "basis": "stable-dual", "lambda": [1], "t": ["t1", "t2", "t3"], "D": 3}),
    ]:
        answers = {_invoke(monkeypatch, capsys, {**base, field: rows}) for rows in SAME_ROWS}
        assert len(answers) == 1, answers
        (code, out), = answers
        assert code == 0, out
        if base is skew_one:
            # det( h_1(()/x1) + h_1(X) ) = s_1 - x1
            assert symfunc_from_json(json.loads(out)) == SymFunc({Partition(()): -x1, Partition((1,)): Scalar.one()})


def test_long_refined_t_builds_only_the_rows_read(monkeypatch, capsys):
    """A refined form of n letters spells n + 1 rows, n**2 / 2 letters in
    all; parsing builds no row past the last one a command reads, so a
    long t gets the answer of its first letters at once."""
    t = [f"t{i}" for i in range(1, 3001)]
    for spec in ({"refined": t}, {"tail": {"kind": "refined", "t": t}}, {"tail": {"kind": "refined", "increments": [t]}}):
        assert len(cli.parse_sequence(spec).rows) <= cli._LAST_ROW_READ, spec

    def requests(t):
        return [
            {"command": "multischur", "lambda": [1], "bx": {"refined": t}},
            {"command": "skew", "lambda": [2, 1], "bx": {"prefix": [["x1"]], "tail": {"kind": "refined", "t": t}}, "bp": {"refined": t}},
            {"command": "expand", "basis": "refined", "lambda": [2, 1], "t": t},
            {"command": "inner", "f": {"refined": {"lambda": [1], "t": t}}, "g": {"schur": [1]}},
            {"command": "eval", "f": {"refined": {"lambda": [2, 1], "t": t}}, "vars": ["a", "b"]},
        ]

    for long_req, short_req in zip(requests(t), requests(t[:3])):
        code, out = _invoke(monkeypatch, capsys, long_req)
        assert code == 0, out
        assert (code, out) == _invoke(monkeypatch, capsys, short_req), short_req


# -- the JSON tail rules, against a reference copy -------------------

LETTER = st.sampled_from(["x1", "x2", "t1", "0", "1/2"])
ROW = st.lists(LETTER, max_size=2)
TAIL = st.one_of(
    st.fixed_dictionaries({"kind": st.just("empty")}),
    st.fixed_dictionaries({"kind": st.just("constant")}, optional={"letters": ROW}),
    st.fixed_dictionaries({"kind": st.just("refined")}, optional={"base": ROW, "t": st.lists(LETTER, max_size=3)}),
    st.fixed_dictionaries({"kind": st.just("refined")}, optional={"base": ROW, "increments": st.lists(ROW, max_size=3)}),
)
SPEC = st.fixed_dictionaries({}, optional={"prefix": st.lists(ROW, max_size=3), "tail": TAIL})


def _tail_rule_row(spec: dict, i: int) -> list:
    """Row i >= 1 of a {"prefix", "tail"} spec by the three tail rules:
    past the prefix, an empty tail gives no letters, a constant tail its
    letters, and a refined tail its base followed by the first k - 1
    increments in row k of the tail."""
    prefix, tail = spec.get("prefix", []), spec.get("tail", {"kind": "empty"})
    if i <= len(prefix):
        return prefix[i - 1]
    if tail["kind"] == "empty":
        return []
    if tail["kind"] == "constant":
        return tail.get("letters", [])
    increments = [[x] for x in tail["t"]] if "t" in tail else tail.get("increments", [])
    return tail.get("base", []) + [x for block in increments[: i - len(prefix) - 1] for x in block]


def _reach(spec: dict) -> int:
    """A row index past which the rows of `spec` stay the same, plus slack."""
    tail = spec.get("tail", {})
    return len(spec.get("prefix", [])) + len(tail.get("increments", tail.get("t", []))) + 3


@given(SPEC)
@settings(max_examples=200, deadline=None)
def test_sequence_rows_follow_the_tail_rules(spec):
    seq = cli.parse_sequence(spec)
    for i in range(1, _reach(spec) + 1):
        assert seq.alphabet(i) == cli.parse_alphabet(_tail_rule_row(spec, i)), (spec, i)


@given(SPEC, SPEC)
@settings(max_examples=200, deadline=None)
def test_sequences_with_equal_rows_are_equal(spec, other):
    n = max(_reach(spec), _reach(other))
    rows = [cli.parse_alphabet(_tail_rule_row(spec, i)) for i in range(1, n + 1)]
    other_rows = [cli.parse_alphabet(_tail_rule_row(other, i)) for i in range(1, n + 1)]
    seq, other_seq = cli.parse_sequence(spec), cli.parse_sequence(other)
    assert (seq == other_seq) == (rows == other_rows), (spec, other)
    # the same rows spelled as a bare prefix and a constant tail
    respelled = {"prefix": [_tail_rule_row(spec, i) for i in range(1, n)], "tail": {"kind": "constant", "letters": _tail_rule_row(spec, n)}}
    assert cli.parse_sequence(respelled) == seq and hash(cli.parse_sequence(respelled)) == hash(seq), spec


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


def test_error_messages_cut_the_values_they_echo(monkeypatch, capsys):
    """A value that an error message echoes is cut to exactalg._CUT characters,
    so a message stays short whatever the request holds."""
    nested = []
    for _ in range(500):
        nested = [nested]
    long_text = "-" + "9" * 5000
    for req in (
        {"command": "multischur", "lambda": [1], "bx": [[nested]]},  # bad scalar terms
        {"command": "multischur", "lambda": [1], "bx": [[{"coefficient": nested}]]},
        {"command": "multischur", "lambda": [1], "bx": [nested[0][0], nested]},  # alphabet must be a list
        {"command": "multischur", "lambda": [1], "bx": [[long_text + "x"]]},  # bad scalar literal
        {"command": "multischur", "lambda": [1], "bx": {"refined": ["x1"], "k" * 5000: 1}},
        {"command": "multischur", "lambda": [1] + [2] * 5000, "bx": [["x1"]]},  # bad partition
        {"command": "verify", "theorem": "cauchy", "seed": nested},
        {"command": "x" * 5000},
        {"command": "inner", "f": nested, "g": {"schur": [1]}},
    ):
        code, out = _invoke(monkeypatch, capsys, req)
        message = json.loads(out)["error"]["message"]
        assert code == 2 and "..." in message, (req, out[:300])
        assert len(message) < 150 + exactalg._CUT, message  # the fixed text of each is shorter


def test_exponent_literal_refused_before_it_is_built(monkeypatch, capsys):
    for letter in ("1e10000000", "-2.5E+10_000_000", [{"coefficient": "1e-10000000"}]):
        req = {"command": "multischur", "lambda": [1], "bx": [[letter]]}
        _assert_tractability_within_a_second(monkeypatch, capsys, req)
    assert cli.parse_scalar("1e3") == Scalar.from_rational(1000)
    assert cli.parse_scalar("3/4") == Scalar.from_rational(Fraction(3, 4))
    cap = cli._BUDGETS["exponent"]
    assert cli.parse_scalar(f"1e-{cap}") == Scalar.from_rational(Fraction(1, 10**cap))


def test_number_literal_digits_refused_before_any_work(monkeypatch, capsys):
    """A 4,000-digit letter, as a string or as a JSON integer, once computed
    x**2 and then failed to print; now it is refused first.  At the digit and
    exponent caps nine letters of lambda = (9) still print."""
    for letter in ("9" * 4000, int("9" * 4000)):
        _assert_tractability_within_a_second(monkeypatch, capsys, {"command": "multischur", "lambda": [2], "bx": [[letter]]})
    cap, e = cli._BUDGETS["digits"], cli._BUDGETS["exponent"]
    for letter, value in [("9" * cap, 10**cap - 1), (10**cap - 1, 10**cap - 1), (1 - 10**cap, 1 - 10**cap),
                          ("1/" + "7" * cap, Fraction(1, int("7" * cap))), ("0." + "0" * (cap - 2) + "5", Fraction(5, 10**(cap - 1)))]:
        assert cli.parse_scalar(letter) == Scalar.from_rational(value), letter
    corner = {"command": "expand", "basis": "schur", "lambda": [9], "bx": [[f"-{'9' * cap}e{e}"] * 5 + [f"1/{'7' * cap}"] * 4]}
    code, out = _invoke(monkeypatch, capsys, corner)
    assert code == 0, out[:300]
    # a long string that is no number is still a usage error
    _assert_usage_error(monkeypatch, capsys, {"command": "multischur", "lambda": [1], "bx": [["9" * 4000 + "x"]]})


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="this Python prints integers of any length")
def test_answer_past_the_print_limit_is_a_tractability_error(monkeypatch, capsys):
    """Two stable shorthands with twelve 100-digit letters pair to an answer
    whose coefficients Python cannot print; its error names the limit."""
    t = [f"{10**99 + 6 * i + 7}/{10**99 + 6 * i + 1}" for i in range(12)]
    f = {"stable": {"lambda": [3, 2, 1], "t": t, "D": 14}}
    code, out = _invoke(monkeypatch, capsys, {"command": "inner", "f": f, "g": f})
    err = json.loads(out)["error"]
    assert code == 1 and err["type"] == "tractability", out
    assert f"more than the {sys.get_int_max_str_digits()} digits" in err["message"]


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
        monkeypatch.setitem(verifications.SUITES, theorem, stub)
        code, out = _invoke(monkeypatch, capsys, {"command": "verify", "theorem": theorem, **fields})
        assert code == 0, out
        for key, value in fields.items():
            ran.clear()
            req = {"command": "verify", "theorem": theorem, **fields, key: value + 1}
            code, out = _invoke(monkeypatch, capsys, req)
            assert code == 1, out
            assert json.loads(out)["error"]["type"] == "tractability"
            assert ran == []


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


def test_float_coefficient_rejected(monkeypatch, capsys):
    # a JSON float reaches the parser already rounded: 1e-400 is 0.0
    for coefficient in ("1.5", "2.0", "1e-400", "true"):
        letter = '{"coefficient": %s, "monomial": {"x1": 1}}' % coefficient
        _assert_usage_error(monkeypatch, capsys, '{"command": "multischur", "lambda": [1], "bx": [[%s]]}' % letter)


def test_bad_truncation_rejected(monkeypatch, capsys):
    for D in (True, 1.5, "a", -1):
        f = {"terms": [{"partition": [1], "coeff": [{"coefficient": "1"}]}], "truncation": D}
        _assert_usage_error(monkeypatch, capsys, {"command": "inner", "f": f, "g": {"schur": [1]}})


def test_term_above_truncation_rejected(monkeypatch, capsys):
    # such a term was once dropped in silence: eval answered [] and inner 0
    term = {"partition": [2], "coeff": [{"coefficient": "5", "monomial": {}}]}
    f = {"basis": "schur", "truncation": 1, "terms": [term]}
    _assert_usage_error(monkeypatch, capsys, {"command": "eval", "f": f, "vars": ["x1"]})
    _assert_usage_error(monkeypatch, capsys, {"command": "inner", "f": f, "g": {"schur": [1]}})
    # a term at the truncation is kept
    assert symfunc_from_json({**f, "truncation": 2}) == SymFunc({Partition((2,)): 5}, 2)


def test_malformed_flag_rejected(monkeypatch, capsys):
    for flag, vars_ in [([0], ["x1"]), ([2, 1], ["x1", "x2"]), ([3], ["x1"])]:
        req = {"command": "multischur", "lambda": [1], "flag": flag, "vars": vars_}
        _assert_usage_error(monkeypatch, capsys, req)


def test_unexpected_exception_is_internal_error(monkeypatch, capsys):
    def broken(req, form):
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


DIGESTS = Path(__file__).parent / "data" / "cli_digests.jsonl"


def test_answer_digests(monkeypatch, capsys):
    """Every request of the digest corpus gets the exit code and stdout whose
    sha256 the file recorded; tests/data/make_digests.py regenerates it."""
    changed = []
    for line in DIGESTS.read_text(encoding="utf-8").splitlines():
        case = json.loads(line)
        code, out = _invoke(monkeypatch, capsys, case["request"])
        if hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() != case["sha256"]:
            changed.append(f"{case['name']}: {json.dumps(case['request'])}")
    assert not changed, f"{len(changed)} answers changed:\n" + "\n".join(changed)


def test_expansions_keep_no_cache():
    # eval_symfunc keeps one memo per call, so nothing of the module outlives a request
    assert [name for name, value in vars(expansions).items() if hasattr(value, "cache_info")] == []


def test_skew_budget(monkeypatch, capsys):
    cap = cli._BUDGETS["weight"]
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


def _assert_tractability_within_a_second(monkeypatch, capsys, req):
    t0 = time.perf_counter()
    code, out = _invoke(monkeypatch, capsys, req)
    assert time.perf_counter() - t0 < 1.0
    assert code == 1, out
    assert json.loads(out)["error"]["type"] == "tractability"


def test_multischur_budget(monkeypatch, capsys):
    cap = cli._BUDGETS["weight"]
    at_cap = {"command": "multischur", "lambda": [cap], "bx": [["x1"]]}
    code, out = _invoke(monkeypatch, capsys, at_cap)
    assert code == 0, out
    assert scalar_from_json(json.loads(out)) == x1**cap
    rows = {"constant": ["x1", "x2", "x3", "x4"]}
    for lam in ([cap + 1], [1] * (cap + 1), [3, 3, 3, 1, 1, 1]):
        _assert_tractability_within_a_second(monkeypatch, capsys, {"command": "multischur", "lambda": lam, "bx": rows})
        req = {"command": "multischur", "lambda": lam, "flag": [4] * len(lam), "vars": ["x1", "x2", "x3", "x4"]}
        _assert_tractability_within_a_second(monkeypatch, capsys, req)


def test_unread_fields_rejected(monkeypatch, capsys):
    rows, refined = [["x1"], ["x2"]], {"refined": ["t1", "t2", "t3"]}
    t = ["t1", "t2", "t3"]
    for req in [
        {"command": "expand", "basis": "refined", "lambda": [2, 1], "t": t, "by": rows},
        {"command": "expand", "basis": "truncated", "lambda": [1], "bx": rows, "r": 2, "D": 2, "by": rows},
        {"command": "expand", "basis": "stable-dual", "lambda": [1], "bx": refined, "t": t, "D": 2, "by": rows},
        {"command": "expand", "basis": "stable", "lambda": [1], "t": t, "D": 2, "bx": rows},
        {"command": "expand", "basis": "stable", "lambda": [1], "t": t, "D": 2, "by": rows},
        {"command": "multischur", "lambda": [1], "flag": [1], "vars": ["x1"], "bx": rows},
        {"command": "multischur", "lambda": [1], "flag": [1], "vars": ["x1"], "by": rows},
        {"command": "multischur", "lambda": [1], "bx": rows, "vars": ["x1"]},
        {
            "command": "multischur",
            "lambda": [2, 1],
            "bx": {"tail": {"kind": "refined", "t": ["t1"], "increments": [["x1", "x2"]]}},
        },
        # a tail field that the tail's kind does not read
        *(
            {"command": "multischur", "lambda": [2, 1], "bx": {"prefix": [["x1"]], "tail": tail}}
            for tail in [
                {"kind": "constant", "letters": [], "t": ["a"]},
                {"kind": "constant", "letters": ["x1"], "base": ["x2"]},
                {"kind": "constant", "increments": [["x2"]]},
                {"kind": "empty", "letters": ["x1"]},
                {"kind": "empty", "base": []},
                {"kind": "empty", "t": ["t1"]},
                {"kind": "empty", "increments": []},
                {"kind": "refined", "t": ["t1"], "letters": ["x1"]},
                {"kind": "empty", "letter": ["x2"]},
            ]
        ),
        # a key that the sequence form does not read: an unknown one, or another form's
        {"command": "multischur", "lambda": [1], "bx": {"prefix": [["x1"]], "tail": {"kind": "empty", "letter": ["x2"]}, "tails": 1}},
        {"command": "multischur", "lambda": [1], "bx": {"refined": ["x1"], "junk": 1}},
        {"command": "multischur", "lambda": [1], "bx": {"constant": ["x1"], "prefix": []}},
        # misspelled or unread top-level keys, once answered as if absent
        {"command": "multischur", "lambda": [1], "bx": [["x1"]], "lamda": [2]},
        {"command": "eval", "f": {"schur": [1]}, "vars": ["x"], "weight": 3},
        {"command": "skew", "lambda": [1], "bx": [["x1"]], "nu": [1]},
        {"command": "inner", "f": {"schur": [1]}, "g": {"schur": [1]}, "D": 3},
        {"command": "verify", "theorem": "cauchy", "maxWeight": 3},
        {"command": "verify", "theorem": "orthonormality", "maxweight": 3},
        # unread keys in a shorthand, its spec, a serialized element, or a term
        {"command": "inner", "f": {"schur": [1], "junk": 2}, "g": {"schur": [1]}},
        {"command": "inner", "f": {"refined": {"lambda": [1], "t": [], "D": 3}}, "g": {"schur": [1]}},
        {"command": "eval", "f": {"stable": {"lambda": [1], "t": ["t1"], "D": 2, "r": 1}}, "vars": ["x1"]},
        {"command": "inner", "f": {"basis": "schur", "terms": [], "junk": 1}, "g": {"schur": [1]}},
        {"command": "inner", "f": {"terms": [{"partition": [1], "coeff": [{"coefficient": "1"}], "x": 1}]}, "g": {"schur": [1]}},
        {"command": "multischur", "lambda": [1], "bx": [[{"coefficient": "1", "monomial": {"x1": 1}, "junk": 0}]]},
        # a second spelling of a field is an unread key
        {"command": "multischur", "lambda": [1], "λ": [2], "bx": [["x1"]]},
        {"command": "skew", "lambda": [2], "mu": [1], "μ": [], "bx": [["x1"]]},
        {"command": "expand", "basis": "stable", "lambda": [1], "t": ["t1"], "D": 2, "truncation": 2},
        {"command": "inner", "f": {"stable": {"lambda": [1], "t": ["t1"], "D": 2, "truncation": 2}}, "g": {"schur": [1]}},
    ]:
        _assert_usage_error(monkeypatch, capsys, req)
    # the same requests without the unread field are answered
    for req in [
        {"command": "expand", "basis": "refined", "lambda": [2, 1], "t": t, "bx": [], "by": rows},
        {"command": "multischur", "lambda": [2, 1], "bx": {"tail": {"kind": "refined", "t": ["t1"]}}},
        {"command": "multischur", "lambda": [1], "flag": [1], "vars": ["x1"]},
        {"command": "multischur", "lambda": [2, 1], "bx": {"prefix": [["x1"]], "tail": {"kind": "constant", "letters": []}}},
    ]:
        code, out = _invoke(monkeypatch, capsys, req)
        assert code == 0, out


def test_unread_keys_refused_before_any_work(monkeypatch, capsys):
    ran = []
    monkeypatch.setitem(cli._COMMANDS, "multischur", lambda req, form: ran.append(req))
    # past the weight cap, but the unread key is refused first
    _assert_usage_error(monkeypatch, capsys, {"command": "multischur", "lambda": [20], "bx": [["x1"]], "junk": 1})
    assert ran == []


def test_unhashable_or_unknown_names_are_usage_errors(monkeypatch, capsys):
    """A command, theorem or basis that names no form is a usage error, and
    the error names the command as its operation only when it is a string."""
    for req, operation in [
        ({"command": ["x"]}, "parse"),
        ({"command": {"a": 1}}, "parse"),
        ({"command": 3}, "parse"),
        ({"command": "multischur flag", "lambda": [1], "flag": [1], "vars": ["x1"]}, "multischur flag"),
        ({"command": "verify", "theorem": [1]}, "verify"),
        ({"command": "verify", "theorem": None}, "verify"),
        ({"command": "expand", "basis": "refined bx", "lambda": [1], "t": [], "bx": []}, "expand"),
        ({"command": "expand", "basis": ["schur"], "lambda": [1], "bx": []}, "expand"),
    ]:
        code, out = _invoke(monkeypatch, capsys, req)
        assert code == 2, out
        error = json.loads(out)["error"]
        assert (error["type"], error["operation"]) == ("usage", operation), out


def test_readme_lists_every_form():
    """The README's table of request forms lists the keys of every form, as cli._FORMS does."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Request forms", 1)[1].split("\n### ", 1)[0]
    forms = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            form, keys = line.strip("|").split("|")
            forms[form.strip(" `")] = set(re.findall(r"`([^`]+)`", keys))
    assert forms == cli._FORMS


def test_shorthand_is_its_expand_request(monkeypatch, capsys):
    """A refined or stable shorthand answers as the expand request its spec
    spells: inner against s_mu reads the s_mu coefficient of the expansion,
    and a spec that breaks a rule is refused with the expand request's error."""
    t = ["t3", "t1", "t5", "t2", "t6"]
    answered = [
        ("refined", {"lambda": [2, 1], "t": t[:3]}),
        ("refined", {"lambda": [3, 1, 1], "t": t[:3]}),
        ("refined", {"lambda": [], "t": []}),
        ("stable", {"lambda": [1], "t": t, "D": 5}),
        ("stable", {"lambda": [2, 1], "t": t, "D": 5}),
    ]
    for kind, spec in answered:
        code, out = _invoke(monkeypatch, capsys, {"command": "expand", "basis": kind, **spec})
        assert code == 0, out
        terms = json.loads(out)["terms"]
        assert terms, out
        for term in terms:
            req = {"command": "inner", "f": {kind: spec}, "g": {"schur": term["partition"]}}
            code, out = _invoke(monkeypatch, capsys, req)
            assert (code, json.loads(out)) == (0, term["coeff"]), req
    refused = [
        ("refined", {"lambda": [10], "t": t}),  # past the weight budget
        ("stable", {"lambda": [1], "t": t, "D": 31}),  # past the degree bound's
        ("refined", {"lambda": [1, 1, 1], "t": ["t1"]}),  # three rows need two letters
    ]
    for kind, spec in refused:
        code, out = _invoke(monkeypatch, capsys, {"command": "expand", "basis": kind, **spec})
        assert code != 0, out
        want = json.loads(out)["error"]
        for req in ({"command": "inner", "f": {kind: spec}, "g": {"schur": [1]}},
                    {"command": "eval", "f": {kind: spec}, "vars": ["x1"]}):
            got_code, got = _invoke(monkeypatch, capsys, req)
            error = json.loads(got)["error"]
            assert (got_code, error["type"], error["message"]) == (code, want["type"], want["message"]), req
    # a key of another spelling is unread by the expand form and by the spec
    for kind, spec in [("refined", {"λ": [3, 1, 1], "t": t[:3]}), ("stable", {"lambda": [2, 1], "t": t, "truncation": 5})]:
        for req in ({"command": "expand", "basis": kind, **spec},
                    {"command": "inner", "f": {kind: spec}, "g": {"schur": [1]}},
                    {"command": "eval", "f": {kind: spec}, "vars": ["x1"]}):
            _assert_usage_error(monkeypatch, capsys, req)


def test_stable_budgets(monkeypatch, capsys):
    t = [f"t{i}" for i in range(1, 40)]
    for basis, cap, extra in [
        ("stable", cli._BUDGETS["stable rows"], {}),
        ("stable-dual", cli._BUDGETS["stable-dual rows"], {"bx": {"refined": ["s1"]}}),
    ]:
        # lambda = () has a matrix of D rows
        code, out = _invoke(monkeypatch, capsys, {"command": "expand", "basis": basis, "lambda": [], "t": t, "D": cap, **extra})
        assert code == 0, out
        for lam, D in [([], cap + 1), ([1], cap + 1), ([4, 3, 2, 1], cap + 7), ([2], cap + 2)]:
            req = {"command": "expand", "basis": basis, "lambda": lam, "t": t, "D": D, **extra}
            _assert_tractability_within_a_second(monkeypatch, capsys, req)
    # bx stable only past the cap: the budgets count the rows the matrices have
    cap = cli._BUDGETS["stable-dual rows"]
    bx = {"prefix": [["x1"]] * cap, "tail": {"kind": "refined", "base": ["x1"], "t": ["s1"]}}
    code, out = _invoke(monkeypatch, capsys, {"command": "expand", "basis": "stable-dual", "lambda": [], "bx": bx, "t": t, "D": 1})
    assert code == 0, out
    assert {tuple(term["partition"]) for term in json.loads(out)["terms"]} == {(), (1,)}
    for lam, D in [([], cap + 1), ([1], cap + 1)]:
        req = {"command": "expand", "basis": "stable-dual", "lambda": lam, "bx": bx, "t": t, "D": D}
        _assert_tractability_within_a_second(monkeypatch, capsys, req)
    letters = cli._BUDGETS["stable-dual letters"]
    wide = {"prefix": [[f"x{i}" for i in range(letters + 1)]], "tail": {"kind": "refined", "base": ["x1"], "t": ["s1"]}}
    req = {"command": "expand", "basis": "stable-dual", "lambda": [], "bx": wide, "t": t, "D": 1}
    _assert_tractability_within_a_second(monkeypatch, capsys, req)
    f = {"stable": {"lambda": [1], "t": t, "D": cli._BUDGETS["stable rows"] + 1}}
    for req in ({"command": "inner", "f": f, "g": {"schur": [1]}}, {"command": "eval", "f": f, "vars": ["x1"]}):
        _assert_tractability_within_a_second(monkeypatch, capsys, req)


# parts that the request boundary once rounded, parsed or read as () into a different question
NON_INTEGER_PARTS = ([1.5], [2.0], "21", ["2"], [True], [2, False], "", {}, None)


def test_non_integer_lambda_rejected(monkeypatch, capsys):
    for lam in NON_INTEGER_PARTS:
        _assert_usage_error(monkeypatch, capsys, {"command": "multischur", "lambda": lam, "bx": [["x1"], ["x2"]]})
        spec = {"lambda": lam, "t": ["t1", "t2"]}
        _assert_usage_error(monkeypatch, capsys, {"command": "inner", "f": {"refined": spec}, "g": {"schur": [1]}})


def test_non_integer_mu_rejected(monkeypatch, capsys):
    for mu in NON_INTEGER_PARTS:
        _assert_usage_error(monkeypatch, capsys, {"command": "skew", "lambda": [2, 2], "mu": mu, "bx": [["x1"], ["x2"]]})


def test_non_integer_schur_shorthand_rejected(monkeypatch, capsys):
    for lam in NON_INTEGER_PARTS:
        _assert_usage_error(monkeypatch, capsys, {"command": "eval", "f": {"schur": lam}, "vars": ["x1", "x2"]})


def test_non_integer_term_partition_rejected(monkeypatch, capsys):
    for lam in NON_INTEGER_PARTS:
        f = {"basis": "schur", "terms": [{"partition": lam, "coeff": [{"coefficient": "1", "monomial": {}}]}]}
        _assert_usage_error(monkeypatch, capsys, {"command": "eval", "f": f, "vars": ["x1", "x2"]})


def test_verify_sizes_out_of_order_rejected(monkeypatch, capsys):
    """A suite that expands every shape up to maxWeight at a degree bound
    needs that bound at least maxWeight, counting a missing field at its
    default; else the request is malformed and the suite does not run."""
    ran = []

    def record(**kwargs):
        ran.append(kwargs)
        return {"parameters": {}, "passed": True}

    for theorem, high, bad, good in [
        ("hall-duality", "truncation", [{"maxWeight": 3, "truncation": 1}, {"maxWeight": 6}, {"truncation": 4}],
         [{"maxWeight": 6, "truncation": 6}, {"maxWeight": 5}, {"truncation": 5}]),
        ("beta-chain", "maxDualWeight", [{"maxWeight": 3, "maxDualWeight": 1}, {"maxWeight": 6}, {"maxDualWeight": 3}],
         [{"maxWeight": 6, "maxDualWeight": 6}, {"maxWeight": 5}, {"maxDualWeight": 4}]),
    ]:
        monkeypatch.setitem(verifications.SUITES, theorem, record)
        for sizes in bad:
            code, out = _invoke(monkeypatch, capsys, {"command": "verify", "theorem": theorem, **sizes})
            assert code == 2, out
            error = json.loads(out)["error"]
            assert error["type"] == "usage" and high in error["message"]
        assert ran == []
        for sizes in good:
            code, out = _invoke(monkeypatch, capsys, {"command": "verify", "theorem": theorem, **sizes})
            assert code == 0, out
        assert len(ran) == len(good)
        ran.clear()


def test_verify_reads_each_patched_suite(monkeypatch, capsys):
    """The suites' module is loaded by the first verify request, and every
    request reads SUITES from it: after one verify, an entry patched in
    SUITES, or a SUITES replaced on the module, is the one the next
    request runs."""
    request = {"command": "verify", "theorem": "cauchy"}
    code, out = _invoke(monkeypatch, capsys, request)
    assert code == 0 and json.loads(out)["passed"] is True
    monkeypatch.setitem(verifications.SUITES, "cauchy", lambda: {"parameters": {}, "passed": False, "cases": -1})
    code, out = _invoke(monkeypatch, capsys, request)
    assert code == 0 and json.loads(out) == {"parameters": {}, "passed": False, "cases": -1}
    monkeypatch.setattr(verifications, "SUITES", {**verifications.SUITES, "cauchy": lambda: {"parameters": {}, "cases": -2}})
    code, out = _invoke(monkeypatch, capsys, request)
    assert code == 0 and json.loads(out) == {"parameters": {}, "cases": -2}


def test_skew_letter_budget(monkeypatch, capsys):
    """skew with bp caps the bx, by and bp letters summed over the rows of
    its determinant; the first size past the cap is refused at once."""
    cap = cli._BUDGETS["letters"]
    letters = [f"x{i}" for i in range(1, cap + 2)]
    at_cap = {"command": "skew", "lambda": [1, 1, 1], "bx": {"constant": ["x1", "x2"]}, "bp": {"constant": ["p1"]}}
    code, out = _invoke(monkeypatch, capsys, at_cap)
    assert code == 0, out
    for req in [
        # one letter past the cap: all in the one row of lambda = (9) ...
        {"lambda": [cap], "bx": [letters], "bp": []},
        # ... spread over the rows of bx, by and bp: 6 + 1 + 3
        {"lambda": [3, 3, 3], "bx": {"constant": ["x1", "x2"]}, "by": [["y1"]], "bp": {"constant": ["p1"]}},
        # ... or over rows 1..len(mu) when mu is the longer: 8 + 2
        {"lambda": [1], "mu": [1] * 8, "bx": {"constant": ["x1"]}, "by": [["y1"], ["y2"]], "bp": []},
        # constant rows of 4 x and 3 y letters with bp refined in 7 letters
        {
            "lambda": [1] * 9,
            "bx": {"constant": letters[:4]},
            "by": {"constant": ["y1", "y2", "y3"]},
            "bp": {"refined": [f"p{i}" for i in range(1, 8)]},
        },
    ]:
        _assert_tractability_within_a_second(monkeypatch, capsys, {"command": "skew", **req})


def test_determinant_letter_budgets(monkeypatch, capsys):
    """multischur, skew without bp and stable-dual cap the letters summed
    over the rows of their determinant; the first size past each cap is
    refused at once, and so are the old requests of many seconds."""
    cap = cli._BUDGETS["letters"]
    letters = [f"x{i}" for i in range(1, 40)]
    for command in ("multischur", "skew"):
        # at the cap: every letter in the first row, or split with by
        for req in [{"lambda": [3], "bx": [letters[:cap]]}, {"lambda": [2, 1], "bx": [letters[:5]], "by": [[], ["y1"] * (cap - 5)]}]:
            code, out = _invoke(monkeypatch, capsys, {"command": command, **req})
            assert code == 0, out
        for req in [
            # one letter past the cap: all in the first row of bx ...
            {"lambda": [9], "bx": [letters[: cap + 1]]},
            # ... spread over the rows of bx and by: 3 * 3 + 1
            {"lambda": [3, 3, 3], "bx": {"constant": letters[:3]}, "by": [["y1"]]},
            # ... through a refined tail: 0 + 1 + ... + 4
            {"lambda": [1] * 5, "bx": {"refined": letters[:5]}},
            # 12 and 14 letters in one row took 4.7 s and 13.8 s
            {"lambda": [9], "bx": [letters[:12]]},
            {"lambda": [9], "bx": [letters[:14]]},
        ]:
            _assert_tractability_within_a_second(monkeypatch, capsys, {"command": command, **req})
    # skew counts rows 1..len(mu) when mu is the longer: 8 + 2
    req = {"command": "skew", "lambda": [1], "mu": [1] * 8, "bx": {"constant": ["x1"]}, "by": [["y1"], ["y2"]]}
    _assert_tractability_within_a_second(monkeypatch, capsys, req)

    cap = cli._BUDGETS["stable-dual letters"]
    t = [f"t{i}" for i in range(1, 10)]

    def stable_dual(lam, D, bx):
        return {"command": "expand", "basis": "stable-dual", "lambda": lam, "bx": bx, "t": t, "D": D}

    def rows(*sizes):  # disjoint explicit rows, then empty ones
        bounds = [sum(sizes[:k]) for k in range(len(sizes) + 1)]
        prefix = [letters[a:b] for a, b in zip(bounds, bounds[1:])]
        return {"prefix": prefix, "tail": {"kind": "constant", "letters": []}}

    # at the cap: 4 + 3 + 3 letters on a matrix of 3 rows, and the refined
    # bx of lambda = (1, 1, 1) at D = 5, 0 + 1 + 2 + 3 + 4
    for req in [stable_dual([], 3, rows(4, 3, 3)), stable_dual([1, 1, 1], 5, {"refined": letters[:5]})]:
        code, out = _invoke(monkeypatch, capsys, req)
        assert code == 0, out
    for req in [
        stable_dual([], 8, rows(4, 4, 3)),
        stable_dual([], 8, rows(cap + 1)),
        # a constant bx counts on every one of the 7 rows: 7 * 2
        stable_dual([1], 7, {"constant": letters[:2]}),
        # 8 and 12 constant letters took 5.3 s and 36 s
        stable_dual([1], 7, {"constant": letters[:8]}),
        stable_dual([1], 7, {"constant": letters[:12]}),
    ]:
        _assert_tractability_within_a_second(monkeypatch, capsys, req)


LETTERS = [f"x{i}" for i in range(1, 40)]
# one letter x1 + ... + x14, serialized as 14 terms; the budgets count it as 14
POLY14 = [{"coefficient": "1", "monomial": {x: 1}} for x in LETTERS[:14]]


def _verify_past(theorem, key):
    return lambda n: [{"command": "verify", "theorem": theorem, key: n}]


# Budget name -> requests past its cap, given n = cap + 1: a request of
# size n, then requests that ran for seconds to minutes without the budget.
PAST_CAP = {
    "weight": lambda n: [
        {"command": "multischur", "lambda": [n], "bx": [["x1"]]},
        {"command": "expand", "basis": "refined", "lambda": [2] * 10, "t": LETTERS[:9]},
        {"command": "expand", "basis": "refined", "lambda": [1] * 16, "t": LETTERS[:15]},
    ],
    "letters": lambda n: [
        {"command": "expand", "basis": "schur", "lambda": [1], "bx": [LETTERS[:n]]},
        {"command": "expand", "basis": "schur", "lambda": [9], "bx": [LETTERS[:14]]},
        # ran past 30 s while a polynomial letter counted as one
        {"command": "multischur", "lambda": [9], "bx": [[POLY14]]},
        {"command": "expand", "basis": "truncated", "lambda": [1], "bx": {"constant": LETTERS[:5]}, "r": 6, "D": 20},
        # t_1..t_8 join the 2 letters of bx in the columns of lambda = (1^9)
        {"command": "expand", "basis": "refined", "lambda": [1] * 9, "t": LETTERS[:8], "bx": [["y1", "y2"]]},
    ],
    "D": lambda n: [{"command": "expand", "basis": "truncated", "lambda": [], "bx": [["x1"]], "r": 1, "D": n}],
    "stable rows": lambda n: [{"command": "expand", "basis": "stable", "lambda": [], "t": LETTERS, "D": n}],
    "stable-dual rows": lambda n: [
        {"command": "expand", "basis": "stable-dual", "lambda": [], "bx": {"refined": ["s1"]}, "t": LETTERS, "D": n}
    ],
    "stable-dual letters": lambda n: [
        {"command": "expand", "basis": "stable-dual", "lambda": [], "bx": [LETTERS[:n]], "t": [], "D": 1}
    ],
    "truncated rows": lambda n: [
        {"command": "expand", "basis": "truncated", "lambda": [], "bx": [["x1"]], "r": n, "D": 1},
        {"command": "expand", "basis": "truncated", "lambda": [1], "bx": [["x1"]], "r": 1000, "D": 3},
        {"command": "expand", "basis": "truncated", "lambda": [1], "bx": {"refined": LETTERS}, "r": 60, "D": 10},
    ],
    "flag vars": lambda n: [
        {"command": "multischur", "lambda": [1], "flag": [n], "vars": LETTERS[:n]},
        {"command": "multischur", "lambda": [9], "flag": [14], "vars": LETTERS[:14]},
        {"command": "multischur", "lambda": [6], "flag": [1], "vars": [POLY14]},
    ],
    "eval vars": lambda n: [
        {"command": "eval", "f": {"schur": [1]}, "vars": LETTERS[:n]},
        {"command": "eval", "f": {"schur": [9]}, "vars": LETTERS[:14]},
        {"command": "eval", "f": {"schur": [6]}, "vars": [POLY14]},
    ],
    "exponent": lambda n: [
        {"command": "multischur", "lambda": [1], "bx": [[f"1e{n}"]]},
        # ran 12 s, then failed at output, without the budget
        {"command": "multischur", "lambda": [1], "bx": [["1e10000000"]]},
        {"command": "multischur", "lambda": [1], "bx": [[[{"coefficient": " 2.5E-1_000_000 ", "monomial": {"x1": 1}}]]]},
        {"command": "inner", "f": {"terms": [{"partition": [1], "coeff": [{"coefficient": "1e10000000"}]}]}, "g": {}},
    ],
    "digits": lambda n: [
        {"command": "multischur", "lambda": [1], "bx": [["9" * n]]},
        {"command": "multischur", "lambda": [1], "bx": [[10**n]]},
        {"command": "multischur", "lambda": [1], "bx": [[f" -{'1' * n}.5e3 "]]},
        {"command": "multischur", "lambda": [1], "bx": [["1/" + "3" * n]]},
        {"command": "multischur", "lambda": [1], "bx": [[[{"coefficient": "7" * n, "monomial": {"x1": 1}}]]]},
        {"command": "multischur", "lambda": [1], "bx": [[[{"coefficient": -(10**n), "monomial": {"x1": 1}}]]]},
        {"command": "inner", "f": {"terms": [{"partition": [1], "coeff": [{"coefficient": "1/" + "9" * n}]}]}, "g": {}},
    ],
    "eval weight": lambda n: [
        {"command": "eval", "f": {"schur": [n]}, "vars": ["x1"]},
        {"command": "eval", "f": {"schur": [6, 6, 6, 6]}, "vars": LETTERS[:5]},
        {"command": "eval", "f": {"schur": [25]}, "vars": LETTERS[:6]},
    ],
    **{
        f"{theorem} {field.name}": _verify_past(theorem, field.name)
        for theorem, fields in SIZES.items()
        for field in fields
    },
}


def test_letter_budgets_count_terms(monkeypatch, capsys):
    cap = cli._BUDGETS["letters"]
    # a letter counts its terms, and the zero letter, with none, counts 1
    for bx in ([POLY14[:cap]], ["0"] * cap, ["0"] * (cap - 2) + [POLY14[:2]]):
        code, out = _invoke(monkeypatch, capsys, {"command": "multischur", "lambda": [1], "bx": [bx]})
        assert code == 0, out
    for bx in ([POLY14[: cap + 1]], ["0"] * (cap + 1), ["0"] * (cap - 1) + [POLY14[:2]]):
        _assert_tractability_within_a_second(monkeypatch, capsys, {"command": "multischur", "lambda": [1], "bx": [bx]})


@pytest.mark.parametrize("name", sorted(cli._BUDGETS))
def test_every_budget_refuses_past_its_cap(monkeypatch, capsys, name):
    for req in PAST_CAP[name](cli._BUDGETS[name] + 1):
        _assert_tractability_within_a_second(monkeypatch, capsys, req)


def test_readme_lists_every_budget():
    rows = {}
    for line in (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line.strip().strip("|"))]
        if line.startswith("| `") and len(cells) >= 3:
            rows[cells[0].strip("`")] = cells[1:3]
    for name, cap in cli._BUDGETS.items():
        assert name in rows and rows[name][1] == str(cap), name
    # each verify row states the field's default
    for theorem, fields in SIZES.items():
        for field in fields:
            assert rows[f"{theorem} {field.name}"][0] == f"`verify` size, default {field.default}", field


# The public names of the package, as `from multischur import *` binds them.
EXPORTS = """AlphabetSequence ChargeError DimensionError FockVector MayaState PSI PSI_STAR Partition
    SUITES Scalar SymFunc TractabilityError TruncationError apply_dressed_fermion apply_exp_H
    apply_fermion apply_heisenberg bra_refined_pair bra_refined_table det_over_ring empty_sequence
    eval_symfunc expand_in_refined_basis flagged_schur h_series hall_inner horizontal_strips
    ket_general ket_partition ket_refined ket_refined_table multi_schur partitions_up_to_weight prefix_sequence
    refined_alphabet refined_dual_grothendieck refined_sequence scalar_from_json scalar_to_json
    schur_expand_multischur schur_tableau_oracle skew_function skew_multi_schur stable_dual_in_G
    stable_grothendieck_schur subpartitions superpartitions supersym_schur sym_schur symfunc_from_json
    symfunc_to_json truncated_dual_expansion vacuum_ket""".split()


def _fresh(code: str) -> str:
    """The stdout of `code` run in a fresh interpreter that imports this multischur."""
    src = str(Path(multischur.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_readme_quick_start_runs():
    """Both Python blocks of the README's library quick start, in order, in one fresh interpreter."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    assert _fresh("".join(blocks) + "print('ok')\n") == "ok\n"


def test_import_loads_no_module():
    out = _fresh("import sys, multischur; print([m for m in sys.modules if m.startswith('multischur.')])")
    assert out == "[]\n"


def test_fock_loads_only_exactalg_and_shapes():
    """The fermion engine imports nothing of the determinant route."""
    out = _fresh("import sys, multischur.fock; print(sorted(m for m in sys.modules if m.startswith('multischur.')))")
    assert out == "['multischur.exactalg', 'multischur.fock', 'multischur.shapes']\n"


def test_request_loads_only_what_it_runs():
    child = f"""
import io, json, sys
import multischur.cli as cli

def ask(request):
    sys.stdin, sys.stdout = io.StringIO(json.dumps(request)), io.StringIO()
    code, out = cli.main([]), sys.stdout.getvalue()
    sys.stdout = sys.__stdout__
    return [code, json.loads(out), sorted(set(sys.modules) & {{"multischur.fock", "multischur.verifications", "dataclasses", "argparse", "gettext"}})]

print(json.dumps([ask({MULTISCHUR_REQ!r}), ask({{"command": "verify", "theorem": "cauchy"}})]))
"""
    (code, _, loaded), (verify_code, verify, verify_loaded) = json.loads(_fresh(child))
    assert code == 0 and loaded == []
    assert verify_code == 0 and verify["passed"] is True
    assert verify_loaded == ["multischur.fock", "multischur.verifications"]
    # the unknown-theorem check reads the size table, which loads neither fock nor verifications
    assert set(SIZES) == set(verifications.SUITES)


def test_package_names_each_export_once(monkeypatch):
    assert len(EXPORTS) == 53
    assert multischur.__all__ == sorted(EXPORTS)
    for name in EXPORTS:
        module = importlib.import_module(f"multischur.{multischur._MODULE_OF[name]}")
        value = getattr(multischur, name)
        assert value is getattr(module, name), name
        if callable(value):  # a class or function: the table names the module that defines it
            assert value.__module__ == module.__name__, name
        assert name in dir(multischur)
    namespace = {}
    exec("from multischur import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPORTS)
    with pytest.raises(AttributeError):
        multischur.no_such_name
    # read through on every access: a name patched on its module shows through
    monkeypatch.setattr(expansions, "hall_inner", "patched")
    assert multischur.hall_inner == "patched"
