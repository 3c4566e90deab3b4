"""Property tests of the request boundary: every request, well-formed or
not, and every argument list gets exactly one JSON document on stdout,
an exit status of 0, 1 or 2, and nothing on stderr; a key that its form
does not read, at the top or in a nested object, and a command or
theorem that names no form are each one usage error.  The requests are
built from the fields of every command, each filled with a valid value
or with junk, at small sizes."""

import contextlib
import copy
import io
import json
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multischur import cli
from multischur.suite_sizes import SIZES

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.one_of(st.none(), st.integers(-1, 3), st.text(max_size=2)), max_size=3),
    st.lists(st.lists(st.integers(-1, 2), max_size=2), max_size=2),
    st.dictionaries(st.sampled_from(["kind", "t", "refined", "lambda", "terms"]), st.integers(-1, 2), max_size=2),
    # letters that do not parse: reserved, a zero denominator, not a name
    st.lists(st.sampled_from(["beta", "1/0", "x 1", "x1^2"]), min_size=1, max_size=2),
)

TERM = st.fixed_dictionaries(
    {"coefficient": st.sampled_from(["1", "-2", "1/3"]), "monomial": st.sampled_from([{}, {"x1": 2}, {"t1": 1}])}
)
LETTER = st.one_of(st.sampled_from(["x1", "x2", "y1", "t1", "t2", "-t1", "1/2", "-1", "0"]), st.integers(-2, 2), TERM)
LETTERS = st.lists(LETTER, max_size=7)
ROWS = st.lists(st.lists(LETTER, max_size=3), max_size=4)


@st.composite
def partitions(draw, weight=4):
    parts, left = [], draw(st.integers(0, weight))
    while left:
        p = draw(st.integers(1, min(left, parts[-1] if parts else left)))
        parts.append(p)
        left -= p
    return parts


TAIL = st.one_of(
    st.fixed_dictionaries({"kind": st.just("empty")}),
    st.fixed_dictionaries({"kind": st.just("constant")}, optional={"letters": LETTERS}),
    st.fixed_dictionaries(
        {"kind": st.just("refined")}, optional={"base": LETTERS, "t": LETTERS, "increments": ROWS}
    ),
    JUNK,
)
SEQUENCE = st.one_of(
    ROWS,
    st.fixed_dictionaries({"refined": LETTERS}),
    st.fixed_dictionaries({"constant": LETTERS}),
    st.fixed_dictionaries({}, optional={"prefix": ROWS, "tail": TAIL, "refined": LETTERS}),
)
SMALL = st.integers(-1, 6)


def _or_junk(valid):
    """A valid value three times in four, else junk."""
    return st.one_of(valid, valid, valid, JUNK)


SPEC = st.fixed_dictionaries({"lambda": partitions(), "t": LETTERS}, optional={"D": SMALL})
SYMFUNC = st.one_of(
    st.fixed_dictionaries({"schur": _or_junk(partitions())}),
    st.fixed_dictionaries({"refined": _or_junk(SPEC)}),
    st.fixed_dictionaries({"stable": _or_junk(SPEC)}),
    st.fixed_dictionaries(
        {"basis": st.sampled_from(["schur", "schur", "stable"])},
        optional={
            "truncation": _or_junk(SMALL),
            "terms": st.lists(
                st.fixed_dictionaries({"partition": _or_junk(partitions()), "coeff": _or_junk(st.lists(TERM, max_size=2))}),
                max_size=3,
            ),
        },
    ),
)

FIELDS = {
    "lambda": partitions(),
    "mu": partitions(2),
    "bx": SEQUENCE,
    "by": SEQUENCE,
    "bp": SEQUENCE,
    "flag": st.lists(st.integers(0, 4), max_size=4),
    "vars": LETTERS,
    "basis": st.sampled_from(["schur", "refined", "truncated", "stable", "stable-dual", "other"]),
    "t": LETTERS,
    "r": SMALL,
    "D": SMALL,
    "f": SYMFUNC,
    "g": SYMFUNC,
}
# The fields each form of a command reads; `basis` picks the form of `expand`.
FORMS = {
    "multischur": [("lambda", "bx"), ("lambda", "bx", "by"), ("lambda", "flag", "vars")],
    "expand": [
        ("lambda", "basis=schur", "bx", "by"),
        ("lambda", "basis=refined", "t"),
        ("lambda", "basis=refined", "t", "bx", "by"),
        ("lambda", "basis=truncated", "bx", "r", "D"),
        ("lambda", "basis=stable", "t", "D"),
        ("lambda", "basis=stable-dual", "bx", "t", "D"),
    ],
    "skew": [("lambda", "mu", "bx", "by"), ("lambda", "mu", "bx", "bp")],
    "inner": [("f", "g")],
    "eval": [("f", "vars")],
    "other": [("lambda",)],
}


@st.composite
def requests(draw):
    """A well-formed request of some form, then half of the time one
    field replaced by junk, dropped, or added from another form."""
    command = draw(st.sampled_from(sorted(FORMS) + ["verify"]))
    if command == "verify":
        theorem = draw(st.one_of(st.sampled_from(sorted(SIZES) + ["other"]), JUNK))
        # every size field is present, so no suite runs at its default
        # sizes (cauchy has none and fixed cases)
        fields = SIZES.get(theorem, ()) if isinstance(theorem, str) else ()
        sizes = {field.name: draw(_or_junk(st.integers(1, 3))) for field in fields}
        return {"command": command, "theorem": theorem, **sizes}
    req = {"command": command}
    for name in draw(st.sampled_from(FORMS[command])):
        name, _, value = name.partition("=")
        req[name] = value or draw(FIELDS[name])
    change = draw(st.sampled_from(["none", "none", "none", "junk", "drop", "add"]))
    names = sorted({name.partition("=")[0] for form in FORMS[command] for name in form})
    name = draw(st.sampled_from(names))
    if change == "junk":
        req[name] = draw(JUNK)
    elif change == "drop":
        req.pop(name, None)
    elif change == "add":
        req[name] = draw(FIELDS[name])
    return req


def _ask(request, argv=()):
    """The exit status and stdout of one request; nothing may reach stderr."""
    stdout, stderr, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(json.dumps(request))
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(list(argv))
    finally:
        sys.stdin = stdin
    assert stderr.getvalue() == ""
    return code, stdout.getvalue()


def _assert_one_usage_error(request, code, out):
    assert code == 2 and out.count("\n") == 1, (request, out)
    assert json.loads(out)["error"]["type"] == "usage", (request, out)


@given(requests())
@settings(max_examples=150, deadline=None)
def test_every_request_gets_one_json_outcome(request):
    code, out = _ask(request)
    assert code in (0, 1, 2), (request, out)
    assert out.endswith("\n") and out.count("\n") == 1, (request, out)
    doc = json.loads(out)
    assert (code == 0) != (isinstance(doc, dict) and "error" in doc), (request, out)


# Every key some object can read; a monomial's keys are letters, not keys.
KNOWN_KEYS = set().union(*cli._FORMS.values(), {"partition", "coeff", "coefficient", "monomial"})


def _objects(value, path=()):
    """The paths to `value` and to each object nested in it, monomials aside."""
    if isinstance(value, dict):
        yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        if key != "monomial":
            yield from _objects(item, (*path, key))


@given(requests(), st.text(min_size=1, max_size=4).filter(lambda key: key not in KNOWN_KEYS), st.data())
@settings(max_examples=300, deadline=None)
def test_an_unknown_key_is_one_usage_error(request, key, data):
    """An unknown key added to an answered request, or to one object
    nested in it, turns the answer into one usage error."""
    assume(_ask(request)[0] == 0)
    top = {**request, key: 1}
    _assert_one_usage_error(top, *_ask(top))
    nested = copy.deepcopy(request)
    paths = list(_objects(nested))[1:]
    if paths:
        obj = nested
        for step in data.draw(st.sampled_from(paths[::-1])):  # the later objects first: the deeper ones
            obj = obj[step]
        obj[key] = 1
        _assert_one_usage_error(nested, *_ask(nested))


@given(st.one_of(JUNK, st.text(max_size=8)), st.booleans())
@settings(max_examples=100, deadline=None)
def test_a_junk_command_or_theorem_is_one_usage_error(name, as_theorem):
    if as_theorem:
        assume(not (isinstance(name, str) and name in SIZES))
        request = {"command": "verify", "theorem": name}
    else:
        # any command misses a field or has one it does not read
        request = {"command": name, "lambda": [1]}
    code, out = _ask(request)
    _assert_one_usage_error(request, code, out)
    command = request["command"]
    assert json.loads(out)["error"]["operation"] == (command if isinstance(command, str) else "parse")


ARG_REQUEST = {"command": "multischur", "lambda": [1], "bx": [["x1"]]}
FILE = object()  # stands for a file that holds ARG_REQUEST
# Option-like and plain tokens, and a real `--input FILE` pair.
ARG_TOKENS = ["--bogus", "--max-weight", "--truncation", "--seed", "--command", "--input", "--input=", "-x", "2", "",
              "-h", "--help", ("--input", FILE)]


@pytest.fixture(scope="module")
def request_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("args") / "request.json"
    path.write_text(json.dumps(ARG_REQUEST), encoding="utf-8")
    return str(path)


@given(tokens=st.lists(st.sampled_from(ARG_TOKENS), max_size=4))
@settings(max_examples=100, deadline=None)
def test_every_argument_list_gets_one_json_outcome(request_file, tokens):
    """No SystemExit and nothing on stderr: only no arguments or one
    `--input FILE` pair reach the request, any other list is one usage
    error, and an --input naming no readable file is one io error."""
    argv = [request_file if t is FILE else t for token in tokens for t in (token if isinstance(token, tuple) else (token,))]
    code, out = _ask(ARG_REQUEST, argv)
    assert code in (0, 1, 2), (argv, out)
    assert out.endswith("\n") and out.count("\n") == 1, (argv, out)
    doc = json.loads(out)
    assert (code == 0) != (isinstance(doc, dict) and "error" in doc), (argv, out)
    assert (code == 0) == (argv in ([], ["--input", request_file])), (argv, out)
    if argv and (len(argv) != 2 or argv[0] != "--input"):
        assert code == 2 and doc["error"]["type"] == "usage", (argv, out)
