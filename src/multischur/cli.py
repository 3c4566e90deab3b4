"""JSON command-line interface.

One request per invocation, read from --input or stdin:

    {"command": "expand", "lambda": [2,1], "basis": "refined",
     "t": ["t1", "t2"]}

Commands: multischur, expand, skew, inner, eval, verify.  Indeterminates
are declared implicitly by first use; "beta" is reserved.  Output is a
single deterministic JSON document on stdout; errors are reported as
{"error": {...}} with a nonzero exit status.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from itertools import accumulate, chain, islice
from typing import Iterable, Mapping, Sequence

from .exactalg import (
    DimensionError,
    Scalar,
    UnboundIndeterminateError,
    scalar_from_json,
    scalar_to_json,
)
from .expansions import (
    _BRANCHING_MAX_WEIGHT,
    _ORACLE_MAX_WEIGHT,
    MAX_DEGREE_BOUND,
    SymFunc,
    TractabilityError,
    TruncationError,
    eval_symfunc,
    expand_in_refined_basis,
    flagged_schur,
    hall_inner,
    multi_schur,
    refined_dual_grothendieck,
    schur_expand_multischur,
    skew_function,
    skew_multi_schur,
    stable_dual_in_G,
    stable_grothendieck_schur,
    sym_schur,
    symfunc_from_json,
    symfunc_to_json,
    truncated_dual_expansion,
)
from .shapes import AlphabetSequence, ChargeError, Partition


class UsageError(ValueError):
    """The request does not match any command schema."""


_RESERVED = {"beta"}
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_MISSING = object()


# -- budgets ----------------------------------------------------------


# Request field -> (keyword, default, cap) per suite; the default is the
# suite's own, the branching and classical weight caps their oracles'.
# With every field at its cap a suite answers in at most 0.6 s (2-core host).
_SUITE_KWARGS = {
    "orthonormality": {"maxWeight": ("max_weight", 5, 8)},
    "dual-engine": {"maxWeight": ("max_weight", 4, 7)},
    "hall-duality": {"maxWeight": ("max_weight", 5, 9), "truncation": ("truncation", 5, 9)},
    "cauchy": {},
    "branching": {
        "maxWeight": ("max_weight", 5, _BRANCHING_MAX_WEIGHT),
        "generalMaxWeight": ("general_max_weight", 3, _BRANCHING_MAX_WEIGHT),
    },
    "truncation-stability": {
        "maxWeight": ("max_weight", 3, 5),
        "maxRows": ("max_rows", 3, 5),
        "maxTruncation": ("max_truncation", 5, 7),
    },
    "beta-chain": {"maxWeight": ("max_weight", 4, 7), "maxDualWeight": ("max_dual_weight", 5, 8)},
    "classical": {
        "maxWeight": ("max_weight", 6, _ORACLE_MAX_WEIGHT),
        "window": ("window", 3, 4),
        "pairingRows": ("pairing_rows", 3, 4),
    },
}

# Budget name -> cap.  Each caps one size that a request's cost grows with;
# a request past a cap is refused as tractability before any work.  The
# README's budget table says what each one counts and gives the timed
# requests at and past its cap.
_BUDGETS = {
    "weight": 9,
    "letters": 9,
    "D": MAX_DEGREE_BOUND,
    "stable rows": 11,
    "stable-dual rows": 8,
    "stable-dual letters": 10,
    "truncated rows": 8,
    "flag vars": 6,
    "eval vars": 7,
    "eval weight": 6,
    **{f"{theorem} {key}": cap for theorem, fields in _SUITE_KWARGS.items() for key, (_, _, cap) in fields.items()},
}


# No command reads an alphabet sequence past this row: each reads rows
# 1..max(len λ, len μ) within the weight cap, 1..r, or the rows of the
# stable-dual matrix.
_LAST_ROW_READ = max(_BUDGETS["weight"], _BUDGETS["truncated rows"], _BUDGETS["stable-dual rows"])


def _budget(name: str, got: int) -> None:
    """A TractabilityError when `got` is past the cap of budget `name`."""
    cap = _BUDGETS[name]
    if got > cap:
        raise TractabilityError(f"budget {name!r} is capped at {cap}: got {got}")


def _field(req: Mapping, *names: str, default=_MISSING):
    if not isinstance(req, Mapping):
        raise UsageError(f"expected an object with field {names[0]!r}, got {req!r}")
    for name in names:
        if name in req:
            return req[name]
    if default is _MISSING:
        raise UsageError(f"missing request field {names[0]!r}")
    return default


def _partition(req: Mapping, *names: str, default=_MISSING) -> Partition:
    raw = _field(req, *names, default=default)
    try:
        return Partition(raw if raw is not None else ())
    except (TypeError, ValueError) as e:
        raise UsageError(f"bad partition for {names[0]!r}: {e}") from e


def _check_name(name: str) -> str:
    if not _NAME.match(name):
        raise UsageError(f"bad indeterminate name: {name!r}")
    if name in _RESERVED:
        raise UsageError(f"indeterminate name {name!r} is reserved")
    return name


def parse_scalar(value) -> Scalar:
    """Accept an integer, a rational string, a (possibly negated) name,
    a single serialized term, or a full term list."""
    if isinstance(value, bool):
        raise UsageError(f"bad scalar: {value!r}")
    if isinstance(value, int):
        return Scalar.from_rational(value)
    if isinstance(value, str):
        text = value.strip()
        name = text[1:] if text.startswith("-") else text
        if _NAME.match(name) and not name.isdigit():
            var = Scalar.variable(_check_name(name))
            return -var if text.startswith("-") else var
        try:
            return Scalar.from_rational(Fraction(text))
        except (ValueError, ZeroDivisionError) as e:
            raise UsageError(f"bad scalar literal {value!r}: {e}") from e
    if isinstance(value, Mapping):
        value = [value]
    if isinstance(value, list):
        try:
            p = scalar_from_json(value)
        except (TypeError, ValueError, KeyError) as e:
            raise UsageError(f"bad scalar terms: {e}") from e
        for name in p.indeterminates():
            _check_name(name)
        return p
    raise UsageError(f"bad scalar: {value!r}")


def parse_alphabet(value) -> tuple[Scalar, ...]:
    if not isinstance(value, list):
        raise UsageError(f"alphabet must be a list: {value!r}")
    return tuple(parse_scalar(v) for v in value)


def _alphabet_rows(value, name: str) -> tuple[tuple[Scalar, ...], ...]:
    if not isinstance(value, list):
        raise UsageError(f"{name} must be a list of alphabets: {value!r}")
    return tuple(parse_alphabet(row) for row in value)


# The keys that each form of an alphabet sequence reads.
_SEQUENCE_KEYS = {"refined": {"refined"}, "constant": {"constant"}, "prefix/tail": {"prefix", "tail"}}


def parse_sequence(value) -> AlphabetSequence:
    """Alphabet sequences: {"prefix": [...], "tail": {...}}, the
    shorthands {"refined": [t...]} / {"constant": [letters]}, or a bare
    list of rows (empty past the end).  Every row given is checked, but
    none past _LAST_ROW_READ is built: a refined form of n letters spells
    n + 1 rows of n**2 / 2 letters in all.  A key that the form, or the
    tail's kind, does not read is a usage error."""
    if isinstance(value, list):
        return _first_rows(_alphabet_rows(value, "alphabet sequence"), [()])
    if not isinstance(value, Mapping):
        raise UsageError(f"bad alphabet sequence: {value!r}")
    form = "refined" if "refined" in value else "constant" if "constant" in value else "prefix/tail"
    _only(value, f"a {form} sequence", _SEQUENCE_KEYS[form])
    if form == "refined":
        return _first_rows((), accumulate(((x,) for x in parse_alphabet(value["refined"])), initial=()))
    if form == "constant":
        return _first_rows((), [parse_alphabet(value["constant"])])
    prefix = _alphabet_rows(value.get("prefix", []), "prefix")
    tail_spec = value.get("tail", {"kind": "empty"})
    kind = tail_spec.get("kind") if isinstance(tail_spec, Mapping) else None
    if kind not in ("empty", "constant", "refined"):
        raise UsageError(f"bad tail rule: {tail_spec!r}")
    # the keys each kind reads; a refined tail spells its increments as `t` or as `increments`
    steps = "t" if "t" in tail_spec else "increments"
    keys = {"empty": {"kind"}, "constant": {"kind", "letters"}, "refined": {"kind", "base", steps}}
    _only(tail_spec, f"a {kind} tail", keys[kind])
    if kind == "empty":
        tail = [()]
    elif kind == "constant":
        tail = [parse_alphabet(tail_spec.get("letters", []))]
    else:
        if steps == "t":
            increments = tuple((x,) for x in parse_alphabet(tail_spec["t"]))
        else:
            increments = _alphabet_rows(tail_spec.get("increments", []), "increments")
        # row k of the tail is base followed by the first k - 1 increments
        tail = accumulate(increments, initial=parse_alphabet(tail_spec.get("base", [])))
    return _first_rows(prefix, tail)


def _first_rows(prefix: Sequence, tail: Iterable) -> AlphabetSequence:
    """The sequence of `prefix` then `tail`, built up to _LAST_ROW_READ."""
    return AlphabetSequence(islice(chain(prefix, tail), _LAST_ROW_READ))


def _unread(req: Mapping, form: str, *names: str) -> None:
    """A usage error for a field that `form` does not read, since the
    request would otherwise be answered as if the field were absent."""
    for name in names:
        if name in req:
            raise UsageError(f"{form} does not read field {name!r}")


def _only(spec: Mapping, form: str, keys: set) -> None:
    """_unread for every key of `spec` outside the `keys` that `form` reads."""
    _unread(spec, form, *(name for name in spec if name not in keys))


def _by(req: Mapping) -> AlphabetSequence:
    """The optional `by`: missing or null means empty rows."""
    by = _field(req, "by", default=None)
    return parse_sequence([] if by is None else by)


def parse_symfunc(value) -> SymFunc:
    """A serialized element, or a constructor shorthand:
    {"schur": [...]}, {"refined": {...}}, {"stable": {...}}."""
    if not isinstance(value, Mapping):
        raise UsageError(f"bad symmetric function: {value!r}")
    if "terms" in value or "basis" in value:
        try:
            f = symfunc_from_json(value)
        except (TypeError, ValueError, KeyError) as e:
            raise UsageError(f"bad symmetric function: {e}") from e
        for _, c in f.terms():
            for name in c.indeterminates():
                _check_name(name)
        return f
    if "schur" in value:
        try:
            return sym_schur(value["schur"])
        except (TypeError, ValueError) as e:
            raise UsageError(f"bad partition in schur shorthand: {e}") from e
    if "refined" in value:
        spec = value["refined"]
        lam = _partition(spec, "lambda", "λ")
        _budget("weight", lam.weight)
        return refined_dual_grothendieck(lam, _letters(spec, len(lam)))
    if "stable" in value:
        spec = value["stable"]
        lam = _partition(spec, "lambda", "λ")
        D = _degree_bound(spec, lam)
        return stable_grothendieck_schur(lam, _stable_letters(spec, lam, D), D)
    raise UsageError(f"bad symmetric function: {value!r}")


def _int_field(req: Mapping, *names: str, default=_MISSING) -> int:
    raw = _field(req, *names, default=default)
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise UsageError(f"field {names[0]!r} must be an integer: {raw!r}")
    return raw


def _degree_bound(req: Mapping, lam: Partition) -> int:
    """D >= |lambda|, else a usage error; a TractabilityError past the budget."""
    D = _int_field(req, "D", "truncation")
    if D < lam.weight:
        raise UsageError(f"degree bound {D} is below |lambda| = {lam.weight}")
    _budget("D", D)
    return D


def _stable_letters(req: Mapping, lam: Partition, D: int, budget: str = "stable rows"):
    """The letters t of a stable expansion whose largest matrix has
    len(lam) + D - |lam| rows, within `budget`."""
    rows = len(lam) + D - lam.weight
    _budget(budget, rows)
    return _letters(req, rows)


def _letter_count(alphabet: Sequence[Scalar]) -> int:
    """The letters of an alphabet as the budgets count them: each entry counts its terms, at least 1."""
    return sum(max(1, len(list(x.terms()))) for x in alphabet)


def _letter_sum(seqs: Sequence[AlphabetSequence], rows: int) -> int:
    """The letter counts of `seqs` summed over the rows 1..rows of a determinant."""
    return sum(_letter_count(seq.alphabet(i)) for seq in seqs for i in range(1, rows + 1))


def _letters(req: Mapping, rows: int) -> tuple[Scalar, ...]:
    """The letters t, enough for the row alphabets (t_1, ..., t_{i-1})
    of rows 1..rows; too few is a usage error."""
    t = parse_alphabet(_field(req, "t"))
    if len(t) < rows - 1:
        raise UsageError(f"{rows} rows need {rows - 1} letters in t, got {len(t)}")
    return t


# -- commands ---------------------------------------------------------


def _cmd_multischur(req: Mapping) -> object:
    lam = _partition(req, "lambda", "λ")
    _budget("weight", lam.weight)
    if "flag" in req:
        _unread(req, "multischur with a flag", "bx", "by")
        flag = req["flag"]
        if not isinstance(flag, list) or not all(
            isinstance(b, int) and not isinstance(b, bool) for b in flag
        ):
            raise UsageError(f"flag must be a list of integers: {flag!r}")
        vars_ = parse_alphabet(_field(req, "vars"))
        _budget("flag vars", _letter_count(vars_[: max([0, *flag[: len(lam)]])]))
        try:
            value = flagged_schur(lam, flag, vars_)
        except ValueError as e:  # every ValueError of flagged_schur is a malformed flag
            raise UsageError(f"bad flag: {e}") from e
        return scalar_to_json(value)
    _unread(req, "multischur without a flag", "vars")
    bx = parse_sequence(_field(req, "bx"))
    by = _by(req)
    _budget("letters", _letter_sum((bx, by), len(lam)))
    return scalar_to_json(multi_schur(lam, bx, by))


def _cmd_expand(req: Mapping) -> object:
    lam = _partition(req, "lambda", "λ")
    basis = _field(req, "basis", default="schur")
    if basis == "schur":
        _budget("weight", lam.weight)
        bx = parse_sequence(_field(req, "bx"))
        by = _by(req)
        _budget("letters", _letter_sum((bx, by), len(lam)))
        return symfunc_to_json(schur_expand_multischur(lam, bx, by))
    if basis == "refined":
        _budget("weight", lam.weight)
        t = _letters(req, len(lam))
        if "bx" in req:
            bx = parse_sequence(req["bx"])
            by = _by(req)
            # column j adds the letters t_1..t_{j-1} to every row's by
            _budget("letters", _letter_sum((bx, by), len(lam)) + _letter_count(t[: max(len(lam) - 1, 0)]))
            coeffs = expand_in_refined_basis(lam, bx, by, t)
            return {**symfunc_to_json(SymFunc(coeffs)), "basis": "refined"}
        _unread(req, "expand refined without bx", "by")
        return symfunc_to_json(refined_dual_grothendieck(lam, t))
    if basis == "truncated":
        _unread(req, "expand truncated", "by")
        bx = parse_sequence(_field(req, "bx"))
        r = _int_field(req, "r")
        if r < len(lam):
            raise UsageError(f"need r >= {len(lam)} rows for lambda {list(lam)}, got {r}")
        _budget("truncated rows", r)
        D = _degree_bound(req, lam)
        _budget("letters", _letter_sum((bx,), r))
        return symfunc_to_json(truncated_dual_expansion(lam, bx, r, D))
    if basis == "stable":
        _unread(req, "expand stable", "bx", "by")
        D = _degree_bound(req, lam)
        t = _stable_letters(req, lam, D)
        return symfunc_to_json(stable_grothendieck_schur(lam, t, D))
    if basis == "stable-dual":
        _unread(req, "expand stable-dual", "by")
        bx = parse_sequence(_field(req, "bx"))
        D = _degree_bound(req, lam)
        t = _stable_letters(req, lam, D, "stable-dual rows")
        _budget("stable-dual letters", _letter_sum((bx,), len(lam) + D - lam.weight))
        return {**symfunc_to_json(SymFunc(stable_dual_in_G(lam, bx, t, D), D)), "basis": "stable"}
    raise UsageError(f"unknown basis {basis!r}")


def _cmd_skew(req: Mapping) -> object:
    lam = _partition(req, "lambda", "λ")
    mu = _partition(req, "mu", "μ", default=())
    _budget("weight", lam.weight + mu.weight)
    bx = parse_sequence(_field(req, "bx"))
    by = _by(req)
    rows = max(len(lam), len(mu))
    if "bp" in req:
        bp = parse_sequence(req["bp"])
        _budget("letters", _letter_sum((bx, by, bp), rows))
        return symfunc_to_json(skew_function(lam, mu, bx, by, bp))
    _budget("letters", _letter_sum((bx, by), rows))
    return scalar_to_json(skew_multi_schur(lam, mu, bx, by))


def _cmd_inner(req: Mapping) -> object:
    f = parse_symfunc(_field(req, "f"))
    g = parse_symfunc(_field(req, "g"))
    return scalar_to_json(hall_inner(f, g))


def _cmd_eval(req: Mapping) -> object:
    vars_ = parse_alphabet(_field(req, "vars"))
    _budget("eval vars", _letter_count(vars_))
    f = parse_symfunc(_field(req, "f"))
    _budget("eval weight", f.max_degree())
    return scalar_to_json(eval_symfunc(f, vars_))


# Pairs (low, high) of fields that a suite needs with low <= high, since it
# expands every shape of weight up to `low` at degree `high`; a field left
# out takes the suite's default.  Else the request is malformed.
_SUITE_ORDER = {
    "hall-duality": ("maxWeight", "truncation"),
    "beta-chain": ("maxWeight", "maxDualWeight"),
}


def _cmd_verify(req: Mapping) -> object:
    theorem = _field(req, "theorem")
    if theorem not in _SUITE_KWARGS:
        known = ", ".join(sorted(_SUITE_KWARGS))
        raise UsageError(f"unknown theorem {theorem!r}; known suites: {known}")
    fields = _SUITE_KWARGS[theorem]
    sizes = {key: default for key, (_, default, _) in fields.items()}
    for key in fields:
        if key in req:
            sizes[key] = _int_field(req, key)
            if sizes[key] < 1:
                raise UsageError(f"field {key!r} must be at least 1: {sizes[key]}")
            _budget(f"{theorem} {key}", sizes[key])
    if theorem in _SUITE_ORDER:
        low, high = _SUITE_ORDER[theorem]
        if sizes[low] > sizes[high]:
            raise UsageError(f"{theorem} needs {high!r} >= {low!r} (a missing field takes its default): got {sizes[high]} < {sizes[low]}")
    from .verifications import SUITES  # only verify loads the suites and the fermion engine

    result = SUITES[theorem](**{fields[key][0]: size for key, size in sizes.items()})
    if "seed" in req:
        result["parameters"]["seed"] = req["seed"]
    return result


_COMMANDS = {
    "multischur": _cmd_multischur,
    "expand": _cmd_expand,
    "skew": _cmd_skew,
    "inner": _cmd_inner,
    "eval": _cmd_eval,
    "verify": _cmd_verify,
}


def run(request: Mapping) -> object:
    """Dispatch one request; raises on invalid input or failed computation."""
    if not isinstance(request, Mapping):
        raise UsageError("request must be a JSON object")
    command = _field(request, "command")
    if command not in _COMMANDS:
        known = ", ".join(sorted(_COMMANDS))
        raise UsageError(f"unknown command {command!r}; known commands: {known}")
    return _COMMANDS[command](request)


_ERROR_TYPES = [
    (UsageError, "usage"),
    (TruncationError, "truncation"),
    (TractabilityError, "tractability"),
    (ChargeError, "charge"),
    (DimensionError, "dimension"),
    (UnboundIndeterminateError, "unbound-indeterminate"),
    (ValueError, "domain"),
]


def _emit(payload: object) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


# Built once: parse_args returns a fresh namespace on every call.
_PARSER = argparse.ArgumentParser(
    prog="multischur",
    description="Exact expansions, inner products, and verification suites.",
)
_PARSER.add_argument("--command", help="override or supply the request command")
_PARSER.add_argument("--input", help="read the JSON request from a file instead of stdin")
_PARSER.add_argument("--max-weight", type=int, help="default maxWeight for verify requests")
_PARSER.add_argument("--truncation", type=int, help="default D for expand requests")
_PARSER.add_argument("--seed", type=int, help="recorded in verify output; suites are exhaustive")


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)

    operation = "parse"
    try:
        if args.input is not None:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        elif not sys.stdin.isatty():
            text = sys.stdin.read()
        else:
            text = ""
        text = text.strip()
        if text:
            try:
                request = json.loads(text)
            except json.JSONDecodeError as e:
                raise UsageError(f"request is not valid JSON: {e}") from e
        else:
            request = {}
        if not isinstance(request, dict):
            raise UsageError("request must be a JSON object")
        if args.command is not None:
            request["command"] = args.command
        if args.max_weight is not None and "maxWeight" not in request:
            request["maxWeight"] = args.max_weight
        if args.truncation is not None and "D" not in request and "truncation" not in request:
            request["D"] = args.truncation
        if args.seed is not None and "seed" not in request:
            request["seed"] = args.seed
        operation = request.get("command", "parse")
        _emit(run(request))
        return 0
    except tuple(t for t, _ in _ERROR_TYPES) as e:
        for etype, name in _ERROR_TYPES:
            if isinstance(e, etype):
                _emit({"error": {"type": name, "operation": operation, "message": str(e)}})
                return 2 if name == "usage" else 1
    except OSError as e:
        _emit({"error": {"type": "io", "operation": operation, "message": str(e)}})
        return 1
    except Exception as e:  # every request gets one JSON outcome, never a traceback
        message = f"{type(e).__name__}: {e}"
        _emit({"error": {"type": "internal", "operation": operation, "message": message}})
        return 1


if __name__ == "__main__":
    sys.exit(main())
