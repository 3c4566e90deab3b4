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
from typing import Mapping, Sequence

from .exactalg import (
    DimensionError,
    Scalar,
    UnboundIndeterminateError,
    scalar_from_json,
    scalar_to_json,
)
from .expansions import (
    StabilityError,
    SymFunc,
    TractabilityError,
    TruncationError,
    check_degree_bound,
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
from .fock import ChargeError
from .shapes import (
    AlphabetSequence,
    ConstantTail,
    EmptyTail,
    Partition,
    RefinedTail,
    constant_sequence,
    prefix_sequence,
    refined_sequence,
)
from .verifications import SUITES


class UsageError(ValueError):
    """The request does not match any command schema."""


_RESERVED = {"beta"}
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_MISSING = object()


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
    if raw is _MISSING:
        raise UsageError(f"missing request field {names[0]!r}")
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


def parse_sequence(value) -> AlphabetSequence:
    """Alphabet sequences: {"prefix": [...], "tail": {...}}, the
    shorthands {"refined": [t...]} / {"constant": [letters]}, or a bare
    list of rows (empty past the end)."""
    if isinstance(value, list):
        return prefix_sequence(*[parse_alphabet(row) for row in value])
    if not isinstance(value, Mapping):
        raise UsageError(f"bad alphabet sequence: {value!r}")
    general = "prefix" in value or "tail" in value
    if ("refined" in value) + ("constant" in value) + general > 1:
        raise UsageError(f"alphabet sequence mixes refined, constant and prefix/tail: {value!r}")
    if "refined" in value:
        return refined_sequence(parse_alphabet(value["refined"]))
    if "constant" in value:
        return constant_sequence(parse_alphabet(value["constant"]))
    prefix = _alphabet_rows(value.get("prefix", []), "prefix")
    tail_spec = value.get("tail", {"kind": "empty"})
    kind = tail_spec.get("kind") if isinstance(tail_spec, Mapping) else None
    if kind == "empty":
        tail = EmptyTail()
    elif kind == "constant":
        tail = ConstantTail(parse_alphabet(tail_spec.get("letters", [])))
    elif kind == "refined":
        if "t" in tail_spec:
            increments = tuple((x,) for x in parse_alphabet(tail_spec["t"]))
        else:
            increments = _alphabet_rows(tail_spec.get("increments", []), "increments")
        tail = RefinedTail(parse_alphabet(tail_spec.get("base", [])), increments)
    else:
        raise UsageError(f"bad tail rule: {tail_spec!r}")
    return AlphabetSequence(prefix, tail)


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
        return refined_dual_grothendieck(lam, _letters(spec, len(lam)))
    if "stable" in value:
        spec = value["stable"]
        lam = _partition(spec, "lambda", "λ")
        D = _degree_bound(spec, lam)
        return stable_grothendieck_schur(lam, _letters(spec, _stable_rows(lam, D)), D)
    raise UsageError(f"bad symmetric function: {value!r}")


def _int_field(req: Mapping, *names: str, default=_MISSING) -> int:
    raw = _field(req, *names, default=default)
    if raw is _MISSING:
        raise UsageError(f"missing request field {names[0]!r}")
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise UsageError(f"field {names[0]!r} must be an integer: {raw!r}")
    return raw


def _degree_bound(req: Mapping, lam: Partition) -> int:
    """D >= |lambda|, else a usage error; a TractabilityError past the budget."""
    D = _int_field(req, "D", "truncation")
    if D < lam.weight:
        raise UsageError(f"degree bound {D} is below |lambda| = {lam.weight}")
    check_degree_bound(lam, D)
    return D


def _stable_rows(lam: Partition, D: int) -> int:
    """The most rows of a shape containing lambda of weight at most D."""
    return len(lam) + D - lam.weight


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
    if "flag" in req:
        flag = req["flag"]
        if not isinstance(flag, list) or not all(
            isinstance(b, int) and not isinstance(b, bool) for b in flag
        ):
            raise UsageError(f"flag must be a list of integers: {flag!r}")
        vars_ = parse_alphabet(_field(req, "vars"))
        try:
            value = flagged_schur(lam, flag, vars_)
        except ValueError as e:  # every ValueError of flagged_schur is a malformed flag
            raise UsageError(f"bad flag: {e}") from e
        return scalar_to_json(value)
    bx = parse_sequence(_field(req, "bx"))
    by = _by(req)
    return scalar_to_json(multi_schur(lam, bx, by))


def _cmd_expand(req: Mapping) -> object:
    lam = _partition(req, "lambda", "λ")
    basis = _field(req, "basis", default="schur")
    if basis == "schur":
        bx = parse_sequence(_field(req, "bx"))
        by = _by(req)
        return symfunc_to_json(schur_expand_multischur(lam, bx, by))
    if basis == "refined":
        t = _letters(req, len(lam))
        if "bx" in req:
            bx = parse_sequence(req["bx"])
            by = _by(req)
            coeffs = expand_in_refined_basis(lam, bx, by, t)
            return {**symfunc_to_json(SymFunc(coeffs)), "basis": "refined"}
        return symfunc_to_json(refined_dual_grothendieck(lam, t))
    if basis == "truncated":
        bx = parse_sequence(_field(req, "bx"))
        r = _int_field(req, "r")
        if r < len(lam):
            raise UsageError(f"need r >= {len(lam)} rows for lambda {list(lam)}, got {r}")
        D = _degree_bound(req, lam)
        return symfunc_to_json(truncated_dual_expansion(lam, bx, r, D))
    if basis == "stable":
        D = _degree_bound(req, lam)
        t = _letters(req, _stable_rows(lam, D))
        return symfunc_to_json(stable_grothendieck_schur(lam, t, D))
    if basis == "stable-dual":
        bx = parse_sequence(_field(req, "bx"))
        D = _degree_bound(req, lam)
        st = bx.stable_tail()  # None is refused as a StabilityError by stable_dual_in_G
        t = _letters(req, max(_stable_rows(lam, D), st[0] if st else 0))
        return {**symfunc_to_json(SymFunc(stable_dual_in_G(lam, bx, t, D), D)), "basis": "stable"}
    raise UsageError(f"unknown basis {basis!r}")


# The budget of `skew`: |lambda| + |mu| bounds the size max(len(lambda),
# len(mu)) of its determinant and the degree of every entry, but not the
# number of letters.  Past it, tractability.
_SKEW_CAP = 9


def _cmd_skew(req: Mapping) -> object:
    lam = _partition(req, "lambda", "λ")
    mu = _partition(req, "mu", "μ", default=())
    if lam.weight + mu.weight > _SKEW_CAP:
        raise TractabilityError(f"skew caps |lambda| + |mu| at {_SKEW_CAP}: got {lam.weight + mu.weight}")
    bx = parse_sequence(_field(req, "bx"))
    by = _by(req)
    if "bp" in req:
        bp = parse_sequence(req["bp"])
        return symfunc_to_json(skew_function(lam, mu, bx, by, bp))
    return scalar_to_json(skew_multi_schur(lam, mu, bx, by))


def _cmd_inner(req: Mapping) -> object:
    f = parse_symfunc(_field(req, "f"))
    g = parse_symfunc(_field(req, "g"))
    return scalar_to_json(hall_inner(f, g))


def _cmd_eval(req: Mapping) -> object:
    f = parse_symfunc(_field(req, "f"))
    vars_ = parse_alphabet(_field(req, "vars"))
    return scalar_to_json(eval_symfunc(f, vars_))


# Request field -> (keyword, cap) per suite.  With every field at its cap a
# suite answers in at most 0.6 s (2-core host); past a cap, tractability.
_SUITE_KWARGS = {
    "orthonormality": {"maxWeight": ("max_weight", 8)},
    "dual-engine": {"maxWeight": ("max_weight", 7)},
    "hall-duality": {"maxWeight": ("max_weight", 9), "truncation": ("truncation", 9)},
    "cauchy": {},
    "branching": {"maxWeight": ("max_weight", 6), "generalMaxWeight": ("general_max_weight", 6)},
    "truncation-stability": {
        "maxWeight": ("max_weight", 5),
        "maxRows": ("max_rows", 5),
        "maxTruncation": ("max_truncation", 7),
    },
    "beta-chain": {"maxWeight": ("max_weight", 7), "maxDualWeight": ("max_dual_weight", 8)},
    "classical": {
        "maxWeight": ("max_weight", 8),
        "window": ("window", 4),
        "pairingRows": ("pairing_rows", 4),
    },
}


def _cmd_verify(req: Mapping) -> object:
    theorem = _field(req, "theorem")
    if theorem not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise UsageError(f"unknown theorem {theorem!r}; known suites: {known}")
    kwargs = {}
    for key, (kwarg, cap) in _SUITE_KWARGS[theorem].items():
        if key in req:
            value = _int_field(req, key)
            if value < 1:
                raise UsageError(f"field {key!r} must be at least 1: {value}")
            if value > cap:
                raise TractabilityError(f"{theorem} caps {key!r} at {cap}: got {value}")
            kwargs[kwarg] = value
    result = SUITES[theorem](**kwargs)
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
    (StabilityError, "stability"),
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
