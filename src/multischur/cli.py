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

import json
import re
import sys
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from itertools import accumulate, chain, islice

from .exactalg import (
    MAX_DIGITS,
    MAX_EXPONENT,
    DimensionError,
    Scalar,
    TractabilityError,
    _cut,
    check_number,
    scalar_from_json,
    scalar_to_json,
)
from .expansions import (
    MAX_DEGREE_BOUND,
    SymFunc,
    TruncationError,
    eval_symfunc,
    expand_in_refined_basis,
    flagged_schur,
    hall_inner,
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
from .suite_sizes import ORDER, SIZES


class UsageError(ValueError):
    """The request does not match any command schema."""


_RESERVED = {"beta"}
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_MISSING = object()


# -- budgets ----------------------------------------------------------


# Budget name -> cap.  Each caps one size that a request's cost grows with;
# a request past a cap is refused as tractability before any work.  The
# README's budget table says what each one counts and gives the timed
# requests at and past its cap.
_BUDGETS = {
    "weight": 9,
    "letters": 9,
    "D": MAX_DEGREE_BOUND,
    "digits": MAX_DIGITS,
    "exponent": MAX_EXPONENT,
    "stable rows": 11,
    "stable-dual rows": 8,
    "stable-dual letters": 10,
    "truncated rows": 8,
    "flag vars": 6,
    "eval vars": 7,
    "eval weight": 6,
    **{f"{theorem} {field.name}": field.cap for theorem, fields in SIZES.items() for field in fields},
}


# No command reads an alphabet sequence past this row: each reads rows
# 1..max(len λ, len μ) within the weight cap, 1..r, or the rows of the
# stable-dual matrix.
_LAST_ROW_READ = max(_BUDGETS["weight"], _BUDGETS["truncated rows"], _BUDGETS["stable-dual rows"])


# -- request forms ----------------------------------------------------


# Form -> the keys it reads.  A request takes one form (see _form), and so does each object
# nested in it; a key outside its form's set is a usage error, since the request would
# otherwise be answered as if the key were absent.  The README's form table lists these sets.
_FORMS = {
    "multischur": {"command", "lambda", "bx", "by"},
    "multischur flag": {"command", "lambda", "flag", "vars"},
    "expand schur": {"command", "basis", "lambda", "bx", "by"},
    "expand refined": {"command", "basis", "lambda", "t"},
    "expand refined bx": {"command", "basis", "lambda", "t", "bx", "by"},
    "expand truncated": {"command", "basis", "lambda", "bx", "r", "D"},
    "expand stable": {"command", "basis", "lambda", "t", "D"},
    "expand stable-dual": {"command", "basis", "lambda", "bx", "t", "D"},
    "skew": {"command", "lambda", "mu", "bx", "by"},
    "skew bp": {"command", "lambda", "mu", "bx", "by", "bp"},
    "inner": {"command", "f", "g"},
    "eval": {"command", "f", "vars"},
    **{f"verify {theorem}": {"command", "theorem", "seed", *(field.name for field in fields)} for theorem, fields in SIZES.items()},
    # objects nested in a request
    "refined sequence": {"refined"},
    "constant sequence": {"constant"},
    "prefix/tail sequence": {"prefix", "tail"},
    "empty tail": {"kind"},
    "constant tail": {"kind", "letters"},
    "refined tail": {"kind", "base", "t", "increments"},
    "schur shorthand": {"schur"},
    "refined shorthand": {"refined"},
    "stable shorthand": {"stable"},
}
# a shorthand's spec is the request of its expand form less `command` and `basis`
_FORMS.update({f"{kind} spec": _FORMS[f"expand {kind}"] - {"command", "basis"} for kind in ("refined", "stable")})

_BASES = {form.split()[1] for form in _FORMS if form.startswith("expand ")}


def _name(req: Mapping, field: str, known, default=_MISSING) -> str:
    """The value of `field`, a usage error unless it is a string in `known`."""
    value = _field(req, field, default=default)
    if not (isinstance(value, str) and value in known):
        raise UsageError(f"unknown {field} {_cut(repr(value))}; known: {', '.join(sorted(known))}")
    return value


def _form(req: Mapping) -> str:
    """The form of request `req`: its command, then its theorem or basis,
    then the optional field whose presence picks a second form."""
    form = _name(req, "command", _COMMANDS)
    if form == "verify":
        return f"verify {_name(req, 'theorem', SIZES)}"
    if form == "expand":
        form = f"expand {_name(req, 'basis', _BASES, 'schur')}"
    second = {"multischur": "flag", "expand refined": "bx", "skew": "bp"}.get(form)
    return f"{form} {second}" if second is not None and second in req else form


def _check(obj: Mapping, form: str) -> None:
    """A usage error for the keys of `obj` that `form` does not read."""
    unread = obj.keys() - _FORMS[form]
    if unread:
        raise UsageError(f"{form} does not read {_cut(', '.join(sorted(map(repr, unread))))}")


def _budget(name: str, got: int) -> None:
    """A TractabilityError when `got` is past the cap of budget `name`."""
    cap = _BUDGETS[name]
    if got > cap:
        raise TractabilityError(f"budget {name!r} is capped at {cap}: got {got}")


def _field(req: Mapping, name: str, default=_MISSING):
    """The value of field `name`, a usage error when it is missing and has no `default`."""
    if type(req) is not dict and not isinstance(req, Mapping):  # a parsed request is a dict: skip the ABC check
        raise UsageError(f"expected an object with field {name!r}, got {_cut(repr(req))}")
    value = req.get(name, default)
    if value is _MISSING:
        raise UsageError(f"missing request field {name!r}")
    return value


def _partition(req: Mapping, name: str, default=_MISSING) -> Partition:
    raw = _field(req, name, default)
    try:
        return Partition(raw)
    except (TypeError, ValueError) as e:
        raise UsageError(f"bad partition for {name!r}: {_cut(str(e))}") from e


def _check_name(name: str) -> str:
    if not _NAME.match(name):
        raise UsageError(f"bad indeterminate name: {_cut(repr(name))}")
    if name in _RESERVED:
        raise UsageError(f"indeterminate name {name!r} is reserved")
    return name


def parse_scalar(value) -> Scalar:
    """Accept an integer, a rational string, a (possibly negated) name,
    a single serialized term, or a full term list."""
    if isinstance(value, bool):
        raise UsageError(f"bad scalar: {value!r}")
    if isinstance(value, int):
        check_number(value)
        return Scalar.from_rational(value)
    if isinstance(value, str):
        text = value.strip()
        name = text[1:] if text.startswith("-") else text
        if _NAME.match(name) and not name.isdigit():
            var = Scalar.variable(_check_name(name))
            return -var if text.startswith("-") else var
        check_number(text)
        try:
            return Scalar.from_rational(Fraction(text))
        except ZeroDivisionError as e:
            raise UsageError(f"bad scalar literal {_cut(repr(value))}: zero denominator") from e
        except ValueError as e:  # its message repeats the literal
            raise UsageError(f"bad scalar literal {_cut(repr(value))}: not a number nor a name") from e
    if isinstance(value, Mapping):
        value = [value]
    if isinstance(value, list):
        try:
            p = scalar_from_json(value)
        except TractabilityError:
            raise
        except (TypeError, ValueError, KeyError) as e:
            raise UsageError(f"bad scalar terms: {_cut(str(e))}") from e
        for name in p.indeterminates():
            _check_name(name)
        return p
    raise UsageError(f"bad scalar: {_cut(repr(value))}")


def parse_alphabet(value) -> tuple[Scalar, ...]:
    if not isinstance(value, list):
        raise UsageError(f"alphabet must be a list: {_cut(repr(value))}")
    return tuple(parse_scalar(v) for v in value)


def _alphabet_rows(value, name: str) -> tuple[tuple[Scalar, ...], ...]:
    if not isinstance(value, list):
        raise UsageError(f"{name} must be a list of alphabets: {_cut(repr(value))}")
    return tuple(parse_alphabet(row) for row in value)


def parse_sequence(value) -> AlphabetSequence:
    """Alphabet sequences: {"prefix": [...], "tail": {...}}, the
    shorthands {"refined": [t...]} / {"constant": [letters]}, or a bare
    list of rows (empty past the end).  Every row given is checked, but
    none past _LAST_ROW_READ is built: a refined form of n letters spells
    n + 1 rows of n**2 / 2 letters in all."""
    if isinstance(value, list):
        return _first_rows(_alphabet_rows(value, "alphabet sequence"), [()])
    if not isinstance(value, Mapping):
        raise UsageError(f"bad alphabet sequence: {_cut(repr(value))}")
    form = "refined" if "refined" in value else "constant" if "constant" in value else "prefix/tail"
    _check(value, f"{form} sequence")
    if form == "refined":
        return _first_rows((), accumulate(((x,) for x in parse_alphabet(value["refined"])), initial=()))
    if form == "constant":
        return _first_rows((), [parse_alphabet(value["constant"])])
    prefix = _alphabet_rows(value.get("prefix", []), "prefix")
    tail_spec = value.get("tail", {"kind": "empty"})
    kind = tail_spec.get("kind") if isinstance(tail_spec, Mapping) else None
    if kind not in ("empty", "constant", "refined"):
        raise UsageError(f"bad tail rule: {_cut(repr(tail_spec))}")
    _check(tail_spec, f"{kind} tail")
    if kind == "empty":
        tail = [()]
    elif kind == "constant":
        tail = [parse_alphabet(tail_spec.get("letters", []))]
    else:
        # a refined tail spells its increments as rows, or as `t`, one letter each
        if "t" in tail_spec and "increments" in tail_spec:
            raise UsageError("fields 't' and 'increments' spell one field: give one")
        steps = tail_spec.get("t", tail_spec.get("increments", []))
        increments = tuple((x,) for x in parse_alphabet(steps)) if "t" in tail_spec else _alphabet_rows(steps, "increments")
        # row k of the tail is base followed by the first k - 1 increments
        tail = accumulate(increments, initial=parse_alphabet(tail_spec.get("base", [])))
    return _first_rows(prefix, tail)


def _first_rows(prefix: Sequence, tail: Iterable) -> AlphabetSequence:
    """The sequence of `prefix` then `tail`, built up to _LAST_ROW_READ."""
    return AlphabetSequence(islice(chain(prefix, tail), _LAST_ROW_READ))


def _sequences(req: Mapping, form: str, rows: int, budget: str = "letters", extra: int = 0) -> list[AlphabetSequence]:
    """The sequences of the fields bx, by and bp that `form` reads, in that
    order; a missing or null `by` is empty rows.  Their letters in rows
    1..rows, plus `extra`, are counted against `budget`."""
    seqs = []
    for name in ("bx", "by", "bp"):
        if name in _FORMS[form]:
            value = _field(req, name, default=None if name == "by" else _MISSING)
            seqs.append(parse_sequence([] if value is None and name == "by" else value))
    _budget(budget, extra + sum(_letter_count(seq.alphabet(i)) for seq in seqs for i in range(1, rows + 1)))
    return seqs


def parse_symfunc(value) -> SymFunc:
    """A serialized element, or a constructor shorthand: {"schur": [...]},
    or {"refined": spec} / {"stable": spec}, answered as the expand request
    of that basis that the spec spells."""
    if not isinstance(value, Mapping):
        raise UsageError(f"bad symmetric function: {_cut(repr(value))}")
    kind = next((k for k in ("terms", "basis", "schur", "refined", "stable") if k in value), None)
    if kind is None:
        raise UsageError(f"bad symmetric function: {_cut(repr(value))}")
    if kind in ("terms", "basis"):
        try:
            f = symfunc_from_json(value)
        except TractabilityError:
            raise
        except (TypeError, ValueError, KeyError) as e:
            raise UsageError(f"bad symmetric function: {_cut(str(e))}") from e
        for _, c in f.terms():
            for name in c.indeterminates():
                _check_name(name)
        return f
    _check(value, f"{kind} shorthand")
    if kind == "schur":
        try:
            return sym_schur(value["schur"])
        except (TypeError, ValueError) as e:
            raise UsageError(f"bad partition in schur shorthand: {_cut(str(e))}") from e
    spec = value[kind]
    if isinstance(spec, Mapping):  # else reading its lambda is the usage error
        _check(spec, f"{kind} spec")
    return _expansion(spec, f"expand {kind}")


def _int_field(req: Mapping, name: str) -> int:
    raw = _field(req, name)
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise UsageError(f"field {name!r} must be an integer: {_cut(repr(raw))}")
    return raw


def _degree_bound(req: Mapping, lam: Partition) -> int:
    """D >= |lambda|, else a usage error; a TractabilityError past the budget."""
    D = _int_field(req, "D")
    if D < lam.weight:
        raise UsageError(f"degree bound {D} is below |lambda| = {lam.weight}")
    _budget("D", D)
    return D


def _letter_count(alphabet: Sequence[Scalar]) -> int:
    """The letters of an alphabet as the budgets count them: each entry counts its terms, at least 1."""
    return sum(max(1, len(x._terms)) for x in alphabet)


def _letters(req: Mapping, rows: int) -> tuple[Scalar, ...]:
    """The letters t, enough for the row alphabets (t_1, ..., t_{i-1})
    of rows 1..rows; too few is a usage error."""
    t = parse_alphabet(_field(req, "t"))
    if len(t) < rows - 1:
        raise UsageError(f"{rows} rows need {rows - 1} letters in t, got {len(t)}")
    return t


# -- commands ---------------------------------------------------------


def _cmd_multischur(req: Mapping, form: str) -> object:
    if form == "multischur":  # the skew function with mu = ()
        return _cmd_skew(req, form)
    lam = _partition(req, "lambda")
    _budget("weight", lam.weight)
    flag = req["flag"]
    if not isinstance(flag, list) or not all(isinstance(b, int) and not isinstance(b, bool) for b in flag):
        raise UsageError(f"flag must be a list of integers: {_cut(repr(flag))}")
    vars_ = parse_alphabet(_field(req, "vars"))
    _budget("flag vars", _letter_count(vars_[: max([0, *flag[: len(lam)]])]))
    try:
        value = flagged_schur(lam, flag, vars_)
    except ValueError as e:  # every ValueError of flagged_schur is a malformed flag
        raise UsageError(f"bad flag: {_cut(str(e))}") from e
    return scalar_to_json(value)


def _expansion(req: Mapping, form: str) -> SymFunc:
    """The element that an expand request of `form` asks for; the refined
    and stable shorthands of inner and eval are answered here too."""
    lam = _partition(req, "lambda")
    if form == "expand truncated":
        r = _int_field(req, "r")
        if r < len(lam):
            raise UsageError(f"need r >= {len(lam)} rows for lambda {_cut(repr(list(lam)))}, got {r}")
        _budget("truncated rows", r)
        D = _degree_bound(req, lam)
        return truncated_dual_expansion(lam, *_sequences(req, form, r), r, D)
    if form in ("expand stable", "expand stable-dual"):
        D = _degree_bound(req, lam)
        # the largest matrix of a stable expansion has this many rows
        rows = len(lam) + D - lam.weight
        _budget("stable rows" if form == "expand stable" else "stable-dual rows", rows)
        t = _letters(req, rows)
        if form == "expand stable":
            return stable_grothendieck_schur(lam, t, D)
        return SymFunc(stable_dual_in_G(lam, *_sequences(req, form, rows, "stable-dual letters"), t, D), D)
    _budget("weight", lam.weight)
    if form == "expand schur":
        return schur_expand_multischur(lam, *_sequences(req, form, len(lam)))
    t = _letters(req, len(lam))
    if form == "expand refined":
        return refined_dual_grothendieck(lam, t)
    # column j adds the letters t_1..t_{j-1} to every row's by
    extra = _letter_count(t[: max(len(lam) - 1, 0)])
    return SymFunc(expand_in_refined_basis(lam, *_sequences(req, form, len(lam), extra=extra), t))


# Forms whose answer holds coefficients in a basis other than Schur's, and its label.
_EXPAND_LABELS = {"expand refined bx": "refined", "expand stable-dual": "stable"}


def _cmd_expand(req: Mapping, form: str) -> object:
    out = symfunc_to_json(_expansion(req, form))
    return {**out, "basis": _EXPAND_LABELS[form]} if form in _EXPAND_LABELS else out


def _cmd_skew(req: Mapping, form: str) -> object:
    lam = _partition(req, "lambda")
    mu = _partition(req, "mu", ())
    _budget("weight", lam.weight + mu.weight)
    seqs = _sequences(req, form, max(len(lam), len(mu)))
    if form == "skew bp":
        return symfunc_to_json(skew_function(lam, mu, *seqs))
    return scalar_to_json(skew_multi_schur(lam, mu, *seqs))


def _cmd_inner(req: Mapping, form: str) -> object:
    f = parse_symfunc(_field(req, "f"))
    g = parse_symfunc(_field(req, "g"))
    return scalar_to_json(hall_inner(f, g))


def _cmd_eval(req: Mapping, form: str) -> object:
    vars_ = parse_alphabet(_field(req, "vars"))
    _budget("eval vars", _letter_count(vars_))
    f = parse_symfunc(_field(req, "f"))
    _budget("eval weight", f.max_degree())
    return scalar_to_json(eval_symfunc(f, vars_))


# The suites' module, loaded by the first verify request: only verify loads
# the suites and the fermion engine.  Each request reads SUITES from it, so
# an entry patched there is the one that runs.
_verifications = None


def _cmd_verify(req: Mapping, form: str) -> object:
    theorem = form.removeprefix("verify ")
    seed = {"seed": _int_field(req, "seed")} if "seed" in req else {}
    sizes = {}
    for field in SIZES[theorem]:
        size = sizes[field.name] = _int_field(req, field.name) if field.name in req else field.default
        if size < 1:
            raise UsageError(f"field {field.name!r} must be at least 1: {size}")
        _budget(f"{theorem} {field.name}", size)
    if theorem in ORDER:
        low, high = ORDER[theorem]
        if sizes[low] > sizes[high]:
            raise UsageError(f"{theorem} needs {high!r} >= {low!r} (a missing field takes its default): got {sizes[high]} < {sizes[low]}")
    global _verifications
    if _verifications is None:
        from . import verifications as _verifications

    result = _verifications.SUITES[theorem](**{field.keyword: sizes[field.name] for field in SIZES[theorem]})
    result["parameters"].update(seed)
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
    """Answer one request: pick its form, refuse any key that form does
    not read, then dispatch, all before any work.  A malformed request
    raises UsageError, a failed computation one of the other errors that
    `main` reports by type."""
    if type(request) is not dict and not isinstance(request, Mapping):
        raise UsageError("request must be a JSON object")
    form = _form(request)
    _check(request, form)
    return _COMMANDS[request["command"]](request, form)


_ERROR_TYPES = [
    (UsageError, "usage"),
    (TruncationError, "truncation"),
    (TractabilityError, "tractability"),
    (ChargeError, "charge"),
    (DimensionError, "dimension"),
    (ValueError, "domain"),
    (OSError, "io"),
]


# Every answer is a fresh tree of dicts and lists, never circular: no marker check.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def _emit(payload: object) -> None:
    sys.stdout.write(_ENCODER.encode(payload) + "\n")


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    request = None
    try:
        if argv and (len(argv) != 2 or argv[0] != "--input"):
            raise UsageError(f"unrecognized arguments: {_cut(' '.join(argv))}; usage: multischur [--input FILE]")
        try:
            if argv:
                with open(argv[1], "r", encoding="utf-8") as fh:
                    text = fh.read().strip()
            else:
                text = "" if sys.stdin.isatty() else sys.stdin.read().strip()
            request = json.loads(text) if text else {}
        except (RecursionError, ValueError) as e:  # nested too deep; not UTF-8, not JSON, an integer past int's digit limit
            raise UsageError(f"request is not valid JSON: {e}") from e
        _emit(run(request))
        return 0
    except Exception as e:  # every request gets one JSON outcome, never a traceback
        name = next((name for etype, name in _ERROR_TYPES if isinstance(e, etype)), "internal")
        message = f"{type(e).__name__}: {e}" if name == "internal" else str(e)
        command = request.get("command") if isinstance(request, dict) else None
        operation = command if isinstance(command, str) else "parse"
        _emit({"error": {"type": name, "operation": operation, "message": message}})
        return 2 if name == "usage" else 1
