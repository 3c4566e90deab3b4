"""Reference code that only the tests read.

Each helper is written from its definition, apart from the code it checks:
rational evaluation of a Scalar, power sums, the row-flagged tableau sum,
and the occupied levels of a Maya state.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

from multischur.exactalg import Scalar, TractabilityError
from multischur.expansions import _ORACLE_MAX_WEIGHT, _ssyt_monomials
from multischur.fock import MayaState
from multischur.shapes import Partition, as_alphabet


def variables(names: str | Iterable[str]) -> tuple[Scalar, ...]:
    """Scalar indeterminates from a space separated string or an iterable."""
    if isinstance(names, str):
        names = names.split()
    return tuple(Scalar.variable(n) for n in names)


def scalar_eval(p: Scalar, assignment: Mapping[str, int | Fraction]) -> Fraction:
    """p at a rational assignment of every indeterminate in it; a KeyError
    names an indeterminate left unbound."""
    total = Fraction(0)
    for mono, coeff in p.terms():
        value = Fraction(coeff)
        for name, e in mono:
            value *= Fraction(assignment[name]) ** e
        total += value
    return total


def p_power(n: int, x: Iterable, y: Iterable) -> Scalar:
    """p_n(x/y) = sum x_i^n - sum y_j^n, defined for n >= 1."""
    if n < 1:
        raise ValueError(f"power sum index must be >= 1: {n}")
    total = Scalar.zero()
    for u in as_alphabet(x):
        total = total + u**n
    for v in as_alphabet(y):
        total = total - v**n
    return total


def flagged_tableau_oracle(lam: Sequence[int], flag: Sequence[int], vals: Sequence) -> Scalar:
    """Row-capped semistandard generating sum: entries in row i at most flag_i."""
    lam = Partition(lam)
    xs = as_alphabet(vals)
    if len(xs) > 6 or lam.weight > _ORACLE_MAX_WEIGHT:
        raise TractabilityError(f"oracle bounds are 6 variables, weight {_ORACLE_MAX_WEIGHT}: got {len(xs)}, {lam.weight}")
    caps = [min(flag[i], len(xs)) for i in range(len(lam))]
    return _ssyt_monomials(lam, xs, caps)


def sea_top(state: MayaState) -> int:
    """Highest level of the unbroken sea."""
    return state.charge - len(state.parts) - 1


def excited_levels(state: MayaState) -> list[int]:
    """The levels parts[i-1] + charge - i, from the highest down."""
    return [p + state.charge - i for i, p in enumerate(state.parts, 1)]


def occupied(state: MayaState, m: int) -> bool:
    return m <= sea_top(state) or m in excited_levels(state)
