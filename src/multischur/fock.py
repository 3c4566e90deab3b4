"""Exact free-fermion engine on charge-graded Maya states.

A MayaState records which integer levels are occupied: all levels below
charge - len(parts) (the sea) plus the excited levels parts[i-1] +
charge - i.  Writing the state as creation operators in strictly
decreasing level order fixes the sign convention; inserting psi_m then
costs (-1)^(number of occupied levels above m).

The operators:

  * psi_m / psi*_m       add or remove the particle at level m,
  * a_m                  moves one particle from level u to u - m,
                         summed over all legal u,
  * e^{s H(x/y)}         with H(x/y) = sum_n p_n(x/y)/n a_n.  The modes
                         a_n, n > 0, commute, so the exponential factors
                         into one-letter steps: e^{H(x_i)} for each
                         letter of x and e^{-H(y_j)} for each letter of
                         y (all inverted when s = -1).  In closed form,
                         e^{H(t)}|lam> = sum t^{|lam/mu|} |mu> over the
                         horizontal strips lam/mu, and e^{-H(t)} sums
                         (-t)^{|lam/mu|} |mu> over the vertical strips:
                         the one-letter branching rule for skew Schur
                         functions (Macdonald I.5), in vertex-operator
                         form.  Both kinds of strip are enumerated
                         directly (shapes.horizontal_strips and
                         shapes.vertical_strips), with no transposes.
                         The charge is untouched,
  * dressed fermions     e^{H} psi_m e^{-H} = sum_i h_i(x/y) psi_{m-i}
                         and its psi* counterpart.

The refined bra <mu| pairs with a charge-0 vector by applying
psi*_{mu_1 - 1}, e^{-H(t_1)}, psi*_{mu_2 - 2}, ... and reading one
coefficient.  bra_refined_pairs pairs many bras in one depth-first walk:
the bras that agree on mu_1..mu_i share their first i steps, and a
branch whose vector has become zero stops there.

Everything is linear over exact Scalars and charge-homogeneous.  Apart
from wick_expectation, which is a determinant by definition, no
operator here evaluates one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Sequence

from .exactalg import DimensionError, Scalar, ScalarLike, coerce_scalar, collect, det_over_ring
from .shapes import Alphabet, Partition, StabilityError, as_alphabet, horizontal_strips, vertical_strips
from .supersym import h_series

PSI = "psi"
PSI_STAR = "psi_star"

_ONE = Scalar.one()


class ChargeError(ValueError):
    """States of different charges were mixed in one vector."""


def _normalize_mode(mode: str) -> str:
    aliases = {
        PSI: PSI,
        "ψ": PSI,
        PSI_STAR: PSI_STAR,
        "psi*": PSI_STAR,
        "ψ*": PSI_STAR,
    }
    if mode not in aliases:
        raise ValueError(f"unknown fermion mode: {mode!r}")
    return aliases[mode]


@dataclass(frozen=True)
class MayaState:
    """Occupied levels = sea below charge - len(parts), plus the levels
    parts[i-1] + charge - i."""

    charge: int
    parts: Partition

    @property
    def energy(self) -> int:
        return sum(self.parts)

    @property
    def sea_top(self) -> int:
        """Highest level of the unbroken sea."""
        return self.charge - len(self.parts) - 1

    @property
    def top_level(self) -> int:
        return (self.parts[0] + self.charge - 1) if self.parts else self.charge - 1

    def excited_levels(self) -> list[int]:
        c = self.charge
        return [self.parts[i] + c - (i + 1) for i in range(len(self.parts))]

    @cached_property
    def _level_set(self) -> frozenset[int]:
        return frozenset(self.excited_levels())

    def occupied(self, m: int) -> bool:
        return m <= self.sea_top or m in self._level_set

    def render(self) -> str:
        r = len(self.parts)
        word = " ".join(
            f"ψ_{lev}" if lev >= 0 else f"ψ_{{{lev}}}" for lev in self.excited_levels()
        )
        ket = f"|{self.charge - r}⟩"
        return f"{word} {ket}" if word else ket


def _create(state: MayaState, m: int) -> tuple[int, MayaState] | None:
    """psi_m on a basis state: None when level m is already occupied."""
    c, lam = state.charge, state.parts
    if m <= state.sea_top:
        return None
    levels = state.excited_levels()
    j = sum(1 for lev in levels if lev > m)
    if j < len(levels) and levels[j] == m:
        return None
    parts = [lam[i] - 1 for i in range(j)] + [m - c + j] + list(lam[j:])
    # m just above the sea with every excited level above it: the new part
    # is 0, and so is every lam_i - 1 before it that came from lam_i = 1
    while parts and not parts[-1]:
        parts.pop()
    return ((-1) ** j, MayaState(c + 1, Partition._trusted(parts)))


def _annihilate(state: MayaState, m: int) -> tuple[int, MayaState] | None:
    """psi*_m on a basis state: None when level m is empty."""
    c, lam = state.charge, state.parts
    levels = state.excited_levels()
    j = sum(1 for lev in levels if lev > m)
    if j < len(levels) and levels[j] == m:
        parts = [lam[i] + 1 for i in range(j)] + list(lam[j + 1 :])
    elif m <= state.sea_top:
        # Sea removal: every excited level and the sea levels above m flip up.
        j = len(lam) + (state.sea_top - m)
        parts = [p + 1 for p in lam] + [1] * (c - m - 1 - len(lam))
    else:
        return None
    return ((-1) ** j, MayaState(c - 1, Partition._trusted(parts)))


class FockVector:
    """Finite Scalar combination of MayaStates of one common charge.

    Built from a mapping or an iterable of (state, coefficient) pairs:
    coefficients of equal states are summed (`exactalg.collect`) and
    states whose sum is zero are dropped.  Surviving states of different
    charges raise ChargeError.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[MayaState, ScalarLike] | Iterable[tuple] = ()):
        pairs = terms.items() if hasattr(terms, "items") else terms
        self._terms = collect(pairs)
        states = iter(self._terms)
        first = next(states, None)
        for state in states:
            if state.charge != first.charge:
                raise ChargeError(f"mixed charges {first.charge} and {state.charge} in one vector")

    @property
    def charge(self) -> int | None:
        """Common charge, or None for the zero vector."""
        for state in self._terms:
            return state.charge
        return None

    def items(self) -> tuple[tuple[MayaState, Scalar], ...]:
        return tuple(self._terms.items())

    def states(self) -> tuple[MayaState, ...]:
        return tuple(self._terms)

    def coefficient(self, state: MayaState) -> Scalar:
        return self._terms.get(state, Scalar.zero())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other: "FockVector") -> "FockVector":
        if not isinstance(other, FockVector):
            return NotImplemented
        return FockVector(chain(self._terms.items(), other._terms.items()))

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + other.scale(-1)

    def scale(self, factor: ScalarLike) -> "FockVector":
        factor = coerce_scalar(factor)
        if not factor:
            return FockVector()
        return FockVector({s: c * factor for s, c in self._terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FockVector):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        bits = [f"({coeff!r})·{state.render()}" for state, coeff in sorted(
            self._terms.items(), key=lambda t: (t[0].energy, t[0].parts))]
        return " + ".join(bits)


def vacuum_ket(charge: int = 0) -> FockVector:
    return FockVector({MayaState(charge, Partition()): _ONE})


def apply_fermion(mode: str, m: int, v: FockVector) -> FockVector:
    mode = _normalize_mode(mode)
    act = _create if mode == PSI else _annihilate

    def pairs():
        for state, coeff in v.items():
            hit = act(state, m)
            if hit is not None:
                sign, new = hit
                yield new, coeff if sign > 0 else -coeff

    return FockVector(pairs())


def apply_heisenberg(m: int, v: FockVector) -> FockVector:
    """a_m: all single-particle moves u -> u - m; energy changes by -m."""
    if m == 0:
        raise ValueError("a_0 is excluded; only nonzero modes act")

    def pairs():
        for state, coeff in v.items():
            lo = state.sea_top - abs(m)
            for u in range(lo, state.top_level + 1):
                if not state.occupied(u) or state.occupied(u - m):
                    continue
                s1, mid = _annihilate(state, u)
                s2, new = _create(mid, u - m)
                yield new, coeff if s1 * s2 > 0 else -coeff

    return FockVector(pairs())


def _exp_letter(t: Scalar, vertical: bool, v: FockVector) -> FockVector:
    """e^{H(t)} v, or e^{-H(t)} v when vertical: each |lam> goes to the
    sum of t^{|lam/mu|} |mu> over horizontal strips lam/mu, or of
    (-t)^{|lam/mu|} |mu> over vertical strips."""
    if not t:
        return v
    powers = [_ONE, -t if vertical else t]
    strips = vertical_strips if vertical else horizontal_strips

    def pairs():
        for state, coeff in v.items():
            n = state.parts.weight
            for mu in strips(state.parts):
                k = n - mu.weight
                while len(powers) <= k:
                    powers.append(powers[-1] * powers[1])
                yield MayaState(state.charge, mu), coeff * powers[k] if k else coeff

    return FockVector(pairs())


def apply_exp_H(x: Iterable, y: Iterable, sign: int, v: FockVector) -> FockVector:
    """e^{sign * H(x/y)} v as a product of one-letter steps: each letter
    of x applies horizontal strips when sign = +1 and vertical strips
    when sign = -1, each letter of y the opposite kind.  Every step
    keeps the charge and never raises the excitation weight."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1: {sign}")
    for t in as_alphabet(x):
        v = _exp_letter(t, sign < 0, v)
    for t in as_alphabet(y):
        v = _exp_letter(t, sign > 0, v)
    return v


def apply_dressed_fermion(mode: str, m: int, x: Iterable, y: Iterable, v: FockVector) -> FockVector:
    """e^{H(x/y)} psi_m e^{-H(x/y)} v = sum_i h_i(x/y) psi_{m-i} v, and
    for psi*: sum_i h_i(y/x) psi*_{m+i} v.  Swapping x and y gives the
    inverse dressing."""
    mode = _normalize_mode(mode)
    xs = as_alphabet(x)
    ys = as_alphabet(y)
    if not v:
        return v
    if mode == PSI:
        cap = max(m - s.sea_top - 1 for s in v.states())
        if not xs:
            cap = min(cap, len(ys))
        coeff_alphabets = (xs, ys)
        step = -1
    else:
        cap = max(s.top_level - m for s in v.states())
        if not ys:
            cap = min(cap, len(xs))
        coeff_alphabets = (ys, xs)
        step = +1
    return FockVector(
        (state, c * h)
        for i, h in enumerate(h_series(cap, *coeff_alphabets))
        if h
        for state, c in apply_fermion(mode, m + step * i, v).items()
    )


# -- basis kets and bras ----------------------------------------------


def ket_partition(lam: Sequence[int], r: int) -> FockVector:
    """psi_{lam_1 - 1} ... psi_{lam_r - r} |-r>."""
    lam = Partition(lam)
    if r < len(lam):
        raise ValueError(f"need r >= {len(lam)} for {lam}, got {r}")
    v = vacuum_ket(-r)
    for i in range(r, 0, -1):
        v = apply_fermion(PSI, lam.part(i) - i, v)
    return v


def ket_general(lam: Sequence[int], bx, by, r: int) -> FockVector:
    """Dressed basis ket: the i-th fermion is conjugated by
    e^{H(x^(i)/y^(i))}; independent of r >= len(lam)."""
    lam = Partition(lam)
    if r < len(lam):
        raise ValueError(f"need r >= {len(lam)} for {lam}, got {r}")
    v = vacuum_ket(-r)
    for i in range(r, 0, -1):
        v = apply_dressed_fermion(PSI, lam.part(i) - i, bx.alphabet(i), by.alphabet(i), v)
    return v


def ket_refined(lam: Sequence[int], t: Sequence, r: int) -> FockVector:
    """psi_{lam_1-1} e^{H(t_1)} psi_{lam_2-2} e^{H(t_2)} ... |-r>."""
    lam = Partition(lam)
    if r < len(lam):
        raise ValueError(f"need r >= {len(lam)} for {lam}, got {r}")
    t = as_alphabet(t)
    if len(t) < r:
        raise ValueError(f"refined sequence needs {r} letters, got {len(t)}")
    v = vacuum_ket(-r)
    for i in range(r, 0, -1):
        v = apply_exp_H((t[i - 1],), (), +1, v)
        v = apply_fermion(PSI, lam.part(i) - i, v)
    return v


def bra_refined_pair(mu: Sequence[int], t: Sequence, v: FockVector, *, check_stability: bool = False) -> Scalar:
    """Pair the refined bra for mu against a charge-0 vector: apply
    psi*_{mu_1 - 1}, e^{-H(t_1)}, psi*_{mu_2 - 2}, ... and read off the
    coefficient of |-r>.  The answer is r-stable; check_stability
    recomputes at r + 1 and raises StabilityError when they differ."""
    mu = Partition(mu)
    r = _bra_rows([mu], v)[mu]
    value = _bra_apply(mu, t, v, r)
    if check_stability and value != _bra_apply(mu, t, v, r + 1):
        raise StabilityError(f"pairing not r-stable at r={r} for {mu}")
    return value


def bra_refined_pairs(mus: Iterable[Sequence[int]], t: Sequence, v: FockVector) -> dict[Partition, Scalar]:
    """bra_refined_pair(mu, t, v) for every mu, keyed by Partition in the
    order given, from one walk in which the bras of all mu that agree on
    mu_1..mu_i share their first i steps.  Raises what bra_refined_pair
    raises, before any step."""
    return _bra_walk(_bra_rows([Partition(mu) for mu in mus], v), t, v)


def _bra_rows(mus: list[Partition], v: FockVector) -> dict[Partition, int]:
    """The row count r = max(len(mu), longest state of v) + 1 of each bra."""
    if v.charge not in (None, 0):
        raise ChargeError(f"refined bras pair with charge 0, got {v.charge}")
    internal = max((len(s.parts) for s in v.states()), default=0)
    return {mu: max(len(mu), internal) + 1 for mu in mus}


def _bra_apply(mu: Partition, t: Sequence, v: FockVector, r: int) -> Scalar:
    return _bra_walk({mu: r}, t, v)[mu]


def _bra_walk(rows: Mapping[Partition, int], t: Sequence, v: FockVector) -> dict[Partition, Scalar]:
    """Apply psi*_{mu_i - i} then e^{-H(t_i)} for i = 1..r to v, and read
    the coefficient of |-r>, for every mu with its r = rows[mu].  Depth
    first: at step i the bras are grouped by mu_i, so each step runs once
    per distinct prefix mu_1..mu_i, and a branch whose vector is zero
    gives zero to all its bras without stepping further."""
    t = as_alphabet(t)
    need = max(rows.values(), default=0)
    if len(t) < need:
        raise ValueError(f"refined sequence needs {need} letters, got {len(t)}")
    out = dict.fromkeys(rows)  # in the order of rows
    stack = [(list(rows), 1, v)]  # bras that share steps 1..i-1, and w after them
    while stack:
        mus, i, w = stack.pop()
        if not w:
            out.update(dict.fromkeys(mus, Scalar.zero()))
            continue
        branches: dict[int, list[Partition]] = {}
        for mu in mus:
            if rows[mu] < i:
                out[mu] = w.coefficient(MayaState(1 - i, Partition()))
            else:
                branches.setdefault(mu.part(i), []).append(mu)
        for part, group in branches.items():
            step = apply_fermion(PSI_STAR, part - i, w)
            stack.append((group, i + 1, apply_exp_H((t[i - 1],), (), -1, step)))
    return out


# -- expectation values -----------------------------------------------

Dressing = tuple[Iterable, Iterable]


def _normalize_leg(leg) -> tuple[int, Alphabet, Alphabet]:
    if isinstance(leg, int):
        return (leg, (), ())
    m, dressing = leg
    if dressing is None:
        return (int(m), (), ())
    x, y = dressing
    return (int(m), as_alphabet(x), as_alphabet(y))


def wick_expectation(rows: Sequence, cols: Sequence) -> Scalar:
    """det of single pairings <dressed psi_{m_i} . dressed psi*_{n_j}>.

    Each leg is (level, None) or (level, (x, y)); the dressing is
    e^{H(x/y)} around its fermion.
    """
    if len(rows) != len(cols):
        raise DimensionError(f"{len(rows)} rows vs {len(cols)} columns")
    rows = [_normalize_leg(leg) for leg in rows]
    cols = [_normalize_leg(leg) for leg in cols]
    vac = MayaState(0, Partition())
    col_vectors = [
        apply_dressed_fermion(PSI_STAR, n, x, y, vacuum_ket(0)) for n, x, y in cols
    ]
    matrix = [
        [
            apply_dressed_fermion(PSI, m, x, y, w).coefficient(vac)
            for w in col_vectors
        ]
        for m, x, y in rows
    ]
    return det_over_ring(matrix)
