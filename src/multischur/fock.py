"""Exact free-fermion engine on charge-graded Maya states.

A MayaState records which integer levels are occupied: all levels below
charge - len(parts) (the sea) plus the excited levels parts[i-1] +
charge - i.  Writing the state as creation operators in strictly
decreasing level order fixes the sign convention; inserting psi_m then
costs (-1)^(number of occupied levels above m).

A FockVector stores its charge once (None for the zero vector) and its
terms as a dict from Partition to nonzero Scalar; MayaStates are built
only for items() and states().  The operators build their results
through the unchecked FockVector._trusted.  psi_m and psi*_m are
injective on basis states (each undoes the other on every state it does
not kill), so their terms never meet: one dict, with no sum.  The other
operators can send two states to one; they sum through exactalg.collect.

The operators:

  * psi_m / psi*_m add or remove the particle at level m;
  * a_m moves one particle from level u to u - m, summed over all legal u;
  * e^{s H(x/y)}, with H(x/y) = sum_n p_n(x/y)/n a_n, keeps the charge.
    The modes a_n, n > 0, commute, so the exponential factors into
    one-letter steps: e^{H(x_i)} for each letter of x and e^{-H(y_j)}
    for each letter of y (all inverted when s = -1).  In closed form,
    e^{H(t)}|lam> = sum t^{|lam/mu|} |mu> over the horizontal strips
    lam/mu, and e^{-H(t)} sums (-t)^{|lam/mu|} |mu> over the vertical
    strips: the one-letter branching rule for skew Schur functions
    (Macdonald I.5), in vertex-operator form.  Both kinds of strip are
    enumerated directly (shapes.horizontal_strips and
    shapes.vertical_strips), with no transposes, once per partition and
    kind: the memo `_strips`, keyed on (lam, kind) and bounded by
    STRIP_CACHE_SIZE, answers 97% of the lookups of one orthonormality
    suite at maxWeight 8;
  * dressed fermions e^{H} psi_m e^{-H} = sum_i h_i(x/y) psi_{m-i} and
    its psi* counterpart.

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

from collections import namedtuple
from functools import lru_cache
from itertools import chain
from typing import Iterable, Mapping, Sequence

from .exactalg import DimensionError, Scalar, ScalarLike, coerce_scalar, collect, det_over_ring
from .shapes import Alphabet, ChargeError, Partition, as_alphabet, horizontal_strips, vertical_strips
from .supersym import h_series

PSI = "psi"
PSI_STAR = "psi_star"
_MODES = {PSI: PSI, "ψ": PSI, PSI_STAR: PSI_STAR, "psi*": PSI_STAR, "ψ*": PSI_STAR}

_ONE = Scalar.one()
_ZERO = Scalar.zero()
_EMPTY = Partition()


def _normalize_mode(mode: str) -> str:
    if mode not in _MODES:
        raise ValueError(f"unknown fermion mode: {mode!r}")
    return _MODES[mode]


class MayaState(namedtuple("MayaState", "charge parts")):
    """Occupied levels = sea below charge - len(parts), plus the levels
    parts[i-1] + charge - i.  parts goes through Partition, so trailing
    zeros are dropped and a non-partition is refused."""

    __slots__ = ()

    def __new__(cls, charge: int, parts: Iterable[int]):
        return super().__new__(cls, charge, Partition(parts))

    @property
    def energy(self) -> int:
        return sum(self.parts)

    @property
    def sea_top(self) -> int:
        """Highest level of the unbroken sea."""
        return self.charge - len(self.parts) - 1

    def excited_levels(self) -> list[int]:
        return [p + self.charge - i for i, p in enumerate(self.parts, 1)]

    def occupied(self, m: int) -> bool:
        return m <= self.sea_top or m in self.excited_levels()

    def render(self) -> str:
        word = " ".join(f"ψ_{lev}" if lev >= 0 else f"ψ_{{{lev}}}" for lev in self.excited_levels())
        ket = f"|{self.charge - len(self.parts)}⟩"
        return f"{word} {ket}" if word else ket


def _create(c: int, lam: Partition, m: int) -> tuple[int, Partition] | None:
    """psi_m on the basis state (c, lam): (j, new parts) with the sign
    (-1)^j, or None when level m is already occupied.  With d = m - c + 1,
    level m is the excited level of row j (from 0) when lam[j] - j = d,
    and in the sea when d <= -len(lam)."""
    d, r = m - c + 1, len(lam)
    if d <= -r:
        return None
    j = 0
    while j < r and lam[j] - j > d:
        j += 1
    if j < r and lam[j] - j == d:
        return None
    parts = [p - 1 for p in lam[:j]] + [d + j - 1] + list(lam[j:])
    # m just above the sea with every excited level above it: the new part
    # is 0, and so is every lam_i - 1 before it that came from lam_i = 1
    while parts and not parts[-1]:
        parts.pop()
    return j, Partition._trusted(parts)


def _annihilate(c: int, lam: Partition, m: int) -> tuple[int, Partition] | None:
    """psi*_m on the basis state (c, lam): (j, new parts) with the sign
    (-1)^j, or None when level m is empty."""
    d, r = m - c + 1, len(lam)
    j = 0
    while j < r and lam[j] - j > d:
        j += 1
    if j < r and lam[j] - j == d:
        parts = [p + 1 for p in lam[:j]] + list(lam[j + 1 :])
    elif d <= -r:  # sea removal: every excited level and the sea levels above m flip up
        j = -d
        parts = [p + 1 for p in lam] + [1] * (-d - r)
    else:
        return None
    return j, Partition._trusted(parts)


class FockVector:
    """Finite Scalar combination of MayaStates of one common charge,
    stored as that charge (None for the zero vector) and a dict from
    Partition to nonzero Scalar.  Built from a mapping or an iterable of
    (state, coefficient) pairs: coefficients of equal states are summed
    (`exactalg.collect`), states whose sum is zero are dropped, and
    surviving states of different charges raise ChargeError."""

    __slots__ = ("_charge", "_terms")

    def __init__(self, terms: Mapping[MayaState, ScalarLike] | Iterable[tuple] = ()):
        pairs = terms.items() if hasattr(terms, "items") else terms
        self._charge, self._terms = None, {}
        for state, coeff in collect(pairs).items():
            if self._charge is None:
                self._charge = state.charge
            elif state.charge != self._charge:
                raise ChargeError(f"mixed charges {self._charge} and {state.charge} in one vector")
            self._terms[state.parts] = coeff

    @classmethod
    def _trusted(cls, charge: int | None, terms: dict[Partition, Scalar]) -> "FockVector":
        """Wrap `terms` of charge `charge` without checking them: Partition
        keys and nonzero Scalar values.  Only for the operators of this
        module, whose results are built valid."""
        self = object.__new__(cls)
        self._charge = charge if terms else None
        self._terms = terms
        return self

    @property
    def charge(self) -> int | None:
        """Common charge, or None for the zero vector."""
        return self._charge

    def items(self) -> tuple[tuple[MayaState, Scalar], ...]:
        return tuple((MayaState(self._charge, lam), c) for lam, c in self._terms.items())

    def states(self) -> tuple[MayaState, ...]:
        return tuple(MayaState(self._charge, lam) for lam in self._terms)

    def coefficient(self, state: MayaState) -> Scalar:
        if state.charge != self._charge:
            return _ZERO
        return self._terms.get(state.parts, _ZERO)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other: "FockVector") -> "FockVector":
        if not isinstance(other, FockVector):
            return NotImplemented
        if not (self._terms and other._terms):
            return self if self._terms else other
        if self._charge != other._charge:
            raise ChargeError(f"mixed charges {self._charge} and {other._charge} in one vector")
        return FockVector._trusted(self._charge, collect(chain(self._terms.items(), other._terms.items())))

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + other.scale(-1)

    def scale(self, factor: ScalarLike) -> "FockVector":
        factor = coerce_scalar(factor)
        if not factor:
            return FockVector()
        # a product of nonzero polynomials over the rationals is nonzero
        return FockVector._trusted(self._charge, {lam: c * factor for lam, c in self._terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FockVector):
            return NotImplemented
        return self._charge == other._charge and self._terms == other._terms

    def __repr__(self) -> str:
        terms = sorted(self.items(), key=lambda t: (t[0].energy, t[0].parts))
        return " + ".join(f"({coeff!r})·{state.render()}" for state, coeff in terms) or "0"


def vacuum_ket(charge: int = 0) -> FockVector:
    return FockVector._trusted(charge, {_EMPTY: _ONE})


def apply_fermion(mode: str, m: int, v: FockVector) -> FockVector:
    """psi_m or psi*_m on v, one term per surviving state: no sum."""
    act, shift = (_create, 1) if _normalize_mode(mode) == PSI else (_annihilate, -1)
    c = v._charge
    if c is None:
        return v
    terms = {}
    for lam, coeff in v._terms.items():
        hit = act(c, lam, m)
        if hit is not None:
            terms[hit[1]] = -coeff if hit[0] & 1 else coeff
    return FockVector._trusted(c + shift, terms)


def apply_heisenberg(m: int, v: FockVector) -> FockVector:
    """a_m: all single-particle moves u -> u - m; energy changes by -m."""
    if m == 0:
        raise ValueError("a_0 is excluded; only nonzero modes act")
    c = v._charge

    def pairs():
        for lam, coeff in v._terms.items():
            sea_top = c - len(lam) - 1
            levels = {p + c - 1 - i for i, p in enumerate(lam)}
            for u in range(sea_top - abs(m), (lam[0] if lam else 0) + c):
                if (u > sea_top and u not in levels) or u - m <= sea_top or u - m in levels:
                    continue  # u empty, or u - m occupied
                j1, mid = _annihilate(c, lam, u)
                j2, new = _create(c - 1, mid, u - m)
                yield new, -coeff if (j1 + j2) & 1 else coeff

    return FockVector._trusted(c, collect(pairs()))


# Strip tables kept by `_strips`.  The fermion suites at their caps step
# through 100 distinct (partition, kind) tables in one process (77 for
# `orthonormality` at maxWeight 8), each of at most 14 strips.
STRIP_CACHE_SIZE = 128


@lru_cache(maxsize=STRIP_CACHE_SIZE)
def _strips(lam: Partition, vertical: bool) -> tuple[tuple[Partition, int], ...]:
    """(mu, |lam/mu|) for every vertical or horizontal strip lam/mu, built once."""
    n = lam.weight
    return tuple((mu, n - mu.weight) for mu in (vertical_strips if vertical else horizontal_strips)(lam))


def _exp_letter(t: Scalar, vertical: bool, v: FockVector) -> FockVector:
    """e^{H(t)} v, or e^{-H(t)} v when vertical: each |lam> goes to the
    sum of t^{|lam/mu|} |mu> over horizontal strips lam/mu, or of
    (-t)^{|lam/mu|} |mu> over vertical strips."""
    if not t or not v:
        return v
    powers = [_ONE, -t if vertical else t]

    def pairs():
        for lam, coeff in v._terms.items():
            for mu, k in _strips(lam, vertical):
                while len(powers) <= k:
                    powers.append(powers[-1] * powers[1])
                yield mu, coeff * powers[k] if k else coeff

    return FockVector._trusted(v._charge, collect(pairs()))


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
    xs, ys = as_alphabet(x), as_alphabet(y)
    c = v._charge
    if c is None:
        return v
    if mode == PSI:  # psi_{m-i} kills every state once m - i reaches the sea
        cap, alphabets, step = max(m - c + len(lam) for lam in v._terms), (xs, ys), -1
    else:  # psi*_{m+i} kills every state once m + i passes the top level
        cap, alphabets, step = max((lam[0] if lam else 0) + c - 1 - m for lam in v._terms), (ys, xs), 1
    if not alphabets[0]:  # h_i(()/b) vanishes for i > len(b)
        cap = min(cap, len(alphabets[1]))
    return FockVector._trusted(c - step, collect(
        (lam, coeff * h)
        for i, h in enumerate(h_series(cap, *alphabets))
        if h
        for lam, coeff in apply_fermion(mode, m + step * i, v)._terms.items()
    ))


# -- basis kets and bras ----------------------------------------------


def _ket(lam: Sequence[int], r: int, step) -> FockVector:
    """step(i, lam_i - i, v) on v = |-r>, for i = r, r - 1, ..., 1."""
    lam = Partition(lam)
    if r < len(lam):
        raise ValueError(f"need r >= {len(lam)} for {lam}, got {r}")
    v = vacuum_ket(-r)
    for i in range(r, 0, -1):
        v = step(i, lam.part(i) - i, v)
    return v


def ket_partition(lam: Sequence[int], r: int) -> FockVector:
    """psi_{lam_1 - 1} ... psi_{lam_r - r} |-r>."""
    return _ket(lam, r, lambda i, m, v: apply_fermion(PSI, m, v))


def ket_general(lam: Sequence[int], bx, by, r: int) -> FockVector:
    """Dressed basis ket: the i-th fermion is conjugated by
    e^{H(x^(i)/y^(i))}; independent of r >= len(lam)."""
    return _ket(lam, r, lambda i, m, v: apply_dressed_fermion(PSI, m, bx.alphabet(i), by.alphabet(i), v))


def ket_refined(lam: Sequence[int], t: Sequence, r: int) -> FockVector:
    """psi_{lam_1-1} e^{H(t_1)} psi_{lam_2-2} e^{H(t_2)} ... |-r>."""
    t = as_alphabet(t)
    if len(t) < r:
        raise ValueError(f"refined sequence needs {r} letters, got {len(t)}")
    return _ket(lam, r, lambda i, m, v: apply_fermion(PSI, m, _exp_letter(t[i - 1], False, v)))


def bra_refined_pair(mu: Sequence[int], t: Sequence, v: FockVector) -> Scalar:
    """Pair the refined bra for mu against a charge-0 vector: apply
    psi*_{mu_1 - 1}, e^{-H(t_1)}, psi*_{mu_2 - 2}, ... and read off the
    coefficient of |-r>; the answer is r-stable."""
    mu = Partition(mu)
    return bra_refined_pairs([mu], t, v)[mu]


def bra_refined_pairs(mus: Iterable[Sequence[int]], t: Sequence, v: FockVector) -> dict[Partition, Scalar]:
    """bra_refined_pair(mu, t, v) for every mu, keyed by Partition in the
    order given, from one walk in which the bras of all mu that agree on
    mu_1..mu_i share their first i steps.  A vector of nonzero charge
    (ChargeError) or a t too short for the rows (ValueError) is refused
    before any step."""
    return _bra_walk(_bra_rows([Partition(mu) for mu in mus], v), t, v)


def _bra_rows(mus: list[Partition], v: FockVector) -> dict[Partition, int]:
    """The row count r = max(len(mu), longest state of v) + 1 of each bra."""
    if v.charge not in (None, 0):
        raise ChargeError(f"refined bras pair with charge 0, got {v.charge}")
    internal = max(map(len, v._terms), default=0)
    return {mu: max(len(mu), internal) + 1 for mu in mus}


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
            out.update(dict.fromkeys(mus, _ZERO))
            continue
        branches: dict[int, list[Partition]] = {}
        for mu in mus:
            if rows[mu] < i:
                out[mu] = w.coefficient(MayaState(1 - i, _EMPTY))
            else:
                branches.setdefault(mu.part(i), []).append(mu)
        for part, group in branches.items():
            step = apply_fermion(PSI_STAR, part - i, w)
            stack.append((group, i + 1, _exp_letter(t[i - 1], True, step)))
    return out


# -- expectation values -----------------------------------------------


def _normalize_leg(leg) -> tuple[int, Alphabet, Alphabet]:
    if isinstance(leg, int):
        return (leg, (), ())
    m, dressing = leg
    x, y = ((), ()) if dressing is None else dressing
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
    vac = MayaState(0, _EMPTY)
    col_vectors = [apply_dressed_fermion(PSI_STAR, n, x, y, vacuum_ket(0)) for n, x, y in cols]
    return det_over_ring(
        [[apply_dressed_fermion(PSI, m, x, y, w).coefficient(vac) for w in col_vectors] for m, x, y in rows]
    )
