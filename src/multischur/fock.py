"""Exact free-fermion engine on charge-graded Maya states.

A MayaState records which integer levels are occupied: all levels below
charge - len(parts) (the sea) plus the excited levels parts[i-1] +
charge - i.  Writing the state as creation operators in strictly
decreasing level order fixes the sign convention; inserting psi_m then
costs (-1)^(number of occupied levels above m).

A FockVector stores its charge once (None for the zero vector) and its
terms as a dict from Partition to nonzero Scalar; MayaStates are built
only for items().  The operators build their results
through the unchecked FockVector._trusted.  psi_m and psi*_m are
injective on basis states (each undoes the other on every state it does
not kill), so their terms never meet: one dict, with no sum.  The other
operators can send two states to one: the constructor, + and a_m sum
through exactalg.collect, and the strip step sums in place by its rule.

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
    (Macdonald I.5), in vertex-operator form.  lam/mu is a vertical strip
    iff lam'/mu' is a horizontal one, so shapes.horizontal_strips
    enumerates both kinds, the vertical ones through conjugation;
  * dressed fermions e^{H(x/y)} psi_m e^{-H(x/y)} (or psi*_m), as that
    conjugation by strip steps, not as the closed form sum_i h_i(x/y)
    psi_{m-i}, whose h_i are the Jacobi-Trudi entries it is checked against.

Every strip step is one table lookup per basis state.  A step sends
|lam> to a fixed list of moves (nu, strip size n) that depends on
lam, on the level offset d = m - c + 1 of its fermion and on its kind:
the refined bra step psi*_m then the vertical strips of e^{-H(t)}, the
refined ket step the horizontal strips of e^{H(t)} then psi_m, and the
bare strips of e^{+-H(t)}.  On its domain, a refined step's fermion
changes only the first part, with sign +: the bra pops it before the
vertical strips, and the ket prepends d - 1 after the horizontal strips.
The memo `_moves` (keyed on (lam, d, kind), bounded by MOVE_CACHE_SIZE)
builds each list once, the fermion kinds from the bare ones; a bra list
is grouped by the first part of each nu.  The summing loops, `_step`
and the bra walk's `_bra_step`, multiply each coefficient by the cached
power of the letter.  A zero letter's step is the fermion alone.

A basis ket for lam applies one fermion per part to |-len(lam)>, the
refined one reading t_1..t_{len(lam)}.  ket_refined_table builds many
refined kets as one table: it coerces t and builds each letter's powers
once, and kets of one length that agree on lam_i..lam_l share rows
i..l.  The refined bra <mu| pairs with
a charge-0 vector by applying psi*_{mu_1 - 1}, e^{-H(t_1)}, ...,
psi*_{mu_l - l}, e^{-H(t_l)}, l = len(mu), and reading the vacuum's
coefficient.  bra_refined_table pairs many bras with many kets
in one depth-first walk, where the bras that agree on mu_1..mu_i share
their first i steps, and reads a bra's pairs once its parts run out, so
it never steps a row with mu_i = 0.  Row i steps only the states of
first part mu_i: psi*_{mu_i - i} kills a lower first part and raises a
higher one by 1, which a vertical strip lowers by at most 1, so it
stays above every later mu_j and never reaches the vacuum.  The walk's
vector is keyed on states and filed by first part, {first part: {state:
{ket index: coefficient}}}, so a branch takes its states as they stand
and each state is stepped once for all the kets that hold it: the bra
step `_bra_step` sums each ket's row in place and files its output by
first part as it goes.

Everything is linear over exact Scalars and charge-homogeneous.  No
operator here evaluates a determinant, and the module reads nothing from
the determinant route: it imports exactalg and shapes alone.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from functools import lru_cache
from itertools import chain

from .exactalg import Scalar, ScalarLike, coerce_scalar, collect
from .shapes import ChargeError, Partition, as_alphabet, horizontal_strips

PSI = "psi"
PSI_STAR = "psi_star"

_ONE = Scalar.one()
_ZERO = Scalar.zero()
_EMPTY = Partition()


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

    def render(self) -> str:
        levels = (p + self.charge - i for i, p in enumerate(self.parts, 1))
        word = " ".join(f"ψ_{lev}" if lev >= 0 else f"ψ_{{{lev}}}" for lev in levels)
        ket = f"|{self.charge - len(self.parts)}⟩"
        return f"{word} {ket}" if word else ket


def _create(lam: Partition, d: int) -> tuple[int, Partition] | None:
    """psi_m on the basis state (c, lam), with d = m - c + 1: (j, new
    parts) with the sign (-1)^j, or None when level m is already
    occupied.  Level m is the excited level of row j (from 0) when
    lam[j] - j = d, and in the sea when d <= -len(lam)."""
    r = len(lam)
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


def _annihilate(lam: Partition, d: int) -> tuple[int, Partition] | None:
    """psi*_m on the basis state (c, lam), with d = m - c + 1: (j, new
    parts) with the sign (-1)^j, or None when level m is empty."""
    r = len(lam)
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
    if mode == PSI:
        act, shift = _create, 1
    elif mode == PSI_STAR:
        act, shift = _annihilate, -1
    else:
        raise ValueError(f"unknown fermion mode: {mode!r}")
    c = v._charge
    if c is None:
        return v
    d, out = m - c + 1, {}
    for lam, coeff in v._terms.items():
        hit = act(lam, d)
        if hit is not None:
            out[hit[1]] = -coeff if hit[0] & 1 else coeff
    return FockVector._trusted(c + shift, out)


def apply_heisenberg(m: int, v: FockVector) -> FockVector:
    """a_m: all single-particle moves u -> u - m; energy changes by -m."""
    if m == 0:
        raise ValueError("a_0 is excluded; only nonzero modes act")
    c = v._charge

    def pairs():
        for lam, coeff in v._terms.items():
            # u - m must be empty, so above the sea top c - len(lam) - 1, and u occupied
            for u in range(c - len(lam) + m, (lam[0] if lam else 0) + c):
                down = _annihilate(lam, u - c + 1)  # None when u is empty
                up = down and _create(down[1], u - m - c + 2)  # None when u - m is occupied
                if up:
                    yield up[1], -coeff if (down[0] + up[0]) & 1 else coeff

    return FockVector._trusted(c, collect(pairs()))


# Move tables kept by `_moves`.  One cold fermion suite at its cap fills at
# most 176 (`orthonormality` at maxWeight 8: 66 bra, 66 ket, 44 bare, about
# 0.09 MB, hit by 71% of its 617 lookups), each of at most 14 moves.
MOVE_CACHE_SIZE = 1024


@lru_cache(maxsize=MOVE_CACHE_SIZE)
def _moves(lam: Partition, d: int | None, vertical: bool) -> tuple[int, tuple]:
    """The moves of one step on the basis state |lam>, built once: (top,
    ((nu, n), ...)), where the step sends |lam> to the sum over the moves
    of s^n |nu>, s is the letter t for horizontal strips and -t for
    vertical ones, and top is the largest n.  The kinds:

      * d None: the bare strip step, every strip lam/nu of its kind, with
        n = |lam/nu|; the vertical strips are the conjugates of the
        horizontal strips of lam', in that order;
      * vertical, d an offset m - c + 1: psi*_m on a state of first part
        d >= 1, as in `bra_refined_table`, pops that part with sign +,
        then the vertical strips: the bare table of lam[1:], its moves
        grouped by nu's first part as (top, ((p, ((nu, n), ...)), ...)).
        A vertical strip lowers lam_2 by at most 1, so there are at most
        two groups, p = lam_2 and p = lam_2 - 1 (0 for nu = (), the only
        state of first part 0);
      * horizontal, d an offset: the horizontal strips, then psi_m on a
        state of first part below d >= 2, as in `ket_refined_table`: the part
        d - 1 prepended to each nu, with sign +.

    The fermion steps read the bare tables and are injective, so each
    keeps its strips' order (within each group) and sums nothing."""
    if d is None:
        w = lam.weight
        if vertical:
            moves = tuple((mu.transpose(), w - mu.weight) for mu in horizontal_strips(lam.transpose()))
        else:
            moves = tuple((mu, w - mu.weight) for mu in horizontal_strips(lam))
        # the largest strip takes one box from each row, or from each column
        return len(lam) if vertical else lam[0] if lam else 0, moves
    if vertical:
        top, moves = _moves(Partition._trusted(lam[1:]), None, True)
        groups: dict[int, list] = {}
        for nu, n in moves:
            groups.setdefault(nu[0] if nu else 0, []).append((nu, n))
        return top, tuple((p, tuple(group)) for p, group in groups.items())
    top, moves = _moves(lam, None, False)
    return top, tuple((Partition._trusted((d - 1, *nu)), n) for nu, n in moves)


def _powers(s: Scalar) -> list[Scalar]:
    """[1, s], which `_step` extends one entry at a time as far as its
    moves need: entry n is s^n."""
    return [_ONE, s]


def _step(terms: dict[Partition, Scalar], d: int | None, vertical: bool, powers: list[Scalar]) -> dict:
    """One bare step, or one row of `ket_refined_table`, of `_moves` on a
    vector's terms (the bra kind, grouped by first part, is summed by
    `_bra_step`): each coefficient times powers[n] summed into its move's
    nu, where powers comes from `_powers` of a nonzero letter.  A sum
    that cancels is dropped, as `collect` drops it, and taken up again at
    the end if a later move brings it back."""
    out: dict[Partition, Scalar] = {}
    get = out.get
    for lam, coeff in terms.items():
        top, moves = _moves(lam, d, vertical)
        while len(powers) <= top:
            powers.append(powers[-1] * powers[1])
        for nu, n in moves:
            # nonzero: a product of nonzero Scalars, so only a sum is tested
            c = coeff * powers[n] if n else coeff
            acc = get(nu)
            if acc is None:
                out[nu] = c
            elif acc := acc + c:
                out[nu] = acc
            else:
                del out[nu]
    return out


def _exp_letter(t: Scalar, vertical: bool, v: FockVector) -> FockVector:
    """e^{H(t)} v, or e^{-H(t)} v when vertical: each |lam> goes to the
    sum of t^{|lam/mu|} |mu> over horizontal strips lam/mu, or of
    (-t)^{|lam/mu|} |mu> over vertical strips."""
    if not (t and v._terms):
        return v
    return FockVector._trusted(v._charge, _step(v._terms, None, vertical, _powers(-t if vertical else t)))


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
    """e^{H(x/y)} psi_m e^{-H(x/y)} v (or with psi*_m), by its definition:
    the strip steps of e^{-H}, the bare fermion, then those of e^{H}.
    Swapping x and y gives the inverse dressing."""
    return apply_exp_H(x, y, 1, apply_fermion(mode, m, apply_exp_H(x, y, -1, v)))


# -- basis kets and bras ----------------------------------------------


def _ket(lam: Partition, step) -> FockVector:
    """step(i, lam_i - i, v) on v = |-len(lam)>, for i = len(lam), ..., 1."""
    v = vacuum_ket(-len(lam))
    for i in range(len(lam), 0, -1):
        v = step(i, lam[i - 1] - i, v)
    return v


def ket_partition(lam: Sequence[int]) -> FockVector:
    """psi_{lam_1 - 1} ... psi_{lam_l - l} |-l>, l = len(lam)."""
    return _ket(Partition(lam), lambda i, m, v: apply_fermion(PSI, m, v))


def ket_general(lam: Sequence[int], bx, by) -> FockVector:
    """Dressed basis ket: the i-th fermion conjugated by e^{H(x^(i)/y^(i))}."""
    return _ket(Partition(lam), lambda i, m, v: apply_dressed_fermion(PSI, m, bx.alphabet(i), by.alphabet(i), v))


def ket_refined(lam: Sequence[int], t: Sequence) -> FockVector:
    """psi_{lam_1-1} e^{H(t_1)} ... psi_{lam_l-l} e^{H(t_l)} |-l>, l =
    len(lam): the one-ket form of ket_refined_table.  Needs l letters."""
    return ket_refined_table([lam], t)[0]


def ket_refined_table(lams: Iterable[Sequence[int]], t: Sequence) -> list[FockVector]:
    """[ket_refined(lam, t) for lam in lams], in the order given, as one
    table.  A ket of l parts steps rows i = l, ..., 1, row i at charge -i
    of offset d = lam_i + 1; it steps states mu that rows i+1..l built by
    strip removals, so mu_1 <= lam_{i+1} <= lam_i and psi_{lam_i-i}
    prepends lam_i with sign +.  The rows i..l depend only on l and
    lam_i..lam_l, which fix the letters t_i..t_l, so one memo keyed on
    both shares them across the kets of the table.  Row i is one `_step`,
    or the prepending alone for t_i = 0.  A t shorter than the longest lam
    (ValueError) is refused before any step."""
    lams = [lam if type(lam) is Partition else Partition(lam) for lam in lams]
    t, depth = as_alphabet(t), max(map(len, lams), default=0)
    if len(t) < depth:
        raise ValueError(f"refined sequence needs {depth} letters, got {len(t)}")
    # the powers of t_i, built once per table; None for t_i = 0
    powers = [_powers(x) if x else None for x in t[:depth]]
    rows: dict[tuple[int, tuple[int, ...]], dict[Partition, Scalar]] = {}
    kets = []
    for lam in lams:
        l, terms = len(lam), {_EMPTY: _ONE}
        for i in range(l, 0, -1):
            key = (l, lam[i - 1 :])
            done = rows.get(key)
            if done is None:
                p, s = lam[i - 1], powers[i - 1]
                if s:
                    done = rows[key] = _step(terms, p + 1, False, s)
                else:
                    done = rows[key] = {Partition._trusted((p, *mu)): x for mu, x in terms.items()}
            terms = done
        kets.append(FockVector._trusted(0, terms))
    return kets


def bra_refined_pair(mu: Sequence[int], t: Sequence, v: FockVector) -> Scalar:
    """Pair the refined bra for mu against a charge-0 vector: apply
    psi*_{mu_1 - 1}, e^{-H(t_1)}, ..., psi*_{mu_l - l}, e^{-H(t_l)} for
    l = len(mu) and read off the coefficient of the vacuum |-l>, which
    every further row keeps (see bra_refined_table).  Needs l letters."""
    mu = Partition(mu)
    return bra_refined_table([mu], t, [v])[0][mu]


def bra_refined_table(
    mus: Iterable[Sequence[int]], t: Sequence, kets: Iterable[FockVector]
) -> list[dict[Partition, Scalar]]:
    """[{mu: bra_refined_pair(mu, t, v) for mu in mus} for v in kets], each
    row keyed by Partition in the order given, from one depth-first walk.
    The walk steps every ket at once, as one vector keyed on states and
    filed by first part: {first part: {state: {ket index: coefficient}}},
    built once from the kets' terms, with part 0 holding only the empty
    state.  At depth i the bras are grouped by mu_i = p, so each step runs
    once per distinct prefix mu_1..mu_i.  The step is psi*_{p-i} at charge
    1 - i, of offset d = p >= 1, and it takes only the states |lam> of
    first part p, filed under p, which it pops with sign + before the
    vertical strips; the others never reach the vacuum:
      * if lam_1 < p, psi*_{p-i} kills |lam>;
      * if lam_1 > p, it removes a lower row or a level of the sea and
        raises lam_1 by 1, and a vertical strip lowers it by at most 1, so
        the first part stays above p >= mu_{i+1} >= ... >= 0.
    A branch with no such state stops there (no step makes a ket's terms
    vanish).  The one bra of a prefix with len(mu) < i is read there: its
    pair with each ket is the coefficient of the vacuum |1-i>, the ket's
    entry in the row of the empty state under part 0, since a row
    with p = 0 sends |1-i> to +|-i> (psi*_{-i}, then e^{-H(t_i)} fixes it)
    and drops every other state, so no step has p = 0.  The walk reads
    t_1..t_l for the longest mu, of l parts.  A ket of nonzero charge
    (ChargeError) or, when there are kets, a t shorter than l (ValueError)
    is refused before any step."""
    row = dict.fromkeys((mu if type(mu) is Partition else Partition(mu) for mu in mus), _ZERO)
    table, w = [], {}
    for k, v in enumerate(kets):
        if v._charge not in (None, 0):
            raise ChargeError(f"refined bras pair with charge 0, got {v._charge}")
        for lam, coeff in v._terms.items():
            p = lam[0] if lam else 0
            states = w.get(p)
            if states is None:
                states = w[p] = {}
            kets_of = states.get(lam)
            if kets_of is None:
                states[lam] = {k: coeff}
            else:
                kets_of[k] = coeff
        table.append(row.copy())
    t, depth = as_alphabet(t), max(map(len, row), default=0)
    if table and len(t) < depth:
        raise ValueError(f"refined sequence needs {depth} letters, got {len(t)}")
    # the powers of -t_i, built once per table; None for t_i = 0
    powers = [_powers(-x) if x else None for x in t[:depth]]
    stack = [(list(row), 1, w)] if w else []  # the bras that share steps 1..i-1, and w after them
    while stack:
        bras, i, w = stack.pop()
        branches: dict[int, list[Partition]] = {}
        for mu in bras:
            if len(mu) < i:  # the one mu of this prefix with no part left: read its pairs
                vacuum = w.get(0)
                if vacuum:
                    for k, coeff in vacuum[_EMPTY].items():
                        table[k][mu] = coeff
            else:
                branches.setdefault(mu[i - 1], []).append(mu)
        # each branch steps only the states whose first part is mu_i >= 1
        for part, group in branches.items():
            states = w.get(part)
            if states:
                stack.append((group, i + 1, _bra_step(part, powers[i - 1], states)))
    return table


def _bra_step(d: int, powers: list[Scalar] | None, states: dict) -> dict:
    """psi*_m then the vertical strip step of powers = `_powers(-t)` on the
    walk's states of first part d = m - c + 1 >= 1, each a dict {state:
    {ket index: coefficient}}; powers is None when t = 0, whose strip step
    is the identity.  psi*_m pops the first part with sign +, and the
    result is filed as the walk's vector {first part: {state: {ket index:
    coefficient}}}.  Each state takes one lookup of its bra table of
    `_moves`, whose groups name the first part of each move's nu; each
    ket's coefficient times powers[n] is summed into nu's row in place.  A
    (nu, ket) entry whose sum cancels is dropped, then a nu whose row is
    left empty, and a later move may bring either back.  No ket's terms
    vanish: the pop is injective and e^{-H(t)} unitriangular."""
    out: dict[int, dict[Partition, dict[int, Scalar]]] = {}
    if not powers:
        for lam, row in states.items():
            nu = Partition._trusted(lam[1:])
            out.setdefault(nu[0] if nu else 0, {})[nu] = row
        return out
    for lam, row in states.items():
        top, groups = _moves(lam, d, True)
        while len(powers) <= top:
            powers.append(powers[-1] * powers[1])
        for p, moves in groups:
            dest = out.get(p)
            if dest is None:
                dest = out[p] = {}
            for nu, n in moves:
                x, acc = powers[n], dest.get(nu)
                if acc is None:
                    if not n:
                        dest[nu] = row.copy()
                        continue
                    dest[nu] = acc = {}
                get = acc.get
                for k, c in row.items():
                    # nonzero: a product of nonzero Scalars, so only a sum is tested
                    if n:
                        c = c * x
                    a = get(k)
                    if a is None:
                        acc[k] = c
                    elif a := a + c:
                        acc[k] = a
                    else:
                        del acc[k]
                if not acc:
                    del dest[nu]
    return out
