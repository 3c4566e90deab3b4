"""Partitions and indexed families of variable alphabets.

A Partition is a weakly decreasing tuple of positive integers.  An
Alphabet is a tuple of Scalars, one per letter; letters are usually
indeterminates but any Scalar is allowed, including repeats.  An
AlphabetSequence assigns an alphabet to every row index i >= 1 through a
finite explicit prefix plus a tail rule covering all later rows.

Tail rules:
  * empty      -- every row past the prefix gets the empty alphabet.
  * refined    -- row prefix_len + k gets base extended by the first
                  increments[0..k] blocks, cumulatively; writing t for
                  the increment letters in order, row i past the prefix
                  sees base + (t_1, ..., t_{i - prefix_len - 1}) when
                  each block is a single letter.
  * constant   -- every row past the prefix gets the same alphabet.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache
from itertools import chain, product
from operator import index
from typing import Iterable, Iterator, Sequence, Union

from .exactalg import Scalar, coerce_scalar

Alphabet = tuple[Scalar, ...]


class StabilityError(ValueError):
    """A result that should settle does not: an alphabet sequence lacks
    the stable growth an operation needs, or a pairing changes with the
    number of rows."""


class ChargeError(ValueError):
    """States of different charges were mixed in one vector."""


def _part(p) -> int:
    """p as an int, through `operator.index`: a float, a string or a bool
    is refused, never rounded or parsed."""
    if isinstance(p, bool):
        raise TypeError(f"a part must be an integer, not a bool: {p!r}")
    return index(p)


class Partition(tuple):
    """Weakly decreasing tuple of nonnegative integers; trailing zeros
    are stripped on construction.  A Partition is returned as it is."""

    def __new__(cls, parts: Iterable[int] = ()):
        if type(parts) is cls:
            return parts
        parts = tuple(_part(p) for p in parts)
        if any(p < 0 for p in parts):
            raise ValueError(f"parts must be nonnegative: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {parts}")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        return super().__new__(cls, parts)

    @classmethod
    def _trusted(cls, parts: Iterable[int]) -> "Partition":
        """Wrap `parts` without checking it: weakly decreasing positive
        ints, no trailing zero.  Only for the shapes that this module's
        enumerators and the fermion steps of `fock` build valid."""
        return tuple.__new__(cls, parts)

    @property
    def weight(self) -> int:
        return sum(self)

    @property
    def length(self) -> int:
        return len(self)

    def part(self, i: int) -> int:
        """The i-th part, 1-indexed; 0 beyond the length."""
        if i < 1:
            raise ValueError(f"part index must be >= 1: {i}")
        return self[i - 1] if i <= len(self) else 0

    def transpose(self) -> "Partition":
        if not self:
            return Partition()
        return Partition(sum(1 for p in self if p >= j) for j in range(1, self[0] + 1))

    def contains(self, mu: "Partition") -> bool:
        """True iff mu fits inside self cell by cell."""
        return len(mu) <= len(self) and all(m <= p for m, p in zip(mu, self))

    def __repr__(self) -> str:
        return f"Partition({list(self)})"


def transpose(lam: Sequence[int]) -> Partition:
    return Partition(lam).transpose()


def contains(mu: Sequence[int], lam: Sequence[int]) -> bool:
    """True iff mu_i <= lam_i for every i."""
    return Partition(lam).contains(Partition(mu))


# -- enumeration ------------------------------------------------------
#
# All enumerations yield in a fixed order: weight ascending, then parts
# compared entrywise descending, so ( ) < (1) < (2) < (1,1) < (3) < ...
# Each weight is enumerated once, into the memo `_weight`; the public
# enumerators return fresh lists built from it.

# Weights kept by `_weight`.  The degree bound of every request
# (expansions.MAX_DEGREE_BOUND = 30) caps the weights it enumerates, so
# weights 0..30 all stay; weight 30 alone holds 5604 partitions.  The memo
# is typed, so a float weight is refused, not answered from an int's entry.
WEIGHT_CACHE_SIZE = 32


def _partitions_of(total: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions_of(total - first, first):
            yield (first,) + rest


@lru_cache(maxsize=WEIGHT_CACHE_SIZE, typed=True)
def _weight(n: int) -> tuple[Partition, ...]:
    """The partitions of n in enumeration order, built once."""
    return tuple(Partition._trusted(p) for p in _partitions_of(n, n))


def _up_to_weight(n: int) -> Iterator[Partition]:
    return chain.from_iterable(_weight(w) for w in range(n + 1))


def partitions_of_weight(n: int, max_length: int | None = None) -> list[Partition]:
    if max_length is None:
        return list(_weight(n))
    return [p for p in _weight(n) if len(p) <= max_length]


def partitions_up_to_weight(n: int, max_length: int | None = None) -> list[Partition]:
    if max_length is None:
        return list(_up_to_weight(n))
    return [p for p in _up_to_weight(n) if len(p) <= max_length]


def subpartitions(lam: Sequence[int]) -> list[Partition]:
    """All mu contained in lam, in the global enumeration order."""
    lam = Partition(lam)
    return [mu for mu in _up_to_weight(lam.weight) if lam.contains(mu)]


def superpartitions(lam: Sequence[int], max_weight: int, max_length: int | None = None) -> list[Partition]:
    """All mu containing lam with |mu| <= max_weight, enumeration order."""
    lam = Partition(lam)
    return [
        mu
        for mu in _up_to_weight(max_weight)
        if mu.contains(lam) and (max_length is None or len(mu) <= max_length)
    ]


def _strip(parts: tuple[int, ...]) -> Partition:
    """parts without the trailing zero that a strip's last row can take."""
    return Partition._trusted(parts[:-1] if parts and not parts[-1] else parts)


def horizontal_strips(lam: Sequence[int], grow: int | None = None) -> Iterator[Partition]:
    """Partitions that differ from lam by a horizontal strip, i.e. by at
    most one cell in each column.

    With grow=None: every mu inside lam with lam/mu a horizontal strip,
    that is lam_1 >= mu_1 >= lam_2 >= mu_2 >= ...  With grow=n: every nu
    containing lam with nu/lam a horizontal strip of n cells.  Each row
    ranges between the neighbouring parts of lam independently of the
    others, so the strips form a box of row choices; they are yielded
    with the rows compared entrywise descending.  lam/mu is a vertical
    strip iff lam'/mu' is a horizontal one.  Only the last row can reach
    0, so every choice is a partition once that zero is dropped.
    """
    lam = Partition(lam)
    if grow is None:
        rows = [range(lam[i], lam.part(i + 2) - 1, -1) for i in range(len(lam))]
        yield from map(_strip, product(*rows))
        return
    first = lam.part(1)
    rows = [range(first + grow, first - 1, -1)]
    rows += [range(lam[i - 1], lam.part(i + 1) - 1, -1) for i in range(1, len(lam) + 1)]
    target = lam.weight + grow
    yield from (_strip(parts) for parts in product(*rows) if sum(parts) == target)


def vertical_strips(lam: Sequence[int]) -> Iterator[Partition]:
    """Every mu inside lam with lam/mu a vertical strip, i.e. at most one
    cell removed from each row: mu_i in {lam_i, lam_i - 1}, weakly
    decreasing.

    Within a run of equal parts the removed cells sit at the bottom of
    the run, and the runs choose independently how many to remove.  The
    strips are yielded in the order of transpose . horizontal_strips .
    transpose: the run of the smallest part varies slowest, the run of
    the largest part fastest, and each run removes 0, 1, ... cells.
    """
    lam = Partition(lam)
    # runs of equal parts as (first row, end row), 0-indexed, the bottom run first
    runs = []
    end = len(lam)
    while end:
        start = end - 1
        while start and lam[start - 1] == lam[end - 1]:
            start -= 1
        runs.append((start, end))
        end = start
    # the cells taken from a bottom run of 1s leave zeros, which are dropped
    bottom_ones = bool(lam) and lam[-1] == 1
    for removed in product(*(range(end - start + 1) for start, end in runs)):
        parts = list(lam)
        for (start, end), k in zip(runs, removed):
            for i in range(end - k, end):
                parts[i] -= 1
        yield Partition._trusted(parts[: len(parts) - removed[0]] if bottom_ones else parts)


# -- alphabets --------------------------------------------------------


def as_alphabet(letters: Iterable) -> Alphabet:
    return tuple(coerce_scalar(x) for x in letters)


def negate_alphabet(letters: Iterable) -> Alphabet:
    return tuple(-coerce_scalar(x) for x in letters)


def refined_alphabet(t: Sequence, i: int) -> Alphabet:
    """The alphabet (t_1, ..., t_{i-1}); i = 1 gives the empty alphabet."""
    t = as_alphabet(t)
    if i < 1:
        raise ValueError(f"row index must be >= 1: {i}")
    if i - 1 > len(t):
        raise ValueError(f"row {i} needs {i - 1} letters, only {len(t)} given")
    return t[: i - 1]


# -- alphabet sequences -----------------------------------------------


# The tail rules and AlphabetSequence are named tuples, compared and hashed by
# value; each coerces its letters through as_alphabet on construction.


class EmptyTail(namedtuple("EmptyTail", ())):
    __slots__ = ()


class RefinedTail(namedtuple("RefinedTail", "base increments")):
    __slots__ = ()

    def __new__(cls, base: Iterable, increments: Iterable[Iterable]):
        return super().__new__(cls, as_alphabet(base), tuple(as_alphabet(b) for b in increments))


class ConstantTail(namedtuple("ConstantTail", "letters")):
    __slots__ = ()

    def __new__(cls, letters: Iterable):
        return super().__new__(cls, as_alphabet(letters))


Tail = Union[EmptyTail, RefinedTail, ConstantTail]


class AlphabetSequence(namedtuple("AlphabetSequence", "prefix tail")):
    """Row indexed family of alphabets: explicit prefix, then a tail rule."""

    __slots__ = ()

    def __new__(cls, prefix: Iterable[Iterable], tail: Tail):
        prefix = tuple(as_alphabet(a) for a in prefix)
        if not isinstance(tail, (EmptyTail, RefinedTail, ConstantTail)):
            raise TypeError(f"unknown tail rule: {tail!r}")
        return super().__new__(cls, prefix, tail)

    def alphabet(self, i: int) -> Alphabet:
        """The alphabet for row i >= 1."""
        if i < 1:
            raise ValueError(f"row index must be >= 1: {i}")
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        k = i - len(self.prefix)
        if isinstance(self.tail, EmptyTail):
            return ()
        if isinstance(self.tail, ConstantTail):
            return self.tail.letters
        extra: list[Scalar] = []
        for block in self.tail.increments[: k - 1]:
            extra.extend(block)
        return self.tail.base + tuple(extra)

    def stable_tail(self) -> tuple[int, tuple[Scalar, ...]] | None:
        """Detect eventually refined growth: from some row R on, each row
        adds exactly one new letter t_k to the previous one, until the
        family goes constant.

        Returns (R, (t_1, t_2, ...)) with R minimal, so that row R + p
        equals row R plus (t_1, ..., t_p) as multisets while the letters
        last; or None when no such R exists.  An empty tail rule only
        qualifies when every row is empty.
        """
        L = len(self.prefix)
        if isinstance(self.tail, EmptyTail):
            if any(self.prefix):
                return None
            return (1, ())
        if isinstance(self.tail, ConstantTail):
            const = Counter(self.tail.letters)
            R = 1
            for i in range(L, 0, -1):
                if Counter(self.prefix[i - 1]) != const:
                    R = i + 1
                    break
            return (R, ())
        # Refined tail: rows are constant from M on; inspect steps 1..M-1.
        M = L + len(self.tail.increments) + 1
        rows = [self.alphabet(i) for i in range(1, M + 1)]
        diffs = [_alphabet_difference(rows[i], rows[i - 1]) for i in range(1, M)]
        for R in range(1, M + 1):
            letters: list[Scalar] = []
            grown_stopped = False
            for d in diffs[R - 1 :]:
                if d is None or len(d) > 1:
                    break
                if len(d) == 0:
                    grown_stopped = True
                elif grown_stopped:
                    break
                else:
                    letters.append(d[0])
            else:
                return (R, tuple(letters))
        return None


def _alphabet_difference(big: Alphabet, small: Alphabet) -> Alphabet | None:
    """big minus small as multisets, or None when small is not contained."""
    pool = Counter(big)
    pool.subtract(small)
    return None if any(c < 0 for c in pool.values()) else tuple(pool.elements())


# -- constructors -----------------------------------------------------


def empty_sequence() -> AlphabetSequence:
    return AlphabetSequence((), EmptyTail())


def prefix_sequence(*rows: Iterable) -> AlphabetSequence:
    """Explicit rows, empty from there on."""
    return AlphabetSequence(tuple(as_alphabet(r) for r in rows), EmptyTail())


def constant_sequence(letters: Iterable) -> AlphabetSequence:
    return AlphabetSequence((), ConstantTail(as_alphabet(letters)))


def refined_sequence(t: Sequence) -> AlphabetSequence:
    """Row i gets (t_1, ..., t_{i-1}): the refinement family for t."""
    t = as_alphabet(t)
    return AlphabetSequence((), RefinedTail((), tuple((x,) for x in t)))


def motegi_scrimshaw_sequence(xvars: Iterable, t: Sequence) -> AlphabetSequence:
    """Row i gets the x alphabet together with (t_1, ..., t_i); one more
    t letter per row than refined_sequence supplies."""
    x = as_alphabet(xvars)
    t = as_alphabet(t)
    if not t:
        return AlphabetSequence((), ConstantTail(x))
    return AlphabetSequence(
        (),
        RefinedTail(x + t[:1], tuple((u,) for u in t[1:])),
    )
