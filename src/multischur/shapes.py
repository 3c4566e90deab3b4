"""Partitions and indexed families of variable alphabets.

A Partition is a weakly decreasing tuple of positive integers.  An
Alphabet is a tuple of Scalars, one per letter; letters are usually
indeterminates but any Scalar is allowed, including repeats.  An
AlphabetSequence assigns an alphabet to every row index i >= 1, as the
paper's tuple of alphabets (x^(1), x^(2), ...) does.  Every family in
use is eventually constant, so the sequence holds its rows up to the
last change: row i is rows[i - 1], every row past the last reads the
last, and no rows means every row is empty.  A last row that repeats the
one before it is dropped on construction, so two spellings of one family
compare and hash equal.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import lru_cache
from itertools import chain, product
from operator import index, le

from .exactalg import Scalar, coerce_scalar

Alphabet = tuple[Scalar, ...]


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
    are stripped on construction.  A Partition is returned as it is; a
    string, bytes or a mapping is refused, not read as its items."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        if type(parts) is cls:
            return parts
        if isinstance(parts, (str, bytes, Mapping)):
            raise TypeError(f"a partition is a sequence of parts, not a {type(parts).__name__}: {parts!r}")
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
        enumerators, `transpose` and the fermion steps of `fock` build
        valid."""
        return tuple.__new__(cls, parts)

    @property
    def weight(self) -> int:
        return sum(self)

    def part(self, i: int) -> int:
        """The i-th part, 1-indexed; 0 beyond the length."""
        if i < 1:
            raise ValueError(f"part index must be >= 1: {i}")
        return self[i - 1] if i <= len(self) else 0

    def transpose(self) -> "Partition":
        """The conjugate partition: its j-th part counts the parts >= j."""
        return Partition._trusted(sum(1 for p in self if p >= j) for j in range(1, self.part(1) + 1))

    def contains(self, mu: "Partition") -> bool:
        """True iff mu fits inside self cell by cell."""
        return len(mu) <= len(self) and all(map(le, mu, self))

    def __repr__(self) -> str:
        return f"Partition({list(self)})"


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


def partitions_up_to_weight(n: int) -> list[Partition]:
    return list(_up_to_weight(n))


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


# -- alphabets --------------------------------------------------------


def as_alphabet(letters: Iterable) -> Alphabet:
    return tuple(x if type(x) is Scalar else coerce_scalar(x) for x in letters)


def refined_alphabet(t: Sequence, i: int) -> Alphabet:
    """The alphabet (t_1, ..., t_{i-1}); i = 1 gives the empty alphabet."""
    if i < 1:
        raise ValueError(f"row index must be >= 1: {i}")
    if i - 1 > len(t):
        raise ValueError(f"row {i} needs {i - 1} letters, only {len(t)} given")
    return as_alphabet(t[: i - 1])


# -- alphabet sequences -----------------------------------------------


class AlphabetSequence(namedtuple("AlphabetSequence", "rows")):
    """Row indexed family of alphabets, compared and hashed by value."""

    __slots__ = ()

    def __new__(cls, rows: Iterable[Iterable] = ()):
        rows = [as_alphabet(a) for a in rows]
        # a last row that repeats the one before it, or is empty with none before it, adds nothing
        while rows and rows[-1] == (rows[-2] if len(rows) > 1 else ()):
            rows.pop()
        return super().__new__(cls, tuple(rows))

    def alphabet(self, i: int) -> Alphabet:
        """The alphabet for row i >= 1."""
        if i < 1:
            raise ValueError(f"row index must be >= 1: {i}")
        return self.rows[min(i, len(self.rows)) - 1] if self.rows else ()


# -- constructors -----------------------------------------------------


def empty_sequence() -> AlphabetSequence:
    return AlphabetSequence()


def prefix_sequence(*rows: Iterable) -> AlphabetSequence:
    """Explicit rows, empty from there on."""
    return AlphabetSequence((*rows, ()))


def refined_sequence(t: Sequence) -> AlphabetSequence:
    """Row i gets (t_1, ..., t_{i-1}): the refinement family for t.  It
    holds len(t) + 1 rows, len(t)**2 / 2 letters in all, so a caller
    passes only the letters of the rows it reads."""
    t = as_alphabet(t)
    return AlphabetSequence(t[:i] for i in range(len(t) + 1))
