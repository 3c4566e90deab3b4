"""Complete, elementary, and power sums in a pair of alphabets.

h_super(n, x, y) is the degree n coefficient of
prod_j (1 - y_j z) / prod_i (1 - x_i z), so

    h_n(x/y) = sum_k (-1)^k e_k(y) h_{n-k}(x).

Setting y = () recovers h_n(x); setting x = () gives
(-1)^n e_n(y) = e_n(-y).  p_n(x/y) = p_n(x) - p_n(y) follows the same
sign convention.  The
determinant of h_{lam_i - i + j}(x/y) is the supersymmetric Schur
function; `_jt` builds that determinant, and every Jacobi-Trudi
determinant of `expansions`, from an entry function.

All values are computed by one-letter-at-a-time recurrences and cached
on the sorted alphabet, so repeated determinant entries are cheap.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from .exactalg import Scalar, det_over_ring
from .shapes import Alphabet, Partition, as_alphabet

_ZERO = Scalar.zero()
_ONE = Scalar.one()


def _canonical(letters: Alphabet) -> Alphabet:
    return tuple(sorted(letters, key=Scalar.sort_key))


@lru_cache(maxsize=None)
def _h(n: int, letters: Alphabet) -> Scalar:
    if n == 0:
        return _ONE
    if n < 0 or not letters:
        return _ZERO
    head, last = letters[:-1], letters[-1]
    # h_n(a, b) = h_n(a) + b * h_{n-1}(a, b)
    return _h(n, head) + last * _h(n - 1, letters)


@lru_cache(maxsize=None)
def _e(n: int, letters: Alphabet) -> Scalar:
    if n == 0:
        return _ONE
    if n < 0 or n > len(letters):
        return _ZERO
    head, last = letters[:-1], letters[-1]
    # e_n(a, b) = e_n(a) + b * e_{n-1}(a)
    return _e(n, head) + last * _e(n - 1, head)


def h_complete(n: int, x: Iterable) -> Scalar:
    return _h(n, _canonical(as_alphabet(x)))


def e_elem(n: int, x: Iterable) -> Scalar:
    return _e(n, _canonical(as_alphabet(x)))


def h_super(n: int, x: Iterable, y: Iterable) -> Scalar:
    """h_n(x/y) = sum_k (-1)^k e_k(y) h_{n-k}(x); equals h_n(x) when y is
    empty and e_n(-y) when x is empty."""
    xs = _canonical(as_alphabet(x))
    ys = _canonical(as_alphabet(y))
    if n < 0:
        return _ZERO
    if not ys:
        return _h(n, xs)
    total = _ZERO
    for k in range(min(n, len(ys)) + 1):
        term = _e(k, ys) * _h(n - k, xs)
        total = total - term if k % 2 else total + term
    return total


def p_power(n: int, x: Iterable, y: Iterable) -> Scalar:
    """p_n(x/y) = sum x_i^n - sum y_j^n, defined for n >= 1."""
    if n < 1:
        raise ValueError(f"power sum index must be >= 1: {n}")
    total = _ZERO
    for u in as_alphabet(x):
        total = total + u**n
    for v in as_alphabet(y):
        total = total - v**n
    return total


def _jt(lam: Partition, mu: Partition, n: int, entry, **ring):
    """det( entry(lam_i - mu_j - i + j, i, j) ) over i, j = 1..n; `ring`
    passes `zero`/`one` on for entries that are not Scalars."""
    cols = [mu.part(j) - j for j in range(1, n + 1)]
    rows = []
    for i in range(1, n + 1):
        a = lam.part(i) - i
        rows.append([entry(a - c, i, j) for j, c in enumerate(cols, 1)])
    return det_over_ring(rows, **ring)


def supersym_schur(lam: Sequence[int], x: Iterable, y: Iterable) -> Scalar:
    """det( h_{lam_i - i + j}(x/y) ) over i, j = 1..len(lam)."""
    lam = Partition(lam)
    xs = as_alphabet(x)
    ys = as_alphabet(y)
    return _jt(lam, Partition(), len(lam), lambda k, i, j: h_super(k, xs, ys))
