"""Supersymmetric complete functions and their Jacobi-Trudi determinants.

h_n(x/y) is the degree n coefficient of
prod_j (1 - y_j z) / prod_i (1 - x_i z), so

    h_n(x/y) = sum_k (-1)^k e_k(y) h_{n-k}(x).

Setting y = () recovers h_n(x); setting x = () gives
(-1)^n e_n(y) = e_n(-y).  The determinant of h_{lam_i - i + j}(x/y) is the
supersymmetric Schur function; `_jt` builds that determinant, and every
Jacobi-Trudi determinant of `expansions`, from an entry function and the
ring's `dot`, the signed sum of a minor's products (`exactalg._dot`).  For a
fixed lam, the matrix of each mu is a choice of columns c_j = mu_j - j
of one matrix indexed by (i, c), so its determinant is a minor of that
matrix (Fulton, Young Tableaux, ch. 9): the determinants of one `_jt`
share their minors over rows 1..k.

`h_series` computes the series truncated after z^n, one letter at a
time (Macdonald, Symmetric Functions and Hall Polynomials, I.2).  A
determinant builds one series per row or cell alphabet and reads its
entries by index; nothing here is cached beyond one `_jt`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .exactalg import Scalar, _add_product, _dot, _laplace
from .shapes import Partition, as_alphabet

_ZERO = Scalar.zero()
_ONE = Scalar.one()


def h_series(n: int, x: Iterable, y: Iterable = ()) -> list[Scalar]:
    """[h_0(x/y), ..., h_n(x/y)], each summed in place; [] when n < 0."""
    out = [{(): 1}] + [{} for _ in range(n)] if n >= 0 else []
    for b in as_alphabet(y):  # times (1 - b z), high degrees first
        for k in range(n, 0, -1):
            _add_product(out[k], b._terms, out[k - 1], True)
    for a in as_alphabet(x):  # times 1/(1 - a z) = 1 + a z + a^2 z^2 + ...
        for k in range(1, n + 1):
            _add_product(out[k], a._terms, out[k - 1])
    return [Scalar._trusted(terms) for terms in out]


def _at(series: Sequence[Scalar], k: int) -> Scalar:
    """Entry k of a series, zero outside the computed range; reading past
    the end is only right for a polynomial such as h(()/y)."""
    return series[k] if 0 <= k < len(series) else _ZERO


def _values(mu: Partition, n: int) -> tuple:
    """Column keys (mu_j - j,), for entries that ignore the column j."""
    return tuple((mu.part(j) - j,) for j in range(1, n + 1))


def _cells(mu: Partition, n: int) -> tuple:
    """Column keys (mu_j - j, j), for entries that read j."""
    return tuple((mu.part(j) - j, j) for j in range(1, n + 1))


def _jt(lam: Partition, entry, keys=_values, dot=_dot, one=_ONE):
    """det(mu, n) = det( entry(lam_i - i - c_j, i, *rest_j) ), i, j = 1..n,
    for the column keys (c_j, *rest_j) = keys(mu, n), in the ring of `dot`
    and `one`.  The determinants share one memo of minors; `entry` runs each
    time a minor reads it, so one that builds more than a lookup caches."""
    memo = {(): one}

    def at(i, key):
        return entry(lam.part(i) - i - key[0], i, *key[1:])

    return lambda mu, n: _laplace(keys(mu, n), at, memo, dot)


def supersym_schur(lam: Sequence[int], x: Iterable, y: Iterable) -> Scalar:
    """det( h_{lam_i - i + j}(x/y) ) over i, j = 1..len(lam)."""
    lam = Partition(lam)
    s = h_series(lam.part(1) - 1 + len(lam), x, y)
    return _jt(lam, lambda k, i: _at(s, k))(Partition(), len(lam))
