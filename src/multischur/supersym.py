"""Supersymmetric complete functions and their Jacobi-Trudi determinants.

h_n(x/y) is the degree n coefficient of
prod_j (1 - y_j z) / prod_i (1 - x_i z), so

    h_n(x/y) = sum_k (-1)^k e_k(y) h_{n-k}(x).

Setting y = () recovers h_n(x); setting x = () gives
(-1)^n e_n(y) = e_n(-y).  The determinant of h_{lam_i - i + j}(x/y) is the
supersymmetric Schur function; `_jt` builds that determinant, and every
Jacobi-Trudi determinant of `expansions`, from an entry function, a row
order and the ring's `dot`, the signed sum of a minor's products
(`exactalg._dot`).  For a fixed lam, the matrix of each mu is a choice of
columns c_j = mu_j - j of one matrix indexed by (i, c), so its
determinant is a minor of that matrix (Fulton, Young Tableaux, ch. 9):
the determinants of one `_jt` share their minors.  The row order picks
which: bottom-up, the minors over rows 1..k, shared across sizes too;
top-down, those over rows k..n of matrices of one size n, each expanded
along row 1.  `expansions._expand` reads its h-forms top-down, since row
1 has the fewest letters in the refined and flagged families, and its
e-forms, whose sizes vary, bottom-up; `supersym_schur` and
`skew_function` read bottom-up.  `expansions.eval_symfunc` evaluates
by the branching rule, without `supersym_schur` or any determinant.

`h_series` computes the series truncated after z^n, one letter at a
time (Macdonald, Symmetric Functions and Hall Polynomials, I.2), through
`_h_series`, which `expansions` calls directly on alphabets of Scalars.
A determinant builds one series per row or cell alphabet and reads its
entries by index; nothing here is cached beyond one `_jt`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .exactalg import Scalar, _add_product, _dot, _laplace
from .shapes import Alphabet, Partition, as_alphabet

_ZERO = Scalar.zero()
_ONE = Scalar.one()


def h_series(n: int, x: Iterable, y: Iterable = ()) -> list[Scalar]:
    """[h_0(x/y), ..., h_n(x/y)], each summed in place; [] when n < 0."""
    return _h_series(n, as_alphabet(x), as_alphabet(y))


def _h_series(n: int, x: Alphabet, y: Alphabet) -> list[Scalar]:
    """h_series of two alphabets of Scalars, read as they are: the
    builder of `expansions`, whose alphabets are Scalars already."""
    out = [{(): 1}] + [{} for _ in range(n)] if n >= 0 else []
    for b in y:  # times (1 - b z), high degrees first
        for k in range(n, 0, -1):
            _add_product(out[k], b._terms, out[k - 1], True)
    for a in x:  # times 1/(1 - a z) = 1 + a z + a^2 z^2 + ...
        for k in range(1, n + 1):
            _add_product(out[k], a._terms, out[k - 1])
    return [Scalar._trusted(terms) for terms in out]


def _at(series: Sequence[Scalar], k: int) -> Scalar:
    """Entry k of a series, zero outside the computed range; reading past
    the end is only right for a polynomial such as h(()/y)."""
    return series[k] if 0 <= k < len(series) else _ZERO


def _jt(lam: Partition, entry, rows: range, cells: bool = False, dot=_dot, one=_ONE):
    """det(mu, m) = det( entry(i, lam_i - i - c_j) ), c_j = mu_j - j, or
    entry(i, lam_i - i - c_j, j) with `cells` set, over i, j = 1..m, in the
    ring of `dot` and `one`.  The determinants share one memo of minors;
    `entry` runs each time a minor reads it, so one that builds more than a
    lookup caches.

    `rows` is the row order: lam's rows as `_laplace` reads them, its row k
    being rows[k - 1], and each mu's columns j run in the same order.
    Permuting rows and columns alike keeps a determinant; `_laplace`
    expands each one along rows[m - 1] and shares the minors over rows[:k]:
      * bottom-up, range(1, n + 1): a matrix of any size m <= n reads
        rows[:m] = 1..m, so minors are shared across mu and across sizes;
      * top-down, range(n, 0, -1): every matrix has n rows and is expanded
        along lam's row 1, so a zero entry there prunes its whole minor;
        minors over lam's bottom rows are shared across mu."""
    at_row = (0, *rows)
    offsets = (0, *(lam.part(i) - i for i in rows))
    memo = {(): one}
    if cells:
        at = lambda k, key: entry(at_row[k], offsets[k] - key[0], key[1])
        keys = lambda mu, js: tuple((mu.part(j) - j, j) for j in js)
    else:
        at = lambda k, c: entry(at_row[k], offsets[k] - c)
        keys = lambda mu, js: tuple(mu.part(j) - j for j in js)
    return lambda mu, m: _laplace(keys(mu, rows[:m]), at, memo, dot)


def supersym_schur(lam: Sequence[int], x: Iterable, y: Iterable) -> Scalar:
    """det( h_{lam_i - i + j}(x/y) ) over i, j = 1..len(lam)."""
    lam = Partition(lam)
    s = h_series(lam.part(1) - 1 + len(lam), x, y)
    return _jt(lam, lambda i, k: _at(s, k), range(1, len(lam) + 1))(Partition(), len(lam))
