"""Schur-basis symmetric functions and the determinant expansions.

SymFunc holds an element of the symmetric function ring in its Schur
basis: a finite map Partition -> Scalar, plus an optional degree bound
`truncation` marking that coefficients of weight <= D are exact and all
higher ones have been discarded (a truncated element of the completed
ring).

The expansion operations all reduce to Jacobi-Trudi style determinants
whose entries are supersymmetric h or e polynomials in row- and
column-dependent alphabets, built by the one kernel `supersym._jt` from
an entry function; the determinants of one call share their minors.
Each call builds one `supersym.h_series` per row (or per cell, where the
alphabet also depends on the column, and the columns are then keyed on
(mu_j - j, j) instead of mu_j - j), up to the largest index its matrices
read.  The skew expansion has entries sum_n c_n h_n(X); it holds each
minor as a SymFunc and multiplies it by an entry through the Pieri rule,
so its determinant lands in the Schur basis with no second ring.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

from .exactalg import Scalar, ScalarLike, coerce_scalar, collect, scalar_from_json, scalar_to_json
from .shapes import (
    Alphabet,
    AlphabetSequence,
    Partition,
    as_alphabet,
    empty_sequence,
    horizontal_strips,
    prefix_sequence,
    refined_alphabet,
    refined_sequence,
    subpartitions,
    superpartitions,
)
from .supersym import _at, _cells, _jt, h_series, supersym_schur

_ZERO = Scalar.zero()
_ONE = Scalar.one()


class TruncationError(ValueError):
    """A truncated operand does not determine the requested result."""


class TractabilityError(ValueError):
    """Requested size is beyond the supported brute-force bounds."""


# The largest degree bound D of the series-valued expansions (truncated,
# stable, stable-dual).  Their cost grows with the number of partitions of
# weight <= D: the truncated expansion of lambda = (1) takes about half a
# second at D = 30.  The stable ones also grow with the number of letters.
MAX_DEGREE_BOUND = 30


def check_degree_bound(lam: Partition, D: int) -> None:
    """ValueError when D is below |lam|, TractabilityError past the budget."""
    if D < lam.weight:
        raise ValueError(f"degree bound {D} is below |lam| = {lam.weight}")
    if D > MAX_DEGREE_BOUND:
        raise TractabilityError(f"degree bound is capped at {MAX_DEGREE_BOUND}: got {D}")


# Entries kept by `_jacobi_trudi`, the one memo cache of this module.  A
# round of varied requests (the cli-requests benchmark) reads about 50
# Jacobi-Trudi values, and the truncation-stability suite at its caps about
# 120, so a long-lived process stays at a fixed size without refilling the
# cache inside one round.
CACHE_SIZE = 256


def _mu_key(mu: Partition) -> tuple:
    return (sum(mu), tuple(-p for p in mu))


def _min_trunc(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class SymFunc:
    """Schur-basis element; optionally truncated above degree `truncation`.

    Built from a mapping or an iterable of (partition, coefficient) pairs:
    coefficients of equal partitions are summed (`exactalg.collect`), so a
    mapping with keys (1,) and (1, 0) holds their sum, and partitions
    whose sum is zero or whose weight exceeds `truncation` are dropped.
    """

    __slots__ = ("_coeffs", "truncation")

    def __init__(self, coeffs: Mapping | Iterable[tuple] = (), truncation: int | None = None):
        pairs = coeffs.items() if hasattr(coeffs, "items") else coeffs
        pairs = ((Partition(mu), c) for mu, c in pairs)
        if truncation is not None:
            pairs = ((mu, c) for mu, c in pairs if mu.weight <= truncation)
        self._coeffs = collect(pairs)
        self.truncation = truncation

    def coefficient(self, mu: Sequence[int]) -> Scalar:
        return self._coeffs.get(Partition(mu), _ZERO)

    def support(self) -> tuple[Partition, ...]:
        return tuple(sorted(self._coeffs, key=_mu_key))

    def terms(self) -> tuple[tuple[Partition, Scalar], ...]:
        return tuple(sorted(self._coeffs.items(), key=lambda t: _mu_key(t[0])))

    def max_degree(self) -> int:
        return max((mu.weight for mu in self._coeffs), default=0)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __add__(self, other: "SymFunc") -> "SymFunc":
        if not isinstance(other, SymFunc):
            return NotImplemented
        pairs = chain(self._coeffs.items(), other._coeffs.items())
        return SymFunc(pairs, _min_trunc(self.truncation, other.truncation))

    def __neg__(self) -> "SymFunc":
        return SymFunc({mu: -c for mu, c in self._coeffs.items()}, self.truncation)

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        return self + -other

    def scale(self, factor: ScalarLike) -> "SymFunc":
        factor = coerce_scalar(factor)
        return SymFunc({mu: c * factor for mu, c in self._coeffs.items()}, self.truncation)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self.truncation == other.truncation and self._coeffs == other._coeffs

    def __repr__(self) -> str:
        if not self._coeffs:
            body = "0"
        else:
            body = " + ".join(f"({c!r})·s{tuple(mu)}" for mu, c in self.terms())
        if self.truncation is None:
            return body
        return f"{body} [deg ≤ {self.truncation}]"


def sym_zero(truncation: int | None = None) -> SymFunc:
    return SymFunc((), truncation)


def sym_schur(mu: Sequence[int]) -> SymFunc:
    return SymFunc({Partition(mu): _ONE})


# -- closed-form determinants -----------------------------------------


def multi_schur(lam: Sequence[int], bx: AlphabetSequence, by: AlphabetSequence) -> Scalar:
    """det( h_{lam_i - i + j}(x^(i)/y^(i)) ), size len(lam)."""
    return skew_multi_schur(lam, (), bx, by)


def flagged_schur(lam: Sequence[int], flag: Sequence[int], vars: Sequence) -> Scalar:
    """multi_schur with row alphabets (x_1, ..., x_{flag_i})."""
    lam = Partition(lam)
    flag = tuple(int(f) for f in flag)
    if any(f <= 0 for f in flag):
        raise ValueError(f"flag entries must be positive: {flag}")
    if any(flag[i] > flag[i + 1] for i in range(len(flag) - 1)):
        raise ValueError(f"flag must be weakly increasing: {flag}")
    if len(flag) < len(lam):
        raise ValueError(f"flag has {len(flag)} rows, shape needs {len(lam)}")
    xs = as_alphabet(vars)
    if flag and flag[-1] > len(xs):
        raise ValueError(f"flag {flag} exceeds the {len(xs)} given variables")
    return multi_schur(lam, prefix_sequence(*(xs[:f] for f in flag[: len(lam)])), empty_sequence())


def schur_expand_multischur(lam: Sequence[int], bx: AlphabetSequence, by: AlphabetSequence) -> SymFunc:
    """Expansion over mu inside lam with coefficient
    det( h_{lam_i - mu_j - i + j}(x^(i)/y^(i)) )."""
    lam = Partition(lam)
    r = len(lam)
    rows = [h_series(lam.part(i) - i + r, bx.alphabet(i), by.alphabet(i)) for i in range(1, r + 1)]
    det = _jt(lam, lambda k, i: _at(rows[i - 1], k))
    return SymFunc({mu: c for mu in subpartitions(lam) if (c := det(mu, r))})


def refined_dual_grothendieck(lam: Sequence[int], t: Sequence) -> SymFunc:
    """Schur expansion with row alphabets (t_1, ..., t_{i-1})."""
    lam = Partition(lam)
    refined_alphabet(t, len(lam) if lam else 1)  # validates t is long enough
    # rows 1..len(lam) read t_1..t_{len(lam)-1}; the rest of t is never read
    return schur_expand_multischur(lam, refined_sequence(t[: len(lam)]), empty_sequence())


def expand_in_refined_basis(
    lam: Sequence[int], bx: AlphabetSequence, by: AlphabetSequence, t: Sequence
) -> dict[Partition, Scalar]:
    """Coefficients on the refined dual basis indexed by mu inside lam:
    det( h_{lam_i - mu_j - i + j}(x^(i) / (y^(i) u (t_1..t_{j-1}))) )."""
    lam = Partition(lam)
    r = len(lam)
    ts = [refined_alphabet(t, j) for j in range(1, r + 1)]
    cells = [
        [h_series(lam.part(i) - i + j, bx.alphabet(i), by.alphabet(i) + tj) for j, tj in enumerate(ts, 1)]
        for i in range(1, r + 1)
    ]
    det = _jt(lam, lambda k, i, j: _at(cells[i - 1][j - 1], k), _cells)
    return {mu: c for mu in subpartitions(lam) if (c := det(mu, r))}


def truncated_dual_expansion(lam: Sequence[int], bx: AlphabetSequence, r: int, D: int) -> SymFunc:
    """Expansion over mu containing lam with at most r rows:
    det( e_{-lam_i + mu_j + i - j}(-x^(i)) ), size r, truncated at D."""
    lam = Partition(lam)
    if r < len(lam):
        raise ValueError(f"need r >= {len(lam)} for {lam}, got {r}")
    check_degree_bound(lam, D)
    shapes = superpartitions(lam, D, max_length=r)
    # e_m(-x) = h_m(()/x), a polynomial of degree len(x); the largest m
    # a row reads is max mu_1 - 1 - lam_i + i
    top = max(mu.part(1) for mu in shapes) - 1
    xs = [bx.alphabet(i) for i in range(1, r + 1)]
    rows = [h_series(min(len(x), top - lam.part(i) + i), (), x) for i, x in enumerate(xs, 1)]
    det = _jt(lam, lambda k, i: _at(rows[i - 1], -k))
    return SymFunc({mu: c for mu in shapes if (c := det(mu, r))}, D)


def stable_dual_in_G(
    lam: Sequence[int], bx: AlphabetSequence, t: Sequence, D: int
) -> dict[Partition, Scalar]:
    """Coefficients on the stable basis indexed by mu containing lam:
    det( h_{-lam_i + mu_j + i - j}((t_1..t_{j-1}) / x^(i)) ), size
    len(mu), for any bx."""
    lam = Partition(lam)
    check_degree_bound(lam, D)
    shapes = superpartitions(lam, D)
    # no padding past len(mu) rows: more rows add a unit triangular block
    n = max(map(len, shapes))
    ts = [refined_alphabet(t, j) for j in range(1, n + 1)]
    xs = [bx.alphabet(i) for i in range(1, n + 1)]
    # the largest mu_j of a shape whose matrix has row i and column j
    reach = lambda i, j: max(mu.part(j) for mu in shapes if len(mu) >= max(i, j))
    cells = [
        [h_series(reach(i, j) - j - lam.part(i) + i, ts[j - 1], x) for j in range(1, n + 1)]
        for i, x in enumerate(xs, 1)
    ]
    det = _jt(lam, lambda k, i, j: _at(cells[i - 1][j - 1], -k), _cells)
    return {mu: c for mu in shapes if (c := det(mu, len(mu)))}


def stable_grothendieck_schur(lam: Sequence[int], t: Sequence, D: int) -> SymFunc:
    """Schur expansion of the stable series up to degree D: coefficient of
    s_mu is det( e_{-lam_i + mu_j + i - j}(-(t_1..t_{i-1})) ), size
    max(len(mu), len(lam))."""
    lam = Partition(lam)
    check_degree_bound(lam, D)
    shapes = superpartitions(lam, D)
    # e_m(-(t_1..t_{i-1})) = h_m(()/(t_1..t_{i-1})), a polynomial of degree i - 1
    rows = [h_series(i - 1, (), refined_alphabet(t, i)) for i in range(1, max(map(len, shapes)) + 1)]
    det = _jt(lam, lambda k, i: _at(rows[i - 1], -k))
    return SymFunc({mu: c for mu in shapes if (c := det(mu, max(len(mu), len(lam))))}, D)


def skew_multi_schur(
    lam: Sequence[int], mu: Sequence[int], bx: AlphabetSequence, by: AlphabetSequence
) -> Scalar:
    """det( h_{lam_i - mu_j - i + j}(x^(i)/y^(i)) ), size max of lengths;
    vanishes unless mu fits inside lam."""
    lam, mu = Partition(lam), Partition(mu)
    r = max(len(lam), len(mu))
    low = min((mu.part(j) - j for j in range(1, r + 1)), default=0)  # smallest column value
    rows = [h_series(lam.part(i) - i - low, bx.alphabet(i), by.alphabet(i)) for i in range(1, r + 1)]
    return _jt(lam, lambda k, i: _at(rows[i - 1], k))(mu, r)


class _HSum(SymFunc):
    """An entry sum_n c_n h_n(X) of the skew determinant, held in the
    Schur basis as sum_n c_n s_(n), so that it is its own 1x1 minor;
    `entry * minor` is the Pieri product."""

    __slots__ = ()

    def __mul__(self, f: SymFunc) -> SymFunc:
        # c_n a_mu once for each (n, mu), however many strips s_mu spreads over
        return _pieri((row.weight, mu, c * a) for row, c in self._coeffs.items() for mu, a in f._coeffs.items())


def skew_function(
    lam: Sequence[int],
    mu: Sequence[int],
    bx: AlphabetSequence,
    by: AlphabetSequence,
    bp: AlphabetSequence,
) -> SymFunc:
    """Skew expansion det( sum_{m+n = lam_i - mu_j - i + j}
    h_m(x^(i) / (y^(i) u p^(j))) h_n(X) ) in the Schur basis, for any
    bp: each minor is a SymFunc, and each entry multiplies one by Pieri."""
    lam, mu = Partition(lam), Partition(mu)
    r = max(len(lam), len(mu))

    def entry(k: int, i: int, j: int) -> _HSum:
        # `_jt` computes each cell once, so each cell series is built here
        s = h_series(k, bx.alphabet(i), by.alphabet(i) + bp.alphabet(j))
        return _HSum({(n,): s[k - n] for n in range(k + 1)})

    det = _jt(lam, entry, _cells, sym_zero(), sym_schur(()))(mu, r)
    return SymFunc(det._coeffs)  # a 1x1 determinant is its _HSum entry


# -- Schur-basis arithmetic -------------------------------------------


def _pieri(terms: Iterable[tuple[int, Partition, Scalar]], truncation: int | None = None) -> SymFunc:
    """The sum of c h_n(X) s_mu over the (n, mu, c) of `terms`: each s_mu
    spreads over the horizontal n-strips on mu."""
    return SymFunc(
        ((nu, c) for n, mu, c in terms for nu in (horizontal_strips(mu, n) if n else (mu,))), truncation
    )


def pieri_mult_h(f: SymFunc, n: int) -> SymFunc:
    """Multiply by h_n(X): each s_mu spreads over horizontal n-strips."""
    if n < 0:
        raise ValueError(f"h index must be >= 0: {n}")
    if n == 0:
        return f
    return _pieri(((n, mu, c) for mu, c in f._coeffs.items()), f.truncation)


def hall_inner(f: SymFunc, g: SymFunc) -> Scalar:
    """Pair Schur coefficients diagonally; errors when a truncation hides
    needed coefficients of the other operand."""
    if f.truncation is not None and g.max_degree() > f.truncation:
        raise TruncationError(
            f"left operand is only known up to degree {f.truncation}, "
            f"right has support in degree {g.max_degree()}"
        )
    if g.truncation is not None and f.max_degree() > g.truncation:
        raise TruncationError(
            f"right operand is only known up to degree {g.truncation}, "
            f"left has support in degree {f.max_degree()}"
        )
    total = _ZERO
    for mu, c in f._coeffs.items():
        other = g.coefficient(mu)
        if other:
            total = total + c * other
    return total


@lru_cache(maxsize=CACHE_SIZE)
def _jacobi_trudi(mu: Partition, vals: Alphabet) -> Scalar:
    return supersym_schur(mu, vals, ())


def eval_symfunc(f: SymFunc, vals: Sequence) -> Scalar:
    """Specialize to finitely many variables; s_mu vanishes when mu has
    more rows than there are variables."""
    xs = as_alphabet(vals)
    total = _ZERO
    for mu, c in f._coeffs.items():
        if len(mu) > len(xs):
            continue
        total = total + c * _jacobi_trudi(mu, xs)
    return total


# -- brute-force oracles ----------------------------------------------


def _ssyt_monomials(shape: Partition, vals: Alphabet, row_caps: Sequence[int]) -> Scalar:
    """Sum of content monomials over semistandard fillings with entries
    1..len(vals), row i capped at row_caps[i-1]."""
    total = _ZERO
    rows_done: list[tuple[int, ...]] = []

    def fill_row(i: int) -> Iterator[None]:
        if i == len(shape):
            yield None
            return
        width = shape[i]
        above = rows_done[i - 1] if i else None
        cap = row_caps[i]
        row: list[int] = []

        def cell(c: int) -> Iterator[None]:
            if c == width:
                rows_done.append(tuple(row))
                yield from fill_row(i + 1)
                rows_done.pop()
                return
            lo = row[c - 1] if c else 1
            if above is not None and c < len(above):
                lo = max(lo, above[c] + 1)
            for v in range(lo, cap + 1):
                row.append(v)
                yield from cell(c + 1)
                row.pop()

        yield from cell(0)

    for _ in fill_row(0):
        mono = _ONE
        for row in rows_done:
            for v in row:
                mono = mono * vals[v - 1]
        total = total + mono
    return total


_ORACLE_MAX_WEIGHT = 8  # the tableau oracles' weight cap; cli caps classical maxWeight by it
_BRANCHING_MAX_WEIGHT = 6  # verify_branching's weight cap; cli caps the branching suite by it


def schur_tableau_oracle(mu: Sequence[int], vals: Sequence) -> Scalar:
    mu = Partition(mu)
    xs = as_alphabet(vals)
    if len(xs) > 6 or mu.weight > _ORACLE_MAX_WEIGHT:
        raise TractabilityError(f"oracle bounds are 6 variables, weight {_ORACLE_MAX_WEIGHT}: got {len(xs)}, {mu.weight}")
    return _ssyt_monomials(mu, xs, [len(xs)] * len(mu))


def flagged_tableau_oracle(lam: Sequence[int], flag: Sequence[int], vals: Sequence) -> Scalar:
    """Row-capped semistandard generating sum: entries in row i at most flag_i."""
    lam = Partition(lam)
    xs = as_alphabet(vals)
    if len(xs) > 6 or lam.weight > _ORACLE_MAX_WEIGHT:
        raise TractabilityError(f"oracle bounds are 6 variables, weight {_ORACLE_MAX_WEIGHT}: got {len(xs)}, {lam.weight}")
    caps = [min(flag[i], len(xs)) for i in range(len(lam))]
    return _ssyt_monomials(lam, xs, caps)


# -- serialization ----------------------------------------------------


def symfunc_to_json(f: SymFunc) -> dict:
    return {
        "basis": "schur",
        "truncation": f.truncation,
        "terms": [
            {"partition": list(mu), "coeff": scalar_to_json(c)} for mu, c in f.terms()
        ],
    }


def symfunc_from_json(data: Mapping) -> SymFunc:
    if data.get("basis", "schur") != "schur":
        raise ValueError(f"unsupported basis: {data.get('basis')!r}")
    D = data.get("truncation")
    if D is not None and (isinstance(D, bool) or not isinstance(D, int) or D < 0):
        raise ValueError(f"truncation must be null or an integer >= 0: {D!r}")
    terms = data.get("terms", ())
    return SymFunc(((item["partition"], scalar_from_json(item["coeff"])) for item in terms), D)
