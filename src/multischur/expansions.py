"""Schur-basis symmetric functions and the determinant expansions.

SymFunc holds an element of the symmetric function ring in its Schur
basis: a finite map Partition -> Scalar, plus an optional degree bound
`truncation` marking that coefficients of weight <= D are exact and all
higher ones have been discarded (a truncated element of the completed
ring).

The expansion operations all reduce to Jacobi-Trudi style determinants
whose entries are supersymmetric h or e polynomials in row- and
column-dependent alphabets, built by the one kernel `supersym._jt` from
an entry function and a row order; the determinants of one call share
their minors.  `_expand` reads the h-forms, n x n matrices, top-down, so
that each is expanded along row 1, the row with the fewest letters; the
e-forms, of len(mu) rows, keep the bottom-up order, whose minors serve
every size, and skip a mu whose first row is zero on its columns.
The skew expansion has entries sum_n c_n h_n(X); it holds each entry
and each minor as a SymFunc, and its ring's dot (`_pieri_dot`) sums all
the signed Pieri products of one minor in one `_pieri`, so its
determinant lands in the Schur basis with no second ring.  Evaluation
reads no determinant: `eval_symfunc` sums over the same horizontal
strips by the branching rule, and the module keeps no cache.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import cache
from itertools import chain

from .exactalg import (
    Scalar,
    ScalarLike,
    TractabilityError,
    _add_product,
    _dot,
    _json_object,
    coerce_scalar,
    collect,
    scalar_from_json,
    scalar_to_json,
)
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
from .supersym import _h_series, _jt

_ZERO = Scalar.zero()
_ONE = Scalar.one()


class TruncationError(ValueError):
    """A truncated operand does not determine the requested result."""


# The largest degree bound D of the series-valued expansions (truncated,
# stable, stable-dual).  Their cost grows with the number of partitions of
# weight <= D: the truncated expansion of lambda = (1) in r = 8 rows takes
# about 0.2 s at D = 30.  The stable ones also grow with the number of letters.
MAX_DEGREE_BOUND = 30


def check_degree_bound(lam: Partition, D: int) -> None:
    """ValueError when D is below |lam|, TractabilityError past the budget."""
    if D < lam.weight:
        raise ValueError(f"degree bound {D} is below |lam| = {lam.weight}")
    if D > MAX_DEGREE_BOUND:
        raise TractabilityError(f"degree bound is capped at {MAX_DEGREE_BOUND}: got {D}")


def _mu_key(mu: Partition) -> tuple:
    return (sum(mu), tuple(-p for p in mu))


def _min_trunc(a: int | None, b: int | None) -> int | None:
    return b if a is None else a if b is None else min(a, b)


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


def _expand(lam: Partition, shapes: Sequence[Partition], rows, cols=None, e: bool = False) -> dict:
    """{mu: det} for the mu of `shapes` with a nonzero det( h_k(X / Y) ),
    k = lam_i - mu_j - i + j, or det( h_{-k}(X / Y) ) in an e-form (e set;
    h_m(() / Y) = e_m(-Y)), for (X, Y) = rows(i) joined with cols(j) if
    given, alphabets of Scalars.  A matrix has n rows, the most of lam and
    the shapes, or len(mu) in an e-form, whose shapes contain lam.  Each row
    (or cell, keyed on (mu_j - j, j)) builds one series, as far as its
    matrices read:

      * an empty X gives h(() / Y), a polynomial of degree len Y;
      * an h-form reads k <= lam_i - i + j, as mu_j >= 0; a row, j = n;
      * an e-form reads -k <= c_j - lam_i + i, c_j the largest mu_j - j of
        the shapes; a row, j = 1, as mu_j - j falls with j.  Only this case
        scans the shapes.

    The row order (`supersym._jt`) follows the form.  An h-form reads its
    n x n matrices top-down, so each is expanded along lam's row 1: the
    row with the fewest letters in the refined and flagged families, the
    empty row h(() / ()) = 1 in a refined one, whose zero entries prune
    whole minors.  An e-form keeps the bottom-up order, whose minors serve
    every size len(mu); there a mu whose first row is zero on its columns
    has a zero det and is skipped before the expansion.

    Padding past m = max(len(lam), len(mu)) rows keeps a determinant.  In
    an e-form the index mu_j - j - lam_i + i is i - j - lam_i < 0 for
    i <= m < j, a zero upper-right block, and i - j for i, j > m, a unit
    lower-triangular block; in an h-form the zero block is lower-left."""
    n = max(len(lam), max(map(len, shapes)))
    span = range(1, n + 1)
    joins = [(j, *cols(j)) for j in span] if cols else [(1 if e else n, (), ())]
    tops, table = None, [None]
    for i, (x, y) in enumerate(map(rows, span), 1):
        row = [None]
        for j, cx, cy in joins:
            X, Y = x + cx, y + cy
            if X and e and tops is None:
                tops = [max(mu.part(c) for mu in shapes) - c for c in span]
            last = len(Y) if e and not X else tops[j - 1] - lam.part(i) + i if e else lam.part(i) - i + j
            row.append(_h_series(last if X else min(last, len(Y)), X, Y))
        table.append(row if cols else row[1])
    if cols:  # entry(i, k, j), the series of cell (i, j) at k, or at -k in an e-form
        if e:
            entry = lambda i, k, j: s[-k] if -len(s := table[i][j]) < k <= 0 else _ZERO
        else:
            entry = lambda i, k, j: s[k] if 0 <= k < len(s := table[i][j]) else _ZERO
    elif e:
        entry = lambda i, k: s[-k] if -len(s := table[i]) < k <= 0 else _ZERO
    else:
        entry = lambda i, k: s[k] if 0 <= k < len(s := table[i]) else _ZERO
    if not e:
        det = _jt(lam, entry, range(n, 0, -1), bool(cols))
        return {mu: c for mu in shapes if (c := det(mu, n))}
    det = _jt(lam, entry, span, bool(cols))
    offset = lam.part(1) - 1  # row 1 reads k = offset - mu_j + j at column j
    if cols:
        first = lambda mu: any(entry(1, offset - p + j, j) for j, p in enumerate(mu, 1))
    else:
        first = lambda mu: any(entry(1, offset - p + j) for j, p in enumerate(mu, 1))
    return {mu: c for mu in shapes if (not mu or first(mu)) and (c := det(mu, len(mu)))}


def schur_expand_multischur(lam: Sequence[int], bx: AlphabetSequence, by: AlphabetSequence) -> SymFunc:
    """Expansion over mu inside lam with coefficient
    det( h_{lam_i - mu_j - i + j}(x^(i)/y^(i)) )."""
    lam = Partition(lam)
    return SymFunc(_expand(lam, subpartitions(lam), lambda i: (bx.alphabet(i), by.alphabet(i))))


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
    rows = lambda i: (bx.alphabet(i), by.alphabet(i))
    return _expand(lam, subpartitions(lam), rows, lambda j: ((), refined_alphabet(t, j)))


def truncated_dual_expansion(lam: Sequence[int], bx: AlphabetSequence, r: int, D: int) -> SymFunc:
    """Expansion over mu containing lam with at most r rows:
    det( e_{-lam_i + mu_j + i - j}(-x^(i)) ), size len(mu), truncated at D."""
    lam = Partition(lam)
    if r < len(lam):
        raise ValueError(f"need r >= {len(lam)} for {lam}, got {r}")
    check_degree_bound(lam, D)
    shapes = superpartitions(lam, D, max_length=r)
    return SymFunc(_expand(lam, shapes, lambda i: ((), bx.alphabet(i)), e=True), D)


def stable_dual_in_G(lam: Sequence[int], bx: AlphabetSequence, t: Sequence, D: int) -> dict[Partition, Scalar]:
    """Coefficients on the stable basis indexed by mu containing lam:
    det( h_{-lam_i + mu_j + i - j}((t_1..t_{j-1}) / x^(i)) ), size
    len(mu), for any bx."""
    lam = Partition(lam)
    check_degree_bound(lam, D)
    rows = lambda i: ((), bx.alphabet(i))
    return _expand(lam, superpartitions(lam, D), rows, lambda j: (refined_alphabet(t, j), ()), e=True)


def stable_grothendieck_schur(lam: Sequence[int], t: Sequence, D: int) -> SymFunc:
    """Schur expansion of the stable series up to degree D: coefficient of
    s_mu is det( e_{-lam_i + mu_j + i - j}(-(t_1..t_{i-1})) ), size
    len(mu)."""
    lam = Partition(lam)
    check_degree_bound(lam, D)
    return SymFunc(_expand(lam, superpartitions(lam, D), lambda i: ((), refined_alphabet(t, i)), e=True), D)


def skew_multi_schur(lam: Sequence[int], mu: Sequence[int], bx: AlphabetSequence, by: AlphabetSequence) -> Scalar:
    """det( h_{lam_i - mu_j - i + j}(x^(i)/y^(i)) ), size max of lengths;
    vanishes unless mu fits inside lam."""
    lam, mu = Partition(lam), Partition(mu)
    return _expand(lam, (mu,), lambda i: (bx.alphabet(i), by.alphabet(i))).get(mu, _ZERO)


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

    @cache  # each cell's series is built once, though minors read it again
    def entry(i: int, k: int, j: int) -> SymFunc:
        s = _h_series(k, bx.alphabet(i), by.alphabet(i) + bp.alphabet(j))
        return SymFunc({(n,): s[k - n] for n in range(k + 1)})

    return _jt(lam, entry, range(1, r + 1), True, _pieri_dot, sym_schur(()))(mu, r)


# -- Schur-basis arithmetic -------------------------------------------


def _pieri(terms: Iterable[tuple[int, Partition, Scalar]]) -> SymFunc:
    """The sum of c h_n(X) s_mu over the (n, mu, c) of `terms`: each s_mu
    spreads over the horizontal n-strips on mu."""
    return SymFunc((nu, c) for n, mu, c in terms for nu in (horizontal_strips(mu, n) if n else (mu,)))


def _pieri_dot(triples: Iterable[tuple[SymFunc, SymFunc, bool]]) -> SymFunc:
    """The sum of e * f, or -(e * f) where negate is set, over the (e, f,
    negate) of `triples`, an entry e = sum_n c_n s_(n) standing for sum_n
    c_n h_n(X): one `_pieri` over each c_n a_mu, once per (n, mu)."""
    return _pieri(
        (row.weight, mu, -(c * a) if negate else c * a)
        for e, f, negate in triples for row, c in e._coeffs.items() for mu, a in f._coeffs.items()
    )


def hall_inner(f: SymFunc, g: SymFunc) -> Scalar:
    """Pair Schur coefficients diagonally; errors when a truncation hides
    needed coefficients of the other operand."""
    for a, b, a_side, b_side in ((f, g, "left", "right"), (g, f, "right", "left")):
        if a.truncation is not None and b.max_degree() > a.truncation:
            raise TruncationError(
                f"{a_side} operand is only known up to degree {a.truncation}, "
                f"{b_side} has support in degree {b.max_degree()}"
            )
    terms = {}
    for mu, c in f._coeffs.items():
        other = g._coeffs.get(mu)
        if other is not None:
            _add_product(terms, c._terms, other._terms)
    return Scalar._trusted(terms)


def eval_symfunc(f: SymFunc, vals: Sequence) -> Scalar:
    """Specialize to finitely many variables by the branching rule
    (Macdonald I.5.11): s_mu(x_1..x_k) sums x_k^|mu/nu| s_nu(x_1..x_{k-1})
    over the horizontal strips mu/nu with len(nu) < k, and vanishes when
    len(mu) > k.  One memo per call is keyed on (nu, k); each letter's
    powers are built once, up to the largest strip that reads them."""
    xs = as_alphabet(vals)
    powers = [[_ONE._terms, x._terms] for x in xs]  # term dicts, as the memo's values
    memo = {((), k): _ONE._terms for k in range(len(xs) + 1)}

    def schur(mu: Partition, k: int) -> dict:  # the terms of s_mu(x_1..x_k), len(mu) <= k
        terms = memo.get((mu, k))
        if terms is None:
            p = powers[k - 1]
            while len(p) <= mu[0]:  # a strip of mu has at most mu_1 cells
                p.append(_add_product({}, p[-1], p[1]))
            if k == 1:
                return p[mu[0]]
            terms, w = {}, sum(mu)
            for nu in horizontal_strips(mu):
                if len(nu) < k and (a := p[w - sum(nu)]):
                    _add_product(terms, a, schur(nu, k - 1))
            memo[mu, k] = terms
        return terms

    return _dot((c, Scalar._trusted(schur(mu, len(xs))), False) for mu, c in f._coeffs.items() if len(mu) <= len(xs))


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


_ORACLE_MAX_WEIGHT = 8  # the tableau oracles' weight cap, and so the classical suite's maxWeight cap


def schur_tableau_oracle(mu: Sequence[int], vals: Sequence) -> Scalar:
    mu = Partition(mu)
    xs = as_alphabet(vals)
    if len(xs) > 6 or mu.weight > _ORACLE_MAX_WEIGHT:
        raise TractabilityError(f"oracle bounds are 6 variables, weight {_ORACLE_MAX_WEIGHT}: got {len(xs)}, {mu.weight}")
    return _ssyt_monomials(mu, xs, [len(xs)] * len(mu))


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
    """The inverse of symfunc_to_json; a key that it does not read, in the
    element or in one of its terms, or a term of weight above the
    truncation, is a ValueError."""
    _json_object(data, {"basis", "truncation", "terms"}, "a serialized element")
    if data.get("basis", "schur") != "schur":
        raise ValueError(f"unsupported basis: {data.get('basis')!r}")
    D = data.get("truncation")
    if D is not None and (isinstance(D, bool) or not isinstance(D, int) or D < 0):
        raise ValueError(f"truncation must be null or an integer >= 0: {D!r}")
    pairs = []
    for item in data.get("terms", ()):
        _json_object(item, {"partition", "coeff"}, "a term of an element")
        coeff, mu = scalar_from_json(item["coeff"]), Partition(item["partition"])
        if D is not None and mu.weight > D:
            raise ValueError(f"a term of weight {mu.weight} lies above the truncation {D}: {list(mu)}")
        pairs.append((mu, coeff))
    return SymFunc(pairs, D)
