"""Exact sparse multivariate polynomials over the rationals.

A Scalar is an immutable polynomial with rational coefficients in named
commuting indeterminates.  It is the coefficient ring for every
expansion in this package: beta, t_i, x_j, y_j all live here as ring
elements, and all arithmetic is exact.

Representation.  A monomial is a tuple of (name, exponent) pairs, sorted
by name, with every exponent positive; the empty tuple is the constant
monomial.  A Scalar stores a mapping from monomials to nonzero
coefficients, each an `int` when its denominator is 1 and a
`fractions.Fraction` otherwise; every operation turns an integral
Fraction back into an `int`, so almost all arithmetic stays on ints.
Zero is the empty mapping, and equality is structural on this canonical
form.  The public constructor validates its coefficients; the ring
operations build their results through the unchecked `Scalar._trusted`.
A product with a one-term factor, the common case, sums nothing:
multiplying by a monomial is injective on monomials.

Sums of products.  A minor, a series coefficient or a pairing is a signed
sum of products.  `_add_product` adds a*b or -(a*b) to one monomial dict
in place, so the sum builds no Scalar for a product, a negation or a
partial sum; the general case of `*` is that loop into an empty dict.

Term order.  Names are ordered by plain string comparison; that order is
fixed across the package.  Serialized terms are listed in graded
lexicographic order: ascending total degree, ties broken by comparing the
monomial pair tuples.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from typing import Union

Monomial = tuple[tuple[str, int], ...]
Coefficient = Union[int, Fraction]
ScalarLike = Union["Scalar", int, Fraction]


class DimensionError(ValueError):
    """A matrix does not have the shape an operation requires."""


class TractabilityError(ValueError):
    """Requested size is beyond the supported brute-force bounds."""


_CUT = 200  # characters kept of a value that a message echoes


def _cut(text: str) -> str:
    """`text`, cut to _CUT characters ending in "..." when longer."""
    return text if len(text) <= _CUT else text[: _CUT - 3] + "..."


# The largest decimal exponent that a number string may spell, as in "1e100"
# or "2.5E-3", and the most digits of a number literal; Fraction would take
# seconds to build "1e10000000".  At both caps a letter has at most 200 digits
# over 100, so the nine letters of a product that the weight budget admits stay
# within the 4300 digits that Python prints of an int; a stable pairing may not.
MAX_EXPONENT = 100
MAX_DIGITS = 100


def check_number(value: str | int) -> None:
    """A TractabilityError when the number literal `value` (a JSON integer, or
    a string of digits, signs, points, "/", "_" and spaces before any
    exponent) has more than MAX_DIGITS digits on a side of its "/", or ends in
    a decimal exponent past MAX_EXPONENT after a digit or a point; anything
    else, number or not, is left to Fraction."""
    mantissa, e, exponent = str(value).lower().rpartition("e")
    exponent = exponent.strip()
    digits = exponent[1:] if exponent[:1] in ("+", "-") else exponent
    digits = digits.replace("_", "").lstrip("0")
    after_number = mantissa[-1:].isdecimal() or mantissa.endswith(".")
    if after_number and digits.isdecimal() and (len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT):
        shown = digits if len(digits) <= 20 else f"a {len(digits)}-digit number"
        raise TractabilityError(f"the size of a decimal exponent is capped at {MAX_EXPONENT}: got {shown}")
    number = mantissa if e else exponent
    numeric = len(number) > MAX_DIGITS and all(c.isdecimal() or c in "+-./_" or c.isspace() for c in number)
    longest = max(sum(map(str.isdecimal, side)) for side in number.split("/")) if numeric else 0
    if longest > MAX_DIGITS:
        raise TractabilityError(f"a number literal is capped at {MAX_DIGITS} digits: got {longest}")


def _monomial_sort_key(mono: Monomial) -> tuple[int, Monomial]:
    return (sum(e for _, e in mono), mono)


class Scalar:
    """Immutable exact polynomial; supports +, -, * and **."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Coefficient] = ()):
        clean: dict[Monomial, Coefficient] = {}
        for mono, coeff in dict(terms).items():
            coeff = Fraction(coeff)
            if coeff:
                clean[mono] = coeff.numerator if coeff.denominator == 1 else coeff
        self._terms = clean

    @classmethod
    def _trusted(cls, terms: dict[Monomial, Coefficient]) -> "Scalar":
        """Wrap `terms` without checking it: every coefficient nonzero, an
        int or a Fraction with denominator > 1.  Only for the ring
        operations of this module, whose results are canonical."""
        self = object.__new__(cls)
        self._terms = terms
        return self

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Scalar":
        return _ZERO

    @classmethod
    def one(cls) -> "Scalar":
        return _ONE

    @classmethod
    def from_rational(cls, value: Union[int, Fraction]) -> "Scalar":
        if type(value) is not int:  # a Fraction, or anything Fraction() accepts
            value = Fraction(value)
            if value.denominator == 1:
                value = value.numerator
        return cls._trusted({(): value} if value else {})

    @classmethod
    def variable(cls, name: str) -> "Scalar":
        if not name:
            raise ValueError("indeterminate name must be nonempty")
        return cls._trusted({((name, 1),): 1})

    # -- ring structure -----------------------------------------------

    def __add__(self, other: ScalarLike) -> "Scalar":
        if type(other) is not Scalar:
            other = coerce_scalar(other)
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            acc = terms.get(mono)
            if acc is None:
                terms[mono] = coeff
                continue
            acc += coeff
            if not acc:
                del terms[mono]
            else:  # an integral Fraction goes back to int
                terms[mono] = acc if type(acc) is int or acc.denominator != 1 else acc.numerator
        return Scalar._trusted(terms)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar._trusted({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: ScalarLike) -> "Scalar":
        return self + (-coerce_scalar(other))

    def __mul__(self, other: ScalarLike) -> "Scalar":
        if type(other) is not Scalar:
            other = coerce_scalar(other)
        one, rest = (other._terms, self._terms) if len(other._terms) == 1 else (self._terms, other._terms)
        if len(one) == 1:
            # times one term: m -> m0 m is injective, and a product of nonzero
            # coefficients is nonzero, so no two terms meet and none cancels
            ((m0, c0),) = one.items()
            terms = {}
            for m, c in rest.items():
                c *= c0
                terms[_merge_monomials(m0, m) if m0 and m else m0 or m] = (
                    c if type(c) is int or c.denominator != 1 else c.numerator
                )
            return Scalar._trusted(terms)
        return Scalar._trusted(_add_product({}, self._terms, other._terms))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Scalar":
        if exponent < 0:
            raise ValueError("negative powers are not ring operations")
        result = _ONE
        for _ in range(exponent):
            result = result * self
        return result

    # -- structure and comparison -------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if type(other) is Scalar:  # the common case, before Fraction's ABC check
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            other = coerce_scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def indeterminates(self) -> frozenset[str]:
        return frozenset(name for mono in self._terms for name, _ in mono)

    def terms(self) -> Iterator[tuple[Monomial, Coefficient]]:
        return iter(sorted(self._terms.items(), key=lambda t: _monomial_sort_key(t[0])))

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mono, coeff in self.terms():
            factors = [f"{n}^{e}" if e > 1 else n for n, e in mono]
            if not factors:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append("*".join(factors))
            elif coeff == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append("*".join([str(coeff)] + factors))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


_F0 = Fraction(0)
_ZERO = Scalar._trusted({})
_ONE = Scalar._trusted({(): 1})


def _merge_monomials(a: Monomial, b: Monomial) -> Monomial:
    """The product of two nonempty monomials."""
    if a[-1][0] < b[0][0]:  # every name of a sorts before every name of b
        return a + b
    if b[-1][0] < a[0][0]:
        return b + a
    exps: dict[str, int] = dict(a)
    for name, e in b:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


def _add_product(terms: dict, a: Mapping, b: Mapping, negate: bool = False) -> dict:
    """Add a*b, or -(a*b) when `negate`, to the monomial dict `terms` in
    place and return it; a and b are the term dicts of two Scalars, and
    neither is `terms`.  The result stays canonical: an integral Fraction
    is stored as an int, and an entry that cancels is dropped."""
    get = terms.get
    for m1, c1 in a.items():
        if negate:
            c1 = -c1
        for m2, c2 in b.items():
            mono = _merge_monomials(m1, m2) if m1 and m2 else m1 or m2
            acc = get(mono)
            acc = c1 * c2 if acc is None else acc + c1 * c2
            if not acc:
                del terms[mono]
            else:
                terms[mono] = acc if type(acc) is int or acc.denominator != 1 else acc.numerator
    return terms


def _dot(triples: Iterable[tuple[Scalar, Scalar, bool]]) -> Scalar:
    """The sum of a*b, or -(a*b) where negate is set, over the (a, b,
    negate) of `triples`, in one dict: the Scalar ring's dot for `_laplace`."""
    terms: dict[Monomial, Coefficient] = {}
    for a, b, negate in triples:
        _add_product(terms, a._terms, b._terms, negate)
    return Scalar._trusted(terms)


def coerce_scalar(value: ScalarLike) -> Scalar:
    if type(value) is Scalar or isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar.from_rational(value)
    raise TypeError(f"cannot interpret {value!r} as a Scalar")


def collect(pairs: Iterable[tuple]) -> dict:
    """Sum the coefficients of equal keys as Scalars, keeping keys in
    order of first appearance and dropping every key whose sum is zero.
    The summation rule of the SymFunc and FockVector constructors, of
    their + and of a_m; fock's strip step applies it in place."""
    out: dict = {}
    for key, coeff in pairs:
        if type(coeff) is not Scalar:
            coeff = coerce_scalar(coeff)
        acc = out.get(key)
        if acc is not None:
            coeff = acc + coeff
        if coeff:
            out[key] = coeff
        elif acc is not None:
            del out[key]
    return out


def _laplace(cols: tuple, entry, memo: dict, dot):
    """The minor over rows 1..k = len(cols) and the columns keyed `cols`,
    expanded along row k: the ring's signed sum of products `dot` of the
    triples (entry(k, cols[p]), the minor without column p, negate when
    k - p is even) over the p where both are nonzero, its zero for none.
    The minors over rows 1..k - 1 are what determinants of one `memo`
    share, and the caller picks which of its rows is row k, the one each
    determinant is expanded along (`supersym._jt`).  `memo` maps key tuples
    to minors and holds the ring's one at (); it is read before each
    recursion."""
    minor = memo.get(cols)
    if minor is not None:
        return minor
    if len(cols) == 1:  # the entry itself, not a product with one
        return entry(1, cols[0])
    k, triples = len(cols), []
    for p, key in enumerate(cols):
        e = entry(k, key)
        if e:
            rest = cols[:p] + cols[p + 1 :]
            minor = memo.get(rest)
            if minor is None:
                minor = _laplace(rest, entry, memo, dot)
            if minor:
                triples.append((e, minor, not (k - p) % 2))
    memo[cols] = minor = dot(triples)
    return minor


def det_over_ring(rows: Sequence[Sequence]) -> Scalar:
    """Determinant of a square matrix of Scalars, division-free, by
    `_laplace` over all columns: O(2^n * n) ring operations."""
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise DimensionError(f"matrix is not square: {n} rows, a row of width {len(row)}")
    return _laplace(tuple(range(n)), lambda i, j: rows[i - 1][j], {(): _ONE}, _dot)


# -- serialization ----------------------------------------------------


def scalar_to_json(p: Scalar) -> list[dict]:
    """List of {"coefficient": "p/q", "monomial": {name: exp}} in graded lex
    order; a TractabilityError when a coefficient has more digits than
    Python converts from an int to a string (sys.get_int_max_str_digits)."""
    try:
        return [
            {"coefficient": str(coeff), "monomial": {name: e for name, e in mono}}
            for mono, coeff in p.terms()
        ]
    except ValueError:  # only str() of an int past the digit limit raises here
        limit = sys.get_int_max_str_digits()
        raise TractabilityError(
            f"a coefficient of the answer has more than the {limit} digits that Python prints of an integer"
        ) from None


def _json_object(obj, keys: set, what: str) -> Mapping:
    """`obj`: a TypeError unless it is an object, a ValueError for a key outside `keys`."""
    if not isinstance(obj, Mapping):
        raise TypeError(f"{what} must be an object: {obj!r}")
    unknown = obj.keys() - keys
    if unknown:
        raise ValueError(f"{what} does not read {', '.join(sorted(map(repr, unknown)))}")
    return obj


def scalar_from_json(data: Iterable[Mapping]) -> Scalar:
    """The inverse of scalar_to_json; a term reads `coefficient` and `monomial`, and no other key."""
    terms: dict[Monomial, Fraction] = {}
    for item in data:
        _json_object(item, {"coefficient", "monomial"}, "a serialized term")
        coeff = item["coefficient"]
        if isinstance(coeff, bool) or not isinstance(coeff, (str, int)):
            raise ValueError(f"a coefficient is a string or an integer: {coeff!r}")
        check_number(coeff)
        try:
            coeff = Fraction(coeff)
        except ZeroDivisionError as e:
            raise ValueError(f"zero denominator in coefficient {coeff!r}") from e
        mono_map = item.get("monomial", {})
        if not isinstance(mono_map, Mapping):
            raise TypeError(f"a monomial must map names to exponents: {mono_map!r}")
        for name, e in mono_map.items():
            if not isinstance(name, str) or not name:
                raise ValueError("monomial names must be nonempty strings")
            if isinstance(e, bool) or not isinstance(e, int) or e <= 0:
                raise ValueError(f"serialized exponents must be positive integers: {e!r}")
        mono = tuple(sorted(mono_map.items()))
        terms[mono] = terms.get(mono, _F0) + coeff
    return Scalar(terms)
