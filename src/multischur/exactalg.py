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

Term order.  Names are ordered by plain string comparison; that order is
fixed across the package.  Serialized terms are listed in graded
lexicographic order: ascending total degree, ties broken by comparing the
monomial pair tuples.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

Monomial = tuple[tuple[str, int], ...]
Coefficient = Union[int, Fraction]
ScalarLike = Union["Scalar", int, Fraction]


class DimensionError(ValueError):
    """A matrix does not have the shape an operation requires."""


class UnboundIndeterminateError(ValueError):
    """An evaluation assignment is missing an indeterminate."""


def _monomial_sort_key(mono: Monomial) -> tuple[int, Monomial]:
    return (sum(e for _, e in mono), mono)


class Scalar:
    """Immutable exact polynomial; supports +, -, *, ** and evaluation."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, Coefficient] = ()):
        clean: dict[Monomial, Coefficient] = {}
        for mono, coeff in dict(terms).items():
            coeff = Fraction(coeff)
            if coeff:
                clean[mono] = coeff.numerator if coeff.denominator == 1 else coeff
        self._terms = clean
        self._hash: int | None = None

    @classmethod
    def _trusted(cls, terms: dict[Monomial, Coefficient]) -> "Scalar":
        """Wrap `terms` without checking it: every coefficient nonzero, an
        int or a Fraction with denominator > 1.  Only for the ring
        operations of this module, whose results are canonical."""
        self = object.__new__(cls)
        self._terms = terms
        self._hash = None
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

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        return coerce_scalar(other) + (-self)

    def __mul__(self, other: ScalarLike) -> "Scalar":
        other = coerce_scalar(other)
        terms: dict[Monomial, Coefficient] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = _merge_monomials(m1, m2) if m1 and m2 else m1 or m2
                acc = terms.get(mono)
                acc = c1 * c2 if acc is None else acc + c1 * c2
                if not acc:
                    del terms[mono]
                else:
                    terms[mono] = acc if type(acc) is int or acc.denominator != 1 else acc.numerator
        return Scalar._trusted(terms)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        # division only by nonzero rationals; the ring has no inverses
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other == 0:
            raise ZeroDivisionError("scalar division by zero")
        return self * (Fraction(1) / other)

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
        if isinstance(other, (int, Fraction)):
            other = coerce_scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def degree(self) -> int:
        """Total degree; 0 for constants including zero."""
        if not self._terms:
            return 0
        return max(sum(e for _, e in mono) for mono in self._terms)

    def indeterminates(self) -> frozenset[str]:
        return frozenset(name for mono in self._terms for name, _ in mono)

    def is_constant(self) -> bool:
        return all(mono == () for mono in self._terms)

    def as_rational(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self!r}")
        return Fraction(self._terms.get((), 0))

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
    exps: dict[str, int] = dict(a)
    for name, e in b:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


def coerce_scalar(value: ScalarLike) -> Scalar:
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar.from_rational(value)
    raise TypeError(f"cannot interpret {value!r} as a Scalar")


def collect(pairs: Iterable[tuple]) -> dict:
    """Sum the coefficients of equal keys as Scalars, keeping keys in
    order of first appearance and dropping every key whose sum is zero.
    The one summation rule of every sparse combination: SymFunc and
    FockVector."""
    out: dict = {}
    for key, coeff in pairs:
        coeff = coerce_scalar(coeff)
        acc = out.get(key)
        if acc is not None:
            coeff = acc + coeff
        if coeff:
            out[key] = coeff
        elif acc is not None:
            del out[key]
    return out


def variables(names: Union[str, Iterable[str]]) -> tuple[Scalar, ...]:
    """Scalar indeterminates from a space separated string or an iterable."""
    if isinstance(names, str):
        names = names.split()
    return tuple(Scalar.variable(n) for n in names)


def scalar_eval(p: Scalar, assignment: Mapping[str, Union[int, Fraction]]) -> Fraction:
    """Evaluate at a full rational assignment.

    Every indeterminate occurring in p must be bound, otherwise
    UnboundIndeterminateError is raised.
    """
    total = _F0
    for mono, coeff in p._terms.items():
        value = coeff
        for name, e in mono:
            if name not in assignment:
                raise UnboundIndeterminateError(f"no value assigned to {name!r}")
            value *= Fraction(assignment[name]) ** e
        total += value
    return total


def _laplace(cols: tuple, entry, memo: dict, zero):
    """The minor over rows 1..k = len(cols) and the columns keyed `cols`,
    expanded along row k: the sum over positions p of
    (-1)^(k-1-p) entry(k, cols[p]) times the minor without column p.
    `memo` maps key tuples to minors and holds the ring's one at ()."""
    if cols in memo:
        return memo[cols]
    if len(cols) == 1:  # the entry itself, not a product with one
        return entry(1, cols[0])
    k, minor = len(cols), None
    for p, key in enumerate(cols):
        e = entry(k, key)
        sub = e and _laplace(cols[:p] + cols[p + 1 :], entry, memo, zero)
        if sub:
            term = e * sub if (k - p) % 2 else -(e * sub)
            # the first term is kept as is: zero + term would copy it
            minor = term if minor is None else minor + term
    memo[cols] = minor = zero if minor is None else minor
    return minor


def det_over_ring(rows: Sequence[Sequence]) -> Scalar:
    """Determinant of a square matrix of Scalars, division-free, by
    `_laplace` over all columns: O(2^n * n) ring operations."""
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise DimensionError(f"matrix is not square: {n} rows, a row of width {len(row)}")
    return _laplace(tuple(range(n)), lambda i, j: rows[i - 1][j], {(): _ONE}, _ZERO)


# -- serialization ----------------------------------------------------


def scalar_to_json(p: Scalar) -> list[dict]:
    """List of {"coefficient": "p/q", "monomial": {name: exp}} in graded lex order."""
    return [
        {"coefficient": str(coeff), "monomial": {name: e for name, e in mono}}
        for mono, coeff in p.terms()
    ]


def scalar_from_json(data: Iterable[Mapping]) -> Scalar:
    terms: dict[Monomial, Fraction] = {}
    for item in data:
        try:
            coeff = Fraction(str(item["coefficient"]))
        except ZeroDivisionError as e:
            raise ValueError(f"zero denominator in coefficient {item['coefficient']!r}") from e
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
