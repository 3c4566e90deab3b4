import json
import sys
import time
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from multischur.exactalg import (
    MAX_EXPONENT,
    DimensionError,
    Scalar,
    TractabilityError,
    _add_product,
    _dot,
    _merge_monomials,
    coerce_scalar,
    collect,
    det_over_ring,
    scalar_from_json,
    scalar_to_json,
)
from oracles import scalar_eval, variables

x, y, z = variables("x y z")


@st.composite
def scalars(draw):
    names = ["x", "y", "z"]
    n = draw(st.integers(min_value=0, max_value=4))
    total = Scalar.zero()
    for _ in range(n):
        c = Fraction(
            draw(st.integers(min_value=-6, max_value=6)),
            draw(st.integers(min_value=1, max_value=4)),
        )
        term = Scalar.from_rational(c)
        for name in draw(st.lists(st.sampled_from(names), max_size=3)):
            term = term * Scalar.variable(name)
        total = total + term
    return total


def test_constructors():
    assert Scalar.zero() == Scalar.from_rational(0)
    assert Scalar.one() == Scalar.from_rational(1)
    assert not Scalar.zero()
    assert Scalar.one()
    assert Scalar.from_rational(Fraction(2, 4)) == Scalar.from_rational(Fraction(1, 2))
    assert Scalar.variable("x") == x


def test_arithmetic_basics():
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + 1) ** 3 == x**3 + 3 * x**2 + 3 * x + 1
    assert x - x == Scalar.zero()
    assert 2 * x == x + x
    assert x * Fraction(1, 2) + Fraction(1, 2) * x == x
    assert -(-x) == x


def test_power_validation():
    with pytest.raises(ValueError):
        x ** (-1)
    assert x**0 == Scalar.one()


@given(scalars(), scalars(), scalars())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a + Scalar.zero() == a
    assert a * Scalar.one() == a
    assert a * Scalar.zero() == Scalar.zero()


@given(scalars())
@settings(max_examples=40, deadline=None)
def test_json_round_trip(a):
    assert scalar_from_json(scalar_to_json(a)) == a


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="this Python prints integers of any length")
def test_json_refuses_a_coefficient_past_the_print_limit():
    limit = sys.get_int_max_str_digits()
    for big in (10**limit, Fraction(1, 10**limit), -(10**limit)):
        with pytest.raises(TractabilityError, match=f"more than the {limit} digits"):
            scalar_to_json(Scalar.from_rational(big) * x + Scalar.one())
    assert scalar_to_json(Scalar.from_rational(10 ** (limit - 1))) == [{"coefficient": "1" + "0" * (limit - 1), "monomial": {}}]


def test_equality_reads_scalars_and_rationals_only():
    a = x + Fraction(1, 2)
    assert a == x + Fraction(1, 2) and a != x and a != Scalar.zero()
    assert Scalar.from_rational(3) == 3 == Scalar.from_rational(3) and Scalar.from_rational(Fraction(1, 2)) == Fraction(1, 2)
    assert Scalar.zero() == 0 and Scalar.one() != 2 and a != 1
    for other in ("x", 0.5, None, [1]):
        assert a.__eq__(other) is NotImplemented
        assert a != other
    assert Scalar.__eq__(Scalar.one(), True)  # bool is an int


def test_json_term_order_is_graded():
    p = x**2 + y + x * y * z + Scalar.one()
    degrees = [sum(t["monomial"].values()) for t in scalar_to_json(p)]
    assert degrees == sorted(degrees)


def test_json_rejects_bad_exponent():
    with pytest.raises(ValueError):
        scalar_from_json([{"coefficient": "1", "monomial": {"x": 0}}])


def test_json_rejects_non_integer_exponent():
    # 1.5 used to be truncated to 1 by int()
    for e in (1.5, 2.0, True, "2", None):
        with pytest.raises(ValueError):
            scalar_from_json([{"coefficient": "1", "monomial": {"x": e}}])
    with pytest.raises(TypeError):
        scalar_from_json([{"coefficient": "1", "monomial": [["x", 1]]}])
    assert scalar_from_json([{"coefficient": "3/4", "monomial": {"x": 2}}]) == x**2 * Fraction(3, 4)


def test_json_rejects_zero_denominator():
    with pytest.raises(ValueError):
        scalar_from_json([{"coefficient": "1/0", "monomial": {"x": 1}}])


def test_json_coefficient_is_a_string_or_an_integer():
    # a JSON float arrives rounded: 1e-400 parses as 0.0, and would give the zero scalar
    for coefficient in ("1.5", "2.0", "1e-400", "true"):
        with pytest.raises(ValueError):
            scalar_from_json(json.loads('[{"coefficient": %s, "monomial": {"x": 1}}]' % coefficient))
    assert scalar_from_json([{"coefficient": -3, "monomial": {"x": 1}}]) == x * -3
    assert scalar_from_json([{"coefficient": "1e-2", "monomial": {}}]) == Scalar.from_rational(Fraction(1, 100))


def test_json_refuses_an_exponent_past_the_cap_before_building_it():
    t0 = time.perf_counter()
    for text in ("1e10000000", "1E-10000000", " -2.5e+1_000_000 ", f"1e{MAX_EXPONENT + 1}", "1e" + "9" * 5000):
        with pytest.raises(TractabilityError, match="decimal exponent is capped"):
            scalar_from_json([{"coefficient": text, "monomial": {"x": 1}}])
    assert time.perf_counter() - t0 < 0.5
    assert scalar_from_json([{"coefficient": "1e3", "monomial": {}}]) == Scalar.from_rational(1000)
    assert scalar_from_json([{"coefficient": "3/4", "monomial": {}}]) == Scalar.from_rational(Fraction(3, 4))
    assert scalar_from_json([{"coefficient": "123456789012", "monomial": {}}]) == Scalar.from_rational(123456789012)
    at_cap = scalar_from_json([{"coefficient": f"1E-{MAX_EXPONENT}", "monomial": {}}])
    assert at_cap == Scalar.from_rational(Fraction(1, 10**MAX_EXPONENT))


def test_json_rejects_unknown_term_keys():
    # a misspelled `monomial` once read as the constant term
    for term in ({"coefficient": "2", "monomal": {"x": 1}}, {"coefficient": "1", "monomial": {}, "junk": 0}):
        with pytest.raises(ValueError, match="does not read"):
            scalar_from_json([term])
    with pytest.raises(TypeError):
        scalar_from_json(["x"])
    assert scalar_from_json([{"coefficient": "2"}]) == Scalar.from_rational(2)


def test_collect_sums_equal_keys_and_drops_zeros():
    got = collect([("b", x), ("a", 1), ("c", 0), ("b", x), ("a", -1), ("d", y), ("d", -y), ("d", z)])
    assert got == {"b": 2 * x, "d": z}
    assert list(got) == ["b", "d"]
    assert collect([]) == {}


def test_eval_exact():
    p = (x + y) ** 2
    assert scalar_eval(p, {"x": Fraction(1, 2), "y": Fraction(3)}) == Fraction(49, 4)
    with pytest.raises(KeyError, match="y"):
        scalar_eval(p, {"x": Fraction(1)})


def test_indeterminates():
    assert (x**2 * y + z).indeterminates() == {"x", "y", "z"}
    assert Scalar.from_rational(5).indeterminates() == frozenset()


def _perm_det(rows):
    n = len(rows)
    total = Scalar.zero()
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Scalar.from_rational(sign)
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


@given(st.integers(min_value=0, max_value=4), st.data())
@settings(max_examples=25, deadline=None)
def test_det_matches_permutation_sum(n, data):
    rows = [[data.draw(scalars()) for _ in range(n)] for _ in range(n)]
    assert det_over_ring(rows) == _perm_det(rows)
    # dense integer matrices at n = 5 and 6: no entry is zero, so every
    # Laplace term of every minor counts
    entry = st.integers(min_value=-9, max_value=9).filter(bool).map(Scalar.from_rational)
    for n in (5, 6):
        rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
        assert det_over_ring(rows) == _perm_det(rows)


def test_det_identity_and_swap():
    one, zero = Scalar.one(), Scalar.zero()
    assert det_over_ring([[one, zero], [zero, one]]) == one
    assert det_over_ring([[zero, one], [one, zero]]) == -one
    assert det_over_ring([]) == one


def test_det_rejects_ragged():
    with pytest.raises(DimensionError):
        det_over_ring([[x, y], [x]])


def test_det_commutes_with_eval():
    rows = [[x, y + 1], [z, x * y]]
    env = {"x": Fraction(2), "y": Fraction(-1, 3), "z": Fraction(5)}
    direct = scalar_eval(det_over_ring(rows), env)
    pointwise = [[scalar_eval(e, env) for e in row] for row in rows]
    numeric = pointwise[0][0] * pointwise[1][1] - pointwise[0][1] * pointwise[1][0]
    assert direct == numeric


def test_repr_is_stable():
    assert repr(x + y) == repr(y + x)
    assert repr((x + y) ** 2) == "2*x*y + x^2 + y^2"


# -- the integer-first core against a Fraction-only oracle ------------

_F0 = Fraction(0)
_HALVES = [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(1, 3), Fraction(2, 3)]


def _oracle_merge(m1, m2):
    exps = dict(m1)
    for name, e in m2:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


def _oracle_add(a, b):
    out = dict(a)
    for mono, c in b.items():
        out[mono] = out.get(mono, _F0) + c
    return {mono: c for mono, c in out.items() if c}


def _oracle_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = _oracle_merge(m1, m2)
            out[mono] = out.get(mono, _F0) + c1 * c2
    return {mono: c for mono, c in out.items() if c}


def _oracle_eval(a, env):
    total = _F0
    for mono, c in a.items():
        for name, e in mono:
            c *= env[name] ** e
        total += c
    return total


def _canonical(p: Scalar) -> dict:
    """The terms of p as Fractions, after checking the stored form: every
    coefficient nonzero, an int, or a Fraction with denominator > 1."""
    for c in p._terms.values():
        assert c
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)
    return {mono: Fraction(c) for mono, c in p._terms.items()}


@st.composite
def oracle_pairs(draw):
    """A Scalar built from singleton terms with +, and the same polynomial
    as a dict of Fractions; the coefficients are often halves and thirds,
    whose sums and products come out integral."""
    coeff = st.one_of(st.sampled_from(_HALVES), st.integers(-3, 3).map(Fraction))
    mono = st.lists(st.sampled_from(["x", "y", "z"]), max_size=3).map(
        lambda names: _oracle_merge((), [(n, 1) for n in names])
    )
    pairs = draw(st.lists(st.tuples(mono, coeff), max_size=5))
    p, oracle = Scalar.zero(), {}
    for m, c in pairs:
        p = p + Scalar({m: c})
        oracle = _oracle_add(oracle, {m: c} if c else {})
    return p, oracle


@example((Scalar({(): Fraction(1, 2)}), {(): Fraction(1, 2)}), (Scalar({(): Fraction(1, 2)}), {(): Fraction(1, 2)}))
@example(
    (Scalar({(("x", 1),): Fraction(3, 2)}), {(("x", 1),): Fraction(3, 2)}),
    (Scalar({(): Fraction(2, 3)}), {(): Fraction(2, 3)}),
)
@given(oracle_pairs(), oracle_pairs())
@settings(max_examples=100, deadline=None)
def test_ring_operations_match_fraction_oracle(pa, pb):
    (a, oa), (b, ob) = pa, pb
    assert _canonical(a) == oa
    assert _canonical(b) == ob
    assert _canonical(a + b) == _oracle_add(oa, ob)
    assert _canonical(a - b) == _oracle_add(oa, {m: -c for m, c in ob.items()})
    assert _canonical(-a) == {m: -c for m, c in oa.items()}
    assert _canonical(a * b) == _oracle_mul(oa, ob)
    power = {(): Fraction(1)}
    for k in range(4):
        assert _canonical(a**k) == power
        power = _oracle_mul(power, oa)
    env = {"x": Fraction(1, 2), "y": Fraction(-3), "z": Fraction(2, 3)}
    assert scalar_eval(a * b, env) == _oracle_eval(_oracle_mul(oa, ob), env)
    assert scalar_eval(a + b, env) == _oracle_eval(_oracle_add(oa, ob), env)


def test_canonical_form_stores_integers_as_int():
    half = Scalar.from_rational(Fraction(1, 2))
    assert (half + half)._terms == {(): 1}
    assert type((half + half)._terms[()]) is int
    assert type((2 * half)._terms[()]) is int
    assert type((half * x + x * half)._terms[(("x", 1),)]) is int
    # products with a one-term factor, on either side
    two_thirds, three_halves = Scalar.from_rational(Fraction(2, 3)), Scalar.from_rational(Fraction(3, 2))
    assert type((two_thirds * three_halves)._terms[()]) is int
    assert (-two_thirds * (three_halves * x))._terms == {(("x", 1),): -1}
    assert type((-two_thirds * (three_halves * x))._terms[(("x", 1),)]) is int
    assert ((3 * x + y) * two_thirds)._terms == {(("x", 1),): 2, (("y", 1),): Fraction(2, 3)}
    assert type(((3 * x + y) * two_thirds)._terms[(("x", 1),)]) is int
    three = Scalar({(): Fraction(3)})
    assert type(three._terms[()]) is int
    assert three == Scalar.from_rational(3)
    assert hash(three) == hash(Scalar.from_rational(3))
    assert Scalar({(): Fraction(6, 2), (("x", 1),): 0}) == Scalar.from_rational(3)
    assert Scalar({(): "1/2"}) == half
    assert Scalar.from_rational(Fraction(4, 2))._terms == {(): 2}
    assert not Scalar.from_rational(Fraction(0, 5))._terms
    assert coerce_scalar(True) == Scalar.one()
    assert type(coerce_scalar(True)._terms[()]) is int
    with pytest.raises(ValueError):
        Scalar({(): "not a number"})
    with pytest.raises(TypeError):
        Scalar({(): object()})


def test_rational_results_are_fractions():
    for p in (Scalar.zero(), Scalar.from_rational(3), Scalar.from_rational(Fraction(1, 2))):
        assert type(scalar_eval(p, {})) is Fraction
    assert type(scalar_eval(2 * x, {"x": 3})) is Fraction
    assert scalar_eval(2 * x, {"x": 3}) == 6


_NAMES = st.sampled_from(["a", "x", "x1", "x10", "x2", "y", "z"])
_MONOMIALS = st.dictionaries(_NAMES, st.integers(1, 3), max_size=4).map(lambda exps: tuple(sorted(exps.items())))
_COEFFS = st.one_of(st.sampled_from(_HALVES), st.integers(-3, 3).filter(bool).map(Fraction))


@example((("x", 1),), (("y", 2), ("z", 1)))  # every name of a before every name of b
@example((("y", 2), ("z", 1)), (("x", 1),))  # and after
@example((("x", 1), ("z", 1)), (("y", 1),))  # interleaved
@example((("x", 1), ("y", 1)), (("y", 2), ("z", 3)))  # overlapping
@example((("x", 1),), (("x", 2),))
@example((("x10", 1),), (("x2", 1),))  # plain string order: "x10" < "x2"
@given(_MONOMIALS.filter(bool), _MONOMIALS.filter(bool))
@settings(max_examples=200, deadline=None)
def test_merge_monomials_matches_dict_sum_oracle(a, b):
    assert _merge_monomials(a, b) == _merge_monomials(b, a) == _oracle_merge(a, b)


@example(((), Fraction(2, 3)), (Scalar({(("x", 1),): Fraction(3, 2)}), {(("x", 1),): Fraction(3, 2)}))
@example(((), Fraction(-2, 3)), (Scalar({(): Fraction(-3, 2), (("y", 1),): 3}), {(): Fraction(-3, 2), (("y", 1),): 3}))
@example(((("x", 1),), Fraction(1)), (Scalar.zero(), {}))
@given(st.tuples(_MONOMIALS, _COEFFS), oracle_pairs())
@settings(max_examples=150, deadline=None)
def test_one_term_products_match_term_by_term_oracle(term, pb):
    """A one-term factor on either side: every term of the other factor is
    multiplied by it, and each product lands on its own monomial."""
    (m0, c0), (b, ob) = term, pb
    one = Scalar({m0: c0})
    want = {_oracle_merge(m0, m): c0 * c for m, c in ob.items()}
    for got in (one * b, b * one):
        assert _canonical(got) == want
        assert list(got._terms) == list(want)  # in the order of the other factor, like the general product
    assert _canonical(one * one) == {_oracle_merge(m0, m0): c0 * c0}
    assert one * Scalar.zero() == Scalar.zero() * one == Scalar.zero()


@example([])
@given(st.lists(st.tuples(oracle_pairs(), oracle_pairs(), st.booleans()), max_size=4))
@settings(max_examples=100, deadline=None)
def test_add_product_sums_signed_products_like_the_fraction_oracle(triples):
    """Each call adds a*b, or -(a*b) with negate set, to one dict in place;
    after every call the dict is the canonical sum so far."""
    terms, want = {}, {}
    for (a, oa), (b, ob), negate in triples:
        assert _add_product(terms, a._terms, b._terms, negate) is terms
        product = _oracle_mul(oa, ob)
        want = _oracle_add(want, {m: -c for m, c in product.items()} if negate else product)
        assert _canonical(Scalar._trusted(dict(terms))) == want
    assert _canonical(_dot((a, b, negate) for (a, _), (b, _), negate in triples)) == want


def test_add_product_drops_what_cancels_and_stores_integral_fractions_as_int():
    p, q = x * y + z * Fraction(1, 2), x + 1
    terms = _add_product({}, p._terms, q._terms)
    assert _add_product(terms, q._terms, p._terms, True) == {}
    assert _dot([(p, q, False), (q, p, True)]) == Scalar.zero()
    # (2/3 x + y) (3/2 x): 2/3 * 3/2 is stored as the int 1
    terms = _add_product({}, (Fraction(2, 3) * x + y)._terms, (Fraction(3, 2) * x)._terms)
    assert terms == {(("x", 2),): 1, (("x", 1), ("y", 1)): Fraction(3, 2)}
    assert type(terms[(("x", 2),)]) is int
    # 1/2 x + 1/2 x: a sum that turns integral is an int too
    half = Scalar.from_rational(Fraction(1, 2))
    terms = _add_product({(("x", 1),): Fraction(1, 2)}, half._terms, x._terms)
    assert terms == {(("x", 1),): 1} and type(terms[(("x", 1),)]) is int
