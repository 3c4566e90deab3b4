from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from multischur.exactalg import Scalar
from multischur.shapes import Partition
from multischur.supersym import _at, h_series, supersym_schur
from oracles import p_power, variables

x1, x2, x3 = variables("x1 x2 x3")
y1, y2 = variables("y1 y2")


def test_h_complete_small():
    assert h_series(2, (x1, x2)) == [Scalar.one(), x1 + x2, x1**2 + x1 * x2 + x2**2]
    assert h_series(2, ())[2] == Scalar.zero()
    assert h_series(-1, (x1,)) == []
    assert _at(h_series(-1, (x1,)), -1) == Scalar.zero()


def test_e_elem_small():
    # e_n(x) = h_n(()/-x)
    e = h_series(3, (), (-x1, -x2))
    assert e == [Scalar.one(), x1 + x2, x1 * x2, Scalar.zero()]


def test_h_is_symmetric_in_the_alphabet():
    assert h_series(3, (x1, x2, x3)) == h_series(3, (x3, x1, x2))
    assert h_series(2, (), (-x1, -x2, -x3)) == h_series(2, (), (-x2, -x3, -x1))


@given(st.integers(min_value=0, max_value=5))
@settings(max_examples=12, deadline=None)
def test_h_one_letter_recurrence(n):
    # h_n(a, b) = h_n(a) + b h_{n-1}(a, b)
    a = (x1, x2)
    ab = (x1, x2, x3)
    assert h_series(n, ab)[n] == h_series(n, a)[n] + x3 * _at(h_series(n, ab), n - 1)


def test_h_super_reduces_to_h_and_e():
    assert h_series(2, (x1, x2), ()) == h_series(2, (x1, x2))
    # h_n(0/y) = e_n(-y)
    assert h_series(2, (), (y1, y2)) == [Scalar.one(), -(y1 + y2), y1 * y2]


def test_h_super_signs():
    # h_i(x/y) = sum_k (-1)^k h_{i-k}(x) e_k(y)
    h = h_series(2, (x1, x2))
    assert h_series(2, (x1, x2), (y1,))[2] == h[2] - h[1] * y1
    assert h_series(0, (x1,), (y1,)) == [Scalar.one()]
    assert _at(h_series(-2, (x1,), (y1,)), -2) == Scalar.zero()


def test_h_super_cancellation():
    # a letter present on both sides drops out
    assert h_series(3, (x1, x2), (x2,)) == h_series(3, (x1,))


@given(st.integers(min_value=0, max_value=6))
@settings(max_examples=14, deadline=None)
def test_h_super_convolution(n):
    # splitting both alphabets splits h as a convolution
    left, right = h_series(n, (x1,), (y1,)), h_series(n, (x2,), (y2,))
    rhs = Scalar.zero()
    for i in range(n + 1):
        rhs = rhs + left[i] * right[n - i]
    assert h_series(n, (x1, x2), (y1, y2))[n] == rhs


def test_p_power():
    assert p_power(2, (x1, x2), (y1,)) == x1**2 + x2**2 - y1**2
    with pytest.raises(ValueError):
        p_power(0, (x1,), ())


def test_supersym_schur_single_row_and_column():
    assert supersym_schur(Partition((2,)), (x1, x2), ()) == h_series(2, (x1, x2))[2]
    assert supersym_schur(Partition((1, 1)), (x1, x2), ()) == x1 * x2
    assert supersym_schur(Partition(()), (x1,), (y1,)) == Scalar.one()


def test_supersym_schur_vanishing():
    # too many rows for a pure x alphabet
    assert supersym_schur(Partition((1, 1)), (x1,), ()) == Scalar.zero()
    assert supersym_schur(Partition((1, 1, 1)), (x1, x2), ()) == Scalar.zero()
    # but a y letter unlocks the extra row
    assert supersym_schur(Partition((1, 1)), (x1,), (y1,)) != Scalar.zero()


def test_supersym_schur_transpose_duality():
    for lam in [Partition((1,)), Partition((2,)), Partition((2, 1)), Partition((3, 1))]:
        sign = Scalar.from_rational((-1) ** lam.weight)
        lhs = supersym_schur(lam, (x1, x2), (y1,))
        rhs = sign * supersym_schur(lam.transpose(), (y1,), (x1, x2))
        assert lhs == rhs


# -- reference recurrences --------------------------------------------
#
# The recursions on the last letter that the complete, elementary and
# supersymmetric functions once used through process-wide caches, kept
# uncached as the oracle for the one-letter series.


def _h_ref(n, letters):
    if n == 0:
        return Scalar.one()
    if n < 0 or not letters:
        return Scalar.zero()
    # h_n(a, b) = h_n(a) + b * h_{n-1}(a, b)
    return _h_ref(n, letters[:-1]) + letters[-1] * _h_ref(n - 1, letters)


def _e_ref(n, letters):
    if n == 0:
        return Scalar.one()
    if n < 0 or n > len(letters):
        return Scalar.zero()
    # e_n(a, b) = e_n(a) + b * e_{n-1}(a)
    return _e_ref(n, letters[:-1]) + letters[-1] * _e_ref(n - 1, letters[:-1])


def _h_super_ref(n, x, y):
    total = Scalar.zero()
    for k in range(min(n, len(y)) + 1):
        term = _e_ref(k, y) * _h_ref(n - k, x)
        total = total - term if k % 2 else total + term
    return total


# shared symbols and numbers, so draws repeat letters within an alphabet
# and put one letter on both sides
ZERO, MINUS_ONE, HALF = Scalar.zero(), Scalar.from_rational(-1), Scalar.from_rational(Fraction(1, 2))
LETTERS = (x1, x2, y1, ZERO, MINUS_ONE, HALF)
alphabets = st.lists(st.sampled_from(LETTERS), max_size=4).map(tuple)


@given(st.integers(min_value=-2, max_value=6), alphabets, alphabets)
@example(4, (x1, x1, x2), (x1,))
@example(3, (ZERO, MINUS_ONE, HALF), (MINUS_ONE,))
@example(5, (), (y1, y1, x2))
@settings(max_examples=60, deadline=None)
def test_series_matches_reference_recurrences(n, x, y):
    assert h_series(n, x, y) == [_h_super_ref(k, x, y) for k in range(n + 1)]
    assert h_series(n, x) == [_h_ref(k, x) for k in range(n + 1)]
    assert _at(h_series(n, x, y), n) == _h_super_ref(n, x, y)
    # e_n(x) = h_n(()/-x)
    assert _at(h_series(n, (), [-u for u in x]), n) == _e_ref(n, x)
    assert _at(h_series(n, (), [-u for u in y]), n) == _e_ref(n, y)
