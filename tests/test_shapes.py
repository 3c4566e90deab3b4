import copy
import pickle
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from multischur import expansions, shapes
from multischur.shapes import (
    AlphabetSequence,
    Partition,
    empty_sequence,
    horizontal_strips,
    partitions_up_to_weight,
    prefix_sequence,
    refined_alphabet,
    refined_sequence,
    subpartitions,
    superpartitions,
)
from oracles import variables

t1, t2, t3 = variables("t1 t2 t3")
x1, x2 = variables("x1 x2")


@st.composite
def partitions(draw, max_weight=20):
    parts = []
    cap = draw(st.integers(min_value=1, max_value=8))
    remaining = draw(st.integers(min_value=0, max_value=max_weight))
    while remaining > 0:
        p = draw(st.integers(min_value=1, max_value=min(cap, remaining)))
        parts.append(p)
        cap = p
        remaining -= p
    return Partition(parts)


def test_partition_validation():
    assert Partition((3, 1)) == Partition([3, 1])
    assert Partition((2, 2, 0, 0)) == Partition((2, 2))
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_weight_length_part():
    lam = Partition((4, 2, 1))
    assert lam.weight == 7
    assert len(lam) == 3
    assert lam.part(1) == 4
    assert lam.part(5) == 0


def test_transpose_examples():
    assert Partition((3, 1)).transpose() == Partition((2, 1, 1))
    assert Partition(()).transpose() == Partition(())
    assert Partition((1, 1, 1)).transpose() == Partition((3,))


@given(partitions())
@settings(max_examples=80, deadline=None)
def test_transpose_involution(lam):
    assert lam.transpose().transpose() == lam
    assert lam.transpose().weight == lam.weight


def test_transpose_is_a_checked_partition():
    # built unchecked, so compared with the checked copy, which drops a trailing zero
    for lam in partitions_up_to_weight(12):
        conjugate = lam.transpose()
        assert type(conjugate) is Partition and conjugate == Partition(tuple(conjugate)), lam
        assert conjugate.transpose() == lam


def test_contains_partial_order():
    # lam.contains(mu) asks whether mu fits inside lam
    assert Partition((3, 2)).contains(Partition((2, 2)))
    assert Partition((2, 1)).contains(Partition((1, 1)))
    assert not Partition((2, 2)).contains(Partition((3,)))
    assert not Partition((3, 2)).contains(Partition((1, 1, 1)))
    assert Partition(()).contains(Partition(()))


@given(partitions(max_weight=12), partitions(max_weight=12))
@settings(max_examples=60, deadline=None)
def test_contains_agrees_with_transpose(lam, mu):
    assert mu.contains(lam) == mu.transpose().contains(lam.transpose())


def test_enumeration_counts():
    # partition numbers p(0..8) = 1,1,2,3,5,7,11,15,22
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for n, count in enumerate(expected):
        assert len(shapes._weight(n)) == count
    assert len(partitions_up_to_weight(4)) == 1 + 1 + 2 + 3 + 5
    assert [p for p in shapes._weight(3) if len(p) <= 1] == [Partition((3,))]


def test_subpartitions_of_hook():
    lam = Partition((2, 1))
    assert subpartitions(lam) == [
        Partition(()),
        Partition((1,)),
        Partition((2,)),
        Partition((1, 1)),
        Partition((2, 1)),
    ]


def test_superpartitions_bounds():
    out = superpartitions(Partition((1,)), max_weight=3, max_length=2)
    assert Partition((1,)) in out
    assert Partition((3,)) in out
    assert Partition((2, 1)) in out
    assert all(mu.contains(Partition((1,))) for mu in out)
    assert all(len(mu) <= 2 and mu.weight <= 3 for mu in out)


def test_refined_alphabet():
    t = (t1, t2, t3)
    assert refined_alphabet(t, 1) == ()
    assert refined_alphabet(t, 3) == (t1, t2)
    with pytest.raises(ValueError):
        refined_alphabet(t, 5)


def test_sequence_rows():
    seq = AlphabetSequence(((x1,), (x1, x2), ()))
    assert seq.alphabet(1) == (x1,)
    assert seq.alphabet(2) == (x1, x2)
    assert seq.alphabet(3) == ()
    assert seq.alphabet(9) == ()
    assert seq == prefix_sequence((x1,), (x1, x2))
    with pytest.raises(ValueError):
        seq.alphabet(0)


def test_refined_tail_rows():
    seq = refined_sequence((t1, t2, t3))
    assert seq.alphabet(1) == ()
    assert seq.alphabet(2) == (t1,)
    assert seq.alphabet(4) == (t1, t2, t3)
    assert seq.alphabet(9) == (t1, t2, t3)
    assert seq.rows == ((), (t1,), (t1, t2), (t1, t2, t3))


def test_constant_tail_rows():
    seq = AlphabetSequence(((x1,), (x1, x2)))
    assert seq.alphabet(1) == (x1,)
    assert seq.alphabet(2) == (x1, x2)
    assert seq.alphabet(9) == (x1, x2)
    assert AlphabetSequence(((x1, x2),)).alphabet(5) == (x1, x2)


def test_trailing_repeats_are_dropped():
    # one family, spelled with and without its repeated rows
    assert AlphabetSequence(((x1,), (x2,), (x2,), (x2,))).rows == ((x1,), (x2,))
    assert AlphabetSequence(((x1,), (x1,))) == AlphabetSequence(((x1,),))
    assert hash(AlphabetSequence(((x1,), (x1,)))) == hash(AlphabetSequence(((x1,),)))
    # no rows and empty rows alike mean every row is empty
    assert AlphabetSequence(((), ())) == empty_sequence() == AlphabetSequence(((),)) == prefix_sequence()
    assert empty_sequence().rows == ()
    assert empty_sequence().alphabet(3) == ()
    # a repeat before the last row is a row of its own
    assert AlphabetSequence(((x1,), (x1,), ())).rows == ((x1,), (x1,), ())


def test_tail_rule_validation():
    with pytest.raises(ValueError):
        AlphabetSequence(((x1,),)).alphabet(-1)
    with pytest.raises(ValueError):
        empty_sequence().alphabet(0)


def test_horizontal_strips_below_interlace():
    for lam in partitions_up_to_weight(6):
        got = list(horizontal_strips(lam))
        want = [
            mu
            for mu in subpartitions(lam)
            if all(mu.part(i) >= lam.part(i + 1) for i in range(1, len(lam) + 1))
        ]
        assert len(set(got)) == len(got)
        assert sorted(got) == sorted(want)
    assert list(horizontal_strips((2, 1))) == [(2, 1), (2,), (1, 1), (1,)]


def test_partition_refuses_non_integer_parts():
    for parts in ([1.5], [2.0], "21", ["2"], [True], [2, False], [float("inf")]):
        with pytest.raises((TypeError, ValueError)):
            Partition(parts)


def test_partition_refuses_a_string_or_a_mapping():
    """Each would iterate as an empty or a different partition: "" and {} as ()."""
    for parts in ("", b"", b"\x02\x01", {}, {2: 1}):
        with pytest.raises(TypeError):
            Partition(parts)


def test_partition_of_a_partition_is_itself():
    lam = Partition((3, 1))
    assert Partition(lam) is lam
    assert Partition([3, 1]) == lam and type(Partition((3, 1))) is Partition


def test_partition_has_no_instance_dict():
    """A Partition holds its parts alone, as the tuple it is: no attribute
    can be set on it, and pickle and deepcopy rebuild an equal one."""
    with pytest.raises(AttributeError):
        Partition((1,)).x = 1
    for lam in (Partition(), Partition((3, 1, 1))):
        for copied in (pickle.loads(pickle.dumps(lam)), copy.deepcopy(lam)):
            assert type(copied) is Partition and copied == lam


def _checked(shape) -> Partition:
    """shape rebuilt through the checking constructor, which also asserts
    that it was a Partition with no trailing zero."""
    assert type(shape) is Partition
    assert not shape or shape[-1] > 0, shape
    copy = Partition(list(shape))
    assert copy == shape
    return copy


def test_unchecked_shapes_match_checked_copies():
    for lam in partitions_up_to_weight(7):
        derived = [
            *shapes._weight(lam.weight),
            *subpartitions(lam),
            *superpartitions(lam, 7),
            *horizontal_strips(lam),
        ]
        for grow in range(4):
            derived += horizontal_strips(lam, grow)
        for shape in derived:
            _checked(shape)
    assert list(horizontal_strips((), 0)) == [()]
    assert list(horizontal_strips((1,))) == [(1,), ()]


def _brute_force(max_weight: int) -> list[Partition]:
    """Every partition of weight <= max_weight, in the documented order:
    weight ascending, then parts compared entrywise descending."""
    found = [()]
    for k in range(1, max_weight + 1):
        # drawn from a descending range, so each choice is weakly decreasing
        found += [c for c in combinations_with_replacement(range(max_weight, 0, -1), k) if sum(c) <= max_weight]
    found.sort(key=lambda p: (sum(p), [-q for q in p]))
    return [Partition(p) for p in found]


def test_sub_and_superpartitions_match_brute_force():
    every = _brute_force(8)
    assert partitions_up_to_weight(8) == every
    for lam in partitions_up_to_weight(7):
        inside = [mu for mu in every if mu.weight <= lam.weight and lam.contains(mu)]
        assert subpartitions(lam) == inside, lam
        for max_length in (None, len(lam) + 1):
            outside = [
                mu
                for mu in every
                if mu.contains(lam) and (max_length is None or len(mu) <= max_length)
            ]
            assert superpartitions(lam, 8, max_length) == outside, lam


def test_enumerations_return_fresh_lists():
    calls = [
        lambda: partitions_up_to_weight(4),
        lambda: subpartitions((2, 1)),
        lambda: superpartitions((2, 1), 5),
    ]
    for call in calls:
        want = list(call())
        got = call()
        got.append(Partition((9,)))
        del got[0]
        assert call() == want


def test_weight_memo_stays_bounded():
    # every weight that a degree bound admits stays in the memo
    memo = shapes._weight
    assert memo.cache_info().maxsize == shapes.WEIGHT_CACHE_SIZE > expansions.MAX_DEGREE_BOUND
    memo.cache_clear()
    sizes = []
    try:
        for n in range(shapes.WEIGHT_CACHE_SIZE + 3):
            memo(n)
            sizes.append(memo.cache_info().currsize)
        assert memo.cache_info().misses > shapes.WEIGHT_CACHE_SIZE
        assert max(sizes) <= shapes.WEIGHT_CACHE_SIZE
    finally:
        memo.cache_clear()  # the largest weights hold about 50,000 shapes
