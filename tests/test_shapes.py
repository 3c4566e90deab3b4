import pytest
from hypothesis import given, settings, strategies as st

from multischur.exactalg import Scalar, variables
from multischur.shapes import (
    AlphabetSequence,
    ConstantTail,
    EmptyTail,
    Partition,
    RefinedTail,
    alphabets_equal,
    constant_sequence,
    contains,
    empty_sequence,
    horizontal_strips,
    motegi_scrimshaw_sequence,
    partitions_of_weight,
    partitions_up_to_weight,
    prefix_sequence,
    refined_alphabet,
    refined_sequence,
    subpartitions,
    superpartitions,
    transpose,
    vertical_strips,
)

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
    assert lam.length == 3
    assert lam.part(1) == 4
    assert lam.part(5) == 0


def test_transpose_examples():
    assert transpose(Partition((3, 1))) == Partition((2, 1, 1))
    assert transpose(Partition(())) == Partition(())
    assert transpose(Partition((1, 1, 1))) == Partition((3,))


@given(partitions())
@settings(max_examples=80, deadline=None)
def test_transpose_involution(lam):
    assert transpose(transpose(lam)) == lam
    assert transpose(lam).weight == lam.weight


def test_contains_partial_order():
    # contains(mu, lam) asks whether mu fits inside lam
    assert contains(Partition((2, 2)), Partition((3, 2)))
    assert contains(Partition((1, 1)), Partition((2, 1)))
    assert not contains(Partition((3,)), Partition((2, 2)))
    assert not contains(Partition((1, 1, 1)), Partition((3, 2)))
    assert contains(Partition(()), Partition(()))


@given(partitions(max_weight=12), partitions(max_weight=12))
@settings(max_examples=60, deadline=None)
def test_contains_agrees_with_transpose(lam, mu):
    assert contains(lam, mu) == contains(transpose(lam), transpose(mu))


def test_enumeration_counts():
    # partition numbers p(0..8) = 1,1,2,3,5,7,11,15,22
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for n, count in enumerate(expected):
        assert len(partitions_of_weight(n)) == count
    assert len(partitions_up_to_weight(4)) == 1 + 1 + 2 + 3 + 5
    assert partitions_of_weight(3, max_length=1) == [Partition((3,))]


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
    assert all(contains(Partition((1,)), mu) for mu in out)
    assert all(mu.length <= 2 and mu.weight <= 3 for mu in out)


def test_refined_alphabet():
    t = (t1, t2, t3)
    assert refined_alphabet(t, 1) == ()
    assert refined_alphabet(t, 3) == (t1, t2)
    with pytest.raises(ValueError):
        refined_alphabet(t, 5)


def test_alphabets_equal_is_multiset():
    assert alphabets_equal((x1, x2), (x2, x1))
    assert not alphabets_equal((x1,), (x1, x1))


def test_sequence_rows():
    seq = AlphabetSequence(((x1,), (x1, x2)), EmptyTail())
    assert seq.alphabet(1) == (x1,)
    assert seq.alphabet(2) == (x1, x2)
    assert seq.alphabet(3) == ()
    with pytest.raises(ValueError):
        seq.alphabet(0)


def test_refined_tail_rows():
    seq = refined_sequence((t1, t2, t3))
    assert seq.alphabet(1) == ()
    assert seq.alphabet(2) == (t1,)
    assert seq.alphabet(4) == (t1, t2, t3)


def test_constant_tail_rows():
    seq = AlphabetSequence(((x1,),), ConstantTail((x1, x2)))
    assert seq.alphabet(1) == (x1,)
    assert seq.alphabet(2) == (x1, x2)
    assert seq.alphabet(9) == (x1, x2)


def test_stable_tail_refined():
    seq = refined_sequence((t1, t2, t3))
    assert seq.stable_tail() == (1, (t1, t2, t3))


def test_stable_tail_refined_with_prefix():
    # prefix rows continue the single-letter growth, so R stays minimal
    seq = AlphabetSequence(((), (t1,)), RefinedTail((t1, t2), ((t3,),)))
    assert seq.stable_tail() == (1, (t1, t2, t3))


def test_stable_tail_regrowth_is_rejected():
    # once growth pauses it may not resume: rows (), (t1), (t1), (t1,t2)
    seq = AlphabetSequence(((), (t1,), (t1,)), RefinedTail((t1, t2), ()))
    assert seq.stable_tail() == (3, (t2,))


def test_stable_tail_constant():
    assert constant_sequence((x1,)).stable_tail() == (1, ())
    seq = AlphabetSequence(((x2,), (x1,)), ConstantTail((x1,)))
    assert seq.stable_tail() == (2, ())


def test_stable_tail_empty():
    assert empty_sequence().stable_tail() == (1, ())
    # a nonempty prefix row breaks the all-empty requirement
    assert prefix_sequence((x1,)).stable_tail() is None


def test_stable_tail_constant_scans_from_the_end():
    # constant rule reports where rows equal the constant, letters ignored
    seq = AlphabetSequence(((), (t1,), (t1, t2)), ConstantTail((t1, t2)))
    assert seq.stable_tail() == (3, ())


def test_stable_tail_jump_is_rejected():
    # a two-letter step can never be written as single-letter growth
    seq = AlphabetSequence(((), (t1, t2)), ConstantTail((t1, t2)))
    assert seq.stable_tail() == (2, ())
    seq = AlphabetSequence(((x1,), (), (t1, t2)), ConstantTail((t1, t2)))
    assert seq.stable_tail() == (3, ())


def test_motegi_scrimshaw():
    t = (t1, t2, t3)
    seq = motegi_scrimshaw_sequence((x1, x2), t)
    assert seq.alphabet(1) == (x1, x2, t1)
    assert seq.alphabet(2) == (x1, x2, t1, t2)
    assert seq.alphabet(3) == (x1, x2, t1, t2, t3)
    assert seq.alphabet(5) == (x1, x2, t1, t2, t3)
    assert seq.stable_tail() == (1, (t2, t3))
    assert motegi_scrimshaw_sequence((x1,), ()).alphabet(4) == (x1,)


def test_tail_rule_validation():
    with pytest.raises(ValueError):
        AlphabetSequence(((x1,),), EmptyTail()).alphabet(-1)


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


def test_vertical_strips_are_transposed_horizontal_strips():
    # same strips, same order
    for lam in partitions_up_to_weight(8):
        want = [transpose(mu) for mu in horizontal_strips(transpose(lam))]
        assert list(vertical_strips(lam)) == want, lam
    assert list(vertical_strips(())) == [()]
    assert list(vertical_strips((2, 2, 1))) == [(2, 2, 1), (2, 1, 1), (1, 1, 1), (2, 2), (2, 1), (1, 1)]
