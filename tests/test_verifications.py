"""Verification suites at reduced sizes: every suite must pass and
report the documented summary shape."""

import re

import pytest

from multischur import exactalg, expansions, fock, shapes, supersym, verifications
from multischur.exactalg import _CUT, Scalar
from multischur.expansions import SymFunc
from multischur.shapes import Partition
from multischur.suite_sizes import SIZES
from multischur.verifications import (
    SUITES,
    beta_chain,
    branching,
    cauchy,
    classical,
    dual_engine,
    hall_duality,
    orthonormality,
    truncation_stability,
)


def _check_shape(summary, theorem):
    assert set(summary) == {"theorem", "parameters", "passed", "cases", "failures"}
    assert summary["theorem"] == theorem
    assert isinstance(summary["parameters"], dict)
    assert isinstance(summary["cases"], int) and summary["cases"] > 0
    assert isinstance(summary["failures"], list)
    assert summary["passed"] is (not summary["failures"])


def test_suite_registry_complete():
    assert set(SUITES) == {
        "orthonormality",
        "dual-engine",
        "hall-duality",
        "cauchy",
        "branching",
        "truncation-stability",
        "beta-chain",
        "classical",
    }
    assert SUITES["orthonormality"] is orthonormality


# The sizes a suite fixes itself and reports besides its table fields.
EXTRAS = {"cauchy": {"symbolic", "zero"}, "branching": {"n", "m"}}


@pytest.mark.parametrize("theorem", sorted(SUITES))
def test_suite_reports_its_table_fields(theorem):
    """A suite takes its table keywords and reports each size under its
    table name, the fields in table order given 1, 2, 3."""
    assert set(SIZES) == set(SUITES)
    given = {field.name: k for k, field in enumerate(SIZES[theorem], 1)}
    for field in SIZES[theorem]:
        assert 1 <= field.default <= field.cap
    summary = SUITES[theorem](**{field.keyword: given[field.name] for field in SIZES[theorem]})
    assert summary["passed"]
    assert summary["parameters"].keys() == given.keys() | EXTRAS.get(theorem, set())
    assert {name: summary["parameters"][name] for name in given} == given


def test_orthonormality_small():
    summary = orthonormality(max_weight=3)
    _check_shape(summary, "orthonormality")
    assert summary["passed"]
    # 7 shapes up to weight 3, all pairs
    assert summary["cases"] == 49
    assert summary["parameters"] == {"maxWeight": 3}


def test_suite_without_cases_raises():
    with pytest.raises(ValueError, match="no cases"):
        orthonormality(max_weight=-1)
    with pytest.raises(ValueError, match="no cases"):
        dual_engine(max_weight=-1)


def test_dual_engine_small():
    summary = dual_engine(max_weight=2)
    _check_shape(summary, "dual-engine")
    assert summary["passed"]


def test_hall_duality_small():
    summary = hall_duality(max_weight=3, truncation=3)
    _check_shape(summary, "hall-duality")
    assert summary["passed"]
    assert summary["parameters"] == {"maxWeight": 3, "truncation": 3}


def test_cauchy_suite():
    summary = cauchy()
    _check_shape(summary, "cauchy")
    assert summary["passed"]
    assert summary["cases"] == 2


def _y_degree(p):
    return max((sum(e for x, e in mono if x.startswith("Y")) for mono, _ in p.terms()), default=0)


def test_cauchy_sides_stop_at_y_degree_D():
    """Neither side has a monomial of Y-degree above D, so the suite cuts
    neither: a side that leaked higher degrees would fail it."""
    for t in (verifications._vars("t", 7), (0,) * 7):
        for D in range(7):
            for n in range(1, 4):
                for m in range(1, 4):
                    lhs, rhs = verifications._cauchy_sides(t, D, n, m)
                    assert _y_degree(lhs) <= D and _y_degree(rhs) <= D, (t[0], D, n, m)
                    assert lhs == rhs, (t[0], D, n, m)


def test_branching_small():
    summary = branching(max_weight=3, general_max_weight=2)
    _check_shape(summary, "branching")
    assert summary["passed"]


def test_truncation_stability_small():
    summary = truncation_stability(max_weight=2, max_rows=2, max_truncation=3)
    _check_shape(summary, "truncation-stability")
    assert summary["passed"]


def test_beta_chain_small():
    summary = beta_chain(max_weight=2, max_dual_weight=3)
    _check_shape(summary, "beta-chain")
    assert summary["passed"]


def test_classical_small():
    summary = classical(max_weight=3, window=2, pairing_rows=2)
    _check_shape(summary, "classical")
    assert summary["passed"]


# A wrong value whose repr is longer than the cut.
WRONG = sum((Scalar.variable(f"w{i}") for i in range(1, 80)), Scalar.zero())


def _plus_wrong(f):
    return lambda *args: f(*args) + WRONG


def _table_plus_wrong(f):
    return lambda *args: [{mu: v + WRONG for mu, v in row.items()} for row in f(*args)]


def _wrong_expansion(f):
    return lambda *args: SymFunc({(): WRONG})


# suite -> (small sizes, the dependency stubbed to give a wrong value,
# the stub, the start or starts of the label of a failing case)
BROKEN = {
    "orthonormality": ({"max_weight": 2}, "bra_refined_table", _table_plus_wrong, "pair ["),
    "dual-engine": ({"max_weight": 2}, "bra_refined_table", _table_plus_wrong, "coefficient ["),
    "hall-duality": ({"max_weight": 2, "truncation": 2}, "hall_inner", _plus_wrong, "inner ["),
    "cauchy": ({}, "eval_symfunc", _plus_wrong, ("symbolic t, D=3", "zero t, D=4")),
    "branching": (
        {"max_weight": 2, "general_max_weight": 1},
        "eval_symfunc",
        _plus_wrong,
        ("refined split of [", "general split of ["),
    ),
    "truncation-stability": (
        {"max_weight": 1, "max_rows": 2, "max_truncation": 2},
        "truncated_dual_expansion",
        _wrong_expansion,
        "shape [",
    ),
    "beta-chain": ({"max_weight": 1, "max_dual_weight": 2}, "det_over_ring", _plus_wrong, "binomial coefficient ["),
    "classical": ({"max_weight": 2, "window": 1, "pairing_rows": 1}, "eval_symfunc", _plus_wrong, "tableau sum of ["),
}


def _per_pair(got, want, label, *args):
    """The tally of checking got against want one pair at a time, over want's keys."""
    tally = verifications._Tally()
    for key, value in want.items():
        tally.check(got.get(key), value, label, key, *args)
    return tally.cases, tally.failures


def test_check_row_counts_and_names_as_pair_checks():
    shapes = [Partition(p) for p in [(), (1,), (2,), (1, 1)]]
    t1 = Scalar.variable("t1")
    want = dict.fromkeys(shapes, Scalar.zero())
    want[Partition((1,))] = Scalar.one()
    wrong = dict(want)
    wrong[Partition((2,))] = t1  # one wrong pair
    missing = {mu: v for mu, v in want.items() if mu != Partition((1, 1))}
    reordered = dict(reversed(list(wrong.items())))
    for got in (want, dict(want), wrong, missing, reordered):
        tally = verifications._Tally()
        tally.check_row(got, want, "pair %s | %s", Partition((1,)))
        assert (tally.cases, tally.failures) == _per_pair(got, want, "pair %s | %s", Partition((1,)))
        assert tally.cases == 4
    tally = verifications._Tally()
    tally.check_row(wrong, want, "pair %s | %s", Partition((1,)))
    assert tally.failures == ["pair [2] | [1]: got t1, want 0"]
    tally = verifications._Tally()
    tally.check_row(missing, want, "pair %s | %s", Partition((1,)))
    assert tally.failures == ["pair [1, 1] | [1]: got None, want 0"]
    # a key that only got has fails too, even when its value is zero
    tally = verifications._Tally()
    tally.check_row(want | {Partition((3,)): Scalar.zero()}, want, "pair %s | %s", Partition((1,)))
    assert tally.cases == 4 and tally.failures == ["pair [3] | [1]: got 0, want None"]


@pytest.mark.parametrize("theorem", sorted(SUITES))
def test_every_suite_fails_naming_both_sides(monkeypatch, theorem):
    sizes, name, stub, label = BROKEN[theorem]
    cases = SUITES[theorem](**sizes)["cases"]
    monkeypatch.setattr(verifications, name, stub(getattr(verifications, name)))
    summary = SUITES[theorem](**sizes)
    assert summary["passed"] is False
    assert summary["cases"] == cases
    assert summary["failures"]
    sides = []
    for failure in summary["failures"]:
        m = re.fullmatch(r"(?P<label>.+): got (?P<got>.+), want (?P<want>.+)", failure)
        assert m and m["label"].startswith(label), failure
        assert m["got"] != m["want"]
        sides += [m["got"], m["want"]]
    assert all(len(side) <= _CUT for side in sides)
    # WRONG's repr is longer than the cut, so some side was cut to it
    assert any(len(side) == _CUT and side.endswith("...") for side in sides)


STRIPS, LAPLACE, AT = shapes.horizontal_strips, exactalg._laplace, supersym._at


def _drop_last_strip(lam, grow=None):
    return list(STRIPS(lam, grow))[:-1]


def _repeat_first_strip(lam, grow=None):
    strips = list(STRIPS(lam, grow))
    return strips[:1] + strips


def _unsigned_2x2_minors(cols, entry, memo, dot):
    """`_laplace` with every 2 x 2 minor summed without its sign."""
    if len(cols) != 2:
        return LAPLACE(cols, entry, memo, dot)
    if cols not in memo:
        memo[cols] = dot([(entry(2, cols[1]), entry(1, cols[0]), False), (entry(2, cols[0]), entry(1, cols[1]), False)])
    return memo[cols]


def _unsigned_laplace(cols, entry, memo, dot):
    """`_laplace` with every product of every minor summed without its sign."""
    return LAPLACE(cols, entry, memo, lambda triples: dot([(e, minor, False) for e, minor, _ in triples]))


def _at_drops_the_last(series, k):
    """`_at` reading a series as if its last entry were never computed."""
    return AT(series[:-1], k)


# fault -> (the modules it is planted in, the name it replaces, the fault,
# the suites that fail under it at their defaults, at the least)
FAULTS = {
    "strips drop the last": (
        (shapes, expansions, fock),
        "horizontal_strips",
        _drop_last_strip,
        {"orthonormality", "dual-engine", "cauchy", "branching", "truncation-stability", "beta-chain", "classical"},
    ),
    "strips repeat the first": (
        (shapes, expansions, fock),
        "horizontal_strips",
        _repeat_first_strip,
        {"orthonormality", "dual-engine", "cauchy", "branching", "truncation-stability", "beta-chain", "classical"},
    ),
    # passes truncation-stability: in its one determinant side, a refined
    # e-form, row 1 has one nonzero entry, so no 2 x 2 minor has a sign to lose
    "unsigned 2 x 2 minors": (
        (exactalg, supersym),
        "_laplace",
        _unsigned_2x2_minors,
        {"dual-engine", "hall-duality", "branching", "beta-chain", "classical"},
    ),
    "_laplace drops every sign": (
        (exactalg, supersym),
        "_laplace",
        _unsigned_laplace,
        {"dual-engine", "hall-duality", "branching", "truncation-stability", "beta-chain", "classical"},
    ),
    "series entries drop the last": (
        (expansions,),
        "_at",
        _at_drops_the_last,
        {"dual-engine", "hall-duality", "cauchy", "branching", "truncation-stability", "beta-chain"},
    ),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_suites_catch_faults_in_strips_and_laplace(monkeypatch, fault):
    """A fault planted in `horizontal_strips`, which the evaluator, the
    Pieri rule and the fermion strip steps read, in `_laplace`, which
    every determinant reads, or in `_at`, which reads every entry of
    `expansions._expand`, fails the suites that read it at their
    defaults.  The move tables of `fock._moves` are built from the strips,
    so they are dropped before and after each fault."""
    modules, name, planted, catchers = FAULTS[fault]
    defaults = {theorem: [field.default for field in SIZES[theorem]] for theorem in SUITES}
    assert all(SUITES[theorem](*defaults[theorem])["passed"] for theorem in SUITES)
    fock._moves.cache_clear()
    try:
        for module in modules:
            monkeypatch.setattr(module, name, planted)
        failing = {theorem for theorem in SUITES if not SUITES[theorem](*defaults[theorem])["passed"]}
        assert catchers <= failing, fault
    finally:
        monkeypatch.undo()
        fock._moves.cache_clear()
