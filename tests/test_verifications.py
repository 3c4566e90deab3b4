"""Verification suites at reduced sizes: every suite must pass and
report the documented summary shape."""

import re
import sys

import pytest

from multischur import exactalg, expansions, fock, shapes, supersym, verifications
from multischur.exactalg import _CUT, Scalar
from multischur.expansions import SymFunc
from multischur.fock import FockVector
from multischur.shapes import Partition, as_alphabet
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
from oracles import add_into, by_first_part


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


STRIPS, LAPLACE, AT, H_SERIES = shapes.horizontal_strips, exactalg._laplace, supersym._at, supersym._h_series
ADD_PRODUCT, MERGE, PIERI_DOT = exactalg._add_product, exactalg._merge_monomials, expansions._pieri_dot
CREATE, ANNIHILATE, MOVES, STEP, BRA_STEP = fock._create, fock._annihilate, fock._moves, fock._step, fock._bra_step


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


def _h_series_drops_the_last_x(n, x, y):
    return H_SERIES(n, x[:-1], y)


def _add_product_ignores_negate(terms, a, b, negate=False):
    return ADD_PRODUCT(terms, a, b)


def _merge_swaps_sorted_runs(a, b):
    """`_merge_monomials` that returns b + a when every name of a sorts first."""
    return b + a if a[-1][0] < b[0][0] else MERGE(a, b)


def _pieri_dot_drops_every_sign(triples):
    return PIERI_DOT((e, f, False) for e, f, _ in triples)


def _flips_every_sign(act):
    """A fermion action, `_create` or `_annihilate`, with every hit's sign flipped."""
    return lambda lam, d: (hit := act(lam, d)) and (hit[0] + 1, hit[1])


def _ket_memo_without_the_length(lams, t):
    """`ket_refined_table` whose memo forgets the ket's length l, so kets of
    different lengths share rows lam_i..lam_l, whose letters differ."""
    lams, t = [Partition(lam) for lam in lams], as_alphabet(t)
    rows, kets = {}, []
    for lam in lams:
        terms = {Partition(): Scalar.one()}
        for i in range(len(lam), 0, -1):
            key = lam[i - 1 :]
            if key not in rows:
                rows[key] = STEP(terms, lam[i - 1] + 1, False, fock._powers(t[i - 1]))
            terms = rows[key]
        kets.append(FockVector._trusted(0, terms))
    return kets


def _ket_step_flips_the_first_move(terms, d, vertical, powers):
    """`_step` that negates, in a ket row, the term of each state's first
    move (its strip of size 0); the bare steps of e^{H} pass no offset."""
    out = STEP(terms, d, vertical, powers)
    if d is not None:
        for lam, coeff in terms.items():
            nu, n = MOVES(lam, d, False)[1][0]
            add_into(out, nu, coeff * powers[n] * -2)
    return out


def _bra_step_flips_the_first_move(d, powers, states):
    """`_bra_step` that negates the term of each state's first move."""
    out = BRA_STEP(d, powers, states)
    for lam, row in states.items() if powers else ():
        p, ((nu, n), *_) = MOVES(lam, d, True)[1][0]
        for k, c in row.items():
            add_into(out.setdefault(p, {}).setdefault(nu, {}), k, c * powers[n] * -2)
    return out


def _ket_prepends_one_more(lam, d, vertical):
    """`_moves` whose ket tables prepend lam_i + 1 where the step prepends lam_i."""
    if d is None or vertical:
        return MOVES(lam, d, vertical)
    top, bare = MOVES(lam, None, False)
    return top, tuple((Partition._trusted((d, *nu)), n) for nu, n in bare)


def _bra_keeps_the_popped_part(lam, d, vertical):
    """`_moves` whose bra tables group the bare table of lam, not of lam[1:]."""
    if d is None or not vertical:
        return MOVES(lam, d, vertical)
    top, bare = MOVES(lam, None, True)
    return top, by_first_part(bare)


def _bra_files_under_one_part(lam, d, vertical):
    """`_moves` whose bra tables file every nu under lam_2, so the nu of
    first part lam_2 - 1 are stepped by the wrong bras and read as no pair."""
    top, moves = MOVES(lam, d, vertical)
    if d is None or not vertical:
        return top, moves
    return top, ((moves[0][0], tuple(move for _, group in moves for move in group)),)


ALL = frozenset(SUITES)
DETERMINANTS = {"beta-chain", "branching", "classical", "dual-engine", "hall-duality"}
# orthonormality and beta-chain build refined kets; orthonormality,
# dual-engine and truncation-stability pair refined bras
KETS, BRAS = {"orthonormality", "beta-chain"}, {"orthonormality", "dual-engine", "truncation-stability"}
# fault -> (the name it is planted under, the fault, exactly the suites that
# fail under it at their defaults).  What no suite catches is listed in
# ROADMAP item 2 with the tier-1 test that catches it.
FAULTS = {
    "strips drop the last": ("horizontal_strips", _drop_last_strip, ALL - {"hall-duality"}),
    "strips repeat the first": ("horizontal_strips", _repeat_first_strip, ALL - {"hall-duality"}),
    # passes truncation-stability: in its one determinant side, a refined
    # e-form, row 1 has one nonzero entry, so no 2 x 2 minor has a sign to lose
    "unsigned 2 x 2 minors": ("_laplace", _unsigned_2x2_minors, DETERMINANTS),
    "_laplace drops every sign": ("_laplace", _unsigned_laplace, DETERMINANTS | {"truncation-stability"}),
    "series entries drop the last": ("_at", _at_drops_the_last, ALL - {"orthonormality"}),
    # not orthonormality: the fermion route reads no complete functions; not
    # truncation-stability: the refined rows of its determinant side hold no x letter
    "_h_series drops the last x letter": ("_h_series", _h_series_drops_the_last_x, DETERMINANTS | {"cauchy"}),
    "_add_product ignores negate": ("_add_product", _add_product_ignores_negate, ALL - {"orthonormality"}),
    "_merge_monomials swaps sorted runs": ("_merge_monomials", _merge_swaps_sorted_runs, ALL - {"truncation-stability"}),
    "_pieri_dot drops every sign": ("_pieri_dot", _pieri_dot_drops_every_sign, {"branching"}),
    "psi flips every sign": ("_create", _flips_every_sign(CREATE), {"classical", "dual-engine", "truncation-stability"}),
    "psi* flips every sign": ("_annihilate", _flips_every_sign(ANNIHILATE), {"classical"}),
    # beta-chain builds refined kets too, but all its letters are -beta
    "ket memo forgets the length": ("ket_refined_table", _ket_memo_without_the_length, {"orthonormality"}),
    "ket step flips the first move": ("_step", _ket_step_flips_the_first_move, KETS),
    "ket prepends lam_i + 1": ("_moves", _ket_prepends_one_more, KETS),
    "bra step flips the first move": ("_bra_step", _bra_step_flips_the_first_move, BRAS),
    "bra keeps the popped part": ("_moves", _bra_keeps_the_popped_part, BRAS),
    "bra files under one part": ("_moves", _bra_files_under_one_part, BRAS),
}


def _run_suites_at_defaults():
    return {theorem: SUITES[theorem](*(field.default for field in SIZES[theorem])) for theorem in SUITES}


@pytest.fixture(scope="module")
def clean_runs():
    fock._moves.cache_clear()
    runs = _run_suites_at_defaults()
    assert all(summary["passed"] for summary in runs.values())
    return runs


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_suites_catch_faults_in_strips_and_laplace(monkeypatch, clean_runs, fault):
    """A fault planted under its name in every loaded `multischur.*`
    submodule that holds it fails exactly the suites of its row at their
    defaults, each on the cases of its clean run.  The package itself is
    skipped: its lazy `__getattr__` would keep a real attribute after
    the undo.  The move tables of `fock._moves` are built from the
    strips, so they are dropped before and after each fault."""
    name, planted, catchers = FAULTS[fault]
    holders = [m for key, m in list(sys.modules.items()) if key.startswith("multischur.") and hasattr(m, name)]
    assert holders, name
    fock._moves.cache_clear()
    try:
        for module in holders:
            monkeypatch.setattr(module, name, planted)
        runs = _run_suites_at_defaults()
    finally:
        monkeypatch.undo()
        fock._moves.cache_clear()
    assert {theorem for theorem, summary in runs.items() if not summary["passed"]} == catchers
    assert {t: s["cases"] for t, s in runs.items()} == {t: s["cases"] for t, s in clean_runs.items()}
