from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from multischur.exactalg import Scalar, det_over_ring
from multischur import expansions
from multischur.expansions import (
    SymFunc,
    TractabilityError,
    TruncationError,
    check_degree_bound,
    eval_symfunc,
    expand_in_refined_basis,
    flagged_schur,
    hall_inner,
    multi_schur,
    refined_dual_grothendieck,
    schur_expand_multischur,
    schur_tableau_oracle,
    skew_function,
    skew_multi_schur,
    stable_dual_in_G,
    stable_grothendieck_schur,
    sym_schur,
    symfunc_from_json,
    symfunc_to_json,
    truncated_dual_expansion,
)
from multischur.fock import bra_refined_pair, ket_general
from multischur.shapes import (
    AlphabetSequence,
    Partition,
    empty_sequence,
    partitions_up_to_weight,
    prefix_sequence,
    refined_alphabet,
    refined_sequence,
    subpartitions,
    superpartitions,
)
from multischur.supersym import _at, h_series, supersym_schur
from multischur.verifications import _branching_sides, _cauchy_sides, _one_letter_rows
from oracles import flagged_tableau_oracle, variables

t = variables("t1 t2 t3 t4 t5")
t1, t2 = t[0], t[1]
x1, x2, a, b = variables("x1 x2 a b")
beta = Scalar.variable("beta")

EMPTY = empty_sequence()


# -- multi-Schur and flagged cases ------------------------------------


def test_multi_schur_trivial_and_one_row():
    assert multi_schur(Partition(()), EMPTY, EMPTY) == Scalar.one()
    bx = prefix_sequence((x1, x2))
    assert multi_schur(Partition((1,)), bx, EMPTY) == x1 + x2


def test_multi_schur_two_row_frozen():
    bx = prefix_sequence((x1, x2), (x1, x2, t1))
    got = multi_schur(Partition((1, 1)), bx, EMPTY)
    assert got == x1 * x2 + t1 * (x1 + x2)


def test_multi_schur_constant_rows_is_supersym():
    bx = AlphabetSequence([(x1, x2)])
    by = AlphabetSequence([(a,)])
    for lam in [Partition((2,)), Partition((2, 1)), Partition((1, 1, 1))]:
        assert multi_schur(lam, bx, by) == supersym_schur(lam, (x1, x2), (a,))


def test_flagged_schur_examples():
    assert flagged_schur(Partition((1,)), (1,), (x1, x2)) == x1
    # constant flag gives the ordinary Schur polynomial
    got = flagged_schur(Partition((2, 1)), (2, 2), (x1, x2))
    assert got == supersym_schur(Partition((2, 1)), (x1, x2), ())
    assert flagged_schur(Partition((2, 1)), (1, 2), (x1, x2)) == x1**2 * x2


def test_flagged_schur_matches_oracle():
    flags = [(1, 2), (2, 2), (1, 3), (2, 3), (3, 3)]
    vals = (x1, x2, a)
    for lam in [Partition((2, 1)), Partition((2, 2)), Partition((3, 1))]:
        for flag in flags:
            assert flagged_schur(lam, flag, vals) == flagged_tableau_oracle(lam, flag, vals)


def test_flagged_schur_validation():
    with pytest.raises(ValueError):
        flagged_schur(Partition((2, 1)), (2, 1), (x1, x2))
    with pytest.raises(ValueError):
        flagged_schur(Partition((2, 1)), (1,), (x1, x2))


# -- Schur expansions -------------------------------------------------


def test_schur_expand_trivial():
    lam = Partition((2, 1))
    assert schur_expand_multischur(lam, EMPTY, EMPTY) == sym_schur(lam)


def test_schur_expand_refined_frozen():
    got = schur_expand_multischur(Partition((2, 1)), refined_sequence(t), EMPTY)
    assert got == sym_schur((2, 1)) + sym_schur((2,)).scale(t1)


def test_schur_expand_constant_term_is_multi_schur():
    lam = Partition((2, 1))
    for bx in [refined_sequence(t), prefix_sequence((x1,), (x2,), (a,))]:
        f = schur_expand_multischur(lam, bx, EMPTY)
        assert f.coefficient(Partition(())) == multi_schur(lam, bx, EMPTY)
        assert f.coefficient(lam) == Scalar.one()
        assert all(mu in subpartitions(lam) for mu, _ in f.terms())


def test_refined_dual_grothendieck_frozen():
    g = refined_dual_grothendieck(Partition((2, 1)), t)
    assert g == sym_schur((2, 1)) + sym_schur((2,)).scale(t1)
    zeros = (Scalar.zero(),) * 4
    for lam in [Partition((2, 1)), Partition((3,))]:
        assert refined_dual_grothendieck(lam, zeros) == sym_schur(lam)


def test_refined_equals_general_expansion():
    for lam in [Partition((2,)), Partition((2, 2)), Partition((3, 1))]:
        assert refined_dual_grothendieck(lam, t) == schur_expand_multischur(
            lam, refined_sequence(t), EMPTY
        )


def test_expand_in_refined_basis_self():
    lam = Partition((2, 1))
    coeffs = expand_in_refined_basis(lam, refined_sequence(t), EMPTY, t)
    for mu in subpartitions(lam):
        want = Scalar.one() if mu == lam else Scalar.zero()
        assert coeffs.get(mu, Scalar.zero()) == want


def test_expand_in_refined_basis_degenerates_at_zero_t():
    lam = Partition((2, 1))
    bx = prefix_sequence((x1,), (x2,), (a,))
    zeros = (Scalar.zero(),) * 4
    coeffs = expand_in_refined_basis(lam, bx, EMPTY, zeros)
    f = schur_expand_multischur(lam, bx, EMPTY)
    for mu in subpartitions(lam):
        assert coeffs.get(mu, Scalar.zero()) == f.coefficient(mu)


def test_expand_in_refined_basis_matches_fock_pairing():
    lam = Partition((2, 1))
    bx = prefix_sequence((x1,), (x2,), (a,))
    by = prefix_sequence((b,))
    coeffs = expand_in_refined_basis(lam, bx, by, t)
    v = ket_general(lam, bx, by)
    for mu in subpartitions(lam):
        assert coeffs.get(mu, Scalar.zero()) == bra_refined_pair(mu, t, v)


# -- dual expansions --------------------------------------------------


def test_truncated_dual_trivial():
    lam = Partition((2, 1))
    f = truncated_dual_expansion(lam, EMPTY, 2, 5)
    assert [mu for mu, _ in f.terms()] == [lam]
    assert f.coefficient(lam) == Scalar.one()
    assert f.truncation == 5


def test_truncated_dual_validation():
    lam = Partition((2, 1))
    with pytest.raises(ValueError):
        truncated_dual_expansion(lam, EMPTY, 1, 5)
    with pytest.raises(ValueError):
        truncated_dual_expansion(lam, EMPTY, 2, 2)


def test_truncated_dual_beta_binomials():
    # refined rows of -beta letters give binomial coefficients
    nb = (-beta, -beta, -beta, -beta)
    f = truncated_dual_expansion(Partition((1,)), refined_sequence(nb), 2, 4)
    g = stable_grothendieck_schur(Partition((1,)), nb, 4)
    for mu, c in f.terms():
        assert c == g.coefficient(mu)
    assert f.coefficient(Partition((1, 1))) == beta
    assert f.coefficient(Partition((2,))) == Scalar.zero()


def test_stable_dual_in_G_self():
    lam = Partition((2, 1))
    out = stable_dual_in_G(lam, refined_sequence(t), t, 5)
    assert out.get(lam) == Scalar.one()
    assert all(not c for mu, c in out.items() if mu != lam)
    empty = stable_dual_in_G(Partition(()), refined_sequence(t), t, 3)
    assert empty.get(Partition(())) == Scalar.one()


def test_stable_dual_in_G_needs_stability():
    # any bx is answered: rows (x1), (), () ... give h_1(()/x1) = -x1 at mu = (2)
    bx = prefix_sequence((x1,))
    out = stable_dual_in_G(Partition((1,)), bx, t, 3)
    assert out == PerEntryJT.stable_dual(Partition((1,)), bx, t, 3)
    assert out[Partition((1,))] == Scalar.one()
    assert out[Partition((2,))] == -x1
    assert out[Partition((1, 1))] == t1


def test_stable_grothendieck_beta_series():
    nb = (-beta,) * 5
    G = stable_grothendieck_schur(Partition((1,)), nb, 4)
    assert G.coefficient(Partition((1,))) == Scalar.one()
    assert G.coefficient(Partition((1, 1))) == beta
    assert G.coefficient(Partition((1, 1, 1))) == beta**2
    assert G.coefficient(Partition((2,))) == Scalar.zero()
    assert G.truncation == 4


def test_stable_grothendieck_zero_t_is_schur():
    zeros = (Scalar.zero(),) * 5
    for lam in [Partition((2, 1)), Partition((3,))]:
        G = stable_grothendieck_schur(lam, zeros, 5)
        assert [mu for mu, _ in G.terms()] == [lam]
        assert G.coefficient(lam) == Scalar.one()


def test_stable_grothendieck_unitriangular():
    for lam in [Partition((1,)), Partition((2, 1))]:
        G = stable_grothendieck_schur(lam, t, 4)
        assert G.coefficient(lam) == Scalar.one()
    with pytest.raises(ValueError):
        stable_grothendieck_schur(Partition((2, 1)), t, 2)


# -- skew forms -------------------------------------------------------


def test_skew_multi_schur_cases():
    lam = Partition((2, 1))
    bx = prefix_sequence((x1, x2), (x1,))
    assert skew_multi_schur(lam, Partition(()), bx, EMPTY) == multi_schur(lam, bx, EMPTY)
    assert skew_multi_schur(lam, lam, bx, EMPTY) == Scalar.one()
    assert skew_multi_schur(lam, Partition((3,)), bx, EMPTY) == Scalar.zero()
    assert skew_multi_schur(lam, Partition((1, 1, 1)), bx, EMPTY) == Scalar.zero()


def test_skew_function_whole_shape_is_refined_g():
    for lam in [Partition((2, 1)), Partition((2, 2))]:
        f = skew_function(lam, Partition(()), refined_sequence(t), EMPTY, refined_sequence(t))
        assert f == refined_dual_grothendieck(lam, t)


def test_skew_function_constant_term():
    lam, mu = Partition((2, 1)), Partition((1,))
    bx = prefix_sequence((x1,), (x2,))
    f = skew_function(lam, mu, bx, EMPTY, EMPTY)
    assert f.coefficient(Partition(())) == skew_multi_schur(lam, mu, bx, EMPTY)


def test_skew_function_needs_stable_bp():
    # any bp is answered: with p^(1) = (x1) and p^(2) = (), the determinant
    # is (h_1 - x1) h_1 - h_3 * 0 = s_2 + s_11 - x1 s_1
    f = skew_function(Partition((2, 1)), Partition((1,)), EMPTY, EMPTY, prefix_sequence((x1,)))
    assert f == SymFunc({Partition((2,)): Scalar.one(), Partition((1, 1)): Scalar.one(), Partition((1,)): -x1})


def _three_case_h(m, i, j):
    # h_m((t_1..t_{i-1})/(t_1..t_{j-1})) after cancelling shared letters
    if m < 0:
        return Scalar.zero()
    if i < j:  # e_m(-T) = h_m(()/T)
        return h_series(m, (), t[i - 1 : j - 1])[m]
    if i == j:
        return Scalar.one() if m == 0 else Scalar.zero()
    return h_series(m, t[j - 1 : i - 1])[m]


def _h_word(coeff, indices):
    f = sym_schur(()).scale(coeff)
    for n in indices:
        f = expansions._pieri((n, mu, c) for mu, c in f.terms())
    return f


def test_skew_function_three_case_determinant():
    # hand-rolled refined skew Jacobi-Trudi vs the engine
    for lam, mu in [
        (Partition((2, 1)), Partition((1,))),
        (Partition((2, 2)), Partition((1,))),
        (Partition((3, 1)), Partition((2,))),
    ]:
        r = max(len(lam), len(mu))
        entries = {}
        for i in range(1, r + 1):
            for j in range(1, r + 1):
                k = lam.part(i) - mu.part(j) - i + j
                entries[i, j] = [
                    (_three_case_h(m, i, j), k - m) for m in range(0, max(k, 0) + 1) if k - m >= 0
                ]
        assert r == 2
        det = SymFunc()
        for term_a, na in entries[1, 1]:
            for term_b, nb in entries[2, 2]:
                det = det + _h_word(term_a * term_b, (na, nb))
        for term_a, na in entries[1, 2]:
            for term_b, nb in entries[2, 1]:
                det = det - _h_word(term_a * term_b, (na, nb))
        got = skew_function(lam, mu, refined_sequence(t), EMPTY, refined_sequence(t))
        assert got == det


# -- Pieri, Hall pairing, evaluation ----------------------------------


def test_pieri_examples():
    def pieri(*terms):  # the sum of c h_n s_mu over the (n, mu, c) given
        return expansions._pieri((n, Partition(mu), Scalar.from_rational(c)) for n, mu, c in terms)

    assert pieri((2, (), 1)) == sym_schur((2,))
    assert pieri((1, (1,), 1)) == sym_schur((2,)) + sym_schur((1, 1))
    assert pieri((2, (2,), 1)) == sym_schur((4,)) + sym_schur((3, 1)) + sym_schur((2, 2))
    assert pieri((0, (2, 1), 1)) == sym_schur((2, 1))
    # h_1 s_1 - h_2 = s_11: the terms of one call are summed
    assert pieri((1, (1,), 1), (2, (), -1)) == sym_schur((1, 1))


def test_hall_inner_schur_orthonormality():
    shapes = [Partition(()), Partition((1,)), Partition((2, 1))]
    for lam in shapes:
        for mu in shapes:
            want = Scalar.one() if lam == mu else Scalar.zero()
            assert hall_inner(sym_schur(lam), sym_schur(mu)) == want
    assert hall_inner(sym_schur((2, 1)), SymFunc()) == Scalar.zero()


def test_hall_inner_truncation_guard():
    G = stable_grothendieck_schur(Partition((1,)), t, 2)
    deep = sym_schur((1, 1, 1))
    with pytest.raises(TruncationError):
        hall_inner(G, deep)
    with pytest.raises(TruncationError):
        hall_inner(deep, G)
    # compatible supports pair fine
    assert hall_inner(G, sym_schur((1,))) == Scalar.one()


def test_eval_symfunc_examples():
    assert eval_symfunc(sym_schur((1,)), (a, b)) == a + b
    assert eval_symfunc(sym_schur((1, 1, 1)), (a, b)) == Scalar.zero()
    assert eval_symfunc(sym_schur((2, 1)), (a, b)) == a**2 * b + a * b**2


def test_eval_matches_tableau_oracle():
    """Every shape of weight <= 4 and (3, 2, 1), in no variables, in fewer
    variables than its rows, and in letters that repeat, vanish, are
    rational or have two terms; and an element with several terms and
    polynomial coefficients, against the sum of c times the oracle."""
    half = Scalar.from_rational(Fraction(1, 2))
    alphabets = [(), (a,), (a, b), (a, b, x1), (a, a, b), (a, 0, b), (half, a + b), (a - 2 * b, x1, a, 3)]
    shapes = partitions_up_to_weight(4) + [Partition((3, 2, 1))]
    coeffs = [t1 - 2, t2 * t1 + half, Scalar.one(), -3 * t2, t1**2 - t2]
    f = SymFunc({mu: coeffs[k % len(coeffs)] * (k + 1) for k, mu in enumerate(shapes)})
    for vals in alphabets:
        want = {mu: schur_tableau_oracle(mu, vals) for mu in shapes}
        for mu in shapes:
            assert eval_symfunc(sym_schur(mu), vals) == want[mu], (mu, vals)
        assert eval_symfunc(f, vals) == sum((c * want[mu] for mu, c in f.terms()), Scalar.zero()), vals


def test_tableau_oracle_examples():
    assert schur_tableau_oracle(Partition((1,)), (a, b)) == a + b
    assert schur_tableau_oracle(Partition((2,)), (a,)) == a**2
    assert schur_tableau_oracle(Partition((1, 1)), (a, b)) == a * b
    with pytest.raises(TractabilityError):
        schur_tableau_oracle(Partition((9,)), (a,))


# -- SymFunc container ------------------------------------------------


def test_symfunc_drops_zeros_and_truncates():
    f = SymFunc({Partition((1,)): Scalar.zero(), Partition((2,)): Scalar.one()})
    assert f.terms() == ((Partition((2,)), Scalar.one()),)
    g = SymFunc({Partition((3,)): Scalar.one(), Partition((1,)): t1}, truncation=2)
    assert g.terms() == ((Partition((1,)), t1),)
    assert g.truncation == 2


def test_symfunc_sums_equal_keys():
    f = SymFunc([((1,), t1), ((2,), 1), ((1, 0), t1), ((2,), -1)])
    assert f.terms() == ((Partition((1,)), 2 * t1),)
    # keys that normalise to one partition are summed, not overwritten
    assert SymFunc({(1,): 1, (1, 0): 2}) == SymFunc({(1,): 3})
    assert SymFunc([((3,), 1), ((1,), 1), ((1,), -1)], truncation=2) == SymFunc({}, truncation=2)


def test_row_alphabets_built_once_per_call(monkeypatch):
    calls = []

    def counting(t, i):
        calls.append(i)
        return refined_alphabet(t, i)

    monkeypatch.setattr(expansions, "refined_alphabet", counting)
    stable_grothendieck_schur(Partition((2, 1)), t, 6)
    assert sorted(calls) == [1, 2, 3, 4, 5]
    calls.clear()
    stable_dual_in_G(Partition((1,)), refined_sequence(t), t, 4)
    assert len(calls) == len(set(calls))


def test_symfunc_add_takes_min_truncation():
    f = SymFunc({Partition((1,)): Scalar.one()}, truncation=4)
    g = SymFunc({Partition((1,)): Scalar.one()})
    assert (f + g).truncation == 4
    assert (f + g).coefficient(Partition((1,))) == Scalar.from_rational(2)
    h = SymFunc({Partition((1,)): Scalar.one()}, truncation=2)
    assert (f + h).truncation == 2
    assert (f - f) == SymFunc({}, truncation=4)


def test_symfunc_json_rejects_unknown_keys():
    term = {"partition": [1], "coeff": [{"coefficient": "1"}]}
    assert symfunc_from_json({"terms": [term]}) == sym_schur((1,))
    # a misspelled `terms` or `truncation` once gave the zero or an untruncated element
    for data in (
        {"basis": "schur", "term": [term]},
        {"terms": [term], "truncaton": 2},
        {"terms": [{**term, "junk": 0}]},
        {"terms": [{"partition": [1], "coeff": [{"coefficient": "1", "monomials": {"x": 1}}]}]},
    ):
        with pytest.raises(ValueError, match="does not read"):
            symfunc_from_json(data)
    with pytest.raises(TypeError):
        symfunc_from_json({"terms": [[1]]})


def test_symfunc_json_round_trip():
    f = refined_dual_grothendieck(Partition((2, 1)), t)
    assert symfunc_from_json(symfunc_to_json(f)) == f
    G = stable_grothendieck_schur(Partition((1,)), t, 3)
    assert symfunc_from_json(symfunc_to_json(G)) == G


def test_symfunc_json_term_order():
    f = refined_dual_grothendieck(Partition((2, 1)), t)
    weights = [sum(term["partition"]) for term in symfunc_to_json(f)["terms"]]
    assert weights == sorted(weights)


def test_symfunc_json_validation():
    with pytest.raises(ValueError):
        symfunc_from_json({"basis": "monomial", "truncation": None, "terms": []})
    for D in (True, 1.5, "a", -1):
        with pytest.raises(ValueError):
            symfunc_from_json({"truncation": D, "terms": []})
    assert symfunc_from_json({"truncation": 0, "terms": []}) == SymFunc((), 0)


# -- theorem verifiers ------------------------------------------------


def _sides_agree(sides):
    lhs, rhs = sides
    return lhs == rhs


def test_verify_branching_cases():
    refined = refined_sequence(t)
    assert _sides_agree(_branching_sides(Partition((1,)), t, 2, 2, refined, EMPTY))
    assert _sides_agree(_branching_sides(Partition((2, 1)), t, 2, 2, refined, EMPTY))
    zeros = (Scalar.zero(),) * 5
    assert _sides_agree(_branching_sides(Partition((2, 2)), zeros, 2, 2, refined_sequence(zeros), EMPTY))


def test_verify_branching_general_alphabets():
    bx = prefix_sequence((a,), (b,), (x1,))
    assert _sides_agree(_branching_sides(Partition((2, 1)), t, 2, 2, bx, EMPTY))


def test_verify_branching_caps():
    with pytest.raises(TractabilityError):
        _branching_sides(Partition((4, 3)), t, 2, 2, refined_sequence(t), EMPTY)


def test_verify_cauchy_cases():
    zeros = (Scalar.zero(),) * 5
    assert _sides_agree(_cauchy_sides(zeros, 3, 2, 2))
    assert _sides_agree(_cauchy_sides(t, 0, 2, 2))
    assert _sides_agree(_cauchy_sides(t, 2, 2, 1))


def test_one_skew_builder_serves_every_inner_shape():
    """One `_skew` per lam, whose determinants share their minors, read
    for every mu inside lam, equals a fresh `skew_function` per mu, with
    refined rows and with one-letter rows."""
    bp = refined_sequence(t)
    for bx, by in ((bp, EMPTY), _one_letter_rows(5)):
        for lam in partitions_up_to_weight(5):
            skew = expansions._skew(lam, bx, by, bp, len(lam))
            for mu in subpartitions(lam):
                assert skew(mu) == skew_function(lam, mu, bx, by, bp), (lam, mu, bx)


def test_degree_bound_budget():
    lam = Partition((1,))
    check_degree_bound(lam, 30)
    with pytest.raises(TractabilityError):
        check_degree_bound(lam, 31)
    with pytest.raises(ValueError):
        check_degree_bound(Partition((2,)), 1)
    bx = refined_sequence(t)
    with pytest.raises(TractabilityError):
        truncated_dual_expansion(lam, bx, 1, 300)
    with pytest.raises(TractabilityError):
        stable_grothendieck_schur(lam, t, 31)
    with pytest.raises(TractabilityError):
        stable_dual_in_G(lam, bx, t, 31)


# -- per-entry oracle for the row and cell series ---------------------


def _h(k, x, y):
    """h_k(x/y), zero for k < 0."""
    return _at(h_series(k, x, y), k)


class PerEntryJT:
    """Reference for the per-mu expansions: every matrix entry is its own
    series on its row or cell alphabet, read at its index, straight from
    the closed forms in the docstrings, so no series or top is shared; an
    entry e_m(-A) is h_m(()/A)."""

    @staticmethod
    def det(lam, mu, n, entry):
        cells = range(1, n + 1)
        return det_over_ring([[entry(lam.part(i) - i - mu.part(j) + j, i, j) for j in cells] for i in cells])

    @classmethod
    def coeffs(cls, lam, shapes, size, entry):
        return {mu: c for mu in shapes if (c := cls.det(lam, mu, size(mu), entry))}

    @classmethod
    def schur(cls, lam, bx, by):
        entry = lambda k, i, j: _h(k, bx.alphabet(i), by.alphabet(i))
        return SymFunc(cls.coeffs(lam, subpartitions(lam), lambda mu: len(lam), entry))

    @classmethod
    def refined(cls, lam, bx, by, t):
        entry = lambda k, i, j: _h(k, bx.alphabet(i), by.alphabet(i) + refined_alphabet(t, j))
        return cls.coeffs(lam, subpartitions(lam), lambda mu: len(lam), entry)

    @classmethod
    def truncated(cls, lam, bx, r, D):
        entry = lambda k, i, j: _h(-k, (), bx.alphabet(i))
        return SymFunc(cls.coeffs(lam, superpartitions(lam, D, max_length=r), lambda mu: r, entry), D)

    @classmethod
    def stable_dual(cls, lam, bx, t, D):
        entry = lambda k, i, j: _h(-k, refined_alphabet(t, j), bx.alphabet(i))
        return cls.coeffs(lam, superpartitions(lam, D), lambda mu: max(len(bx.rows), len(mu)), entry)

    @classmethod
    def skew(cls, lam, mu, bx, by, bp, X):
        """skew_function specialized at X: h_k(A ∪ X / B) is the sum over
        m + n = k of h_m(A / B) h_n(X)."""
        entry = lambda k, i, j: _h(k, bx.alphabet(i) + X, by.alphabet(i) + bp.alphabet(j))
        return cls.det(lam, mu, max(len(lam), len(mu)), entry)

    @classmethod
    def stable(cls, lam, t, D):
        entry = lambda k, i, j: _h(-k, (), refined_alphabet(t, i))
        size = lambda mu: max(len(mu), len(lam))
        return SymFunc(cls.coeffs(lam, superpartitions(lam, D), size, entry), D)


HALF, MINUS_ONE, ZERO = Scalar.from_rational(Fraction(1, 2)), Scalar.from_rational(-1), Scalar.zero()
# repeated letters, numbers, a letter shared with t, and a stable row (4)
# past the length of every small shape
SWEEP_BX = [
    prefix_sequence((x1, x1), (x2, ZERO), (HALF, MINUS_ONE, x1)),
    refined_sequence((a, b, x1)),
    AlphabetSequence([(x1, HALF)]),
    AlphabetSequence(((a,), (b,), (x1,), (x2,))),
]
SWEEP_BY = [EMPTY, prefix_sequence((x1,), (a, x2)), AlphabetSequence([(MINUS_ONE,)])]
SWEEP_T = (t1, x1, t1, HALF, t2)


def test_per_mu_expansions_match_per_entry_oracle():
    for lam in partitions_up_to_weight(3):
        D = lam.weight + 2
        assert stable_grothendieck_schur(lam, SWEEP_T, D) == PerEntryJT.stable(lam, SWEEP_T, D), lam
        for bx in SWEEP_BX:
            for by in SWEEP_BY:
                want = PerEntryJT.schur(lam, bx, by)
                assert schur_expand_multischur(lam, bx, by) == want, (lam, bx, by)
                want = PerEntryJT.refined(lam, bx, by, SWEEP_T)
                assert expand_in_refined_basis(lam, bx, by, SWEEP_T) == want, (lam, bx, by)
            for r in (len(lam), len(lam) + 2):
                want = PerEntryJT.truncated(lam, bx, r, D)
                assert truncated_dual_expansion(lam, bx, r, D) == want, (lam, bx, r)
            want = PerEntryJT.stable_dual(lam, bx, SWEEP_T, D)
            assert stable_dual_in_G(lam, bx, SWEEP_T, D) == want, (lam, bx)
            for by in SWEEP_BY:
                # mu of every shape up to weight 3, so mu may be longer than lam or not fit inside it
                for mu in partitions_up_to_weight(3):
                    want = PerEntryJT.skew(lam, mu, bx, by, EMPTY, ())
                    assert skew_multi_schur(lam, mu, bx, by) == want, (lam, mu, bx, by)
                assert multi_schur(lam, bx, by) == PerEntryJT.skew(lam, Partition(), bx, by, EMPTY, ()), (lam, bx, by)
        # |lam| variables tell apart the Schur functions of degree <= |lam|
        X = variables(" ".join(f"X{n}" for n in range(1, lam.weight + 1)))
        for mu in subpartitions(lam):
            for bx in SWEEP_BX:
                for by in SWEEP_BY:
                    for bp in SWEEP_BX:
                        want = PerEntryJT.skew(lam, mu, bx, by, bp, X)
                        assert eval_symfunc(skew_function(lam, mu, bx, by, bp), X) == want, (lam, mu, bx, by, bp)


def test_stable_expansions_share_minors_across_sizes():
    """The stable expansions at every D that SWEEP_T has letters for: one
    call's matrices then range in size from len(lam) to
    len(lam) + D - |lam| rows, so the memo of one call serves several
    sizes, each checked against one det_over_ring per mu."""
    rows = len(SWEEP_T) + 1
    for lam in partitions_up_to_weight(3):
        for D in range(lam.weight, lam.weight + rows - len(lam) + 1):
            assert stable_grothendieck_schur(lam, SWEEP_T, D) == PerEntryJT.stable(lam, SWEEP_T, D), (lam, D)
            for bx in SWEEP_BX:
                want = PerEntryJT.stable_dual(lam, bx, SWEEP_T, D)
                assert stable_dual_in_G(lam, bx, SWEEP_T, D) == want, (lam, bx, D)


# -- every _expand form against its explicit matrix -------------------


def _explicit_expand(lam, shapes, bx, by, cols, e):
    """{mu: det} of `expansions._expand`'s contract, each matrix built entry
    by entry, in its natural row and column order, and handed to
    det_over_ring: h_k(X / Y), or h_{-k} in an e-form, k = lam_i - mu_j - i + j,
    (X, Y) = (bx(i), by(i)) joined with the alphabets of `cols` at j; n rows,
    the most of lam and the shapes, or len(mu) in an e-form."""
    n = max(len(lam), max(map(len, shapes)))

    def entry(mu, i, j):
        k = lam.part(i) - i - mu.part(j) + j
        cx, cy = (cols[0].alphabet(j), cols[1].alphabet(j)) if cols else ((), ())
        m = -k if e else k
        return _at(h_series(m, bx.alphabet(i) + cx, by.alphabet(i) + cy), m)

    out = {}
    for mu in shapes:
        span = range(1, (len(mu) if e else n) + 1)
        if c := det_over_ring([[entry(mu, i, j) for j in span] for i in span]):
            out[mu] = c
    return out


# letters: repeated, zero, rational, and a two-term polynomial
EXPAND_LETTERS = (x1, x2, ZERO, HALF, MINUS_ONE, x1 + x2)
expand_alphabets = st.lists(st.sampled_from(EXPAND_LETTERS), max_size=3).map(tuple)
expand_sequences = st.lists(expand_alphabets, max_size=4).map(AlphabetSequence)
DENSE = AlphabetSequence([(x1, x1 + x2, HALF), (x2,)])  # a first row of three letters


@st.composite
def expand_forms(draw):
    """(lam, shapes, bx, by, cols, e): an h-form over any small shapes, or
    an e-form over shapes that contain lam, with or without column alphabets."""
    e = draw(st.booleans())
    lam = draw(st.sampled_from(partitions_up_to_weight(3)))
    pool = superpartitions(lam, lam.weight + 3) if e else partitions_up_to_weight(4)
    shapes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique=True))
    cols = draw(st.none() | st.tuples(expand_sequences, expand_sequences))
    return lam, shapes, draw(expand_sequences), draw(expand_sequences), cols, e


@given(expand_forms())
@example((Partition(), [Partition()], EMPTY, EMPTY, None, False))  # n = 0
@example((Partition(), [Partition()], EMPTY, EMPTY, None, True))
@example((Partition(), [Partition(), Partition((1,))], EMPTY, DENSE, (DENSE, EMPTY), True))
@example((Partition((1,)), superpartitions((1,), 5), EMPTY, DENSE, None, True))  # a dense e-form first row
@example((Partition((2, 1)), superpartitions((2, 1), 6), DENSE, DENSE, (EMPTY, DENSE), True))
@example((Partition((2, 1)), subpartitions((2, 1)), EMPTY, EMPTY, (EMPTY, refined_sequence(t)), False))
@settings(max_examples=150, deadline=None)
def test_expand_forms_match_explicit_matrices(form):
    """Each form of `_expand`, in whatever row order it reads, against
    det_over_ring of the matrix written out."""
    lam, shapes, bx, by, cols, e = form
    rows = lambda i: (bx.alphabet(i), by.alphabet(i))
    col = (lambda j: (cols[0].alphabet(j), cols[1].alphabet(j))) if cols else None
    assert expansions._expand(lam, shapes, rows, col, e) == _explicit_expand(lam, shapes, bx, by, cols, e)
