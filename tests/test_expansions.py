from fractions import Fraction

import pytest

from multischur.exactalg import Scalar, det_over_ring, scalar_eval, variables
from multischur import expansions
from multischur.expansions import (
    SymFunc,
    TractabilityError,
    TruncationError,
    check_degree_bound,
    eval_symfunc,
    expand_in_refined_basis,
    flagged_schur,
    flagged_tableau_oracle,
    hall_inner,
    multi_schur,
    pieri_mult_h,
    refined_dual_grothendieck,
    schur_expand_multischur,
    schur_tableau_oracle,
    skew_function,
    skew_multi_schur,
    stable_dual_in_G,
    stable_grothendieck_schur,
    sym_schur,
    sym_zero,
    symfunc_from_json,
    symfunc_to_json,
    truncated_dual_expansion,
)
from multischur.fock import bra_refined_pair, ket_general
from multischur.shapes import (
    AlphabetSequence,
    Partition,
    constant_sequence,
    empty_sequence,
    negate_alphabet,
    partitions_up_to_weight,
    prefix_sequence,
    refined_alphabet,
    refined_sequence,
    subpartitions,
    superpartitions,
)
from multischur.supersym import e_elem, h_complete, h_super, supersym_schur
from multischur.verifications import verify_branching, verify_cauchy

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
    bx = constant_sequence((x1, x2))
    by = constant_sequence((a,))
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
        assert all(mu in subpartitions(lam) for mu in f.support())


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
    v = ket_general(lam, bx, by, lam.length)
    for mu in subpartitions(lam):
        assert coeffs.get(mu, Scalar.zero()) == bra_refined_pair(mu, t, v)


# -- dual expansions --------------------------------------------------


def test_truncated_dual_trivial():
    lam = Partition((2, 1))
    f = truncated_dual_expansion(lam, EMPTY, 2, 5)
    assert f.support() == (lam,)
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
    for mu in f.support():
        assert f.coefficient(mu) == g.coefficient(mu)
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
        assert G.support() == (lam,)
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
    if i < j:
        return e_elem(m, tuple(-u for u in t[i - 1 : j - 1]))
    if i == j:
        return Scalar.one() if m == 0 else Scalar.zero()
    return h_complete(m, t[j - 1 : i - 1])


def _h_word(coeff, indices):
    f = sym_schur(()).scale(coeff)
    for n in indices:
        f = pieri_mult_h(f, n)
    return f


def test_skew_function_three_case_determinant():
    # hand-rolled refined skew Jacobi-Trudi vs the engine
    for lam, mu in [
        (Partition((2, 1)), Partition((1,))),
        (Partition((2, 2)), Partition((1,))),
        (Partition((3, 1)), Partition((2,))),
    ]:
        r = max(lam.length, mu.length)
        entries = {}
        for i in range(1, r + 1):
            for j in range(1, r + 1):
                k = lam.part(i) - mu.part(j) - i + j
                entries[i, j] = [
                    (_three_case_h(m, i, j), k - m) for m in range(0, max(k, 0) + 1) if k - m >= 0
                ]
        assert r == 2
        det = sym_zero()
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
    assert pieri_mult_h(sym_schur(()), 2) == sym_schur((2,))
    assert pieri_mult_h(sym_schur((1,)), 1) == sym_schur((2,)) + sym_schur((1, 1))
    got = pieri_mult_h(sym_schur((2,)), 2)
    assert got == sym_schur((4,)) + sym_schur((3, 1)) + sym_schur((2, 2))
    assert pieri_mult_h(sym_schur((2, 1)), 0) == sym_schur((2, 1))
    with pytest.raises(ValueError):
        pieri_mult_h(sym_schur((1,)), -1)


def test_hall_inner_schur_orthonormality():
    shapes = [Partition(()), Partition((1,)), Partition((2, 1))]
    for lam in shapes:
        for mu in shapes:
            want = Scalar.one() if lam == mu else Scalar.zero()
            assert hall_inner(sym_schur(lam), sym_schur(mu)) == want
    assert hall_inner(sym_schur((2, 1)), sym_zero()) == Scalar.zero()


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
    for vals in [(a,), (a, b), (a, b, x1)]:
        for mu in [Partition((2,)), Partition((2, 1)), Partition((2, 2)), Partition((3, 1))]:
            assert eval_symfunc(sym_schur(mu), vals) == schur_tableau_oracle(mu, vals)


def test_tableau_oracle_examples():
    assert schur_tableau_oracle(Partition((1,)), (a, b)) == a + b
    assert schur_tableau_oracle(Partition((2,)), (a,)) == a**2
    assert schur_tableau_oracle(Partition((1, 1)), (a, b)) == a * b
    with pytest.raises(TractabilityError):
        schur_tableau_oracle(Partition((9,)), (a,))


# -- SymFunc container ------------------------------------------------


def test_symfunc_drops_zeros_and_truncates():
    f = SymFunc({Partition((1,)): Scalar.zero(), Partition((2,)): Scalar.one()})
    assert f.support() == (Partition((2,)),)
    g = SymFunc({Partition((3,)): Scalar.one(), Partition((1,)): t1}, truncation=2)
    assert g.support() == (Partition((1,)),)
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
    assert symfunc_from_json({"truncation": 0, "terms": []}) == sym_zero(0)


# -- theorem verifiers ------------------------------------------------


def test_verify_branching_cases():
    assert verify_branching(Partition((1,)), t, 2, 2)
    assert verify_branching(Partition((2, 1)), t, 2, 2)
    zeros = (Scalar.zero(),) * 5
    assert verify_branching(Partition((2, 2)), zeros, 2, 2)


def test_verify_branching_general_alphabets():
    bx = prefix_sequence((a,), (b,), (x1,))
    assert verify_branching(Partition((2, 1)), t, 2, 2, bx=bx, by=EMPTY)


def test_verify_branching_caps():
    with pytest.raises(TractabilityError):
        verify_branching(Partition((1,)), t, 5, 2)
    with pytest.raises(TractabilityError):
        verify_branching(Partition((4, 3)), t, 2, 2)


def test_verify_cauchy_cases():
    zeros = (Scalar.zero(),) * 5
    assert verify_cauchy(zeros, 3, 2, 2)
    assert verify_cauchy(t, 0, 2, 2)
    assert verify_cauchy(t, 2, 2, 1)


def test_verify_cauchy_caps():
    with pytest.raises(TractabilityError):
        verify_cauchy(t, 7, 2, 2)
    with pytest.raises(TractabilityError):
        verify_cauchy(t, 3, 4, 2)


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


class PerEntryJT:
    """Reference for the per-mu expansions: every matrix entry is its own
    h_super/e_elem call on its row or cell alphabet, straight from the
    closed forms in the docstrings, so no series or top is shared."""

    @staticmethod
    def det(lam, mu, n, entry):
        cells = range(1, n + 1)
        return det_over_ring([[entry(lam.part(i) - i - mu.part(j) + j, i, j) for j in cells] for i in cells])

    @classmethod
    def coeffs(cls, lam, shapes, size, entry):
        return {mu: c for mu in shapes if (c := cls.det(lam, mu, size(mu), entry))}

    @classmethod
    def schur(cls, lam, bx, by):
        entry = lambda k, i, j: h_super(k, bx.alphabet(i), by.alphabet(i))
        return SymFunc(cls.coeffs(lam, subpartitions(lam), lambda mu: len(lam), entry))

    @classmethod
    def refined(cls, lam, bx, by, t):
        entry = lambda k, i, j: h_super(k, bx.alphabet(i), by.alphabet(i) + refined_alphabet(t, j))
        return cls.coeffs(lam, subpartitions(lam), lambda mu: len(lam), entry)

    @classmethod
    def truncated(cls, lam, bx, r, D):
        entry = lambda k, i, j: e_elem(-k, negate_alphabet(bx.alphabet(i)))
        return SymFunc(cls.coeffs(lam, superpartitions(lam, D, max_length=r), lambda mu: r, entry), D)

    @classmethod
    def stable_dual(cls, lam, bx, t, D):
        entry = lambda k, i, j: h_super(-k, refined_alphabet(t, j), bx.alphabet(i))
        return cls.coeffs(lam, superpartitions(lam, D), lambda mu: max(len(bx.rows), len(mu)), entry)

    @classmethod
    def skew(cls, lam, mu, bx, by, bp, X):
        """skew_function specialized at X: h_k(A ∪ X / B) is the sum over
        m + n = k of h_m(A / B) h_n(X)."""
        entry = lambda k, i, j: h_super(k, bx.alphabet(i) + X, by.alphabet(i) + bp.alphabet(j))
        return cls.det(lam, mu, max(len(lam), len(mu)), entry)

    @classmethod
    def stable(cls, lam, t, D):
        entry = lambda k, i, j: e_elem(-k, negate_alphabet(refined_alphabet(t, i)))
        size = lambda mu: max(len(mu), len(lam))
        return SymFunc(cls.coeffs(lam, superpartitions(lam, D), size, entry), D)


HALF, MINUS_ONE, ZERO = Scalar.from_rational(Fraction(1, 2)), Scalar.from_rational(-1), Scalar.zero()
# repeated letters, numbers, a letter shared with t, and a stable row (4)
# past the length of every small shape
SWEEP_BX = [
    prefix_sequence((x1, x1), (x2, ZERO), (HALF, MINUS_ONE, x1)),
    refined_sequence((a, b, x1)),
    constant_sequence((x1, HALF)),
    AlphabetSequence(((a,), (b,), (x1,), (x2,))),
]
SWEEP_BY = [EMPTY, prefix_sequence((x1,), (a, x2)), constant_sequence((MINUS_ONE,))]
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
