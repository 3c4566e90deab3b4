import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from multischur import expansions, fock, shapes, supersym, verifications
from multischur.exactalg import Scalar
from multischur.expansions import expand_in_refined_basis
from multischur.fock import (
    PSI,
    PSI_STAR,
    ChargeError,
    FockVector,
    MayaState,
    apply_dressed_fermion,
    apply_exp_H,
    apply_fermion,
    apply_heisenberg,
    bra_refined_pair,
    bra_refined_table,
    ket_general,
    ket_partition,
    ket_refined,
    ket_refined_table,
    vacuum_ket,
)
from multischur.shapes import (
    Partition,
    as_alphabet,
    empty_sequence,
    partitions_up_to_weight,
    prefix_sequence,
    refined_sequence,
    subpartitions,
)
from multischur.suite_sizes import SIZES
from multischur.supersym import h_series, supersym_schur
from oracles import excited_levels, occupied, p_power, sea_top, variables

t1, t2, t3, t4, t5, t6 = variables("t1 t2 t3 t4 t5 t6")
x1, x2 = variables("x1 x2")
y1 = Scalar.variable("y1")

ZERO_VECTOR = FockVector({})


def test_maya_state_properties():
    s = MayaState(0, Partition((2, 1)))
    assert s.energy == 3
    assert s.charge == 0
    assert occupied(s, 1)  # 2 + 0 - 1
    assert occupied(s, -1)  # 1 + 0 - 2
    assert not occupied(s, 0)
    assert occupied(s, -3)  # sea
    assert s.render() == "ψ_1 ψ_{-1} |-2⟩"


def test_vacuum_render():
    assert vacuum_ket(0).items()[0][0].render() == "|0⟩"


def test_fock_vector_charge_homogeneity():
    a = MayaState(0, Partition(()))
    b = MayaState(1, Partition(()))
    with pytest.raises(ChargeError):
        FockVector({a: Scalar.one(), b: Scalar.one()})
    with pytest.raises(ChargeError):
        vacuum_ket(0) + vacuum_ket(1)
    with pytest.raises(ChargeError):
        vacuum_ket(0) - apply_fermion(PSI, 0, vacuum_ket(0))
    # a state whose coefficients cancel carries no charge
    assert FockVector([(a, 1), (b, 1), (b, -1)]) == vacuum_ket(0)


def test_fock_vector_sums_equal_keys():
    a = MayaState(0, Partition(()))
    b = MayaState(0, Partition((1,)))
    v = FockVector([(b, t1), (a, 1), (b, t1), (a, -1)])
    assert v.items() == ((b, 2 * t1),)
    assert v == FockVector({b: 2 * t1})
    assert vacuum_ket(0) - vacuum_ket(0) == ZERO_VECTOR


def test_fermion_on_shifted_vacuum():
    for r in range(4):
        got = apply_fermion(PSI, -r, vacuum_ket(-r))
        assert got == vacuum_ket(-r + 1)


def test_fermion_annihilates():
    assert apply_fermion(PSI, -3, vacuum_ket(-2)) == ZERO_VECTOR
    assert apply_fermion(PSI_STAR, 0, vacuum_ket(0)) == ZERO_VECTOR
    assert apply_fermion(PSI_STAR, 3, vacuum_ket(0)) == ZERO_VECTOR


def test_fermion_mode_is_psi_or_psi_star():
    for mode in ("ψ", "psi*", "ψ*", "PSI", [PSI]):
        with pytest.raises(ValueError):
            apply_fermion(mode, 0, vacuum_ket(0))
        with pytest.raises(ValueError):
            apply_dressed_fermion(mode, 0, (), (), vacuum_ket(0))


def test_fermion_creates_hook():
    got = apply_fermion(PSI, 1, vacuum_ket(0))
    assert got == FockVector({MayaState(1, Partition((1,))): Scalar.one()})


def test_fermions_anticommute():
    v = vacuum_ket(0)
    ab = apply_fermion(PSI, 2, apply_fermion(PSI, 1, v))
    ba = apply_fermion(PSI, 1, apply_fermion(PSI, 2, v))
    assert ab == ba.scale(Scalar.from_rational(-1))


@st.composite
def fock_vectors(draw):
    charge = draw(st.integers(min_value=-1, max_value=1))
    n = draw(st.integers(min_value=1, max_value=2))
    terms = {}
    for _ in range(n):
        lam = Partition(sorted(draw(st.lists(st.integers(1, 3), max_size=2)), reverse=True))
        c = draw(st.integers(min_value=-2, max_value=2))
        if c:
            terms[MayaState(charge, lam)] = Scalar.from_rational(c)
    return FockVector(terms)


@given(fock_vectors(), st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=40, deadline=None)
def test_anticommutator_is_delta(v, m, n):
    lhs = apply_fermion(PSI, m, apply_fermion(PSI_STAR, n, v)) + apply_fermion(
        PSI_STAR, n, apply_fermion(PSI, m, v)
    )
    want = v if m == n else ZERO_VECTOR
    assert lhs == want


@given(fock_vectors(), st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=30, deadline=None)
def test_like_modes_anticommute(v, m, n):
    ab = apply_fermion(PSI, m, apply_fermion(PSI, n, v))
    ba = apply_fermion(PSI, n, apply_fermion(PSI, m, v))
    assert ab + ba == ZERO_VECTOR


def test_heisenberg_on_vacuum():
    assert apply_heisenberg(1, vacuum_ket(0)) == ZERO_VECTOR
    with pytest.raises(ValueError):
        apply_heisenberg(0, vacuum_ket(0))


def test_heisenberg_energy_zero_descendant():
    v = apply_fermion(PSI, 0, apply_fermion(PSI_STAR, -1, vacuum_ket(0)))
    assert apply_heisenberg(1, v) == vacuum_ket(0)


@given(fock_vectors(), st.integers(-3, 3).filter(bool), st.integers(-3, 3))
@settings(max_examples=40, deadline=None)
def test_heisenberg_fermion_commutators(v, m, n):
    am_psi = apply_heisenberg(m, apply_fermion(PSI, n, v))
    psi_am = apply_fermion(PSI, n, apply_heisenberg(m, v))
    assert am_psi - psi_am == apply_fermion(PSI, n - m, v)
    am_star = apply_heisenberg(m, apply_fermion(PSI_STAR, n, v))
    star_am = apply_fermion(PSI_STAR, n, apply_heisenberg(m, v))
    assert am_star - star_am == apply_fermion(PSI_STAR, n + m, v).scale(
        Scalar.from_rational(-1)
    )


@given(fock_vectors(), st.integers(-2, 2).filter(bool), st.integers(-2, 2).filter(bool))
@settings(max_examples=30, deadline=None)
def test_heisenberg_commutator(v, m, n):
    ab = apply_heisenberg(m, apply_heisenberg(n, v))
    ba = apply_heisenberg(n, apply_heisenberg(m, v))
    want = v.scale(Scalar.from_rational(m)) if m + n == 0 else ZERO_VECTOR
    assert ab - ba == want


def test_exp_H_fixes_shifted_vacua():
    for r in (0, 1, 3):
        assert apply_exp_H((x1, x2), (y1,), +1, vacuum_ket(-r)) == vacuum_ket(-r)


def test_exp_H_empty_is_identity():
    v = ket_partition(Partition((2, 1)))
    assert apply_exp_H((), (), +1, v) == v
    assert apply_exp_H((), (), -1, v) == v


@given(fock_vectors())
@settings(max_examples=20, deadline=None)
def test_exp_H_inverse(v):
    w = apply_exp_H((t1,), (), +1, apply_exp_H((t1,), (), -1, v))
    assert w == v


class SeriesExpH:
    """Reference for apply_exp_H(x, y, sign, v): the exponential series
    sum_k (sign H(x/y))^k / k! v with H(x/y) = sum_n p_n(x/y)/n a_n,
    summed until a power of H kills v.  H is memoised on basis states,
    so one instance serves many vectors."""

    def __init__(self, x, y):
        self.x, self.y = as_alphabet(x), as_alphabet(y)
        self.on_state = {}

    def H(self, w):
        total = ZERO_VECTOR
        for state, c in w.items():
            if state not in self.on_state:
                basis = FockVector({state: Scalar.one()})
                h = ZERO_VECTOR
                for n in range(1, state.energy + 1):
                    coeff = p_power(n, self.x, self.y) * Fraction(1, n)
                    if coeff:
                        h = h + apply_heisenberg(n, basis).scale(coeff)
                self.on_state[state] = h
            total = total + self.on_state[state].scale(c)
        return total

    def powers(self, v):
        """[v, H v, H^2 v, ...] up to the last nonzero power."""
        out = [v]
        while out[-1]:
            out.append(self.H(out[-1]))
        return out[:-1]

    def __call__(self, sign, v, powers=None):
        result = ZERO_VECTOR
        factor = Fraction(1)
        for k, term in enumerate(powers or self.powers(v)):
            if k:
                factor *= Fraction(sign, k)
            result = result + term.scale(factor)
        return result


beta = Scalar.variable("beta")
ORACLE_ALPHABETS = [
    ((t1,), ()),
    ((x1, x2), ()),
    ((), (y1,)),
    ((x1,), (y1,)),
    ((-beta, x2), (y1, x1)),
]


@given(fock_vectors(), st.sampled_from(ORACLE_ALPHABETS), st.sampled_from((1, -1)))
@settings(max_examples=40, deadline=None)
def test_exp_H_matches_series(v, alphabets, sign):
    x, y = alphabets
    assert apply_exp_H(x, y, sign, v) == SeriesExpH(x, y)(sign, v)


def test_exp_H_matches_series_exhaustively():
    # pins the strip kinds, the signs and the charge independence
    for x, y in ORACLE_ALPHABETS:
        series = SeriesExpH(x, y)
        for charge in (-3, 0, 2):
            for lam in partitions_up_to_weight(6):
                v = FockVector({MayaState(charge, lam): Scalar.one()})
                powers = series.powers(v)
                for sign in (1, -1):
                    want = series(sign, v, powers)
                    assert apply_exp_H(x, y, sign, v) == want, (charge, lam, x, y, sign)


def test_exp_H_sign_validation():
    with pytest.raises(ValueError):
        apply_exp_H((), (), 2, vacuum_ket(0))


def test_ket_partition_examples():
    assert ket_partition(Partition(())) == vacuum_ket(0)
    got = ket_partition(Partition((2, 1)))
    assert got == FockVector({MayaState(0, Partition((2, 1))): Scalar.one()})


def test_dressed_psi_inverse_by_one_letter():
    # e^{-H(t1)} psi_m e^{H(t1)} = psi_m - t1 psi_{m-1}
    for m in (-1, 0, 2):
        for v in (vacuum_ket(0), ket_partition(Partition((2, 1)))):
            got = apply_dressed_fermion(PSI, m, (), (t1,), v)
            want = apply_fermion(PSI, m, v) - apply_fermion(PSI, m - 1, v).scale(t1)
            assert got == want


def test_dressed_psi_star_inverse_by_one_letter():
    # e^{-H(t1)} psi*_n e^{H(t1)} = sum_i t1^i psi*_{n+i}
    for n in (-3, -1):
        v = vacuum_ket(0)
        got = apply_dressed_fermion(PSI_STAR, n, (), (t1,), v)
        want = ZERO_VECTOR
        power = Scalar.one()
        for i in range(0, 8):
            want = want + apply_fermion(PSI_STAR, n + i, v).scale(power)
            power = power * t1
        assert got == want


def test_dressed_trivial_is_plain_fermion():
    v = ket_partition(Partition((1, 1)))
    assert apply_dressed_fermion(PSI, 1, (), (), v) == apply_fermion(PSI, 1, v)


@given(fock_vectors(), st.integers(-2, 2), st.sampled_from([PSI, PSI_STAR]))
@settings(max_examples=25, deadline=None)
def test_dressing_consistency(v, m, mode):
    # the paper's lemma: e^{H(x/y)} psi_m e^{-H(x/y)} = sum_i h_i(x/y) psi_{m-i}
    # and e^{H(x/y)} psi*_m e^{-H(x/y)} = sum_i h_i(y/x) psi*_{m+i}
    x, y = (x1, x2), (y1,)
    states = [s for s, _ in v.items()]
    if mode == PSI:  # psi_{m-i} kills every state once m - i is in every sea
        n, alphabets, step = m - min(map(sea_top, states), default=m), (x, y), -1
    else:  # psi*_{m+i} kills every state once m + i is above every occupied level
        top = max((max(excited_levels(s), default=sea_top(s)) for s in states), default=m)
        n, alphabets, step = top - m, (y, x), 1
    n = max(n, 0)
    want = ZERO_VECTOR
    for i, h in enumerate(h_series(n, *alphabets)):
        want = want + apply_fermion(mode, m + step * i, v).scale(h)
    assert not apply_fermion(mode, m + step * (n + 1), v)
    assert apply_dressed_fermion(mode, m, x, y, v) == want


def test_ket_general_reduces_to_ket_partition():
    lam = Partition((2, 1))
    assert ket_general(lam, empty_sequence(), empty_sequence()) == ket_partition(lam)
    assert ket_general(Partition(()), refined_sequence((t1, t2)), empty_sequence()) == vacuum_ket(0)


def test_ket_general_unitriangular():
    lam = Partition((2, 1))
    bx = prefix_sequence((x1,), (x2,))
    v = ket_general(lam, bx, empty_sequence())
    assert v.coefficient(MayaState(0, lam)) == Scalar.one()
    for state, _ in v.items():
        assert state.energy <= lam.weight
        if state.energy == lam.weight:
            assert state == MayaState(0, lam)


def ket_step(t, m, v):
    """One row of `ket_refined_table` on v: psi_m e^{H(t)} through
    `fock._ket_step` at the offset d = m - c + 1 of v's charge c."""
    c = v.charge
    if c is None:
        return v
    return FockVector._trusted(c + 1, fock._ket_step(m - c + 1, fock._powers(t) if t else None, v._terms))


def test_ket_refined_examples():
    lam = Partition((2, 1))
    zeros = (Scalar.zero(),) * 3
    assert ket_refined(lam, zeros) == ket_partition(lam)
    got = ket_refined(Partition((1,)), (t1,))
    assert got == ket_partition(Partition((1,)))
    assert got.coefficient(MayaState(0, Partition((1,)))) == Scalar.one()
    ts = (t1, t2, t3, t4)
    assert ket_refined(lam, ts) == ket_general(lam, refined_sequence(ts), empty_sequence())
    # every lam of weight <= 5, with a zero letter in row 2: row by row, the
    # fused step is the unfused composition, and every key is a canonical
    # Partition
    ts = (t1, Scalar.zero(), t2, t3, t4, t5)
    for lam in partitions_up_to_weight(5):
        v = want = vacuum_ket(-len(lam))
        for i in range(len(lam), 0, -1):
            m, t = lam.part(i) - i, ts[i - 1]
            v, want = ket_step(t, m, v), apply_fermion(PSI, m, fock._exp_letter(t, False, want))
            assert v == want and v.items() == want.items(), (lam, i)
            assert all(type(mu) is Partition and mu == Partition(tuple(mu)) for mu in v._terms), (lam, i)
        assert ket_refined(lam, ts) == v, lam
    # len(lam) letters are enough, and fewer are refused
    lam = Partition((1,) * 5)
    assert ket_refined(lam, ts[:5]) == ket_refined(lam, ts)
    with pytest.raises(ValueError, match="refined sequence needs 5 letters, got 4"):
        ket_refined(lam, ts[:4])


def per_row_ket(lam, ts):
    """The refined ket of lam from the operators, row by row: psi_{lam_i - i}
    after e^{H(t_i)}, for i = len(lam), ..., 1."""
    v = vacuum_ket(-len(lam))
    for i in range(len(lam), 0, -1):
        v = apply_fermion(PSI, lam.part(i) - i, fock._exp_letter(ts[i - 1], False, v))
    return v


@pytest.mark.parametrize(
    "ts",
    [
        (t1, t2, t3, t4, t5),
        (t1, Scalar.zero(), t2, Scalar.zero(), t3),
        tuple(Scalar.from_rational(Fraction(k, 3)) for k in (2, -1, 5, 0, -4)),
    ],
    ids=["symbolic", "zeros", "rational"],
)
def test_ket_refined_table_matches_per_row_operators(ts):
    """Every ket of weight <= 5 equals the per-row operator oracle, in the
    same term order, whether it shares rows with other kets of the table
    or stands alone."""
    shapes = partitions_up_to_weight(5)
    table = ket_refined_table(shapes, ts)
    assert len(table) == len(shapes)
    for lam, got in zip(shapes, table):
        want = per_row_ket(lam, ts)
        assert got == want and got.charge == 0 and got.items() == want.items(), lam
        assert ket_refined(lam, ts) == ket_refined_table([lam], ts)[0] == got, lam


def test_ket_refined_table_keeps_order_and_repeats(monkeypatch):
    ts = (t1, t2, t3)
    lams = [(2, 1), (), [1, 0], (2, 1), (1, 1), (2,), (1,)]
    table = ket_refined_table(lams, ts)
    assert table == [ket_refined(lam, ts) for lam in lams]
    assert table[0] == table[3] and table[2] == table[6] and table[1] == vacuum_ket(0)
    assert ket_refined_table([], ()) == []
    # a t shorter than the longest lam is refused before any step
    steps = []

    def spy(*args, real=fock._step):
        steps.append(args)
        return real(*args)

    monkeypatch.setattr(fock, "_step", spy)
    assert ket_refined_table([(1,), (2,)], (t1,)) == [ket_refined((1,), ts), ket_refined((2,), ts)]
    assert steps
    steps.clear()
    with pytest.raises(ValueError, match="refined sequence needs 3 letters, got 2"):
        ket_refined_table([(1,), (1, 1, 1), (2,)], (t1, t2))
    assert steps == []


def test_refined_tables_take_plain_shapes_and_refuse_non_partitions():
    """Both tables pass a Partition through as it is, and give the same
    tables for the same shapes spelled as tuples, as lists or with
    trailing zeros; a non-partition is refused with the error that
    Partition raises for it."""
    ts = (t1, t2, t3)
    shapes = partitions_up_to_weight(3)
    kets = ket_refined_table(shapes, ts)
    rows = bra_refined_table(shapes, ts, kets)
    assert all(got is given for got, given in zip(rows[0], shapes))
    for plain in ([tuple(lam) for lam in shapes], [list(lam) for lam in shapes], [(*lam, 0) for lam in shapes]):
        assert ket_refined_table(plain, ts) == kets
        plain_rows = bra_refined_table(plain, ts, kets)
        assert plain_rows == rows
        assert all(type(mu) is Partition for mu in plain_rows[0])
    for bad in [(1, 2), (-1,), [2, 3, 1], (1.0,), (True,), "21", {1: 1}]:
        with pytest.raises((TypeError, ValueError)) as want:
            Partition(bad)
        for table in (lambda: ket_refined_table([(1,), bad], ts), lambda: bra_refined_table([(1,), bad], ts, kets)):
            with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
                table()


def test_orthonormality_catches_a_ket_memo_without_the_length(monkeypatch):
    """A ket table whose memo forgets the ket's length l shares rows
    lam_i..lam_l between kets of different lengths, whose letters differ,
    and the orthonormality suite fails at its default.  beta-chain cannot
    catch it: all its letters are -beta."""

    def forgetful(lams, t):
        lams, t = [Partition(lam) for lam in lams], as_alphabet(t)
        rows, kets = {}, []
        for lam in lams:
            terms = {Partition(): Scalar.one()}
            for i in range(len(lam), 0, -1):
                key = lam[i - 1 :]
                if key not in rows:
                    rows[key] = fock._ket_step(lam[i - 1] + 1, fock._powers(t[i - 1]), terms)
                terms = rows[key]
            kets.append(FockVector._trusted(0, terms))
        return kets

    (default,) = [field.default for field in SIZES["orthonormality"]]
    assert verifications.orthonormality(default)["passed"]
    monkeypatch.setattr(verifications, "ket_refined_table", forgetful)
    summary = verifications.orthonormality(default)
    assert summary["passed"] is False and summary["cases"] == 361
    assert "pair [1, 1] | [1, 1, 1]: got t1 - t2, want 0" in summary["failures"]


def test_bra_refined_pair_orthonormality():
    ts = (t1, t2, t3, t4)
    shapes = [Partition(p) for p in [(), (1,), (2,), (1, 1), (2, 1), (3,)]]
    for lam in shapes:
        v = ket_refined(lam, ts)
        for mu in shapes:
            assert bra_refined_pair(mu, ts, v) == (Scalar.one() if mu == lam else Scalar.zero())


def test_bra_refined_table_is_r_stable():
    """A bra one or two parts longer than mu and than every ket state, in
    the same table, changes no pair of mu: each bra is read once its own
    parts run out, whatever the other bras read."""
    ts = (t1, t2, t3, t4, t5, t6)
    bx, by = prefix_sequence((x1,), (x2, t1)), prefix_sequence((y1,), ())
    shapes = partitions_up_to_weight(3)
    for lam in shapes:
        refined, general = ket_refined(lam, ts), ket_general(lam, bx, by)
        for v in (refined, general, refined + general):
            longest = max(len(s.parts) for s, _ in v.items())
            for mu in shapes:
                alone = bra_refined_pair(mu, ts, v)
                r = max(len(mu), longest) + 1
                for extra in (1, 2):
                    longer = Partition((1,) * (r + extra - 1))  # extra parts past mu and every ket state
                    assert bra_refined_table([mu, longer], ts, [v])[0][mu] == alone, (lam, mu, extra)


def test_bra_refined_pair_vacuum():
    assert bra_refined_pair(Partition(()), (t1,), vacuum_ket(0)) == Scalar.one()


def test_bra_refined_pair_charge_guard():
    with pytest.raises(ChargeError):
        bra_refined_pair(Partition(()), (t1,), vacuum_ket(1))


def per_mu_bra_pair(mu, t, v):
    """Reference for the rows of bra_refined_table: one walk per mu, every
    step taken even on the zero vector."""
    mu = Partition(mu)
    internal = max((len(s.parts) for s, _ in v.items()), default=0)
    r = max(len(mu), internal) + 1
    t = as_alphabet(t)
    if len(t) < r:
        raise ValueError(f"refined sequence needs {r} letters, got {len(t)}")
    w = v
    for i in range(1, r + 1):
        w = apply_fermion(PSI_STAR, mu.part(i) - i, w)
        w = apply_exp_H((t[i - 1],), (), -1, w)
    return w.coefficient(MayaState(-r, Partition()))


def test_bra_refined_pairs_match_per_mu_oracle():
    ts = (t1, t2, t3, t4, t5, t6)
    mus = partitions_up_to_weight(5)  # longer than every ket state below
    bx, by = prefix_sequence((x1,), (x2, t1)), prefix_sequence((y1,), ())
    kets = {"vacuum": vacuum_ket(0), "zero": ZERO_VECTOR}
    for lam in partitions_up_to_weight(3):
        refined, general = ket_refined(lam, ts), ket_general(lam, bx, by)
        kets.update({("refined", lam): refined, ("general", lam): general, ("sum", lam): refined + general})
    for name, v in kets.items():
        (got,) = bra_refined_table(mus, ts, [v])
        assert list(got) == mus
        for mu in mus:
            assert got[mu] == per_mu_bra_pair(mu, ts, v), (name, mu)
            assert got[mu] == bra_refined_pair(mu, ts, v), (name, mu)
    assert bra_refined_table([], ts, [kets["refined", (2, 1)]]) == [{}]
    assert bra_refined_table([(1,), [1, 0]], ts, [vacuum_ket(0)]) == [{Partition((1,)): Scalar.zero()}]
    # a repeated bra reaches the last row once, and its pair is read there
    assert bra_refined_table([(1,), [1, 0]], ts, [ket_refined((1,), ts)]) == [{Partition((1,)): Scalar.one()}]


def test_bra_refined_table_steps_only_first_parts_is_exact():
    """The walk steps at row i only the states whose first part is mu_i;
    every pair still equals the walk that steps every state, for each mu
    of weight <= 5 against each charge-0 basis state of weight <= 6 and a
    sum of them, with symbolic, partly zero and rational letters."""
    t7 = Scalar.variable("t7")
    zero = Scalar.zero()
    letters = {
        "symbolic": (t1, t2, t3, t4, t5, t6, t7),
        "zeros": (t1, zero, t3, t4, zero, t6, t7),
        "rational": (Fraction(1, 2), -3, 2, Fraction(-2, 3), 5, 1, Fraction(7, 4)),
    }
    mus = partitions_up_to_weight(5)
    states = partitions_up_to_weight(6)
    kets = [FockVector({MayaState(0, lam): 1}) for lam in states]
    kets.append(FockVector([(MayaState(0, lam), STEP_COEFFS[n % len(STEP_COEFFS)]) for n, lam in enumerate(states)]))
    for name, ts in letters.items():
        table = bra_refined_table(mus, ts, kets)
        for v, row in zip(kets, table):
            assert list(row) == mus
            for mu in mus:
                assert row[mu] == per_mu_bra_pair(mu, ts, v), (name, mu, v)
        assert sum(bool(x) for row in table for x in row.values()) > len(kets), name


def test_bra_steps_take_only_states_of_first_part_d(monkeypatch):
    """Every state that the suites' walks hand to `_bra_step` has first
    part d = m - c + 1, so psi*_m removes its first row with sign +: the
    bra step's domain holds every state that a request reaches."""
    inputs, entries = [], []

    def spying(d, powers, states, step=fock._bra_step):
        assert all(states.values()), d  # no state is handed an empty row
        inputs.extend((lam, d) for lam in states)
        entries.extend((lam, k) for lam, row in states.items() for k in row)
        return step(d, powers, states)

    monkeypatch.setattr(fock, "_bra_step", spying)
    assert verifications.orthonormality(4)["passed"]
    assert verifications.dual_engine(4)["passed"]
    assert len(entries) > 100 and len(inputs) == 44  # (state, ket) entries, and the states stepped once each
    for lam, d in inputs:
        assert lam.part(1) == d >= 1, (lam, d)
        assert fock._annihilate(lam, d) == (0, Partition(lam[1:])), (lam, d)


def test_bra_walk_steps_no_row_past_the_parts_of_a_bra(monkeypatch):
    """The suites' walks read each bra's pairs as soon as its parts run
    out, so no step has p = 0: orthonormality and dual-engine at maxWeight
    4 make 22 bra steps."""
    steps = []

    def counting(d, powers, w, step=fock._bra_step):
        steps.append(d)
        return step(d, powers, w)

    monkeypatch.setattr(fock, "_bra_step", counting)
    assert verifications.orthonormality(4)["passed"]
    assert verifications.dual_engine(4)["passed"]
    assert len(steps) == 22
    assert min(steps) >= 1


def test_bra_refined_pairs_share_prefixes_and_stop_at_zero(monkeypatch):
    ts = (t1, t2, t3, t4, t5, t6)
    mus = partitions_up_to_weight(4)
    v = ket_refined(Partition((2, 1)), ts)
    steps = []

    def counting(d, powers, w, step=fock._bra_step):
        steps.append(d)
        return step(d, powers, w)

    monkeypatch.setattr(fock, "_bra_step", counting)
    assert bra_refined_table(mus, ts, [v]) == [{mu: per_mu_bra_pair(mu, ts, v) for mu in mus}]
    walked = len(steps)
    assert steps == [2, 1]  # the rows of (2, 1); no bra steps a row past its parts
    steps.clear()
    for mu in mus:
        bra_refined_pair(mu, ts, v)
    assert walked < len(steps)  # shared prefixes
    assert 2 * len(steps) < sum(max(len(mu), 2) + 1 for mu in mus)  # early exits
    steps.clear()
    assert bra_refined_table(mus, ts, [ZERO_VECTOR]) == [dict.fromkeys(mus, Scalar.zero())]
    assert steps == []


def test_bra_refined_pairs_errors_match_single_pairs(monkeypatch):
    def no_step(*args):
        raise AssertionError("a step ran before the arguments were checked")

    short, ts = (t1,), (t1, t2, t3)
    v = ket_refined(Partition((1,)), ts)
    charged = [vacuum_ket(1), apply_fermion(PSI_STAR, -1, vacuum_ket(0))]
    monkeypatch.setattr(fock, "_bra_step", no_step)
    mu = Partition((1, 1))
    with pytest.raises(ValueError) as single:
        bra_refined_pair(mu, short, v)
    with pytest.raises(ValueError) as walk:
        bra_refined_table([Partition(()), mu], short, [v])
    assert str(walk.value) == str(single.value) == "refined sequence needs 2 letters, got 1"
    for w in charged:
        with pytest.raises(ChargeError) as single:
            bra_refined_pair(Partition(()), (t1,), w)
        with pytest.raises(ChargeError) as walk:
            bra_refined_table([Partition(())], (t1,), [w])
        assert str(walk.value) == str(single.value)
    monkeypatch.undo()
    # one letter serves every bra of at most one part
    for mu in [Partition(()), Partition((2,))]:
        assert bra_refined_pair(mu, short, v) == bra_refined_pair(mu, ts, v)
        assert bra_refined_table([Partition(()), mu], short, [v]) == bra_refined_table([Partition(()), mu], ts, [v])


def test_bra_refined_table_matches_one_ket_pairs():
    """Kets whose longest states differ in length share one walk, and each
    row is the ket's table alone; the zero vector and no bras give zeros
    and empty rows, and no kets give no rows, whatever the letters."""
    ts = (t1, t2, t3, t4, t5, t6)
    bx, by = prefix_sequence((x1,), (x2, t1)), prefix_sequence((y1,), ())
    kets = [ZERO_VECTOR, vacuum_ket(0)]
    for lam in partitions_up_to_weight(3):
        kets += [ket_refined(lam, ts), ket_general(lam, bx, by)]
    kets.append(kets[-1] + kets[3])
    assert len({max((len(s.parts) for s, _ in v.items()), default=0) for v in kets}) == 4
    mus = partitions_up_to_weight(4)
    table = bra_refined_table(mus, ts, kets)
    assert table == [bra_refined_table(mus, ts, [v])[0] for v in kets]
    assert all(list(row) == mus for row in table)
    assert table[0] == dict.fromkeys(mus, Scalar.zero())
    assert table[4] == {mu: Scalar.one() if mu == (1,) else Scalar.zero() for mu in mus}  # the refined ket of (1,)
    assert bra_refined_table([], ts, kets) == [{}] * len(kets)
    assert bra_refined_table(mus, ts, []) == []
    assert bra_refined_table([(1,)], (), []) == []
    # the rows are separate dicts, one per ket
    table[0][Partition((1,))] = t1
    assert table[1][Partition((1,))] == Scalar.zero()


def test_bra_refined_table_refuses_any_bad_ket_before_any_step(monkeypatch):
    def no_step(*args):
        raise AssertionError("a step ran before the arguments were checked")

    ts = (t1, t2, t3)
    good = [vacuum_ket(0), ket_refined(Partition((1,)), ts)]
    monkeypatch.setattr(fock, "_bra_step", no_step)
    for bad in (vacuum_ket(1), apply_fermion(PSI_STAR, -1, vacuum_ket(0))):
        with pytest.raises(ChargeError):
            bra_refined_table([Partition((1,))], ts, [*good, bad, *good])
    # the letters count the bras' parts, not the kets': a bra of three parts
    # is refused with two letters, and bras of at most one part pair with
    # the ket of (2, 1) as they do with a longer t
    mus = [Partition(()), Partition((1,))]
    kets = [*good, ket_refined(Partition((2, 1)), (t1, t2))]
    with pytest.raises(ValueError, match="refined sequence needs 3 letters, got 2"):
        bra_refined_table([*mus, Partition((1, 1, 1))], (t1, t2), kets)
    monkeypatch.undo()
    assert bra_refined_table(mus, (t1, t2), kets) == bra_refined_table(mus, ts, kets)
    assert bra_refined_table(mus, (t1,), kets) == bra_refined_table(mus, ts, kets)
    assert bra_refined_table(mus, (t1, t2), good) == [bra_refined_table(mus, (t1, t2), [v])[0] for v in good]


def test_bra_refined_table_reads_the_letters_of_the_longest_bra():
    """The walk reads t_1..t_l for the longest bra, of l parts, whatever the
    kets' states: exactly l letters give the table of a longer t, and l - 1
    letters are refused."""
    assert bra_refined_pair((1,), (t1,), ket_refined((1,), (t1,))) == Scalar.one()
    ts = (t1, t2, t3, t4, t5, t6)
    bx, by = prefix_sequence((x1,), (x2, t1)), prefix_sequence((y1,), ())
    kets = [ket_refined(lam, ts) + ket_general(lam, bx, by) for lam in partitions_up_to_weight(4)]
    for l in range(5):
        mus = partitions_up_to_weight(l)  # the longest is (1^l)
        table = bra_refined_table(mus, ts[:l], kets)
        assert table == bra_refined_table(mus, ts, kets), l
        assert any(x for row in table for x in row.values()), l
        if l:
            with pytest.raises(ValueError, match=f"refined sequence needs {l} letters, got {l - 1}"):
                bra_refined_table(mus, ts[: l - 1], kets)


def test_dressed_fermion_pairs_to_h_super():
    # <0| e^{H(x/y)} psi_{l-1} e^{-H(x/y)} psi*_{-1} |0> = h_l(x/y)
    vac, hole = MayaState(0, Partition(())), apply_fermion(PSI_STAR, -1, vacuum_ket(0))
    assert apply_fermion(PSI, -1, hole).coefficient(vac) == Scalar.one()
    assert apply_fermion(PSI, 0, hole).coefficient(vac) == Scalar.zero()
    for l in (0, 1, 2, 3):
        got = apply_dressed_fermion(PSI, l - 1, (x1, x2), (y1,), hole).coefficient(vac)
        assert got == h_series(l, (x1, x2), (y1,))[l], l


def test_exp_H_vacuum_pairing_is_supersym_schur():
    # <0| e^{H(x/y)} |lam> is the supersymmetric Schur function s_lam(x/y)
    vac = MayaState(0, Partition(()))
    for lam in partitions_up_to_weight(4):
        got = apply_exp_H((x1, x2), (y1,), 1, ket_partition(lam)).coefficient(vac)
        assert got == supersym_schur(lam, (x1, x2), (y1,)), lam


def test_boson_fermion_extraction():
    for lam in [Partition(()), Partition((1,)), Partition((2, 1)), Partition((3, 2))]:
        v = ket_partition(lam)
        w = apply_exp_H((x1, x2), (y1,), +1, v)
        got = w.coefficient(MayaState(0, Partition(())))
        assert got == supersym_schur(lam, (x1, x2), (y1,))


def test_fock_vector_scale_and_sub():
    v = vacuum_ket(0)
    assert v.scale(Scalar.zero()) == ZERO_VECTOR
    assert v - v == ZERO_VECTOR
    assert (v + v) == v.scale(Scalar.from_rational(2))
    assert v.coefficient(MayaState(0, Partition((1,)))) == Scalar.zero()


def test_fermion_route_calls_no_determinant(monkeypatch):
    """The fermion route must stay independent of the determinant route,
    so the cross-check suites compare two computations, not one."""

    def no_det(*args, **kwargs):
        raise AssertionError("the fermion route called a determinant")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "multischur" and hasattr(module, "det_over_ring"):
            monkeypatch.setattr(module, "det_over_ring", no_det)
        # the Laplace routine behind det_over_ring and every Jacobi-Trudi determinant
        if name.split(".")[0] == "multischur" and hasattr(module, "_laplace"):
            monkeypatch.setattr(module, "_laplace", no_det)
    with pytest.raises(AssertionError):
        supersym_schur((1,), (x1,), ())
    lam, t = Partition((2, 1)), (t1, t2, t3)
    ket = ket_refined(lam, t)
    assert bra_refined_pair(lam, t, ket) == Scalar.one()
    shapes = partitions_up_to_weight(3)
    pairs = bra_refined_table(shapes, t + (t1,), [ket])
    assert pairs == [{mu: Scalar.one() if mu == lam else Scalar.zero() for mu in shapes}]
    general = ket_general(lam, prefix_sequence((x1,), (x2,)), prefix_sequence((y1,)))
    assert apply_exp_H((x1, x2), (y1,), +1, general)
    assert apply_exp_H((x1, x2), (y1,), -1, general)
    assert apply_dressed_fermion(PSI, 1, (x1,), (y1,), ket)
    assert verifications.orthonormality(3)["passed"]


def test_dual_engine_catches_a_fault_in_h_series(monkeypatch):
    """The fermion route reads no complete functions, so a fault in
    h_series shows up on the determinant side alone and the suite fails.
    The fault is planted in `_h_series`, the builder behind h_series that
    the expansions call with alphabets already coerced."""
    real = supersym._h_series

    def drops_last_x(n, x, y):
        return real(n, x[:-1], y)

    assert verifications.dual_engine(3)["passed"]
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "multischur" and hasattr(module, "_h_series"):
            monkeypatch.setattr(module, "_h_series", drops_last_x)
    assert expansions._h_series(1, (x1, x2), ())[1] == x1  # the determinant route reads the patched series
    assert h_series(1, (x1, x2))[1] == x1
    assert not verifications.dual_engine(3)["passed"]


LETTER_NAMES = variables("x1 x2 y1 y2 t1")


def _random_letter(rng: random.Random) -> Scalar:
    """A symbolic, zero, negative, rational or linear-combination letter over
    a few names, so that letters repeat within and across x, y and t."""
    name = rng.choice(LETTER_NAMES)
    kind = rng.randrange(5)
    if kind == 0:
        return name
    if kind == 1:
        return Scalar.zero()
    if kind == 2:
        return -name
    if kind == 3:
        return Scalar.from_rational(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)))
    return name * Fraction(rng.randint(1, 3), rng.randint(1, 2)) - rng.choice(LETTER_NAMES)


def _random_cross_check(trials: int, seed: int) -> tuple[int, int]:
    """(pairs, mismatches): expand_in_refined_basis against bra_refined_table
    on ket_general, for random lambda of weight <= 5, rows of 0-3 random
    letters in bx and by, and len(lambda) + 3 random letters in t."""
    rng = random.Random(seed)
    shapes = partitions_up_to_weight(5)
    pairs = mismatches = 0
    for _ in range(trials):
        lam = rng.choice(shapes)
        bx, by = (
            prefix_sequence(*([_random_letter(rng) for _ in range(rng.randint(0, 3))] for _ in range(len(lam))))
            for _ in range(2)
        )
        t = [_random_letter(rng) for _ in range(len(lam) + 3)]
        coeffs = expand_in_refined_basis(lam, bx, by, t)
        (row,) = bra_refined_table(subpartitions(lam), t, [ket_general(lam, bx, by)])
        for mu, pair in row.items():
            pairs += 1
            mismatches += coeffs.get(mu, Scalar.zero()) != pair
    return pairs, mismatches


def test_random_rows_agree_across_routes():
    """The suites pass fock only symbolic letters, one per row; numeric,
    zero and repeated letters reach the early return and the numeric
    powers of the strip step only here."""
    pairs, mismatches = _random_cross_check(200, seed=0)
    assert pairs > 1000
    assert mismatches == 0


def test_random_rows_catch_a_dropped_y_letter(monkeypatch):
    """The same draw fails when the fermion route drops the second y letter,
    so the check above cannot pass for want of multi-letter rows."""
    real = fock.apply_exp_H

    def drops_second_y(x, y, sign, v):
        y = as_alphabet(y)
        return real(x, y[:1] + y[2:], sign, v)

    monkeypatch.setattr(fock, "apply_exp_H", drops_second_y)
    assert _random_cross_check(200, seed=0)[1] > 0


def test_fermion_steps_build_valid_shapes():
    """psi, psi* and a_m build each new shape without the checking
    constructor; every one must equal its checked copy, with no trailing
    zero, including the steps that fill the sea up to a new vacuum."""
    vectors = verifications._test_vectors()
    vectors.append(ket_partition((1, 1, 1)))
    seen = 0
    for v in vectors:
        results = [apply_fermion(mode, m, v) for mode in (PSI, PSI_STAR) for m in range(-6, 7)]
        results += [apply_heisenberg(m, v) for m in (-3, -2, -1, 1, 2, 3)]
        for w in results:
            for state, _ in w.items():
                lam = state.parts
                assert type(lam) is Partition
                assert not lam or lam[-1] > 0, state
                assert Partition(list(lam)) == lam
                seen += 1
    assert seen > 100
    # psi_{-2} on the state (1,1) of charge 0 fills the sea: the vacuum of charge 1
    assert apply_fermion(PSI, -2, ket_partition((1, 1))) == vacuum_ket(1)


def test_maya_state_normalizes_parts():
    """A MayaState names one physical state whatever tuple it is given:
    trailing zeros are dropped and a non-partition is refused."""
    assert MayaState(0, (1, 0)) == MayaState(0, (1,))
    assert hash(MayaState(0, [2, 1, 0, 0])) == hash(MayaState(0, Partition((2, 1))))
    assert type(MayaState(0, [2, 1]).parts) is Partition
    for bad in [(1, 2), (1, -1), (1.5,)]:
        with pytest.raises((TypeError, ValueError)):
            MayaState(0, bad)
    # psi*_0 removes the one excited particle of |1> at charge 0
    assert apply_fermion(PSI_STAR, 0, FockVector({MayaState(0, (1, 0)): 1})) == vacuum_ket(-1)


def test_fock_vector_charge_rules():
    a, b = MayaState(0, ()), MayaState(1, ())
    assert vacuum_ket(0) != vacuum_ket(1)
    assert FockVector().charge is None
    assert FockVector([(a, 1), (a, -1)]).charge is None
    assert vacuum_ket(2).charge == 2
    for zero in [vacuum_ket(2) - vacuum_ket(2), vacuum_ket(0).scale(0), apply_fermion(PSI_STAR, 0, vacuum_ket(0))]:
        assert zero.charge is None
        assert zero == FockVector()
    assert vacuum_ket(0).coefficient(b) == Scalar.zero()
    assert vacuum_ket(1).coefficient(b) == Scalar.one()
    assert FockVector().coefficient(a) == Scalar.zero()
    assert vacuum_ket(0) + FockVector() == vacuum_ket(0)
    assert FockVector() + vacuum_ket(3) == vacuum_ket(3)


# Oracle for the operators that build their results directly: the
# collect-based steps on MayaStates, every sum taken by the public
# FockVector constructor and every shape checked by Partition.


def _oracle_create(state, m):
    c, lam = state.charge, state.parts
    if m <= sea_top(state):
        return None
    levels = excited_levels(state)
    j = sum(1 for lev in levels if lev > m)
    if j < len(levels) and levels[j] == m:
        return None
    parts = [lam[i] - 1 for i in range(j)] + [m - c + j] + list(lam[j:])
    return ((-1) ** j, MayaState(c + 1, Partition(parts)))


def _oracle_annihilate(state, m):
    c, lam = state.charge, state.parts
    levels = excited_levels(state)
    j = sum(1 for lev in levels if lev > m)
    if j < len(levels) and levels[j] == m:
        parts = [lam[i] + 1 for i in range(j)] + list(lam[j + 1 :])
    elif m <= sea_top(state):
        j = len(lam) + (sea_top(state) - m)
        parts = [p + 1 for p in lam] + [1] * (c - m - 1 - len(lam))
    else:
        return None
    return ((-1) ** j, MayaState(c - 1, Partition(parts)))


def oracle_fermion(mode, m, v):
    act = _oracle_create if mode == PSI else _oracle_annihilate
    pairs = []
    for state, coeff in v.items():
        hit = act(state, m)
        if hit is not None:
            sign, new = hit
            pairs.append((new, coeff if sign > 0 else -coeff))
    return FockVector(pairs)


def oracle_heisenberg(m, v):
    pairs = []
    for state, coeff in v.items():
        for u in range(sea_top(state) - abs(m), (state.parts[0] if state.parts else 0) + state.charge):
            if not occupied(state, u) or occupied(state, u - m):
                continue
            s1, mid = _oracle_annihilate(state, u)
            s2, new = _oracle_create(mid, u - m)
            pairs.append((new, coeff if s1 * s2 > 0 else -coeff))
    return FockVector(pairs)


def oracle_vertical_strips(lam):
    """Every mu inside lam with 0 <= lam_i - mu_i <= 1 in every row: a
    vertical strip lam/mu by its definition, in no particular order."""
    rows = range(1, len(lam) + 1)
    return [mu for mu in subpartitions(lam) if all(0 <= lam.part(i) - mu.part(i) <= 1 for i in rows)]


def oracle_exp_letter(t, vertical, v):
    if not t:
        return v
    pairs = []
    strips = oracle_vertical_strips if vertical else shapes.horizontal_strips
    for state, coeff in v.items():
        for mu in strips(state.parts):
            k = state.parts.weight - mu.weight
            pairs.append((MayaState(state.charge, Partition(list(mu))), coeff * (-t if vertical else t) ** k))
    return FockVector(pairs)


ORACLE_VECTORS = st.one_of(fock_vectors(), st.sampled_from(verifications._test_vectors()))
ORACLE_LETTERS = [t1, -beta, x1 - y1, Scalar.from_rational(2), Scalar.from_rational(Fraction(-1, 2)), Scalar.zero()]


@given(ORACLE_VECTORS, st.integers(-6, 6), st.sampled_from([PSI, PSI_STAR]))
@settings(max_examples=150, deadline=None)
def test_fermion_matches_collect_oracle(v, m, mode):
    got, want = apply_fermion(mode, m, v), oracle_fermion(mode, m, v)
    assert got == want
    assert got.charge == want.charge
    assert got.items() == want.items()


@given(ORACLE_VECTORS, st.integers(-6, 6).filter(bool))
@settings(max_examples=100, deadline=None)
def test_heisenberg_matches_collect_oracle(v, m):
    assert apply_heisenberg(m, v) == oracle_heisenberg(m, v)


@given(ORACLE_VECTORS, st.sampled_from(ORACLE_LETTERS), st.booleans())
@settings(max_examples=100, deadline=None)
def test_exp_letter_matches_collect_oracle(v, t, vertical):
    got, want = fock._exp_letter(t, vertical, v), oracle_exp_letter(t, vertical, v)
    assert got == want
    assert got.charge == want.charge


def strip_table(lam, vertical):
    """The bare strip table of `_moves` as a list of its (mu, n) moves,
    whose top is the largest n."""
    top, moves = fock._moves(lam, None, vertical)
    assert top == max(n for _, n in moves)
    return list(moves)


def test_vertical_strip_tables_match_brute_force():
    for lam in partitions_up_to_weight(7):
        table = strip_table(lam, True)
        assert sorted(table) == sorted((mu, lam.weight - mu.weight) for mu in oracle_vertical_strips(lam)), lam
        # built unchecked, so compared with the checked copies, which drop a trailing zero
        assert all(type(mu) is Partition and mu == Partition(tuple(mu)) for mu, _ in table), lam
        assert strip_table(lam, False) == [(mu, lam.weight - mu.weight) for mu in shapes.horizontal_strips(lam)], lam
    # the order in which a strip step sums its terms
    want = [(2, 2, 1), (2, 1, 1), (1, 1, 1), (2, 2), (2, 1), (1, 1)]
    assert [mu for mu, _ in strip_table(Partition((2, 2, 1)), True)] == want
    assert [mu for mu, _ in strip_table(Partition((1, 1)), True)] == [(1, 1), (1,), ()]


def test_move_tables_are_built_once_per_state_offset_and_kind(monkeypatch):
    """A cold orthonormality suite builds each (lam, d, kind) table once
    and keeps it; the fermion tables read the bare ones, so the strips
    are enumerated once per bare table only, and a second run of the
    suite builds nothing."""
    calls, keys = [], []

    def counting(lam, enumerate_strips=fock.horizontal_strips):
        calls.append(lam)
        return enumerate_strips(lam)

    def recording(lam, d, vertical, memo=fock._moves):
        keys.append((lam, d, vertical))
        return memo(lam, d, vertical)

    memo = fock._moves
    monkeypatch.setattr(fock, "horizontal_strips", counting)
    monkeypatch.setattr(fock, "_moves", recording)
    memo.cache_clear()
    try:
        assert verifications.orthonormality(4)["passed"]
        info = memo.cache_info()
        # every distinct key missed once and was kept: none was built twice
        assert len(set(keys)) == info.misses == info.currsize == 32
        assert info.hits == len(keys) - info.misses == 35
        bare = {key for key in keys if key[1] is None}
        assert len(calls) == len(bare) == 10
        built = len(calls)
        assert verifications.orthonormality(4)["passed"]
        assert len(calls) == built and memo.cache_info().misses == info.misses
    finally:
        memo.cache_clear()  # drop the tables built through the counting enumerators


def test_move_memo_holds_each_fermion_suite_at_its_cap():
    """One cold run of each suite that steps through `_moves`, at its
    caps, fits in the memo without an eviction: every table it builds
    is built once."""
    memo = fock._moves
    fills = {}
    try:
        for theorem in ("orthonormality", "dual-engine", "beta-chain"):
            memo.cache_clear()
            assert verifications.SUITES[theorem](*(field.cap for field in SIZES[theorem]))["passed"]
            info = memo.cache_info()
            assert info.misses == info.currsize <= fock.MOVE_CACHE_SIZE, theorem
            fills[theorem] = info.currsize
    finally:
        memo.cache_clear()
    assert fills == {"orthonormality": 176, "dual-engine": 134, "beta-chain": 89}


def by_first_part(moves):
    """Moves ((nu, i), ...) grouped as the bra tables of `_moves` group
    them: ((p, ((nu, i), ...)), ...) by nu's first part p, in order."""
    groups = {}
    for nu, i in moves:
        groups.setdefault(nu.part(1), []).append((nu, i))
    return tuple((p, tuple(group)) for p, group in groups.items())


def test_bra_tables_group_the_popped_strips_by_first_part():
    """A bra table of `_moves` is the bare vertical table of lam[1:],
    grouped by the first part of each nu: at most two groups, lam_2 and
    lam_2 - 1, each in the bare table's order."""
    for lam in partitions_up_to_weight(7):
        if not lam:
            continue
        top, groups = fock._moves(lam, lam.part(1), True)
        bare_top, bare = fock._moves(Partition(lam[1:]), None, True)
        assert top == bare_top and groups == by_first_part(bare), lam
        assert [p for p, _ in groups] == [lam.part(2), lam.part(2) - 1][: len(groups)], lam


def add_into(acc, key, c):
    """acc[key] += c, dropping a sum that cancels, as the steps do."""
    total = acc.get(key, Scalar.zero()) + c
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


@pytest.mark.parametrize(
    "kind, fault", [("ket", "sign"), ("ket", "part"), ("bra", "sign"), ("bra", "keep"), ("bra", "file")]
)
def test_suites_catch_a_fault_in_the_move_tables(monkeypatch, kind, fault):
    """A fermion step that negates the term of the first move of each
    state's table (the strip of size 0) fails each suite that steps
    through its kind, at its defaults, and so does a ket table that
    prepends lam_i + 1 where the step prepends lam_i, a bra table that
    keeps the first part psi* pops (the bare table of lam, grouped by first
    part), or a bra table that files every nu under the first part of its
    first group, lam_2, so that the nu of first part lam_2 - 1 are stepped
    by the wrong bras and read as no pair.  orthonormality and beta-chain
    build refined kets; orthonormality and dual-engine pair refined bras."""
    real = fock._moves

    def faulty(lam, d, vertical):
        top, moves = real(lam, d, vertical)
        if d is None or vertical != (kind == "bra"):
            return top, moves
        if fault == "part":
            return top, tuple((Partition._trusted((d, *nu)), n) for nu, n in real(lam, None, False)[1])
        if fault == "keep":
            top, bare = real(lam, None, True)
            return top, by_first_part(bare)
        return top, ((moves[0][0], tuple(move for _, group in moves for move in group)),)

    def ket_flip(terms, d, vertical, powers, step=fock._step):
        out = step(terms, d, vertical, powers)
        if d is not None:  # a ket step; the bare steps of e^{H} pass no offset
            for lam, coeff in terms.items():
                nu, n = real(lam, d, False)[1][0]
                add_into(out, nu, coeff * powers[n] * -2)
        return out

    def bra_flip(d, powers, states, step=fock._bra_step):
        out = step(d, powers, states)
        for lam, row in states.items() if powers else ():
            p, ((nu, n), *_) = real(lam, d, True)[1][0]
            for k, c in row.items():
                add_into(out.setdefault(p, {}).setdefault(nu, {}), k, c * powers[n] * -2)
        return out

    failing = {"ket": {"orthonormality", "beta-chain"}, "bra": {"orthonormality", "dual-engine"}}[kind]
    suites = ("orthonormality", "dual-engine", "beta-chain")
    defaults = {theorem: [field.default for field in SIZES[theorem]] for theorem in suites}
    assert all(verifications.SUITES[theorem](*defaults[theorem])["passed"] for theorem in suites)
    if fault != "sign":
        monkeypatch.setattr(fock, "_moves", faulty)
    elif kind == "ket":
        monkeypatch.setattr(fock, "_step", ket_flip)
    else:
        monkeypatch.setattr(fock, "_bra_step", bra_flip)
    for theorem in suites:
        assert verifications.SUITES[theorem](*defaults[theorem])["passed"] is (theorem not in failing), theorem


def test_move_memo_stays_bounded():
    memo = fock._moves
    keys = [(lam, d, vertical) for lam in partitions_up_to_weight(8) for d in range(-3, 9) for vertical in (False, True)]
    assert memo.cache_info().maxsize == fock.MOVE_CACHE_SIZE < len(keys)
    memo.cache_clear()
    try:
        for key in keys:
            memo(*key)
            assert memo.cache_info().currsize <= fock.MOVE_CACHE_SIZE
        # the tables of the smallest shapes were evicted first: they are built again
        v = FockVector({MayaState(0, lam): 1 for lam in partitions_up_to_weight(3)})
        misses = memo.cache_info().misses
        for vertical in (False, True):
            assert fock._exp_letter(t1, vertical, v) == oracle_exp_letter(t1, vertical, v)
        assert ket_step(t1, 3, v) == oracle_fermion(PSI, 3, oracle_exp_letter(t1, False, v))
        assert memo.cache_info().misses > misses
        assert memo.cache_info().currsize <= fock.MOVE_CACHE_SIZE
    finally:
        memo.cache_clear()


def test_vector_operators_match_oracles_on_test_vectors():
    """Every test vector of the classical suite, every level -6..6, both
    kinds of fermion and strip, and their sums and scalings."""
    vectors = verifications._test_vectors()
    for v in vectors:
        for m in range(-6, 7):
            for mode in (PSI, PSI_STAR):
                assert apply_fermion(mode, m, v) == oracle_fermion(mode, m, v), (v, m, mode)
            if m:
                assert apply_heisenberg(m, v) == oracle_heisenberg(m, v), (v, m)
        for t in ORACLE_LETTERS:
            for vertical in (False, True):
                assert fock._exp_letter(t, vertical, v) == oracle_exp_letter(t, vertical, v), (v, t)
        for w in vectors:
            if v.charge == w.charge:
                assert v + w.scale(t1) == FockVector(list(v.items()) + [(s, c * t1) for s, c in w.items()])
        assert v - v == FockVector() and not (v - v).items()


def test_bra_step_matches_per_ket_operators():
    """One step of the table walk on a vector of several kets equals
    psi*_m then e^{-H(t)} on each ket alone, every letter and every offset
    d = m - c + 1 that is the first part of some state, on its domain,
    with the zero letter's strip step the identity."""
    vectors = verifications._test_vectors()
    vectors += [v.scale(t1) + u for v in vectors for u in vectors if v.charge == u.charge and v is not u]
    for c in {v.charge for v in vectors}:
        kets = [v for v in vectors if v.charge == c]
        for d in {lam.part(1) for v in kets for lam in v._terms}:
            for t in ORACLE_LETTERS:
                assert_bra_step_matches(c, kets, c - 1 + d, t)


STEP_COEFFS = [1, -1, 2, Fraction(-1, 2), t1, -t1, t1 * t1, x1 - y1]


@st.composite
def step_groups(draw):
    """A charge and up to three vectors of that charge, each summed from
    up to four random terms whose coefficients may cancel a strip's."""
    charge = draw(st.integers(-2, 2))
    vectors = []
    for _ in range(draw(st.integers(1, 3))):
        shapes = draw(st.lists(st.lists(st.integers(1, 3), max_size=3), max_size=4))
        coeffs = [draw(st.sampled_from(STEP_COEFFS)) for _ in shapes]
        vectors.append(FockVector([(MayaState(charge, sorted(p, reverse=True)), x) for p, x in zip(shapes, coeffs)]))
    return charge, vectors


def assert_ket_step_matches(c, vectors, m, t):
    """On its domain, the states whose first part is below d = m - c + 1
    >= 2, the ket step is psi_m after e^{H(t)}: the same terms in the same
    order, each keyed by a canonical Partition.  `ket_refined_table` steps row i
    at d = lam_i + 1 and hands it no other state, and some vector must
    have one in the domain."""
    d = m - c + 1
    assert d >= 2, (c, m)
    vectors = [FockVector._trusted(c, {lam: x for lam, x in v._terms.items() if lam.part(1) < d}) for v in vectors]
    assert any(vectors), (c, m)
    for v in vectors:
        got, want = ket_step(t, m, v), apply_fermion(PSI, m, fock._exp_letter(t, False, v))
        assert got == want and got.charge == want.charge, (v, m, t)
        assert got.items() == want.items(), (v, m, t)
        assert all(type(mu) is Partition and mu == Partition(tuple(mu)) for mu in got._terms), (v, m, t)


def bra_states(vectors, d):
    """The walk's input to `fock._bra_step` for the vectors' states of
    first part d: {state: {ket index: coefficient}}, keyed in the order
    the walk files them."""
    states = {}
    for k, v in enumerate(vectors):
        for lam, x in v._terms.items():
            if lam.part(1) == d:
                states.setdefault(lam, {})[k] = x
    return states


def per_ket(filed):
    """The walk's vector {first part: {state: {ket index: coefficient}}}
    as {ket index: {state: coefficient}}, after checking how it is filed:
    each state under its own first part (0 only for the empty state), and
    every row nonempty with nonzero coefficients."""
    kets = {}
    for p, states in filed.items():
        for nu, row in states.items():
            assert nu.part(1) == p and row and all(row.values()), (p, nu, row)
            assert type(nu) is Partition and nu == Partition(tuple(nu)), nu
            for k, x in row.items():
                kets.setdefault(k, {})[nu] = x
    return kets


def assert_bra_step_matches(c, vectors, m, t):
    """On the states whose first part is d = m - c + 1 (the empty state at
    d = 0), the bra step is e^{-H(t)} after psi*_m on each vector: the same
    terms, each filed under its first part and keyed by a canonical
    Partition, and no vector's terms vanish.  `bra_refined_table` hands it
    only such states with d >= 1, and some vector must have one in the
    domain."""
    d = m - c + 1
    states = bra_states(vectors, d)
    assert states, (c, m)
    got = per_ket(fock._bra_step(d, fock._powers(-t) if t else None, states))
    assert sorted(got) == sorted({k for row in states.values() for k in row}), (c, m, t)
    for k, v in enumerate(vectors):
        v = FockVector._trusted(c, {lam: x for lam, x in v._terms.items() if lam.part(1) == d})
        want = fock._exp_letter(t, True, apply_fermion(PSI_STAR, m, v))
        assert got.get(k, {}) == want._terms, (v, m, t)


@given(step_groups(), st.sampled_from(ORACLE_LETTERS), st.data())
@settings(max_examples=200, deadline=None)
def test_fused_steps_match_fermion_and_strip_steps(group, t, data):
    c, vectors = group
    assume(any(vectors))  # a group of zero vectors gives the steps nothing to do
    # each step's level from its domain: for the bra, d the first part of
    # some state; for the ket, d >= 2 above the first part of some state
    parts = sorted({lam.part(1) for v in vectors for lam in v._terms})
    assert_bra_step_matches(c, vectors, c - 1 + data.draw(st.sampled_from(parts)), t)
    assert_ket_step_matches(c, vectors, c - 1 + data.draw(st.integers(max(parts[0], 1) + 1, 5)), t)


@given(st.integers(1, 3), st.data(), st.sampled_from([x for x in ORACLE_LETTERS if x]))
@settings(max_examples=150, deadline=None)
def test_bra_step_on_shared_states_matches_per_ket_steps(d, data, t):
    """Kets that share states, stepped once per state by `_bra_step`, give
    each ket the per-ket pop then the bare vertical `_step`.  Ket 0 is
    |lam> + t |lam'>, where lam'[1:] is lam[1:] less one box: its nu =
    lam'[1:] cancels (-t from lam, +t from lam').  Ket 1 is ket 0 plus
    |lam'>, which keeps that nu; the other kets share these states and
    more, with drawn coefficients."""
    rest = data.draw(st.lists(st.integers(1, d), min_size=1, max_size=3).map(lambda p: sorted(p, reverse=True)))
    j = data.draw(st.sampled_from([j for j in range(len(rest)) if j + 1 == len(rest) or rest[j] > rest[j + 1]]))
    lam = Partition((d, *rest))
    shorter = Partition((d, *rest[:j], rest[j] - 1, *rest[j + 1 :]))
    extra = data.draw(st.lists(st.lists(st.integers(1, d), max_size=3), max_size=3))
    pool = [lam, shorter, *(Partition((d, *sorted(p, reverse=True))) for p in extra)]
    kets = [FockVector._trusted(0, {lam: Scalar.one(), shorter: t})]
    kets.append(FockVector._trusted(0, {lam: Scalar.one(), shorter: t + 1}))
    for _ in range(data.draw(st.integers(0, 2))):
        kets.append(FockVector({MayaState(0, nu): data.draw(st.sampled_from(STEP_COEFFS)) for nu in pool}))
    states = bra_states(kets, d)
    assert len(states[lam]) == len(states[shorter]) == len(kets)  # every ket has both states
    got = per_ket(fock._bra_step(d, fock._powers(-t), states))
    cancelled = Partition(shorter[1:])
    for k, v in enumerate(kets):
        popped = {Partition(nu[1:]): x for nu, x in v._terms.items()}
        assert got.get(k, {}) == fock._step(popped, None, True, fock._powers(-t)), (k, v, t)
    assert cancelled not in got[0] and got[1][cancelled] == Scalar.one()


def test_fused_steps_drop_cancelled_terms_and_reach_the_sea():
    # e^{H(t1)} (|1> - t1 |0> + |2>): |0> cancels, and |2> brings it back last;
    # without |2>, |0> cancels for good (the ket step at m = 1 keeps |1> - t1 |0>)
    v = FockVector({MayaState(0, (1,)): 1, MayaState(0, ()): -t1, MayaState(0, (2,)): 1})
    for m in range(-1, 2):  # d = 0, 1, 2: the first parts of v's states
        assert_bra_step_matches(0, [v, v.scale(t1)], m, t1)
    for m in range(1, 4):  # d = 2, 3, 4
        assert_ket_step_matches(0, [v, v.scale(t1)], m, t1)
    one = FockVector({MayaState(0, (1,)): 1})
    assert ket_step(t1, 1, one + vacuum_ket(0).scale(-t1)) == apply_fermion(PSI, 1, one)
    # after psi*_0 on |1,1> + t1 |1>, the vertical strips cancel; at m = -1,
    # d = 0, psi*_m takes the top level of the sea from the empty state
    u = FockVector({MayaState(0, (1, 1)): 1, MayaState(0, (1,)): t1})
    for m in range(-1, 2):
        assert_bra_step_matches(0, [u, v, u + v], m, t1)
    for m in range(1, 4):
        assert_ket_step_matches(0, [u, v, u + v], m, t1)
    assert per_ket(fock._bra_step(1, fock._powers(-t1), bra_states([u], 1))) == {0: {Partition((1,)): Scalar.one()}}
    assert apply_fermion(PSI_STAR, -1, vacuum_ket(0)) == vacuum_ket(-1)
    assert fock._bra_step(0, fock._powers(-t1), bra_states([vacuum_ket(0)], 0)) == {0: {Partition(): {0: Scalar.one()}}}
    # the zero letter: the fermion alone
    for m in range(-1, 2):
        assert_bra_step_matches(0, [u, v], m, Scalar.zero())
    assert_ket_step_matches(0, [u, v], 1, Scalar.zero())


def test_summing_operators_drop_cancelled_terms():
    # e^{H(t1)} (|1> - t1 |0>) = |1> + t1 |0> - t1 |0>: the vacuum term cancels
    v = FockVector({MayaState(0, (1,)): 1, MayaState(0, ()): -t1})
    got = fock._exp_letter(t1, False, v)
    assert got.items() == ((MayaState(0, (1,)), Scalar.one()),)
    assert got == oracle_exp_letter(t1, False, v)
    # then |2> adds t1^2 |0> back: the sum drops the cancelled |0> and
    # takes it up again, keeping no zero coefficient
    v = FockVector({MayaState(0, (1,)): 1, MayaState(0, ()): -t1, MayaState(0, (2,)): 1})
    got = fock._exp_letter(t1, False, v)
    assert got.items() == oracle_exp_letter(t1, False, v).items()  # in collect's order too: |0> last
    assert got.coefficient(MayaState(0, ())) == t1 * t1
    assert got.coefficient(MayaState(0, (1,))) == 1 + t1
    assert len(got.items()) == 3 and all(c for _, c in got.items())
    # a_1 |1,1> = a_1 |2> = |1> at charge 0, so a_1 (|1,1> - |2>) = 0
    w = FockVector({MayaState(0, (1, 1)): 1, MayaState(0, (2,)): -1})
    assert apply_heisenberg(1, w) == oracle_heisenberg(1, w) == FockVector()
    assert apply_heisenberg(1, w).charge is None
