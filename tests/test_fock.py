import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from multischur import fock, shapes, verifications
from multischur.exactalg import Scalar, variables
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
    bra_refined_pairs,
    ket_general,
    ket_partition,
    ket_refined,
    vacuum_ket,
    wick_expectation,
)
from multischur.shapes import (
    Partition,
    as_alphabet,
    empty_sequence,
    partitions_up_to_weight,
    prefix_sequence,
    refined_sequence,
)
from multischur.supersym import h_super, p_power, supersym_schur

t1, t2, t3, t4, t5, t6 = variables("t1 t2 t3 t4 t5 t6")
x1, x2 = variables("x1 x2")
y1 = Scalar.variable("y1")

ZERO_VECTOR = FockVector({})


def test_maya_state_properties():
    s = MayaState(0, Partition((2, 1)))
    assert s.energy == 3
    assert s.charge == 0
    assert s.occupied(1)  # 2 + 0 - 1
    assert s.occupied(-1)  # 1 + 0 - 2
    assert not s.occupied(0)
    assert s.occupied(-3)  # sea
    assert s.render() == "ψ_1 ψ_{-1} |-2⟩"


def test_vacuum_render():
    assert vacuum_ket(0).states()[0].render() == "|0⟩"


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
    v = ket_partition(Partition((2, 1)), 2)
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
    assert ket_partition(Partition(()), 0) == vacuum_ket(0)
    got = ket_partition(Partition((2, 1)), 2)
    assert got == FockVector({MayaState(0, Partition((2, 1))): Scalar.one()})
    assert ket_partition(Partition((1,)), 2) == ket_partition(Partition((1,)), 1)
    with pytest.raises(ValueError):
        ket_partition(Partition((2, 1)), 1)


def test_dressed_psi_inverse_by_one_letter():
    # e^{-H(t1)} psi_m e^{H(t1)} = psi_m - t1 psi_{m-1}
    for m in (-1, 0, 2):
        for v in (vacuum_ket(0), ket_partition(Partition((2, 1)), 2)):
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
    v = ket_partition(Partition((1, 1)), 2)
    assert apply_dressed_fermion(PSI, 1, (), (), v) == apply_fermion(PSI, 1, v)


@given(fock_vectors(), st.integers(-2, 2), st.sampled_from([PSI, PSI_STAR]))
@settings(max_examples=25, deadline=None)
def test_dressing_consistency(v, m, mode):
    # dressed operator == e^H psi e^{-H}
    direct = apply_dressed_fermion(mode, m, (x1,), (y1,), v)
    conj = apply_exp_H((x1,), (y1,), +1, apply_fermion(mode, m, apply_exp_H((x1,), (y1,), -1, v)))
    assert direct == conj


def test_ket_general_reduces_to_ket_partition():
    lam = Partition((2, 1))
    assert ket_general(lam, empty_sequence(), empty_sequence(), 2) == ket_partition(lam, 2)
    assert ket_general(Partition(()), refined_sequence((t1, t2)), empty_sequence(), 3) == vacuum_ket(0)


def test_ket_general_r_independence():
    lam = Partition((2, 1))
    bx = prefix_sequence((x1,), (x2, t1), (x1, x2))
    by = prefix_sequence((y1,))
    assert ket_general(lam, bx, by, 2) == ket_general(lam, bx, by, 3)
    assert ket_general(lam, bx, by, 2) == ket_general(lam, bx, by, 5)


def test_ket_general_unitriangular():
    lam = Partition((2, 1))
    bx = prefix_sequence((x1,), (x2,))
    v = ket_general(lam, bx, empty_sequence(), 2)
    assert v.coefficient(MayaState(0, lam)) == Scalar.one()
    for state in v.states():
        assert state.energy <= lam.weight
        if state.energy == lam.weight:
            assert state == MayaState(0, lam)


def test_ket_refined_examples():
    lam = Partition((2, 1))
    zeros = (Scalar.zero(),) * 3
    assert ket_refined(lam, zeros, 2) == ket_partition(lam, 2)
    got = ket_refined(Partition((1,)), (t1,), 1)
    assert got == ket_partition(Partition((1,)), 1)
    assert got.coefficient(MayaState(0, Partition((1,)))) == Scalar.one()
    ts = (t1, t2, t3, t4)
    assert ket_refined(lam, ts, 2) == ket_general(lam, refined_sequence(ts), empty_sequence(), 2)
    assert ket_refined(lam, ts, 2) == ket_refined(lam, ts, 3)


def test_bra_refined_pair_orthonormality():
    ts = (t1, t2, t3, t4)
    shapes = [Partition(p) for p in [(), (1,), (2,), (1, 1), (2, 1), (3,)]]
    for lam in shapes:
        v = ket_refined(lam, ts, max(1, lam.length))
        for mu in shapes:
            want = Scalar.one() if mu == lam else Scalar.zero()
            assert bra_refined_pair(mu, ts, v) == want
            # r-stable: one more row than bra_refined_pair uses changes nothing
            r = fock._bra_rows([mu], v)[mu]
            assert fock._bra_walk({mu: r}, ts, v) == fock._bra_walk({mu: r + 1}, ts, v) == {mu: want}


def test_bra_refined_pair_vacuum():
    assert bra_refined_pair(Partition(()), (t1,), vacuum_ket(0)) == Scalar.one()


def test_bra_refined_pair_charge_guard():
    with pytest.raises(ChargeError):
        bra_refined_pair(Partition(()), (t1,), vacuum_ket(1))


def per_mu_bra_pair(mu, t, v):
    """Reference for bra_refined_pairs: one walk per mu, every step taken
    even on the zero vector."""
    mu = Partition(mu)
    internal = max((len(s.parts) for s in v.states()), default=0)
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
        refined, general = ket_refined(lam, ts, len(lam)), ket_general(lam, bx, by, len(lam))
        kets.update({("refined", lam): refined, ("general", lam): general, ("sum", lam): refined + general})
    for name, v in kets.items():
        got = bra_refined_pairs(mus, ts, v)
        assert list(got) == mus
        for mu in mus:
            assert got[mu] == per_mu_bra_pair(mu, ts, v), (name, mu)
            assert got[mu] == bra_refined_pair(mu, ts, v), (name, mu)
    assert bra_refined_pairs([], ts, kets["refined", (2, 1)]) == {}
    assert bra_refined_pairs([(1,), [1, 0]], ts, vacuum_ket(0)) == {Partition((1,)): Scalar.zero()}


def test_bra_refined_pairs_share_prefixes_and_stop_at_zero(monkeypatch):
    ts = (t1, t2, t3, t4, t5, t6)
    mus = partitions_up_to_weight(4)
    v = ket_refined(Partition((2, 1)), ts, 2)
    steps = []

    def counting(mode, m, w):
        steps.append(m)
        return apply_fermion(mode, m, w)

    monkeypatch.setattr(fock, "apply_fermion", counting)
    assert bra_refined_pairs(mus, ts, v) == {mu: per_mu_bra_pair(mu, ts, v) for mu in mus}
    walked = len(steps)
    steps.clear()
    for mu in mus:
        bra_refined_pair(mu, ts, v)
    assert walked < len(steps)  # shared prefixes
    assert 2 * len(steps) < sum(max(len(mu), 2) + 1 for mu in mus)  # early exits
    steps.clear()
    assert bra_refined_pairs(mus, ts, ZERO_VECTOR) == dict.fromkeys(mus, Scalar.zero())
    assert steps == []


def test_bra_refined_pairs_errors_match_single_pairs(monkeypatch):
    def no_step(*args):
        raise AssertionError("a step ran before the arguments were checked")

    short = (t1,)
    v = ket_refined(Partition((1,)), (t1, t2, t3), 1)
    charged = [vacuum_ket(1), apply_fermion(PSI_STAR, -1, vacuum_ket(0))]
    monkeypatch.setattr(fock, "apply_fermion", no_step)
    for mu in [Partition(()), Partition((2,)), Partition((1, 1))]:
        with pytest.raises(ValueError) as single:
            bra_refined_pair(mu, short, v)
        with pytest.raises(ValueError) as walk:
            bra_refined_pairs([Partition(()), mu], short, v)
        assert str(walk.value) == str(single.value)
        assert "refined sequence needs" in str(walk.value)
    for w in charged:
        with pytest.raises(ChargeError) as single:
            bra_refined_pair(Partition(()), (t1,), w)
        with pytest.raises(ChargeError) as walk:
            bra_refined_pairs([Partition(())], (t1,), w)
        assert str(walk.value) == str(single.value)


def test_wick_simple_pairings():
    assert wick_expectation([-1], [-1]) == Scalar.one()
    assert wick_expectation([0], [0]) == Scalar.zero()
    with pytest.raises(ValueError):
        wick_expectation([1, 2], [0])


def test_wick_dressed_single_row():
    for l in (1, 2, 3):
        got = wick_expectation([(l - 1, ((x1, x2), (y1,)))], [-1])
        assert got == h_super(l, (x1, x2), (y1,))


def test_wick_matches_exp_H_pairing():
    # <0| e^{H(x/y)} |lam> via Wick rows equals the supersymmetric Schur value
    xsform = ((x1, x2), (y1,))
    for lam in [Partition((1,)), Partition((2, 1)), Partition((2, 2))]:
        r = lam.length
        rows = [(lam.part(i) - i, xsform) for i in range(1, r + 1)]
        cols = [-j for j in range(1, r + 1)]
        assert wick_expectation(rows, cols) == supersym_schur(lam, (x1, x2), (y1,))


def test_boson_fermion_extraction():
    for lam in [Partition(()), Partition((1,)), Partition((2, 1)), Partition((3, 2))]:
        v = ket_partition(lam, max(1, lam.length))
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
    ket = ket_refined(lam, t, 2)
    assert bra_refined_pair(lam, t, ket) == Scalar.one()
    shapes = partitions_up_to_weight(3)
    pairs = bra_refined_pairs(shapes, t + (t1,), ket)
    assert pairs == {mu: Scalar.one() if mu == lam else Scalar.zero() for mu in shapes}
    general = ket_general(lam, prefix_sequence((x1,), (x2,)), prefix_sequence((y1,)), 2)
    assert apply_exp_H((x1, x2), (y1,), +1, general)
    assert apply_exp_H((x1, x2), (y1,), -1, general)
    assert apply_dressed_fermion(PSI, 1, (x1,), (y1,), ket)
    assert verifications.orthonormality(3)["passed"]


def test_fermion_steps_build_valid_shapes():
    """psi, psi* and a_m build each new shape without the checking
    constructor; every one must equal its checked copy, with no trailing
    zero, including the steps that fill the sea up to a new vacuum."""
    vectors = verifications._test_vectors()
    vectors.append(ket_partition((1, 1, 1), 3))
    seen = 0
    for v in vectors:
        results = [apply_fermion(mode, m, v) for mode in (PSI, PSI_STAR) for m in range(-6, 7)]
        results += [apply_heisenberg(m, v) for m in (-3, -2, -1, 1, 2, 3)]
        for w in results:
            for state in w.states():
                lam = state.parts
                assert type(lam) is Partition
                assert not lam or lam[-1] > 0, state
                assert Partition(list(lam)) == lam
                seen += 1
    assert seen > 100
    # psi_{-2} on the state (1,1) of charge 0 fills the sea: the vacuum of charge 1
    assert apply_fermion(PSI, -2, ket_partition((1, 1), 2)).states() == (MayaState(1, Partition()),)


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
    if m <= state.sea_top:
        return None
    levels = state.excited_levels()
    j = sum(1 for lev in levels if lev > m)
    if j < len(levels) and levels[j] == m:
        return None
    parts = [lam[i] - 1 for i in range(j)] + [m - c + j] + list(lam[j:])
    return ((-1) ** j, MayaState(c + 1, Partition(parts)))


def _oracle_annihilate(state, m):
    c, lam = state.charge, state.parts
    levels = state.excited_levels()
    j = sum(1 for lev in levels if lev > m)
    if j < len(levels) and levels[j] == m:
        parts = [lam[i] + 1 for i in range(j)] + list(lam[j + 1 :])
    elif m <= state.sea_top:
        j = len(lam) + (state.sea_top - m)
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
        for u in range(state.sea_top - abs(m), (state.parts[0] if state.parts else 0) + state.charge):
            if not state.occupied(u) or state.occupied(u - m):
                continue
            s1, mid = _oracle_annihilate(state, u)
            s2, new = _oracle_create(mid, u - m)
            pairs.append((new, coeff if s1 * s2 > 0 else -coeff))
    return FockVector(pairs)


def oracle_exp_letter(t, vertical, v):
    if not t:
        return v
    pairs = []
    strips = shapes.vertical_strips if vertical else shapes.horizontal_strips
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


def test_strip_tables_are_enumerated_once_per_partition_and_kind(monkeypatch):
    calls = Counter()
    for name in ("horizontal_strips", "vertical_strips"):

        def counting(lam, name=name, enumerate_strips=getattr(fock, name)):
            calls[name, lam] += 1
            return enumerate_strips(lam)

        monkeypatch.setattr(fock, name, counting)
    fock._strips.cache_clear()
    try:
        assert verifications.orthonormality(4)["passed"]
        assert calls and max(calls.values()) == 1
        assert fock._strips.cache_info().hits > 5 * len(calls)  # 93 hits for 15 tables
    finally:
        fock._strips.cache_clear()  # drop the tables built through the counting enumerators


def test_strip_memo_stays_bounded():
    memo = fock._strips
    keys = [(lam, vertical) for lam in partitions_up_to_weight(8) for vertical in (False, True)]
    assert memo.cache_info().maxsize == fock.STRIP_CACHE_SIZE < len(keys)
    memo.cache_clear()
    sizes = []
    try:
        for lam, vertical in keys:
            memo(lam, vertical)
            sizes.append(memo.cache_info().currsize)
        assert max(sizes) <= fock.STRIP_CACHE_SIZE
        # the tables of the smallest shapes were evicted first: they are built again
        v = FockVector({MayaState(0, lam): 1 for lam in partitions_up_to_weight(3)})
        for vertical in (False, True):
            assert fock._exp_letter(t1, vertical, v) == oracle_exp_letter(t1, vertical, v)
        assert memo.cache_info().misses > len(keys)
        assert memo.cache_info().currsize <= fock.STRIP_CACHE_SIZE
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


def test_summing_operators_drop_cancelled_terms():
    # e^{H(t1)} (|1> - t1 |0>) = |1> + t1 |0> - t1 |0>: the vacuum term cancels
    v = FockVector({MayaState(0, (1,)): 1, MayaState(0, ()): -t1})
    got = fock._exp_letter(t1, False, v)
    assert got.items() == ((MayaState(0, (1,)), Scalar.one()),)
    assert got == oracle_exp_letter(t1, False, v)
    # a_1 |1,1> = a_1 |2> = |1> at charge 0, so a_1 (|1,1> - |2>) = 0
    w = FockVector({MayaState(0, (1, 1)): 1, MayaState(0, (2,)): -1})
    assert apply_heisenberg(1, w) == oracle_heisenberg(1, w) == FockVector()
    assert apply_heisenberg(1, w).charge is None
