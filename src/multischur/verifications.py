"""Identity-verification suites.

Each suite exhaustively checks one family of identities at a stated
scale and returns a summary dict:

    {"theorem": name, "parameters": {...}, "passed": bool,
     "cases": int, "failures": [str, ...]}

A failed case is reported as "<label>: got <repr>, want <repr>"; a repr
longer than `exactalg._CUT` (200) characters is cut to that length, ending in
"...".  On a passing run `failures` is [].  A suite whose parameters
leave it no case to check raises ValueError rather than passing
vacuously.  `_branching_sides` and `_cauchy_sides` give the two sides of
one instance of the branching and Cauchy identities; the `branching` and
`cauchy` suites check them over their cases and report both sides.

The two computation routes (closed-form determinants and the fermion
engine) are kept independent so a suite that compares them is a real
cross-check, not a tautology.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement
from math import comb

from .exactalg import Scalar, _cut, det_over_ring
from .fock import (
    PSI,
    PSI_STAR,
    FockVector,
    MayaState,
    apply_exp_H,
    apply_fermion,
    apply_heisenberg,
    bra_refined_table,
    ket_general,
    ket_partition,
    ket_refined_table,
    vacuum_ket,
)
from .shapes import (
    AlphabetSequence,
    Partition,
    empty_sequence,
    partitions_up_to_weight,
    prefix_sequence,
    refined_sequence,
    subpartitions,
    superpartitions,
)
from .supersym import supersym_schur
from .suite_sizes import _BRANCHING_MAX_WEIGHT, SIZES
from .expansions import (
    SymFunc,
    TractabilityError,
    _skew,
    eval_symfunc,
    expand_in_refined_basis,
    hall_inner,
    refined_dual_grothendieck,
    schur_expand_multischur,
    schur_tableau_oracle,
    stable_grothendieck_schur,
    sym_schur,
    truncated_dual_expansion,
)

_ZERO = Scalar.zero()
_ONE = Scalar.one()


def _vars(stem: str, n: int) -> tuple[Scalar, ...]:
    return tuple(Scalar.variable(f"{stem}{i}") for i in range(1, n + 1))


def _one_letter_rows(n: int) -> tuple[AlphabetSequence, ...]:
    """bx and by with the rows (a_i,) and (b_i,) for i = 1..n, empty past n."""
    return tuple(prefix_sequence(*[(u,) for u in _vars(stem, n)]) for stem in "ab")


class _Tally:
    """The cases of one suite and the failing ones, each named by its
    label and both sides."""

    def __init__(self) -> None:
        self.cases = 0
        self.failures: list[str] = []

    def check(self, got, want, label: str, *args) -> None:
        """One case; `label % args` is formatted only if got != want."""
        self.cases += 1
        if got != want:
            self._fail(got, want, label, args)

    def check_row(self, got: dict, want: dict, label: str, *args) -> None:
        """One case per key of want, got[key] against want[key] and named
        `label % (key, *args)`.  The rows are compared as dicts, and only
        rows that differ are compared pair by pair, in want's order; a key
        that only one row has fails, with None for its missing side."""
        if got == want:
            self.cases += len(want)
            return
        for key, value in want.items():
            self.check(got.get(key), value, label, key, *args)
        for key, value in got.items():
            if key not in want:
                self._fail(value, None, label, (key, *args))

    def _fail(self, got, want, label: str, args: tuple) -> None:
        args = tuple(list(a) if isinstance(a, Partition) else a for a in args)
        got, want = _cut(repr(got)), _cut(repr(want))
        self.failures.append(f"{label % args}: got {got}, want {want}")

    def summary(self, theorem: str, *sizes: int, **extras) -> dict:
        """The answer, whose parameters are `sizes` named as in SIZES[theorem], then `extras`."""
        parameters = {field.name: size for field, size in zip(SIZES[theorem], sizes, strict=True)} | extras
        if not self.cases:
            raise ValueError(f"suite {theorem} checked no cases at {parameters}")
        return {
            "theorem": theorem,
            "parameters": parameters,
            "passed": not self.failures,
            "cases": self.cases,
            "failures": self.failures,
        }


def _branching_sides(lam, t, n, m, bx, by) -> tuple[Scalar, Scalar]:
    """Split the variable set: the expansion in n + m variables, and the
    sum over inner shapes of (skew part in the first n) times (refined dual
    part in the last m)."""
    lam = Partition(lam)
    if lam.weight > _BRANCHING_MAX_WEIGHT:
        raise TractabilityError(f"weight is capped at {_BRANCHING_MAX_WEIGHT}: got {lam.weight}")
    xs = _vars("X", n)
    ys = _vars("Y", m)
    lhs = eval_symfunc(schur_expand_multischur(lam, bx, by), xs + ys)
    skew = _skew(lam, bx, by, refined_sequence(t), len(lam))
    rhs = _ZERO
    for mu in subpartitions(lam):
        rhs = rhs + eval_symfunc(skew(mu), xs) * eval_symfunc(refined_dual_grothendieck(mu, t), ys)
    return lhs, rhs


def _cauchy_sides(t, D, n, m) -> tuple[Scalar, Scalar]:
    """The sum over |lam| <= D of (dual element in X) times (stable
    element in Y), and the product of geometric series up to Y-degree D.
    Neither side has a monomial of higher Y-degree, so neither is cut:
    the stable element at D holds only s_mu with |mu| <= D, and s_mu(Y)
    is homogeneous of Y-degree |mu|; the dual element has no Y."""
    xs = _vars("X", n)
    ys = _vars("Y", m)
    lhs = _ZERO
    for lam in partitions_up_to_weight(D):
        a = eval_symfunc(refined_dual_grothendieck(lam, t), xs)
        if not a:
            continue
        b = eval_symfunc(stable_grothendieck_schur(lam, t, D), ys)
        lhs = lhs + a * b
    # prod_{i,j} sum_k (X_i Y_j)^k up to Y-degree D: one monomial per
    # exponent array (k_ij) with sum k_ij = d <= D, a multiset of d cells
    counts: Counter = Counter()
    cells = [(f"X{i}", f"Y{j}") for i in range(1, n + 1) for j in range(1, m + 1)]
    for d in range(D + 1):
        for chosen in combinations_with_replacement(cells, d):
            counts[tuple(sorted(Counter(chain.from_iterable(chosen)).items()))] += 1
    return lhs, Scalar(counts)


def orthonormality(max_weight: int) -> dict:
    """Refined bras against refined kets: delta on all pairs."""
    t = _vars("t", max_weight)
    tally = _Tally()
    shapes = partitions_up_to_weight(max_weight)
    delta = dict.fromkeys(shapes, _ZERO)
    for lam, pairs in zip(shapes, bra_refined_table(shapes, t, ket_refined_table(shapes, t))):
        delta[lam] = _ONE
        tally.check_row(pairs, delta, "pair %s | %s", lam)
        delta[lam] = _ZERO
    return tally.summary("orthonormality", max_weight)


def dual_engine(max_weight: int) -> dict:
    """Determinant coefficients equal fermion-engine pairings, with
    one-letter symbolic row alphabets and symbolic t."""
    bx, by = _one_letter_rows(max_weight)
    t = _vars("t", max_weight)
    tally = _Tally()
    shapes = partitions_up_to_weight(max_weight)
    table = bra_refined_table(shapes, t, [ket_general(lam, bx, by) for lam in shapes])
    for lam, pairs in zip(shapes, table):
        coeffs = expand_in_refined_basis(lam, bx, by, t)
        for mu in subpartitions(lam):
            tally.check(coeffs.get(mu, _ZERO), pairs[mu], "coefficient %s of %s, det against pairing", mu, lam)
    return tally.summary("dual-engine", max_weight)


def hall_duality(max_weight: int, truncation: int) -> dict:
    """Stable elements against dual elements under the Hall pairing."""
    t = _vars("t", max_weight + 1)
    shapes = partitions_up_to_weight(max_weight)
    duals = {mu: refined_dual_grothendieck(mu, t) for mu in shapes}
    tally = _Tally()
    for lam in shapes:
        G = stable_grothendieck_schur(lam, t, truncation)
        for mu in shapes:
            tally.check(hall_inner(G, duals[mu]), _ONE if mu == lam else _ZERO, "inner %s , %s", lam, mu)
    return tally.summary("hall-duality", max_weight, truncation)


def cauchy() -> dict:
    """Kernel identity: symbolic t at D=3 and the all-zero t at D=4."""
    tally = _Tally()
    tally.check(*_cauchy_sides(_vars("t", 6), 3, 2, 2), "symbolic t, D=3, n=m=2")
    tally.check(*_cauchy_sides((0,) * 7, 4, 2, 2), "zero t, D=4, n=m=2")
    return tally.summary("cauchy", symbolic={"D": 3, "n": 2, "m": 2}, zero={"D": 4, "n": 2, "m": 2})


def branching(max_weight: int, general_max_weight: int) -> dict:
    """Two-alphabet split: refined case for all shapes up to max_weight,
    then the general mixed case with distinct one-letter alphabets."""
    t = _vars("t", max_weight + 2)
    tally = _Tally()
    for lam in partitions_up_to_weight(max_weight):
        tally.check(*_branching_sides(lam, t, 2, 2, refined_sequence(t), empty_sequence()), "refined split of %s", lam)
    bx, by = _one_letter_rows(general_max_weight)
    for lam in partitions_up_to_weight(general_max_weight):
        tally.check(*_branching_sides(lam, t, 2, 2, bx, by), "general split of %s", lam)
    return tally.summary("branching", max_weight, general_max_weight, n=2, m=2)


def truncation_stability(max_weight: int, max_rows: int, max_truncation: int) -> dict:
    """Stable expansion in r variables equals the r-row expansion in r
    variables, for every permitted (r, D): the stable element from the
    fermion route, G_lam = sum_nu <lam; t|nu> s_nu (the Hall dual of the
    refined kets), against the r-row determinant."""
    t = _vars("t", max_truncation + 2)
    vs = _vars("v", max_rows)
    tally = _Tally()
    lams = superpartitions((), min(max_weight, max_truncation), max_rows)  # the shapes with a case
    nus = partitions_up_to_weight(max_truncation)
    table = bra_refined_table(lams, t, [ket_partition(nu) for nu in nus])
    for lam in lams:
        G = SymFunc(((nu, pairs[lam]) for nu, pairs in zip(nus, table)), max_truncation)
        for r in range(max(1, len(lam)), max_rows + 1):
            for D in range(lam.weight, max_truncation + 1):
                lhs = eval_symfunc(SymFunc(G.terms(), D), vs[:r])
                rhs = eval_symfunc(truncated_dual_expansion(lam, refined_sequence(t), r, D), vs[:r])
                tally.check(lhs, rhs, "shape %s, r=%s, D=%s", lam, r, D)
    return tally.summary("truncation-stability", max_weight, max_rows, max_truncation)


def beta_chain(max_weight: int, max_dual_weight: int) -> dict:
    """The one-parameter specialization t = (-beta, -beta, ...): the dual
    expansion matches the fermion evaluation, and the stable expansion
    matches the binomial determinant."""
    beta = Scalar.variable("beta")
    tb = tuple(-beta for _ in range(max_dual_weight + 2))
    xs = _vars("x", 2)
    vac = MayaState(0, Partition())
    tally = _Tally()
    shapes = partitions_up_to_weight(max_weight)
    for lam, ket in zip(shapes, ket_refined_table(shapes, tb)):
        lhs = eval_symfunc(refined_dual_grothendieck(lam, tb), xs)
        tally.check(lhs, apply_exp_H(xs, (), +1, ket).coefficient(vac), "fermion evaluation of %s", lam)
    powers = [beta**k for k in range(max_dual_weight + 1)]
    binomials = [[powers[k] * comb(i, k) for k in range(i + 1)] for i in range(max_dual_weight)]
    for lam in shapes:
        G = stable_grothendieck_schur(lam, tb, max_dual_weight)
        for mu in superpartitions(lam, max_dual_weight):
            # entry (i, j), counted from 0, is C(i, k) beta^k at k = mu_j - lam_i + i - j
            r = range(max(len(mu), len(lam)))
            ks = ([mu.part(j + 1) - lam.part(i + 1) + i - j for j in r] for i in r)
            rows = [[binomials[i][k] if 0 <= k <= i else _ZERO for k in row] for i, row in enumerate(ks)]
            tally.check(G.coefficient(mu), det_over_ring(rows), "binomial coefficient %s -> %s", lam, mu)
    return tally.summary("beta-chain", max_weight, max_dual_weight)


def _test_vectors() -> list[FockVector]:
    c = Scalar.variable("c")
    half = Scalar.from_rational(Fraction(1, 2))
    return [
        vacuum_ket(0),
        ket_partition((2, 1)),
        ket_partition((1, 1)) + ket_partition((3,)).scale(c) + vacuum_ket(0).scale(half),
        FockVector({MayaState(-1, Partition((2,))): _ONE, MayaState(-1, Partition((1, 1))): c}),
        FockVector({MayaState(2, Partition((2, 2, 1))): _ONE}),
    ]


def _anticommutator(a: str, m: int, b: str, n: int, v: FockVector) -> FockVector:
    return apply_fermion(a, m, apply_fermion(b, n, v)) + apply_fermion(b, n, apply_fermion(a, m, v))


def classical(max_weight: int, window: int, pairing_rows: int) -> dict:
    """Ground-truth checks: tableau sums, transpose duality, fermion and
    Heisenberg relations over the index window, and the shifted-vacuum
    pairing."""
    tally = _Tally()

    vals = _vars("a", 4)
    for n in range(1, 5):
        for mu in partitions_up_to_weight(max_weight):
            got = eval_symfunc(sym_schur(mu), vals[:n])
            tally.check(got, schur_tableau_oracle(mu, vals[:n]), "tableau sum of %s in %s variables", mu, n)

    x = _vars("x", 2)
    y = _vars("y", 2)
    for lam in partitions_up_to_weight(5):
        rhs = supersym_schur(lam.transpose(), y, x)
        tally.check(supersym_schur(lam, x, y), -rhs if lam.weight % 2 else rhs, "transpose duality at %s", lam)

    vectors = _test_vectors()
    zero = FockVector()
    span = range(-window, window + 1)
    for m in span:
        for n in span:
            for k, v in enumerate(vectors):
                anti = _anticommutator(PSI, m, PSI_STAR, n, v)
                tally.check(anti, v if m == n else zero, "psi psi* anticommutator: m=%s, n=%s, v#%s", m, n, k)
                like = (_anticommutator(PSI, m, PSI, n, v), _anticommutator(PSI_STAR, m, PSI_STAR, n, v))
                tally.check(like, (zero, zero), "like-mode anticommutators: m=%s, n=%s, v#%s", m, n, k)

    modes = [m for m in span if m]
    for m in modes:
        for n in span:
            for k, v in enumerate(vectors):
                comm = apply_heisenberg(m, apply_fermion(PSI, n, v)) - apply_fermion(
                    PSI, n, apply_heisenberg(m, v)
                )
                tally.check(comm, apply_fermion(PSI, n - m, v), "[a_m, psi_n]: m=%s, n=%s, v#%s", m, n, k)
                comm = apply_heisenberg(m, apply_fermion(PSI_STAR, n, v)) - apply_fermion(
                    PSI_STAR, n, apply_heisenberg(m, v)
                )
                want = apply_fermion(PSI_STAR, n + m, v).scale(-1)
                tally.check(comm, want, "[a_m, psi*_n]: m=%s, n=%s, v#%s", m, n, k)
        for n in modes:
            for k, v in enumerate(vectors):
                comm = apply_heisenberg(m, apply_heisenberg(n, v)) - apply_heisenberg(
                    n, apply_heisenberg(m, v)
                )
                tally.check(comm, v.scale(m) if m + n == 0 else zero, "[a_m, a_n]: m=%s, n=%s, v#%s", m, n, k)

    for r in range(1, pairing_rows + 1):
        tuples = list(combinations(range(window, -r - 1, -1), r))
        end = MayaState(-r, Partition())
        for ns in tuples:
            ket = vacuum_ket(-r)
            for n in reversed(ns):
                ket = apply_fermion(PSI, n, ket)
            for ms in tuples:
                w = ket
                for mi in ms:
                    w = apply_fermion(PSI_STAR, mi, w)
                    if not w:
                        break
                tally.check(w.coefficient(end), _ONE if ms == ns else _ZERO, "vacuum pairing: m=%s, n=%s", ms, ns)
    return tally.summary("classical", max_weight, window, pairing_rows)


SUITES = {
    "orthonormality": orthonormality,
    "dual-engine": dual_engine,
    "hall-duality": hall_duality,
    "cauchy": cauchy,
    "branching": branching,
    "truncation-stability": truncation_stability,
    "beta-chain": beta_chain,
    "classical": classical,
}
