"""Identity-verification suites.

Each suite exhaustively checks one family of identities at a stated
scale and returns a summary dict:

    {"theorem": name, "parameters": {...}, "passed": bool,
     "cases": int, "failures": [str, ...]}

A suite whose parameters leave it no case to check raises ValueError
rather than passing vacuously.  `verify_branching` and `verify_cauchy`
check one instance of the branching and Cauchy identities; the
`branching` and `cauchy` suites run them over their cases.

The two computation routes (closed-form determinants and the fermion
engine) are kept independent so a suite that compares them is a real
cross-check, not a tautology.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Sequence

from .exactalg import Scalar, det_over_ring
from .fock import (
    PSI,
    PSI_STAR,
    FockVector,
    MayaState,
    apply_exp_H,
    apply_fermion,
    apply_heisenberg,
    bra_refined_pairs,
    ket_general,
    ket_partition,
    ket_refined,
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
from .expansions import (
    TractabilityError,
    eval_symfunc,
    expand_in_refined_basis,
    hall_inner,
    refined_dual_grothendieck,
    schur_expand_multischur,
    schur_tableau_oracle,
    skew_function,
    stable_grothendieck_schur,
    sym_schur,
    truncated_dual_expansion,
)

_ZERO = Scalar.zero()
_ONE = Scalar.one()


def _vars(stem: str, n: int) -> tuple[Scalar, ...]:
    return tuple(Scalar.variable(f"{stem}{i}") for i in range(1, n + 1))


def _suite(theorem: str, parameters: dict, cases: int, failures: list[str]) -> dict:
    if not cases:
        raise ValueError(f"suite {theorem} checked no cases at {parameters}")
    return {
        "theorem": theorem,
        "parameters": parameters,
        "passed": not failures,
        "cases": cases,
        "failures": failures,
    }


def verify_branching(
    lam: Sequence[int],
    t: Sequence,
    n: int,
    m: int,
    bx: AlphabetSequence | None = None,
    by: AlphabetSequence | None = None,
) -> bool:
    """Split the variable set: the expansion in n + m variables must equal
    the sum over inner shapes of (skew part in the first n) times (refined
    dual part in the last m)."""
    lam = Partition(lam)
    if n > 4 or m > 4:
        raise TractabilityError(f"variable counts are capped at 4: got {n}, {m}")
    if lam.weight > 6:
        raise TractabilityError(f"weight is capped at 6: got {lam.weight}")
    if bx is None:
        bx = refined_sequence(t)
    if by is None:
        by = empty_sequence()
    xs = _vars("X", n)
    ys = _vars("Y", m)
    lhs = eval_symfunc(schur_expand_multischur(lam, bx, by), xs + ys)
    bp = refined_sequence(t)
    rhs = _ZERO
    for mu in subpartitions(lam):
        left = eval_symfunc(skew_function(lam, mu, bx, by, bp), xs)
        if not left:
            continue
        rhs = rhs + left * eval_symfunc(refined_dual_grothendieck(mu, t), ys)
    return lhs == rhs


def _degree_in(mono, names: frozenset[str]) -> int:
    return sum(e for name, e in mono if name in names)


def _truncate_in(p: Scalar, names: frozenset[str], D: int) -> Scalar:
    kept = {mono: c for mono, c in p.terms() if _degree_in(mono, names) <= D}
    return Scalar(kept)


def verify_cauchy(t: Sequence, D: int, n: int, m: int) -> bool:
    """Sum over |lam| <= D of (dual element in X) times (stable element
    in Y) against the product of geometric series, compared in all
    monomials of Y-degree <= D."""
    if D > 6:
        raise TractabilityError(f"degree bound is capped at 6: got {D}")
    if n > 3 or m > 3:
        raise TractabilityError(f"variable counts are capped at 3: got {n}, {m}")
    xs = _vars("X", n)
    ys = _vars("Y", m)
    ynames = frozenset(f"Y{j}" for j in range(1, m + 1))
    lhs = _ZERO
    for lam in partitions_up_to_weight(D):
        a = eval_symfunc(refined_dual_grothendieck(lam, t), xs)
        if not a:
            continue
        b = eval_symfunc(stable_grothendieck_schur(lam, t, D), ys)
        lhs = lhs + a * b
    rhs = _ONE
    for x in xs:
        for y in ys:
            geom = _ZERO
            for k in range(D + 1):
                geom = geom + (x * y) ** k
            rhs = _truncate_in(rhs * geom, ynames, D)
    return _truncate_in(lhs, ynames, D) == rhs


def orthonormality(max_weight: int = 5) -> dict:
    """Refined bras against refined kets: delta on all pairs."""
    t = _vars("t", max_weight + 3)
    cases = 0
    failures: list[str] = []
    shapes = partitions_up_to_weight(max_weight)
    for lam in shapes:
        pairs = bra_refined_pairs(shapes, t, ket_refined(lam, t, len(lam)))
        for mu, val in pairs.items():
            want = _ONE if mu == lam else _ZERO
            cases += 1
            if val != want:
                failures.append(f"pair {list(mu)} | {list(lam)} gave {val!r}")
    return _suite("orthonormality", {"maxWeight": max_weight}, cases, failures)


def dual_engine(max_weight: int = 4) -> dict:
    """Determinant coefficients equal fermion-engine pairings, with
    one-letter symbolic row alphabets and symbolic t."""
    rows = max_weight
    a = _vars("a", rows)
    b = _vars("b", rows)
    bx = prefix_sequence(*[(u,) for u in a])
    by = prefix_sequence(*[(u,) for u in b])
    t = _vars("t", max_weight + 3)
    cases = 0
    failures: list[str] = []
    for lam in partitions_up_to_weight(max_weight):
        coeffs = expand_in_refined_basis(lam, bx, by, t)
        pairs = bra_refined_pairs(subpartitions(lam), t, ket_general(lam, bx, by, len(lam)))
        for mu, pair in pairs.items():
            det = coeffs.get(mu, _ZERO)
            cases += 1
            if det != pair:
                failures.append(f"coefficient {list(mu)} of {list(lam)}: det != pairing")
    return _suite("dual-engine", {"maxWeight": max_weight}, cases, failures)


def hall_duality(max_weight: int = 5, truncation: int = 5) -> dict:
    """Stable elements against dual elements under the Hall pairing."""
    t = _vars("t", max_weight + 1)
    shapes = partitions_up_to_weight(max_weight)
    duals = {mu: refined_dual_grothendieck(mu, t) for mu in shapes}
    cases = 0
    failures: list[str] = []
    for lam in shapes:
        G = stable_grothendieck_schur(lam, t, truncation)
        for mu in shapes:
            val = hall_inner(G, duals[mu])
            want = _ONE if mu == lam else _ZERO
            cases += 1
            if val != want:
                failures.append(f"inner {list(lam)} , {list(mu)} gave {val!r}")
    return _suite(
        "hall-duality", {"maxWeight": max_weight, "truncation": truncation}, cases, failures
    )


def cauchy() -> dict:
    """Kernel identity: symbolic t at D=3 and the all-zero t at D=4."""
    cases = 0
    failures: list[str] = []
    t = _vars("t", 6)
    cases += 1
    if not verify_cauchy(t, 3, 2, 2):
        failures.append("symbolic t, D=3, n=m=2")
    cases += 1
    if not verify_cauchy((0,) * 7, 4, 2, 2):
        failures.append("zero t, D=4, n=m=2")
    return _suite(
        "cauchy",
        {"symbolic": {"D": 3, "n": 2, "m": 2}, "zero": {"D": 4, "n": 2, "m": 2}},
        cases,
        failures,
    )


def branching(max_weight: int = 5, general_max_weight: int = 3) -> dict:
    """Two-alphabet split: refined case for all shapes up to max_weight,
    then the general mixed case with distinct one-letter alphabets."""
    t = _vars("t", max_weight + 2)
    cases = 0
    failures: list[str] = []
    for lam in partitions_up_to_weight(max_weight):
        cases += 1
        if not verify_branching(lam, t, 2, 2):
            failures.append(f"refined split failed for {list(lam)}")
    a = _vars("a", general_max_weight)
    b = _vars("b", general_max_weight)
    bx = prefix_sequence(*[(u,) for u in a])
    by = prefix_sequence(*[(u,) for u in b])
    for lam in partitions_up_to_weight(general_max_weight):
        cases += 1
        if not verify_branching(lam, t, 2, 2, bx=bx, by=by):
            failures.append(f"general split failed for {list(lam)}")
    return _suite(
        "branching",
        {"maxWeight": max_weight, "generalMaxWeight": general_max_weight, "n": 2, "m": 2},
        cases,
        failures,
    )


def truncation_stability(max_weight: int = 3, max_rows: int = 3, max_truncation: int = 5) -> dict:
    """Stable expansion in r variables equals the r-row expansion in r
    variables, for every permitted (r, D)."""
    t = _vars("t", max_truncation + 2)
    vs = _vars("v", max_rows)
    cases = 0
    failures: list[str] = []
    for lam in partitions_up_to_weight(max_weight):
        for r in range(max(1, len(lam)), max_rows + 1):
            for D in range(lam.weight, max_truncation + 1):
                lhs = eval_symfunc(stable_grothendieck_schur(lam, t, D), vs[:r])
                rhs = eval_symfunc(
                    truncated_dual_expansion(lam, refined_sequence(t), r, D), vs[:r]
                )
                cases += 1
                if lhs != rhs:
                    failures.append(f"shape {list(lam)}, r={r}, D={D}")
    return _suite(
        "truncation-stability",
        {"maxWeight": max_weight, "maxRows": max_rows, "maxTruncation": max_truncation},
        cases,
        failures,
    )


def beta_chain(max_weight: int = 4, max_dual_weight: int = 5) -> dict:
    """The one-parameter specialization t = (-beta, -beta, ...): the dual
    expansion matches the fermion evaluation, and the stable expansion
    matches the binomial determinant."""
    beta = Scalar.variable("beta")
    tb = tuple(-beta for _ in range(max_dual_weight + 2))
    xs = _vars("x", 2)
    vac = MayaState(0, Partition())
    cases = 0
    failures: list[str] = []
    for lam in partitions_up_to_weight(max_weight):
        lhs = eval_symfunc(refined_dual_grothendieck(lam, tb), xs)
        ket = ket_refined(lam, tb, len(lam))
        rhs = apply_exp_H(xs, (), +1, ket).coefficient(vac)
        cases += 1
        if lhs != rhs:
            failures.append(f"fermion evaluation mismatch at {list(lam)}")
    for lam in partitions_up_to_weight(max_weight):
        G = stable_grothendieck_schur(lam, tb, max_dual_weight)
        for mu in superpartitions(lam, max_dual_weight):
            r = max(len(mu), len(lam))
            rows = []
            for i in range(1, r + 1):
                row = []
                for j in range(1, r + 1):
                    k = -lam.part(i) + mu.part(j) + i - j
                    c = comb(i - 1, k) if 0 <= k <= i - 1 else 0
                    row.append(beta**k * c if c else _ZERO)
                rows.append(row)
            want = det_over_ring(rows)
            cases += 1
            if G.coefficient(mu) != want:
                failures.append(f"binomial coefficient mismatch at {list(lam)} -> {list(mu)}")
    return _suite(
        "beta-chain",
        {"maxWeight": max_weight, "maxDualWeight": max_dual_weight},
        cases,
        failures,
    )


def _test_vectors() -> list[FockVector]:
    c = Scalar.variable("c")
    half = Scalar.from_rational(Fraction(1, 2))
    return [
        vacuum_ket(0),
        ket_partition((2, 1), 2),
        ket_partition((1, 1), 2) + ket_partition((3,), 1).scale(c) + vacuum_ket(0).scale(half),
        FockVector({MayaState(-1, Partition((2,))): _ONE, MayaState(-1, Partition((1, 1))): c}),
        FockVector({MayaState(2, Partition((2, 2, 1))): _ONE}),
    ]


def classical(max_weight: int = 6, window: int = 3, pairing_rows: int = 3) -> dict:
    """Ground-truth checks: tableau sums, transpose duality, fermion and
    Heisenberg relations over the index window, and the shifted-vacuum
    pairing."""
    cases = 0
    failures: list[str] = []

    vals = _vars("a", 4)
    for n in range(1, 5):
        for mu in partitions_up_to_weight(max_weight):
            cases += 1
            if eval_symfunc(sym_schur(mu), vals[:n]) != schur_tableau_oracle(mu, vals[:n]):
                failures.append(f"tableau sum mismatch: {list(mu)} in {n} variables")

    x = _vars("x", 2)
    y = _vars("y", 2)
    for lam in partitions_up_to_weight(5):
        lhs = supersym_schur(lam, x, y)
        rhs = supersym_schur(lam.transpose(), y, x)
        if lam.weight % 2:
            rhs = -rhs
        cases += 1
        if lhs != rhs:
            failures.append(f"transpose duality failed at {list(lam)}")

    vectors = _test_vectors()
    span = range(-window, window + 1)
    for m in span:
        for n in span:
            for k, v in enumerate(vectors):
                anti = apply_fermion(PSI, m, apply_fermion(PSI_STAR, n, v)) + apply_fermion(
                    PSI_STAR, n, apply_fermion(PSI, m, v)
                )
                want = v if m == n else FockVector()
                cases += 1
                if anti != want:
                    failures.append(f"psi psi* anticommutator failed: m={m}, n={n}, v#{k}")
                both = apply_fermion(PSI, m, apply_fermion(PSI, n, v)) + apply_fermion(
                    PSI, n, apply_fermion(PSI, m, v)
                )
                duals = apply_fermion(PSI_STAR, m, apply_fermion(PSI_STAR, n, v)) + apply_fermion(
                    PSI_STAR, n, apply_fermion(PSI_STAR, m, v)
                )
                cases += 1
                if both or duals:
                    failures.append(f"like-mode anticommutator failed: m={m}, n={n}, v#{k}")

    modes = [m for m in span if m]
    for m in modes:
        for n in span:
            for k, v in enumerate(vectors):
                comm = apply_heisenberg(m, apply_fermion(PSI, n, v)) - apply_fermion(
                    PSI, n, apply_heisenberg(m, v)
                )
                cases += 1
                if comm != apply_fermion(PSI, n - m, v):
                    failures.append(f"[a_m, psi_n] failed: m={m}, n={n}, v#{k}")
                comm = apply_heisenberg(m, apply_fermion(PSI_STAR, n, v)) - apply_fermion(
                    PSI_STAR, n, apply_heisenberg(m, v)
                )
                cases += 1
                if comm != apply_fermion(PSI_STAR, n + m, v).scale(-1):
                    failures.append(f"[a_m, psi*_n] failed: m={m}, n={n}, v#{k}")
        for n in modes:
            for k, v in enumerate(vectors):
                comm = apply_heisenberg(m, apply_heisenberg(n, v)) - apply_heisenberg(
                    n, apply_heisenberg(m, v)
                )
                want = v.scale(m) if m + n == 0 else FockVector()
                cases += 1
                if comm != want:
                    failures.append(f"[a_m, a_n] failed: m={m}, n={n}, v#{k}")

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
                val = w.coefficient(end)
                want = _ONE if ms == ns else _ZERO
                cases += 1
                if val != want:
                    failures.append(f"vacuum pairing failed: m={ms}, n={ns}")
    return _suite(
        "classical",
        {"maxWeight": max_weight, "window": window, "pairingRows": pairing_rows},
        cases,
        failures,
    )


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
