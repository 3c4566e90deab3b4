"""Seeded inputs of the workloads.

A round of the request stream has a fixed make-up: the same number of
requests of each kind, the same shapes, sequence forms and alphabet
sizes.  The seed picks the letters of every alphabet, the coefficients of
serialized elements and the order of the round.  So every run attempts
whole rounds of the same operations, at nearly the same cost whatever the
seed, and the four fault probes do not depend on the seed.
"""

from __future__ import annotations

import random

from checks import partitions_of

X = ["x1", "x2", "x3", "x4"]
Y = ["y1", "y2", "y3"]
T = ["t1", "t2", "t3", "t4", "t5", "t6"]
S = ["s1", "s2", "s3", "s4", "s5", "s6"]
LETTERS = X + Y + T + S

# Orthonormality suites that take milliseconds: on a shared host whose CPU
# speed drifts, only short requests answered many times give times that
# repeat (see the README).
FERMION_WEIGHTS = (1, 2, 3, 4)

TRIVIAL_REQUEST = {"command": "multischur", "lambda": [1], "bx": [["x1"]]}

# Each probe is a request the program should refuse with one JSON usage
# error and exit code 2; until it does, the probe counts as failed.
PROBES = {
    "inner-refined-int": {"command": "inner", "f": {"refined": 5}, "g": {"schur": [1]}},
    "fractional-exponent": {
        "command": "multischur",
        "lambda": [1],
        "bx": [[{"coefficient": "1", "monomial": {"x1": 1.5}}]],
    },
    "orthonormality-negative-weight": {"command": "verify", "theorem": "orthonormality", "maxWeight": -1},
    "classical-negative-window": {"command": "verify", "theorem": "classical", "window": -5},
}


def fermion_stream(seed: int) -> list[tuple[str, dict]]:
    """One round: the orthonormality suite at each weight in FERMION_WEIGHTS."""
    return [
        (f"orthonormality-{w}", {"command": "verify", "theorem": "orthonormality", "maxWeight": w, "seed": seed})
        for w in FERMION_WEIGHTS
    ]


class _Gen:
    """Seeded letters and coefficients; shapes and sizes follow a fixed
    cycle (`self.slot`) so that they do not depend on the seed."""

    def __init__(self, seed: int):
        self.rng = random.Random(f"cli-requests-{seed}")
        self.slot = 0

    def cycle(self, options):
        self.slot += 1
        return options[self.slot % len(options)]

    def shape(self, weight: int, max_len: int = 3) -> list[int]:
        return list(self.cycle([p for p in partitions_of(weight) if len(p) <= max_len]))

    def letters(self, pool, k: int) -> list[str]:
        return self.rng.sample(pool, k)

    def rows(self, n: int, pool, lo: int, hi: int) -> list[list[str]]:
        return [self.letters(pool, self.cycle(range(lo, hi + 1))) for _ in range(n)]

    def sequence(self, n: int):
        """One of the alphabet-sequence forms, with n explicit rows where
        the form has rows."""
        form = self.cycle(range(4))
        if form == 0:
            return self.rows(n, X + T, 1, 3)
        if form == 1:
            return {"refined": self.letters(X + T, n + 1)}
        if form == 2:
            return {"constant": self.letters(X + T, 2)}
        return {
            "prefix": self.rows(max(1, n - 1), X, 1, 2),
            "tail": {"kind": "refined", "base": self.letters(X, 1), "t": self.letters(T, 3)},
        }

    def maybe_by(self, req: dict, n: int) -> dict:
        if self.cycle((True, False)):
            req["by"] = self.rows(n, Y, 0, 1)
        return req

    def inner_shape(self, lam) -> list[int]:
        """A mu of weight 1 or 2 inside lam."""
        fits = [m for m in partitions_of(self.cycle((1, 2))) if len(m) <= len(lam) and all(a <= b for a, b in zip(m, lam))]
        return list(self.cycle(fits))

    def coeff_terms(self, lam) -> dict:
        """A serialized element with small symbolic coefficients."""
        terms = []
        for w in range(1, sum(lam) + 1):
            mu = self.shape(w, 2)
            num, den = self.rng.randint(1, 9), self.rng.randint(1, 4)
            coeff = [{"coefficient": f"{num}/{den}", "monomial": {self.rng.choice(T): 1}}]
            if self.cycle((True, False)):
                coeff.append({"coefficient": str(-self.rng.randint(1, 5)), "monomial": {}})
            terms.append({"partition": mu, "coeff": coeff})
        return {"basis": "schur", "truncation": None, "terms": terms}


def cli_stream(seed: int) -> list[tuple[str, dict]]:
    """One round: 101 (name, request) pairs in a seeded order."""
    g = _Gen(seed)
    out: list[tuple[str, dict]] = []

    def add(name, req):
        out.append((name, req))

    plain = []
    for w in (2, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 6):
        lam = g.shape(w)
        req = g.maybe_by({"command": "multischur", "lambda": lam, "bx": g.sequence(len(lam))}, len(lam))
        plain.append(req)
        add("multischur", req)
    for w in (2, 3, 3, 4, 4, 5, 5, 6):
        lam = g.shape(w)
        flag = sorted(min(4, i + g.cycle((0, 1, 2))) for i in range(1, len(lam) + 1))
        add("multischur-flag", {"command": "multischur", "lambda": lam, "flag": flag, "vars": g.letters(X, 4)})
    for w in (2, 3, 3, 4, 4, 5, 5, 6):
        lam = g.shape(w)
        add("expand-schur", g.maybe_by({"command": "expand", "basis": "schur", "lambda": lam, "bx": g.rows(len(lam), X + T, 1, 2)}, len(lam)))
    for w in (2, 3, 4, 4, 5, 5, 6, 6):
        lam = g.shape(w)
        add("expand-refined", {"command": "expand", "basis": "refined", "lambda": lam, "t": g.letters(T, 3)})
    for w in (2, 3, 3, 4, 4, 5):
        lam = g.shape(w)
        req = {"command": "expand", "basis": "refined", "lambda": lam, "t": g.letters(T, 3), "bx": g.rows(len(lam), X, 1, 1)}
        add("expand-refined-bx", g.maybe_by(req, len(lam)))
    for w in (0, 1, 2, 2, 3, 3):
        lam = g.shape(w)
        r = g.cycle(range(max(1, len(lam)), 4))
        D = min(6, w + g.cycle((1, 2, 3)))
        add("expand-truncated", {"command": "expand", "basis": "truncated", "lambda": lam, "bx": g.sequence(r), "r": r, "D": D})
    for w in (1, 2, 2, 3, 3, 4):
        lam = g.shape(w)
        add("expand-stable", {"command": "expand", "basis": "stable", "lambda": lam, "t": g.letters(T, 6), "D": min(6, w + 2)})
    for w in (1, 1, 2, 2, 3, 3):
        lam = g.shape(w)
        D = w + 2
        add("expand-stable-dual", {"command": "expand", "basis": "stable-dual", "lambda": lam, "bx": {"refined": g.letters(S, D)}, "t": g.letters(T, D), "D": D})
    for req in plain[4::3]:
        add("skew-empty-mu", dict(req, command="skew", mu=[]))
    for w in (3, 4, 4, 5, 6):
        lam = g.shape(w)
        mu = g.inner_shape(lam)
        add("skew", g.maybe_by({"command": "skew", "lambda": lam, "mu": list(mu), "bx": g.sequence(len(lam))}, len(lam)))
    for w in (3, 4, 4, 5, 5, 6):
        lam = g.shape(w)
        mu = g.inner_shape(lam)
        req = {"command": "skew", "lambda": lam, "mu": list(mu), "bx": g.rows(len(lam), X, 1, 1), "bp": {"refined": g.letters(T, len(lam) + 1)}}
        add("skew-bp", g.maybe_by(req, len(lam)))
    for same in (True, True, False, False):
        t = g.letters(T, 5)
        a = g.shape(g.cycle((1, 2, 3, 4)))
        b = a if same else g.shape(g.cycle((1, 2, 3, 4)))
        add("inner-stable-refined", {"command": "inner", "f": {"stable": {"lambda": a, "t": t, "D": 5}}, "g": {"refined": {"lambda": b, "t": t}}})
    for same in (True, False):
        t = g.letters(T, 5)
        a = g.shape(g.cycle((1, 2, 3, 4)))
        b = a if same else g.shape(g.cycle((1, 2, 3, 4)))
        add("inner-refined-stable", {"command": "inner", "f": {"refined": {"lambda": a, "t": t}}, "g": {"stable": {"lambda": b, "t": t, "D": 5}}})
    for same in (True, False):
        a = g.shape(g.cycle((1, 2, 3, 4, 5, 6)))
        b = a if same else g.shape(g.cycle((1, 2, 3, 4, 5, 6)))
        add("inner-schur", {"command": "inner", "f": {"schur": a}, "g": {"schur": b}})
    for w in (3, 5):
        lam = g.shape(w)
        add("inner-terms", {"command": "inner", "f": g.coeff_terms(lam), "g": {"refined": {"lambda": lam, "t": g.letters(T, 3)}}})
    for w in (2, 3, 4, 5):
        lam = g.shape(w)
        add("eval-refined", {"command": "eval", "f": {"refined": {"lambda": lam, "t": g.letters(T, 3)}}, "vars": g.letters(X, g.cycle((2, 3, 4)))})
    for w in (3, 4, 6):
        add("eval-schur", {"command": "eval", "f": {"schur": g.shape(w)}, "vars": g.letters(X, g.cycle((2, 3, 4)))})
    for w in (3, 4, 5):
        add("eval-terms", {"command": "eval", "f": g.coeff_terms(g.shape(w)), "vars": g.letters(X, 3)})
    add("verify-dual-engine", {"command": "verify", "theorem": "dual-engine", "maxWeight": 4, "seed": seed})
    add("verify-beta-chain", {"command": "verify", "theorem": "beta-chain", "seed": seed})
    add("verify-cauchy", {"command": "verify", "theorem": "cauchy", "seed": seed})
    for name, req in PROBES.items():
        add("probe:" + name, req)
    g.rng.shuffle(out)
    return out


STREAMS = {"fermion-orthonormality": fermion_stream, "cli-requests": cli_stream}
WORKLOADS = tuple(STREAMS)
