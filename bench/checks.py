"""Independent checks of multischur responses.

Nothing here imports multischur.  Every expected value is computed from
the request alone, with this module's own code:

* determinants by fraction-exact Gaussian elimination (the package uses
  division-free cofactor expansion over polynomials);
* complete and elementary functions of numbers from their generating
  series;
* Schur polynomials in numbers by the bialternant formula;
* flagged Schur polynomials by enumerating row-flagged tableaux;
* suite case counts from this module's own partition enumeration.

Symbolic answers are compared at a seeded rational point: every letter
of the request pool gets a distinct rational value, and the serialized
polynomial in the response is evaluated there.  Flagged Schur answers
are compared monomial by monomial.  Besides the formulas, the checks
assert properties the method must have: refined and stable expansions
are unitriangular, the Hall pairing of stable and refined elements is a
delta, and a skew request with empty inner shape answers exactly like the
multischur request for the same shape.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class CheckError(Exception):
    """A response disagrees with the independent computation."""


# -- partitions -------------------------------------------------------


def partitions_of(n: int, max_part: int | None = None) -> list[tuple[int, ...]]:
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return out


def partitions_upto(n: int, max_len: int | None = None) -> list[tuple[int, ...]]:
    out = [p for w in range(n + 1) for p in partitions_of(w)]
    return [p for p in out if max_len is None or len(p) <= max_len]


def part(lam, i: int) -> int:
    return lam[i - 1] if i <= len(lam) else 0


def contained(mu, lam) -> bool:
    return len(mu) <= len(lam) and all(m <= part(lam, i) for i, m in enumerate(mu, 1))


def inside(lam) -> list[tuple[int, ...]]:
    return [mu for mu in partitions_upto(sum(lam), len(lam)) if contained(mu, lam)]


def outside(lam, max_weight: int, max_len: int | None = None) -> list[tuple[int, ...]]:
    return [mu for mu in partitions_upto(max_weight, max_len) if contained(lam, mu)]


# -- suite case counts --------------------------------------------------


def suite_cases(theorem: str, params: dict) -> int:
    """Number of cases each exhaustive suite must report."""
    if theorem == "orthonormality":
        return len(partitions_upto(params["maxWeight"])) ** 2
    if theorem == "dual-engine":
        return sum(len(inside(lam)) for lam in partitions_upto(params["maxWeight"]))
    if theorem == "beta-chain":
        w, dual = params.get("maxWeight", 4), params.get("maxDualWeight", 5)
        shapes = partitions_upto(w)
        return len(shapes) + sum(len(outside(lam, dual)) for lam in shapes)
    if theorem == "cauchy":
        return 2
    raise KeyError(theorem)


# -- exact linear algebra and symmetric functions of numbers -----------


def det(matrix) -> Fraction:
    a = [list(map(Fraction, row)) for row in matrix]
    n = len(a)
    sign = 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return _ZERO
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            sign = -sign
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    out = Fraction(sign)
    for c in range(n):
        out *= a[c][c]
    return out


def h(k: int, xs, ys=()) -> Fraction:
    """Degree k coefficient of prod(1 - y z) / prod(1 - x z)."""
    if k < 0:
        return _ZERO
    s = [_ONE] + [_ZERO] * k
    for x in xs:
        for d in range(1, k + 1):
            s[d] += x * s[d - 1]
    for y in ys:
        for d in range(k, 0, -1):
            s[d] -= y * s[d - 1]
    return s[k]


def e(k: int, xs) -> Fraction:
    """Degree k coefficient of prod(1 + x z)."""
    if k < 0 or k > len(xs):
        return _ZERO
    s = [_ONE] + [_ZERO] * k
    for x in xs:
        for d in range(k, 0, -1):
            s[d] += x * s[d - 1]
    return s[k]


def schur_at(nu, zs) -> Fraction:
    """s_nu(z_1..z_q) by the bialternant formula; the z must be distinct."""
    q = len(zs)
    if len(nu) > q:
        return _ZERO
    num = det([[z ** (part(nu, j) + q - j) for j in range(1, q + 1)] for z in zs])
    den = det([[z ** (q - j) for j in range(1, q + 1)] for z in zs])
    return num / den


def flagged_tableaux(shape, flag, letters) -> dict[tuple, int]:
    """Monomials of semistandard fillings, row i bounded by flag_i."""
    counts: dict[tuple, int] = {}
    cells = [(i, j) for i, width in enumerate(shape) for j in range(width)]
    filling: dict[tuple[int, int], int] = {}

    def fill(k: int):
        if k == len(cells):
            content: dict[str, int] = {}
            for v in filling.values():
                content[letters[v - 1]] = content.get(letters[v - 1], 0) + 1
            mono = tuple(sorted(content.items()))
            counts[mono] = counts.get(mono, 0) + 1
            return
        i, j = cells[k]
        lo = filling[(i, j - 1)] if j else 1
        if i:
            lo = max(lo, filling[(i - 1, j)] + 1)
        for v in range(lo, min(flag[i], len(letters)) + 1):
            filling[(i, j)] = v
            fill(k + 1)
        filling.pop((i, j), None)

    fill(0)
    return counts


# -- reading requests and responses -------------------------------------


def row_letters(spec, i: int) -> list[str]:
    """Alphabet of row i >= 1 for the alphabet-sequence forms of the CLI."""
    if spec is None:
        return []
    if isinstance(spec, list):
        return list(spec[i - 1]) if i <= len(spec) else []
    if "refined" in spec:
        return list(spec["refined"][: i - 1])
    if "constant" in spec:
        return list(spec["constant"])
    prefix = spec.get("prefix", [])
    if i <= len(prefix):
        return list(prefix[i - 1])
    tail = spec.get("tail", {"kind": "empty"})
    if tail["kind"] == "empty":
        return []
    return list(tail.get("base", [])) + list(tail["t"][: i - len(prefix) - 1])


def poly_terms(terms) -> dict[tuple, Fraction]:
    """Serialized Scalar terms as {sorted monomial: coefficient}."""
    if not isinstance(terms, list):
        raise CheckError(f"expected a term list, got {terms!r}")
    out: dict[tuple, Fraction] = {}
    for t in terms:
        c = Fraction(t["coefficient"])
        if not c:
            raise CheckError(f"zero coefficient serialized: {t!r}")
        mono = t["monomial"]
        if any(not isinstance(x, int) or isinstance(x, bool) or x <= 0 for x in mono.values()):
            raise CheckError(f"bad exponent in {t!r}")
        key = tuple(sorted(mono.items()))
        if key in out:
            raise CheckError(f"monomial serialized twice: {key!r}")
        out[key] = c
    return out


def symfunc_terms(data, basis: str, truncation) -> dict[tuple, list]:
    if data.get("basis") != basis or data.get("truncation") != truncation:
        raise CheckError(
            f"expected basis {basis!r} truncation {truncation!r}, got "
            f"{data.get('basis')!r} {data.get('truncation')!r}"
        )
    out = {}
    for item in data["terms"]:
        mu = tuple(item["partition"])
        if mu in out:
            raise CheckError(f"partition {mu} listed twice")
        out[mu] = item["coeff"]
    return out


class Checker:
    """Checks responses at one seeded rational point."""

    def __init__(self, seed: int, letters):
        rng = random.Random(f"points-{seed}")
        values = set()
        while len(values) < len(letters) + 6:
            values.add(Fraction(rng.choice([-1, 1]) * rng.randint(1, 60), rng.randint(1, 12)))
        values = sorted(values)
        rng.shuffle(values)
        self.point = dict(zip(letters, values))
        self.zs = values[len(letters):]

    # values at the point

    def at(self, terms) -> Fraction:
        total = _ZERO
        for mono, c in poly_terms(terms).items():
            for name, k in mono:
                if name not in self.point:
                    raise CheckError(f"unknown indeterminate {name!r} in response")
                c *= self.point[name] ** k
            total += c
        return total

    def letters(self, names) -> list[Fraction]:
        return [self.point[n] for n in names]

    def row(self, spec, i: int) -> list[Fraction]:
        return self.letters(row_letters(spec, i))

    def jt(self, lam, mu, xrow, yrow) -> Fraction:
        """det h_{lam_i - mu_j - i + j}(xrow(i, j) / yrow(i, j)), of order
        max(len(lam), len(mu))."""
        n = max(len(lam), len(mu))
        return det(
            [
                [h(part(lam, i) - part(mu, j) - i + j, xrow(i, j), yrow(i, j)) for j in range(1, n + 1)]
                for i in range(1, n + 1)
            ]
        )

    def refined_coeffs(self, lam, t) -> dict[tuple, Fraction]:
        tv = self.letters(t)
        return {
            mu: self.jt(lam, mu, lambda i, j: tv[: i - 1], lambda i, j: ())
            for mu in inside(lam)
        }

    def stable_coeffs(self, lam, t, D) -> dict[tuple, Fraction]:
        tv = self.letters(t)
        out = {}
        for mu in outside(lam, D):
            n = max(len(mu), len(lam))
            out[mu] = det(
                [
                    [e(-part(lam, i) + part(mu, j) + i - j, [-v for v in tv[: i - 1]]) for j in range(1, n + 1)]
                    for i in range(1, n + 1)
                ]
            )
        return out

    def element(self, spec) -> dict[tuple, Fraction]:
        """Schur coefficients at the point of a request's element form."""
        if "terms" in spec:
            return {mu: self.at(c) for mu, c in symfunc_terms(spec, "schur", spec.get("truncation")).items()}
        if "schur" in spec:
            return {tuple(spec["schur"]): _ONE}
        if "refined" in spec:
            return self.refined_coeffs(tuple(spec["refined"]["lambda"]), spec["refined"]["t"])
        s = spec["stable"]
        return self.stable_coeffs(tuple(s["lambda"]), s["t"], s["D"])

    # comparisons

    def expect_value(self, got_terms, want: Fraction, what: str):
        got = self.at(got_terms)
        if got != want:
            raise CheckError(f"{what}: value {got} at the check point, expected {want}")

    def expect_coeffs(self, got: dict, want: dict[tuple, Fraction], what: str):
        for mu in got:
            if mu not in want:
                raise CheckError(f"{what}: unexpected partition {list(mu)}")
        for mu, value in want.items():
            have = self.at(got[mu]) if mu in got else _ZERO
            if have != value:
                raise CheckError(f"{what}: coefficient of {list(mu)} is {have}, expected {value}")

    def expect_unitriangular(self, got: dict, lam, what: str):
        if got.get(tuple(lam)) != [{"coefficient": "1", "monomial": {}}]:
            raise CheckError(f"{what}: leading coefficient of {list(lam)} is not 1")

    # per command

    def check(self, req: dict, out):
        """Raise CheckError unless `out` (parsed JSON) answers `req`."""
        cmd = req["command"]
        lam = tuple(req.get("lambda", ()))
        if cmd == "multischur" and "flag" in req:
            want = flagged_tableaux(lam, req["flag"], req["vars"])
            got = {mono: c for mono, c in poly_terms(out).items()}
            if got != {mono: Fraction(c) for mono, c in want.items()}:
                raise CheckError("flagged Schur polynomial differs from the tableau sum")
        elif cmd in ("multischur", "skew") and "bp" not in req:
            mu = tuple(req.get("mu", ()))
            bx, by = req["bx"], req.get("by")
            want = self.jt(lam, mu, lambda i, j: self.row(bx, i), lambda i, j: self.row(by, i))
            self.expect_value(out, want, cmd)
        elif cmd == "skew":
            self.check_skew_series(req, out)
        elif cmd == "expand":
            self.check_expand(req, out, lam)
        elif cmd == "inner":
            f, g = self.element(req["f"]), self.element(req["g"])
            want = sum((c * g[mu] for mu, c in f.items() if mu in g), _ZERO)
            self.expect_value(out, want, "inner")
            kinds = {next(iter(req["f"])), next(iter(req["g"]))}
            if kinds == {"stable", "refined"}:
                a, b = req["f"][next(iter(req["f"]))], req["g"][next(iter(req["g"]))]
                delta = [{"coefficient": "1", "monomial": {}}] if a["lambda"] == b["lambda"] else []
                if out != delta:
                    raise CheckError("Hall pairing of stable and refined elements is not a delta")
        elif cmd == "eval":
            f = self.element(req["f"])
            xs = self.letters(req["vars"])
            want = sum((c * schur_at(mu, xs) for mu, c in f.items()), _ZERO)
            self.expect_value(out, want, "eval")
        elif cmd == "verify":
            self.check_suite(req, out)
        else:
            raise CheckError(f"no check for command {cmd!r}")

    def check_expand(self, req, out, lam):
        basis = req["basis"]
        what = f"expand {basis}"
        if basis == "schur":
            bx, by = req["bx"], req.get("by")
            got = symfunc_terms(out, "schur", None)
            want = {
                mu: self.jt(lam, mu, lambda i, j: self.row(bx, i), lambda i, j: self.row(by, i))
                for mu in inside(lam)
            }
            self.expect_coeffs(got, want, what)
        elif basis == "refined" and "bx" not in req:
            got = symfunc_terms(out, "schur", None)
            self.expect_coeffs(got, self.refined_coeffs(lam, req["t"]), what)
            self.expect_unitriangular(got, lam, what)
        elif basis == "refined":
            bx, by, tv = req["bx"], req.get("by"), self.letters(req["t"])
            got = symfunc_terms(out, "refined", None)
            want = {
                mu: self.jt(
                    lam, mu, lambda i, j: self.row(bx, i), lambda i, j: self.row(by, i) + tv[: j - 1]
                )
                for mu in inside(lam)
            }
            self.expect_coeffs(got, want, what)
        elif basis == "truncated":
            r, D, bx = req["r"], req["D"], req["bx"]
            got = symfunc_terms(out, "schur", D)
            want = {}
            for mu in outside(lam, D, r):
                want[mu] = det(
                    [
                        [
                            e(-part(lam, i) + part(mu, j) + i - j, [-v for v in self.row(bx, i)])
                            for j in range(1, r + 1)
                        ]
                        for i in range(1, r + 1)
                    ]
                )
            self.expect_coeffs(got, want, what)
        elif basis == "stable":
            got = symfunc_terms(out, "schur", req["D"])
            self.expect_coeffs(got, self.stable_coeffs(lam, req["t"], req["D"]), what)
            self.expect_unitriangular(got, lam, what)
        elif basis == "stable-dual":
            D, bx, tv = req["D"], req["bx"], self.letters(req["t"])
            if set(bx) != {"refined"}:
                raise CheckError("stable-dual checks need a refined bx, which stabilizes at row 1")
            got = symfunc_terms(out, "stable", D)
            want = {}
            for mu in outside(lam, D):
                n = max(1, len(mu))
                want[mu] = det(
                    [
                        [
                            h(-part(lam, i) + part(mu, j) + i - j, tv[: j - 1], self.row(bx, i))
                            for j in range(1, n + 1)
                        ]
                        for i in range(1, n + 1)
                    ]
                )
            self.expect_coeffs(got, want, what)
            self.expect_unitriangular(got, lam, what)
        else:
            raise CheckError(f"no check for basis {basis!r}")

    def check_skew_series(self, req, out):
        """Specialize the Schur-basis answer at the numbers zs; the
        determinant with X joined to each row alphabet gives the same
        number."""
        lam, mu = tuple(req["lambda"]), tuple(req.get("mu", ()))
        bx, by, bp = req["bx"], req.get("by"), req["bp"]
        got = symfunc_terms(out, "schur", None)
        value = sum((self.at(c) * schur_at(nu, self.zs) for nu, c in got.items()), _ZERO)
        want = self.jt(
            lam,
            mu,
            lambda i, j: self.row(bx, i) + self.zs,
            lambda i, j: self.row(by, i) + self.row(bp, j),
        )
        if value != want:
            raise CheckError(f"skew series: value {value} at the check point, expected {want}")

    def check_suite(self, req, out):
        theorem = req["theorem"]
        params = {k: v for k, v in req.items() if k not in ("command", "theorem", "seed")}
        want = suite_cases(theorem, params)
        if out.get("theorem") != theorem or out.get("passed") is not True or out.get("failures"):
            raise CheckError(f"suite {theorem} did not pass: {json.dumps(out)[:300]}")
        if out.get("cases") != want:
            raise CheckError(f"suite {theorem} ran {out.get('cases')} cases, expected {want}")
        if "seed" in req and out["parameters"].get("seed") != req["seed"]:
            raise CheckError(f"suite {theorem} did not record the seed")


def is_usage_error(rc, text: str) -> bool:
    """The outcome a bad request must get: exit 2 and one JSON usage error."""
    if rc != 2 or text.count("\n") != 1:
        return False
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return False
    return isinstance(doc, dict) and set(doc) == {"error"} and doc["error"].get("type") == "usage"
