"""multischur benchmark driver (stdlib only).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: fermion-orthonormality, cli-requests, or `all` to run both
in turn.  Run from anywhere; the program is
imported from `src/` next to this directory.  Every response is checked
(see checks.py).  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones from a traced
run plus the tracing overhead against untraced passes of the same work.
The lines before it print the same figures for a reader.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

from checks import CheckError, Checker, is_usage_error
from workloads import LETTERS, STREAMS, TRIVIAL_REQUEST, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_SAMPLES = 11  # fresh `python -m multischur` processes per run
TRACE_ROUNDS = 3  # rounds of the request stream in one traced pass
DEADLINE_S = 170.0  # every child is killed before the run would pass this

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "exactalg.self_s": "s",
    "exactalg.det_calls": "count",
    "exactalg.det_s": "s",
    "exactalg.det_max_n": "rows",
    "exactalg.scalar_mul_calls": "count",
    "exactalg.scalar_add_calls": "count",
    "exactalg.peak_scalar_terms": "count",
    "supersym.self_s": "s",
    "supersym.h_super_calls": "count",
    "supersym.h_complete_calls": "count",
    "supersym.e_elem_calls": "count",
    "supersym.cache_hits": "count",
    "supersym.cache_misses": "count",
    "supersym.cache_hit_ratio": "ratio",
    "supersym.cache_entries": "count",
    "fock.self_s": "s",
    "fock.exp_H_calls": "count",
    "fock.exp_H_s": "s",
    "fock.heisenberg_calls": "count",
    "fock.heisenberg_s": "s",
    "fock.fermion_calls": "count",
    "fock.dressed_fermion_calls": "count",
    "fock.bra_pair_s": "s",
    "fock.ket_s": "s",
    "fock.peak_vector_states": "count",
    "expansions.self_s": "s",
    "expansions.expand_calls": "count",
    "expansions.expand_s": "s",
    "expansions.mu_per_expand": "count",
    "expansions.eval_symfunc_s": "s",
    "expansions.jacobi_trudi_hit_ratio": "ratio",
    "expansions.h_word_schur_hit_ratio": "ratio",
    "expansions.pieri_calls": "count",
    "expansions.hall_inner_s": "s",
    "shapes.self_s": "s",
    "shapes.enum_calls": "count",
    "shapes.enum_s": "s",
    "verifications.self_s": "s",
    "verifications.cases": "count",
    "cli.self_s": "s",
    "cli.run_s": "s",
    "cli.overhead_s": "s",
    "cli.response_bytes": "bytes",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}


class BenchError(Exception):
    """The benchmark could not run to its end."""


class Run:
    """Counts and verdicts of one invocation."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.checker = Checker(seed, LETTERS)
        self.start = perf_counter()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # wrong answers: the run is not correct
        self.probes_failing: set[str] = set()

    def timeout(self) -> float:
        left = DEADLINE_S - (perf_counter() - self.start)
        if left <= 1:
            raise BenchError("out of time")
        return left

    def spawn(self, args, stdin: str):
        """Run a Python child in the checkout to its end: (exit code, stdout, stderr)."""
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        proc = subprocess.run(
            [sys.executable, *args],
            input=stdin,
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=env,
            timeout=self.timeout(),
        )
        return proc.returncode, proc.stdout, proc.stderr

    def child(self, args, stdin: str) -> dict:
        rc, out, err = self.spawn([os.path.join(HERE, "child.py"), *args], stdin)
        if rc != 0:
            raise BenchError(f"workload process exited with {rc}: {err.strip()[-2000:]}")
        return json.loads(out.splitlines()[-1])

    def check(self, name: str, req: dict, rc, text: str) -> bool:
        """Check one response; returns False when the operation failed."""
        if name.startswith("probe:"):
            if is_usage_error(rc, text):
                return True
            self.probes_failing.add(name[len("probe:"):])
            return False
        if rc != 0:
            print(f"FAILED {name}: exit {rc}: {text[:300]}", file=sys.stderr)
            return False
        try:
            if not text.endswith("\n") or text.count("\n") != 1:
                raise CheckError("stdout is not exactly one JSON line")
            self.checker.check(req, json.loads(text))
        except (CheckError, ValueError, KeyError, TypeError) as e:
            self.errors.append(f"{name}: wrong answer to {json.dumps(req)[:300]}: {e}")
        return True

    # -- set-up ---------------------------------------------------------

    def setup_times(self, samples: int) -> list[float]:
        times = []
        for _ in range(samples):
            t0 = perf_counter()
            rc, out, err = self.spawn(["-m", "multischur"], json.dumps(TRIVIAL_REQUEST))
            times.append(perf_counter() - t0)
            self.check("setup", TRIVIAL_REQUEST, rc, out)
        return times

    # -- passes ---------------------------------------------------------

    def one_pass(self, trace: bool, seconds: float | None = None) -> dict:
        """One workload process: rounds of the request stream for
        `seconds`, or TRACE_ROUNDS rounds when `seconds` is None."""
        stream = STREAMS[self.workload](self.seed)
        args = ["--trace", str(int(trace))]
        args += ["--rounds", str(TRACE_ROUNDS)] if seconds is None else ["--seconds", str(seconds)]
        if trace:
            args += ["--spans", os.path.join(OUT_DIR, f"spans-{self.workload}.tsv")]
        res = self.child(args, json.dumps([req for _, req in stream]))
        rounds = res["rounds"]
        self.attempted += rounds * len(stream)
        by_key = {}
        for (name, req), (rc, text) in zip(stream, res["responses"]):
            if not self.check(name, req, rc, text):
                self.failed += rounds
            if name == "multischur":
                by_key[json.dumps([req["lambda"], req["bx"], req.get("by")])] = text
        for (name, req), (_, text) in zip(stream, res["responses"]):
            if name == "skew-empty-mu" and by_key[json.dumps([req["lambda"], req["bx"], req.get("by")])] != text:
                self.errors.append(f"skew with empty mu differs from multischur: {json.dumps(req)[:300]}")
        for k, rc, text in res["changed"]:
            if not stream[k][0].startswith("probe:"):
                self.errors.append(f"{stream[k][0]}: a later round answered differently: {text[:300]}")
        return res

    # -- measurements -----------------------------------------------------

    def end_to_end(self, seconds: float) -> dict[str, float]:
        """Answer the stream in rounds for `seconds` in one process; every
        time but `setup_s` is built from each request's fastest answer in
        the run, because a shared host's CPU speed drifts (see README).
        Set-up is sampled half before and half after the rounds."""
        setup = self.setup_times(SETUP_SAMPLES // 2)
        res = self.one_pass(False, seconds)
        lat, n = res["latencies"], len(res["responses"])
        best = [min(lat[k::n]) for k in range(n)]
        setup += self.setup_times(SETUP_SAMPLES - len(setup))
        return {
            "setup_s": statistics.median(setup),
            "solve_s": sum(best),
            "request_p50_ms": 1000 * quantile(best, 5),
            "request_p90_ms": 1000 * quantile(best, 9),
            "requests_per_s": n / sum(best),
            "peak_rss_mb": res["rss_mb"],
        }

    def per_layer(self, seconds: float) -> dict[str, float]:
        """Alternate untraced and traced passes of the same work."""
        os.makedirs(OUT_DIR, exist_ok=True)
        plain, traced = [], []
        t0 = perf_counter()
        while not traced or perf_counter() - t0 < seconds:
            plain.append(self.one_pass(False)["wall_s"])
            traced.append(self.one_pass(True))
        out = {
            name: statistics.median(p["trace"][name] for p in traced)
            for name in PER_LAYER
            if name != "trace.overhead_pct"
        }
        overhead = min(p["wall_s"] for p in traced) / min(plain)
        out["trace.overhead_pct"] = 100 * (overhead - 1)
        return out


def quantile(values, decile: int) -> float:
    """The decile-th tenth of the samples, by the inclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[decile - 1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed)
    metrics = run.per_layer(seconds) if trace else run.end_to_end(seconds)
    units = PER_LAYER if trace else END_TO_END
    for line in run.errors:
        print("CHECK FAILED " + line, file=sys.stderr)
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"attempted {run.attempted}  failed {run.failed}  correct {not run.errors}")
    if run.probes_failing:
        print("  fault probes still failing: " + ", ".join(sorted(run.probes_failing)))
    for name, unit in units.items():
        print(f"  {name:36s} {metrics[name]:14.6g} {unit}")
    return {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "multischur", "__init__.py")):
        print(f"no multischur sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            parts = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in WORKLOADS}
            result = {
                "correct": all(p["correct"] for p in parts.values()),
                "attempted": sum(p["attempted"] for p in parts.values()),
                "failed": sum(p["failed"] for p in parts.values()),
                "metrics": {f"{w}/{k}": v for w, p in parts.items() for k, v in p["metrics"].items()},
            }
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"benchmark aborted: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
