"""One workload process.  Started by run.py, never by hand.

    child.py --trace 0|1 [--spans PATH] (--seconds S | --rounds K)

Reads a JSON list of requests on stdin and answers it in rounds, each
request through `multischur.cli.main` with stdin and stdout swapped for
in-memory buffers, until S seconds have gone by or K rounds are done.
Prints one JSON document with every request's latencies, the first
round's responses, any later response that differed, and the process's
peak RSS.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
from time import perf_counter


def call(main, text: str):
    """One request through the CLI entry point: (exit code, stdout, seconds)."""
    stdin, stdout = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()
    try:
        t0 = perf_counter()
        try:
            rc = main([])
        except Exception as e:  # a traceback is an outcome the benchmark records
            rc = None
            sys.stdout.write(f"uncaught {type(e).__name__}: {e}")
        dt = perf_counter() - t0
        out = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = stdin, stdout
    return rc, out, dt


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--rounds", type=int)
    args = parser.parse_args()
    payload = sys.stdin.read()

    import multischur.cli as cli

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    texts = [json.dumps(req) for req in json.loads(payload)]
    begin = perf_counter()
    first = [call(cli.main, text) for text in texts]
    latencies = [dt for _, _, dt in first]
    changed = []
    rounds = 1
    while (args.rounds is None and perf_counter() - begin < args.seconds) or (
        args.rounds is not None and rounds < args.rounds
    ):
        for k, text in enumerate(texts):
            rc, out, dt = call(cli.main, text)
            latencies.append(dt)
            if (rc, out) != first[k][:2]:
                changed.append([k, rc, out])
        rounds += 1
    result = {
        "responses": [[rc, out] for rc, out, _ in first],
        "changed": changed,
        "rounds": rounds,
        "latencies": latencies,
        "wall_s": perf_counter() - begin,
        "response_bytes": sum(len(out.encode()) for _, out, _ in first) * rounds,
    }
    if tracer is not None:
        result["trace"] = tracer.metrics()
        result["trace"]["cli.response_bytes"] = result["response_bytes"]
        if args.spans:
            tracer.write(args.spans)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
