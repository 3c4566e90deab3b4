"""Regenerate cli_digests.jsonl, the answer digests of the CLI.

    PYTHONPATH=src python tests/data/make_digests.py

Each line holds one request, written out in full, and the sha256 of its
answer: the exit code, a newline, then the stdout of `multischur.cli.main`
given the request on stdin.  The corpus is the requests of
cli_golden.jsonl, the cli-requests and fermion-orthonormality streams of
bench/workloads.py at seeds 0-2, and every verify suite at its defaults and
at its caps; a request met twice is kept once.  `test_answer_digests`
checks the file without importing bench/ or this script.

A change that means to change answers regenerates the file and names every
changed request in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from multischur import cli
from multischur.suite_sizes import SIZES

DATA = Path(__file__).resolve().parent
ROOT = DATA.parents[1]
SEEDS = (0, 1, 2)


def answer_digest(request) -> str:
    """The sha256 of the exit code and stdout that `request` is answered with."""
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(request))
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main([])
    finally:
        sys.stdin = stdin
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


def corpus():
    """(name, request) pairs of the corpus, in order, with repeats."""
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import STREAMS

    for i, line in enumerate((DATA / "cli_golden.jsonl").read_text(encoding="utf-8").splitlines(), 1):
        yield f"golden {i}", json.loads(line)["request"]
    for workload, stream in STREAMS.items():
        for seed in SEEDS:
            for name, request in stream(seed):
                yield f"{workload} {seed} {name}", request
    for theorem, fields in SIZES.items():
        for size in ("default", "cap"):
            yield f"verify {theorem} {size}s", {
                "command": "verify",
                "theorem": theorem,
                **{field.name: getattr(field, size) for field in fields},
            }


def main() -> None:
    lines, seen = [], set()
    for name, request in corpus():
        key = json.dumps(request, sort_keys=True)
        if key not in seen:
            seen.add(key)
            lines.append(json.dumps({"name": name, "request": request, "sha256": answer_digest(request)}, ensure_ascii=False))
    (DATA / "cli_digests.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{len(lines)} requests")


if __name__ == "__main__":
    main()
