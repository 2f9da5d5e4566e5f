"""One fresh interpreter that runs a list of invexcheck CLI calls.

Usage: ``python3 benchmark/child.py JOB.json``.  The job names the source
tree to import from, the CLI argument lists, where to write the result and,
when tracing, where to write the spans.  The child stamps the monotonic
clock once the package is imported and every input is loaded (the parent
stamped it before starting the process), times each ``cli.main`` call, and
reports its own peak resident memory.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _load_inputs(argv: list[str], fixture) -> None:
    """Resolve the fixture of an analyze call; read every input file."""
    if argv[0] == "analyze":
        fixture(argv[1])
        return
    for arg in argv[1:]:
        if arg == "-o":
            break
        with open(arg, "rb") as handle:
            handle.read()


def main() -> int:
    with open(sys.argv[1], "r", encoding="utf-8") as handle:
        job = json.load(handle)
    import invexcheck.cli as cli

    src = os.path.join(os.path.realpath(job["src"]), "")
    if not os.path.realpath(cli.__file__).startswith(src):
        sys.stderr.write(f"invexcheck imported from {cli.__file__}, not {src}\n")
        return 1
    for argv in job["calls"]:
        _load_inputs(argv, cli.fixture)
    loaded = time.clock_gettime(time.CLOCK_MONOTONIC)

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    calls = []
    for argv in job["calls"]:
        start = time.perf_counter()
        code = cli.main(argv)
        calls.append({"code": code, "seconds": time.perf_counter() - start})
    if tracer is not None:
        tracer.dump(job["trace"])
    result = {
        "loaded": loaded,
        "calls": calls,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(job["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
