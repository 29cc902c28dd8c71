"""One benchmark child process: import the program, run one command, report.

Usage (run.py starts it; it is not meant to be run by hand):

    python3 perfbench/child.py RESULT.json run   TRACE -- CLI-ARGS...
    python3 perfbench/child.py RESULT.json setup
    python3 perfbench/child.py RESULT.json warm  CACHE-DIR P...
    python3 perfbench/child.py RESULT.json cold  CACHE-DIR P

`run` calls `ffdecomp.cli.run(CLI-ARGS)` in this process, so the times it
reports exclude interpreter start-up; with TRACE = 1 the layer-boundary
functions are wrapped first (see spans.py).  `setup` only imports the CLI.
`warm` loads or builds the field tables of the given primes into CACHE-DIR;
`cold` times one build of field P into the empty CACHE-DIR.

The result file holds CLOCK_MONOTONIC readings, which are comparable across
processes on Linux, so the parent can measure from the moment it spawned us.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv):
    result_path, mode, *rest = argv
    from ffdecomp import cli, fpcore

    out = {"ready": time.monotonic()}
    if mode == "run":
        trace, sep, cli_args = rest[0], rest[1], rest[2:]
        if sep != "--":
            raise SystemExit("child: expected -- before the CLI arguments")
        tracer = None
        if trace == "1":
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        out["enter"] = time.monotonic()
        out["code"] = cli.run(cli_args)
        out["done"] = time.monotonic()
        if tracer is not None:
            out["spans"] = tracer.totals()
            out["searches"] = tracer.searches
    elif mode == "warm":
        cache_dir, primes = rest[0], rest[1:]
        for p in primes:
            fpcore.make_field(int(p), cache_dir=cache_dir)
    elif mode == "cold":
        cache_dir, p = rest
        start = time.perf_counter()
        fpcore.make_field(int(p), cache_dir=cache_dir)
        out["cold_s"] = time.perf_counter() - start
    elif mode != "setup":
        raise SystemExit(f"child: unknown mode {mode!r}")
    Path(result_path).write_text(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
