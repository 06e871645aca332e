"""One benchmark sample: run ``bwmberry.cli.main`` once in a fresh process.

Usage: ``python3 bench/child.py SPEC.json`` with ``src`` on PYTHONPATH.
SPEC holds ``argv`` (the CLI arguments), ``result`` (where to write the
timings) and ``trace`` (whether to install the span wrappers).  With
``argv`` null the child only imports the program and records the
environment, which also warms the bytecode cache before any timed run.

Timestamps are CLOCK_MONOTONIC, the clock the parent reads, so the parent
can subtract its spawn time from ``main_start``.  The process exits with
``main``'s return code.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "blas": blas_name}


def run(spec: dict) -> int:
    tracer = None
    absent: list[str] = []
    if spec.get("trace"):
        import spans

        tracer = spans.Tracer()
    from bwmberry import cli

    result = {"bwmberry": os.path.dirname(cli.__file__)}
    if spec["argv"] is None:
        result["env"] = _environment()
        rc = 0
    else:
        main = cli.main
        if tracer is not None:
            absent = spans.install(tracer)
            main = tracer.wrap("cli.main", main)
        result["main_start"] = _clock()
        rc = main(spec["argv"])
        result["main_end"] = _clock()
    result["rc"] = rc
    if tracer is not None:
        result["absent"] = absent
        result["spans"] = tracer.spans
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        sys.exit(run(json.load(fh)))
