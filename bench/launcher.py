"""Spawns benchmark samples on request and reports their timing and rusage.

``run.py`` starts this process once, while it is still small, and
writes one JSON line per sample to its stdin:
``{"argv": [...], "log": PATH, "timeout": SECONDS}``.  For each it
answers one JSON line ``{"rc", "start", "end", "maxrss_kb"}`` on stdout,
where ``start``/``end`` are CLOCK_MONOTONIC just before the spawn and just
after ``os.wait4`` reaped the child.  It exits when its stdin closes.

Spawning from a small process is the point: Linux carries the spawning
process's peak RSS into a vfork-and-exec child's ``ru_maxrss``, and the
peak of ``run.py`` includes the large reports it parses.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["log"], "wb") as log:
            start = _clock()
            proc = subprocess.Popen(req["argv"], stdin=subprocess.DEVNULL, stdout=log, stderr=log)
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = _clock()
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"rc": proc.returncode, "start": start, "end": end, "maxrss_kb": usage.ru_maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
