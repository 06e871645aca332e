"""Grid rows evaluated on forked worker processes, for ``--jobs`` above 1.

Worker k of ``jobs`` evaluates the interleaved share ``rows[k::jobs]``, so
cheap rows at the start of a grid (points that skip) spread over every
worker. Worker 0 is the calling process; each other worker is a forked child
that pickles its share's outcome into a pipe and leaves by ``os._exit``, so
it runs no atexit handler, flushes no copy of the parent's stdio buffers and
never returns into the parent's code. A child only finishes its finite share
and exits: nothing outlives the call, and a killed parent leaves children
that end on their own.
"""

from __future__ import annotations

import os
import pickle

from .errors import BwmBerryError


def interleaved(call, rows: list, jobs: int) -> list:
    """``[call(row) for row in rows]``, with ``rows[k::jobs]`` evaluated by worker k.

    If ``call`` raises, the exception of the first failing row, in row
    order, is raised here, as the one-process loop would raise it. A child
    that ends without a result raises ``BwmBerryError`` naming its exit
    status. Every child is reaped before this returns or raises. At most
    ``len(rows)`` workers run, so at most ``len(rows) - 1`` children.
    """
    jobs = min(jobs, len(rows))
    children = []
    try:
        for k in range(1, jobs):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError as exc:
                os.close(read)
                os.close(write)
                raise BwmBerryError(f"cannot start worker {k} of {jobs} (--jobs): {exc}") from exc
            if pid == 0:
                os.close(read)
                _child(call, rows[k::jobs], write)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb")))
        shares = [_share(call, rows[0::jobs])]
        payloads = [pipe.read() for _, pipe in children]
    finally:
        statuses = []
        for pid, pipe in children:
            pipe.close()
            statuses.append(os.waitpid(pid, 0)[1])
    shares += [_received(k, jobs, payload, status) for k, (payload, status) in enumerate(zip(payloads, statuses), 1)]
    failed = [(k + jobs * len(done), exc) for k, (done, exc) in enumerate(shares) if exc is not None]
    if failed:
        raise min(failed, key=lambda item: item[0])[1]
    results = [None] * len(rows)
    for k, (done, _) in enumerate(shares):
        results[k::jobs] = done
    return results


def _share(call, share: list) -> tuple[list, Exception | None]:
    """The results of the share's rows up to the first that raises, and that row's exception."""
    done = []
    try:
        for row in share:
            done.append(call(row))
    except Exception as exc:
        return done, exc
    return done, None


def _child(call, share: list, fd: int) -> None:
    """Evaluate the share in a forked child, write its pickled outcome to ``fd`` and exit; never returns."""
    status = 1
    try:
        payload = pickle.dumps(_share(call, share), pickle.HIGHEST_PROTOCOL)
        with open(fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _received(k: int, jobs: int, payload: bytes, status: int) -> tuple[list, Exception | None]:
    """The outcome child k wrote, or ``BwmBerryError`` if it ended without one.

    A child killed while writing leaves a truncated pickle, which does not load.
    """
    if payload:
        try:
            return pickle.loads(payload)
        except Exception:  # an outcome that does not unpickle (a class's constructor can raise anything)
            pass
    code = os.waitstatus_to_exitcode(status)
    how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
    raise BwmBerryError(f"worker {k} of {jobs} (--jobs) ended without a result ({how})")
