"""Grid rows evaluated on forked worker processes, for ``--jobs`` above 1.

Worker k of ``jobs`` evaluates the interleaved share ``rows[k::jobs]``, so
cheap rows at the start of a grid (points that skip) spread over every
worker. Worker 0 is the calling process; each other worker is a forked child
that pickles each row's outcome into a pipe as soon as it has it, and leaves
by ``os._exit``, so it runs no atexit handler, flushes no copy of the
parent's stdio buffers and never returns into the parent's code. The rows
stream back in row order: the running process holds one row's outcome at a
time, and a child that runs ahead waits on its full pipe. A child only
finishes its finite share and exits, or ends on its first write to a closed
pipe: nothing outlives the call, and a killed parent leaves children that
end on their own.
"""

from __future__ import annotations

import os
import pickle

from .errors import BwmBerryError


def interleaved(call, rows: list, jobs: int):
    """Yield ``call(row)`` for each row, in row order, with ``rows[k::jobs]`` evaluated by worker k.

    Row i is evaluated here when ``i % jobs == 0`` and otherwise read from
    child ``i % jobs``'s pipe, so the first failing row in row order raises
    its exception here, as the one-process loop would raise it. A child that
    ends without a row's outcome raises ``BwmBerryError`` naming its exit
    status. Every child is reaped when the generator finishes, raises or is
    closed: closing the pipes ends a child blocked on a write, and one still
    computing after its current row. At most ``len(rows)`` workers run, so
    at most ``len(rows) - 1`` children.
    """
    jobs = min(jobs, len(rows))
    children, lost = [], 0
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
                _child(call, rows[k::jobs], write, children)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb")))
        for i, row in enumerate(rows):
            if i % jobs == 0:
                yield call(row)
                continue
            try:
                result, exc = pickle.load(children[i % jobs - 1][1])
            except Exception:  # no outcome, or one cut short or that does not unpickle
                lost = i % jobs
                break
            if exc is not None:
                raise exc
            yield result
    finally:
        for _, pipe in children:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    if lost:
        code = os.waitstatus_to_exitcode(statuses[lost - 1])
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        raise BwmBerryError(f"worker {lost} of {jobs} (--jobs) ended without a result ({how})")


def _child(call, share: list, fd: int, siblings: list) -> None:
    """Evaluate the share in a forked child, write each row's pickled ``(result, exception)`` to
    ``fd`` up to the first row that raises, and exit; never returns.

    The child first closes its copies of the earlier children's pipes, so that
    once the running process closes a pipe, its child's next write fails.
    """
    status = 1
    try:
        for _, pipe in siblings:
            pipe.close()
        with open(fd, "wb") as pipe:
            for row in share:
                try:
                    outcome = call(row), None
                except Exception as exc:
                    outcome = None, exc
                pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
                pipe.flush()
                if outcome[1] is not None:
                    break
        status = 0
    finally:
        os._exit(status)
