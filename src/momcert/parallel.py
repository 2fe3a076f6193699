"""The one fork path: share 0 of a job runs here, shares 1.. in forked children.

A child ends in os._exit, and OpenBLAS stops its thread pool in a fork
handler, so forking a threaded process and calling BLAS in the child is safe.
"""

import os
from contextlib import contextmanager


def usable_cores() -> int:
    """Cores this process may run on; 1 where affinity or fork is missing."""
    ok = hasattr(os, "sched_getaffinity") and hasattr(os, "fork")
    return len(os.sched_getaffinity(0)) if ok else 1


@contextmanager
def forked(n: int, work):
    """Fork n - 1 children; child i sends work(i), bytes, through a pipe.

    Yields the read ends in share order. On leaving, every read end is closed,
    then every child reaped. An error in the block propagates unchanged; else
    a failed child raises OSError.
    """
    pids, ends = [], []
    try:
        for i in range(1, n):
            r, w = os.pipe()
            ends.append(open(r, "rb"))
            try:
                if (pid := os.fork()) == 0:
                    _child(ends, w, work, i)
            finally:
                os.close(w)
            pids.append(pid)
        yield ends
    finally:
        for end in ends:  # a child blocked on a closed pipe fails and exits
            end.close()
        failed = any([os.waitpid(pid, 0)[1] for pid in pids])
    if failed:
        raise OSError("a forked worker process failed")


def _child(ends, w: int, work, i: int) -> None:
    """In a forked child: send work(i) through pipe end w, then exit."""
    try:
        for end in ends:  # so the parent closing its ends stops a blocked write
            end.close()
        with open(w, "wb") as fh:  # work(i) is all made first: a pipe holds 64 KiB
            fh.write(work(i))
    except BaseException:
        os._exit(1)
    os._exit(0)
