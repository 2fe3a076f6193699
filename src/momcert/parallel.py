"""The one fork path: share 0 of a job runs here, shares 1.. in forked children.

A child pickles its items into a pipe; only those that arrive whole come back,
never an exception or an exit status, and the caller computes the rest itself.
A child ends in os._exit, and OpenBLAS stops its thread pool in a fork
handler, so forking a threaded process and calling BLAS in the child is safe.
A job of n processes holds n of the usable cores (see spare_cores).
"""

import os
import pickle
from contextlib import contextmanager, suppress

_held = 1  # processes of the forked jobs this process is one of


def spare_cores() -> int:
    """Usable cores beyond the one this process runs on, in its share of its job;
    0 where affinity or fork is missing."""
    ok = hasattr(os, "sched_getaffinity") and hasattr(os, "fork")
    return len(os.sched_getaffinity(0)) // _held - 1 if ok else 0


@contextmanager
def forked(n: int, work):
    """Fork n - 1 children; child i pickles each item of work(i) into a pipe.

    Yields, in share order, an iterator per child over the items that arrived
    whole, which ends wherever the child stopped. On leaving, every read end is
    closed, then every child reaped; an error in the block (GeneratorExit
    included) first kills them and propagates unchanged.
    """
    global _held
    pids, ends, held, _held = [], [], _held, _held * n
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
        yield [_received(end) for end in ends]
    except BaseException:
        for pid in pids:
            os.kill(pid, 9)  # SIGKILL; the signal module takes 0.5 ms to import
        raise
    finally:
        _held = held
        for end in ends:  # a child blocked on a closed pipe fails and exits
            end.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _received(end):
    """The items read from `end` up to the first that did not arrive whole."""
    with suppress(EOFError, pickle.UnpicklingError):
        while True:
            yield pickle.load(end)


def _child(ends, w: int, work, i: int) -> None:
    """In a forked child: pickle work(i)'s items into pipe end w, then exit."""
    try:
        for end in ends:  # so the parent closing its ends stops a blocked write
            end.close()
        with open(w, "wb") as fh:
            for item in work(i):
                pickle.dump(item, fh)
                fh.flush()
    finally:
        os._exit(0)
