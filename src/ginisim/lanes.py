"""Lanes: a job's spans of one array, filled by the calling thread and a worker per extra CPU.

A job owns an output array and cuts it into spans, the items, between
consecutive cuts; ``fill(lo, hi)`` writes ``out[lo:hi]`` and nothing else.
The thread that begins the job and up to lanes - 1 workers, each of its own
1-worker pool, claim spans from one shared iterator until none is left, so
a worker's task is finite and never waits for the caller.  Taking the job
fills the spans still left on the caller's thread; once none is left it
cancels the worker tasks not yet begun, then waits for the rest, raises
the first error a worker stored, unchanged, and returns the array.

Each span is a pure function of the job's inputs, so no byte depends on
which thread filled which span or on the lane count (the counter-based
argument of Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11).  A worker runs in a copy of the beginner's context, numpy's
errstate with it, and under the beginner's ``scipy.special`` error state,
which is thread-local and no context carries.  A job begun on a worker's
thread, or on a thread that claims spans of a job with workers, runs on
that thread alone: lanes never nest, and no worker queues work on its own
pool.  Inside a job of one lane, a job may still split.

Three jobs pass their arrays and cuts: the growth factors of one step or
of many small ones (`dynamics`),
the incomplete gamma function inside `kernels._gamma_quantile`, and the
pushforward mixture's column blocks (`verification`).
"""

from __future__ import annotations

import contextvars
import operator
import os
import threading

from scipy import special as sp

_pools: dict[int, list] = {}  # pid -> a 1-worker ThreadPoolExecutor per extra lane


class _Thread(threading.local):
    splitting = False  # whether this thread is a worker, or claims for a job that has workers
    errors = None  # on a worker, the scipy.special error state it last set


_here = _Thread()


def count(most: int) -> int:
    """One lane per usable CPU, for a job that can keep at most ``most`` of them busy."""
    if most < 2:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, most)


class Lanes:
    """A job begun: ``fill(lo, hi)`` writes ``out[lo:hi]`` for each span between ``cuts``.

    A fill closes over ``out``, not the job: a cycle would hold the array until a gc pass.
    """

    def __init__(self, out, cuts, fill, lanes: int):
        self.out, self.items, self.futures = out, iter(range(len(cuts) - 1)), []
        self.work = lambda i: fill(cuts[i], cuts[i + 1])
        if lanes == 1 or _here.splitting:  # no pool: the futures cost a step at N = 1e4 about 4%
            return
        pools = _pools.setdefault(os.getpid(), [])  # a forked child's inherited ones have no thread
        while len(pools) < lanes - 1:  # a race between beginning threads only adds an idle one
            from concurrent.futures import ThreadPoolExecutor  # imported once a job splits

            pools.append(ThreadPoolExecutor(max_workers=1, thread_name_prefix="ginisim-lane"))
        errors = sp.geterr()

        def worker() -> None:
            _here.splitting = True  # a worker's thread begins every job serially
            if _here.errors != errors:  # setting it for every task cost flagship-simulate 1-2%
                sp.seterr(**errors)
                _here.errors = errors
            self.claim()
        self.futures = [pool.submit(contextvars.copy_context().run, worker)
                        for pool in pools[:lanes - 1]]

    def claim(self) -> None:
        """Fill each span still unclaimed."""
        outer = _here.splitting
        _here.splitting = outer or bool(self.futures)
        try:
            for i in self.items:  # next() on a shared range iterator is atomic under the GIL
                self.work(i)
        finally:
            _here.splitting = outer

    def take(self):
        """Fill the spans still unclaimed here, wait for every worker and return the array.

        A worker task not yet begun when no span is left is cancelled, not
        waited for.  A fill's exception is raised unchanged, once no worker
        runs the job.
        """
        try:
            self.claim()
        finally:
            idle = operator.length_hint(self.items) == 0  # a task begun now finds no span
            errors = [exc for f in self.futures
                      if not (idle and f.cancel()) and (exc := f.exception())]  # waits
        if errors:
            raise errors[0]
        return self.out

    def drop(self) -> None:
        """Leave the spans still unclaimed empty, cancel the tasks not begun, wait for the rest."""
        for _ in self.items:  # claimed, so no worker fills them
            pass
        for f in self.futures:
            f.cancel() or f.exception()
