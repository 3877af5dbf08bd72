"""Fork-join of independent tasks: `run(fn, tasks)` is [fn(t) for t in tasks].

The tasks are cut into min(len(tasks), CPUs) contiguous shares: the caller
runs the first, and a child made by `os.fork` each other one, on a copy of
the caller's memory, so its results are the in-process ones bit for bit.  A
child sends them back pickled through a pipe, writes nothing else and leaves
through `os._exit`.  A share stops at its first failing task; the failure of
the earliest share raises, with its in-process type and message.  The caller
reaps every child on every path (killing them first when it raises), and a
child that ends without sending its results raises WorkerError.
"""

from __future__ import annotations

import os
import pickle
import signal

from .errors import WorkerError


def _cpus():
    return len(os.sched_getaffinity(0))


def run(fn, tasks):
    """[fn(t) for t in a sequence of tasks]; in-process and in order with one
    CPU, one task or no `os.fork`."""
    n = min(len(tasks), _cpus())
    if n < 2 or not hasattr(os, "fork"):
        return [fn(t) for t in tasks]
    cut = [len(tasks) * k // n for k in range(n + 1)]
    children = []  # (pid, read end of its pipe as a file)
    try:
        for a, b in zip(cut[1:], cut[2:]):
            children.append(_fork(fn, tasks[a:b]))
        results = [fn(t) for t in tasks[:cut[1]]]
        sent = [fh.read() for _, fh in children]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        statuses = []
        for pid, fh in children:
            fh.close()
            statuses.append(os.waitpid(pid, 0)[1])
    for data, status in zip(sent, statuses):
        try:
            values, exc = pickle.loads(data)
        except Exception:  # nothing, or a cut message, came through the pipe
            raise WorkerError(f"a forked worker ended without its results "
                              f"(wait status {status})") from None
        results.extend(values)
        if exc is not None:
            raise exc
    return results


def _fork(fn, share):
    """(pid, read end of its pipe) of a child that runs fn over the share."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        try:
            values, exc = [], None
            try:
                for task in share:
                    values.append(fn(task))
            except Exception as e:
                exc = e
            with os.fdopen(w, "wb") as fh:
                fh.write(pickle.dumps((values, exc)))
        finally:
            os._exit(0)
    os.close(w)
    return pid, os.fdopen(r, "rb")
