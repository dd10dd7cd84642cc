"""Independent jobs split across the CPUs this process may run on.

run(work, jobs) cuts a job list into min(CPUs in the affinity mask, jobs)
parts, job i going to part i mod parts. This process computes part 0
itself and forks one child per other part, so no more processes are busy
than there are CPUs. A child pickles work's results, or the exception it
raised, back through a pipe and always leaves through os._exit: it runs
none of the parent's exit handlers and flushes none of its buffers. Every
child is reaped before run returns or raises, and an exception in this
process's own part kills the children first. With one CPU, one job, a
second Python thread, or no os.fork or os.sched_getaffinity, nothing is
forked.

The engines (forest.fit_forests, mtnn.train_many) give every job the bits
it gets alone, so the split changes no output. What a part does in a
child, such as a traced counter it bumps, stays in that child.
"""

from __future__ import annotations

import os
import pickle
import threading
from collections.abc import Callable, Sequence


class WorkerDied(RuntimeError):
    """A forked part ended without sending back its results."""


def _part_count(n_jobs: int) -> int:
    """How many parts run splits n_jobs jobs into: one while other Python
    threads run, since a child would inherit their held locks and
    half-done state."""
    if (n_jobs < 2 or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity"))
            or threading.active_count() > 1):
        return 1
    return min(len(os.sched_getaffinity(0)), n_jobs)


def run(work: Callable[[Sequence], list], jobs: Sequence) -> list:
    """work's results over the jobs, in job order; work maps a part of the
    jobs to one result per job. An exception that work raises in any part
    is raised here with its type and message; of several, the lowest
    part's."""
    parts = _part_count(len(jobs))
    if parts == 1:
        return list(work(jobs))
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    answers: list[bytes] = []
    try:
        for part in range(1, parts):
            children.append(_fork(work, jobs[part::parts]))
        results = [list(work(jobs[::parts]))]
        answers = [_read(pipe) for _, pipe in children]
    finally:
        codes = _reap(children, kill=len(answers) < len(children))
    for (pid, _), data, code in zip(children, answers, codes):
        if code != 0 or not data:
            raise WorkerDied(f"worker process {pid} ended with exit code {code} "
                             "without sending its results")
        result = pickle.loads(data)
        if isinstance(result, BaseException):
            raise result
        results.append(result)
    out = [None] * len(jobs)
    for part, result in enumerate(results):
        out[part::parts] = result
    return out


def _fork(work: Callable[[Sequence], list], jobs: Sequence) -> tuple[int, int]:
    """Start a child that computes work(jobs); returns its pid and the read
    end of the pipe it answers on."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    status = 1
    try:
        os.close(read)
        try:
            data = pickle.dumps(list(work(jobs)), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # sent back whole, Ctrl-C included
            data = _pickled_error(exc)
        with os.fdopen(write, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _pickled_error(exc: BaseException) -> bytes:
    """The exception, with the child's traceback as a note, pickled so the
    parent can raise it; one that does not survive pickling becomes a
    WorkerDied naming its type and message."""
    import traceback  # error paths import their modules, to keep importing emprops cheap

    note = "in a worker process:\n" + "".join(traceback.format_exception(exc))
    if hasattr(exc, "add_note"):
        exc.add_note(note)
    try:
        data = pickle.dumps(exc, pickle.HIGHEST_PROTOCOL)
        pickle.loads(data)
        return data
    except Exception:
        return pickle.dumps(WorkerDied(f"{type(exc).__name__}: {exc}\n{note}"))


def _read(pipe: int) -> bytes:
    """Everything a child writes to its pipe, up to its end."""
    chunks = []
    while chunk := os.read(pipe, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _reap(children: list[tuple[int, int]], kill: bool) -> list[int]:
    """Close each child's pipe, kill the child when asked, wait for it,
    and return the exit codes (minus the signal number when killed)."""
    codes = []
    for pid, pipe in children:
        os.close(pipe)
        if kill:
            import signal

            os.kill(pid, signal.SIGKILL)
        codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    return codes
