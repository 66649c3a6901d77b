"""Forked children: the one way this package runs work in another process.

A child is made with ``os.fork`` and runs one function.  Its result, or the
exception it raised, comes back pickled through a pipe, and the parent
re-raises the exception with its type and message; one that does not
survive a pickle round trip comes back as a ``RuntimeError`` naming its type.
The child ends with ``os._exit``, so that the stdio buffers it inherited are
flushed once, by the parent.  ``Children`` kills and reaps every child it
made, and closes its pipe, however its ``with`` block ends.

Two callers use it: the evaluation shares (``forked``, from ``evaluate``)
and the training scenario producer of ``rl``.
"""

from __future__ import annotations

import os
import pickle
from signal import SIGKILL
from typing import BinaryIO, Callable, NoReturn


def cores() -> int:
    """Cores this process may run on; 1 where ``os.sched_getaffinity`` or
    ``os.fork`` is missing."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return len(os.sched_getaffinity(0))


class Children:
    """The forked children of one call.  Leaving the ``with`` block kills and
    reaps every child not yet collected and closes its pipe."""

    def __init__(self) -> None:
        self._pipes: dict[int, BinaryIO] = {}  # pid -> read end of its pipe

    def __enter__(self) -> Children:
        return self

    def __exit__(self, *exc) -> None:
        for pid, pipe in self._pipes.items():
            pipe.close()
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
        self._pipes.clear()

    def fork(self, fn: Callable[[int], object], close: tuple[int, ...] = ()
             ) -> tuple[int, BinaryIO]:
        """A child that closes the descriptors ``close`` and runs ``fn(write)``,
        ``write`` its end of a pipe, then pickles ``fn``'s result or exception
        after whatever ``fn`` wrote there itself.  Returns the child's pid and
        the pipe's read end."""
        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare: the children so far are killed on exit
            os.close(read)
            os.close(write)
            raise
        if pid == 0:
            os.close(read)
            for fd in close:
                os.close(fd)
            _run_child(fn, write)
        os.close(write)
        self._pipes[pid] = pipe = os.fdopen(read, "rb")
        return pid, pipe

    def collect(self, pid: int, what: str, head: bytes = b""):
        """What child ``pid`` pickled, ``head`` being the part of it already read
        from its pipe: its result, or its exception raised here.  Reaps the
        child; one that pickled nothing raises a ``RuntimeError`` naming
        ``what`` and its exit code."""
        with self._pipes.pop(pid) as pipe:
            payload = head + pipe.read()
        _, status = os.waitpid(pid, 0)
        if not payload:
            raise RuntimeError(f"{what} ended with exit code {os.waitstatus_to_exitcode(status)}")
        ok, value = pickle.loads(payload)
        if not ok:
            raise value
        return value


def _run_child(fn: Callable[[int], object], write: int) -> NoReturn:
    """A forked child's whole life: ``fn(write)`` or its exception, pickled to ``write``."""
    code = 1
    try:
        try:
            payload = pickle.dumps((True, fn(write)))
        except BaseException as exc:  # every failure, interrupts included, goes to the parent
            try:
                payload = pickle.dumps((False, exc))
                pickle.loads(payload)
            except Exception:  # an exception that does not round-trip goes as its name and message
                payload = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
        with os.fdopen(write, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def forked(fn: Callable[[range], object], shares: list[range], what: str) -> list:
    """``fn`` of every share: of the first in this process, of each other in a
    forked child.  A child that dies is named as ``what`` and its share."""
    with Children() as children:
        pids = [children.fork(lambda write, share=share: fn(share))[0] for share in shares[1:]]
        out = [fn(shares[0])]
        return out + [children.collect(pid, f"{what} {share.start}..{share.stop - 1}")
                      for pid, share in zip(pids, shares[1:])]
