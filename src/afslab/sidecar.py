"""Forked children that hand back a value: every process afslab forks.

`runner.run_jobs` forks its pool workers as unpinned `Helpers.call`s, and
`run_stream` hands a `Helpers` two kinds of work that never change the
model: the replay schedule (a generator) and one scoring call per task
boundary. `Helpers(cpus)` forks a child for each and pins it to the CPU set
`cpus` (`os.sched_setaffinity`), unless a call asks to stay on this
process's CPUs; `Helpers(None)` forks nothing. Which, and where, is the
caller's choice (`runner.run_jobs` makes it from its job list). Forked, the
schedule runs in one child that sends its items through a pipe,
`CHUNK_STEPS` to a message, and each scoring call runs in a child of its
own on a copy-on-write snapshot of the state. Not forked, both run in this
process, in order, so a profiler sees them. A child the host will not pin
(`OSError`) runs where this process runs. Only the schedule's pipe is grown
(`STREAM_PIPE_BYTES`); `call` pipes keep the default size, so that many
pool workers cannot use up the user's pipe pages.

Each child closes the pipes of the other helpers, so a pipe ends as soon as
its own child does, and leaving the `with` block kills and reaps every
child still running. An error raised in a child is raised again here with
its type and message; a child that dies without a word raises
`RunFailedError`.
"""

from __future__ import annotations

import os
import pickle
import signal
from contextlib import suppress

from .errors import RunFailedError

CHUNK_STEPS = 32  # schedule items per pipe message
# The schedule's pipe, where the host allows, holds a whole message: about
# 845 KB for 32 steps of 100 replay rows with [100, 32] jitter.
STREAM_PIPE_BYTES = 1 << 20


def _send(out, kind: str, value) -> None:
    pickle.dump((kind, value), out, protocol=pickle.HIGHEST_PROTOCOL)
    out.flush()


def pin(cpus) -> None:
    """Run this process on the CPU set `cpus`; where the host refuses, stay unpinned."""
    with suppress(OSError):
        os.sched_setaffinity(0, cpus)


def _portable(exc: BaseException) -> BaseException:
    """`exc` if it survives a pickle round trip, else a RunFailedError naming it."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RunFailedError(f"helper process failed: {type(exc).__name__}: {exc}")


class Helpers:
    """The children of one pool or one run, pinned to `cpus`; this process when None."""

    def __init__(self, cpus: frozenset[int] | None) -> None:
        self.cpus = cpus
        self._readers: dict[int, object] = {}  # child pid -> read end of its pipe

    def __enter__(self) -> Helpers:
        return self

    def __exit__(self, *exc_info) -> None:
        for pid, reader in self._readers.items():
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        self._readers.clear()

    def stream(self, items):
        """Iterate the generator that `items()` returns, in a child when forked."""
        if self.cpus is None:
            yield from items()
            return

        def send_chunks(out) -> None:
            chunk = []
            try:
                for item in items():
                    chunk.append(item)
                    if len(chunk) == CHUNK_STEPS:
                        _send(out, "more", chunk)
                        chunk = []
            except BaseException:
                _send(out, "more", chunk)  # the items before the error come first
                raise
            _send(out, "done", chunk)

        pid = self._fork(send_chunks, STREAM_PIPE_BYTES)
        while True:
            kind, chunk = self._receive(pid)
            yield from chunk
            if kind == "done":
                return

    def call(self, fn, pinned: bool = True):
        """A zero-argument function returning `fn()`, which starts now.

        Forked and not `pinned`, the child stays on this process's CPUs.
        """
        if self.cpus is None:
            value = fn()
            return lambda: value
        pid = self._fork(lambda out: _send(out, "done", fn()), pinned=pinned)
        return lambda: self._receive(pid)[1]

    def _fork(self, body, pipe_bytes: int = 0, pinned: bool = True) -> int:
        """Fork a child that runs `body` on the write end of a new pipe.

        A nonzero `pipe_bytes` asks for a pipe buffer that large; where the
        host refuses (`pipe-max-size`, the user's pipe pages) or has no
        `F_SETPIPE_SZ`, the pipe keeps its default size. A `pinned` child
        moves to `cpus` first.
        """
        read_end, write_end = os.pipe()
        if pipe_bytes:
            import fcntl  # here, so that a process that forks no stream never loads it

            set_size = getattr(fcntl, "F_SETPIPE_SZ", None)
            if set_size is not None:
                with suppress(OSError):
                    fcntl.fcntl(write_end, set_size, pipe_bytes)
        pid = os.fork()
        if pid == 0:  # child: never returns
            code = 1
            try:
                os.close(read_end)
                for reader in self._readers.values():
                    reader.close()
                if pinned:
                    pin(self.cpus)
                with open(write_end, "wb") as out:
                    try:
                        body(out)
                    except BaseException as exc:
                        _send(out, "error", _portable(exc))
                code = 0
            finally:
                os._exit(code)
        os.close(write_end)
        self._readers[pid] = open(read_end, "rb")
        return pid

    def _receive(self, pid: int):
        """The next (kind, value) message of child `pid`; reaps it after its last."""
        reader = self._readers[pid]
        try:
            kind, value = pickle.load(reader)
        except (EOFError, pickle.UnpicklingError):
            kind, value = "died", None
        if kind == "more":
            return kind, value
        reader.close()
        del self._readers[pid]
        _, status = os.waitpid(pid, 0)
        if kind == "error":
            raise value
        if kind == "died":
            code = os.waitstatus_to_exitcode(status)
            raise RunFailedError(f"helper process {pid} died with exit code {code}")
        return kind, value
