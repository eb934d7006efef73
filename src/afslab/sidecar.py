"""Helper processes that take a run's model-free work off its training loop.

`run_stream` hands a `Helpers` two kinds of work that never change the
model: the replay schedule (a generator) and one scoring call per task
boundary. When this process may use more CPUs (`os.sched_getaffinity`)
than its BLAS runs threads, as a one-thread pool worker on two CPUs does,
the schedule runs in one forked child that sends its items through a
pipe, `CHUNK_STEPS` to a message, and each scoring call runs in a forked
child of its own on a copy-on-write snapshot of the state. Otherwise both
run in this process, in order, so a profiler sees them: under
`taskset -c 0`, and also where BLAS threads already fill every CPU, since
helpers there only contend with them (with two-thread BLAS on a 2-core
Xeon, forked helpers made the acceptance runs about 50% slower).

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

from .errors import RunFailedError

CHUNK_STEPS = 32  # schedule items per pipe message
# Name forms of the OpenBLAS thread-count functions across builds.
OPENBLAS_FORMS = (
    "openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
)


def openblas_function(verb: str, maps_path: str = "/proc/self/maps"):
    """OpenBLAS's `get` or `set` thread-count function, or None.

    Looks in the OpenBLAS libraries named in this process's memory map and
    returns the first of `OPENBLAS_FORMS` one of them exports.
    """
    import ctypes

    try:
        with open(maps_path, encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for form in OPENBLAS_FORMS:
            fn = getattr(handle, form.format(verb), None)
            if fn is not None:
                return fn
    return None


def blas_threads() -> int:
    """Threads the OpenBLAS of this process runs; 1 without OpenBLAS."""
    import ctypes

    fn = openblas_function("get")
    if fn is None:
        return 1
    fn.argtypes, fn.restype = [], ctypes.c_int
    return fn()


def _send(out, kind: str, value) -> None:
    pickle.dump((kind, value), out, protocol=pickle.HIGHEST_PROTOCOL)
    out.flush()


def _portable(exc: BaseException) -> BaseException:
    """`exc` if it survives a pickle round trip, else a RunFailedError naming it."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RunFailedError(f"helper process failed: {type(exc).__name__}: {exc}")


class Helpers:
    """The helper children of one run; forked only when a CPU is left idle."""

    def __init__(self) -> None:
        self.forked = len(os.sched_getaffinity(0)) > blas_threads()
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
        if not self.forked:
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

        pid = self._fork(send_chunks)
        while True:
            kind, chunk = self._receive(pid)
            yield from chunk
            if kind == "done":
                return

    def call(self, fn):
        """A zero-argument function returning `fn()`, which starts now."""
        if not self.forked:
            value = fn()
            return lambda: value
        pid = self._fork(lambda out: _send(out, "done", fn()))
        return lambda: self._receive(pid)[1]

    def _fork(self, body) -> int:
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: never returns
            code = 1
            try:
                os.close(read_end)
                for reader in self._readers.values():
                    reader.close()
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
