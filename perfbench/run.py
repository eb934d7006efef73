"""afslab benchmark: closed-loop `afslab run` repetitions, one child at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`. Each
repetition is one `afslab run` in a fresh child process, timed from outside
(spawn, "afslab.cli imported", start and end of `cli.main`) with its peak
RSS taken from wait4. With --trace 0 repetitions repeat while the next one
fits in S seconds (at least one) and the end-to-end metrics are medians over
them; set-up is also sampled by import-only children before and after them. With --trace 1
one untraced and one traced repetition give the per-layer table. Metric
names and units come from BENCHMARK.json. The last stdout line is the JSON
result; the process exits 1 if any repetition fails its output checks.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import tracer
from checks import check_repetition, comparable_reports, report_bytes
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
# Import-only children on each side of the repetitions. The host's speed
# drifts over tens of seconds, so probes that span the run are steadier than
# more probes in one place.
SETUP_PROBES = 10
DEADLINE_S = 170.0  # the whole benchmark must end within 180 s
POLL_S = 0.01


@dataclass
class Repetition:
    exit_code: int | None
    setup_s: float = 0.0
    run_s: float = 0.0
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    base: str = ""  # path prefix of this child's files in the scratch directory
    problems: list[str] = field(default_factory=list)

    @property
    def out_dir(self) -> str:
        return self.base + ".out"


class Harness:
    """Starts children in a scratch directory inside the checkout."""

    def __init__(self, root: str, workdir: str, started: float):
        self.src = os.path.join(root, "src")
        self.workdir = workdir
        self.deadline = started + DEADLINE_S
        self.count = 0

    def spawn(self, inputs=None, trace: bool = False) -> Repetition:
        """One child; `inputs` None only imports afslab (a set-up probe)."""
        self.count += 1
        base = os.path.join(self.workdir, f"rep{self.count}")
        argv = [sys.executable, os.path.join(HERE, "child.py"), base + ".timing.json",
                base + ".trace" if trace else "-"]
        if inputs is not None:
            argv += ["run", "--config", inputs.config, "--out", base + ".out"]
        child_env = dict(os.environ, PYTHONPATH=self.src)
        log = os.open(base + ".log", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            spawned = time.perf_counter()
            pid = os.posix_spawn(sys.executable, argv, child_env, file_actions=[
                (os.POSIX_SPAWN_DUP2, log, 1), (os.POSIX_SPAWN_DUP2, log, 2),
            ])
        finally:
            os.close(log)
        status, rusage = self._wait(pid)
        rep = Repetition(
            exit_code=os.waitstatus_to_exitcode(status) if status is not None else None,
            wall_s=time.perf_counter() - spawned,
            peak_rss_mb=rusage.ru_maxrss / 1024.0 if rusage else 0.0,
            base=base,
        )
        if rep.exit_code is None:
            rep.problems.append(f"killed after {rep.wall_s:.1f} s at the benchmark deadline")
        elif rep.exit_code != 0 or not os.path.isfile(base + ".timing.json"):
            with open(base + ".log", encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            rep.problems.append(f"exit code {rep.exit_code}: {tail}")
        else:
            with open(base + ".timing.json", encoding="utf-8") as fh:
                timing = json.load(fh)
            rep.setup_s = timing["ready"] - spawned
            rep.run_s = timing.get("end", 0.0) - timing.get("start", 0.0)
            if not os.path.abspath(timing["module"]).startswith(self.src + os.sep):
                rep.problems.append(f"imported afslab from {timing['module']}, not {self.src}")
        if inputs is not None and not rep.problems:
            rep.problems = check_repetition(rep.exit_code, rep.out_dir, inputs)
        return rep

    def _wait(self, pid: int):
        while True:
            done, status, rusage = os.wait4(pid, os.WNOHANG)
            if done:
                return status, rusage
            if time.perf_counter() > self.deadline:
                os.kill(pid, signal.SIGKILL)
                os.wait4(pid, 0)
                return None, None
            time.sleep(POLL_S)


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that NumPy loaded, if found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "loadavg_at_start": list(os.getloadavg()),
    }


def end_to_end(harness: Harness, inputs, seconds: float) -> tuple[dict, list[Repetition]]:
    harness.spawn()  # warm-up: bytecode caches and the page cache
    probes = [harness.spawn() for _ in range(SETUP_PROBES)]
    reps = []
    begin = time.perf_counter()
    while True:
        rep = harness.spawn(inputs)
        reps.append(rep)
        if rep.exit_code is None or time.perf_counter() + rep.wall_s > begin + seconds:
            break
    probes += [harness.spawn() for _ in range(SETUP_PROBES)]
    setups = [p.setup_s for p in probes if not p.problems]
    good = [r for r in reps if not r.problems]
    reps += [p for p in probes if p.problems]  # a failed import counts as a failure
    samples = inputs.samples_per_run * inputs.runs
    metrics = {}
    if good:
        metrics = {
            "setup_s": statistics.median(setups + [r.setup_s for r in good]),
            "run_s": statistics.median(r.run_s for r in good),
            "samples_per_s": statistics.median(samples / r.run_s for r in good),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in good),
        }
    return metrics, reps


def per_layer(harness: Harness, inputs) -> tuple[dict, list[Repetition], list[str]]:
    plain = harness.spawn(inputs)
    traced = harness.spawn(inputs, trace=True)
    reps = [plain, traced]
    if plain.problems or traced.problems:
        return {}, reps, []
    spans, functions, errors = tracer.load(traced.base + ".trace")
    metrics, absent = tracer.layer_metrics(spans, functions, errors, traced.run_s)
    metrics["cli.report_bytes"] = report_bytes(traced.out_dir)
    metrics["trace.overhead"] = traced.run_s / plain.run_s - 1.0
    return metrics, reps, absent


def check_determinism(reps: list[Repetition]) -> None:
    """Flags every repetition whose reports differ from the first good one."""
    good = [r for r in reps if not r.problems]
    if good:
        first = comparable_reports(good[0].out_dir)
        for rep in good[1:]:
            if comparable_reports(rep.out_dir) != first:
                rep.problems.append("reports differ from the first repetition's (wall_time aside)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "afslab", "cli.py")) or not os.path.isfile(spec_path):
        print(f"error: {root} holds no afslab source tree (src/afslab) or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, os.path.join(root, "src"))  # for write_idx
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    facts = machine_facts()
    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        inputs = WORKLOADS[args.workload](workdir, args.seed)
        harness = Harness(root, workdir, started)
        absent = []
        if args.trace:
            metrics, reps, absent = per_layer(harness, inputs)
        else:
            metrics, reps = end_to_end(harness, inputs, args.seconds)
        check_determinism(reps)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))  # only if no other run uses it
        except OSError:
            pass

    failed = sum(1 for r in reps if r.problems)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    correct = failed == 0 and not missing
    print(f"facts {json.dumps(facts, sort_keys=True)}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(reps)} repetitions, {failed} failed")
    for i, rep in enumerate(reps):
        print(f"  rep {i}: setup {rep.setup_s:.4f} s  run {rep.run_s:.4f} s  "
              f"peak {rep.peak_rss_mb:.1f} MB  {'; '.join(rep.problems) or 'ok'}")
    for m in wanted:
        if m["name"] in metrics:
            print(f"  {m['name']:<28} {metrics[m['name']]:>16.6g} {m['unit']}")
    if absent:
        print(f"  absent (function gone, reads 0): {', '.join(absent)}")
    if missing:
        print(f"  not measured: {', '.join(missing)}")
    result = {
        "correct": correct,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
