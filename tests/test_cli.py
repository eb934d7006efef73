import csv
import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

import afslab
import afslab.runner as runner
from afslab.cli import (
    DIAGNOSTICS_HEADER,
    METRICS_HEADER,
    SUMMARY_HEADER,
    emit_report,
    main,
    parse_config,
    run_experiment,
)
from afslab.errors import InvalidConfigError, InvalidInputError, RunFailedError
from afslab.losses import CLS_KINDS, REG_KINDS
from afslab.runner import ExperimentConfig, Job, parse_method
from afslab.trainer import AFS, ER, Recipe

MICRO_CONFIG = """
dataset = synthetic
synth_classes = 4
synth_dim = 6
synth_per_class = 20
synth_test_per_class = 10
synth_spread = 0.5
num_tasks = 2
memory = 20
hidden = 8
retrieve_batch = 10
augment = vector
"""


def write_config(tmp_path, text=MICRO_CONFIG, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseMethod:
    def test_plain_names(self):
        for name in ("afs", "er"):
            assert Recipe.parse(name).label == name
            assert parse_method(name) == Recipe.parse(name)
        for name in ("reference", "offline"):
            assert parse_method(name) == name

    def test_named_recipes(self):
        assert Recipe.parse("afs") == AFS == Recipe("rfl", "vkd", True, True)
        assert Recipe.parse(" ER ") == ER == Recipe("ce", "none", False, False)
        assert not ER.augment_replay

    def test_ablation_defaults_fill_missing_axes(self):
        spec = Recipe.parse("ablation:ce")
        assert spec.label == "ablation:ce+vkd+rv"
        assert spec.cls == "ce" and spec.reg == "vkd" and spec.review
        assert spec.augment_replay

    def test_ablation_full_form(self):
        spec = Recipe.parse("ablation:fl+lsr+norv")
        assert (spec.cls, spec.reg, spec.review) == ("fl", "lsr", False)

    def test_ablation_order_insensitive_label(self):
        assert Recipe.parse("ablation:norv+rfl+none").label == "ablation:rfl+none+norv"

    def test_all_ablation_labels_round_trip(self):
        recipes = [
            Recipe(cls, reg, review)
            for cls in CLS_KINDS for reg in REG_KINDS for review in (True, False)
        ]
        assert len({r.label for r in recipes}) == 18
        for r in recipes:
            assert Recipe.parse(r.label) == r
            assert Recipe.parse(r.label).label == r.label
        # the full method spelled as an ablation keeps its ablation label
        assert Recipe.parse("ablation:rfl+vkd+rv") == AFS
        assert Recipe.parse("ablation:rfl+vkd+rv").label == "ablation:rfl+vkd+rv"

    def test_duplicate_axis_rejected(self):
        with pytest.raises(InvalidConfigError, match="cls axis twice"):
            Recipe.parse("ablation:ce+rfl")

    def test_unknown_flag_rejected(self):
        with pytest.raises(InvalidConfigError, match="mixup"):
            Recipe.parse("ablation:mixup")

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidConfigError, match="unknown method"):
            parse_method("gdumb")


class TestParseConfig:
    def test_reads_values_comments_and_repeats(self, tmp_path):
        path = write_config(
            tmp_path,
            "runs = 2  # comment\nseed=5\n\n# full-line comment\nseed = 7\nhidden = 16,8\n",
        )
        cfg = parse_config(path)
        assert cfg.runs == 2 and cfg.seed == 7
        assert cfg.hidden == (16, 8)

    def test_unknown_key_names_line(self, tmp_path):
        path = write_config(tmp_path, "bogus = 1\n")
        with pytest.raises(InvalidConfigError, match=":1.*bogus"):
            parse_config(path)

    def test_bad_value_type_names_key(self, tmp_path):
        path = write_config(tmp_path, "runs = soon\n")
        with pytest.raises(InvalidConfigError, match="runs"):
            parse_config(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = write_config(tmp_path, "just a line\n")
        with pytest.raises(InvalidConfigError, match="key=value"):
            parse_config(path)

    def test_overrides_beat_file(self, tmp_path):
        path = write_config(tmp_path, "seed = 1\nruns = 1\n")
        cfg = parse_config(path, overrides={"seed": 9, "runs": None})
        assert cfg.seed == 9 and cfg.runs == 1

    def test_rv_every_none_and_int(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, "rv_every = none\n"))
        assert cfg.rv_every is None
        cfg = parse_config(write_config(tmp_path, "rv_every = 50\n", name="b.cfg"))
        assert cfg.rv_every == 50

    def test_config_validation(self):
        with pytest.raises(InvalidConfigError):
            ExperimentConfig(dataset="csv")
        with pytest.raises(InvalidConfigError):
            ExperimentConfig(runs=0)
        with pytest.raises(InvalidConfigError):
            ExperimentConfig(method="nope")


def micro_experiment(method="afs", runs=1, seed=0):
    return ExperimentConfig(
        dataset="synthetic", method=method, runs=runs, seed=seed,
        memory=20, num_tasks=2, hidden=(8,),
        synth_classes=4, synth_dim=6, synth_per_class=20,
        synth_test_per_class=10, synth_spread=0.5,
        retrieve_batch=10, augment="vector",
    )


class TestRunExperiment:
    def test_single_run_shape(self):
        records = run_experiment(micro_experiment())
        assert records["method"] == "afs"
        assert records["num_runs"] == 1
        (run,) = records["runs"]
        assert len(run["matrix"]) == 2
        metrics = {m["task"]: m for m in run["metrics"]}
        assert set(metrics) == {1, 2}
        assert math.isnan(metrics[1]["F_T"])
        assert 0.0 <= metrics[2]["A_T"] <= 1.0
        assert records["summary"] == []

    def test_multi_run_summary_has_ci(self):
        records = run_experiment(micro_experiment(runs=3))
        names = {item["metric"] for item in records["summary"]}
        assert names == {"A_T", "F_T", "I_T"}
        for item in records["summary"]:
            assert item["ci_half_width"] >= 0.0

    def test_offline_and_reference_methods(self):
        off = run_experiment(micro_experiment(method="offline"))
        (run,) = off["runs"]
        assert len(run["offline_per_task"]) == 2
        ref = run_experiment(micro_experiment(method="reference"))
        (run,) = ref["runs"]
        assert len(run["reference"]) == 2

    def test_ablation_label_round_trip(self):
        records = run_experiment(micro_experiment(method="ablation:ce+none+norv"))
        assert records["method"] == "ablation:ce+none+norv"


class TestEmitReport:
    def test_csv_headers_and_round_trip(self, tmp_path):
        records = run_experiment(micro_experiment(runs=2))
        paths = emit_report(records, str(tmp_path), "csv")
        assert [os.path.basename(p) for p in paths] == [
            "metrics.csv", "diagnostics.csv", "summary.csv"
        ]
        with open(paths[0], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == METRICS_HEADER
        # values survive a parse back to float at full precision
        for row in rows[1:]:
            a_t = float(row[4])
            assert 0.0 <= a_t <= 1.0
        stored = {
            (int(r[2]), int(r[3])): float(r[4]) for r in rows[1:]
        }
        for run in records["runs"]:
            for m in run["metrics"]:
                assert stored[(run["run"], m["task"])] == pytest.approx(
                    m["A_T"], abs=5e-7
                )
        with open(paths[1], newline="") as fh:
            assert next(csv.reader(fh)) == DIAGNOSTICS_HEADER
        with open(paths[2], newline="") as fh:
            assert next(csv.reader(fh)) == SUMMARY_HEADER

    def test_empty_diagnostics_gives_header_only(self, tmp_path):
        records = run_experiment(micro_experiment(method="reference"))
        paths = emit_report(records, str(tmp_path), "csv")
        with open(paths[1], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [DIAGNOSTICS_HEADER]

    def test_json_round_trip(self, tmp_path):
        records = run_experiment(micro_experiment())
        (path,) = emit_report(records, str(tmp_path), "json")
        with open(path) as fh:
            loaded = json.load(fh)
        assert loaded["method"] == records["method"]
        assert loaded["runs"][0]["matrix"] == records["runs"][0]["matrix"]

    def test_unknown_format(self, tmp_path):
        with pytest.raises(InvalidConfigError):
            emit_report({"runs": []}, str(tmp_path), "yaml")


def read_stripped(path, drop_column):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    idx = rows[0].index(drop_column)
    return [[cell for i, cell in enumerate(row) if i != idx] for row in rows]


class TestMainCommand:
    def test_run_and_report_round_trip(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "records.json").exists()
        assert (out / "metrics.csv").exists()
        assert main(["report", "--in", str(out), "--format", "csv"]) == 0
        captured = capsys.readouterr()
        assert "metrics.csv" in captured.out

    @pytest.mark.parametrize("runs", [1, 3])
    def test_summary_line(self, runs, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path)
        assert main(["run", "--config", cfg, "--out", str(out), "--runs", str(runs)]) == 0
        records = json.loads((out / "records.json").read_text())
        if runs == 1:
            value = f"{records['runs'][0]['metrics'][-1]['A_T']:.4f}"
        else:  # the mean over runs, not the last run's value
            (a_t,) = [item for item in records["summary"] if item["metric"] == "A_T"]
            value = f"{a_t['mean']:.4f} +/- {a_t['ci_half_width']:.4f}"
            assert not value.startswith(f"{records['runs'][-1]['metrics'][-1]['A_T']:.4f} ")
        line = capsys.readouterr().out.splitlines()[0]
        assert line == f"afs: runs={runs} A_T={value} (final task 2)"

    def test_determinism_excluding_wall_time(self, tmp_path):
        cfg = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--out", str(out_a), "--runs", "2"]) == 0
        assert main(["run", "--config", cfg, "--out", str(out_b), "--runs", "2"]) == 0
        for name in ("metrics.csv", "diagnostics.csv", "summary.csv"):
            a = read_stripped(str(out_a / name), "wall_time") \
                if name == "metrics.csv" else (out_a / name).read_text()
            b = read_stripped(str(out_b / name), "wall_time") \
                if name == "metrics.csv" else (out_b / name).read_text()
            assert a == b, name

    def test_method_override(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "er_out"
        assert main(["run", "--config", cfg, "--out", str(out), "--method", "er"]) == 0
        with open(out / "records.json") as fh:
            assert json.load(fh)["method"] == "er"

    def test_bad_config_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bogus = 1\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_zero_offline_epochs_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MICRO_CONFIG + "method = offline\noffline_epochs = 0\n")
        out = tmp_path / "x"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert "offline_epochs" in capsys.readouterr().err
        assert not (out / "INCOMPLETE").exists()

    def test_report_without_records_exits_two(self, tmp_path, capsys):
        assert main(["report", "--in", str(tmp_path), "--format", "csv"]) == 2
        assert "records.json" in capsys.readouterr().err

    def test_out_env_var_used(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        target = tmp_path / "from_env"
        monkeypatch.setenv("AFSLAB_OUT", str(target))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", cfg]) == 0
        assert (target / "records.json").exists()

    def test_incomplete_marker_on_unexpected_failure(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        out = tmp_path / "broken"

        def boom(config):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr("afslab.cli.run_experiment", boom)
        assert main(["run", "--config", cfg, "--out", str(out)]) == 1
        marker = out / "INCOMPLETE"
        assert marker.exists()
        assert "disk on fire" in marker.read_text()

    def test_diverging_run_exits_one_with_marker(self, tmp_path, capsys):
        # lr = 1e8 blows the logits up mid-run: a failed run, not a bad config
        cfg = write_config(
            tmp_path,
            "synth_classes = 4\nnum_tasks = 2\nhidden = 16\nmemory = 60\n"
            "method = afs\nlr = 1e8\n",
        )
        out = tmp_path / "diverged"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 1
        text = (out / "INCOMPLETE").read_text()
        assert "run 0" in text and "logits must be finite" in text
        assert not (out / "records.json").exists()
        assert "INCOMPLETE" in capsys.readouterr().err


def allow_cpus(monkeypatch, count):
    """Make the job pool see `count` usable CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def without_wall_time(records):
    """The records as JSON text minus wall times; NaN compares equal as text."""
    runs = [{k: v for k, v in run.items() if k != "wall_time"} for run in records["runs"]]
    return json.dumps(dict(records, runs=runs), sort_keys=True)


class TestJobPool:
    @pytest.mark.parametrize(
        "method,runs", [("afs", 3), ("er", 2), ("reference", 2), ("offline", 2)]
    )
    def test_pool_matches_serial(self, method, runs, tmp_path, monkeypatch):
        # every job builds its network once; log which process did it
        pids = tmp_path / "pids"
        real_init = runner.init_network

        def logged_init(spec):
            with open(pids, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return real_init(spec)

        monkeypatch.setattr(runner, "init_network", logged_init)
        config = micro_experiment(method=method, runs=runs)
        allow_cpus(monkeypatch, 2)
        pooled = run_experiment(config)
        pooled_pids = pids.read_text().split()
        pids.unlink()
        allow_cpus(monkeypatch, 1)
        serial = run_experiment(config)
        jobs = runs * (2 if method in ("afs", "er") else 1)
        assert len(pooled_pids) == jobs and str(os.getpid()) not in pooled_pids
        assert pids.read_text().split() == [str(os.getpid())] * jobs
        # hidden 8 is too small for BLAS to thread, so equality is exact
        assert without_wall_time(pooled) == without_wall_time(serial)

    def test_first_failure_in_serial_order_is_raised(self, monkeypatch):
        # run 1's method pass fails at once and run 0's later: run 0 is named
        run0_trainer_seed = int(np.random.SeedSequence(0).spawn(4)[2].generate_state(1)[0])

        def failing_stream(state, memory, dataset, streams, tests, config, recipe):
            if config.seed == run0_trainer_seed:
                time.sleep(0.5)
            raise InvalidInputError(f"trainer seed {config.seed}")

        monkeypatch.setattr(runner, "run_stream", failing_stream)
        allow_cpus(monkeypatch, 2)
        with pytest.raises(RunFailedError, match=r"^run 0 \(seed 0\): trainer seed"):
            run_experiment(micro_experiment(runs=2))

    def test_diverging_runs_report_run_zero(self, tmp_path, monkeypatch):
        allow_cpus(monkeypatch, 2)
        cfg = write_config(
            tmp_path,
            "synth_classes = 4\nnum_tasks = 2\nhidden = 16\nmemory = 60\n"
            "method = afs\nlr = 1e8\n",
        )
        out = tmp_path / "diverged"
        assert main(["run", "--config", cfg, "--out", str(out), "--runs", "3"]) == 1
        text = (out / "INCOMPLETE").read_text()
        assert "run 0 (seed 0)" in text and "logits must be finite" in text
        assert "run 1" not in text and "run 2" not in text
        assert not (out / "records.json").exists()

    def test_dead_worker_exits_one_with_marker(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(runner, "run_stream", lambda *args: os._exit(1))
        allow_cpus(monkeypatch, 2)
        out = tmp_path / "dead"
        cfg = write_config(tmp_path)
        assert main(["run", "--config", cfg, "--out", str(out), "--runs", "2"]) == 1
        text = (out / "INCOMPLETE").read_text()
        assert "worker process died" in text
        assert "run 0 (seed 0)" in text and "run 1 (seed 1)" in text
        assert not (out / "records.json").exists()
        assert "INCOMPLETE" in capsys.readouterr().err

    @staticmethod
    def mixed_configs():
        """Two configs that differ in seed, data seed and method."""
        return [
            dataclasses.replace(micro_experiment(method="afs", seed=0), data_seed=7),
            dataclasses.replace(micro_experiment(method="er", runs=2, seed=5), data_seed=11),
        ]

    def test_mixed_configs_match_each_config_alone(self, monkeypatch):
        configs = self.mixed_configs()
        jobs = [job for config in configs for job in runner.jobs_for(config)]
        allow_cpus(monkeypatch, 2)
        mixed = runner.run_jobs(jobs)
        allow_cpus(monkeypatch, 1)
        alone = {}
        for config in configs:
            alone.update(runner.run_jobs(runner.jobs_for(config)))
        assert list(mixed) == jobs and list(alone) == jobs

        def values(result):
            return json.dumps({k: v for k, v in result.items() if k != "wall_time"}, sort_keys=True)

        for job in jobs:
            assert values(mixed[job]) == values(alone[job]), job.name

    def test_dead_worker_names_the_seed_of_each_config(self, monkeypatch):
        monkeypatch.setattr(runner, "run_stream", lambda *args: os._exit(1))
        allow_cpus(monkeypatch, 2)
        jobs = [Job(config, 0, "method") for config in self.mixed_configs()]
        with pytest.raises(RunFailedError, match="worker process died") as failure:
            runner.run_jobs(jobs)
        assert "run 0 (seed 0)" in str(failure.value)
        assert "run 0 (seed 5)" in str(failure.value)


def blas_threads():
    """Thread count of the OpenBLAS mapped into this process, or None."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


class TestPinBlas:
    def test_pins_openblas_to_one_thread(self):
        script = inspect.getsource(blas_threads) + textwrap.dedent("""
            from afslab.runner import _pin_blas_to_one_thread

            before = blas_threads()
            _pin_blas_to_one_thread()
            print(before, blas_threads())
        """)
        src = os.path.dirname(os.path.dirname(afslab.__file__))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
        assert done.returncode == 0, done.stderr
        before, after = done.stdout.split()
        if before == "None":
            pytest.skip("NumPy is not linked against OpenBLAS")
        assert after == "1"

    def test_pool_workers_run_one_blas_thread(self, monkeypatch):
        if blas_threads() is None:
            pytest.skip("NumPy is not linked against OpenBLAS")
        monkeypatch.setattr(runner, "_run_job", lambda job, inputs: blas_threads())
        allow_cpus(monkeypatch, 2)
        config = micro_experiment(runs=2)
        jobs = [Job(config, 0, "method"), Job(config, 0, "reference"), Job(config, 1, "method")]
        assert runner.run_jobs(jobs) == {job: 1 for job in jobs}

    def test_silent_without_openblas(self, tmp_path):
        maps = tmp_path / "maps"
        maps.write_text(
            "7f00-7f01 r-xp 00000000 08:01 1 /usr/lib/libc.so.6\n"
            "7f02-7f03 rw-p 00000000 00:00 0 [heap]\n"
        )
        assert runner._pin_blas_to_one_thread(str(maps)) is None
        assert runner._pin_blas_to_one_thread(str(tmp_path / "missing")) is None
