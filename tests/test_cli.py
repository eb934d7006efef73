import csv
import dataclasses
import errno
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
import afslab.trainer as trainer
from afslab.cli import TABLES, emit_report, main, parse_config, run_experiment
from afslab.errors import InvalidConfigError, InvalidInputError, RunFailedError
from afslab.losses import CLS_KINDS, REG_KINDS
from afslab.metrics import DiagnosticsRecord
from afslab.model import NetworkSpec, init_network
from afslab.runner import ExperimentConfig, Job, parse_method
from afslab.sidecar import Helpers
from afslab.stream import (
    Dataset, gen_synthetic, split_tasks, task_streams, task_test_sets, write_idx,
)
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


METRICS_HEADER = ["method", "memory", "run", "task", "A_T", "F_T", "I_T", "wall_time"]
DIAGNOSTICS_HEADER = [
    "method", "memory", "run", "task",
    "mean_weight_old", "mean_weight_new", "mean_logit_old", "mean_logit_new",
    "hsi", "asi", "esi",
]
SUMMARY_HEADER = ["method", "memory", "runs", "metric", "mean", "ci_half_width"]
REPORTS = ("metrics.csv", "diagnostics.csv", "summary.csv")
# float settings that, unchecked, would fail only mid-run, as non-finite logits
NON_FINITE = [("lr", "nan"), ("alpha", "nan"), ("beta", "nan"), ("sigma", "nan"),
              ("temperature", "nan"), ("synth_spread", "nan"), ("jitter_sigma", "nan"),
              ("lr", "inf")]
# settings out of range, each with the message that names it
OUT_OF_RANGE = [
    ("memory", "0", "memory must be positive, got 0"),
    ("stream_batch", "0", "stream_batch must be at least 1, got 0"),
    ("retrieve_batch", "-1", "retrieve_batch must be at least 0, got -1"),
    ("rv_batch", "0", "rv_batch must be at least 1, got 0"),
    ("lr", "0", "lr must be positive, got 0.0"),
    ("rv_lr", "-1", "rv_lr must be non-negative, got -1.0"),
    ("sigma", "0", "sigma must be positive, got 0.0"),
    ("epsilon", "1", "epsilon must lie in (0, 1), got 1.0"),
    ("alpha", "0", "alpha must be positive, got 0.0"),
    ("gamma", "-1", "gamma must be non-negative, got -1.0"),
    ("mu", "2", "mu must lie in [0, 1], got 2.0"),
    ("beta", "-1", "beta must be non-negative, got -1.0"),
    ("temperature", "0", "temperature must be positive, got 0.0"),
    ("num_tasks", "0", "num_tasks must be positive, got 0"),
    ("synth_classes", "0", "synth_classes must be positive, got 0"),
    ("synth_dim", "0", "synth_dim must be positive, got 0"),
    ("synth_per_class", "0", "synth_per_class must be positive, got 0"),
    ("synth_test_per_class", "-1", "synth_test_per_class must be non-negative, got -1"),
    ("synth_spread", "-1", "synth_spread must be non-negative, got -1.0"),
]


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

    def test_data_seed_none_and_int(self, tmp_path):
        assert parse_config(write_config(tmp_path, "data_seed = none\n")).data_seed is None
        cfg = parse_config(write_config(tmp_path, "data_seed = 50\n", name="b.cfg"))
        assert cfg.data_seed == 50

    def test_config_validation(self):
        with pytest.raises(InvalidConfigError):
            ExperimentConfig(dataset="csv")
        with pytest.raises(InvalidConfigError):
            ExperimentConfig(runs=0)
        with pytest.raises(InvalidConfigError):
            ExperimentConfig(method="nope")

    @pytest.mark.parametrize("key,value,message", OUT_OF_RANGE,
                             ids=[f"{key}_{value}" for key, value, _ in OUT_OF_RANGE])
    def test_trainer_and_loss_settings_are_checked_when_read(
        self, key, value, message, tmp_path
    ):
        path = write_config(tmp_path, MICRO_CONFIG + f"{key} = {value}\n")
        with pytest.raises(InvalidConfigError) as info:
            parse_config(path)
        assert str(info.value) == message

    def test_readme_config_section_names_every_key(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = fh.read()
        section = text.split("\n## Config\n", 1)[1].split("\n## ", 1)[0]
        missing = [f.name for f in dataclasses.fields(ExperimentConfig)
                   if f"`{f.name}`" not in section]
        assert missing == []

    def test_hidden_widths_are_checked_by_the_config(self):
        # the path the acceptance suite takes: no config file, no CLI parsing
        with pytest.raises(InvalidConfigError) as info:
            runner.run_jobs(runner.jobs_for(ExperimentConfig(hidden=(0,))))
        assert str(info.value) == "hidden widths must be positive, got (0,)"


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


def test_diagnostics_are_keyed_once():
    # the record's fields are the report's columns and the keys a run writes
    fields = [field.name for field in dataclasses.fields(DiagnosticsRecord)]
    (table,) = [table for table in TABLES if table.file == "diagnostics.csv"]
    columns = [c.key or c.header for c in table.columns if c.where == "row"]
    assert columns == ["task", *fields]
    job = Job(micro_experiment(), 0, "method")
    (written,) = runner.run_jobs([job])[job]["diagnostics"].values()
    assert list(written) == fields


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


def malformed_store(edit):
    """A two-run, two-task record store as JSON text, after `edit` has broken it."""
    store = {
        "method": "afs", "memory": 20, "num_runs": 2,
        "runs": [{
            "run": r, "wall_time": 1.5,
            "metrics": [{"task": t, "A_T": 0.5, "F_T": 0.1, "I_T": 0.0} for t in (1, 2)],
            "diagnostics": {str(t): {
                "mean_weight_old": 0.1, "mean_weight_new": 0.2, "mean_logit_old": -1.0,
                "mean_logit_new": 1.0, "hsi": 3, "asi": 2, "esi": 1,
            } for t in (1, 2)},
        } for r in (0, 1)],
        "summary": [{"metric": "A_T", "mean": 0.5, "ci_half_width": 0.0}],
    }
    edit(store)
    return json.dumps(store)


def read_stripped(path, drop_column):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    idx = rows[0].index(drop_column)
    return [[cell for i, cell in enumerate(row) if i != idx] for row in rows]


class TestMainCommand:
    def test_run_and_report_round_trip(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out), "--runs", "2"]) == 0
        assert (out / "records.json").exists()
        written = {name: (out / name).read_bytes() for name in REPORTS}
        (out / "metrics.csv").unlink()
        capsys.readouterr()
        assert main(["report", "--in", str(out), "--format", "csv"]) == 0
        assert capsys.readouterr().out.split() == [str(out / name) for name in REPORTS]
        # the report re-emits exactly what the run wrote, wall_time included
        for name in REPORTS:
            assert (out / name).read_bytes() == written[name], name

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

    def test_negative_seed_flag_exits_two(self, tmp_path, capsys):
        cfg, out = write_config(tmp_path), tmp_path / "x"
        assert main(["run", "--config", cfg, "--out", str(out), "--seed", "-1"]) == 2
        assert "error: seed must be non-negative, got -1" in capsys.readouterr().err
        assert not (out / "INCOMPLETE").exists()

    def test_zero_offline_epochs_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MICRO_CONFIG + "method = offline\noffline_epochs = 0\n")
        out = tmp_path / "x"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert "offline_epochs" in capsys.readouterr().err
        assert not (out / "INCOMPLETE").exists()

    @pytest.mark.parametrize("extra,message", [
        ("jitter_sigma = -1\n", "jitter_sigma must be non-negative, got -1.0"),
        ("synth_test_per_class = 0\n", "task 1 has an empty test set"),
        ("augment = image\n", "image augmentation needs square features, got 6"),
        ("dataset = idx\n" + "".join(
            f"idx_{part} = no-such-file.idx\n"
            for part in ("train_images", "train_labels", "test_images", "test_labels")
        ), "cannot read IDX file no-such-file.idx: No such file or directory"),
        # the review follows each task's last step; there is no mid-task review
        ("rv_every = 2\n", "unknown config key 'rv_every'"),
        ("data_seed = -5\n", "data_seed must be non-negative, got -5"),
        *((f"{key} = {value}\n", f"{key} must be finite, got {value}")
          for key, value in NON_FINITE),
        *((f"{key} = {value}\n", message) for key, value, message in OUT_OF_RANGE),
        ("synth_classes = 1\nnum_tasks = 1\n", "need at least 2 classes, got 1"),
        ("hidden = 8,0\n", "hidden widths must be positive, got (8, 0)"),
    ], ids=["negative_jitter", "empty_test_set", "image_augment_of_6_features",
            "missing_idx_file", "rv_every", "negative_data_seed",
            *(f"{key}_{value}" for key, value in NON_FINITE),
            *(f"{key}_{value}" for key, value, _ in OUT_OF_RANGE),
            "one_class", "zero_hidden_width"])
    def test_config_errors_exit_two_without_a_marker(self, extra, message, tmp_path, capsys):
        cfg = write_config(tmp_path, MICRO_CONFIG + extra)
        out = tmp_path / "x"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "INCOMPLETE").exists()

    @pytest.mark.parametrize("method", ["afs", "er", "reference", "offline"])
    def test_task_without_training_rows_exits_two(self, method, tmp_path, capsys):
        # training rows of classes 0-7, test rows of 0-9: task 5 is classes 8 and 9
        rng = np.random.default_rng(0)
        text = f"dataset = idx\nnum_tasks = 5\nhidden = 8\nmemory = 20\nmethod = {method}\n"
        for split, num_classes in (("train", 8), ("test", 10)):
            labels = np.repeat(np.arange(num_classes), 4)
            images_path, labels_path = (tmp_path / f"{split}-images.idx",
                                        tmp_path / f"{split}-labels.idx")
            write_idx(Dataset(rng.random((len(labels), 16)), labels, num_classes),
                      str(images_path), str(labels_path))
            text += f"idx_{split}_images = {images_path}\nidx_{split}_labels = {labels_path}\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "x"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert "task 5 (classes 8, 9) has no training rows" in capsys.readouterr().err
        assert not (out / "INCOMPLETE").exists()

    def test_plain_replay_runs_with_image_augment_of_non_square_rows(self, tmp_path):
        # ER augments no replay rows, so the augmentation kind is never used
        cfg = write_config(tmp_path, MICRO_CONFIG + "augment = image\nmethod = er\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "er")]) == 0

    def test_report_without_records_exits_two(self, tmp_path, capsys):
        assert main(["report", "--in", str(tmp_path), "--format", "csv"]) == 2
        assert "records.json" in capsys.readouterr().err

    def test_report_on_malformed_records_exits_two(self, tmp_path, capsys):
        path = tmp_path / "records.json"
        path.write_text("{bad")
        assert main(["report", "--in", str(tmp_path), "--format", "csv"]) == 2
        assert f"error: {path} is not a JSON record store" in capsys.readouterr().err

    @pytest.mark.parametrize("content,message", [
        ("{}", "missing key 'method'"),
        ("[]", "a JSON list, not an object"),
        ('{"method": "afs", "memory": 20, "num_runs": 1, "runs": [{"run": 0}]}',
         "run 0 misses key 'wall_time'"),
        (malformed_store(lambda s: s["runs"][1]["metrics"][0].pop("A_T")),
         "run 1 metrics[0] misses key 'A_T'"),
        (malformed_store(lambda s: s["runs"][1]["diagnostics"]["2"].pop("hsi")),
         "run 1 diagnostics['2'] misses key 'hsi'"),
        (malformed_store(lambda s: s["summary"][0].pop("mean")),
         "summary[0] misses key 'mean'"),
        (malformed_store(lambda s: s["runs"][1].update(metrics=3)),
         "run 1 'metrics' is not a list of objects"),
        (malformed_store(lambda s: s["runs"][1]["metrics"][1].update(A_T=None)),
         "run 1 metrics[1] key 'A_T' holds None, not a number"),
    ], ids=["empty_object", "list", "run_without_wall_time", "metrics_without_A_T",
            "diagnostics_without_hsi", "summary_without_mean", "metrics_not_a_list",
            "null_A_T"])
    def test_report_on_json_that_is_no_record_store_exits_two(
        self, content, message, tmp_path, capsys
    ):
        path = tmp_path / "records.json"
        path.write_text(content)
        # a report from an earlier run stays as it was
        (tmp_path / "metrics.csv").write_bytes(b"earlier,report\r\n")
        assert main(["report", "--in", str(tmp_path), "--format", "csv"]) == 2
        assert f"error: {path} is not a record store: {message}" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["metrics.csv", "records.json"]
        assert (tmp_path / "metrics.csv").read_bytes() == b"earlier,report\r\n"

    @pytest.mark.parametrize("content,reason", [
        (None, "No such file or directory"),
        (b"seed = \xff\n", "can't decode byte 0xff"),
    ], ids=["missing", "not_utf8"])
    def test_unreadable_config_file_exits_two(self, content, reason, tmp_path, capsys):
        cfg, out = tmp_path / "exp.cfg", tmp_path / "x"
        if content is not None:
            cfg.write_bytes(content)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"cannot read config file {cfg}: " in err and reason in err
        assert not out.exists()

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

        def failing_stream(state, dataset, streams, tests, config, recipe, seed, helper_cpus):
            if seed == run0_trainer_seed:
                time.sleep(0.5)
            raise InvalidInputError(f"trainer seed {seed}")

        monkeypatch.setattr(runner, "run_stream", failing_stream)
        allow_cpus(monkeypatch, 2)
        with pytest.raises(RunFailedError, match=r"^run 0 \(seed 0\): trainer seed"):
            run_experiment(micro_experiment(runs=2))

    def test_first_failure_stops_the_in_process_loop(self, monkeypatch):
        # one worker runs the jobs here, in order: none starts after a failure
        started = []

        def failing_job(job, inputs, helper_cpus):
            started.append(job)
            raise RunFailedError(f"{job.name}: failed")

        monkeypatch.setattr(runner, "_run_job", failing_job)
        allow_cpus(monkeypatch, 1)
        jobs = runner.jobs_for(micro_experiment(runs=2))
        with pytest.raises(RunFailedError, match=r"^run 0 \(seed 0\): failed$"):
            runner.run_jobs(jobs)
        assert started == jobs[:1]

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

    @pytest.mark.parametrize(
        "cpus,count,expected",
        [(2, 1, False), (2, 2, True), (2, 3, False), (1, 2, False), (1, 3, False)],
    )
    def test_helpers_fork_only_when_no_job_waits_for_a_worker(
        self, cpus, count, expected, monkeypatch
    ):
        monkeypatch.setattr(
            runner, "_run_job", lambda job, inputs, helper_cpus: helper_cpus is not None
        )
        allow_cpus(monkeypatch, cpus)
        jobs = runner.jobs_for(micro_experiment(runs=2))[:count]
        assert runner.run_jobs(jobs) == {job: expected for job in jobs}

    @pytest.mark.parametrize("runs,expected", [(1, True), (2, False)])
    def test_run_stream_gets_the_fork_decision(self, runs, expected, monkeypatch):
        def failing_stream(*args):
            raise InvalidInputError(f"forked={args[-1] is not None}")

        monkeypatch.setattr(runner, "run_stream", failing_stream)
        allow_cpus(monkeypatch, 2)
        with pytest.raises(RunFailedError, match=rf"^run 0 \(seed 0\): forked={expected}$"):
            runner.run_jobs(runner.jobs_for(micro_experiment(runs=runs)))

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("change", [
        {"synth_test_per_class": 0}, {"augment": "image"}, {"jitter_sigma": -0.5},
    ], ids=["empty_test_set", "image_augment_of_6_features", "negative_jitter"])
    def test_config_errors_raise_before_any_job_runs(self, change, cpus, monkeypatch):
        started = []
        monkeypatch.setattr(runner, "_run_job", lambda *args: started.append(args))
        allow_cpus(monkeypatch, cpus)
        with pytest.raises(InvalidConfigError):
            # a setting the config checks itself (jitter) fails here already
            bad = dataclasses.replace(micro_experiment(seed=3), **change)
            runner.run_jobs(runner.jobs_for(micro_experiment(runs=2)) + runner.jobs_for(bad))
        assert started == []

    def test_dead_worker_names_the_seed_of_each_config(self, monkeypatch):
        monkeypatch.setattr(runner, "run_stream", lambda *args: os._exit(1))
        allow_cpus(monkeypatch, 2)
        jobs = [Job(config, 0, "method") for config in self.mixed_configs()]
        with pytest.raises(RunFailedError, match="worker process died") as failure:
            runner.run_jobs(jobs)
        assert "run 0 (seed 0)" in str(failure.value)
        assert "run 0 (seed 5)" in str(failure.value)
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_more_jobs_than_one_pipe_buffer_holds(self, monkeypatch):
        # 20,000 indices of 4 bytes overfill a 64 KiB pipe buffer
        monkeypatch.setattr(runner, "_run_job", lambda job, inputs, helper_cpus: job.run)
        allow_cpus(monkeypatch, 2)
        jobs = runner.jobs_for(micro_experiment(runs=10_000))
        results = runner.run_jobs(jobs)
        assert list(results) == jobs
        assert list(results.values()) == [job.run for job in jobs]

    def test_pool_imports_no_process_pool(self):
        script = textwrap.dedent("""
            import os, sys
            from afslab import runner

            os.sched_getaffinity = lambda pid: {0, 1}
            config = runner.ExperimentConfig(
                memory=20, num_tasks=2, hidden=(8,), synth_classes=4, synth_dim=6,
                synth_per_class=20, synth_test_per_class=10, runs=2,
            )
            assert len(runner.run_jobs(runner.jobs_for(config))) == 4
            print(sorted({"multiprocessing", "concurrent.futures"} & set(sys.modules)))
        """)
        src = os.path.dirname(os.path.dirname(afslab.__file__))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["[]"]


CPUS = sorted(os.sched_getaffinity(0))


@pytest.mark.skipif(len(CPUS) < 2, reason="placement needs two CPUs")
class TestPlacement:
    """Where the pool's workers and a method pass's helpers run, on real CPUs."""

    def test_method_pass_runs_alone_and_its_reference_pass_elsewhere(self, monkeypatch):
        monkeypatch.setattr(runner, "_run_job", lambda job, inputs, helper_cpus: (
            os.sched_getaffinity(0), helper_cpus
        ))
        method, reference = runner.jobs_for(micro_experiment(runs=1))
        results = runner.run_jobs([method, reference])
        assert results[method] == ({CPUS[0]}, frozenset(CPUS[1:]))
        assert results[reference] == (set(CPUS[1:]), frozenset(CPUS[1:]))

    def test_nothing_is_pinned_when_a_job_waits_for_a_worker(self, monkeypatch):
        monkeypatch.setattr(runner, "_run_job", lambda job, inputs, helper_cpus: (
            os.sched_getaffinity(0), helper_cpus
        ))
        jobs = runner.jobs_for(micro_experiment(runs=len(CPUS)))
        assert runner.run_jobs(jobs) == {job: (set(CPUS), None) for job in jobs}

    def test_parent_keeps_its_cpus(self):
        before = os.sched_getaffinity(0)
        runner.run_jobs(runner.jobs_for(micro_experiment(runs=1)))
        assert os.sched_getaffinity(0) == before

    def test_refused_pinning_gives_the_same_records(self, monkeypatch):
        def refuse(pid, cpus):
            raise OSError(errno.EPERM, "not permitted")

        config = micro_experiment(runs=1)
        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        pooled = run_experiment(config)
        monkeypatch.undo()
        allow_cpus(monkeypatch, 1)
        assert without_wall_time(pooled) == without_wall_time(run_experiment(config))

    def test_helpers_run_on_their_cpus_and_the_last_scorer_with_the_trainer(
        self, tmp_path, monkeypatch
    ):
        log = tmp_path / "cpus"
        real_schedule, real_score = trainer.replay_schedule, trainer._score

        def logged(role):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{role} {sorted(os.sched_getaffinity(0))}\n")

        def schedule(*args):
            logged("schedule")
            yield from real_schedule(*args)

        def score(state, test_sets, *args):
            logged(f"score{len(test_sets)}")
            return real_score(state, test_sets, *args)

        monkeypatch.setattr(trainer, "replay_schedule", schedule)
        monkeypatch.setattr(trainer, "_score", score)
        train, test = gen_synthetic(6, 6, 20, 0.5, 0, test_per_class=5)
        split = split_tasks(train, 3)
        config = dataclasses.replace(micro_experiment(), memory=30, stream_batch=5)
        inputs = (
            init_network(NetworkSpec((6, 8, 6), seed=1)), train,
            task_streams(train, split, 5, 2), task_test_sets(test, split), config, AFS, 3,
        )
        trainer_cpu, helper_cpus = frozenset(CPUS[:1]), frozenset(CPUS[1:])
        with Helpers(trainer_cpu) as pool:  # a pool worker that holds the first CPU
            forked = pool.call(lambda: trainer.run_stream(*inputs, helper_cpus))()
        with pytest.raises(ChildProcessError):  # no helper is left
            os.waitpid(-1, os.WNOHANG)
        here = sorted(log.read_text().splitlines())
        assert here == [
            f"schedule {sorted(helper_cpus)}", f"score1 {sorted(helper_cpus)}",
            f"score2 {sorted(helper_cpus)}", f"score3 {sorted(trainer_cpu)}",
        ]
        log.unlink()
        serial = trainer.run_stream(*inputs)
        assert forked.accuracy_matrix.rows == serial.accuracy_matrix.rows
        assert forked.diagnostics == serial.diagnostics
        assert (forked.steps, forked.review_steps) == (serial.steps, serial.review_steps)
        for x, y in zip(forked.final_state.weights + forked.final_state.biases,
                        serial.final_state.weights + serial.final_state.biases):
            assert x.tobytes() == y.tobytes()


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
        monkeypatch.setattr(runner, "_run_job", lambda job, inputs, helper_cpus: blas_threads())
        allow_cpus(monkeypatch, 2)
        config = micro_experiment(runs=2)
        jobs = [Job(config, 0, "method"), Job(config, 0, "reference"), Job(config, 1, "method")]
        assert runner.run_jobs(jobs) == {job: 1 for job in jobs}

    def test_pool_workers_run_one_os_thread(self, monkeypatch):
        # a worker that set its own BLAS count would start a BLAS thread
        if blas_threads() is None:
            pytest.skip("NumPy is not linked against OpenBLAS")
        monkeypatch.setattr(
            runner, "_run_job", lambda job, inputs, helper_cpus: len(os.listdir("/proc/self/task"))
        )
        allow_cpus(monkeypatch, 2)
        config = micro_experiment(runs=2)
        jobs = [Job(config, 0, "method"), Job(config, 0, "reference"), Job(config, 1, "method")]
        np.ones((256, 256)) @ np.ones((256, 256))  # a product large enough to wake BLAS's threads
        assert len(os.listdir("/proc/self/task")) == blas_threads()
        assert runner.run_jobs(jobs) == {job: 1 for job in jobs}

    def test_pool_restores_the_callers_blas_threads(self, monkeypatch):
        before = blas_threads()
        if before is None:
            pytest.skip("NumPy is not linked against OpenBLAS")
        monkeypatch.setattr(runner, "_run_job", lambda job, inputs, helper_cpus: None)
        allow_cpus(monkeypatch, 2)
        runner.run_jobs(runner.jobs_for(micro_experiment(runs=2)))
        assert blas_threads() == before

    def test_silent_without_openblas(self, tmp_path):
        maps = tmp_path / "maps"
        maps.write_text(
            "7f00-7f01 r-xp 00000000 08:01 1 /usr/lib/libc.so.6\n"
            "7f02-7f03 rw-p 00000000 00:00 0 [heap]\n"
        )
        assert runner._pin_blas_to_one_thread(str(maps)) is None
        assert runner._pin_blas_to_one_thread(str(tmp_path / "missing")) is None
