import json
import os

import pytest

from afslab.cli import main
from checks import check_repetition, comparable_reports
from workloads import Inputs

TINY = (
    "dataset = synthetic\nmethod = er\nruns = 2\nseed = 4\nhidden = 8\nmemory = 10\n"
    "synth_per_class = 20\nsynth_test_per_class = 5\n"
)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    config = root / "exp.cfg"
    config.write_text(TINY)
    outs = []
    for name in ("a", "b"):
        out = root / name
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        outs.append(str(out))
    inputs = Inputs(
        config=str(config), base_seed=4, runs=2, num_tasks=5,
        steps_per_run=5 * 4, samples_per_run=200, final_accuracy=(0.0, 1.0),
        min_old_accuracy=0.05,
    )
    return outs, inputs


def test_good_run_passes_and_repeats_exactly(tiny_run):
    (first, second), inputs = tiny_run
    assert check_repetition(0, first, inputs) == []
    assert comparable_reports(first) == comparable_reports(second)


def test_non_zero_exit_is_flagged(tiny_run):
    (first, _), inputs = tiny_run
    assert check_repetition(1, first, inputs) == ["exit code 1"]
    assert check_repetition(None, first, inputs) == ["exit code None"]


@pytest.mark.parametrize("tamper, expected", [
    (lambda r: r["runs"].pop(), "seeds"),
    (lambda r: r["runs"][0].update(steps=19), "steps 19"),
    (lambda r: r["runs"][1]["matrix"][2].append(0.5), "lower-triangular"),
    (lambda r: r["runs"][0]["matrix"][1].__setitem__(0, 1.5), "outside [0, 1]"),
    (lambda r: r["runs"][0]["metrics"][-1].update(A_T=2.0), "final A_T"),
    (lambda r: r["runs"][1]["matrix"][-1].__setitem__(slice(0, 4), [0.0] * 4), "forgetting"),
    (lambda r: r.update(runs=[1, 2]), "malformed"),
])
def test_tampered_records_are_flagged(tiny_run, tmp_path, tamper, expected):
    (first, _), inputs = tiny_run
    for name in os.listdir(first):
        with open(os.path.join(first, name), "rb") as src:
            (tmp_path / name).write_bytes(src.read())
    records = json.loads((tmp_path / "records.json").read_text())
    tamper(records)
    (tmp_path / "records.json").write_text(json.dumps(records))
    problems = check_repetition(0, str(tmp_path), inputs)
    assert any(expected in p for p in problems), problems


def test_reports_differing_beyond_wall_time_are_told_apart(tiny_run, tmp_path):
    (first, _), _ = tiny_run
    for name in os.listdir(first):
        with open(os.path.join(first, name), "rb") as src:
            (tmp_path / name).write_bytes(src.read())
    path = tmp_path / "metrics.csv"
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace(lines[1].split(",")[-1], "123.0")  # wall time only
    path.write_text("\n".join(lines) + "\n")
    assert comparable_reports(str(tmp_path)) == comparable_reports(first)
    lines[1] = lines[1].replace(lines[1].split(",")[4], "0.999")  # A_T
    path.write_text("\n".join(lines) + "\n")
    assert comparable_reports(str(tmp_path)) != comparable_reports(first)
