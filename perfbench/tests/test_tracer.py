import types

import numpy as np
import pytest

import tracer
from tracer import END, FID, PARENT, ROWS, SIDE, SPAN_WIDTH, START


def _spans(rows):
    """rows of (fid, start, end, parent) -> a span array with zero counts."""
    out = np.zeros((len(rows), SPAN_WIDTH), dtype=np.int64)
    for i, (fid, start, end, parent) in enumerate(rows):
        out[i, [FID, START, END, PARENT]] = fid, start, end, parent
    return out


def test_self_time_subtracts_direct_children_only():
    spans = _spans([
        (0, 0, 100, -1),  # root
        (1, 10, 40, 0),  # child of root
        (2, 15, 25, 1),  # grandchild
        (1, 50, 90, 0),  # second child of root
    ])
    assert tracer.self_times(spans).tolist() == [30, 20, 10, 40]

    # Wrapper time around a call is charged to neither the call nor its parent.
    spans[3, SIDE] = 5
    assert tracer.self_times(spans).tolist() == [25, 20, 10, 40]


def test_layer_totals_and_outermost_phases():
    functions = [
        ("trainer", "trainer.sgd_on_batch"),
        ("model", "model.forward"),
        ("losses", "losses.ce_loss"),
        ("losses", "losses.softmax_stable"),
        ("trainer", "trainer.review_pass"),
        ("trainer", "trainer.train_reference"),
    ]
    spans = _spans([
        (0, 0, 1000, -1),  # step
        (1, 100, 300, 0),  # forward
        (2, 300, 600, 0),  # loss
        (3, 350, 450, 2),  # nested loss helper: not a second loss phase
        (4, 1000, 2000, -1),  # review
        (0, 1100, 1900, 4),  # step inside review
        (1, 1200, 1400, 5),  # forward inside review counts towards review
        (5, 2000, 2400, -1),  # reference run
        (0, 2000, 2300, 7),  # its step: not a stream step
    ])
    spans[[1, 2, 3, 6], ROWS] = 1
    metrics, absent = tracer.layer_metrics(spans, functions, [], run_s=2.9e-6)
    ns = 1e-9
    assert metrics["trainer.self_s"] == pytest.approx((500 + 200 + 600 + 100 + 300) * ns)
    assert metrics["losses.self_s"] == pytest.approx(300 * ns)
    assert metrics["model.self_s"] == pytest.approx(400 * ns)
    assert metrics["losses.calls"] == 2 and metrics["model.calls"] == 2
    assert metrics["phase.forward_s"] == pytest.approx(200 * ns)
    assert metrics["phase.loss_s"] == pytest.approx(300 * ns)
    assert metrics["phase.review_s"] == pytest.approx(1000 * ns)
    assert metrics["trainer.steps"] == 1 and metrics["trainer.review_steps"] == 1
    assert metrics["trainer.step_ms.p50"] == pytest.approx(1000 * ns * 1e3)
    assert metrics["losses.rows_per_call"] == 1.0
    assert metrics["trace.outside_s"] == pytest.approx(500 * ns)
    assert metrics["trace.kept_diff_s"] == 0.0
    assert "phase:insert" in absent and "phase:forward" not in absent


def _fake_layer(name, source):
    module = types.ModuleType(name)
    exec(source, module.__dict__)
    return module


def test_install_wraps_whatever_a_module_defines():
    v1 = _fake_layer("fakelab.model", (
        "import numpy as np\n"
        "def forward(x):\n    return x * 2\n"
        "def twice(x):\n    return forward(forward(x))\n"
        "def _private(x):\n    return x\n"
        "class Gradients:\n"
        "    def add_(self, rows):\n        return len(rows)\n"
    ))
    caller = _fake_layer("fakelab.trainer", "")
    caller.forward = v1.forward  # as `from .model import forward` would bind it
    recorder = tracer.SpanRecorder()
    wrapped = tracer.install(recorder, {"model": v1}, [v1, caller])
    assert wrapped == 3  # forward, twice, Gradients.add_; never _private

    caller.forward(np.ones((4, 3)))
    v1.twice(np.ones(5))
    v1.Gradients().add_([1, 2])
    spans = recorder.array()
    names = [recorder.functions[f][1] for f in spans[:, FID]]
    assert names == ["model.forward", "model.twice", "model.forward", "model.forward",
                     "model.Gradients.add_"]
    assert spans[:, PARENT].tolist() == [-1, -1, 1, 1, -1]
    assert spans[:, ROWS].tolist() == [4, 1, 1, 1, 2]
    assert (spans[:, END] >= spans[:, START]).all()

    # A later version renames and merges functions: totals still add up and
    # the phase whose functions are gone reads as absent.
    v2 = _fake_layer("fakelab.model", "def forward_all(x):\n    return x\n")
    recorder = tracer.SpanRecorder()
    tracer.install(recorder, {"model": v2}, [v2])
    v2.forward_all(np.ones((7, 2)))
    spans = recorder.array()
    metrics, absent = tracer.layer_metrics(spans, recorder.functions, recorder.errors, 1.0)
    assert metrics["model.calls"] == 1 and metrics["model.rows_per_call"] == 7
    assert "phase:forward" in absent
    assert metrics["phase.forward_s"] == 0.0


def test_errors_are_counted_and_reraised():
    module = _fake_layer("fakelab.memory", "def boom():\n    raise ValueError('x')\n")
    recorder = tracer.SpanRecorder()
    tracer.install(recorder, {"memory": module}, [module])
    with pytest.raises(ValueError):
        module.boom()
    spans = recorder.array()
    metrics, _ = tracer.layer_metrics(spans, recorder.functions, recorder.errors, 1.0)
    assert metrics["memory.errors"] == 1 and metrics["memory.calls"] == 1


def test_stored_rows_counts_replaced_and_appended_slots():
    class Buffer:
        def __init__(self):
            self.slots = [object(), object(), object()]
            self.uids = np.arange(3)

    buffer = Buffer()
    before = tracer.snapshot(buffer)
    buffer.slots[1] = object()
    buffer.slots.append(object())
    assert tracer.stored_rows(before, buffer) == 2

    before = tracer.snapshot(buffer)
    buffer.uids = np.array([0, 9, 9, 3])
    assert tracer.stored_rows(before, buffer) == 3


def test_insert_diff_time_is_kept_out_of_the_layers():
    module = _fake_layer("fakelab.memory", (
        "def reservoir_update(buffer, batch):\n    buffer.slots.extend(batch[:1])\n"
    ))
    caller = _fake_layer("fakelab.trainer", (
        "def step(buffer, batch):\n    memory.reservoir_update(buffer, batch)\n"
    ))
    caller.memory = module
    recorder = tracer.SpanRecorder()
    tracer.install(recorder, {"memory": module, "trainer": caller}, [module, caller])
    buffer = types.SimpleNamespace(slots=[object() for _ in range(1000)])
    caller.step(buffer, [object(), object()])
    spans = recorder.array()
    insert = [i for i, f in enumerate(spans[:, FID])
              if recorder.functions[f][1] == "memory.reservoir_update"]
    assert spans[insert, SIDE] > 0 and spans[insert, tracer.AUX] == 1
    run_ns = int(spans[:, END].max() - spans[:, START].min())
    metrics, _ = tracer.layer_metrics(spans, recorder.functions, [], run_ns / 1e9)
    total = (metrics["trainer.self_s"] + metrics["memory.self_s"]
             + metrics["trace.kept_diff_s"] + metrics["trace.outside_s"])
    assert metrics["trace.kept_diff_s"] == pytest.approx(spans[insert[0], SIDE] / 1e9)
    assert total == pytest.approx(run_ns / 1e9)
