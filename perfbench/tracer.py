"""Span tracing around every public function of the afslab layers.

The child half (`install`, `SpanRecorder`) wraps each public module-level
function and each public method of a public class that a layer module
defines, then rebinds every name that still points at an original, in any
namespace passed in. Nothing is hard-coded per function, so a later change
that merges or renames functions still yields correct layer totals; only the
phase, step and FLOP tables below name functions, and a name that no longer
exists makes its entry absent rather than an error.

Each call appends one span of int64 columns to an in-memory array: span id,
function id, start and end (perf_counter_ns), parent span id, rows handled,
one auxiliary count (network parameters for the FLOP-counted model calls,
bytes of files read by stream calls, rows stored by an insert) and the
nanoseconds the wrapper itself spent around the call (the buffer diff of an
insert). That wrapper time is charged to no layer. The array is written out
once, when the run ends. The parent half (`load`,
`layer_metrics`) turns spans into per-layer self time, counts and the phase
split.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import time
from array import array

import numpy as np

LAYERS = ("model", "losses", "memory", "stream", "trainer", "metrics", "dynmu", "cli")

# A phase is the inclusive time of its outermost calls: a call nested inside
# any phase call (a forward pass inside the review pass, say) counts only
# towards the enclosing phase, so the phases never double-count.
# An entry ending in "." matches every function of that layer.
PHASES = {
    "retrieve": ("memory.random_retrieve",),
    "augment": ("stream.augment",),
    "forward": ("model.forward", "model.logits_batch"),
    "loss": ("losses.",),
    "backward": ("model.backward", "model.Gradients.add_", "model.zero_gradients"),
    "update": ("model.sgd_step", "model.Gradients.scale"),
    "insert": ("memory.reservoir_update",),
    "review": ("trainer.review_pass",),
    "evaluate": ("trainer.evaluate",),
    "diagnostics": ("metrics.bias_diagnostics",),
}
STEP_FUNCTIONS = ("trainer.sgd_on_batch",)
# Steps of the memory-free reference run are left out of the step metrics,
# so trainer.steps matches the method's stream batches.
REFERENCE_FUNCTIONS = ("trainer.train_reference",)
# Multiply-adds counted as 2 FLOPs per row per network parameter.
FLOPS_PER_ROW_PARAM = {"model.forward": 2, "model.logits_batch": 2, "model.backward": 4}
FLOPS_PER_PARAM = {"model.sgd_step": 2}

# Columns of the span arrays that `SpanRecorder.array` and `load` return.
SPAN_WIDTH = 7
FID, START, END, PARENT, ROWS, AUX, SIDE = range(SPAN_WIDTH)


def matches(qualname: str, entries) -> bool:
    return any(
        qualname.startswith(e) if e.endswith(".") else qualname == e for e in entries
    )


# --- child side ---------------------------------------------------------------


def _rows(value, kind) -> int:
    return value.shape[0] if kind is np.ndarray and value.ndim > 1 else 1


def rows_of(args, result) -> int:
    """Rows from the leading dimension of the first array-like argument.

    A 1-d array is one row, a list counts its items, and a tuple whose first
    item is an array (a features/labels pair) counts that array's rows. With
    no array-like argument the return value is measured instead.
    """
    for value in args:
        kind = type(value)
        if kind is np.ndarray:
            return _rows(value, kind)
        if kind is list:
            return len(value)
        if kind is tuple and value and type(value[0]) is np.ndarray:
            return _rows(value[0], np.ndarray)
    kind = type(result)
    if kind is np.ndarray:
        return _rows(result, kind)
    return len(result) if kind is list else 0


def network_params(args, result) -> int:
    """Parameter count of the first argument that carries `weights` arrays."""
    for arg in args:
        weights = getattr(arg, "weights", None)
        if type(weights) is list:
            count = 0
            for w in weights:
                count += w.size
            return count
    return 0


def file_bytes(args, result) -> int:
    """Bytes of the existing files named by path arguments."""
    return sum(
        os.path.getsize(a)
        for a in args
        if isinstance(a, str) and os.sep in a and os.path.isfile(a)
    )


def snapshot(buffer) -> dict:
    """Identities of list items and copies of 1-d arrays held by `buffer`."""
    state = {}
    for name, value in vars(buffer).items():
        if isinstance(value, list):
            state[name] = [id(v) for v in value]
        elif isinstance(value, np.ndarray) and value.ndim == 1:
            state[name] = value.copy()
    return state


def stored_rows(before: dict, buffer) -> int:
    """Slots of `buffer` that changed or were appended since `before`.

    Lists compare item identity and 1-d arrays compare values; the largest
    count over the buffer's attributes is the number of rows stored.
    """
    kept = 0
    for name, old in before.items():
        new = getattr(buffer, name)
        if isinstance(old, list):
            new = [id(v) for v in new]
            changed = sum(a != b for a, b in zip(old, new))
        else:
            n = min(len(old), len(new))
            changed = int(np.count_nonzero(old[:n] != new[:n]))
        kept = max(kept, changed + max(0, len(new) - len(old)))
    return kept


class SpanRecorder:
    """Spans kept in memory as a flat int64 array until `dump`.

    A call takes its span id on entry, so that nested calls can name it as
    their parent, and appends its row on exit; rows are therefore in order
    of completion and `array` puts them back into id order.
    """

    def __init__(self) -> None:
        self.spans = array("q")
        self.stack: list[int] = [-1]
        self.errors: list[int] = []
        self.functions: list[tuple[str, str]] = []  # fid -> (layer, qualname)
        self.next_id = itertools.count().__next__

    def wrap(self, fn, layer: str, qualname: str):
        fid = len(self.functions)
        self.functions.append((layer, qualname))
        extend, errors, next_id = self.spans.extend, self.errors, self.next_id
        push, pop, stack = self.stack.append, self.stack.pop, self.stack
        clock = time.perf_counter_ns
        insert = matches(qualname, PHASES["insert"])
        if matches(qualname, (*FLOPS_PER_ROW_PARAM, *FLOPS_PER_PARAM)):
            aux = network_params
        elif layer == "stream":
            aux = file_bytes
        else:
            aux = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = next_id()
            parent = stack[-1]
            before, side = None, 0
            if insert and args:
                mark = clock()
                before = snapshot(args[0])
                side = clock() - mark
            push(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                pop()
                extend((idx, fid, start, end, parent, 0, 0, side))
                errors.append(idx)
                raise
            end = clock()
            pop()
            if before is not None:
                extra = stored_rows(before, args[0])
                side += clock() - end
            elif aux is not None:
                extra = aux(args, result)
            else:
                extra = 0
            extend((idx, fid, start, end, parent, rows_of(args, result), extra, side))
            return result

        return traced

    def array(self) -> np.ndarray:
        """The spans as an [n, SPAN_WIDTH] array in span-id order."""
        raw = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, SPAN_WIDTH + 1)
        ordered = np.empty((len(raw), SPAN_WIDTH), dtype=np.int64)
        ordered[raw[:, 0]] = raw[:, 1:]
        return ordered

    def dump(self, path: str) -> None:
        np.save(path + ".npy", self.array())
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"functions": self.functions, "errors": self.errors}, fh)


def _public_functions(module):
    """(qualname, owner, attribute) for each public function the module defines."""
    for name, obj in list(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, module, name
        elif inspect.isclass(obj):
            for attr, member in list(vars(obj).items()):
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{name}.{attr}", obj, attr


def install(recorder: SpanRecorder, layers: dict, namespaces) -> int:
    """Wrap every public function of each layer module; returns the count.

    `layers` maps a layer name to its module. Every name in `namespaces`
    (modules) that is bound to a wrapped original is rebound to the wrapper,
    so `from .model import forward` call sites are traced too.
    """
    replaced = {}
    for layer, module in layers.items():
        for qualname, owner, attr in _public_functions(module):
            original = vars(owner)[attr]
            wrapper = recorder.wrap(original, layer, f"{layer}.{qualname}")
            setattr(owner, attr, wrapper)
            replaced[id(original)] = wrapper  # the wrapper keeps the original alive
    for namespace in namespaces:
        for name, value in list(vars(namespace).items()):
            if id(value) in replaced:
                setattr(namespace, name, replaced[id(value)])
    return len(replaced)


# --- parent side --------------------------------------------------------------


def load(path: str):
    """Read a dumped trace: ([n, SPAN_WIDTH] int64 spans, functions, errors)."""
    spans = np.load(path + ".npy")
    with open(path + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    return spans, [tuple(f) for f in meta["functions"]], meta["errors"]


def self_times(spans: np.ndarray) -> np.ndarray:
    """Each span's duration minus its direct children's durations and wrapper time (ns)."""
    duration = spans[:, END] - spans[:, START]
    parent = spans[:, PARENT]
    nested = parent >= 0
    charged = (duration + spans[:, SIDE])[nested]
    children = np.bincount(parent[nested], weights=charged, minlength=len(spans))
    return duration - children


def under(spans: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """True for spans that have an ancestor for which `mask` holds."""
    covered = np.zeros(len(spans), dtype=bool)
    cursor = spans[:, PARENT].copy()
    while True:
        live = cursor >= 0
        if not live.any():
            return covered
        covered[live] |= mask[cursor[live]]
        cursor[live] = spans[cursor[live], PARENT]


def layer_metrics(spans: np.ndarray, functions, errors, run_s: float) -> tuple[dict, list]:
    """Per-layer and per-phase metrics from one traced run.

    Returns (metrics, absent) where `absent` names the phase, step, reference
    and FLOP entries whose functions no longer exist; those read 0.
    """
    fid = spans[:, FID]
    layer_of = np.array([LAYERS.index(l) if l in LAYERS else -1 for l, _ in functions], dtype=np.int64)
    span_layer = layer_of[fid]
    duration = (spans[:, END] - spans[:, START]) / 1e9
    own = self_times(spans) / 1e9
    rows = spans[:, ROWS]
    aux = spans[:, AUX]
    failed = np.zeros(len(spans), dtype=bool)
    failed[np.asarray(errors, dtype=np.int64)] = True
    absent = []

    def select(label: str, entries) -> np.ndarray:
        """Mask of the spans whose function matches `entries`."""
        wanted = np.array([matches(q, entries) for _, q in functions], dtype=bool)
        if not wanted.any():
            absent.append(label)
        return wanted[fid]

    out = {}
    for index, layer in enumerate(LAYERS):
        sel = span_layer == index
        out[f"{layer}.self_s"] = float(own[sel].sum())
        out[f"{layer}.calls"] = int(sel.sum())
        out[f"{layer}.errors"] = int(failed[sel].sum())

    for layer in ("model", "losses"):
        sel = (span_layer == LAYERS.index(layer)) & (rows > 0)
        out[f"{layer}.rows_per_call"] = float(rows[sel].mean()) if sel.any() else 0.0

    flops = 0.0
    for name, factor in FLOPS_PER_ROW_PARAM.items():
        sel = select(f"flops:{name}", (name,))
        flops += factor * float((rows[sel] * aux[sel]).sum())
    for name, factor in FLOPS_PER_PARAM.items():
        flops += factor * float(aux[select(f"flops:{name}", (name,))].sum())
    model_s = out["model.self_s"]
    out["model.gflop_per_s"] = flops / model_s / 1e9 if model_s > 0 else 0.0

    phase = {p: select(f"phase:{p}", entries) for p, entries in PHASES.items()}
    outermost = ~under(spans, np.logical_or.reduce(list(phase.values())))
    for name, sel in phase.items():
        out[f"phase.{name}_s"] = float(duration[sel & outermost].sum())

    offered = int(rows[phase["insert"]].sum())
    out["memory.inserts"] = offered
    out["memory.kept_ratio"] = float(aux[phase["insert"]].sum()) / offered if offered else 0.0
    out["memory.retrieved_rows"] = int(rows[phase["retrieve"]].sum())
    out["stream.augmented_rows"] = int(rows[phase["augment"]].sum())
    reads = (span_layer == LAYERS.index("stream")) & (aux > 0)
    read_s = float(duration[reads].sum())
    out["stream.idx_mb_per_s"] = float(aux[reads].sum()) / 1e6 / read_s if read_s > 0 else 0.0
    out["metrics.eval_rows"] = int(rows[phase["evaluate"]].sum())
    out["metrics.diag_rows"] = int(rows[phase["diagnostics"]].sum())

    steps = select("steps", STEP_FUNCTIONS)
    in_review = under(spans, phase["review"])
    in_reference = under(spans, select("reference", REFERENCE_FUNCTIONS))
    stream_steps = steps & ~in_review & ~in_reference
    out["trainer.steps"] = int(stream_steps.sum())
    out["trainer.review_steps"] = int((steps & in_review).sum())
    step_ms = duration[stream_steps] * 1e3
    for q in (50, 99):
        out[f"trainer.step_ms.p{q}"] = float(np.percentile(step_ms, q)) if len(step_ms) else 0.0

    # Time the wrapper spent diffing the buffer around inserts; no layer's.
    out["trace.kept_diff_s"] = float(spans[:, SIDE].sum()) / 1e9
    out["trace.outside_s"] = run_s - float(own[span_layer >= 0].sum()) - out["trace.kept_diff_s"]
    return out, absent
