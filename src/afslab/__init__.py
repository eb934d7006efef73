"""Replay-based online class-incremental learning with adaptive focus shifting."""

from .losses import (
    LossConfig,
    LossOutput,
    difficulty_counts,
    rfl_weight,
    softmax_stable,
    virtual_teacher,
)
from .memory import MemoryBuffer, class_histogram, random_retrieve, reservoir_update
from .metrics import (
    AccuracyMatrix,
    DiagnosticsRecord,
    average_accuracy,
    average_forgetting,
    average_intransigence,
    bias_diagnostics,
    confidence_interval,
)
from .model import (
    NetworkSpec,
    NetworkState,
    forward,
    init_network,
    score_rows,
    sgd_step,
)
from .stream import (
    Dataset,
    TaskSplit,
    batches,
    gen_synthetic,
    load_idx,
    split_tasks,
    task_streams,
    task_test_sets,
    write_idx,
)
from .trainer import (
    AFS,
    ER,
    Recipe,
    RunRecord,
    TrainConfig,
    evaluate,
    run_stream,
    train_offline,
    train_reference,
)

__version__ = "0.1.0"
