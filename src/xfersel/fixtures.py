"""Reference score tables from transfer experiments on FeTS 2021.

Two source-selection benchmarks ship with the package, one per target task
(``ET-22-T2`` and ``ET-20-T1``).  Each table lists, for all 16 candidate
sources (ED/NCR x partitions 13/14/17/18 x T1/T2), the ground-truth transfer
Dice after fine-tuning plus the analytically computed H-score and OTCE
values.  They let the ranking and evaluation layers run end to end without
any trained models, e.g. through ``select(..., scores=...)`` or the CLI's
``--scores-file``.

Scores are quoted at four decimals.  Where two sources agree at that
precision the row order encodes the higher-precision order recoverable from
the benchmark's published top-k evaluation values, and rankings built from
these tables break ties by row order.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from .bundle import LabelMaskSet, TaskBundle, TaskDescriptor
from .errors import InvalidSpecError, UnknownTaskError
from .ranking import read_scores_csv

TARGETS = ("ET-22-T2", "ET-20-T1")

_FILES = {
    "ET-22-T2": "fets_target_et22_t2.csv",
    "ET-20-T1": "fets_target_et20_t1.csv",
}

METRIC_COLUMNS = ("dice", "hscore", "otce")


def reference_table(target_id: str) -> list[dict]:
    """Rows of the benchmark table for one target, in tie-defining order.

    Each row is {"task_id": str, "dice": float, "hscore": float,
    "otce": float}, read by :func:`read_scores_csv`.
    """
    if target_id not in _FILES:
        raise UnknownTaskError(
            f"no reference table for {target_id!r}; have {TARGETS}")
    with resources.as_file(resources.files("xfersel.data").joinpath(
            _FILES[target_id])) as path:
        table = read_scores_csv(path)
    return [{"task_id": task_id, **row} for task_id, row in table.items()]


def reference_scores(target_id: str, column: str) -> list[tuple[str, float]]:
    """(task_id, score) pairs for one metric column, table order."""
    if column not in METRIC_COLUMNS:
        raise InvalidSpecError(
            f"unknown column {column!r}; have {METRIC_COLUMNS}")
    return [(r["task_id"], r[column]) for r in reference_table(target_id)]


def _disk_mask(height: int, width: int, radius: float,
               center: tuple[float, float]) -> "np.ndarray":
    rows = np.arange(height)[:, None] - center[0]
    cols = np.arange(width)[None, :] - center[1]
    return (rows * rows + cols * cols <= radius * radius).astype(np.uint8)


def benchmark_pool(target_id: str, height: int = 32,
                   width: int = 32) -> tuple[list[TaskBundle], TaskBundle]:
    """(sources, target) bundles mirroring the benchmark's task pool.

    The 16 source bundles and the target carry deterministic label masks
    only (no features): RoI shapes are concentric disks sized so that the
    ED class is more shape-similar to the ET target than the NCR class is,
    matching the relation measured on the real data.  Metric scores come
    from :func:`reference_scores` and are injected into the selection
    pipeline, so the ranking and evaluation layers can run end to end.
    """
    radii = {"ET": (8.0, 9.0, 8.5, 9.5), "ED": (9.0, 10.0, 9.5, 10.5),
             "NCR": (4.0, 4.5, 5.0, 4.2)}
    center = (height / 2.0, width / 2.0)

    def masks_for(roi_class: str) -> np.ndarray:
        return np.stack([_disk_mask(height, width, r, center)
                         for r in radii[roi_class]])

    sources = []
    for row in reference_table(target_id):
        desc = TaskDescriptor.from_name(row["task_id"], dataset="FeTS2021")
        labels = LabelMaskSet(task_id=desc.task_id,
                              masks=masks_for(desc.roi_class))
        sources.append(TaskBundle(descriptor=desc, labels=labels))
    desc = TaskDescriptor.from_name(target_id, dataset="FeTS2021")
    target = TaskBundle(
        descriptor=desc,
        labels=LabelMaskSet(task_id=target_id, masks=masks_for("ET")))
    return sources, target
