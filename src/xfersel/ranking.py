"""Rankings of source tasks and Spearman's footrule distances between them.

A ranking orders tasks by non-increasing score; equal scores keep their
input order (stable sort), so every ranking is total and deterministic.
The footrule distance between two rankings over the same tasks is the sum
of absolute rank displacements.  The top-k variant charges each of the k
best predicted tasks its displacement against the full ground-truth
ranking, which is how a short selection list is scored against a complete
reference ordering.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

from .bundle import read_text
from .errors import (
    DuplicateTaskIdError,
    IdSetMismatchError,
    InvalidSpecError,
    IoFailureError,
    KOutOfRangeError,
    NonFiniteScoreError,
    UnknownTaskError,
)

CSV_HEADER = ("task_id", "score", "rank")


@dataclass(frozen=True)
class Ranking:
    entries: tuple[tuple[str, float], ...]  # (task_id, score), best first
    position: dict[str, int]                # task_id -> 1-based rank

    def __len__(self) -> int:
        return len(self.entries)

    def task_at(self, rank: int) -> str:
        return self.entries[rank - 1][0]

    @property
    def task_ids(self) -> tuple[str, ...]:
        return tuple(t for t, _ in self.entries)


@dataclass(frozen=True)
class FootruleReport:
    distance: int
    k: int | str  # count, or "full"


def _ranking(entries: tuple[tuple[str, float], ...],
             where: str = "") -> Ranking:
    """The ranking of ``entries``, already best first; ``where`` prefixes
    error details (a file name)."""
    position = {}
    for rank, (task_id, score) in enumerate(entries, 1):
        if task_id in position:
            raise DuplicateTaskIdError(f"{where}{task_id}")
        if not math.isfinite(score):
            raise NonFiniteScoreError(f"{where}{task_id} has score {score}")
        position[task_id] = rank
    return Ranking(entries=entries, position=position)


def build_ranking(scores: list[tuple[str, float]]) -> Ranking:
    """Rank (task_id, score) pairs, higher is better, ties by input order."""
    if not scores:
        raise InvalidSpecError("cannot rank an empty score list")
    return _ranking(tuple(sorted(scores, key=lambda e: -e[1])))


def footrule_full(pred: Ranking, truth: Ranking) -> FootruleReport:
    """Sum of |predicted rank - truth rank| over the common task set."""
    if set(pred.position) != set(truth.position):
        raise IdSetMismatchError(
            "rankings cover different task sets: "
            f"{sorted(set(pred.position) ^ set(truth.position))}")
    distance = sum(abs(p - truth.position[t]) for t, p in pred.position.items())
    return FootruleReport(distance=distance, k="full")


def footrule_topk(pred: Ranking, truth: Ranking, k: int) -> FootruleReport:
    """Displacement of the k best predicted tasks against the full truth.

    ``pred`` may rank a filtered subset of the pool; every predicted task
    must exist in ``truth``.
    """
    if not 1 <= k <= len(pred):
        raise KOutOfRangeError(f"k={k} outside 1..{len(pred)}")
    missing = [t for t in pred.task_ids if t not in truth.position]
    if missing:
        raise UnknownTaskError(f"not in truth ranking: {missing}")
    distance = sum(abs(n - truth.position[pred.task_at(n)])
                   for n in range(1, k + 1))
    return FootruleReport(distance=distance, k=k)


# ---------------------------------------------------------------------------
# CSV serialization: header "task_id,score,rank", UTF-8, LF line endings
# ---------------------------------------------------------------------------

def ranking_to_csv(ranking: Ranking) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for rank, (task_id, score) in enumerate(ranking.entries, 1):
        writer.writerow([task_id, f"{score:.6f}", rank])
    return buf.getvalue()


def write_ranking_csv(ranking: Ranking, path: str | Path) -> None:
    try:
        Path(path).write_text(ranking_to_csv(ranking), encoding="utf-8",
                              newline="")
    except OSError as exc:
        raise IoFailureError(str(exc)) from exc


def _table(path: str | Path) -> tuple[tuple[str, ...],
                                     dict[str, dict[str, float]]]:
    """The header of a CSV table with a ``task_id`` column, and its rows by
    task id in file order: each row's non-blank cells as numbers."""
    reader = csv.DictReader(io.StringIO(read_text(path)))
    try:
        header, records = reader.fieldnames, list(reader)
    except csv.Error as exc:
        raise InvalidSpecError(f"{path}: {exc}") from exc
    if not header or "task_id" not in header:
        raise InvalidSpecError(f"{path}: the header needs a task_id column")
    rows: dict[str, dict[str, float]] = {}
    for rec in records:
        task_id = rec.pop("task_id")
        if None in rec:
            raise InvalidSpecError(f"{path}: row {task_id!r} has extra cells")
        if task_id in rows:
            raise DuplicateTaskIdError(f"{path}: {task_id}")
        try:
            rows[task_id] = {k: float(v) for k, v in rec.items()
                             if v not in (None, "")}
        except ValueError as exc:
            raise InvalidSpecError(f"{path}: row {task_id!r}: {exc}") from exc
    return tuple(header), rows


def read_scores_csv(path: str | Path) -> dict[str, dict[str, float]]:
    """An external scores file: task_id plus one or more metric columns."""
    return _table(path)[1]


def read_ranking_csv(path: str | Path) -> Ranking:
    """Rebuild a ranking from CSV; the rank column is authoritative."""
    header, rows = _table(path)
    if header != CSV_HEADER or any(len(c) != 2 for c in rows.values()):
        raise InvalidSpecError(
            f"{path}: expected {','.join(CSV_HEADER)} in every row")
    by_rank = sorted(rows.items(), key=lambda row: row[1]["rank"])
    if [c["rank"] for _, c in by_rank] != list(range(1, len(rows) + 1)):
        raise InvalidSpecError(f"{path}: ranks are not 1..{len(rows)}")
    return _ranking(tuple((t, c["score"]) for t, c in by_rank), f"{path}: ")
