"""Two-path source selection over a pool of task bundles.

Guided path: keep sources matching the target's modality (Subset 1), then
keep the RoI classes whose pooled label masks are most shape-similar to the
target's (Subset 2), then rank the survivors with a transferability metric.
Baseline path: rank the whole pool with the metric directly.
"""

from __future__ import annotations

import enum
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .bundle import (
    LabelMaskSet,
    SubsampleSpec,
    TaskBundle,
    TaskDescriptor,
    same_channels,
)
from .errors import (
    InvalidSpecError,
    MissingLabelsError,
    NoCompatibleSourceError,
    UnknownTaskError,
)
from .hscore import HScoreParams, HScoreReport, hscore_segmentation
from .otce import OtceReport, SinkhornParams, otce, otce_target
from .ranking import Ranking, build_ranking
from .roisim import aligned_binary, roi_sim


class SelectionPath(str, enum.Enum):
    GUIDED = "guided"
    BASELINE = "baseline"


class Metric(str, enum.Enum):
    HSCORE = "hscore"
    OTCE = "otce"


class NoMatchPolicy(str, enum.Enum):
    ERROR = "error"
    FALLBACK_ALL = "fallback-all"


class HScoreFeatures(str, enum.Enum):
    """Which bundle's feature export feeds the pixel-wise H-score.

    TARGET evaluates the target bundle's feature map (the faithful pairwise
    reading: that map should have been exported by the source's model, as
    recorded in the manifest's extractor field); a bundle holds one map, so
    it is scored once and every source gets that score.  SOURCE evaluates
    each source's own export, the only per-source signal when one extractor
    is shared across the pool, as in the synthetic benchmark.
    """

    TARGET = "target"
    SOURCE = "source"


@dataclass(frozen=True)
class SelectionConfig:
    path: SelectionPath = SelectionPath.GUIDED
    metric: Metric = Metric.OTCE
    top_k: int = 1
    roi_keep_classes: int = 1
    no_modality_match_policy: NoMatchPolicy = NoMatchPolicy.ERROR
    hscore_params: HScoreParams = field(default_factory=HScoreParams)
    sinkhorn_params: SinkhornParams = field(default_factory=SinkhornParams)
    sampler: SubsampleSpec = field(default_factory=SubsampleSpec)
    hscore_features: HScoreFeatures = HScoreFeatures.TARGET
    threads: int = 1

    def __post_init__(self):
        if self.top_k < 1:
            raise InvalidSpecError("top_k must be >= 1")
        if self.roi_keep_classes < 1:
            raise InvalidSpecError("roi_keep_classes must be >= 1")

    def to_dict(self) -> dict:
        """Every field but ``threads``, which must not change the output."""
        echo = asdict(self)
        del echo["threads"]
        return echo


@dataclass(frozen=True)
class SelectionReport:
    target_id: str
    subset1: tuple[str, ...]
    subset2: tuple[str, ...]
    roi_sim_by_class: dict[str, float]
    final_ranking: Ranking
    per_source_scores: tuple[tuple[str, str, float], ...]
    config: SelectionConfig
    modality_fallback: bool = False

    def top_k_ids(self) -> tuple[str, ...]:
        k = min(self.config.top_k, len(self.final_ranking))
        return self.final_ranking.task_ids[:k]

    def to_dict(self) -> dict:
        return {
            "target_id": self.target_id,
            "subset1": list(self.subset1),
            "subset2": list(self.subset2),
            "roi_sim_by_class": self.roi_sim_by_class,
            "ranking": [
                {"task_id": t, "score": s, "rank": r}
                for r, (t, s) in enumerate(self.final_ranking.entries, 1)
            ],
            "per_source_scores": [
                {"task_id": t, "metric": m, "score": s}
                for t, m, s in self.per_source_scores
            ],
            "modality_fallback": self.modality_fallback,
            "config": self.config.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def modality_filter(pool: list[TaskDescriptor], target: TaskDescriptor,
                    policy: NoMatchPolicy = NoMatchPolicy.ERROR,
                    ) -> tuple[list[TaskDescriptor], bool]:
    """Sources sharing the target's canonical modality, pool order kept.

    Returns (subset, fallback_used).  With no match, ERROR raises and
    FALLBACK_ALL returns the whole pool flagged.
    """
    if not pool:
        raise NoCompatibleSourceError("source pool is empty")
    subset = [d for d in pool if d.same_modality(target)]
    if subset:
        return subset, False
    if policy is NoMatchPolicy.FALLBACK_ALL:
        return list(pool), True
    raise NoCompatibleSourceError(
        f"no source matches target modality {target.modality!r}")


def pooled_class_masks(bundles: list[TaskBundle],
                       reference: LabelMaskSet) -> LabelMaskSet:
    """Pool several tasks' masks into one set on the reference grid.

    Each task's masks are aligned by :func:`aligned_binary`, so tasks with
    heterogeneous class encodings or resolutions can be pooled.
    """
    pooled = np.concatenate([
        aligned_binary(b.labels, reference.height, reference.width).astype(
            np.uint8) for b in bundles])
    ids = "+".join(b.task_id for b in bundles)
    return LabelMaskSet(task_id=ids, masks=pooled, positive_class=1)


def roi_filter(subset1: list[TaskBundle], target: TaskBundle,
               cfg: SelectionConfig) -> tuple[list[TaskBundle], dict[str, float]]:
    """Keep the sources of the top-m RoI classes by pooled shape similarity.

    One RoI-Sim score is computed per class (all of that class's masks
    pooled against the target's, in PAIRED mode with its pairs drawn from
    ``cfg.sampler.seed``), classes tie-break by ascending name.
    """
    if not subset1:
        raise NoCompatibleSourceError("subset 1 is empty")
    by_class: dict[str, list[TaskBundle]] = {}
    for b in subset1:
        if b.labels is None:
            raise MissingLabelsError(b.task_id)
        by_class.setdefault(b.descriptor.roi_class, []).append(b)

    scores = {}
    for roi_class, members in by_class.items():
        pooled = pooled_class_masks(members, target.labels)
        scores[roi_class] = roi_sim(pooled, target.labels,
                                    seed=cfg.sampler.seed).score

    keep = sorted(scores, key=lambda c: (-scores[c], c))[:cfg.roi_keep_classes]
    kept_classes = set(keep)
    subset2 = [b for b in subset1 if b.descriptor.roi_class in kept_classes]
    return subset2, scores


def score_sources(sources: list[TaskBundle], target: TaskBundle,
                  cfg: SelectionConfig) -> list[OtceReport | HScoreReport]:
    """The ``cfg.metric`` report of each source for the target, in pool order.

    OTCE checks the target's export, then each source's, runs the memory
    estimate and flattens the target once for every pair.  The H-score
    reads the export ``cfg.hscore_features`` names; the target's is checked
    against each source's channels in pool order, then scored once.
    """
    if cfg.metric is Metric.OTCE:
        tgt = target.require_features("otce")
        feats = [b.require_features("otce") for b in sources]
        pixels = otce_target(tgt, feats, cfg.sampler, cfg.threads)
        return map_sources(lambda fs: otce(fs, tgt, cfg.sampler,
                                           cfg.sinkhorn_params, pixels),
                           feats, cfg.threads)
    if cfg.hscore_features is HScoreFeatures.SOURCE or not sources:
        return map_sources(lambda b: hscore_segmentation(
            b.require_features("hscore"), cfg.hscore_params),
            sources, cfg.threads)
    tgt = target.require_features("hscore")
    for b in sources:
        if b.features is not None:
            same_channels(b.features.channels, tgt.channels)
    return [hscore_segmentation(tgt, cfg.hscore_params)] * len(sources)


def map_sources(fn, items, threads: int = 1) -> list:
    """``[fn(x) for x in items]`` in input order, over one worker thread per
    item up to ``threads``; one worker runs inline."""
    workers = min(threads, len(items))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def select(pool: list[TaskBundle], target: TaskBundle, cfg: SelectionConfig,
           scores: dict[str, float] | None = None) -> SelectionReport:
    """Run one selection (guided or baseline) and assemble the full report.

    A pool bundle with the target's task id is the target itself and is
    dropped before any filtering.  ``scores`` injects externally computed
    per-source metric scores and bypasses metric computation, which lets the
    ranking/evaluation layer run on published score tables without any
    trained models.  Per-source scoring is parallelized over
    ``cfg.threads``; results are assembled in pool order, so reports are
    byte-identical at any thread count.
    """
    pool = [b for b in pool if b.task_id != target.task_id]
    if not pool:
        raise NoCompatibleSourceError("source pool is empty")
    fallback = False
    roi_scores: dict[str, float] = {}
    if cfg.path is SelectionPath.GUIDED:
        descriptors = [b.descriptor for b in pool]
        kept, fallback = modality_filter(descriptors, target.descriptor,
                                         cfg.no_modality_match_policy)
        kept_ids = {d.task_id for d in kept}
        subset1 = [b for b in pool if b.task_id in kept_ids]
        subset2, roi_scores = roi_filter(subset1, target, cfg)
    else:
        subset1 = subset2 = pool

    if scores is not None:
        missing = [b.task_id for b in subset2 if b.task_id not in scores]
        if missing:
            raise UnknownTaskError(f"no injected score for: {missing}")
        values = [float(scores[b.task_id]) for b in subset2]
    else:
        values = [r.score for r in score_sources(subset2, target, cfg)]
    scored = [(b.task_id, v) for b, v in zip(subset2, values)]

    ranking = build_ranking(scored)
    return SelectionReport(
        target_id=target.task_id,
        subset1=tuple(b.task_id for b in subset1),
        subset2=tuple(b.task_id for b in subset2),
        roi_sim_by_class=roi_scores,
        final_ranking=ranking,
        per_source_scores=tuple((t, cfg.metric.value, s) for t, s in scored),
        config=cfg,
        modality_fallback=fallback,
    )
