"""H-score transferability: classification form and pixel-wise segmentation form.

The classification score of a feature/label sample is

    tr( (cov(F) + ridge*I)^-1 * cov(E[F|Y]) )

with population covariances and class-conditional means weighted by the
empirical class probabilities.  The segmentation score treats every pixel
position of the image grid as its own classification problem over the
samples and averages the per-position scores over all H*W positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundle import PixelFeatureSet
from .errors import (
    DegenerateInputError,
    InvalidSpecError,
    NonFiniteFeatureError,
    ShapeMismatchError,
)


@dataclass(frozen=True)
class HScoreParams:
    ridge: float = 1e-8
    min_samples_per_pixel: int = 2

    def __post_init__(self):
        if self.ridge < 0:
            raise InvalidSpecError("ridge must be >= 0")
        if self.min_samples_per_pixel < 2:
            raise InvalidSpecError("min_samples_per_pixel must be >= 2")

    def to_dict(self) -> dict:
        return {"ridge": self.ridge,
                "min_samples_per_pixel": self.min_samples_per_pixel}


@dataclass(frozen=True)
class HScoreReport:
    source_id: str
    target_id: str
    score: float
    skipped_pixels: int
    per_pixel_scores: np.ndarray | None = None  # [H, W] float64


def hscore_classification(features: np.ndarray, labels: np.ndarray,
                          params: HScoreParams = HScoreParams()) -> float:
    """H-score of an [n, C] feature matrix against n class labels."""
    feats = np.asarray(features, dtype=np.float64)
    labs = np.asarray(labels)
    if feats.ndim != 2:
        raise ShapeMismatchError("features must be [n_samples, C]")
    if feats.shape[0] != labs.shape[0]:
        raise ShapeMismatchError(
            f"{feats.shape[0]} feature rows vs {labs.shape[0]} labels")
    if feats.shape[0] < 2:
        raise DegenerateInputError("need at least 2 samples")
    if not np.isfinite(feats).all():
        raise NonFiniteFeatureError("features contain NaN/Inf")

    n, c = feats.shape
    mu = feats.mean(axis=0)
    centered = feats - mu
    cov_f = centered.T @ centered / n

    # covariance of the conditional-mean vector E[F|Y] under the empirical
    # label distribution: class means weighted by class frequencies
    cov_b = np.zeros((c, c))
    for y in np.unique(labs):
        sel = labs == y
        p_y = sel.mean()
        delta = feats[sel].mean(axis=0) - mu
        cov_b += p_y * np.outer(delta, delta)

    reg = cov_f + params.ridge * np.eye(c)
    return float(np.trace(np.linalg.solve(reg, cov_b)))


def hscore_segmentation(fs: PixelFeatureSet,
                        params: HScoreParams = HScoreParams(),
                        source_id: str | None = None,
                        target_id: str | None = None,
                        keep_per_pixel: bool = False) -> HScoreReport:
    """Pixel-wise H-score of a feature set against its aligned labels.

    ``fs`` should hold the source model's outputs on the target images,
    aligned with the target labels.  Positions where only one class occurs
    across the samples carry no class signal; they contribute 0 and are
    counted in ``skipped_pixels``.  The final score is the arithmetic mean
    over all H*W positions, accumulated in fixed row-major order.
    """
    if fs.n_samples < params.min_samples_per_pixel:
        raise DegenerateInputError(
            f"need >= {params.min_samples_per_pixel} samples per pixel, "
            f"got {fs.n_samples}")
    n, h, w, c = fs.features.shape
    feats = fs.features.astype(np.float64)
    labs = fs.aligned_labels.masks

    per_pixel = np.zeros((h, w))
    skipped = 0
    total = 0.0
    for r in range(h):
        for col in range(w):
            pixel_labels = labs[:, r, col]
            if (pixel_labels == pixel_labels[0]).all():
                skipped += 1
                continue
            s = hscore_classification(feats[:, r, col, :], pixel_labels, params)
            per_pixel[r, col] = s
            total += s

    return HScoreReport(
        source_id=source_id if source_id is not None else fs.task_id,
        target_id=target_id if target_id is not None else fs.task_id,
        score=total / (h * w),
        skipped_pixels=skipped,
        per_pixel_scores=per_pixel if keep_per_pixel else None,
    )
