"""H-score transferability: classification form and pixel-wise segmentation form.

The classification score of a feature/label sample is

    tr( (cov(F) + ridge*I)^-1 * cov(E[F|Y]) )

with population covariances and class-conditional means weighted by the
empirical class probabilities.  The segmentation score treats every pixel
position of the image grid as its own classification problem over the
samples and averages the per-position scores over all H*W positions.

Both forms run one batched kernel over P pixel problems.  With Fc the
centred features of a pixel and s_k the sum of Fc over the samples of
class k (count n_k), cov(E[F|Y]) = sum_k s_k s_k^T / (n * n_k), so the
trace is

    sum_k s_k^T (cov(F) + ridge*I)^-1 s_k / (n * n_k)

from one batched solve against the K class columns instead of a C x C
right-hand side.  Pixels are taken in chunks of ``_CHUNK_BYTES`` of
float64 working set, each cast from the stored float32 on its own and freed
before the next, so memory is bounded for any grid or class count.  When
n_samples <= C every pixel covariance is singular and only the ridge keeps
it invertible; such pixels are counted in ``rank_deficient_pixels``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bundle import PixelFeatureSet, check_fields
from .errors import (
    DegenerateInputError,
    InvalidSpecError,
    NonFiniteFeatureError,
    ShapeMismatchError,
)
from .otce import require_memory

# float64 working bytes one chunk of pixel problems may hold
_CHUNK_BYTES = 2 << 20


@dataclass(frozen=True)
class HScoreParams:
    ridge: float = 1e-8

    def __post_init__(self):
        check_fields(self)
        if not (math.isfinite(self.ridge) and self.ridge >= 0):
            raise InvalidSpecError("ridge must be >= 0 and finite")


@dataclass(frozen=True)
class HScoreReport:
    score: float
    skipped_pixels: int
    rank_deficient_pixels: int


def _pixel_bytes(n: int, c: int, k: int) -> int:
    """Working bytes of one pixel problem: float32 gather, float64 features,
    one-hot, two C x C (covariance and its LU copy) and three K x C blocks."""
    return 4 * n * c + 8 * (n * c + n * k + 2 * c * c + 3 * k * c)


def _chunk_pixels(n: int, c: int, k: int) -> int:
    """Pixels per chunk: as many as fit in ``_CHUNK_BYTES``, at least one."""
    return max(1, _CHUNK_BYTES // _pixel_bytes(n, c, k))


def _pixel_hscores(features: np.ndarray, labels: np.ndarray,
                   pixels: np.ndarray, ridge: float) -> np.ndarray:
    """H-scores of the pixel problems ``features[:, pixels]`` [n, P, C]
    against ``labels[:, pixels]`` [n, P]; returns [P] float64.

    Labels are class indices 0..K-1, each present at every pixel: the
    ``np.unique`` indices of the classification form or the segmentation
    form's 0/1 foreground at pixels where both occur.
    """
    n, _, c = features.shape
    classes = np.arange(labels.max() + 1, dtype=labels.dtype)
    step = _chunk_pixels(n, c, len(classes))
    scores = np.empty(len(pixels))
    for lo in range(0, len(pixels), step):
        chunk = pixels[lo:lo + step]
        # [p, C, n] so every product below is a plain batched BLAS matmul
        f = np.take(features, chunk, axis=1).transpose(1, 2, 0).astype(
            np.float64, order="C")
        f -= f.mean(axis=2, keepdims=True)
        cov = np.matmul(f, f.transpose(0, 2, 1)) / n         # [p, C, C]
        cov[:, range(c), range(c)] += ridge
        y = np.take(labels, chunk, axis=1).T                 # [p, n]
        onehot = (y[:, None, :] == classes[:, None]).astype(np.float64)
        counts = onehot.sum(axis=2)                          # [p, K]
        sums = np.matmul(f, onehot.transpose(0, 2, 1))       # [p, C, K]
        weight = 1.0 / (n * counts)
        try:
            solved = np.linalg.solve(cov, sums)
        except np.linalg.LinAlgError:
            raise DegenerateInputError(
                f"a pixel feature covariance is singular at ridge {ridge:g}; "
                f"use a ridge > 0") from None
        scores[lo:lo + step] = np.einsum("pck,pck,pk->p", sums, solved, weight)
        # free this chunk before the next one's gather, so one chunk is held
        del f, cov, y, onehot, counts, sums, weight, solved
    return scores


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
    index = np.unique(labs, return_inverse=True)[1].reshape(labs.shape)
    return float(_pixel_hscores(feats[:, None], index[:, None],
                                np.zeros(1, np.intp), params.ridge)[0])


def _memory_need(fs: PixelFeatureSet) -> int:
    """The bytes :func:`hscore_segmentation` holds at its peak, an upper
    bound: the whole float32 export it reads, the foreground and one
    comparison of it, three float64 grids and one chunk's working set."""
    (n, h, w), c = fs.aligned_labels.masks.shape, fs.channels
    chunk = min(_chunk_pixels(n, c, 2), h * w) * _pixel_bytes(n, c, 2)
    return n * h * w * (4 * c + 2) + 24 * h * w + chunk


def check_hscore_memory(sets: list[PixelFeatureSet], threads: int = 1) -> None:
    """Refuse, before any export is read, the H-scores of ``sets`` run
    ``min(threads, len(sets))`` at a time when their peaks add up to more
    than the available memory (``InvalidSpecError``)."""
    workers = max(1, min(threads, len(sets)))
    require_memory(workers * max(map(_memory_need, sets), default=0),
                   f"the H-score of {workers} concurrent export(s)")


def hscore_segmentation(fs: PixelFeatureSet,
                        params: HScoreParams = HScoreParams()) -> HScoreReport:
    """Pixel-wise H-score of a feature set against its aligned foreground.

    ``fs`` should hold the source model's outputs on the target images,
    aligned with the target labels.  Positions where only one class occurs
    across the samples carry no class signal; they contribute 0 and are
    counted in ``skipped_pixels``.  The final score is the mean over all
    H*W positions, summed in a fixed order independent of the chunking.
    The whole export is read once, after :func:`check_hscore_memory`.
    """
    (n, h, w), c = fs.aligned_labels.masks.shape, fs.channels
    if n < 2:
        raise DegenerateInputError(f"need >= 2 samples per pixel, got {n}")
    check_hscore_memory([fs])
    feats = fs.features.reshape(n, h * w, c)
    labs = fs.aligned_labels.foreground.reshape(n, h * w)
    active = np.flatnonzero((labs != labs[0]).any(axis=0))

    per_pixel = np.zeros(h * w)
    per_pixel[active] = _pixel_hscores(feats, labs, active, params.ridge)
    return HScoreReport(
        score=float(per_pixel.sum() / (h * w)),
        skipped_pixels=h * w - len(active),
        rank_deficient_pixels=len(active) if n <= c else 0,
    )
