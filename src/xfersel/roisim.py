"""RoI shape similarity between label sets via global SSIM.

The similarity of two label images is the single-window SSIM computed from
whole-image means, variances and covariance (population statistics,
divisor n):

    ssim(x, y) = (2*mu_x*mu_y + C1) * (2*cov_xy + C2)
                 / ((mu_x^2 + mu_y^2 + C1) * (var_x + var_y + C2))

with C1 = (k1*L)^2 and C2 = (k2*L)^2 at the constants of Wang et al. (2004),
k1 = 0.01, k2 = 0.03 and L = 1, on each set's ``foreground``.  Two modes
lift this to mask sets: ``PAIRED`` scores a seeded sample of index pairs
and averages, ``MEAN`` the per-pixel mean foreground occupancy once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .bundle import LabelMaskSet
from .errors import EmptyImageError, InvalidSpecError, ShapeMismatchError
from .rng import subsample_indices

DEFAULT_MAX_PAIRS = 256
_C1 = (0.01 * 1.0) ** 2
_C2 = (0.03 * 1.0) ** 2


class PairingMode(str, enum.Enum):
    PAIRED = "paired"
    MEAN = "mean"


@dataclass(frozen=True)
class RoiSimReport:
    score: float
    n_pairs: int


def ssim_global(x: np.ndarray, y: np.ndarray) -> float:
    """Global SSIM of two 2-D float images (one window, population stats)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ShapeMismatchError(f"images differ in shape: {x.shape} vs {y.shape}")
    if x.size == 0:
        raise EmptyImageError("cannot score empty images")
    mu_x = x.mean()
    mu_y = y.mean()
    var_x = np.mean((x - mu_x) ** 2)
    var_y = np.mean((y - mu_y) ** 2)
    cov_xy = np.mean((x - mu_x) * (y - mu_y))
    num = (2.0 * mu_x * mu_y + _C1) * (2.0 * cov_xy + _C2)
    den = (mu_x * mu_x + mu_y * mu_y + _C1) * (var_x + var_y + _C2)
    return float(num / den)


def resample_nearest(mask: np.ndarray, height: int, width: int) -> np.ndarray:
    """Nearest-neighbor resample of one 2-D mask (pixel-center convention)."""
    src_h, src_w = mask.shape
    rows = np.minimum((np.arange(height) + 0.5) * src_h / height,
                      src_h - 1).astype(np.int64)
    cols = np.minimum((np.arange(width) + 0.5) * src_w / width,
                      src_w - 1).astype(np.int64)
    return mask[np.ix_(rows, cols)]


def aligned_binary(labels: LabelMaskSet, height: int,
                   width: int) -> np.ndarray:
    """The foreground of ``labels``, resampled (nearest-neighbor) to
    ``height`` x ``width`` if its grid differs."""
    binary = labels.foreground
    if binary.shape[1:] != (height, width):
        binary = np.stack([resample_nearest(m, height, width) for m in binary])
    return binary


def roi_sim(source: LabelMaskSet, target: LabelMaskSet,
            mode: PairingMode = PairingMode.PAIRED,
            seed: int = 42,
            max_pairs: int = DEFAULT_MAX_PAIRS) -> RoiSimReport:
    """RoI shape similarity between two tasks' label sets.

    Parameters
    ----------
    source, target : LabelMaskSet
        Each set's foreground is scored; the source's is resampled
        (nearest-neighbor) to the target shape if needed.
    mode : PairingMode
        PAIRED draws ``min(n_s, n_t, max_pairs)`` index pairs without
        replacement per side (seeded, ascending index order on both sides)
        and averages their per-pair SSIM.  MEAN compares the per-pixel mean
        occupancy masks of the two sets with a single SSIM evaluation.
    seed : int
        Drives the paired-mode index draw; irrelevant in MEAN mode.

    The mean over pairs is accumulated in fixed index order, so the result
    is bit-stable regardless of any caller-side parallelism.
    """
    if max_pairs < 1:
        raise InvalidSpecError(f"max_pairs must be >= 1, got {max_pairs}")
    src = aligned_binary(source, target.height, target.width)
    tgt = target.foreground

    if mode is PairingMode.MEAN:
        score = ssim_global(src.mean(axis=0), tgt.mean(axis=0))
        n_pairs = 1
    else:
        m = min(src.shape[0], tgt.shape[0], max_pairs)
        idx_src = subsample_indices(src.shape[0], m, seed)
        idx_tgt = subsample_indices(tgt.shape[0], m, seed)
        total = 0.0
        for i, j in zip(idx_src, idx_tgt):
            total += ssim_global(src[i], tgt[j])
        score = total / m
        n_pairs = m

    return RoiSimReport(score=float(score), n_pairs=n_pairs)
