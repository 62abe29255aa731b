"""Synthetic segmentation task families with a tunable feature-label link.

Each task draws binary masks by thresholding smoothed Gaussian noise fields
(so RoI shapes vary but class balance stays pinned), then builds per-pixel
features as

    feature = s * mu[label] + (1 - s) * noise,     noise ~ N(0, sigma^2 I_C)

where s is the task's signal strength in [0, 1].  Class mean vectors are
symmetric (+/- MEAN_SCALE per channel), so at s = 1 the features are exact
class indicators, and at s = 0 they are pure noise.

The per-pixel linear probe plays ground truth at desk scale: a ridge-
regularized logistic classifier fit on a seeded subsample of the source's
pixels and scored by pixel accuracy on the target, mirroring the
frozen-encoder/retrained-head structure of real transfer experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from .bundle import (
    LabelMaskSet,
    PixelFeatureSet,
    SubsampleSpec,
    TaskBundle,
    TaskDescriptor,
    check_fields,
    flatten_pixels,
    same_channels,
)
from .errors import InvalidSpecError
from .otce import require_memory
from .rng import word

MEAN_SCALE = 0.15         # class means sit at -+MEAN_SCALE per channel
NOISE_SIGMA = 1.0         # std of the noise mixed in at weight (1 - s)
FOREGROUND_QUANTILE = 0.65  # smoothed field threshold; ~35% foreground
SMOOTHING_SIGMA = 2.5     # field correlation length in pixels

PROBE_TRAIN_PIXELS = 512
PROBE_RIDGE = 1e-2
PROBE_NEWTON_STEPS = 30


@dataclass(frozen=True)
class SynthSpec:
    n_tasks: int = 6
    n_samples: int = 16
    height: int = 32
    width: int = 32
    channels: int = 4
    signal_strengths: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    seed: int = 42

    def __post_init__(self):
        check_fields(self)
        if self.n_tasks < 1 or self.n_samples < 1:
            raise InvalidSpecError("n_tasks and n_samples must be >= 1")
        if self.height < 2 or self.width < 2 or self.channels < 1:
            raise InvalidSpecError("grid must be at least 2x2 with >= 1 channel")
        if len(self.signal_strengths) != self.n_tasks:
            raise InvalidSpecError(
                f"need {self.n_tasks} signal strengths, "
                f"got {len(self.signal_strengths)}")
        if any(not 0.0 <= s <= 1.0 for s in self.signal_strengths):
            raise InvalidSpecError("signal strengths must lie in [0, 1]")


@dataclass(frozen=True)
class ProbeResult:
    accuracy: float


def _task_rng(seed: int, task_index: int, purpose: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=word(seed, task_index * 16 + purpose)))


def _draw_masks(spec: SynthSpec, task_index: int) -> np.ndarray:
    """Each sample smoothed on its own grid (sigma 0 on the sample axis)
    and cut at its own quantile."""
    rng = _task_rng(spec.seed, task_index, 0)
    block = gaussian_filter(
        rng.standard_normal((spec.n_samples, spec.height, spec.width)),
        (0, SMOOTHING_SIGMA, SMOOTHING_SIGMA))
    cuts = np.quantile(block.reshape(spec.n_samples, -1),
                       FOREGROUND_QUANTILE, axis=1)
    return (block > cuts[:, None, None]).view(np.uint8)


def _draw_features(spec: SynthSpec, task_index: int,
                   masks: np.ndarray) -> np.ndarray:
    rng = _task_rng(spec.seed, task_index, 1)
    s = spec.signal_strengths[task_index]
    mixed = rng.standard_normal(
        (spec.n_samples, spec.height, spec.width, spec.channels))
    mixed *= NOISE_SIGMA
    mixed *= 1.0 - s
    # s * (-MEAN_SCALE) rounds to -(s * MEAN_SCALE): one product per class
    mixed += np.where(masks[..., None] > 0, s * MEAN_SCALE, -s * MEAN_SCALE)
    return mixed.astype(np.float32)


def _memory_need(spec: SynthSpec) -> int:
    """The bytes :func:`generate_tasks` holds at its peak, an upper bound."""
    cells = spec.n_samples * spec.height * spec.width
    c = spec.channels
    return cells * (spec.n_tasks * (1 + 4 * c) + 8 * c + 10)


def generate_tasks(spec: SynthSpec) -> list[TaskBundle]:
    """Build n_tasks bundles, fully deterministic per spec seed.

    Every task's uint8 masks and float32 features are kept, 1 + 4C bytes a
    cell, and one task at a time is drawn through at most 8C + 10 bytes a
    cell more: its float64 noise block and signs, or its float64 field
    block and the quantile's copy of it.  When that is more than the
    available memory this raises ``InvalidSpecError`` before anything is
    allocated.
    """
    require_memory(_memory_need(spec), "synth spec")
    bundles = []
    for t in range(spec.n_tasks):
        s = spec.signal_strengths[t]
        task_id = f"synth-{t:02d}-s{s:.2f}"
        masks = _draw_masks(spec, t)
        labels = LabelMaskSet(task_id=task_id, masks=masks, positive_class=1)
        features = PixelFeatureSet(
            task_id=task_id,
            features=_draw_features(spec, t, masks),
            aligned_labels=labels)
        descriptor = TaskDescriptor(task_id=task_id, roi_class="SYN",
                                    modality="SIM", dataset="synthetic",
                                    partition=str(t))
        bundles.append(TaskBundle(descriptor=descriptor, labels=labels,
                                  features=features, extractor="synthetic"))
    return bundles


def _fit_logistic(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Ridge-regularized logistic fit by Newton steps; intercept unpenalized."""
    n, c = x.shape
    design = np.hstack([x, np.ones((n, 1))])
    w = np.zeros(c + 1)
    penalty = PROBE_RIDGE * np.r_[np.ones(c), 0.0]
    for _ in range(PROBE_NEWTON_STEPS):
        z = np.clip(design @ w, -35, 35)
        p = 1.0 / (1.0 + np.exp(-z))
        grad = design.T @ (p - y) / n + penalty * w
        curv = p * (1.0 - p)
        hess = (design.T * curv) @ design / n + np.diag(penalty + 1e-12)
        step = np.linalg.solve(hess, grad)
        w = w - step
        if np.abs(step).max() < 1e-12:
            break
    return w


def probe_pixels(target: PixelFeatureSet, sources: list[PixelFeatureSet],
                 threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Every pixel of ``target``, as :func:`flatten_pixels` lists it with
    no cap, once its probe from ``sources``, ``min(threads, len(sources))``
    at a time, fits in the available memory (else ``InvalidSpecError``):
    the list and its read take 12C + 9 bytes a target pixel, and each
    worker 18 more, one a source pixel and 32(C + 1) a training pixel."""
    n, c = target.n_pixels, target.channels
    workers = max(1, min(threads, len(sources)))
    per_worker = (18 * n + max((fs.n_pixels for fs in sources), default=0)
                  + 32 * PROBE_TRAIN_PIXELS * (c + 1))
    require_memory(n * (12 * c + 9) + workers * per_worker,
                   f"the probe of {workers} concurrent source(s)")
    return flatten_pixels(target, SubsampleSpec(max_pixels=n))


def probe_transfer(source: TaskBundle, target: TaskBundle, seed: int = 42,
                   target_pixels: tuple[np.ndarray, np.ndarray] | None = None,
                   ) -> ProbeResult:
    """Pixel accuracy on the target of a probe fit on the source's pixels.

    The training set is a seeded subsample of at most ``PROBE_TRAIN_PIXELS``
    source pixels; evaluation uses every target pixel.  Both sides train
    and score on their ``LabelMaskSet.foreground``.  Deterministic per seed.
    ``target_pixels`` is the target as :func:`probe_pixels` lists it, which
    a caller probing one target from many sources passes to list it once.
    """
    same_channels(source.require_features("probe").channels,
                  target.require_features("probe").channels)
    train_x, train_y = flatten_pixels(
        source.features, SubsampleSpec(max_pixels=PROBE_TRAIN_PIXELS, seed=seed))
    w = _fit_logistic(train_x, train_y)

    if target_pixels is None:
        target_pixels = probe_pixels(target.features, [source.features])
    eval_x, eval_y = target_pixels
    logits = eval_x @ w[:-1] + w[-1]
    accuracy = float(np.mean((logits > 0) == eval_y))
    return ProbeResult(accuracy=accuracy)
