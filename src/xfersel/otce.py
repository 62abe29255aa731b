"""OTCE: optimal-transport-based conditional entropy between two tasks.

Pipeline: squared-Euclidean cost between pixel features, entropic OT with
uniform marginals solved by Sinkhorn iteration, label-joint accumulation of
the coupling, and finally the negative conditional entropy of target labels
given source labels (natural log, in nats).  Scores are always <= 0; higher
means more transferable.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .bundle import PixelFeatureSet, SubsampleSpec, flatten_pixels
from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    InvalidSpecError,
    LengthMismatchError,
    NonFiniteCostError,
)


@dataclass(frozen=True)
class SinkhornParams:
    epsilon: float = 0.1
    max_iters: int = 1000
    marginal_tol: float = 1e-9

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise InvalidSpecError("epsilon must be > 0 and finite")
        if not (math.isfinite(self.marginal_tol) and self.marginal_tol > 0):
            raise InvalidSpecError("marginal_tol must be > 0 and finite")
        if self.max_iters < 1:
            raise InvalidSpecError("max_iters must be >= 1")


@dataclass(frozen=True)
class TransportPlan:
    coupling: np.ndarray      # [N_s, N_t], non-negative, sums to 1
    row_marginal: np.ndarray  # prescribed, uniform 1/N_s
    col_marginal: np.ndarray  # prescribed, uniform 1/N_t
    iterations_used: int
    final_marginal_error: float


@dataclass(frozen=True)
class JointLabelDistribution:
    table: np.ndarray  # [|Y_s|, |Y_t|]
    source_classes: np.ndarray
    target_classes: np.ndarray


@dataclass(frozen=True)
class OtceReport:
    source_id: str
    target_id: str
    score: float
    ot_cost: float
    iterations_used: int
    final_marginal_error: float
    subsample: SubsampleSpec


# float64 bytes of one row block of an N_s x N_t array; every N x N step
# other than the cost and the kernel runs one such block at a time
_BLOCK_BYTES = 1 << 18


def _row_blocks(n_rows: int, n_cols: int) -> list[slice]:
    step = max(1, _BLOCK_BYTES // (8 * n_cols))
    return [slice(lo, lo + step) for lo in range(0, n_rows, step)]


def cost_matrix(src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, [N_s, N_t], clamped at 0.

    Built in the one result array: ``-2 a b^T`` by matmul, then the squared
    norms added one row block at a time.
    """
    a = np.asarray(src, dtype=np.float64)
    b = np.asarray(tgt, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionMismatchError("feature lists must be 2-D [N, C]")
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatchError(
            f"channel counts differ: {a.shape[1]} vs {b.shape[1]}")
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise DimensionMismatchError("feature lists must be non-empty")
    sq_a = (a * a).sum(axis=1)
    sq_b = (b * b).sum(axis=1)
    cost = a @ b.T
    cost *= -2.0
    for rows in _row_blocks(*cost.shape):
        cost[rows] += sq_a[rows, None] + sq_b
    return np.maximum(cost, 0.0, out=cost)


# Scalings are folded into the log potentials once either leaves
# [exp(-30), exp(30)], long before float64 overflows or K @ v underflows.
_ABSORB_LOG = 30.0


def sinkhorn(cost: np.ndarray,
             params: SinkhornParams = SinkhornParams()) -> TransportPlan:
    """Entropic OT with uniform marginals by alternating marginal scaling.

    Parameters
    ----------
    cost : ndarray [N_s, N_t]
        Finite ground costs, used as given (no normalization).
    params : SinkhornParams
        ``epsilon`` weights the entropy term.

    One log-domain sweep sets the potentials ``f``, ``g``; every later sweep
    is two mat-vecs with the stabilised kernel ``K = exp(-C/eps + f + g)``,
    and the plan is ``u * K * v``.  Drifting scalings are absorbed into the
    potentials and ``K`` is rebuilt from ``cost`` (Schmitzer 2019).

    ``K`` is the only N_s x N_t array allocated here and becomes the plan's
    coupling; the log-sum-exp set-up and every rebuild run one row block at
    a time in it, so ``cost`` is never modified.  The set-up leaves
    ``-C/eps + f`` in ``K``, so the first kernel only adds ``g`` and
    exponentiates in place.  A sweep allocates nothing: the mat-vecs and
    divides write into vectors allocated once per call, and ``u``, ``v``
    are the two halves of one scaling vector, so a single log and reduction
    tests both for absorption.

    Iterations stop once the plan's worst row-marginal violation (columns
    are exact after each sweep) drops to ``marginal_tol`` or at
    ``max_iters``.  The row marginal is uniform, so that violation is read
    off the extremes of ``u * K v``.  Non-convergence is not an error: the
    plan is returned with its residual in ``final_marginal_error`` and
    callers decide.  An ``epsilon`` too small for the costs in float64 is
    an error: non-finite potentials after the set-up, or a final residual
    that is not finite or exceeds the plan's unit mass, raise
    ``DegenerateInputError``.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.size == 0:
        raise NonFiniteCostError("cost must be a non-empty 2-D matrix")

    eps = params.epsilon
    n_s, n_t = cost.shape
    a = np.full(n_s, 1.0 / n_s)
    b = np.full(n_t, 1.0 / n_t)
    blocks = _row_blocks(n_s, n_t)
    kernel = np.empty((n_s, n_t))
    # a degenerate epsilon is named below, not warned about on stderr
    with np.errstate(all="ignore"):
        # row log-sum-exp of -C/eps gives f; -C/eps + f stays in the kernel
        # buffer for the column pass.  That pass adds the running sum into
        # each block's first row, so the column sums add rows in the same
        # order as a whole-matrix sum(axis=0) and f, g keep the same bits.
        f = np.empty(n_s)
        col_peak = np.full(n_t, -np.inf)
        for rows in blocks:
            if not np.isfinite(cost[rows]).all():
                raise NonFiniteCostError("cost matrix contains NaN/Inf")
            block = np.divide(cost[rows], -eps, out=kernel[rows])
            peak = block.max(axis=1)
            shifted = block - peak[:, None]
            np.exp(shifted, out=shifted)
            f[rows] = np.log(a[rows]) - (np.log(shifted.sum(axis=1)) + peak)
            block += f[rows, None]
            np.maximum(col_peak, block.max(axis=0), out=col_peak)
        col_sum = np.zeros(n_t)
        for rows in blocks:
            shifted = kernel[rows] - col_peak
            np.exp(shifted, out=shifted)
            shifted[0] += col_sum
            col_sum = shifted.sum(axis=0)
        g = np.log(b) - (np.log(col_sum) + col_peak)
        if not (np.isfinite(f).all() and np.isfinite(g).all()):
            raise DegenerateInputError(
                f"Sinkhorn potentials are not finite at epsilon {eps:g}; "
                "raise epsilon")
        for rows in blocks:
            block = kernel[rows]
            block += g
            np.exp(block, out=block)

        scale = np.ones(n_s + n_t)
        u, v = scale[:n_s], scale[n_s:]
        log_scale = np.empty(n_s + n_t)
        spread = np.empty(n_s + n_t)
        kv, row, ktu = np.empty(n_s), np.empty(n_s), np.empty(n_t)
        a0, tol = a[0], params.marginal_tol
        sweeps = 1
        while sweeps < params.max_iters:
            np.dot(kernel, v, kv)
            # max|row - a0| <= tol, decided from row's extremes: rounding
            # row_i - a0 is monotone in row_i
            np.multiply(u, kv, out=row)
            if (np.maximum.reduce(row) - a0 <= tol
                    and a0 - np.minimum.reduce(row) <= tol):
                break
            np.divide(a, kv, out=u)
            np.dot(kernel.T, u, ktu)
            np.divide(b, ktu, out=v)
            sweeps += 1
            np.log(scale, out=log_scale)
            if np.maximum.reduce(np.absolute(log_scale, out=spread)) \
                    > _ABSORB_LOG:
                f += log_scale[:n_s]
                g += log_scale[n_s:]
                _fill_kernel(kernel, cost, eps, f, g, blocks)
                scale.fill(1.0)

        plan = kernel
        plan *= u[:, None]
        plan *= v[None, :]
        err = _marginal_error(plan, a, b)
    # columns are exact after every sweep, so a unit-mass plan is off by at
    # most 1 on any marginal; more, or NaN, means float64 ran out of range
    if not err <= 1.0:
        raise DegenerateInputError(
            f"Sinkhorn plan lost its unit mass at epsilon {eps:g} "
            f"(marginal residual {err:.3e}); raise epsilon")
    return TransportPlan(coupling=plan, row_marginal=a, col_marginal=b,
                         iterations_used=sweeps, final_marginal_error=float(err))


def _fill_kernel(kernel: np.ndarray, cost: np.ndarray, epsilon: float,
                 f: np.ndarray, g: np.ndarray, blocks: list[slice]) -> None:
    """``kernel = exp(-cost/epsilon + f + g)`` in place, one row block at a
    time."""
    for rows in blocks:
        block = np.divide(cost[rows], -epsilon, out=kernel[rows])
        block += f[rows, None]
        block += g
        np.exp(block, out=block)


def _marginal_error(plan: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    row_err = np.abs(plan.sum(axis=1) - a).max()
    col_err = np.abs(plan.sum(axis=0) - b).max()
    return max(row_err, col_err)


def joint_label_distribution(plan: TransportPlan,
                             src_labels: np.ndarray,
                             tgt_labels: np.ndarray) -> JointLabelDistribution:
    """Accumulate the coupling into the empirical joint label distribution."""
    src_labels = np.asarray(src_labels)
    tgt_labels = np.asarray(tgt_labels)
    n_s, n_t = plan.coupling.shape
    if len(src_labels) != n_s:
        raise LengthMismatchError(
            f"{len(src_labels)} source labels for {n_s} coupling rows")
    if len(tgt_labels) != n_t:
        raise LengthMismatchError(
            f"{len(tgt_labels)} target labels for {n_t} coupling columns")

    src_classes, src_idx = np.unique(src_labels, return_inverse=True)
    tgt_classes, tgt_idx = np.unique(tgt_labels, return_inverse=True)
    onehot_s = np.eye(len(src_classes))[src_idx]
    onehot_t = np.eye(len(tgt_classes))[tgt_idx]
    table = onehot_s.T @ (plan.coupling @ onehot_t)
    return JointLabelDistribution(table=table, source_classes=src_classes,
                                  target_classes=tgt_classes)


def otce_from_joint(joint: JointLabelDistribution) -> float:
    """Negative conditional entropy -H(Y_t | Y_s) of a joint label table.

    Terms with zero joint mass contribute nothing; the log denominator is
    the source marginal P(y_s).
    """
    table = joint.table
    row = np.broadcast_to(table.sum(axis=1, keepdims=True), table.shape)
    mask = table > 0
    return float(np.sum(table[mask] * np.log(table[mask] / row[mask])))


MEMINFO = "/proc/meminfo"


def available_memory_bytes() -> int:
    """Bytes of memory available to new allocations, the bound on OTCE pairs.

    This is the kernel's ``MemAvailable`` estimate; where ``MEMINFO`` cannot
    be read or lacks it, physical memory.
    """
    try:
        with open(MEMINFO, encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError):
        pass
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def otce_target(target: PixelFeatureSet, sources: list[PixelFeatureSet],
                sampler: SubsampleSpec,
                threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The target's pixels, flattened once for pairing with every source.

    Each pair holds two float64 N_s x N_t arrays (cost and kernel), so
    ``min(threads, len(sources))`` pairs at once need about
    ``2 * N_s * N_t * 8`` bytes each, from the post-subsample sizes.  When
    that is more than the available memory this raises ``InvalidSpecError``
    before anything is allocated.
    """
    def kept(fs):
        return min(fs.n_pixels, sampler.max_pixels)

    n_s, n_t = max(map(kept, sources)), kept(target)
    pairs = max(1, min(threads, len(sources)))
    need = 2 * n_s * n_t * 8 * pairs
    have = available_memory_bytes()
    if need > have:
        raise InvalidSpecError(
            f"OTCE needs about {need / 2**20:,.1f} MiB for {pairs} concurrent "
            f"{n_s} x {n_t} pixel pair(s), more than the "
            f"{have / 2**20:,.1f} MiB of available memory; lower --max-pixels")
    return flatten_pixels(target, sampler)


def otce(source: PixelFeatureSet, target: PixelFeatureSet,
         sampler: SubsampleSpec = SubsampleSpec(),
         params: SinkhornParams = SinkhornParams(),
         target_pixels: tuple[np.ndarray, np.ndarray] | None = None,
         ) -> OtceReport:
    """End-to-end OTCE between a source and a target pixel feature set.

    Both sets must come from the same extractor (equal channel count is
    enforced here; provenance is the caller's contract).  Each side is
    flattened and, above ``sampler.max_pixels``, subsampled with the same
    spec applied independently per side.  ``target_pixels`` is the target
    already flattened by :func:`otce_target`, which a caller pairing one
    target with many sources passes to flatten it only once.
    """
    if source.channels != target.channels:
        raise DimensionMismatchError(
            f"channel counts differ: {source.channels} vs {target.channels}")
    if target_pixels is None:
        target_pixels = otce_target(target, [source], sampler)
    src_feats, src_labels = flatten_pixels(source, sampler)
    tgt_feats, tgt_labels = target_pixels

    cost = cost_matrix(src_feats, tgt_feats)
    plan = sinkhorn(cost, params)
    joint = joint_label_distribution(plan, src_labels, tgt_labels)
    score = otce_from_joint(joint)
    ot_cost = float(np.vdot(plan.coupling, cost))
    return OtceReport(source_id=source.task_id, target_id=target.task_id,
                      score=score, ot_cost=ot_cost,
                      iterations_used=plan.iterations_used,
                      final_marginal_error=plan.final_marginal_error,
                      subsample=sampler)
