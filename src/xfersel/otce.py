"""OTCE: optimal-transport-based conditional entropy between two tasks.

Pipeline: squared-Euclidean cost between pixel features, entropic OT with
uniform marginals solved by Sinkhorn iteration, label-joint accumulation of
the coupling, and finally the negative conditional entropy of target labels
given source labels (natural log, in nats).  Scores are always <= 0; higher
means more transferable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundle import PixelFeatureSet, SubsampleSpec, flatten_pixels
from .errors import (
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
        if self.epsilon <= 0:
            raise InvalidSpecError("epsilon must be > 0")
        if self.marginal_tol <= 0:
            raise InvalidSpecError("marginal_tol must be > 0")
        if self.max_iters < 1:
            raise InvalidSpecError("max_iters must be >= 1")

    def to_dict(self) -> dict:
        return {"epsilon": self.epsilon, "max_iters": self.max_iters,
                "marginal_tol": self.marginal_tol}


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


def cost_matrix(src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, [N_s, N_t], clamped at 0."""
    a = np.asarray(src, dtype=np.float64)
    b = np.asarray(tgt, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionMismatchError("feature lists must be 2-D [N, C]")
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatchError(
            f"channel counts differ: {a.shape[1]} vs {b.shape[1]}")
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise DimensionMismatchError("feature lists must be non-empty")
    sq_a = (a * a).sum(axis=1)[:, None]
    sq_b = (b * b).sum(axis=1)[None, :]
    cost = sq_a + sq_b - 2.0 * (a @ b.T)
    return np.maximum(cost, 0.0)


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
    potentials (Schmitzer 2019), so small epsilon neither overflows nor
    underflows.

    Iterations stop once the plan's worst row-marginal violation (columns
    are exact after each sweep) drops to ``marginal_tol`` or at
    ``max_iters``.  Non-convergence is not an error: the plan is returned
    with its residual in ``final_marginal_error`` and callers decide.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.size == 0:
        raise NonFiniteCostError("cost must be a non-empty 2-D matrix")
    if not np.isfinite(cost).all():
        raise NonFiniteCostError("cost matrix contains NaN/Inf")

    n_s, n_t = cost.shape
    a = np.full(n_s, 1.0 / n_s)
    b = np.full(n_t, 1.0 / n_t)
    neg_cost = -cost / params.epsilon

    f = np.log(a) - _lse(neg_cost, axis=1)
    g = np.log(b) - _lse(neg_cost + f[:, None], axis=0)
    kernel = np.exp(neg_cost + f[:, None] + g[None, :])
    u = np.ones(n_s)
    v = np.ones(n_t)
    sweeps = 1
    while sweeps < params.max_iters:
        kv = kernel @ v
        if np.abs(u * kv - a).max() <= params.marginal_tol:
            break
        u = a / kv
        v = b / (kernel.T @ u)
        sweeps += 1
        if max(np.abs(np.log(u)).max(), np.abs(np.log(v)).max()) > _ABSORB_LOG:
            f += np.log(u)
            g += np.log(v)
            kernel = np.exp(neg_cost + f[:, None] + g[None, :])
            u = np.ones(n_s)
            v = np.ones(n_t)

    plan = kernel
    plan *= u[:, None]
    plan *= v[None, :]
    err = _marginal_error(plan, a, b)
    return TransportPlan(coupling=plan, row_marginal=a, col_marginal=b,
                         iterations_used=sweeps, final_marginal_error=float(err))


def _marginal_error(plan: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    row_err = np.abs(plan.sum(axis=1) - a).max()
    col_err = np.abs(plan.sum(axis=0) - b).max()
    return max(row_err, col_err)


def _lse(mat: np.ndarray, axis: int) -> np.ndarray:
    peak = mat.max(axis=axis)
    if axis == 1:
        shifted = mat - peak[:, None]
    else:
        shifted = mat - peak[None, :]
    return np.log(np.exp(shifted).sum(axis=axis)) + peak


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


def otce(source: PixelFeatureSet, target: PixelFeatureSet,
         sampler: SubsampleSpec = SubsampleSpec(),
         params: SinkhornParams = SinkhornParams()) -> OtceReport:
    """End-to-end OTCE between a source and a target pixel feature set.

    Both sets must come from the same extractor (equal channel count is
    enforced here; provenance is the caller's contract).  Each side is
    flattened and, above ``sampler.max_pixels``, subsampled with the same
    spec applied independently per side.
    """
    if source.channels != target.channels:
        raise DimensionMismatchError(
            f"channel counts differ: {source.channels} vs {target.channels}")
    src_feats, src_labels = flatten_pixels(source, sampler)
    tgt_feats, tgt_labels = flatten_pixels(target, sampler)

    cost = cost_matrix(src_feats, tgt_feats)
    plan = sinkhorn(cost, params)
    joint = joint_label_distribution(plan, src_labels, tgt_labels)
    score = otce_from_joint(joint)
    ot_cost = float((plan.coupling * cost).sum())
    return OtceReport(source_id=source.task_id, target_id=target.task_id,
                      score=score, ot_cost=ot_cost,
                      iterations_used=plan.iterations_used,
                      final_marginal_error=plan.final_marginal_error,
                      subsample=sampler)
