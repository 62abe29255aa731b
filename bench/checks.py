"""Correctness checks for the benchmark, computed apart from the program.

Every reference here is re-derived from the documented formulas (README of
xfersel, module docstrings of ``xfersel.rng``, ``xfersel.roisim``,
``xfersel.hscore`` and ``xfersel.otce``) with plain numpy; none of it calls
into ``xfersel``.  Each check returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1

# A printed score is the true value rounded to 6 decimals.
PRINT_TOL = 5e-7 + 1e-12

# |printed OTCE - converged reference| for the median-ranked pair.  A solver
# that met its 1e-9 marginal tolerance lands within PRINT_TOL plus a few 1e-7.
# On otce-budget the program stops at the 1000-sweep budget with a residual
# near 1e-5; over seeds 1-40 that left the median pair (s=0.35) up to 3.7e-5
# and the top pair (s=0.6) up to 1.9e-3 from the converged score.
OTCE_TOL_CONVERGED = 1e-5
OTCE_TOL_BUDGET = 5e-4

# The reference plan counts as converged when its worst marginal error is
# below this share of the smaller marginal mass 1/N.
REF_REL_TOL = 1e-9


# ---------------------------------------------------------------------------
# seeded subsampling and pixel flattening (xfersel.rng contract)
# ---------------------------------------------------------------------------

def _splitmix_word(seed: int, index: int) -> int:
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def draw_indices(n: int, k: int, seed: int) -> list[int]:
    """k of n indices by a partial Fisher-Yates shuffle, ascending."""
    if k >= n:
        return list(range(n))
    perm = {}
    for i in range(k):
        j = i + _splitmix_word(seed, i) % (n - i)
        perm[i], perm[j] = perm.get(j, j), perm.get(i, i)
    return sorted(perm[i] for i in range(k))


def pixel_lists(features: np.ndarray, masks: np.ndarray, cap: int,
                seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major (features [N, C], labels [N]), subsampled above ``cap``."""
    x = features.reshape(-1, features.shape[-1])
    y = masks.reshape(-1)
    idx = draw_indices(len(y), cap, seed)
    return x[idx].astype(np.float64), y[idx].astype(np.int64)


# ---------------------------------------------------------------------------
# RoI shape similarity (global SSIM, paired draw)
# ---------------------------------------------------------------------------

def ssim(x: np.ndarray, y: np.ndarray, k1: float = 0.01,
         k2: float = 0.03) -> float:
    c1, c2 = k1 * k1, k2 * k2
    mx, my = x.mean(), y.mean()
    cov = ((x - mx) * (y - my)).mean()
    return float((2 * mx * my + c1) * (2 * cov + c2)
                 / ((mx * mx + my * my + c1)
                    * (x.var() + y.var() + c2)))


def paired_roi_sim(pooled: np.ndarray, target: np.ndarray, seed: int,
                   max_pairs: int = 256) -> float:
    """Mean SSIM over the seeded index pairs of two binary mask stacks."""
    m = min(len(pooled), len(target), max_pairs)
    pairs = zip(draw_indices(len(pooled), m, seed),
                draw_indices(len(target), m, seed))
    return sum(ssim(pooled[i], target[j]) for i, j in pairs) / m


# ---------------------------------------------------------------------------
# pixel-wise H-score, vectorised over grid positions
# ---------------------------------------------------------------------------

def hscore_grid(features: np.ndarray, masks: np.ndarray,
                ridge: float = 1e-8) -> float:
    """Mean over all H*W positions of tr((cov F + ridge I)^-1 cov E[F|Y])."""
    n, h, w, c = features.shape
    f = features.astype(np.float64).reshape(n, h * w, c).transpose(1, 0, 2)
    y = masks.reshape(n, h * w).T.astype(np.int64)           # [P, n]
    active = (y != y[:, :1]).any(axis=1)
    f, y = f[active], y[active]
    mu = f.mean(axis=1, keepdims=True)
    centred = f - mu
    cov_f = np.einsum("pni,pnj->pij", centred, centred) / n
    cov_b = np.zeros_like(cov_f)
    for label in np.unique(y):
        sel = (y == label)[:, :, None]
        count = sel.sum(axis=1)                               # [P, 1]
        present = count[:, 0] > 0
        mean = np.where(sel, f, 0.0).sum(axis=1) / np.maximum(count, 1)
        delta = (mean - mu[:, 0]) * present[:, None]
        cov_b += (count / n)[:, :, None] * delta[:, :, None] * delta[:, None, :]
    reg = cov_f + ridge * np.eye(c)
    per_pixel = np.trace(np.linalg.solve(reg, cov_b), axis1=1, axis2=2)
    return float(per_pixel.sum() / (h * w))


# ---------------------------------------------------------------------------
# OTCE by a log-sum-exp Sinkhorn run to convergence
# ---------------------------------------------------------------------------

def _lse(a: np.ndarray, axis: int) -> np.ndarray:
    peak = a.max(axis=axis, keepdims=True)
    return np.squeeze(np.log(np.exp(a - peak).sum(axis=axis, keepdims=True))
                      + peak, axis=axis)


def entropic_plan(cost: np.ndarray, epsilon: float = 0.1, sweeps: int = 300,
                  max_newton: int = 100) -> tuple[np.ndarray, float]:
    """Uniform-marginal entropic OT plan and its relative marginal residual.

    Log-sum-exp Sinkhorn sweeps on the potentials, then Newton steps on the
    same fixed-point equations (the gradient of the dual), each halved until
    it shrinks the marginal error, until that error is below REF_REL_TOL of
    the smaller marginal mass.  On the near-assignment problems of the
    otce-budget pool plain sweeps shrink the residual only like 1/sweeps
    (2e-7 after 40 000 sweeps); the Newton steps converge in tens.
    """
    m = -np.asarray(cost, dtype=np.float64) / epsilon
    ns, nt = m.shape
    a, b = np.full(ns, 1.0 / ns), np.full(nt, 1.0 / nt)
    f, g = np.zeros(ns), np.zeros(nt)
    for _ in range(sweeps):
        f = np.log(a) - _lse(m + g[None, :], 1)
        g = np.log(b) - _lse(m + f[:, None], 0)

    def state(fv, gv):
        with np.errstate(over="ignore", invalid="ignore"):
            plan = np.exp(m + fv[:, None] + gv[None, :])
            rows, cols = plan.sum(axis=1), plan.sum(axis=0)
            grad = np.r_[a - rows, b - cols]
            return plan, rows, cols, grad, np.abs(grad).max() * max(ns, nt)

    plan, rows, cols, grad, residual = state(f, g)
    for _ in range(max_newton):
        if residual <= REF_REL_TOL:
            break
        # the equations are blind to (f + t, g - t): pin the last g entry
        hess = np.block([[np.diag(rows), plan], [plan.T, np.diag(cols)]])
        try:
            step = np.linalg.solve(hess[:-1, :-1], grad[:-1])
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess[:-1, :-1], grad[:-1], rcond=None)[0]
        step = np.r_[step, 0.0]
        t = 1.0
        while t >= 1e-6:
            trial = state(f + t * step[:ns], g + t * step[ns:])
            if trial[4] < residual:      # also False for an overflowed trial
                break
            t *= 0.5
        else:
            break                        # no step shrinks the error any more
        f, g = f + t * step[:ns], g + t * step[ns:]
        plan, rows, cols, grad, residual = trial
    return plan, float(residual)


def otce_reference(xs, ys, xt, yt, epsilon: float = 0.1) -> tuple[float, float]:
    """(-H(Y_t | Y_s) under the converged plan, relative plan residual)."""
    cost = ((xs[:, None, :] - xt[None, :, :]) ** 2).sum(axis=-1)
    plan, residual = entropic_plan(cost, epsilon)
    score = 0.0
    for s in np.unique(ys):
        row = plan[ys == s]
        p_s = row.sum()
        for t in np.unique(yt):
            p = row[:, yt == t].sum()
            if p > 0:
                score += p * math.log(p / p_s)
    return score, residual


# ---------------------------------------------------------------------------
# checks on parsed CLI output
# ---------------------------------------------------------------------------

def check_equal(what: str, got, want) -> list[str]:
    return [] if list(got) == list(want) else [f"{what}: got {list(got)}, want {list(want)}"]


def check_subset2(subset2, members_by_class: dict[str, list[str]],
                  roi_scores: dict[str, float]) -> list[str]:
    """subset2 must be the members of the class of highest recomputed SSIM."""
    best = max(roi_scores.values())
    winners = [c for c, v in roi_scores.items() if best - v <= 1e-9]
    if any(list(subset2) == members_by_class[c] for c in winners):
        return []
    return [f"subset2 {list(subset2)} is not the class of highest RoI-Sim "
            f"{ {c: round(v, 6) for c, v in roi_scores.items()} }"]


def check_otce_range(scores: dict[str, float], n_target_classes: int) -> list[str]:
    low = -math.log(n_target_classes) - PRINT_TOL
    return [f"OTCE {t}={s} outside [-log {n_target_classes}, 0]"
            for t, s in scores.items() if not low <= s <= PRINT_TOL]


def check_order(ranked_ids, strength: dict[str, float]) -> list[str]:
    """Ranks 1..k in printed order, strongest source first."""
    want = sorted(ranked_ids, key=lambda t: -strength[t])
    if list(ranked_ids) != want:
        return [f"ranking {list(ranked_ids)} does not follow signal strengths"]
    return []


def check_close(what: str, got: float, want: float, tol: float) -> list[str]:
    if abs(got - want) <= tol:
        return []
    return [f"{what}: printed {got:.6f}, reference {want:.9f} (tol {tol:g})"]


def check_footrule(rows: list[dict], full: int, top1: int) -> list[str]:
    """Footrule distances recomputed from the printed metric and probe ranks."""
    want_full = sum(abs(r["metric_rank"] - r["probe_rank"]) for r in rows)
    best = next(r for r in rows if r["metric_rank"] == 1)
    want_top1 = abs(1 - best["probe_rank"])
    problems = []
    if full != want_full:
        problems.append(f"footrule_full {full}, recomputed {want_full}")
    if top1 != want_top1:
        problems.append(f"footrule_top1 {top1}, recomputed {want_top1}")
    return problems
