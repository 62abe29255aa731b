"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: scalar loops and direct formula
transcription (plain numpy only where log-domain arithmetic is the point).
These functions must stay independent of the library code paths they are
used to check.
"""

import math

import numpy as np
from scipy.ndimage import gaussian_filter


def ssim_reference(x, y, k1=0.01, k2=0.03, dynamic_range=1.0):
    """Scalar global SSIM from whole-image population statistics."""
    xs = [float(v) for row in x for v in row]
    ys = [float(v) for row in y for v in row]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    vx = sum((v - mx) ** 2 for v in xs) / n
    vy = sum((v - my) ** 2 for v in ys) / n
    cxy = sum((a - mx) * (b - my) for a, b in zip(xs, ys)) / n
    c1 = (k1 * dynamic_range) ** 2
    c2 = (k2 * dynamic_range) ** 2
    return ((2 * mx * my + c1) * (2 * cxy + c2)) / (
        (mx * mx + my * my + c1) * (vx + vy + c2))


def _solve_gauss(a, b):
    """Solve a (small) linear system by Gauss-Jordan with partial pivoting."""
    n = len(a)
    m = [row[:] + [b[i][j] for j in range(len(b[0]))]
         for i, row in enumerate(a)]
    cols = len(b[0])
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(m[r][col]))
        m[col], m[pivot] = m[pivot], m[col]
        factor = m[col][col]
        m[col] = [v / factor for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0.0:
                scale = m[r][col]
                m[r] = [v - scale * w for v, w in zip(m[r], m[col])]
    return [row[n:n + cols] for row in m]


def hscore_reference(features, labels, ridge):
    """Direct trace formula on one sample: scalar covariances, naive solve."""
    feats = [[float(v) for v in f] for f in features]
    labs = list(labels)
    n = len(feats)
    c = len(feats[0])
    mu = [sum(f[d] for f in feats) / n for d in range(c)]
    cov_f = [[sum((f[i] - mu[i]) * (f[j] - mu[j]) for f in feats) / n
              for j in range(c)] for i in range(c)]
    for i in range(c):
        cov_f[i][i] += ridge

    cov_b = [[0.0] * c for _ in range(c)]
    for y in sorted(set(labs)):
        members = [f for f, lab in zip(feats, labs) if lab == y]
        p = len(members) / n
        mu_y = [sum(f[d] for f in members) / len(members) for d in range(c)]
        for i in range(c):
            for j in range(c):
                cov_b[i][j] += p * (mu_y[i] - mu[i]) * (mu_y[j] - mu[j])

    solved = _solve_gauss(cov_f, cov_b)
    return sum(solved[i][i] for i in range(c))


def hscore_segmentation_reference(features, masks, ridge):
    """Mean of per-pixel trace scores over the full grid; single-class
    positions contribute 0."""
    n, h, w, _ = features.shape
    total = 0.0
    for r in range(h):
        for col in range(w):
            labs = [int(masks[s, r, col]) for s in range(n)]
            if len(set(labs)) < 2:
                continue
            feats = [features[s, r, col, :].tolist() for s in range(n)]
            total += hscore_reference(feats, labs, ridge)
    return total / (h * w)


def cost_reference(src, tgt):
    """Squared Euclidean distances by explicit double loop."""
    out = []
    for a in src:
        row = []
        for b in tgt:
            row.append(sum((float(x) - float(y)) ** 2 for x, y in zip(a, b)))
        out.append(row)
    return out


def sinkhorn_reference(cost, epsilon, tol=1e-14, max_iters=500000):
    """Scalar alternating-scaling fixed point iterated to a tiny tolerance."""
    n_s = len(cost)
    n_t = len(cost[0])
    a = 1.0 / n_s
    b = 1.0 / n_t
    kernel = [[math.exp(-cost[i][j] / epsilon) for j in range(n_t)]
              for i in range(n_s)]
    u = [1.0] * n_s
    v = [1.0] * n_t
    for _ in range(max_iters):
        u = [a / sum(kernel[i][j] * v[j] for j in range(n_t))
             for i in range(n_s)]
        v = [b / sum(kernel[i][j] * u[i] for i in range(n_s))
             for j in range(n_t)]
        plan = [[u[i] * kernel[i][j] * v[j] for j in range(n_t)]
                for i in range(n_s)]
        row_err = max(abs(sum(plan[i]) - a) for i in range(n_s))
        col_err = max(abs(sum(plan[i][j] for i in range(n_s)) - b)
                      for j in range(n_t))
        if max(row_err, col_err) <= tol:
            break
    return [[u[i] * kernel[i][j] * v[j] for j in range(n_t)]
            for i in range(n_s)]


def sinkhorn_log_reference(cost, epsilon, tol=1e-14, max_iters=100000):
    """Alternating log-sum-exp potential updates; never forms exp(-C/eps)."""
    neg_cost = -np.asarray(cost, dtype=np.float64) / epsilon
    n_s, n_t = neg_cost.shape
    f = np.zeros(n_s)
    g = np.zeros(n_t)
    for _ in range(max_iters):
        f = -math.log(n_s) - np.logaddexp.reduce(neg_cost + g[None, :], axis=1)
        g = -math.log(n_t) - np.logaddexp.reduce(neg_cost + f[:, None], axis=0)
        plan = np.exp(neg_cost + f[:, None] + g[None, :])
        if np.abs(plan.sum(axis=1) - 1.0 / n_s).max() <= tol:
            break
    return plan


def cost_whole_matrix_reference(src, tgt):
    """``|a|^2 + |b|^2 - 2 a.b`` clamped at 0, each step on the whole
    matrix; the order of operations the row-blocked cost must keep."""
    a = np.asarray(src, dtype=np.float64)
    b = np.asarray(tgt, dtype=np.float64)
    sq_a = (a * a).sum(axis=1)[:, None]
    sq_b = (b * b).sum(axis=1)[None, :]
    return np.maximum(sq_a + sq_b - 2.0 * (a @ b.T), 0.0)


def _lse_whole(mat, axis):
    peak = mat.max(axis=axis, keepdims=True)
    return (np.log(np.exp(mat - peak).sum(axis=axis, keepdims=True))
            + peak).squeeze(axis)


def sinkhorn_whole_matrix_reference(cost, epsilon, max_iters=1000,
                                    marginal_tol=1e-9, absorb_log=30.0):
    """The stabilised scaling solver with every N_s x N_t step done on the
    whole matrix: a log-sum-exp sweep for the potentials, kernel mat-vec
    sweeps, absorption into the potentials past ``absorb_log``.  Returns
    (plan, sweeps), which a row-blocked solver must reproduce bit for bit."""
    cost = np.asarray(cost, dtype=np.float64)
    n_s, n_t = cost.shape
    a = np.full(n_s, 1.0 / n_s)
    b = np.full(n_t, 1.0 / n_t)
    neg_cost = -cost / epsilon
    f = np.log(a) - _lse_whole(neg_cost, 1)
    g = np.log(b) - _lse_whole(neg_cost + f[:, None], 0)
    kernel = np.exp(neg_cost + f[:, None] + g[None, :])
    u = np.ones(n_s)
    v = np.ones(n_t)
    sweeps = 1
    while sweeps < max_iters:
        kv = kernel @ v
        if np.abs(u * kv - a).max() <= marginal_tol:
            break
        u = a / kv
        v = b / (kernel.T @ u)
        sweeps += 1
        if max(np.abs(np.log(u)).max(), np.abs(np.log(v)).max()) > absorb_log:
            f += np.log(u)
            g += np.log(v)
            kernel = np.exp(neg_cost + f[:, None] + g[None, :])
            u = np.ones(n_s)
            v = np.ones(n_t)
    return u[:, None] * kernel * v[None, :], sweeps


def joint_reference(plan, src_labels, tgt_labels):
    """Label-joint accumulation by explicit double loop into a dict."""
    table = {}
    for i, ys in enumerate(src_labels):
        for j, yt in enumerate(tgt_labels):
            table[(int(ys), int(yt))] = table.get((int(ys), int(yt)), 0.0) \
                + plan[i][j]
    return table


def conditional_entropy_reference(table):
    """Direct negative-conditional-entropy sum over a dict joint table."""
    src_classes = sorted({ys for ys, _ in table})
    score = 0.0
    for ys in src_classes:
        row_mass = sum(p for (s, _), p in table.items() if s == ys)
        for (s, _), p in table.items():
            if s == ys and p > 0:
                score += p * math.log(p / row_mass)
    return score


def otce_reference(src_feats, src_labels, tgt_feats, tgt_labels, epsilon):
    """Composed pipeline oracle: naive cost, scalar fixed point, naive joint,
    direct entropy sum."""
    cost = cost_reference(src_feats, tgt_feats)
    plan = sinkhorn_reference(cost, epsilon)
    table = joint_reference(plan, src_labels, tgt_labels)
    return conditional_entropy_reference(table)


def footrule_reference(pred_order, truth_order):
    """Position-lookup footrule over two orderings of the same items."""
    total = 0
    for item in pred_order:
        total += abs((pred_order.index(item) + 1)
                     - (truth_order.index(item) + 1))
    return total


# --- documented counter-based RNG, transcribed from the format contract ---

_MASK = (1 << 64) - 1


def _mix64_reference(z):
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def word_reference(seed, index):
    return _mix64_reference((seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK)


def subsample_reference(n, k, seed):
    """Partial Fisher-Yates on a real list, then ascending sort."""
    if k >= n:
        return list(range(n))
    arr = list(range(n))
    for i in range(k):
        j = i + word_reference(seed, i) % (n - i)
        arr[i], arr[j] = arr[j], arr[i]
    return sorted(arr[:k])


def subsample_sparse_reference(n, k, seed):
    """The same partial Fisher-Yates on a dict standing in for ``range(n)``,
    for ``n`` too large to hold as a list."""
    if k >= n:
        return list(range(n))
    arr = {}
    for i in range(k):
        j = i + word_reference(seed, i) % (n - i)
        arr[i], arr[j] = arr.get(j, j), arr.get(i, i)
    return sorted(arr.get(i, i) for i in range(k))


def synth_task_reference(spec, task_index):
    """One ``synth`` task drawn a sample at a time: Philox keyed by
    ``word(seed, 16 t + purpose)``; purpose 0 gives each mask its own (H, W)
    field, smoothed at sigma 2.5 and cut at its 0.65 quantile; purpose 1
    gives the noise, mixed out of place with the +-0.15 class means."""
    def stream(purpose):
        key = word_reference(spec.seed, 16 * task_index + purpose)
        return np.random.Generator(np.random.Philox(key=key))

    n, h, w, c = spec.n_samples, spec.height, spec.width, spec.channels
    rng, masks = stream(0), np.empty((n, h, w), np.uint8)
    for i in range(n):
        field = gaussian_filter(rng.standard_normal((h, w)), 2.5)
        masks[i] = (field > np.quantile(field, 0.65)).astype(np.uint8)
    s = spec.signal_strengths[task_index]
    noise = stream(1).standard_normal((n, h, w, c)) * 1.0
    signs = np.where(masks[..., None] > 0, 0.15, -0.15)
    return masks, (s * signs + (1.0 - s) * noise).astype(np.float32)
