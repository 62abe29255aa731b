"""Per-layer timers put around calls into xfersel's public functions.

The program is not changed: :meth:`Tracer.install` replaces each traced
function in the namespace its caller looks it up in (``xfersel.pipeline.otce``
is what ``pipeline`` calls, ``xfersel.otce.sinkhorn`` is what ``otce`` calls)
with a wrapper that records a span, and :meth:`Tracer.uninstall` puts the
originals back.  Spans are kept in memory and folded into per-operation
metrics by :meth:`Tracer.end_op`.

Layer times are inclusive and summed over threads; ``cli.other_s`` is the
operation's wall time not covered by any call the CLI makes into the
library, so it holds argument parsing, rendering and output.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict

MB = float(1 << 20)

# (module, attribute, layer span name or None, called directly by the CLI)
TRACED = [
    ("xfersel.cli", "load_bundle", "bundle.load", True),
    ("xfersel.cli", "select", None, True),
    ("xfersel.cli", "hscore_segmentation", "hscore.segmentation", True),
    ("xfersel.cli", "probe_transfer", "synth.probe", True),
    ("xfersel.cli", "build_ranking", "ranking.rank", True),
    ("xfersel.cli", "footrule_full", "ranking.rank", True),
    ("xfersel.cli", "footrule_topk", "ranking.rank", True),
    ("xfersel.pipeline", "modality_filter", "pipeline.filter", False),
    ("xfersel.pipeline", "roi_filter", "pipeline.filter", False),
    ("xfersel.pipeline", "roi_sim", "roisim.roi_sim", False),
    ("xfersel.pipeline", "hscore_segmentation", "hscore.segmentation", False),
    ("xfersel.pipeline", "build_ranking", "ranking.rank", False),
    ("xfersel.otce", "flatten_pixels", "bundle.flatten", False),
    ("xfersel.otce", "cost_matrix", "otce.cost_matrix", False),
    ("xfersel.otce", "sinkhorn", "otce.sinkhorn", False),
    ("xfersel.otce", "joint_label_distribution", "otce.joint_label", False),
    ("xfersel.synth", "flatten_pixels", "bundle.flatten", False),
    ("xfersel.bundle", "subsample_indices", "rng.subsample", False),
    ("xfersel.roisim", "subsample_indices", "rng.subsample", False),
]

# per-layer metric name -> (unit, better); the order is the output order
LAYER_METRICS = {
    "bundle.load_s": ("s", "lower"),
    "bundle.load_mb": ("MB", "lower"),
    "bundle.flatten_s": ("s", "lower"),
    "bundle.flatten_calls": ("count", "lower"),
    "bundle.write_s": ("s", "lower"),
    "rng.subsample_s": ("s", "lower"),
    "otce.cost_matrix_s": ("s", "lower"),
    "otce.sinkhorn_s": ("s", "lower"),
    "otce.ms_per_sweep": ("ms", "lower"),
    "otce.joint_label_s": ("s", "lower"),
    "otce.sinkhorn_sweeps": ("count", "lower"),
    "otce.unconverged_pairs": ("count", "lower"),
    "otce.max_residual": ("mass", "lower"),
    "otce.plan_mb": ("MB", "lower"),
    "hscore.segmentation_s": ("s", "lower"),
    "hscore.pixels_solved": ("count", "higher"),
    "hscore.us_per_pixel": ("us", "lower"),
    "hscore.skipped_pixels": ("count", "lower"),
    "roisim.roi_sim_s": ("s", "lower"),
    "roisim.pairs": ("count", "lower"),
    "pipeline.filter_s": ("s", "lower"),
    "pipeline.sources_scored": ("count", "lower"),
    "synth.generate_s": ("s", "lower"),
    "synth.probe_s": ("s", "lower"),
    "ranking.rank_s": ("s", "lower"),
    "cli.other_s": ("s", "lower"),
}

# counts that must read the same on every operation of a run
EXACT_COUNTS = ("bundle.flatten_calls", "otce.sinkhorn_sweeps",
                "otce.unconverged_pairs", "hscore.pixels_solved",
                "hscore.skipped_pixels", "roisim.pairs",
                "pipeline.sources_scored")


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._originals = []
        self.spans = []                 # (name, start, end, cli_call)
        self.counts = defaultdict(float)
        self._plan_bytes = 0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name, cli_call in TRACED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, attr, name, cli_call))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, fn, attr, name, cli_call):
        before = getattr(self, f"_before_{attr}", None)
        after = getattr(self, f"_after_{attr}", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(*args, **kwargs) if before else None
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            end = time.perf_counter()
            with self._lock:
                self.spans.append((name, start, end, cli_call))
                if after:
                    after(token, result, *args, **kwargs)
            return result
        return traced

    # -- counters taken at the layer boundaries ---------------------------

    def _after_load_bundle(self, _, bundle, *args, **kwargs):
        size = bundle.labels.masks.nbytes
        if bundle.features is not None:
            size += bundle.features.features.nbytes
        self.counts["bundle.load_mb"] += size / MB

    def _after_flatten_pixels(self, *_, **__):
        self.counts["bundle.flatten_calls"] += 1

    def _before_sinkhorn(self, cost, *args, **kwargs):
        size = cost.shape[0] * cost.shape[1] * 8
        with self._lock:
            self._plan_bytes += size
            self.counts["otce.plan_mb"] = max(self.counts["otce.plan_mb"],
                                              self._plan_bytes / MB)
        return size

    def _after_sinkhorn(self, size, plan, cost, params=None, **kwargs):
        self._plan_bytes -= size
        params = params or kwargs.get("params")
        tol = params.marginal_tol if params is not None else 1e-9
        self.counts["otce.sinkhorn_sweeps"] += plan.iterations_used
        self.counts["otce.unconverged_pairs"] += plan.final_marginal_error > tol
        self.counts["otce.max_residual"] = max(self.counts["otce.max_residual"],
                                               plan.final_marginal_error)

    def _after_hscore_segmentation(self, _, report, fs, *args, **kwargs):
        grid = fs.features.shape[1] * fs.features.shape[2]
        self.counts["hscore.pixels_solved"] += grid - report.skipped_pixels
        self.counts["hscore.skipped_pixels"] += report.skipped_pixels

    def _after_roi_sim(self, _, report, *args, **kwargs):
        self.counts["roisim.pairs"] += report.n_pairs

    def _after_select(self, _, report, *args, **kwargs):
        self.counts["pipeline.sources_scored"] += len(report.subset2)

    # -- per-operation folding ---------------------------------------------

    def begin_op(self) -> None:
        with self._lock:
            self.spans.clear()
            self.counts.clear()
            self._plan_bytes = 0

    def end_op(self, wall_s: float) -> dict[str, float]:
        """Layer metrics of the operation traced since :meth:`begin_op`."""
        with self._lock:
            spans = list(self.spans)
            out = {k: 0.0 for k in LAYER_METRICS
                   if k not in ("bundle.write_s", "synth.generate_s")}
            out.update(self.counts)
        busy = defaultdict(float)
        cli_calls = []
        for name, start, end, cli_call in spans:
            if name:
                busy[name] += end - start
            if cli_call:
                cli_calls.append((start, end))
        for name, value in busy.items():
            out[f"{name}_s"] = value
        sweeps = out["otce.sinkhorn_sweeps"]
        out["otce.ms_per_sweep"] = 1e3 * out["otce.sinkhorn_s"] / sweeps if sweeps else 0.0
        solved = out["hscore.pixels_solved"]
        out["hscore.us_per_pixel"] = (1e6 * out["hscore.segmentation_s"] / solved
                                      if solved else 0.0)
        out["cli.other_s"] = wall_s - _covered(cli_calls)
        return out


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total
