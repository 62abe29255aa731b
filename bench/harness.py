"""Workloads, pool set-up, the measured operation loop and its checks."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
import xfersel.cli
from xfersel.bundle import (LabelMaskSet, PixelFeatureSet, TaskBundle,
                            TaskDescriptor, write_bundle)
from xfersel.synth import SynthSpec, generate_tasks

import checks
from layers import EXACT_COUNTS, LAYER_METRICS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"

SETUP_REPEATS = 5
MIN_ROUNDS = 3


@dataclasses.dataclass(frozen=True)
class Group:
    """Tasks of one (modality, RoI class), made by one ``generate_tasks`` call."""
    modality: str
    roi_class: str
    strengths: tuple


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    command: str          # "select" or "synth-eval"
    path: str             # select path; unused by synth-eval
    metric: str
    threads: int
    max_pixels: int
    n_samples: int
    grid: int
    channels: int
    groups: tuple         # of Group: the sources
    target: Group         # a single strength
    otce_tol: float = 0.0
    pools: int = 1        # independently seeded pools, one operation each per round

    def spec(self, seed: int, strengths) -> SynthSpec:
        return SynthSpec(n_tasks=len(strengths), n_samples=self.n_samples,
                         height=self.grid, width=self.grid,
                         channels=self.channels,
                         signal_strengths=tuple(strengths), seed=seed)


WORKLOADS = {w.name: w for w in [
    Workload(
        name="otce-guided", command="select", path="guided", metric="otce",
        threads=1, max_pixels=512, n_samples=16, grid=32, channels=8,
        groups=tuple(Group(m, r, (0.4, 0.6, 0.8))
                     for m in ("T1", "FLAIR") for r in ("ED", "TC")),
        target=Group("T1", "TC", (0.9,)),
        otce_tol=checks.OTCE_TOL_CONVERGED, pools=4),
    Workload(
        name="otce-budget", command="select", path="baseline", metric="otce",
        threads=1, max_pixels=128, n_samples=16, grid=32, channels=128,
        groups=(Group("T1", "TC", (0.0, 0.35, 0.6)),),
        target=Group("T1", "TC", (0.9,)),
        otce_tol=checks.OTCE_TOL_BUDGET),
    Workload(
        name="hscore-eval", command="synth-eval", path="", metric="hscore",
        threads=1, max_pixels=512, n_samples=64, grid=64, channels=8,
        groups=(Group("SIM", "SYN", (0.25, 0.5, 0.75)),),
        target=Group("SIM", "SYN", (0.9,))),
]}


# ---------------------------------------------------------------------------
# set-up: the pool on disk
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Pool:
    root: Path
    target: TaskBundle
    sources: list          # TaskBundle, in the CLI's (directory) order
    strength: dict         # task id -> signal strength


def build_pool(w: Workload, seed: int, root: Path, layer_times=None) -> Pool:
    """Generate every task with ``generate_tasks`` and write it as a bundle."""
    times = {"synth.generate_s": 0.0, "bundle.write_s": 0.0}

    def generate(spec):
        start = time.perf_counter()
        bundles = generate_tasks(spec)
        times["synth.generate_s"] += time.perf_counter() - start
        return bundles

    strength = {}
    if w.command == "synth-eval":
        # one synthetic family; synth-eval takes its last task as the target
        strengths = w.groups[0].strengths + w.target.strengths
        bundles = generate(w.spec(seed, strengths))
        target, sources = bundles[-1], bundles[:-1]
        strength = {b.task_id: s for b, s in zip(bundles, strengths)}
        layout = [(root / b.task_id, b) for b in bundles]
    else:
        sources = []
        for index, g in enumerate(w.groups, 1):
            for b, s in zip(generate(w.spec(seed * 16 + index, g.strengths)),
                            g.strengths):
                sources.append(_relabel(b, g, f"{g.roi_class}-{g.modality}-s{s:.2f}"))
                strength[sources[-1].task_id] = s
        target = _relabel(generate(w.spec(seed * 16, w.target.strengths))[0],
                          w.target, "target")
        sources.sort(key=lambda b: b.task_id)
        layout = [(root / "target", target)]
        layout += [(root / "sources" / b.task_id, b) for b in sources]

    start = time.perf_counter()
    for path, bundle in layout:
        write_bundle(bundle, path)
    times["bundle.write_s"] += time.perf_counter() - start
    if layer_times is not None:
        layer_times.append(times)
    return Pool(root=root, target=target, sources=sources, strength=strength)


def _relabel(bundle: TaskBundle, group: Group, task_id: str) -> TaskBundle:
    descriptor = TaskDescriptor(task_id=task_id, roi_class=group.roi_class,
                                modality=group.modality, dataset="bench")
    labels = LabelMaskSet(task_id=task_id, masks=bundle.labels.masks)
    features = PixelFeatureSet(task_id=task_id,
                               features=bundle.features.features,
                               aligned_labels=labels)
    return TaskBundle(descriptor=descriptor, labels=labels, features=features,
                      extractor="synthetic")


def cli_argv(w: Workload, pool: Pool, seed: int) -> list:
    common = ["--seed", str(seed), "--threads", str(w.threads),
              "--format", "json"]
    if w.command == "synth-eval":
        return common + ["synth-eval", "--dir", str(pool.root),
                         "--target", pool.target.task_id,
                         "--metric", w.metric,
                         "--max-pixels", str(w.max_pixels)]
    return common + ["select", "--target", str(pool.root / "target"),
                     "--sources", str(pool.root / "sources"),
                     "--path", w.path, "--metric", w.metric,
                     "--top-k", str(len(pool.sources)),
                     "--max-pixels", str(w.max_pixels)]


# ---------------------------------------------------------------------------
# one operation
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class OpResult:
    ok: bool
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float


def run_op(argv: list) -> OpResult:
    """One in-process CLI call; wall and process CPU time around ``main``."""
    out, err = io.StringIO(), io.StringIO()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = xfersel.cli.main(argv)
    except Exception:  # a traceback fails the operation, not the run
        err.write(traceback.format_exc())
        code = -1
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return OpResult(code == 0, out.getvalue(), err.getvalue(), wall, cpu)


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def check_output(w: Workload, pool: Pool, seed: int, doc: dict) -> list:
    """Every check of one operation's printed JSON, except the Sinkhorn one."""
    result = doc["result"]
    if w.command == "synth-eval":
        rows = result["comparison"]
        problems = checks.check_equal("metric ranks",
                                      [r["metric_rank"] for r in rows],
                                      range(1, len(rows) + 1))
        problems += checks.check_order([r["task_id"] for r in rows], pool.strength)
        by_id = {b.task_id: b for b in pool.sources}
        for r in rows:
            b = by_id[r["task_id"]]
            problems += checks.check_close(
                f"hscore {r['task_id']}", r["metric_score"],
                checks.hscore_grid(b.features.features, b.labels.masks),
                checks.PRINT_TOL)
        problems += checks.check_footrule(rows, result["footrule_full"],
                                          result["footrule_top1"])
        return problems

    ranked = result["top_k"]
    ids = [r["task_id"] for r in ranked]
    problems = checks.check_equal("ranks", [r["rank"] for r in ranked],
                                  range(1, len(ranked) + 1))
    subset1 = [b for b in pool.sources
               if w.path == "baseline"
               or b.descriptor.modality == pool.target.descriptor.modality]
    problems += checks.check_equal("subset1", result["subset1"],
                                   [b.task_id for b in subset1])
    if w.path == "guided":
        members = {}
        for b in subset1:
            members.setdefault(b.descriptor.roi_class, []).append(b)
        target_masks = (pool.target.labels.masks == 1).astype(float)
        roi = {c: checks.paired_roi_sim(
                   (np.concatenate([b.labels.masks for b in g]) == 1).astype(float),
                   target_masks, seed)
               for c, g in members.items()}
        problems += checks.check_subset2(
            result["subset2"],
            {c: [b.task_id for b in g] for c, g in members.items()}, roi)
    else:
        problems += checks.check_equal("subset2", result["subset2"],
                                       result["subset1"])
    problems += checks.check_equal("ranked sources", sorted(ids),
                                   sorted(result["subset2"]))
    problems += checks.check_order(ids, pool.strength)
    problems += checks.check_otce_range({r["task_id"]: r["score"] for r in ranked},
                                        len(np.unique(pool.target.labels.masks)))
    return problems


def check_sinkhorn(w: Workload, pool: Pool, seed: int, doc: dict) -> list:
    """Printed OTCE of the median-ranked pair against a converged reference."""
    ranked = doc["result"]["top_k"]
    top = ranked[len(ranked) // 2]
    source = next(b for b in pool.sources if b.task_id == top["task_id"])
    xs, ys = checks.pixel_lists(source.features.features, source.labels.masks,
                                w.max_pixels, seed)
    xt, yt = checks.pixel_lists(pool.target.features.features,
                                pool.target.labels.masks, w.max_pixels, seed)
    ref, residual = checks.otce_reference(xs, ys, xt, yt)
    problems = checks.check_close(f"otce {top['task_id']} vs converged Sinkhorn",
                                  top["score"], ref, w.otce_tol)
    if residual > checks.REF_REL_TOL:
        problems.append(f"reference Sinkhorn stopped at relative residual "
                        f"{residual:.1e}")
    return problems


def check_run(w: Workload, pool: Pool, seed: int, reference: OpResult,
              ops: list, sinkhorn: bool) -> list:
    """Checks of one pool's warm-up output; timed repeats must print the same."""
    if not reference.ok:
        return [f"reference operation failed: {reference.stderr.strip()}"]
    problems = [f"operation {i} printed other output than the first"
                for i, op in enumerate(ops) if op.ok and op.stdout != reference.stdout]
    try:
        doc = json.loads(reference.stdout)
        problems += check_output(w, pool, seed, doc)
        if sinkhorn and w.metric == "otce":
            problems += check_sinkhorn(w, pool, seed, doc)
    except (ValueError, KeyError, TypeError, StopIteration) as exc:
        problems.append(f"output not in the expected form: {exc!r}")
    return problems


# ---------------------------------------------------------------------------
# a measured run
# ---------------------------------------------------------------------------

def environment(w: Workload, seconds: float, trace: bool, blas: dict) -> dict:
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": blas,
        "cli_threads": w.threads,
        "workload": w.name,
        "seconds": seconds,
        "trace": trace,
    }


def _commit() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def op_loop(argvs: list, seconds: float, trace: bool):
    """A warm-up operation per pool, then rounds until ``seconds`` have passed.

    A round runs one operation on every pool.  Returns (warm-up results,
    rounds of timed results, per-round layer metrics averaged over the
    round's operations, peak RSS of this process in MB).
    """
    references = [run_op(argv) for argv in argvs]
    tracer = Tracer() if trace else None
    rounds, layers = [], []
    if tracer:
        tracer.install()
    try:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(rounds) < MIN_ROUNDS:
            ops, traced = [], []
            for argv in argvs:
                if tracer:
                    tracer.begin_op()
                ops.append(run_op(argv))
                if tracer and ops[-1].ok:
                    traced.append(tracer.end_op(ops[-1].wall_s))
            rounds.append(ops)
            if traced:
                layers.append({k: statistics.fmean(op[k] for op in traced)
                               for k in traced[0]})
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return references, rounds, layers, peak_rss_mb


def run_worker(argvs: list, seconds: float, trace: bool):
    """:func:`op_loop` in a fresh process, so peak RSS excludes set-up.

    The worker is ``run.py --op-loop``: it reads the request as JSON on
    stdin and writes the results as JSON on stdout.
    """
    request = json.dumps({"argvs": argvs, "seconds": seconds, "trace": trace})
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--op-loop"],
                          input=request, capture_output=True, text=True,
                          timeout=seconds + 120)
    if proc.returncode != 0:
        raise RuntimeError(f"operation worker failed: {proc.stderr.strip()}")
    out = json.loads(proc.stdout)
    references = [OpResult(**op) for op in out["references"]]
    rounds = [[OpResult(**op) for op in r] for r in out["rounds"]]
    return references, rounds, out["layers"], out["peak_rss_mb"]


def serve_op_loop(stdin, stdout) -> None:
    """The worker side of :func:`run_worker`."""
    request = json.load(stdin)
    references, rounds, layers, peak_rss_mb = op_loop(
        request["argvs"], request["seconds"], request["trace"])
    json.dump({"references": [dataclasses.asdict(op) for op in references],
               "rounds": [[dataclasses.asdict(op) for op in r] for r in rounds],
               "layers": layers, "peak_rss_mb": peak_rss_mb}, stdout)


def measure(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up SETUP_REPEATS times, then run rounds of operations for ``seconds``."""
    seeds = [(seed % (1 << 32)) * w.pools + i for i in range(w.pools)]
    workdir = WORK / f"{w.name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        setup_times, setup_layers = [], []
        for i in range(SETUP_REPEATS):
            if i:
                shutil.rmtree(workdir)
            start = time.perf_counter()
            pools = [build_pool(w, s, workdir / str(s), setup_layers) for s in seeds]
            setup_times.append(time.perf_counter() - start)
        argvs = [cli_argv(w, pool, s) for pool, s in zip(pools, seeds)]

        references, rounds, layers, peak_rss_mb = run_worker(argvs, seconds, trace)
        problems = []
        for i, (pool, s, ref) in enumerate(zip(pools, seeds, references)):
            problems += check_run(w, pool, s, ref, [r[i] for r in rounds],
                                  sinkhorn=i == 0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for r in rounds for op in r]
    every = references + ops
    done = [r for r in rounds if all(op.ok for op in r)]
    record = {
        "correct": not problems and bool(done),
        "attempted": len(every),
        "failed": sum(not op.ok for op in every),
        "problems": problems,
        "errors": sorted({op.stderr.strip() for op in every if not op.ok}),
        "op_wall_s": [[op.wall_s for op in r] for r in rounds],
        "op_cpu_s": [[op.cpu_s for op in r] for r in rounds],
        "setup_s": setup_times,
    }
    if not trace:
        metrics = {
            "op_s": (_median([statistics.fmean(op.wall_s for op in r) for r in done]), "s"),
            "cpu_per_op_s": (_median([statistics.fmean(op.cpu_s for op in r) for r in done]), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        for name in ("bundle.write_s", "synth.generate_s"):
            value = statistics.median(
                sum(t[name] for t in setup_layers[i:i + w.pools])
                for i in range(0, len(setup_layers), w.pools)) / w.pools
            for r in layers:
                r[name] = value
        if any(r[k] != layers[0][k] for r in layers for k in EXACT_COUNTS):
            problems.append("a count differed between rounds")
            record["correct"] = False
        record["layers_per_round"] = layers
        metrics = {name: (_median([r[name] for r in layers]), unit)
                   for name, (unit, _) in LAYER_METRICS.items()}
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return record


def _median(values) -> float:
    return statistics.median(values) if values else math.nan
