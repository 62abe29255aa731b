"""Batch-oriented command line interface.

Exit codes: 0 success, 2 validation or I/O failure, 3 no compatible source.
Library failures and usage errors print one ``ERROR <code>: <detail>`` line.
All floating-point output uses 6 decimal places with a ``.`` separator,
except ``score``'s Sinkhorn residual, in scientific notation.
Every run echoes its effective configuration (a ``# config:`` line in csv
format, a ``config`` object in json format); the echo excludes ``--threads``
so output files are byte-identical at any parallelism.
``synth-eval --metric hscore`` calls the H-score on each source's own
export, which carries its signal: one extractor is shared across a pool.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .bundle import (
    MANIFEST_NAME,
    SubsampleSpec,
    TaskBundle,
    load_bundle,
    read_text,
    write_bundle,
)
from .errors import (
    InvalidSpecError,
    IoFailureError,
    UnknownTaskError,
    XferselError,
)
from .hscore import HScoreParams, check_hscore_memory, hscore_segmentation
from .otce import SinkhornParams
from .pipeline import (
    Metric,
    NoMatchPolicy,
    SelectionConfig,
    SelectionPath,
    map_sources,
    score_sources,
    select,
)
from .ranking import (
    build_ranking,
    footrule_full,
    footrule_topk,
    ranking_to_csv,
    read_ranking_csv,
    read_scores_csv,
)
from .roisim import DEFAULT_MAX_PAIRS, PairingMode, roi_sim
from .synth import SynthSpec, generate_tasks, probe_pixels, probe_transfer

DEFAULT_SEED = 42


class _Sci(float):
    """A float printed in scientific notation, as 6 dp would round it to 0."""


def _fmt(value) -> str:
    if isinstance(value, _Sci):
        return f"{value:.3e}"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _round_floats(obj):
    if isinstance(obj, _Sci):
        return float(_fmt(obj))
    if isinstance(obj, float):
        return round(obj, 6)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(args, config: dict, result: dict, lines: list[str] | None = None,
          files: dict[str, str] | None = None) -> None:
    """Write --output, then print the command's document per --format.

    json prints ``{"config", "result"}``; csv prints a ``# config:`` line,
    then ``lines``, by default one ``key,value`` line per result entry.
    --output gets a copy of the document or, given ``files``, is a directory
    that receives each named text.  A failed write prints nothing.
    """
    if args.format == "json":
        doc = {"config": config, "result": _round_floats(result)}
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        if lines is None:
            lines = [f"{key},{_fmt(val)}" for key, val in result.items()]
        text = "\n".join(["# config: " + json.dumps(config, sort_keys=True),
                          *lines]) + "\n"
    if args.output:
        out = Path(args.output)
        if files is None:
            out.write_text(text, encoding="utf-8", newline="")
        else:
            out.mkdir(parents=True, exist_ok=True)
            for name, body in files.items():
                (out / name).write_text(body, encoding="utf-8", newline="")
    sys.stdout.write(text)


def _echo(args) -> dict:
    """The config echo of a command whose configuration is its own flags:
    every parsed argument but those that only steer where and how it runs."""
    return {key: val for key, val in vars(args).items()
            if key not in ("threads", "output", "format", "func")}


def _config(args, **fields) -> SelectionConfig:
    """The config of a scoring command: ``fields``, --metric, --threads,
    --epsilon and --ridge where the command has them, and the sampler of
    --max-pixels and --seed, the seed taken mod 2**64 as every seeded command
    takes it (the echo keeps the seed as given)."""
    if "epsilon" in args:
        fields["sinkhorn_params"] = SinkhornParams(epsilon=args.epsilon)
    if "ridge" in args:
        fields["hscore_params"] = HScoreParams(ridge=args.ridge)
    return SelectionConfig(
        metric=Metric(args.metric), threads=args.threads,
        sampler=SubsampleSpec(max_pixels=args.max_pixels,
                              seed=args.seed % 2**64), **fields)


def _load_source_bundles(sources_dir: str, loaded: dict[Path, TaskBundle]
                         | None = None) -> list[TaskBundle]:
    """The bundles under ``sources_dir`` in name order.  A directory in
    ``loaded`` (by resolved path) is taken as loaded, not read again."""
    root = Path(sources_dir)
    if not root.is_dir():
        raise IoFailureError(f"not a directory: {sources_dir}")
    loaded = loaded or {}
    bundles = []
    for sub in sorted(p for p in root.iterdir() if p.is_dir()):
        if (sub / MANIFEST_NAME).is_file():
            bundles.append(loaded.get(sub.resolve()) or load_bundle(sub))
    if not bundles:
        raise IoFailureError(f"no bundles under {sources_dir}")
    return bundles


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_roi_sim(args) -> int:
    source = load_bundle(args.source)
    target = load_bundle(args.target)
    report = roi_sim(source.labels, target.labels, PairingMode(args.mode),
                     seed=args.seed, max_pairs=args.pairs)
    _emit(args, _echo(args), {"roi_sim": report.score,
                              "n_pairs": report.n_pairs,
                              "source": source.task_id,
                              "target": target.task_id})
    return 0


def cmd_score(args) -> int:
    source = load_bundle(args.source)
    target = load_bundle(args.target)
    cfg = _config(args)
    rep, = score_sources([source], target, cfg)
    if cfg.metric is Metric.OTCE:
        result = {"otce": rep.score, "ot_cost": rep.ot_cost,
                  "sinkhorn_iterations": rep.iterations_used,
                  "sinkhorn_residual": _Sci(rep.final_marginal_error)}
    else:
        result = {"hscore": rep.score, "skipped_pixels": rep.skipped_pixels}
    _emit(args, _echo(args),
          {**result, "source": source.task_id, "target": target.task_id})
    return 0


def cmd_select(args) -> int:
    target = load_bundle(args.target)
    # a target under --sources is loaded once; select drops it by task id
    pool = _load_source_bundles(args.sources,
                                {Path(args.target).resolve(): target})
    cfg = _config(
        args, path=SelectionPath(args.path), top_k=args.top_k,
        roi_keep_classes=args.roi_keep,
        no_modality_match_policy=(NoMatchPolicy.FALLBACK_ALL if args.fallback_all
                                  else NoMatchPolicy.ERROR))
    scores = None
    if args.scores_file:
        table = read_scores_csv(args.scores_file)
        scores = {t: cols[args.metric] for t, cols in table.items()
                  if args.metric in cols}
        if not scores:
            raise InvalidSpecError(
                f"{args.scores_file} has no {args.metric!r} column values")
    report = select(pool, target, cfg, scores=scores)

    config = {"command": "select", "target": str(args.target),
              "sources": str(args.sources), "seed": args.seed,
              "scores_file": str(args.scores_file) if args.scores_file else None,
              **report.config.to_dict()}
    shown = list(enumerate(report.final_ranking.entries[:report.config.top_k], 1))
    _emit(args, config,
          {"top_k": [{"rank": r, "task_id": t, "score": s}
                     for r, (t, s) in shown],
           "subset1": list(report.subset1),
           "subset2": list(report.subset2)},
          [f"{r},{t},{_fmt(s)}" for r, (t, s) in shown],
          {"report.json": report.to_json(),
           "ranking.csv": ranking_to_csv(report.final_ranking)})
    return 0


def cmd_footrule(args) -> int:
    pred = read_ranking_csv(args.pred)
    truth = read_ranking_csv(args.truth)
    if args.top_k is None:
        report = footrule_full(pred, truth)
    else:
        report = footrule_topk(pred, truth, args.top_k)
    config = {"command": "footrule", "pred": str(args.pred),
              "truth": str(args.truth),
              "top_k": args.top_k if args.top_k is not None else "full"}
    _emit(args, config, {"footrule": report.distance, "k": report.k})
    return 0


def cmd_synth(args) -> int:
    spec_dict = {}
    if args.spec:
        try:
            spec_dict = json.loads(read_text(args.spec))
        except (ValueError, RecursionError) as exc:
            raise InvalidSpecError(f"{args.spec}: {exc}") from exc
        if not isinstance(spec_dict, dict):
            raise InvalidSpecError(f"{args.spec}: expected a JSON object")
    try:
        spec = SynthSpec(**{"seed": args.seed, **spec_dict})
    except TypeError as exc:            # a key that names no SynthSpec field
        raise InvalidSpecError(str(exc)) from exc
    bundles = generate_tasks(spec)
    out = Path(args.out)
    for b in bundles:
        write_bundle(b, out / b.task_id)
    config = {"command": "synth", "out": str(args.out), "spec": asdict(spec)}
    _emit(args, config,
          {"created": len(bundles), "tasks": [b.task_id for b in bundles]},
          [f"created,{len(bundles)}"] + [f"task,{b.task_id}" for b in bundles])
    return 0


def cmd_synth_eval(args) -> int:
    bundles = _load_source_bundles(args.dir)
    by_id = {b.task_id: b for b in bundles}
    if args.target not in by_id:
        raise UnknownTaskError(f"{args.target} not found under {args.dir}")
    target = by_id[args.target]
    fs = target.require_features("synth-eval")
    cfg = _config(args, path=SelectionPath.BASELINE)
    # the baseline path scores, and the probe judges, every other bundle
    pool = [b for b in bundles if b.task_id != target.task_id]
    scores = None
    if cfg.metric is Metric.HSCORE:
        check_hscore_memory(
            [b.features for b in pool if b.features is not None], cfg.threads)
        reports = map_sources(lambda b: hscore_segmentation(
            b.require_features("hscore"), cfg.hscore_params), pool, cfg.threads)
        scores = {b.task_id: r.score for b, r in zip(pool, reports)}
    metric_rank = select(bundles, target, cfg, scores=scores).final_ranking
    pixels = probe_pixels(fs, [b.features for b in pool], cfg.threads)
    accuracies = map_sources(
        lambda b: probe_transfer(b, target, cfg.sampler.seed, pixels).accuracy,
        pool, cfg.threads)
    probe_rank = build_ranking([(b.task_id, a)
                                for b, a in zip(pool, accuracies)])
    probe_acc = dict(probe_rank.entries)
    result = {
        "comparison": [
            {"task_id": t, "metric_score": s, "metric_rank": r,
             "probe_accuracy": probe_acc[t],
             "probe_rank": probe_rank.position[t]}
            for r, (t, s) in enumerate(metric_rank.entries, 1)],
        "footrule_full": footrule_full(metric_rank, probe_rank).distance,
        "footrule_top1": footrule_topk(metric_rank, probe_rank, 1).distance,
    }
    columns = ("task_id", "metric_score", "metric_rank", "probe_accuracy",
               "probe_rank")
    lines = [",".join(columns)]
    lines += [",".join(_fmt(c[k]) for k in columns)
              for c in result["comparison"]]
    lines += [f"{key},{result[key]}" for key in ("footrule_full", "footrule_top1")]
    _emit(args, _echo(args), result, lines)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A parser (and subparsers) whose usage errors are InvalidSpec lines."""

    def error(self, message):
        raise InvalidSpecError(message)


def build_parser() -> argparse.ArgumentParser:
    env_seed = os.environ.get("XFERSEL_SEED")
    try:
        default_seed = int(env_seed) if env_seed else DEFAULT_SEED
    except ValueError:
        raise InvalidSpecError(
            f"XFERSEL_SEED must be an integer, got {env_seed!r}") from None

    parser = _Parser(
        prog="xfersel",
        description="Source task selection for segmentation transfer learning")
    parser.add_argument("--seed", type=int, default=default_seed,
                        help="global RNG seed (env XFERSEL_SEED, default 42)")
    parser.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                        help="worker threads for multi-source scoring")
    parser.add_argument("--output", default=None,
                        help="also write the output to this path "
                             "(a directory for select)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roi-sim", help="RoI shape similarity of two bundles")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--mode", choices=[m.value for m in PairingMode],
                   default="paired")
    p.add_argument("--pairs", type=int, default=DEFAULT_MAX_PAIRS)
    p.set_defaults(func=cmd_roi_sim)

    p = sub.add_parser("score", help="transferability score of a source/target pair")
    p.add_argument("--metric", choices=[m.value for m in Metric], required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--max-pixels", type=int, default=SubsampleSpec.max_pixels)
    p.add_argument("--epsilon", type=float, default=SinkhornParams.epsilon)
    p.add_argument("--ridge", type=float, default=HScoreParams.ridge)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("select", help="rank a pool of sources for a target")
    p.add_argument("--target", required=True)
    p.add_argument("--sources", required=True,
                   help="directory of bundle directories")
    p.add_argument("--path", choices=[m.value for m in SelectionPath],
                   default="guided")
    p.add_argument("--metric", choices=[m.value for m in Metric], required=True)
    p.add_argument("--top-k", type=int, default=1)
    p.add_argument("--roi-keep", type=int, default=1)
    p.add_argument("--fallback-all", action="store_true",
                   help="fall back to the whole pool when no modality matches")
    p.add_argument("--scores-file", default=None,
                   help="CSV of externally computed scores, bypassing metrics")
    p.add_argument("--max-pixels", type=int, default=SubsampleSpec.max_pixels)
    p.add_argument("--epsilon", type=float, default=SinkhornParams.epsilon)
    p.add_argument("--ridge", type=float, default=HScoreParams.ridge)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("footrule", help="rank distance between two ranking CSVs")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--top-k", type=int, default=None)
    p.set_defaults(func=cmd_footrule)

    p = sub.add_parser("synth", help="generate synthetic task bundles")
    p.add_argument("--spec", default=None, help="SynthSpec JSON file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("synth-eval",
                       help="compare a metric ranking against the probe oracle")
    p.add_argument("--dir", required=True)
    p.add_argument("--target", required=True, help="target task id")
    p.add_argument("--metric", choices=[m.value for m in Metric], required=True)
    p.add_argument("--max-pixels", type=int, default=512)
    p.set_defaults(func=cmd_synth_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.threads < 1:
            raise InvalidSpecError(
                f"argument --threads: must be >= 1, got {args.threads}")
        return args.func(args)
    except XferselError as exc:
        sys.stderr.write(f"ERROR {exc.code}: {exc.detail}\n")
        return exc.exit_code
    except OSError as exc:
        sys.stderr.write(f"ERROR IoFailure: {exc}\n")
        return 2
