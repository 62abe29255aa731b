import argparse
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import xfersel
from xfersel import fixtures
from xfersel.bundle import write_bundle
from xfersel.cli import build_parser, main
from xfersel.ranking import build_ranking, write_ranking_csv
from xfersel.synth import SynthSpec, generate_tasks

from conftest import make_bundle, relabel

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_pool(tmp_path, target_id="ET-22-T2"):
    sources, target = fixtures.benchmark_pool(target_id)
    pool_dir = tmp_path / "pool"
    for b in sources:
        write_bundle(b, pool_dir / b.task_id)
    write_bundle(target, tmp_path / "target")
    scores_csv = tmp_path / "scores.csv"
    rows = ["task_id,dice,hscore,otce"]
    for r in fixtures.reference_table(target_id):
        rows.append(f"{r['task_id']},{r['dice']},{r['hscore']},{r['otce']}")
    scores_csv.write_text("\n".join(rows) + "\n")
    return pool_dir, tmp_path / "target", scores_csv


class TestRoiSimCmd:
    def test_identical_bundles(self, tmp_path, capsys, bundle):
        write_bundle(bundle, tmp_path / "b")
        code, out, err = run(capsys, "roi-sim",
                             "--source", str(tmp_path / "b"),
                             "--target", str(tmp_path / "b"))
        assert code == 0
        assert "roi_sim,1.000000" in out
        assert err == ""

    def test_missing_bundle(self, tmp_path, capsys):
        code, out, err = run(capsys, "roi-sim",
                             "--source", str(tmp_path / "nope"),
                             "--target", str(tmp_path / "nope"))
        assert code == 2
        assert err.startswith("ERROR MissingManifest")

    def test_mean_mode_matches_library(self, tmp_path, capsys):
        from xfersel.roisim import PairingMode, roi_sim
        a = make_bundle(seed=1)
        b = make_bundle(seed=2)
        write_bundle(a, tmp_path / "a")
        write_bundle(b, tmp_path / "b")
        code, out, _ = run(capsys, "roi-sim", "--source", str(tmp_path / "a"),
                           "--target", str(tmp_path / "b"), "--mode", "mean")
        assert code == 0
        expected = roi_sim(a.labels, b.labels, mode=PairingMode.MEAN).score
        assert f"roi_sim,{expected:.6f}" in out

    def test_seed_wraps_mod_2_64(self, tmp_path, capsys):
        # a negative --seed used to overflow the vectorised pair draw
        write_bundle(make_bundle(n=12, h=4, w=4, seed=1), tmp_path / "a")
        write_bundle(make_bundle(n=12, h=4, w=4, seed=2), tmp_path / "b")
        results = []
        for seed in ("-1", str(2**64 - 1)):
            code, out, err = run(capsys, "--seed", seed, "roi-sim",
                                 "--source", str(tmp_path / "a"),
                                 "--target", str(tmp_path / "b"),
                                 "--pairs", "5")
            assert (code, err) == (0, "")
            results.append(out.splitlines()[1:])
        assert results[0] == results[1]
        assert "n_pairs,5" in results[0]


class TestScoreCmd:
    def test_otce_single_class_target(self, tmp_path, capsys):
        src = make_bundle(seed=1)
        tgt = make_bundle(seed=2, masks=np.ones((2, 4, 4)))
        write_bundle(src, tmp_path / "s")
        write_bundle(tgt, tmp_path / "t")
        code, out, _ = run(capsys, "score", "--metric", "otce",
                           "--source", str(tmp_path / "s"),
                           "--target", str(tmp_path / "t"))
        assert code == 0
        assert "otce,0.000000" in out
        assert "sinkhorn_residual," in out

    def test_hscore_constant_labels(self, tmp_path, capsys):
        src = make_bundle(seed=1, n=2, h=3, w=3)
        tgt = make_bundle(seed=2, n=2, h=3, w=3,
                          masks=np.ones((2, 3, 3)))
        write_bundle(src, tmp_path / "s")
        write_bundle(tgt, tmp_path / "t")
        code, out, _ = run(capsys, "score", "--metric", "hscore",
                           "--source", str(tmp_path / "s"),
                           "--target", str(tmp_path / "t"))
        assert code == 0
        assert "hscore,0.000000" in out
        assert "skipped_pixels,9" in out

    @pytest.mark.parametrize("metric", ["otce", "hscore"])
    def test_positive_class_two_scores_as_binary(self, tmp_path, capsys,
                                                 metric):
        # bundles on disk with masks {0, 1, 2} and positive_class 2 print
        # what their 0/1 copies print
        pair = [make_bundle(seed=1), make_bundle(seed=2)]
        results = []
        for name, bundles in (
                ("binary", pair),
                ("labels", [relabel(b, 2, (0, 1), 2, seed=i)
                            for i, b in enumerate(pair)])):
            for role, b in zip(("s", "t"), bundles):
                write_bundle(b, tmp_path / name / role)
            code, out, err = run(capsys, "score", "--metric", metric,
                                 "--source", str(tmp_path / name / "s"),
                                 "--target", str(tmp_path / name / "t"))
            assert (code, err) == (0, "")
            results.append(out.splitlines()[1:])
        manifest = json.loads((tmp_path / "labels" / "t" / "manifest.json")
                              .read_text())
        assert manifest["positive_class"] == 2
        assert results[0] == results[1]

    def test_channel_mismatch_exit_2(self, tmp_path, capsys):
        src = make_bundle(seed=1, c=2)
        tgt = make_bundle(seed=2, c=3)
        write_bundle(src, tmp_path / "s")
        write_bundle(tgt, tmp_path / "t")
        for metric in ("otce", "hscore"):
            code, _, err = run(capsys, "score", "--metric", metric,
                               "--source", str(tmp_path / "s"),
                               "--target", str(tmp_path / "t"))
            assert code == 2
            assert err.startswith("ERROR DimensionMismatch")

    def test_json_format(self, tmp_path, capsys, bundle):
        write_bundle(bundle, tmp_path / "b")
        code, out, _ = run(capsys, "--format", "json", "score",
                           "--metric", "otce",
                           "--source", str(tmp_path / "b"),
                           "--target", str(tmp_path / "b"))
        assert code == 0
        doc = json.loads(out)
        assert "otce" in doc["result"]
        assert doc["config"]["metric"] == "otce"


class TestSelectCmd:
    def test_guided_reference_scores(self, tmp_path, capsys):
        pool_dir, target_dir, scores_csv = write_pool(tmp_path)
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "--output", str(out_dir), "select",
                           "--target", str(target_dir),
                           "--sources", str(pool_dir),
                           "--path", "guided", "--metric", "hscore",
                           "--top-k", "4",
                           "--scores-file", str(scores_csv))
        assert code == 0
        assert "1,ED-13-T2,1.403100" in out
        report = json.loads((out_dir / "report.json").read_text())
        assert sorted(report["subset2"]) == ["ED-13-T2", "ED-14-T2",
                                             "ED-17-T2", "ED-18-T2"]
        csv_text = (out_dir / "ranking.csv").read_text()
        assert csv_text.splitlines()[0] == "task_id,score,rank"
        assert csv_text.splitlines()[1].startswith("ED-13-T2,")

    def test_baseline_reference_scores(self, tmp_path, capsys):
        pool_dir, target_dir, scores_csv = write_pool(tmp_path)
        code, out, _ = run(capsys, "select",
                           "--target", str(target_dir),
                           "--sources", str(pool_dir),
                           "--path", "baseline", "--metric", "hscore",
                           "--top-k", "1",
                           "--scores-file", str(scores_csv))
        assert code == 0
        assert "1,NCR-13-T2,10.524700" in out

    @pytest.mark.parametrize("flag,value", [("--epsilon", "0"),
                                            ("--epsilon", "nan"),
                                            ("--epsilon", "inf"),
                                            ("--ridge", "-1"),
                                            ("--ridge", "nan"),
                                            ("--ridge", "inf"),
                                            ("--top-k", "0")])
    def test_invalid_parameter_exit_2(self, tmp_path, capsys, flag, value):
        pool_dir, target_dir, _ = write_pool(tmp_path)
        code, out, err = run(capsys, "select",
                             "--target", str(target_dir),
                             "--sources", str(pool_dir),
                             "--metric", "otce", flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith("ERROR InvalidSpec: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_fallback_all_keeps_whole_pool(self, tmp_path, capsys):
        t1_sources = [make_bundle(f"ED-{i}-T1", seed=i) for i in range(2)]
        target = make_bundle("ET-9-T2", seed=9)
        for b in t1_sources:
            write_bundle(b, tmp_path / "pool" / b.task_id)
        write_bundle(target, tmp_path / "target")
        scores = tmp_path / "scores.csv"
        scores.write_text("task_id,hscore\nED-0-T1,2.0\nED-1-T1,1.0\n")
        code, out, _ = run(capsys, "select",
                           "--target", str(tmp_path / "target"),
                           "--sources", str(tmp_path / "pool"),
                           "--path", "guided", "--metric", "hscore",
                           "--top-k", "2", "--fallback-all",
                           "--scores-file", str(scores))
        assert code == 0
        assert "1,ED-0-T1,2.000000" in out

    def test_no_compatible_source_exit_3(self, tmp_path, capsys):
        t1_sources = [make_bundle(f"ED-{i}-T1", seed=i) for i in range(2)]
        target = make_bundle("ET-9-T2", seed=9)
        for b in t1_sources:
            write_bundle(b, tmp_path / "pool" / b.task_id)
        write_bundle(target, tmp_path / "target")
        code, _, err = run(capsys, "select",
                           "--target", str(tmp_path / "target"),
                           "--sources", str(tmp_path / "pool"),
                           "--path", "guided", "--metric", "otce")
        assert code == 3
        assert err.startswith("ERROR NoCompatibleSource")


class TestFootruleCmd:
    def test_swap_example(self, tmp_path, capsys):
        write_ranking_csv(build_ranking([("t1", 3.0), ("t2", 2.0), ("t3", 1.0)]),
                          tmp_path / "truth.csv")
        write_ranking_csv(build_ranking([("t2", 3.0), ("t1", 2.0), ("t3", 1.0)]),
                          tmp_path / "pred.csv")
        code, out, _ = run(capsys, "footrule",
                           "--pred", str(tmp_path / "pred.csv"),
                           "--truth", str(tmp_path / "truth.csv"))
        assert code == 0
        assert "footrule,2" in out

    def test_identical_files(self, tmp_path, capsys):
        write_ranking_csv(build_ranking([("a", 1.0), ("b", 0.5)]),
                          tmp_path / "r.csv")
        code, out, _ = run(capsys, "footrule",
                           "--pred", str(tmp_path / "r.csv"),
                           "--truth", str(tmp_path / "r.csv"))
        assert code == 0
        assert "footrule,0" in out

    def test_benchmark_top1(self, tmp_path, capsys):
        truth = build_ranking(fixtures.reference_scores("ET-20-T1", "dice"))
        pred = build_ranking(fixtures.reference_scores("ET-20-T1", "hscore"))
        write_ranking_csv(truth, tmp_path / "truth.csv")
        write_ranking_csv(pred, tmp_path / "pred.csv")
        code, out, _ = run(capsys, "footrule",
                           "--pred", str(tmp_path / "pred.csv"),
                           "--truth", str(tmp_path / "truth.csv"),
                           "--top-k", "1")
        assert code == 0
        assert "footrule,14" in out

    def test_id_mismatch_exit_2(self, tmp_path, capsys):
        write_ranking_csv(build_ranking([("a", 1.0)]), tmp_path / "a.csv")
        write_ranking_csv(build_ranking([("b", 1.0)]), tmp_path / "b.csv")
        code, _, err = run(capsys, "footrule",
                           "--pred", str(tmp_path / "a.csv"),
                           "--truth", str(tmp_path / "b.csv"))
        assert code == 2
        assert err.startswith("ERROR IdSetMismatch")


SMALL_SPEC = {"n_tasks": 3, "n_samples": 4, "height": 8, "width": 8,
              "channels": 2, "signal_strengths": [0.2, 1.0, 0.8]}


class TestSynthCmds:
    def test_synth_creates_reloadable_bundles(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SMALL_SPEC))
        code, out, _ = run(capsys, "synth", "--spec", str(spec_path),
                           "--out", str(tmp_path / "tasks"))
        assert code == 0
        assert "created,3" in out
        dirs = sorted(p.name for p in (tmp_path / "tasks").iterdir())
        assert len(dirs) == 3
        from xfersel.bundle import load_bundle
        for d in dirs:
            load_bundle(tmp_path / "tasks" / d)

    def test_default_spec_when_flag_omitted(self, tmp_path, capsys):
        code, out, _ = run(capsys, "synth", "--out", str(tmp_path / "tasks"))
        assert code == 0
        assert "created,6" in out
        assert len(list((tmp_path / "tasks").iterdir())) == 6

    def test_same_seed_twice_identical_trees(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SMALL_SPEC))
        for name in ("a", "b"):
            code, _, _ = run(capsys, "--seed", "11", "synth",
                             "--spec", str(spec_path),
                             "--out", str(tmp_path / name))
            assert code == 0
        for sub in (tmp_path / "a").iterdir():
            for f in sub.iterdir():
                assert f.read_bytes() == \
                    (tmp_path / "b" / sub.name / f.name).read_bytes()

    def test_synth_eval_prints_footrule(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SMALL_SPEC))
        run(capsys, "--seed", "3", "synth", "--spec", str(spec_path),
            "--out", str(tmp_path / "tasks"))
        target_id = sorted(p.name for p in (tmp_path / "tasks").iterdir())[2]
        code, out, _ = run(capsys, "synth-eval",
                           "--dir", str(tmp_path / "tasks"),
                           "--target", target_id,
                           "--metric", "otce", "--max-pixels", "64")
        assert code == 0
        assert "footrule_full," in out
        assert "footrule_top1," in out
        assert "task_id,metric_score,metric_rank,probe_accuracy,probe_rank" in out

    def test_synth_json_lists_every_task(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SMALL_SPEC))
        code, out, _ = run(capsys, "--format", "json", "synth",
                           "--spec", str(spec_path),
                           "--out", str(tmp_path / "tasks"))
        assert code == 0
        result = json.loads(out)["result"]
        assert result["created"] == 3
        assert result["tasks"] == sorted(p.name for p in
                                         (tmp_path / "tasks").iterdir())
        code, out, _ = run(capsys, "synth", "--spec", str(spec_path),
                           "--out", str(tmp_path / "tasks"))
        assert [line for line in out.splitlines() if line.startswith("task,")] \
            == [f"task,{t}" for t in result["tasks"]]

    def test_synth_eval_hscore_scores_match_select(self, tmp_path, capsys):
        from xfersel.bundle import load_bundle
        from xfersel.hscore import HScoreParams, hscore_segmentation
        from xfersel.pipeline import (Metric, SelectionConfig, SelectionPath,
                                      select)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SMALL_SPEC))
        run(capsys, "--seed", "3", "synth", "--spec", str(spec_path),
            "--out", str(tmp_path / "tasks"))
        bundles = [load_bundle(d) for d in sorted((tmp_path / "tasks").iterdir())]
        target = bundles[0]
        code, out, _ = run(capsys, "--format", "json", "synth-eval",
                           "--dir", str(tmp_path / "tasks"),
                           "--target", target.task_id, "--metric", "hscore")
        assert code == 0
        printed = {c["task_id"]: c["metric_score"]
                   for c in json.loads(out)["result"]["comparison"]}
        # one extractor is shared, so each source's own export is scored
        own = {b.task_id: hscore_segmentation(b.features, HScoreParams()).score
               for b in bundles[1:]}
        cfg = SelectionConfig(path=SelectionPath.BASELINE,
                              metric=Metric.HSCORE)
        report = select(bundles, target, cfg, scores=own)
        assert printed == {t: round(s, 6)
                           for t, _, s in report.per_source_scores}
        assert target.task_id not in printed

    @pytest.mark.parametrize("metric", ["hscore", "otce"])
    def test_synth_eval_featureless_target(self, tmp_path, capsys, metric):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SMALL_SPEC))
        run(capsys, "synth", "--spec", str(spec_path),
            "--out", str(tmp_path / "tasks"))
        write_bundle(make_bundle("BARE-0-SIM", n=4, h=8, w=8,
                                 with_features=False),
                     tmp_path / "tasks" / "BARE-0-SIM")
        code, out, err = run(capsys, "synth-eval",
                             "--dir", str(tmp_path / "tasks"),
                             "--target", "BARE-0-SIM", "--metric", metric)
        assert code == 2
        assert out == ""
        assert err.startswith("ERROR MissingFeatures: ")
        assert err.count("\n") == 1

    def test_synth_eval_unknown_target(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SMALL_SPEC))
        run(capsys, "synth", "--spec", str(spec_path),
            "--out", str(tmp_path / "tasks"))
        code, _, err = run(capsys, "synth-eval",
                           "--dir", str(tmp_path / "tasks"),
                           "--target", "missing", "--metric", "otce")
        assert code == 2
        assert err.startswith("ERROR UnknownTask")


def _scores_row(edit):
    # select --scores-file with the first data row's bytes rewritten by edit
    def argv(tmp_path, monkeypatch):
        pool_dir, target_dir, scores_csv = write_pool(tmp_path)
        lines = scores_csv.read_bytes().splitlines()
        lines[1] = edit(lines[1])
        scores_csv.write_bytes(b"\n".join(lines) + b"\n")
        return ["select", "--target", str(target_dir),
                "--sources", str(pool_dir), "--metric", "otce",
                "--scores-file", str(scores_csv)]
    return argv


def _bad_ranking_row(row):
    def argv(tmp_path, monkeypatch):
        good = tmp_path / "good.csv"
        write_ranking_csv(build_ranking([("a", 1.0), ("b", 0.5)]), good)
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"task_id,score,rank\na,1.0,1\n" + row + b"\n")
        return ["footrule", "--pred", str(bad), "--truth", str(good)]
    return argv


def _manifest(edit):
    # roi-sim on a bundle whose manifest.json holds edit(manifest) bytes
    def argv(tmp_path, monkeypatch):
        write_bundle(make_bundle(), tmp_path / "b")
        path = tmp_path / "b" / "manifest.json"
        path.write_bytes(edit(json.loads(path.read_text())))
        return ["roi-sim", "--source", str(tmp_path / "b"),
                "--target", str(tmp_path / "b")]
    return argv


def _manifest_key(key, value):
    # "files.x" names key x of the manifest's files object
    def edit(manifest):
        doc = manifest["files"] if key.startswith("files.") else manifest
        doc[key.removeprefix("files.")] = value(doc) if callable(value) \
            else value
        return json.dumps(manifest).encode()
    return _manifest(edit)


def _manifest_without(key):
    def edit(manifest):
        del manifest[key]
        return json.dumps(manifest).encode()
    return _manifest(edit)


def _no_manifest(tmp_path, monkeypatch):
    (tmp_path / "b").mkdir()
    return ["roi-sim", "--source", str(tmp_path / "b"),
            "--target", str(tmp_path / "b")]


# nested deeper than the JSON decoder recurses
_DEEP_JSON = b"[" * 200_000 + b"]" * 200_000


def _select_sources(kind):
    # select --sources naming a file, or a directory holding no bundle
    def argv(tmp_path, monkeypatch):
        write_bundle(make_bundle("ET-9-T2"), tmp_path / "t")
        sources = tmp_path / "sources"
        if kind == "file":
            sources.write_text("")
        else:
            sources.mkdir()
        return ["select", "--metric", "otce", "--target", str(tmp_path / "t"),
                "--sources", str(sources)]
    return argv


def _roi_sim_zero_pairs(tmp_path, monkeypatch):
    write_bundle(make_bundle(), tmp_path / "b")
    return ["roi-sim", "--source", str(tmp_path / "b"),
            "--target", str(tmp_path / "b"), "--pairs", "0"]


def _env_seed_not_integer(tmp_path, monkeypatch):
    monkeypatch.setenv("XFERSEL_SEED", "abc")
    write_bundle(make_bundle(), tmp_path / "b")
    return ["roi-sim", "--source", str(tmp_path / "b"),
            "--target", str(tmp_path / "b")]


def _synth_spec(data):
    def argv(tmp_path, monkeypatch):
        (tmp_path / "spec.json").write_bytes(data)
        return ["synth", "--spec", str(tmp_path / "spec.json"),
                "--out", str(tmp_path / "tasks")]
    return argv


def _write_default_synth_pool(tmp_path):
    """The pool ``xfersel synth`` writes with the default spec, under
    ``tmp_path / "pool"``."""
    for b in generate_tasks(SynthSpec()):
        write_bundle(b, tmp_path / "pool" / b.task_id)
    return tmp_path / "pool"


def _hscore_ridge_zero(command):
    # at signal strength 1 every channel of synth-05 carries the same value,
    # so its pixel covariances are exactly singular without a ridge
    def argv(tmp_path, monkeypatch):
        pool = _write_default_synth_pool(tmp_path)
        if command == "score":
            return ["score", "--metric", "hscore", "--ridge", "0",
                    "--source", str(pool / "synth-00-s0.00"),
                    "--target", str(pool / "synth-05-s1.00")]
        return ["select", "--path", "baseline", "--metric", "hscore",
                "--ridge", "0", "--target", str(pool / "synth-05-s1.00"),
                "--sources", str(pool)]
    return argv


def _mixed_channel_pool(tmp_path, monkeypatch):
    # sources export 4 channels and the target 8, so the target's export
    # cannot come from either source's extractor
    small = dict(n_samples=4, height=8, width=8)
    sources = generate_tasks(SynthSpec(n_tasks=2, channels=4,
                                       signal_strengths=(0.2, 1.0), **small))
    target = generate_tasks(SynthSpec(n_tasks=1, channels=8,
                                      signal_strengths=(0.6,), **small))[0]
    for b in sources:
        write_bundle(b, tmp_path / "pool" / b.task_id)
    write_bundle(target, tmp_path / "target")
    return ["select", "--path", "baseline", "--metric", "hscore",
            "--target", str(tmp_path / "target"),
            "--sources", str(tmp_path / "pool")]


def _score_featureless_source(target_features):
    # with neither export, OTCE names the target, whose export it checks
    # before the sources', as select does
    def argv(tmp_path, monkeypatch):
        write_bundle(make_bundle("ED-1-T2", with_features=False),
                     tmp_path / "s")
        write_bundle(make_bundle("ET-9-T2", with_features=target_features),
                     tmp_path / "t")
        return ["score", "--metric", "otce", "--source", str(tmp_path / "s"),
                "--target", str(tmp_path / "t")]
    return argv


def _scores_file_missing(tmp_path, monkeypatch):
    pool_dir, target_dir, _ = write_pool(tmp_path)
    return ["select", "--target", str(target_dir), "--sources", str(pool_dir),
            "--metric", "otce", "--scores-file", str(tmp_path / "none.csv")]


def _score_hscore_epsilon_0(tmp_path, monkeypatch):
    # score validates every metric parameter it echoes, as select does
    write_bundle(make_bundle(), tmp_path / "b")
    return ["score", "--metric", "hscore", "--epsilon", "0",
            "--source", str(tmp_path / "b"), "--target", str(tmp_path / "b")]


def _score_otce_tiny_epsilon(epsilon):
    # -C/eps is far beyond what float64 resolves: at 1e-300 the plan's mass
    # runs away over the sweeps, at 5e-324 -C/eps overflows in the set-up
    def argv(tmp_path, monkeypatch):
        write_bundle(make_bundle("ED-1-T2", seed=1), tmp_path / "s")
        write_bundle(make_bundle("ET-9-T2", seed=9), tmp_path / "t")
        return ["score", "--metric", "otce", "--epsilon", epsilon,
                "--source", str(tmp_path / "s"),
                "--target", str(tmp_path / "t")]
    return argv


def _roi_sim_output_missing_dir(tmp_path, monkeypatch):
    write_bundle(make_bundle(), tmp_path / "b")
    return ["--output", str(tmp_path / "missing" / "dir" / "x.csv"),
            "roi-sim", "--source", str(tmp_path / "b"),
            "--target", str(tmp_path / "b")]


def _select_output_is_file(tmp_path, monkeypatch):
    pool_dir, target_dir, scores = write_pool(tmp_path)
    (tmp_path / "out").write_text("")
    return ["--output", str(tmp_path / "out"), "select",
            "--target", str(target_dir), "--sources", str(pool_dir),
            "--metric", "hscore", "--scores-file", str(scores)]


def _threads(value):
    def make_argv(tmp_path, monkeypatch):
        write_bundle(make_bundle(), tmp_path / "b")
        return ["--threads", value, "roi-sim", "--source", str(tmp_path / "b"),
                "--target", str(tmp_path / "b")]
    return make_argv


def _usage(*argv):
    def make_argv(tmp_path, monkeypatch):
        return list(argv)
    return make_argv


@pytest.mark.parametrize("make_argv, error, detail", [
    (_scores_row(lambda row: row.rsplit(b",", 1)[0] + b",n/a"),
     "InvalidSpec", ""),
    (_scores_row(lambda row: row + b",9"), "InvalidSpec", "extra cells"),
    (_scores_row(lambda row: b"\xff" + row), "InvalidSpec", "scores.csv"),
    (_scores_row(lambda row: b"x" * 2**18 + row), "InvalidSpec",
     "field larger than field limit"),
    (_scores_row(lambda row: row + b"\n" + row), "DuplicateTaskId",
     "scores.csv: ED-14-T1\n"),
    (_bad_ranking_row(b"b,0.5,two"), "InvalidSpec", ""),
    (_bad_ranking_row(b"b,half,2"), "InvalidSpec", ""),
    (_bad_ranking_row(b"b,nan,2"), "NonFiniteScore", "bad.csv"),
    (_bad_ranking_row(b"b,-inf,2"), "NonFiniteScore", "bad.csv"),
    (_bad_ranking_row(b"b\xff,0.5,2"), "InvalidSpec", "bad.csv"),
    (_bad_ranking_row(b"b" * 2**18 + b",0.5,2"), "InvalidSpec",
     "field larger than field limit"),
    (_bad_ranking_row(b"b,0.5"), "InvalidSpec",
     "bad.csv: expected task_id,score,rank in every row"),
    (_bad_ranking_row(b"a,0.5,2"), "DuplicateTaskId", "bad.csv: a\n"),
    (_env_seed_not_integer, "InvalidSpec", ""),
    (_roi_sim_zero_pairs, "InvalidSpec", ""),
    (_synth_spec(b"[1, 2]"), "InvalidSpec", ""),
    (_synth_spec(b'{"signal_strengths": 5}'), "InvalidSpec",
     "signal_strengths"),
    (_synth_spec(b'{"n_tasks": "x"}'), "InvalidSpec", "n_tasks"),
    (_synth_spec(b'{"n_tasks": 1, "signal_strengths": [0.5], "colour": 1}'),
     "InvalidSpec", "unexpected keyword argument 'colour'"),
    (_synth_spec(b'{"n_tasks": 1\xff}'), "InvalidSpec", "spec.json"),
    (_synth_spec(b'{"n_tasks": 1, "n_samples": 1, "height": 100000000, '
                 b'"width": 100000000, "channels": 1, '
                 b'"signal_strengths": [0.5]}'),
     "InvalidSpec", "of available memory"),
    (_synth_spec(b'{"n_tasks": 0, "signal_strengths": []}'), "InvalidSpec",
     "n_tasks and n_samples must be >= 1"),
    (_synth_spec(_DEEP_JSON), "InvalidSpec", "spec.json: "),
    (_manifest_key("modality", 5), "MissingManifest", "modality"),
    (_manifest_key("modality", None), "MissingManifest", "modality"),
    (_manifest_key("files", "x"), "MissingManifest", "files"),
    (_manifest_key("files", None), "MissingManifest", "files"),
    (_manifest_key("files.labels", 5), "MissingManifest", "files.labels"),
    (_manifest_key("files.features", ["features.bin"]), "MissingManifest",
     "files.features"),
    (_manifest_key("positive_class", "x"), "MissingManifest",
     "positive_class"),
    (_manifest_key("positive_class", None), "MissingManifest",
     "positive_class"),
    (_manifest_key("positive_class", 1.5), "MissingManifest",
     "positive_class"),
    (_manifest_key("positive_class", 300), "InvalidSpec",
     "positive_class must be a uint8 label in 0..255, got 300"),
    (_manifest_key("positive_class", -1), "InvalidSpec",
     "positive_class must be a uint8 label in 0..255, got -1"),
    (_manifest_key("files.labels", "missing.bin"), "MissingManifest",
     "referenced labels file missing: "),
    *((_manifest_key(f"files.{key}", name), "MissingManifest",
       f"manifest key files.{key} must be a file name in the bundle "
       f"directory, got {name!r}\n")
      for key in ("labels", "features")
      for name in (f"../x/{key}.bin", f"/x/{key}.bin", f"sub/{key}.bin",
                   ".", "..", "")),
    (_manifest_key("n_samples", lambda m: m["n_samples"] + 1),
     "ShapeMismatch", "labels (3, 8, 8) disagree with manifest (4, 8, 8)"),
    (_manifest_key("channels", lambda m: m["channels"] + 1), "ShapeMismatch",
     "features carry 4 channels, manifest says 5"),
    (_manifest_key("task_id", ["a"]), "MissingManifest", "task_id"),
    (_manifest_key("task_id", "a\nb"), "InvalidSpec", "printable"),
    (_manifest_key("roi_class", {"a": 1}), "MissingManifest", "roi_class"),
    (_manifest_key("height", lambda m: float(m["height"])),
     "MissingManifest", "height"),
    (_manifest_key("channels", lambda m: str(m["channels"])),
     "MissingManifest", "channels"),
    (_manifest(lambda m: b"null"), "MissingManifest", "not a JSON object"),
    (_manifest(lambda m: b"\xff" + json.dumps(m).encode()),
     "MissingManifest", "unreadable manifest"),
    (_no_manifest, "MissingManifest", "manifest.json"),
    (_manifest(lambda m: _DEEP_JSON), "MissingManifest",
     "unreadable manifest in "),
    (_manifest(lambda m: json.dumps({**m, "height": 8.0, "modality": 5})
               .encode()), "MissingManifest", "manifest key modality "),
    (_manifest_without("task_id"), "MissingManifest",
     "manifest misses key 'task_id'"),
    (_manifest_without("roi_class"), "MissingManifest",
     "manifest misses key 'roi_class'"),
    (_manifest_without("modality"), "MissingManifest",
     "manifest misses key 'modality'"),
    (_manifest_without("n_samples"), "MissingManifest",
     "manifest misses key 'n_samples'"),
    (_manifest_without("height"), "MissingManifest",
     "manifest misses key 'height'"),
    (_manifest_without("width"), "MissingManifest",
     "manifest misses key 'width'"),
    (_manifest_without("files"), "MissingManifest",
     "manifest misses key 'files'"),
    (_hscore_ridge_zero("score"), "DegenerateInput", "singular at ridge 0"),
    (_hscore_ridge_zero("select"), "DegenerateInput", "singular at ridge 0"),
    (_usage("score", "--metric", "otce", "--source", "s", "--target", "t",
            "--max-pixels", "abc"), "InvalidSpec", "--max-pixels"),
    (_usage("score", "--source", "s", "--target", "t"), "InvalidSpec",
     "--metric"),
    (_usage("frobnicate"), "InvalidSpec", "frobnicate"),
    (_scores_file_missing, "IoFailure", "none.csv"),
    (_select_sources("file"), "IoFailure", "not a directory: "),
    (_select_sources("empty"), "IoFailure", "no bundles under "),
    (_mixed_channel_pool, "DimensionMismatch", "channel counts differ"),
    (_score_featureless_source(True), "MissingFeatures",
     "otce needs features on ED-1-T2"),
    (_score_featureless_source(False), "MissingFeatures",
     "otce needs features on ET-9-T2"),
    (_score_hscore_epsilon_0, "InvalidSpec", "epsilon must be > 0"),
    (_score_otce_tiny_epsilon("1e-300"), "DegenerateInput",
     "plan lost its unit mass at epsilon 1e-300"),
    (_score_otce_tiny_epsilon("5e-324"), "DegenerateInput",
     "potentials are not finite at epsilon 4.94066e-324"),
    (_roi_sim_output_missing_dir, "IoFailure", "x.csv"),
    (_select_output_is_file, "IoFailure", "File exists"),
    (_threads("0"), "InvalidSpec", "--threads"),
    (_threads("-3"), "InvalidSpec", "--threads"),
], ids=["scores-cell", "scores-extra-cell", "scores-not-utf8",
        "scores-field-too-long", "scores-duplicate-id",
        "ranking-rank", "ranking-score", "ranking-score-nan",
        "ranking-score-inf", "ranking-not-utf8", "ranking-field-too-long",
        "ranking-missing-cell", "ranking-duplicate-id",
        "env-seed", "roi-sim-pairs-0", "synth-spec-not-object",
        "synth-spec-strengths-not-list", "synth-spec-field-type",
        "synth-spec-unknown-key",
        "synth-spec-not-utf8", "synth-spec-huge-dims", "synth-spec-no-tasks",
        "synth-spec-deeply-nested",
        "manifest-modality-int",
        "manifest-modality-null", "manifest-files-str",
        "manifest-files-null", "manifest-files-labels-int",
        "manifest-files-features-list", "manifest-positive-class-str",
        "manifest-positive-class-null", "manifest-positive-class-float",
        "manifest-positive-class-300", "manifest-positive-class-negative",
        "manifest-labels-file-missing",
        *(f"manifest-files-{key}-{case}" for key in ("labels", "features")
          for case in ("parent", "absolute", "subdirectory", "dot",
                       "dot-dot", "empty")),
        "manifest-n-samples-disagree",
        "manifest-channels-disagree", "manifest-task-id-list",
        "manifest-task-id-newline",
        "manifest-roi-class-object", "manifest-height-float",
        "manifest-channels-str", "manifest-null", "manifest-not-utf8",
        "manifest-file-missing", "manifest-deeply-nested",
        "manifest-two-bad-keys",
        *(f"manifest-without-{key}" for key in (
            "task-id", "roi-class", "modality", "n-samples", "height",
            "width", "files")),
        "score-hscore-ridge-0", "select-hscore-ridge-0",
        "usage-max-pixels-not-int", "usage-metric-missing",
        "usage-unknown-command", "scores-file-missing",
        "select-sources-file", "select-sources-empty",
        "select-hscore-mixed-channels", "score-otce-featureless-source",
        "score-otce-featureless-pair",
        "score-hscore-epsilon-0", "score-otce-epsilon-1e-300",
        "score-otce-epsilon-5e-324", "roi-sim-output-missing-dir",
        "select-output-is-file", "threads-0", "threads-negative"])
def test_invalid_input_exit_2(tmp_path, capsys, monkeypatch, make_argv,
                              error, detail):
    code, out, err = run(capsys, *make_argv(tmp_path, monkeypatch))
    assert code == 2
    assert out == ""
    assert err.startswith(f"ERROR {error}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert detail in err


def _truncate(f):
    os.truncate(f, f.stat().st_size - 4)


def _append(f):
    with open(f, "ab") as fh:
        fh.write(b"\0" * 4)


def _replace_same_size(f):
    # written to a new file and renamed over the old one, as most tools do
    tmp = f.with_suffix(".tmp")
    tmp.write_bytes(f.read_bytes()[::-1])
    os.replace(tmp, f)


def _rewrite_same_size_later(f):
    # rewritten in place, as a write a second after the load would be
    stat = f.stat()
    raw = bytearray(f.read_bytes())
    raw[-4:] = np.float32(7.0).tobytes()
    f.write_bytes(bytes(raw))
    os.utime(f, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))


def _nan_same_identity(f):
    # NaN over the whole payload, written within the timestamp resolution
    # of the file system, so the file's size and times are unchanged
    stat = f.stat()
    head = 4 + 2 + 1 + 8 * 4
    with open(f, "r+b") as fh:
        fh.seek(head)
        fh.write(np.full((stat.st_size - head) // 4, np.nan,
                         np.float32).tobytes())
    os.utime(f, ns=(stat.st_atime_ns, stat.st_mtime_ns))


@pytest.mark.parametrize("metric", ["otce", "hscore"])
@pytest.mark.parametrize("change, error, detail", [
    (_truncate, "CorruptBinary", "changed since the bundle was loaded"),
    (_append, "CorruptBinary", "changed since the bundle was loaded"),
    (_replace_same_size, "CorruptBinary",
     "changed since the bundle was loaded"),
    (_rewrite_same_size_later, "CorruptBinary",
     "changed since the bundle was loaded"),
    (_nan_same_identity, "NonFiniteFeature", "features contain NaN/Inf"),
    (Path.unlink, "IoFailure", "features.bin"),
], ids=["truncate", "append", "replace-same-size", "rewrite-same-size",
        "nan-same-identity", "delete"])
def test_features_changed_after_load(tmp_path, capsys, monkeypatch, metric,
                                     change, error, detail):
    # OTCE reads sampled rows of each features.bin, the H-score the whole
    # target payload; both read after every bundle was loaded and checked
    pool = _write_default_synth_pool(tmp_path)
    select = xfersel.cli.select

    def change_then_select(*args, **kwargs):
        for f in sorted(pool.glob("*/features.bin")):
            change(f)
        return select(*args, **kwargs)

    monkeypatch.setattr(xfersel.cli, "select", change_then_select)
    code, out, err = run(capsys, "--threads", "1", "select", "--path",
                         "baseline", "--metric", metric, "--max-pixels", "64",
                         "--target", str(pool / "synth-05-s1.00"),
                         "--sources", str(pool))
    assert (code, out) == (2, "")
    assert err.startswith(f"ERROR {error}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert detail in err


def test_select_otce_reads_only_sampled_rows(tmp_path, capsys):
    # four 8 MiB feature payloads of which OTCE uses 128 rows (64 KiB) each;
    # loading them into memory peaked at about 42 MiB
    spec = SynthSpec(n_tasks=4, n_samples=16, height=32, width=32,
                     channels=128, signal_strengths=(0.0, 0.35, 0.6, 0.9))
    for b in generate_tasks(spec):
        write_bundle(b, tmp_path / "pool" / b.task_id)
    payload = 16 * 32 * 32 * 128 * 4
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "--threads", "1", "select", "--path",
                             "baseline", "--metric", "otce",
                             "--max-pixels", "128", "--top-k", "3",
                             "--target", str(tmp_path / "pool" /
                                             "synth-03-s0.90"),
                             "--sources", str(tmp_path / "pool"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 4
    assert peak < payload


def test_select_loads_each_bundle_once(tmp_path, capsys, monkeypatch):
    # the target lies under --sources, as in every synth pool; select drops
    # it by task id, so a second load of it would be read and checked for
    # nothing
    pool = _write_default_synth_pool(tmp_path)
    loads = []
    load = xfersel.cli.load_bundle
    monkeypatch.setattr(xfersel.cli, "load_bundle",
                        lambda path: loads.append(path) or load(path))
    code, out, err = run(capsys, "--threads", "1", "select", "--path",
                         "baseline", "--metric", "otce", "--max-pixels", "64",
                         "--target", str(pool / "synth-05-s1.00"),
                         "--sources", str(pool))
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 2
    assert len(loads) == len(list(pool.iterdir())) == 6


# printed at the parent of the one target H-score per pool
GOLDEN_SELECT_HSCORE = """\
# config: {"command": "select", "hscore_params": {"ridge": 1e-08}, \
"metric": "hscore", \
"no_modality_match_policy": "error", "path": "baseline", "roi_keep_classes": 1, \
"sampler": {"max_pixels": 4096, "seed": 42}, "scores_file": null, \
"seed": 42, "sinkhorn_params": {"epsilon": 0.1, "marginal_tol": 1e-09, \
"max_iters": 1000}, "sources": "pool", "target": "pool/synth-05-s1.00", \
"top_k": 5}
1,synth-00-s0.00,0.998047
2,synth-01-s0.20,0.998047
3,synth-02-s0.40,0.998047
4,synth-03-s0.60,0.998047
5,synth-04-s0.80,0.998047
"""


@pytest.mark.parametrize("threads", ["1", "4"])
def test_select_hscore_scores_the_target_once(tmp_path, capsys, monkeypatch,
                                              threads):
    # every source gets the score of the one target export, which is read
    # whole once
    monkeypatch.delenv("XFERSEL_SEED", raising=False)
    _write_default_synth_pool(tmp_path)
    monkeypatch.chdir(tmp_path)
    scored, reads = [], []
    hscore = xfersel.pipeline.hscore_segmentation
    read = xfersel.bundle._Payload.read

    def counted_read(payload, rows=None):
        if rows is None and payload.file.name == "features.bin":
            reads.append(payload.file.parent.name)
        return read(payload, rows)

    monkeypatch.setattr(xfersel.pipeline, "hscore_segmentation",
                        lambda fs, *args: scored.append(fs.task_id)
                        or hscore(fs, *args))
    monkeypatch.setattr(xfersel.bundle._Payload, "read", counted_read)
    code, out, err = run(capsys, "--threads", threads, "--format", "csv",
                         "select", "--path", "baseline", "--metric", "hscore",
                         "--top-k", "5", "--target", "pool/synth-05-s1.00",
                         "--sources", "pool")
    assert (code, err) == (0, "")
    assert out == GOLDEN_SELECT_HSCORE
    assert scored == reads == ["synth-05-s1.00"]


# printed by the solver before its N x N steps ran in row blocks
GOLDEN_SELECT_OTCE = """\
# config: {"command": "select", "hscore_params": {"ridge": 1e-08}, \
"metric": "otce", \
"no_modality_match_policy": "error", "path": "baseline", "roi_keep_classes": 1, \
"sampler": {"max_pixels": 256, "seed": 42}, "scores_file": null, \
"seed": 42, "sinkhorn_params": {"epsilon": 0.1, "marginal_tol": 1e-09, \
"max_iters": 1000}, "sources": "pool", "target": "pool/synth-05-s1.00", \
"top_k": 5}
1,synth-04-s0.80,-0.421732
2,synth-03-s0.60,-0.564943
3,synth-02-s0.40,-0.578867
4,synth-01-s0.20,-0.594248
5,synth-00-s0.00,-0.597749
"""


def test_select_otce_golden_output(tmp_path, capsys, monkeypatch):
    # a guard for solver refactors: the printed OTCE ranking of the default
    # synth pool must not move at 6 dp
    monkeypatch.delenv("XFERSEL_SEED", raising=False)
    _write_default_synth_pool(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "--format", "csv", "select", "--path",
                         "baseline", "--metric", "otce", "--max-pixels",
                         "256", "--top-k", "5", "--target",
                         "pool/synth-05-s1.00", "--sources", "pool")
    assert (code, err) == (0, "")
    assert out == GOLDEN_SELECT_OTCE


# printed at the parent of the one metric dispatch for score and select;
# the residual line since it is printed in scientific notation
GOLDEN_SCORE = {
    "otce": """\
# config: {"command": "score", "epsilon": 0.1, "max_pixels": 256, \
"metric": "otce", "ridge": 1e-08, "seed": 42, \
"source": "pool/synth-00-s0.00", "target": "pool/synth-05-s1.00"}
otce,-0.597749
ot_cost,3.695631
sinkhorn_iterations,103
sinkhorn_residual,9.476e-10
source,synth-00-s0.00
target,synth-05-s1.00
""",
    "hscore": """\
# config: {"command": "score", "epsilon": 0.1, "max_pixels": 4096, \
"metric": "hscore", "ridge": 1e-08, "seed": 42, \
"source": "pool/synth-00-s0.00", "target": "pool/synth-05-s1.00"}
hscore,0.998047
skipped_pixels,2
source,synth-00-s0.00
target,synth-05-s1.00
""",
}


@pytest.mark.parametrize("argv", [
    ["--metric", "otce", "--max-pixels", "256"], ["--metric", "hscore"]],
    ids=["otce", "hscore"])
def test_score_golden_output(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.delenv("XFERSEL_SEED", raising=False)
    _write_default_synth_pool(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "--format", "csv", "score", *argv,
                         "--source", "pool/synth-00-s0.00",
                         "--target", "pool/synth-05-s1.00")
    assert (code, err) == (0, "")
    assert out == GOLDEN_SCORE[argv[1]]


# printed at the parent of the blocked Sinkhorn stop and absorption tests:
# this pair spends the whole 1000-sweep budget and absorbs 9 times
GOLDEN_SCORE_BUDGET = """\
# config: {"command": "score", "epsilon": 0.005, "max_pixels": 128, \
"metric": "otce", "ridge": 1e-08, "seed": 42, \
"source": "pool/synth-00-s0.00", "target": "pool/synth-01-s0.20"}
otce,-0.668868
ot_cost,0.869898
sinkhorn_iterations,1000
sinkhorn_residual,2.494e-04
source,synth-00-s0.00
target,synth-01-s0.20
"""


def test_score_budget_bound_absorbing_golden_output(tmp_path, capsys,
                                                    monkeypatch):
    monkeypatch.delenv("XFERSEL_SEED", raising=False)
    _write_default_synth_pool(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "score", "--metric", "otce",
                         "--source", "pool/synth-00-s0.00",
                         "--target", "pool/synth-01-s0.20",
                         "--max-pixels", "128", "--epsilon", "0.005")
    assert (code, err) == (0, "")
    assert out == GOLDEN_SCORE_BUDGET


def test_score_json_residual_keeps_its_digits(tmp_path, capsys, monkeypatch):
    # 6 dp would print the residual of a converged and an unconverged plan
    # alike, as 0.0
    monkeypatch.delenv("XFERSEL_SEED", raising=False)
    _write_default_synth_pool(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "--format", "json", "score", "--metric",
                         "otce", "--max-pixels", "256",
                         "--source", "pool/synth-00-s0.00",
                         "--target", "pool/synth-05-s1.00")
    assert (code, err) == (0, "")
    assert '"sinkhorn_residual": 9.476e-10,' in out


SCORE_ARGV = {"otce": ["--metric", "otce", "--max-pixels", "256"],
              "hscore": ["--metric", "hscore"]}


@pytest.mark.parametrize("metric", list(SCORE_ARGV))
def test_score_is_a_one_source_select(tmp_path, capsys, monkeypatch, metric):
    monkeypatch.delenv("XFERSEL_SEED", raising=False)
    pool = _write_default_synth_pool(tmp_path)
    (tmp_path / "one").mkdir()
    (pool / "synth-00-s0.00").rename(tmp_path / "one" / "synth-00-s0.00")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "score", *SCORE_ARGV[metric],
                         "--source", "one/synth-00-s0.00",
                         "--target", "pool/synth-05-s1.00")
    assert (code, err) == (0, "")
    score = dict(line.split(",") for line in out.splitlines()[1:])[metric]
    code, out, err = run(capsys, "select", "--path", "baseline",
                         *SCORE_ARGV[metric], "--target",
                         "pool/synth-05-s1.00", "--sources", "one")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == [f"1,synth-00-s0.00,{score}"]


@pytest.mark.parametrize("metric", list(SCORE_ARGV))
def test_score_threads_do_not_change_output(tmp_path, capsys, monkeypatch,
                                            metric):
    monkeypatch.delenv("XFERSEL_SEED", raising=False)
    _write_default_synth_pool(tmp_path)
    monkeypatch.chdir(tmp_path)
    outs = [run(capsys, "--threads", threads, "score", *SCORE_ARGV[metric],
                "--source", "pool/synth-00-s0.00",
                "--target", "pool/synth-05-s1.00")
            for threads in ("1", "2")]
    assert outs[0] == outs[1] and outs[0][0] == 0


def test_select_seed_wraps_mod_2_64(tmp_path, capsys, monkeypatch):
    # select, score and synth-eval take --seed mod 2**64, as roi-sim and
    # synth do
    monkeypatch.delenv("XFERSEL_SEED", raising=False)
    _write_default_synth_pool(tmp_path)
    monkeypatch.chdir(tmp_path)
    rankings = []
    for seed in ("-1", str(2**64 - 1)):
        code, out, err = run(capsys, "--seed", seed, "select", "--path",
                             "baseline", "--metric", "otce", "--max-pixels",
                             "64", "--top-k", "5", "--target",
                             "pool/synth-05-s1.00", "--sources", "pool")
        assert (code, err) == (0, "")
        config, *ranking = out.splitlines()
        assert f'"seed": {seed},' in config
        rankings.append(ranking)
    assert rankings[0] == rankings[1] and len(rankings[0]) == 5


GOLDEN_SYNTH_JSON = """\
{
  "config": {
    "command": "synth",
    "out": "tasks",
    "spec": {
      "channels": 4,
      "height": 32,
      "n_samples": 16,
      "n_tasks": 6,
      "seed": 42,
      "signal_strengths": [
        0.0,
        0.2,
        0.4,
        0.6,
        0.8,
        1.0
      ],
      "width": 32
    }
  },
  "result": {
    "created": 6,
    "tasks": [
      "synth-00-s0.00",
      "synth-01-s0.20",
      "synth-02-s0.40",
      "synth-03-s0.60",
      "synth-04-s0.80",
      "synth-05-s1.00"
    ]
  }
}
"""


def test_synth_json_golden_output(tmp_path, capsys, monkeypatch):
    # the spec echo is every SynthSpec field, as printed before it was
    # derived from the dataclass
    monkeypatch.delenv("XFERSEL_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "--format", "json", "synth", "--out", "tasks")
    assert (code, err) == (0, "")
    assert out == GOLDEN_SYNTH_JSON


# the byte-identity matrix on the default synth pool, printed before the
# score tables and rankings shared one CSV reader
GOLDEN_MATRIX = {
    "roi-sim": """\
# config: {"command": "roi-sim", "mode": "paired", "pairs": 256, "seed": 42, \
"source": "pool/synth-00-s0.00", "target": "pool/synth-05-s1.00"}
roi_sim,-0.028465
n_pairs,16
source,synth-00-s0.00
target,synth-05-s1.00
""",
    "roi-sim-mean-json": """\
{
  "config": {
    "command": "roi-sim",
    "mode": "mean",
    "pairs": 256,
    "seed": 42,
    "source": "pool/synth-00-s0.00",
    "target": "pool/synth-05-s1.00"
  },
  "result": {
    "n_pairs": 1,
    "roi_sim": -0.090091,
    "source": "synth-00-s0.00",
    "target": "synth-05-s1.00"
  }
}
""",
    "select-guided-hscore-json": """\
{
  "config": {
    "command": "select",
    "hscore_params": {
      "ridge": 1e-08
    },
    "metric": "hscore",
    "no_modality_match_policy": "error",
    "path": "guided",
    "roi_keep_classes": 1,
    "sampler": {
      "max_pixels": 4096,
      "seed": 42
    },
    "scores_file": null,
    "seed": 42,
    "sinkhorn_params": {
      "epsilon": 0.1,
      "marginal_tol": 1e-09,
      "max_iters": 1000
    },
    "sources": "pool",
    "target": "pool/synth-05-s1.00",
    "top_k": 1
  },
  "result": {
    "subset1": [
      "synth-00-s0.00",
      "synth-01-s0.20",
      "synth-02-s0.40",
      "synth-03-s0.60",
      "synth-04-s0.80"
    ],
    "subset2": [
      "synth-00-s0.00",
      "synth-01-s0.20",
      "synth-02-s0.40",
      "synth-03-s0.60",
      "synth-04-s0.80"
    ],
    "top_k": [
      {
        "rank": 1,
        "score": 0.998047,
        "task_id": "synth-00-s0.00"
      }
    ]
  }
}
""",
    "synth-eval-hscore": """\
# config: {"command": "synth-eval", "dir": "pool", "max_pixels": 512, \
"metric": "hscore", "seed": 42, "target": "synth-05-s1.00"}
task_id,metric_score,metric_rank,probe_accuracy,probe_rank
synth-04-s0.80,0.666113,1,1.000000,2
synth-03-s0.60,0.386574,2,1.000000,1
synth-02-s0.40,0.291472,3,0.649414,5
synth-01-s0.20,0.275377,4,0.649414,4
synth-00-s0.00,0.266798,5,0.649414,3
footrule_full,6
footrule_top1,1
""",
    "footrule": """\
# config: {"command": "footrule", "pred": "pred.csv", "top_k": "full", \
"truth": "truth.csv"}
footrule,100
k,full
""",
    "footrule-top2-json": """\
{
  "config": {
    "command": "footrule",
    "pred": "pred.csv",
    "top_k": 2,
    "truth": "truth.csv"
  },
  "result": {
    "footrule": 10,
    "k": 2
  }
}
""",
}

_POOL_ARGS = ("--source", "pool/synth-00-s0.00", "--target",
              "pool/synth-05-s1.00")
_SELECT_ARGS = ("--target", "pool/synth-05-s1.00", "--sources", "pool")


@pytest.mark.parametrize("name, argv", [
    ("roi-sim", ["roi-sim", *_POOL_ARGS]),
    ("roi-sim-mean-json",
     ["--format", "json", "roi-sim", "--mode", "mean", *_POOL_ARGS]),
    ("select-guided-hscore-json",
     ["--format", "json", "select", "--path", "guided", "--metric", "hscore",
      *_SELECT_ARGS]),
    ("synth-eval-hscore",
     ["synth-eval", "--dir", "pool", "--target", "synth-05-s1.00",
      "--metric", "hscore"]),
    ("footrule", ["footrule", "--pred", "pred.csv", "--truth", "truth.csv"]),
    ("footrule-top2-json",
     ["--format", "json", "footrule", "--pred", "pred.csv", "--truth",
      "truth.csv", "--top-k", "2"]),
], ids=list(GOLDEN_MATRIX))
def test_matrix_golden_output(tmp_path, capsys, monkeypatch, name, argv):
    monkeypatch.delenv("XFERSEL_SEED", raising=False)
    _write_default_synth_pool(tmp_path)
    monkeypatch.chdir(tmp_path)
    # the fixture rankings: FeTS ET-22-T2's H-score against transfer Dice
    for path, column in (("pred.csv", "hscore"), ("truth.csv", "dice")):
        write_ranking_csv(build_ranking(
            fixtures.reference_scores("ET-22-T2", column)), path)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == GOLDEN_MATRIX[name]


GOLDEN_SELECT_REPORT = """\
{
  "config": {
    "hscore_params": {
      "ridge": 1e-08
    },
    "metric": "otce",
    "no_modality_match_policy": "error",
    "path": "baseline",
    "roi_keep_classes": 1,
    "sampler": {
      "max_pixels": 256,
      "seed": 42
    },
    "sinkhorn_params": {
      "epsilon": 0.1,
      "marginal_tol": 1e-09,
      "max_iters": 1000
    },
    "top_k": 5
  },
  "modality_fallback": false,
  "per_source_scores": [
    {
      "metric": "otce",
      "score": -0.5977489493821856,
      "task_id": "synth-00-s0.00"
    },
    {
      "metric": "otce",
      "score": -0.5942475892683453,
      "task_id": "synth-01-s0.20"
    },
    {
      "metric": "otce",
      "score": -0.5788670649964567,
      "task_id": "synth-02-s0.40"
    },
    {
      "metric": "otce",
      "score": -0.564942902053507,
      "task_id": "synth-03-s0.60"
    },
    {
      "metric": "otce",
      "score": -0.42173170994517534,
      "task_id": "synth-04-s0.80"
    }
  ],
  "ranking": [
    {
      "rank": 1,
      "score": -0.42173170994517534,
      "task_id": "synth-04-s0.80"
    },
    {
      "rank": 2,
      "score": -0.564942902053507,
      "task_id": "synth-03-s0.60"
    },
    {
      "rank": 3,
      "score": -0.5788670649964567,
      "task_id": "synth-02-s0.40"
    },
    {
      "rank": 4,
      "score": -0.5942475892683453,
      "task_id": "synth-01-s0.20"
    },
    {
      "rank": 5,
      "score": -0.5977489493821856,
      "task_id": "synth-00-s0.00"
    }
  ],
  "roi_sim_by_class": {},
  "subset1": [
    "synth-00-s0.00",
    "synth-01-s0.20",
    "synth-02-s0.40",
    "synth-03-s0.60",
    "synth-04-s0.80"
  ],
  "subset2": [
    "synth-00-s0.00",
    "synth-01-s0.20",
    "synth-02-s0.40",
    "synth-03-s0.60",
    "synth-04-s0.80"
  ],
  "target_id": "synth-05-s1.00"
}
"""

GOLDEN_SELECT_RANKING = """\
task_id,score,rank
synth-04-s0.80,-0.421732,1
synth-03-s0.60,-0.564943,2
synth-02-s0.40,-0.578867,3
synth-01-s0.20,-0.594248,4
synth-00-s0.00,-0.597749,5
"""


def _to_9dp(obj):
    if isinstance(obj, float):
        return round(obj, 9)
    if isinstance(obj, dict):
        return {k: _to_9dp(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_to_9dp(v) for v in obj]
    return obj


def test_select_output_files_golden(tmp_path, capsys, monkeypatch):
    # report.json carries full-precision scores, compared at 9 dp so that
    # another BLAS build's last bits do not fail it; its layout is pinned
    # by re-dumping it
    monkeypatch.delenv("XFERSEL_SEED", raising=False)
    _write_default_synth_pool(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "--threads", "2", "--output", "sel",
                         "select", "--path", "baseline", "--metric", "otce",
                         "--max-pixels", "256", "--top-k", "5", *_SELECT_ARGS)
    assert (code, err) == (0, "")
    report = (tmp_path / "sel" / "report.json").read_text()
    loaded = json.loads(report)
    assert report == json.dumps(loaded, indent=2, sort_keys=True) + "\n"
    assert _to_9dp(loaded) == _to_9dp(json.loads(GOLDEN_SELECT_REPORT))
    assert (tmp_path / "sel" / "ranking.csv").read_text() \
        == GOLDEN_SELECT_RANKING


class TestGlobalFlags:
    def test_env_seed_respected(self, tmp_path, capsys, monkeypatch, bundle):
        write_bundle(bundle, tmp_path / "b")
        monkeypatch.setenv("XFERSEL_SEED", "123")
        code, out, _ = run(capsys, "roi-sim", "--source", str(tmp_path / "b"),
                           "--target", str(tmp_path / "b"))
        assert code == 0
        assert '"seed": 123' in out

    def test_cli_seed_overrides_env(self, tmp_path, capsys, monkeypatch, bundle):
        write_bundle(bundle, tmp_path / "b")
        monkeypatch.setenv("XFERSEL_SEED", "123")
        code, out, _ = run(capsys, "--seed", "9", "roi-sim",
                           "--source", str(tmp_path / "b"),
                           "--target", str(tmp_path / "b"))
        assert code == 0
        assert '"seed": 9' in out

    def test_output_file_matches_stdout(self, tmp_path, capsys, bundle):
        write_bundle(bundle, tmp_path / "b")
        out_file = tmp_path / "result.txt"
        code, out, _ = run(capsys, "--output", str(out_file), "roi-sim",
                           "--source", str(tmp_path / "b"),
                           "--target", str(tmp_path / "b"))
        assert code == 0
        assert out_file.read_text() == out

    def test_python_dash_m_runs_cli(self):
        src_dir = str(Path(xfersel.__file__).resolve().parents[1])
        result = subprocess.run([sys.executable, "-m", "xfersel", "--help"],
                                capture_output=True, text=True,
                                env={"PYTHONPATH": src_dir})
        assert result.returncode == 0
        assert "roi-sim" in result.stdout

    def test_entry_point_installed(self, tmp_path):
        import subprocess
        result = subprocess.run(["xfersel", "--help"], capture_output=True,
                                text=True)
        assert result.returncode == 0
        assert "roi-sim" in result.stdout


def _readme_usages() -> dict[str, str]:
    """subcommand -> its usage, from the rows of README's command table."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n#", 1)[0]
    usages = [row.replace("\\|", "|") for row in
              re.findall(r"^\| `([^`]+)` \|", section, flags=re.M)]
    return {usage.split()[0]: usage for usage in usages}


def _shown_options(usage: str) -> dict[str, tuple[bool, str | None]]:
    """option -> (in brackets, value text or None) as a usage shows it."""
    return {name: (bool(bracket), value or None) for bracket, name, value in
            re.findall(r"(\[?)(--[\w-]+)(?: ([^\s\[\]-][^\s\[\]]*))?",
                       usage)}


def _shows_default(value: str | None, default) -> bool:
    """Whether one of the ``|`` alternatives of ``value`` is ``default``;
    numbers compare as numbers, so ``1e-8`` shows ``1e-08``."""
    def same(alt):
        if isinstance(default, str):
            return alt == default
        try:
            return float(alt) == default
        except ValueError:
            return False
    return value is not None and any(map(same, value.split("|")))


def test_readme_command_table_matches_parser():
    # every subcommand has a row naming each of its options: required ones
    # bare, optional ones in [...] with their default (or a placeholder
    # when the default is None), choices as a|b
    usages = _readme_usages()
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    assert sorted(usages) == sorted(sub.choices)
    gaps = []
    for command, parser in sub.choices.items():
        shown = _shown_options(usages[command])
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            name = action.option_strings[-1]
            if name not in shown:
                gaps.append(f"{command} {name}: missing")
                continue
            optional, value = shown.pop(name)
            if optional == action.required:
                gaps.append(f"{command} {name}: shown as "
                            f"{'optional' if optional else 'required'}")
            elif (optional and action.nargs != 0
                  and action.default is not None
                  and not _shows_default(value, action.default)):
                gaps.append(f"{command} {name}: default "
                            f"{action.default!r} not shown")
            if (action.choices
                    and set((value or "").split("|")) != set(action.choices)):
                gaps.append(f"{command} {name}: choices {value}")
        gaps += [f"{command} {name}: not an option" for name in shown]
    assert gaps == []
