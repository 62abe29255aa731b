import importlib
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from xfersel import fixtures, hscore, pipeline
from xfersel.bundle import (
    LabelMaskSet,
    SubsampleSpec,
    TaskBundle,
    TaskDescriptor,
    load_bundle,
    write_bundle,
)
from xfersel.cli import main
from xfersel.errors import (
    InvalidSpecError,
    MissingFeaturesError,
    NoCompatibleSourceError,
    UnknownTaskError,
    XferselError,
)
from xfersel.hscore import HScoreParams, hscore_segmentation
from xfersel.otce import SinkhornParams, otce
from xfersel.pipeline import (
    Metric,
    NoMatchPolicy,
    SelectionConfig,
    SelectionPath,
    map_sources,
    modality_filter,
    roi_filter,
    score_sources,
    select,
)
from xfersel.roisim import PairingMode, roi_sim

from conftest import make_bundle


def descriptors(names):
    return [TaskDescriptor.from_name(n) for n in names]


POOL_16 = [r["task_id"] for r in fixtures.reference_table("ET-22-T2")]


@pytest.mark.parametrize("call, code, detail", [
    (lambda: SelectionConfig(roi_keep_classes=0), "InvalidSpec",
     "roi_keep_classes must be >= 1"),
    (lambda: SelectionConfig(path="guided"), "InvalidSpec",
     "path must be of type SelectionPath, got 'guided'"),
    (lambda: SelectionConfig(metric="otce"), "InvalidSpec",
     "metric must be of type Metric, got 'otce'"),
    (lambda: SelectionConfig(top_k=1.5), "InvalidSpec",
     "top_k must be an integer, got 1.5"),
    (lambda: SelectionConfig(roi_keep_classes="2"), "InvalidSpec",
     "roi_keep_classes must be an integer, got '2'"),
    (lambda: SelectionConfig(threads=2.5), "InvalidSpec",
     "threads must be an integer, got 2.5"),
    (lambda: SelectionConfig(threads=0), "InvalidSpec",
     "threads must be >= 1"),
    (lambda: SelectionConfig(threads=-3), "InvalidSpec",
     "threads must be >= 1"),
    (lambda: SelectionConfig(sampler=None), "InvalidSpec",
     "sampler must be of type SubsampleSpec, got None"),
    (lambda: roi_filter([], make_bundle("ET-9-T2"), SelectionConfig()),
     "NoCompatibleSource", "subset 1 is empty"),
    (lambda: roi_filter([TaskBundle(TaskDescriptor.from_name("ED-1-T2"),
                                    labels=None)],
                        make_bundle("ET-9-T2"), SelectionConfig()),
     "MissingLabels", "ED-1-T2"),
    (lambda: select([make_bundle("ED-1-T2")],
                    TaskBundle(TaskDescriptor.from_name("ET-9-T2"),
                               labels=None), SelectionConfig()),
     "MissingLabels", "ET-9-T2"),
    (lambda: fixtures.reference_table("ET-1-T1"), "UnknownTask",
     "no reference table for 'ET-1-T1'; have ('ET-22-T2', 'ET-20-T1')"),
    (lambda: fixtures.reference_scores("ET-22-T2", "ssim"), "InvalidSpec",
     "unknown column 'ssim'; have ('dice', 'hscore', 'otce')"),
], ids=["roi-keep-0", "path-str", "metric-str", "top-k-float",
        "roi-keep-str", "threads-float", "threads-0", "threads-negative",
        "sampler-none", "roi-filter-empty",
        "roi-filter-no-labels", "select-target-no-labels",
        "reference-unknown-target", "reference-unknown-column"])
def test_input_guards(call, code, detail):
    with pytest.raises(XferselError) as info:
        call()
    assert (info.value.code, info.value.detail) == (code, detail)


class TestModalityFilter:
    def test_benchmark_subset1(self):
        target = TaskDescriptor.from_name("ET-22-T2")
        kept, fallback = modality_filter(descriptors(POOL_16), target)
        assert [d.task_id for d in kept] == \
            [t for t in POOL_16 if t.endswith("-T2")]
        assert len(kept) == 8
        assert not fallback

    def test_canonicalization(self):
        target = TaskDescriptor(task_id="tgt", roi_class="ET",
                                modality="t2 ")
        kept, _ = modality_filter(descriptors(POOL_16), target)
        assert len(kept) == 8

    def test_no_match_error_policy(self):
        target = TaskDescriptor.from_name("ET-22-T2")
        pool = descriptors(["ED-14-T1", "NCR-14-T1"])
        with pytest.raises(NoCompatibleSourceError):
            modality_filter(pool, target)

    def test_no_match_fallback_policy(self):
        target = TaskDescriptor.from_name("ET-22-T2")
        pool = descriptors(["ED-14-T1", "NCR-14-T1"])
        kept, fallback = modality_filter(pool, target,
                                         NoMatchPolicy.FALLBACK_ALL)
        assert [d.task_id for d in kept] == ["ED-14-T1", "NCR-14-T1"]
        assert fallback

    def test_empty_pool(self):
        with pytest.raises(NoCompatibleSourceError):
            modality_filter([], TaskDescriptor.from_name("ET-22-T2"))


class TestRoiFilter:
    def test_keeps_most_similar_class(self):
        sources, target = fixtures.benchmark_pool("ET-22-T2")
        subset1 = [b for b in sources if b.descriptor.modality == "T2"]
        cfg = SelectionConfig()
        subset2, scores = roi_filter(subset1, target, cfg)
        assert sorted(b.task_id for b in subset2) == \
            ["ED-13-T2", "ED-14-T2", "ED-17-T2", "ED-18-T2"]
        assert scores["ED"] > scores["NCR"]

    def test_single_class_passthrough(self):
        sources, target = fixtures.benchmark_pool("ET-22-T2")
        subset1 = [b for b in sources if b.descriptor.roi_class == "ED"][:3]
        subset2, _ = roi_filter(subset1, target, SelectionConfig())
        assert subset2 == subset1

    def test_keep_all_classes_disables_filter(self):
        sources, target = fixtures.benchmark_pool("ET-22-T2")
        subset1 = [b for b in sources if b.descriptor.modality == "T2"]
        cfg = SelectionConfig(roi_keep_classes=2)
        subset2, _ = roi_filter(subset1, target, cfg)
        assert subset2 == subset1

    def test_tie_breaks_by_class_name(self):
        target = make_bundle("ET-1-T2", seed=3)
        a = make_bundle("B-1-T2", seed=3, roi_class="B")
        b = make_bundle("A-1-T2", seed=3, roi_class="A")
        # identical masks => identical scores; ascending class name wins
        subset2, scores = roi_filter([a, b], target, SelectionConfig())
        assert scores["A"] == scores["B"]
        assert [x.task_id for x in subset2] == ["A-1-T2"]

    def test_pooled_member_on_another_grid_and_class(self):
        # a one-member class pools to that member's own masks, aligned to
        # the target grid: 8x8 foreground class 2 scored against 4x4 class 1
        rng = np.random.Generator(np.random.Philox(key=9))
        member = TaskBundle(
            descriptor=TaskDescriptor.from_name("ED-1-T2"),
            labels=LabelMaskSet(task_id="ED-1-T2",
                                masks=rng.integers(0, 3, (5, 8, 8)),
                                positive_class=2))
        target = make_bundle("ET-1-T2", n=3, h=4, w=4, seed=4)
        cfg = SelectionConfig(sampler=SubsampleSpec(seed=7))
        _, scores = roi_filter([member], target, cfg)
        assert scores == {"ED": roi_sim(member.labels, target.labels,
                                        PairingMode.PAIRED,
                                        cfg.sampler.seed).score}


class TestSelect:
    def guided_cfg(self, metric=Metric.HSCORE, **kw):
        return SelectionConfig(path=SelectionPath.GUIDED, metric=metric,
                               top_k=4, **kw)

    def test_guided_with_reference_scores(self):
        sources, target = fixtures.benchmark_pool("ET-22-T2")
        scores = dict(fixtures.reference_scores("ET-22-T2", "hscore"))
        report = select(sources, target, self.guided_cfg(), scores=scores)
        assert report.top_k_ids() == ("ED-13-T2", "ED-17-T2",
                                      "ED-18-T2", "ED-14-T2")
        assert set(report.subset2) <= set(report.subset1) <= \
            {b.task_id for b in sources}

    def test_baseline_with_reference_scores(self):
        sources, target = fixtures.benchmark_pool("ET-22-T2")
        scores = dict(fixtures.reference_scores("ET-22-T2", "hscore"))
        cfg = SelectionConfig(path=SelectionPath.BASELINE,
                              metric=Metric.HSCORE, top_k=1)
        report = select(sources, target, cfg, scores=scores)
        assert report.top_k_ids() == ("NCR-13-T2",)
        assert report.subset1 == report.subset2
        assert len(report.subset1) == 16

    def test_empty_pool(self):
        _, target = fixtures.benchmark_pool("ET-22-T2")
        with pytest.raises(NoCompatibleSourceError):
            select([], target, self.guided_cfg())

    def test_missing_injected_score(self):
        sources, target = fixtures.benchmark_pool("ET-22-T2")
        with pytest.raises(UnknownTaskError):
            select(sources, target, self.guided_cfg(), scores={"ED-13-T2": 1.0})

    def test_missing_features_for_computed_metric(self):
        sources, target = fixtures.benchmark_pool("ET-22-T2")
        with pytest.raises(MissingFeaturesError):
            select(sources, target, self.guided_cfg(metric=Metric.OTCE))

    def test_computed_otce_guided(self):
        target = make_bundle("ET-9-T2", n=2, h=4, w=4, c=2, seed=40)
        pool = [make_bundle("ED-1-T2", n=2, h=4, w=4, c=2, seed=41),
                make_bundle("NCR-1-T2", n=2, h=4, w=4, c=2, seed=42),
                make_bundle("ED-1-T1", n=2, h=4, w=4, c=2, seed=43)]
        cfg = SelectionConfig(path=SelectionPath.GUIDED, metric=Metric.OTCE,
                              top_k=2, roi_keep_classes=2)
        report = select(pool, target, cfg)
        assert set(report.subset1) == {"ED-1-T2", "NCR-1-T2"}
        assert len(report.per_source_scores) == 2
        for _, metric, score in report.per_source_scores:
            assert metric == "otce"
            assert score <= 1e-9

    def test_thread_count_does_not_change_report(self):
        target = make_bundle("ET-9-T2", n=2, h=4, w=4, c=2, seed=40)
        pool = [make_bundle(f"ED-{i}-T2", n=2, h=4, w=4, c=2, seed=50 + i)
                for i in range(4)]
        cfg1 = SelectionConfig(path=SelectionPath.BASELINE, metric=Metric.OTCE,
                               top_k=2, threads=1)
        cfg4 = SelectionConfig(path=SelectionPath.BASELINE, metric=Metric.OTCE,
                               top_k=2, threads=4)
        r1 = select(pool, target, cfg1)
        r4 = select(pool, target, cfg4)
        assert r1.per_source_scores == r4.per_source_scores
        assert r1.final_ranking.entries == r4.final_ranking.entries
        assert r1.to_json() == r4.to_json()

    @pytest.mark.parametrize("path", [SelectionPath.GUIDED,
                                      SelectionPath.BASELINE], ids=str)
    def test_target_in_pool_is_dropped(self, path):
        target = make_bundle("ET-9-T2", n=2, h=4, w=4, c=2, seed=70)
        others = [make_bundle(f"ED-{i}-T2", n=2, h=4, w=4, c=2, seed=71 + i)
                  for i in range(3)]
        cfg = SelectionConfig(path=path, metric=Metric.OTCE, top_k=3,
                              roi_keep_classes=2)
        with_target = select([others[0], target, *others[1:]], target, cfg)
        without = select(others, target, cfg)
        assert target.task_id not in with_target.subset1
        assert with_target.to_json() == without.to_json()

    def test_pool_of_only_the_target(self):
        target = make_bundle("ET-9-T2", n=2, h=4, w=4, c=2, seed=70)
        with pytest.raises(NoCompatibleSourceError):
            select([target], target, SelectionConfig(
                path=SelectionPath.BASELINE, metric=Metric.OTCE))

    @pytest.mark.parametrize("path", [SelectionPath.GUIDED,
                                      SelectionPath.BASELINE], ids=str)
    def test_otce_flattens_target_once(self, monkeypatch, path):
        otce_module = importlib.import_module("xfersel.otce")
        flatten = otce_module.flatten_pixels
        calls = []

        def counted(fs, sampler):
            calls.append(fs.task_id)
            return flatten(fs, sampler)

        monkeypatch.setattr(otce_module, "flatten_pixels", counted)
        target = make_bundle("ET-9-T2", n=2, h=4, w=4, c=2, seed=80)
        pool = [make_bundle(f"ED-{i}-T2", n=2, h=4, w=4, c=2, seed=81 + i)
                for i in range(3)]
        pool.append(make_bundle("NCR-1-T2", n=2, h=4, w=4, c=2, seed=84))
        cfg = SelectionConfig(path=path, metric=Metric.OTCE, top_k=4,
                              sampler=SubsampleSpec(max_pixels=20))
        report = select(pool, target, cfg)
        assert len(calls) == len(report.subset2) + 1
        assert calls.count(target.task_id) == 1

    def test_otce_memory_estimate_counts_concurrent_pairs(self, monkeypatch):
        otce_module = importlib.import_module("xfersel.otce")
        target = make_bundle("ET-9-T2", n=2, h=4, w=4, c=2, seed=85)
        pool = [make_bundle(f"ED-{i}-T2", n=2, h=4, w=4, c=2, seed=86 + i)
                for i in range(3)]
        pair = 32 * 32 * 8  # the kernel of one 32 x 32 pixel pair
        monkeypatch.setattr(otce_module, "available_memory_bytes",
                            lambda: 2 * pair)

        def run(threads):
            return select(pool, target, SelectionConfig(
                path=SelectionPath.BASELINE, metric=Metric.OTCE,
                threads=threads))

        assert run(2).per_source_scores == run(1).per_source_scores
        with pytest.raises(InvalidSpecError, match="--max-pixels"):
            run(3)
        with pytest.raises(InvalidSpecError, match="--max-pixels"):
            run(8)

    def test_deterministic_report_json(self):
        sources, target = fixtures.benchmark_pool("ET-20-T1")
        scores = dict(fixtures.reference_scores("ET-20-T1", "otce"))
        cfg = self.guided_cfg(metric=Metric.OTCE)
        a = select(sources, target, cfg, scores=scores).to_json()
        b = select(sources, target, cfg, scores=scores).to_json()
        assert a == b

    def test_single_modality_single_class_guided_equals_baseline(self):
        target = make_bundle("ET-9-T2", n=2, h=4, w=4, c=2, seed=60)
        pool = [make_bundle(f"ED-{i}-T2", n=2, h=4, w=4, c=2, seed=61 + i)
                for i in range(3)]
        scores = {b.task_id: float(i) for i, b in enumerate(pool)}
        guided = select(pool, target, self.guided_cfg(), scores=scores)
        baseline = select(pool, target,
                          SelectionConfig(path=SelectionPath.BASELINE,
                                          metric=Metric.HSCORE, top_k=4),
                          scores=scores)
        assert guided.final_ranking.entries == baseline.final_ranking.entries


class TestScorePair:
    """A pair is a pool of one: ``score_sources`` returns the metric's own
    report for it."""

    source = make_bundle("ED-1-T2", n=3, h=4, w=4, c=2, seed=90)
    target = make_bundle("ET-9-T2", n=3, h=4, w=4, c=2, seed=91)

    def test_otce_report_is_the_direct_call(self):
        sampler = SubsampleSpec(max_pixels=20, seed=5)
        params = SinkhornParams(epsilon=0.5)
        cfg = SelectionConfig(metric=Metric.OTCE, sampler=sampler,
                              sinkhorn_params=params)
        assert score_sources([self.source], self.target, cfg) == \
            [otce(self.source.features, self.target.features, sampler, params)]

    @pytest.mark.parametrize("side", ["source", "target"])
    def test_hscore_report_is_the_direct_call(self, side):
        # the bundle passed as the target is the export scored; synth-eval
        # passes each source as its own target
        params = HScoreParams(ridge=1e-3)
        cfg = SelectionConfig(metric=Metric.HSCORE, hscore_params=params)
        bundle = getattr(self, side)
        assert score_sources([self.source], bundle, cfg) == \
            [hscore_segmentation(bundle.features, params)]


class TestScoreSources:
    pool = [make_bundle(f"ED-{i}-T2", n=3, h=4, w=4, c=2, seed=92 + i)
            for i in range(3)]
    target = make_bundle("ET-9-T2", n=3, h=4, w=4, c=2, seed=91)

    @pytest.mark.parametrize("metric", list(Metric))
    def test_pool_reports_are_the_pairs_at_any_thread_count(self, metric):
        def run(pool, threads):
            return score_sources(pool, self.target, SelectionConfig(
                metric=metric, sampler=SubsampleSpec(max_pixels=20, seed=5),
                threads=threads))
        pairs = [rep for b in self.pool for rep in run([b], 1)]
        assert run(self.pool, 1) == run(self.pool, 3) == pairs

    @pytest.mark.parametrize("metric", list(Metric))
    def test_empty_pool_scores_nothing(self, metric):
        cfg = SelectionConfig(metric=metric)
        assert score_sources([], self.target, cfg) == []

    def test_otce_checks_the_target_then_the_sources_in_pool_order(self):
        bare = [TaskBundle(b.descriptor, b.labels, None)
                for b in (*self.pool, self.target)]
        cfg = SelectionConfig(metric=Metric.OTCE)
        for sources, target, named in [(bare[:3], bare[3], "ET-9-T2"),
                                       (bare[1:3], self.target, "ED-1-T2")]:
            with pytest.raises(MissingFeaturesError) as info:
                score_sources(sources, target, cfg)
            assert info.value.detail == f"otce needs features on {named}"

    def test_hscore_target_checks_every_source_before_the_one_score(
            self, monkeypatch):
        def unscored(*args):
            raise AssertionError("scored before every source was checked")
        monkeypatch.setattr(pipeline, "hscore_segmentation", unscored)
        wide = make_bundle("ED-7-T2", n=3, h=4, w=4, c=3, seed=97)
        cfg = SelectionConfig(metric=Metric.HSCORE)
        with pytest.raises(XferselError) as info:
            score_sources([*self.pool, wide], self.target, cfg)
        assert info.value.detail == "channel counts differ: 3 vs 2"
        bare = TaskBundle(self.target.descriptor, self.target.labels, None)
        assert score_sources([], bare, cfg) == []


@pytest.mark.parametrize("threads", [1, 3])
def test_hscore_memory_does_not_grow_with_the_pool(tmp_path, capsys,
                                                   threads):
    # synth-eval scores each source's 1 MiB export while it reads it and
    # then frees it, so six sources peak no higher than one source on each
    # worker
    payload = 8 * 32 * 32 * 32 * 4
    target = make_bundle("ET-9-T2", n=1, h=8, w=8, c=32, seed=9)
    for pool, size in (("one", 1), ("six", 6)):
        write_bundle(target, tmp_path / pool / target.task_id)
        for i in range(size):
            write_bundle(make_bundle(f"ED-{i}-T2", n=8, h=32, w=32, c=32,
                                     seed=i), tmp_path / pool / str(i))

    def peak(pool, threads):
        argv = ["--threads", str(threads), "synth-eval", "--dir",
                str(tmp_path / pool), "--target", target.task_id,
                "--metric", "hscore"]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()

    one = peak("one", 1)
    assert one > payload
    assert peak("six", threads) <= threads * one + payload / 4


def test_hscore_memory_estimate_counts_concurrent_exports(tmp_path, capsys,
                                                          monkeypatch):
    # synth-eval reads each source's whole export on a worker of its own,
    # so two workers need twice one export's peak
    pool = [make_bundle(f"ED-{i}-T2", n=8, h=16, w=16, c=4, seed=i)
            for i in range(3)]
    for b in pool:
        write_bundle(b, tmp_path / b.task_id)
    need = hscore._memory_need(load_bundle(tmp_path / "ED-0-T2").features)
    monkeypatch.setattr(importlib.import_module("xfersel.otce"),
                        "available_memory_bytes", lambda: need)
    argv = ["synth-eval", "--dir", str(tmp_path), "--target", "ED-0-T2",
            "--metric", "hscore"]
    assert main(["--threads", "1", *argv]) == 0
    capsys.readouterr()
    assert main(["--threads", "2", *argv]) == 2
    assert capsys.readouterr().err.startswith(
        "ERROR InvalidSpec: the H-score of 2 concurrent export(s) needs about")


class TestMapSources:
    def test_one_item_runs_inline(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-item map started a thread pool")
        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", no_pool)
        assert map_sources(lambda x: (x, threading.get_ident()), [7], 4) == \
            [(7, threading.get_ident())]

    @pytest.mark.parametrize("threads, items, workers", [
        (2, 3, 2), (4, 2, 2), (3, 3, 3), (8, 0, None), (1, 3, None)])
    def test_never_more_workers_than_items(self, monkeypatch, threads, items,
                                           workers):
        started = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)
        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", Recording)
        assert map_sources(lambda x: x * x, list(range(items)), threads) == \
            [x * x for x in range(items)]
        assert started == ([workers] if workers else [])
