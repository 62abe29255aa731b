import importlib
import tracemalloc

import numpy as np
import pytest

from xfersel import bundle as bundle_module
from xfersel import hscore
from xfersel.bundle import (
    LabelMaskSet,
    PixelFeatureSet,
    load_bundle,
    write_bundle,
)
from xfersel.errors import (
    DegenerateInputError,
    InvalidSpecError,
    NonFiniteFeatureError,
    XferselError,
)
from xfersel.hscore import HScoreParams, hscore_classification, hscore_segmentation
from xfersel.synth import SynthSpec, generate_tasks

from conftest import make_bundle
from oracles import hscore_reference, hscore_segmentation_reference

otce_module = importlib.import_module("xfersel.otce")


def per_pixel_hscores(feats, masks):
    """``hscore_classification`` of each pixel's samples against its 0/1
    masks, 0 where only one class occurs: the per-pixel H-score grid."""
    _, h, w, _ = feats.shape
    scores = np.zeros((h, w))
    for r in range(h):
        for col in range(w):
            y = masks[:, r, col]
            if y.min() != y.max():
                scores[r, col] = hscore_classification(
                    feats[:, r, col].astype(np.float64), y)
    return scores


def feature_set(features, masks, task_id="t", positive_class=1):
    labels = LabelMaskSet(task_id=task_id,
                          masks=np.asarray(masks, np.uint8),
                          positive_class=positive_class)
    return PixelFeatureSet(task_id=task_id,
                           features=np.asarray(features, np.float32),
                           aligned_labels=labels)


class TestClassification:
    def test_label_independent_features_score_zero(self):
        feats = np.ones((6, 3))
        labels = np.array([0, 1, 0, 1, 0, 1])
        assert hscore_classification(feats, labels) == pytest.approx(0.0,
                                                                     abs=1e-9)

    def test_closed_form_one_dimensional(self):
        # f = y on balanced binary labels: cov(f) = 0.25, between-cov = 0.25
        feats = np.array([[0.0], [1.0], [0.0], [1.0]])
        labels = np.array([0, 1, 0, 1])
        got = hscore_classification(feats, labels, HScoreParams(ridge=1e-12))
        assert got == pytest.approx(1.0, abs=1e-6)

    def test_scale_invariance_in_ridge_limit(self):
        labels = np.array([0, 1, 0, 1])
        base = np.array([[0.0], [1.0], [0.0], [1.0]])
        params = HScoreParams(ridge=1e-12)
        reference = hscore_classification(base, labels, params)
        for a in (0.5, 2.0, 10.0, -2.0):
            got = hscore_classification(a * base, labels, params)
            assert got == pytest.approx(reference, abs=1e-6)

    def test_matches_scalar_oracle(self):
        # regular covariances (n > C + 1): agreement is tight
        rng = np.random.Generator(np.random.Philox(10))
        for _ in range(20):
            c = int(rng.integers(1, 5))
            n = int(rng.integers(c + 2, 16))
            feats = rng.standard_normal((n, c))
            labels = rng.integers(0, 3, n)
            if len(np.unique(labels)) < 2:
                continue
            expected = hscore_reference(feats.tolist(), labels.tolist(), 1e-8)
            got = hscore_classification(feats, labels)
            assert got == pytest.approx(expected, abs=1e-9, rel=1e-9)

    def test_matches_scalar_oracle_singular_covariance(self):
        # n <= C leaves the covariance singular; the ridge inverse amplifies
        # last-ulp arithmetic differences by ~1/ridge, so the comparison is
        # necessarily looser here
        rng = np.random.Generator(np.random.Philox(16))
        for _ in range(10):
            feats = rng.standard_normal((3, 4))
            labels = np.array([0, 1, 1])
            expected = hscore_reference(feats.tolist(), labels.tolist(), 1e-8)
            got = hscore_classification(feats, labels)
            assert got == pytest.approx(expected, abs=1e-6, rel=1e-6)

    def test_label_permutation_invariance(self):
        rng = np.random.Generator(np.random.Philox(11))
        feats = rng.standard_normal((12, 3))
        labels = rng.integers(0, 3, 12)
        relabeled = np.array([2, 0, 1])[labels]
        assert hscore_classification(feats, labels) == pytest.approx(
            hscore_classification(feats, relabeled), abs=1e-12)

    def test_degenerate_and_nonfinite(self):
        with pytest.raises(DegenerateInputError):
            hscore_classification(np.ones((1, 2)), np.array([0]))
        bad = np.array([[0.0], [np.inf]])
        with pytest.raises(NonFiniteFeatureError):
            hscore_classification(bad, np.array([0, 1]))

    def test_singular_covariance_without_ridge(self):
        # both channels equal: the covariance has rank 1 and no ridge
        feats = np.repeat(np.array([[0.0], [1.0], [3.0], [1.0]]), 2, axis=1)
        with pytest.raises(DegenerateInputError, match="ridge 0"):
            hscore_classification(feats, np.array([0, 1, 0, 1]),
                                  HScoreParams(ridge=0.0))


@pytest.mark.parametrize("features, labels, detail", [
    (np.ones(4), [0, 1, 0, 1], "features must be [n_samples, C]"),
    (np.ones((3, 2)), [0, 1], "3 feature rows vs 2 labels"),
], ids=["features-1d", "rows-vs-labels"])
def test_classification_input_guards(features, labels, detail):
    with pytest.raises(XferselError) as info:
        hscore_classification(features, labels)
    assert (info.value.code, info.value.detail) == ("ShapeMismatch", detail)


@pytest.mark.parametrize("ridge, detail", [
    (None, "ridge must be a real number, got None"),
    (False, "ridge must be a real number, got False"),
    (-1.0, "ridge must be >= 0 and finite")], ids=["none", "bool", "negative"])
def test_ridge_guard(ridge, detail):
    with pytest.raises(XferselError) as info:
        HScoreParams(ridge=ridge)
    assert (info.value.code, info.value.detail) == ("InvalidSpec", detail)


class TestSegmentation:
    def test_constant_labels_everywhere(self):
        rng = np.random.Generator(np.random.Philox(12))
        fs = feature_set(rng.standard_normal((4, 3, 3, 2)),
                         np.ones((4, 3, 3)))
        report = hscore_segmentation(fs)
        assert report.score == 0.0
        assert report.skipped_pixels == 9

    def test_two_pixel_grid_mean(self):
        # pixel (0,0) is the balanced f=y instance, pixel (0,1) single-class
        feats = np.zeros((4, 1, 2, 1), np.float32)
        masks = np.zeros((4, 1, 2), np.uint8)
        masks[:, 0, 0] = [0, 1, 0, 1]
        feats[:, 0, 0, 0] = [0.0, 1.0, 0.0, 1.0]
        fs = feature_set(feats, masks)
        report = hscore_segmentation(fs, HScoreParams(ridge=1e-12))
        assert report.score == pytest.approx(0.5, abs=1e-6)
        assert report.skipped_pixels == 1

    def test_matches_brute_force_oracle(self):
        rng = np.random.Generator(np.random.Philox(13))
        for trial in range(5):
            n = int(rng.integers(6, 12))
            # round through the storage dtype so both sides see the same data
            feats = rng.standard_normal((n, 4, 4, 3)).astype(np.float32)
            masks = rng.integers(0, 2, (n, 4, 4))
            fs = feature_set(feats, masks)
            expected = hscore_segmentation_reference(
                feats.astype(np.float64), masks, ridge=1e-8)
            got = hscore_segmentation(fs)
            assert got.score == pytest.approx(expected, abs=1e-9)

    def test_nonnegative_with_ridge(self):
        rng = np.random.Generator(np.random.Philox(14))
        feats = rng.standard_normal((6, 5, 5, 4)).astype(np.float32)
        masks = rng.integers(0, 2, (6, 5, 5))
        report = hscore_segmentation(feature_set(feats, masks))
        per_pixel = per_pixel_hscores(feats, masks)
        assert (per_pixel >= -1e-9).all()
        assert report.score == pytest.approx(per_pixel.mean(), abs=1e-9)
        assert report.skipped_pixels == (masks == masks[0]).all(axis=0).sum()

    def test_min_samples_enforced(self):
        rng = np.random.Generator(np.random.Philox(15))
        fs = feature_set(rng.standard_normal((1, 2, 2, 2)),
                         rng.integers(0, 2, (1, 2, 2)))
        with pytest.raises(DegenerateInputError):
            hscore_segmentation(fs)

    def test_gapped_classes_match_oracle(self):
        # three labels with gaps in their ids score as the foreground of
        # the positive one; some pixels miss a label
        rng = np.random.Generator(np.random.Philox(17))
        feats = rng.standard_normal((12, 3, 4, 3)).astype(np.float32)
        masks = np.array([0, 2, 5], np.uint8)[rng.integers(0, 3, (12, 3, 4))]
        masks[:, 0, 0] = [0, 2] * 6
        fs = feature_set(feats, masks, positive_class=2)
        expected = hscore_segmentation_reference(
            feats.astype(np.float64), masks == 2, ridge=1e-8)
        assert hscore_segmentation(fs).score == pytest.approx(expected,
                                                              abs=1e-9)

    def test_chunk_boundary_with_interleaved_skips(self, monkeypatch):
        rng = np.random.Generator(np.random.Philox(18))
        n, c = 9, 3
        feats = rng.standard_normal((n, 5, 7, c)).astype(np.float32)
        masks = rng.integers(0, 2, (n, 5, 7)).astype(np.uint8)
        masks[:, ::3, ::2] = 1                       # skipped, spread out
        skipped = int((masks == masks[0]).all(axis=0).sum())
        monkeypatch.setattr(hscore, "_CHUNK_BYTES", 4000)
        assert hscore._chunk_pixels(n, c, 2) < 35 - skipped
        report = hscore_segmentation(feature_set(feats, masks))
        expected = hscore_segmentation_reference(
            feats.astype(np.float64), masks, ridge=1e-8)
        assert report.score == pytest.approx(expected, abs=1e-9)
        assert report.skipped_pixels == skipped

    def test_per_pixel_placement_non_square(self):
        rng = np.random.Generator(np.random.Philox(19))
        feats = rng.standard_normal((8, 2, 5, 2)).astype(np.float32)
        masks = rng.integers(0, 2, (8, 2, 5)).astype(np.uint8)
        masks[:, 1, 3] = 0
        report = hscore_segmentation(feature_set(feats, masks))
        per_pixel = per_pixel_hscores(feats, masks)
        assert report.score == pytest.approx(per_pixel.mean(), abs=1e-9)
        assert report.skipped_pixels == (masks == masks[0]).all(axis=0).sum()
        assert report.skipped_pixels >= 1

    def test_one_pixel_grid_equals_classification(self):
        rng = np.random.Generator(np.random.Philox(20))
        feats = rng.standard_normal((10, 1, 1, 3)).astype(np.float32)
        masks = rng.integers(0, 3, (10, 1, 1)).astype(np.uint8)
        masks[:2, 0, 0] = [0, 2]
        report = hscore_segmentation(feature_set(feats, masks,
                                                 positive_class=2))
        assert report.score == hscore_classification(
            feats[:, 0, 0].astype(np.float64), masks[:, 0, 0] == 2)

    @pytest.mark.parametrize("n, c, deficient", [(16, 16, True),
                                                 (64, 8, False)])
    def test_rank_deficient_pixels(self, n, c, deficient):
        spec = SynthSpec(n_tasks=1, n_samples=n, height=8, width=8,
                         channels=c, signal_strengths=(0.5,), seed=42)
        report = hscore_segmentation(generate_tasks(spec)[0].features)
        active = 64 - report.skipped_pixels
        assert active > 0
        assert report.rank_deficient_pixels == (active if deficient else 0)

    def test_memory_bounded_by_chunks(self):
        rng = np.random.Generator(np.random.Philox(21))
        feats = rng.standard_normal((64, 64, 64, 8), np.float32)
        fs = feature_set(feats, rng.integers(0, 2, (64, 64, 64)))
        whole_float64 = 2 * feats.nbytes   # what a whole-array cast copies
        tracemalloc.start()
        try:
            hscore_segmentation(fs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < whole_float64

    @pytest.mark.parametrize("n, h, w, c", [(8, 32, 32, 128), (16, 64, 64, 8),
                                            (4, 64, 64, 64)])
    def test_memory_estimate_bounds_peak(self, tmp_path, n, h, w, c):
        # a set on disk reads its whole export, which dominates the peak
        write_bundle(make_bundle(n=n, h=h, w=w, c=c), tmp_path / "b")
        fs = load_bundle(tmp_path / "b").features
        tracemalloc.start()
        try:
            hscore_segmentation(fs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= hscore._memory_need(fs) <= 1.5 * peak

    def test_one_chunk_held_at_a_time(self, tmp_path):
        # a chunk left alive while the next is gathered peaks above one
        # chunk's count: 2.47 MB here against 2.09 MB counted
        n, h, w, c = 64, 16, 16, 32
        write_bundle(make_bundle(n=n, h=h, w=w, c=c), tmp_path / "b")
        fs = load_bundle(tmp_path / "b").features
        chunk = hscore._chunk_pixels(n, c, 2) * hscore._pixel_bytes(n, c, 2)
        assert hscore._chunk_pixels(n, c, 2) < h * w   # several chunks
        tracemalloc.start()
        try:
            hscore_segmentation(fs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        export_and_foreground = n * h * w * (4 * c + 1)
        assert peak - export_and_foreground < chunk

    def test_refused_before_the_export_is_read(self, tmp_path, monkeypatch):
        write_bundle(make_bundle(n=4, h=8, w=8, c=4), tmp_path / "b")
        fs = load_bundle(tmp_path / "b").features
        need = hscore._memory_need(fs)
        reads = []
        read = bundle_module._Payload.read
        monkeypatch.setattr(bundle_module._Payload, "read",
                            lambda *a: reads.append(1) or read(*a))
        monkeypatch.setattr(otce_module, "available_memory_bytes",
                            lambda: need - 1)
        with pytest.raises(InvalidSpecError,
                           match=r"the H-score of 1 concurrent export\(s\) "
                                 r"needs about .* of available memory$"):
            hscore_segmentation(fs)
        assert reads == []
        monkeypatch.setattr(otce_module, "available_memory_bytes", lambda: need)
        assert hscore_segmentation(fs).score >= 0
        assert reads == [1]
