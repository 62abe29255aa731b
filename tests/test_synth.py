import dataclasses
import importlib
import tracemalloc

import numpy as np
import pytest

from xfersel.bundle import (
    LabelMaskSet,
    PixelFeatureSet,
    SubsampleSpec,
    TaskBundle,
    TaskDescriptor,
    load_bundle,
    write_bundle,
)
from xfersel.errors import (
    DimensionMismatchError,
    InvalidSpecError,
    MissingFeaturesError,
)
from xfersel.hscore import hscore_segmentation
from xfersel.otce import otce
from xfersel.synth import (
    SynthSpec,
    _memory_need,
    generate_tasks,
    probe_pixels,
    probe_transfer,
)

from conftest import make_bundle
from oracles import synth_task_reference

otce_module = importlib.import_module("xfersel.otce")

SAMPLER = SubsampleSpec(max_pixels=256, seed=7)


def small_spec(strengths, seed=1):
    return SynthSpec(n_tasks=len(strengths), n_samples=6, height=12, width=12,
                     channels=3, signal_strengths=tuple(strengths), seed=seed)


class TestGeneration:
    def test_spec_validation(self):
        with pytest.raises(InvalidSpecError):
            SynthSpec(n_tasks=2, signal_strengths=(0.5,))
        with pytest.raises(InvalidSpecError):
            SynthSpec(n_tasks=1, signal_strengths=(1.5,))

    def test_strengths_stored_as_a_tuple_of_the_given_numbers(self):
        spec = SynthSpec(n_tasks=2, signal_strengths=[0, 1])
        assert type(spec.signal_strengths) is tuple
        assert [type(s) for s in spec.signal_strengths] == [int, int]

    def test_zero_signal_features_independent_of_labels(self):
        b = generate_tasks(small_spec([0.0]))[0]
        fg = b.features.features[b.labels.masks > 0]
        bg = b.features.features[b.labels.masks == 0]
        # pure noise: class-conditional means both near zero
        assert abs(fg.mean()) < 0.1
        assert abs(bg.mean()) < 0.1

    def test_full_signal_features_are_exact_class_indicators(self):
        b = generate_tasks(small_spec([1.0]))[0]
        fg = b.features.features[b.labels.masks > 0]
        bg = b.features.features[b.labels.masks == 0]
        assert np.unique(fg).tolist() == [np.float32(0.15)]
        assert np.unique(bg).tolist() == [np.float32(-0.15)]

    def test_same_spec_twice_is_byte_identical(self, tmp_path):
        spec = small_spec([0.3, 0.7], seed=9)
        for run in ("a", "b"):
            for b in generate_tasks(spec):
                write_bundle(b, tmp_path / run / b.task_id)
        for sub in (tmp_path / "a").iterdir():
            for f in sub.iterdir():
                twin = tmp_path / "b" / sub.name / f.name
                assert f.read_bytes() == twin.read_bytes()

    @pytest.mark.parametrize("n, h, w, c, seed", [
        (1, 2, 2, 1, 0), (3, 5, 7, 2, 42), (2, 100, 3, 1, 42),
        (16, 32, 32, 4, 42), (7, 9, 64, 3, 2**63), (64, 64, 64, 8, 42),
        (5, 3, 3, 1, 42)], ids=str)
    def test_tasks_match_reference(self, n, h, w, c, seed):
        spec = SynthSpec(n_tasks=3, n_samples=n, height=h, width=w,
                         channels=c, signal_strengths=(0.0, 0.3, 1.0),
                         seed=seed)
        for t, b in enumerate(generate_tasks(spec)):
            masks, features = synth_task_reference(spec, t)
            np.testing.assert_array_equal(b.labels.masks, masks)
            assert b.features.features.tobytes() == features.tobytes()

    @pytest.mark.parametrize("channels", [1, 8, 128])
    def test_memory_estimate_bounds_peak(self, channels):
        spec = SynthSpec(n_tasks=1, n_samples=8, height=32, width=32,
                         channels=channels, signal_strengths=(0.5,))
        tracemalloc.start()
        try:
            generate_tasks(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _memory_need(spec) <= 1.5 * peak

    def test_bundles_reload(self, tmp_path):
        b = generate_tasks(small_spec([0.5]))[0]
        write_bundle(b, tmp_path / "t")
        loaded = load_bundle(tmp_path / "t")
        np.testing.assert_array_equal(loaded.features.features,
                                      b.features.features)


def _three_class_bundle(task_id, seed, binary):
    # labels {0, 1, 2} with positive class 2, or their 0/1 binarized copy;
    # the features mark class 2 alone, so class 1 belongs to the background
    rng = np.random.default_rng(seed)
    masks = rng.integers(0, 3, size=(4, 8, 8)).astype(np.uint8)
    features = np.where((masks == 2)[..., None], 1.0, -1.0) \
        + 0.1 * rng.standard_normal((4, 8, 8, 2))
    if binary:
        masks = (masks == 2).astype(np.uint8)
    labels = LabelMaskSet(task_id=task_id, masks=masks,
                          positive_class=1 if binary else 2)
    return TaskBundle(
        descriptor=TaskDescriptor.from_name(task_id), labels=labels,
        features=PixelFeatureSet(task_id, features, labels))


class TestProbe:
    def test_self_transfer_noiseless_is_perfect(self):
        for seed in (1, 2, 3):
            b = generate_tasks(small_spec([1.0], seed=seed))[0]
            assert probe_transfer(b, b, seed=seed).accuracy == 1.0

    def test_zero_signal_tracks_majority_rate(self):
        for seed in (1, 2, 3, 4, 5):
            spec = small_spec([0.0, 0.8], seed=seed)
            src, tgt = generate_tasks(spec)
            majority = max(np.mean(tgt.labels.masks == 0),
                           np.mean(tgt.labels.masks == 1))
            acc = probe_transfer(src, tgt, seed=seed).accuracy
            assert abs(acc - majority) < 0.05

    def test_swapping_identical_spec_sources_is_stable(self):
        accs = []
        for seed in (1, 2):
            spec = SynthSpec(n_tasks=2, n_samples=16, height=16, width=16,
                             channels=4, signal_strengths=(0.6, 0.8),
                             seed=seed)
            src, tgt = generate_tasks(spec)
            accs.append(probe_transfer(src, tgt, seed=7).accuracy)
        assert abs(accs[0] - accs[1]) < 0.05

    def test_channel_mismatch(self):
        a = generate_tasks(small_spec([0.5]))[0]
        spec = SynthSpec(n_tasks=1, n_samples=6, height=12, width=12,
                         channels=2, signal_strengths=(0.5,), seed=1)
        b = generate_tasks(spec)[0]
        with pytest.raises(DimensionMismatchError):
            probe_transfer(a, b)

    @pytest.mark.parametrize("bare", ["source", "target"])
    def test_missing_features_names_the_bundle(self, bare):
        with_features, other = generate_tasks(small_spec([0.5, 0.8]))
        without = dataclasses.replace(other, features=None)
        pair = ((without, with_features) if bare == "source"
                else (with_features, without))
        with pytest.raises(MissingFeaturesError) as info:
            probe_transfer(*pair)
        assert info.value.detail == f"probe needs features on {other.task_id}"

    def test_foreground_is_the_positive_class(self):
        # the probe once took every nonzero label as foreground, unlike RoI-Sim
        pairs = [(_three_class_bundle("ED-1-T2", 1, binary),
                  _three_class_bundle("ET-2-T2", 2, binary))
                 for binary in (False, True)]
        accuracies = [probe_transfer(*pair).accuracy for pair in pairs]
        assert accuracies == [1.0, 1.0]

    @pytest.mark.parametrize("channels", [1, 8, 32])
    def test_memory_estimate_bounds_peak(self, tmp_path, monkeypatch,
                                         channels):
        # a target on disk: its float32 read, the float64 list and labels
        for name, seed in (("t", 1), ("s", 2)):
            write_bundle(make_bundle(f"ED-{seed}-T2", n=8, h=32, w=32,
                                     c=channels, seed=seed), tmp_path / name)
        target, source = load_bundle(tmp_path / "t"), load_bundle(tmp_path / "s")
        tracemalloc.start()
        try:
            want = probe_transfer(source, target).accuracy
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(otce_module, "available_memory_bytes",
                            lambda: peak - 1)
        with pytest.raises(InvalidSpecError, match="of available memory$"):
            probe_transfer(source, target)
        monkeypatch.setattr(otce_module, "available_memory_bytes",
                            lambda: int(1.5 * peak))
        assert probe_transfer(source, target).accuracy == want

    @pytest.mark.parametrize("threads, sources, workers",
                             [(1, 3, 1), (2, 3, 2), (5, 3, 3), (5, 1, 1)])
    def test_memory_estimate_counts_concurrent_sources(self, monkeypatch,
                                                       threads, sources,
                                                       workers):
        fs = generate_tasks(small_spec([0.5]))[0].features
        monkeypatch.setattr(otce_module, "available_memory_bytes", lambda: 0)
        with pytest.raises(InvalidSpecError) as info:
            probe_pixels(fs, [fs] * sources, threads)
        assert info.value.detail.startswith(
            f"the probe of {workers} concurrent source(s) needs about")


class TestMonotoneSignal:
    def test_otce_strictly_increases_between_endpoints(self):
        for seed in (1, 2, 3, 4, 5):
            spec = SynthSpec(n_tasks=3, signal_strengths=(0.1, 0.9, 0.8),
                             seed=seed)
            low, high, target = generate_tasks(spec)
            s_low = otce(low.features, target.features, SAMPLER).score
            s_high = otce(high.features, target.features, SAMPLER).score
            assert s_low < s_high

    def test_hscore_strictly_increases_between_endpoints(self):
        for seed in (1, 2, 3, 4, 5):
            spec = SynthSpec(n_tasks=2, signal_strengths=(0.1, 0.9),
                             seed=seed)
            low, high = generate_tasks(spec)
            assert hscore_segmentation(low.features).score < \
                hscore_segmentation(high.features).score
