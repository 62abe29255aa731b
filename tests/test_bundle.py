import json
import os
import struct
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest

from xfersel import bundle as bundle_module
from xfersel import fixtures
from xfersel.bundle import (
    LabelMaskSet,
    PixelFeatureSet,
    SubsampleSpec,
    TaskBundle,
    TaskDescriptor,
    flatten_pixels,
    load_bundle,
    write_bundle,
)
from xfersel.errors import (
    CorruptBinaryError,
    EmptyFeatureSetError,
    InvalidSpecError,
    IoFailureError,
    MissingManifestError,
    NonFiniteFeatureError,
    ShapeMismatchError,
    XferselError,
)
from xfersel.synth import SynthSpec, generate_tasks

from conftest import make_bundle
from oracles import subsample_reference


class TestDescriptor:
    def test_modality_canonicalized(self):
        d = TaskDescriptor(task_id="x", roi_class="ED", modality=" t2 ")
        assert d.modality == "T2"
        e = TaskDescriptor(task_id="y", roi_class="ET", modality="T2")
        assert d.same_modality(e)

    def test_from_name(self):
        d = TaskDescriptor.from_name("ED-14-T2")
        assert (d.roi_class, d.partition, d.modality) == ("ED", "14", "T2")
        d2 = TaskDescriptor.from_name("WMH-FLAIR")
        assert (d2.roi_class, d2.partition, d2.modality) == ("WMH", None, "FLAIR")

    def test_empty_id_rejected(self):
        with pytest.raises(InvalidSpecError):
            TaskDescriptor(task_id="", roi_class="ED", modality="T1")


def _masks(*shape):
    return LabelMaskSet(task_id="x", masks=np.zeros(shape, np.uint8))


@pytest.mark.parametrize("call, code, detail", [
    (lambda: TaskDescriptor.from_name("ET"), "InvalidSpec",
     "cannot parse task name 'ET'"),
    (lambda: SubsampleSpec(seed=2**64), "InvalidSpec",
     "seed must fit in 64 unsigned bits"),
    (lambda: SubsampleSpec(max_pixels=2.5), "InvalidSpec",
     "max_pixels must be an integer, got 2.5"),
    (lambda: SubsampleSpec(max_pixels=True), "InvalidSpec",
     "max_pixels must be an integer, got True"),
    (lambda: SubsampleSpec(seed=1.5), "InvalidSpec",
     "seed must be an integer, got 1.5"),
    (lambda: TaskDescriptor(task_id=5, roi_class="ED", modality="T2"),
     "InvalidSpec", "task_id must be of type str, got 5"),
    (lambda: TaskDescriptor(task_id="x", roi_class="ED", modality=5),
     "InvalidSpec", "modality must be of type str, got 5"),
    (lambda: TaskDescriptor(task_id="x", roi_class="ED", modality="T2",
                            partition=3),
     "InvalidSpec", "partition must be of type str | None, got 3"),
    (lambda: SynthSpec(seed=1.5), "InvalidSpec",
     "seed must be an integer, got 1.5"),
    (lambda: SynthSpec(n_tasks=2.5), "InvalidSpec",
     "n_tasks must be an integer, got 2.5"),
    (lambda: SynthSpec(channels=True), "InvalidSpec",
     "channels must be an integer, got True"),
    (lambda: SynthSpec(n_tasks=2, signal_strengths=[True, 0.5]),
     "InvalidSpec", "signal_strengths must be a list or tuple of real "
     "numbers, got [True, 0.5]"),
    (lambda: _masks(8, 8), "ShapeMismatch",
     "label masks must be [n_samples, H, W], got ndim=2"),
    (lambda: _masks(3, 0, 8), "EmptyLabelSet", "task 'x' has empty masks"),
    (lambda: LabelMaskSet(task_id="x", masks=np.zeros((1, 2, 2), np.uint8),
                          positive_class=256),
     "InvalidSpec", "positive_class must be a uint8 label in 0..255, got 256"),
    (lambda: LabelMaskSet(task_id="x", masks=np.zeros((1, 2, 2), np.uint8),
                          positive_class=-1),
     "InvalidSpec", "positive_class must be a uint8 label in 0..255, got -1"),
    (lambda: LabelMaskSet(task_id="x", masks=np.zeros((1, 2, 2), np.uint8),
                          positive_class=1.5),
     "InvalidSpec", "positive_class must be a uint8 label in 0..255, got 1.5"),
    (lambda: LabelMaskSet(task_id="x", masks=np.zeros((1, 2, 2), np.uint8),
                          positive_class="1"),
     "InvalidSpec",
     "positive_class must be a uint8 label in 0..255, got '1'"),
    (lambda: LabelMaskSet(task_id="x", masks=np.zeros((1, 2, 2), np.uint8),
                          positive_class=True),
     "InvalidSpec",
     "positive_class must be a uint8 label in 0..255, got True"),
    *[(lambda value=value: LabelMaskSet(task_id="x",
                                        masks=np.full((1, 2, 2), value)),
       "InvalidSpec", "task 'x' has non-uint8 masks")
      for value in (300, -1, 0.7, np.nan, 2 + 1j, 2 + 0j)],
    *[(lambda masks=masks: LabelMaskSet(task_id="x", masks=masks),
       "InvalidSpec", "task 'x' has non-uint8 masks")
      for masks in (np.full((1, 2, 2), 2 + 1j, dtype=object),
                    np.full((1, 2, 2), None), [[["a"]]], [[[0, 1], [0]]])],
    (lambda: PixelFeatureSet("x", np.zeros((3, 8, 8)), _masks(3, 8, 8)),
     "ShapeMismatch", "features must be [n_samples, H, W, C], got ndim=3"),
    (lambda: PixelFeatureSet("x", np.zeros((3, 8, 8, 0)), _masks(3, 8, 8)),
     "EmptyFeatureSet", "feature sets need at least one channel"),
    *[(lambda values=values: PixelFeatureSet("x", values, _masks(1, 1, 2)),
       "InvalidSpec", "task 'x' features must be real numbers")
      for values in (np.full((1, 1, 2, 1), 2 + 1j), np.full((1, 1, 2, 1), None),
                     [[[["a"], ["b"]]]], [[[[0.0], [0.0, 1.0]]]])],
    (lambda: PixelFeatureSet("x", np.full((1, 1, 2, 1), 1e39),
                             _masks(1, 1, 2)),
     "NonFiniteFeature", "task 'x' features contain NaN/Inf"),
    (lambda: TaskBundle(TaskDescriptor.from_name("ED-1-T2"), _masks(3, 8, 8),
                        make_bundle(n=2).features),
     "ShapeMismatch", "bundle features are not aligned with bundle labels"),
    (lambda: TaskBundle(TaskDescriptor.from_name("ED-1-T2"), labels=None,
                        features=make_bundle().features),
     "MissingLabels", "ED-1-T2"),
    (lambda: TaskBundle(TaskDescriptor.from_name("ED-1-T2"),
                        make_bundle(n=2, h=4, w=4, seed=1).labels,
                        make_bundle(n=2, h=4, w=4, seed=2).features),
     "ShapeMismatch", "bundle features are not aligned with bundle labels"),
    (lambda: TaskBundle(
        TaskDescriptor.from_name("ED-1-T2"), _masks(2, 4, 4),
        PixelFeatureSet("x", np.zeros((2, 4, 4, 1)),
                        LabelMaskSet("x", np.zeros((2, 4, 4), np.uint8), 0))),
     "ShapeMismatch", "bundle features are not aligned with bundle labels"),
], ids=["one-part-name", "seed-over-64-bits", "max-pixels-float",
        "max-pixels-bool", "seed-float", "descriptor-task-id-int",
        "descriptor-modality-int", "descriptor-partition-int",
        "synth-seed-float", "synth-n-tasks-float", "synth-channels-bool",
        "synth-strengths-bool", "masks-2d", "masks-empty-axis",
        "positive-class-256", "positive-class-negative",
        "positive-class-float", "positive-class-str", "positive-class-bool",
        "masks-300", "masks-negative", "masks-fraction", "masks-nan",
        "masks-complex", "masks-complex-real", "masks-object-complex",
        "masks-object-none", "masks-str", "masks-ragged",
        "features-3d", "features-no-channel", "features-complex",
        "features-object", "features-str", "features-ragged",
        "features-past-float32", "features-misaligned",
        "features-without-labels", "features-other-masks",
        "features-other-positive-class"])
def test_spec_guards(call, code, detail):
    with pytest.raises(XferselError) as info:
        call()
    assert (info.value.code, info.value.detail) == (code, detail)


def test_bundle_accepts_features_aligned_to_equal_labels():
    # every stage reads one RoI: the labels or, through the features, a set
    # with the same masks and positive class
    b = make_bundle(n=2, h=4, w=4)
    equal = LabelMaskSet("y", b.labels.masks.copy(), b.labels.positive_class)
    assert TaskBundle(b.descriptor, equal, b.features).labels is equal


def test_numpy_integers_sample():
    spec = SubsampleSpec(max_pixels=np.int64(5), seed=np.uint64(7))
    got = flatten_pixels(make_bundle(n=1, h=4, w=4, c=2).features, spec)
    want = flatten_pixels(make_bundle(n=1, h=4, w=4, c=2).features,
                          SubsampleSpec(max_pixels=5, seed=7))
    assert got[0].tobytes() == want[0].tobytes()


@pytest.mark.parametrize("label", [0, 2, 255, np.uint8(2), np.int64(255)],
                         ids=repr)
def test_integer_positive_class_accepted(label):
    masks = np.array([[[0, 2], [255, 2]]], np.uint8)
    labels = LabelMaskSet(task_id="x", masks=masks, positive_class=label)
    assert labels.foreground.dtype == np.uint8
    np.testing.assert_array_equal(labels.foreground, masks == label)


@pytest.mark.parametrize("label", [np.uint8(2), np.int64(255)], ids=repr)
def test_numpy_positive_class_written_as_integer(tmp_path, label):
    masks = np.array([[[0, 2], [255, 2]]], np.uint8)
    write_bundle(TaskBundle(TaskDescriptor("x", "ED", "T2"),
                            LabelMaskSet("x", masks, label)), tmp_path / "b")
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest["positive_class"] == int(label)
    assert load_bundle(tmp_path / "b").labels.positive_class == label


@pytest.mark.parametrize("masks", [[[[0, 1], [255, 2]]],
                                   np.array([[[False, True], [True, False]]])],
                         ids=["python-int", "bool"])
def test_masks_that_cast_exactly_load(masks):
    labels = LabelMaskSet(task_id="x", masks=masks)
    assert labels.masks.dtype == np.uint8
    np.testing.assert_array_equal(labels.masks, masks)


# the manifest.json text write_bundle writes, pinned byte for byte
_SYNTH_MANIFEST = """{
  "channels": 4,
  "dataset": "synthetic",
  "extractor": "synthetic",
  "files": {
    "features": "features.bin",
    "labels": "labels.bin"
  },
  "height": 32,
  "modality": "SIM",
  "n_samples": 16,
  "partition": "0",
  "positive_class": 1,
  "roi_class": "SYN",
  "task_id": "synth-00-s0.00",
  "width": 32
}
"""
_LABELS_ONLY_MANIFEST = """{
  "channels": null,
  "dataset": "test",
  "extractor": "test-extractor",
  "files": {
    "labels": "labels.bin"
  },
  "height": 8,
  "modality": "T2",
  "n_samples": 3,
  "partition": "14",
  "positive_class": 1,
  "roi_class": "ED",
  "task_id": "ED-14-T2",
  "width": 8
}
"""
_FETS_TARGET_MANIFEST = """{
  "channels": null,
  "dataset": "FeTS2021",
  "extractor": null,
  "files": {
    "labels": "labels.bin"
  },
  "height": 32,
  "modality": "T2",
  "n_samples": 4,
  "partition": "22",
  "positive_class": 1,
  "roi_class": "ET",
  "task_id": "ET-22-T2",
  "width": 32
}
"""


@pytest.mark.parametrize("make, text", [
    (lambda: generate_tasks(SynthSpec())[0], _SYNTH_MANIFEST),
    (lambda: make_bundle(with_features=False), _LABELS_ONLY_MANIFEST),
    (lambda: fixtures.benchmark_pool("ET-22-T2")[1], _FETS_TARGET_MANIFEST),
], ids=["synth-default", "labels-only", "fets-target"])
def test_manifest_bytes_pinned(tmp_path, make, text):
    write_bundle(make(), tmp_path / "b")
    assert (tmp_path / "b" / "manifest.json").read_bytes() == text.encode()


class TestBundleIo:
    def test_roundtrip_well_formed(self, tmp_path, bundle):
        write_bundle(bundle, tmp_path / "b")
        loaded = load_bundle(tmp_path / "b")
        assert loaded.descriptor == bundle.descriptor
        assert loaded.labels.n_samples == 3
        np.testing.assert_array_equal(loaded.labels.masks, bundle.labels.masks)
        np.testing.assert_array_equal(loaded.features.features,
                                      bundle.features.features)
        assert loaded.extractor == bundle.extractor

    def test_rewrite_is_byte_identical(self, tmp_path, bundle):
        write_bundle(bundle, tmp_path / "a")
        write_bundle(load_bundle(tmp_path / "a"), tmp_path / "b")
        for name in ("manifest.json", "labels.bin", "features.bin"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_bundle_without_features(self, tmp_path):
        b = make_bundle(with_features=False)
        write_bundle(b, tmp_path / "b")
        assert not (tmp_path / "b" / "features.bin").exists()
        loaded = load_bundle(tmp_path / "b")
        assert loaded.features is None

    def test_unknown_manifest_keys_ignored(self, tmp_path, bundle):
        write_bundle(bundle, tmp_path / "b")
        path = tmp_path / "b" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["colour"] = "blue"
        manifest["files"]["thumbnail"] = "thumb.png"
        path.write_text(json.dumps(manifest))
        loaded = load_bundle(tmp_path / "b")
        assert loaded.descriptor == bundle.descriptor
        assert loaded.extractor == bundle.extractor
        np.testing.assert_array_equal(loaded.labels.masks, bundle.labels.masks)
        np.testing.assert_array_equal(loaded.features.features,
                                      bundle.features.features)

    def test_null_features_file_loads_without_features(self, tmp_path):
        write_bundle(make_bundle(with_features=False), tmp_path / "b")
        path = tmp_path / "b" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["files"]["features"] = None
        path.write_text(json.dumps(manifest))
        assert load_bundle(tmp_path / "b").features is None

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "b").mkdir()
        with pytest.raises(MissingManifestError):
            load_bundle(tmp_path / "b")

    def test_truncated_features(self, tmp_path, bundle):
        write_bundle(bundle, tmp_path / "b")
        f = tmp_path / "b" / "features.bin"
        f.write_bytes(f.read_bytes()[:-1])
        with pytest.raises(CorruptBinaryError):
            load_bundle(tmp_path / "b")

    def test_trailing_bytes(self, tmp_path, bundle):
        write_bundle(bundle, tmp_path / "b")
        f = tmp_path / "b" / "labels.bin"
        f.write_bytes(f.read_bytes() + b"\x00")
        with pytest.raises(CorruptBinaryError):
            load_bundle(tmp_path / "b")

    def test_bad_magic(self, tmp_path, bundle):
        write_bundle(bundle, tmp_path / "b")
        f = tmp_path / "b" / "labels.bin"
        raw = bytearray(f.read_bytes())
        raw[:4] = b"NOPE"
        f.write_bytes(bytes(raw))
        with pytest.raises(CorruptBinaryError):
            load_bundle(tmp_path / "b")

    def test_feature_label_count_mismatch(self, tmp_path):
        b2 = make_bundle(n=2, with_features=False)
        b3 = make_bundle(n=3)
        write_bundle(b3, tmp_path / "b")
        write_bundle(b2, tmp_path / "b2")
        # graft the 3-sample features file onto the 2-sample bundle
        (tmp_path / "b2" / "features.bin").write_bytes(
            (tmp_path / "b" / "features.bin").read_bytes())
        manifest = (tmp_path / "b2" / "manifest.json").read_text()
        manifest = manifest.replace('"labels": "labels.bin"',
                                    '"features": "features.bin",\n'
                                    '    "labels": "labels.bin"')
        (tmp_path / "b2" / "manifest.json").write_text(manifest)
        with pytest.raises(ShapeMismatchError):
            load_bundle(tmp_path / "b2")

    def test_nonfinite_features_rejected(self, tmp_path, bundle):
        write_bundle(bundle, tmp_path / "b")
        f = tmp_path / "b" / "features.bin"
        raw = bytearray(f.read_bytes())
        raw[39:43] = np.float32("nan").tobytes()
        f.write_bytes(bytes(raw))
        with pytest.raises(NonFiniteFeatureError):
            load_bundle(tmp_path / "b")

    def test_nonfinite_in_last_block_rejected(self, tmp_path, bundle,
                                              monkeypatch):
        # the load's pass reads 100-byte blocks into one reused buffer and
        # checks each, the last one included
        monkeypatch.setattr(bundle_module, "_READ_BYTES", 100)
        write_bundle(bundle, tmp_path / "b")
        f = tmp_path / "b" / "features.bin"
        f.write_bytes(f.read_bytes()[:-4] + np.float32("inf").tobytes())
        with pytest.raises(NonFiniteFeatureError):
            load_bundle(tmp_path / "b")

    def test_unwritable_destination(self, tmp_path, bundle):
        blocker = tmp_path / "occupied"
        blocker.write_text("a file where a directory is needed")
        with pytest.raises(IoFailureError):
            write_bundle(bundle, blocker / "b")


def _set_header(offset, fmt, *values):
    def corrupt(raw):
        raw = bytearray(raw)
        struct.pack_into(fmt, raw, offset, *values)
        return bytes(raw)
    return corrupt


def _huge_dims(raw):
    # about 2**40 elements declared over the payload of a tiny file
    ndim = raw[6]
    return _set_header(7, f"<{ndim}Q", 2**40, *[1] * (ndim - 1))(raw)


# detail texts of the loader before payloads were read into aligned arrays;
# the default fixture bundle has labels (3, 8, 8) and features (3, 8, 8, 4)
LOADER_ERRORS = [
    ("shorter-than-header", lambda raw: raw[:20],
     {"labels.bin": "labels.bin: file shorter than header",
      "features.bin": "features.bin: file shorter than header"}),
    ("bad-magic", _set_header(0, "<4s", b"NOPE"),
     {"labels.bin": "labels.bin: bad magic b'NOPE'",
      "features.bin": "features.bin: bad magic b'NOPE'"}),
    ("version-2", _set_header(4, "<H", 2),
     {"labels.bin": "labels.bin: unsupported version 2",
      "features.bin": "features.bin: unsupported version 2"}),
    ("wrong-ndim", _set_header(6, "<B", 2),
     {"labels.bin": "labels.bin: expected ndim 3, got 2",
      "features.bin": "features.bin: expected ndim 4, got 2"}),
    ("truncated-payload", lambda raw: raw[:-1],
     {"labels.bin": "labels.bin: payload length 191 does not match dims "
                    "(3, 8, 8)",
      "features.bin": "features.bin: payload length 3071 does not match dims "
                      "(3, 8, 8, 4)"}),
    ("trailing-byte", lambda raw: raw + b"\x00",
     {"labels.bin": "labels.bin: payload length 193 does not match dims "
                    "(3, 8, 8)",
      "features.bin": "features.bin: payload length 3073 does not match dims "
                      "(3, 8, 8, 4)"}),
    ("huge-dims", _huge_dims,
     {"labels.bin": "labels.bin: payload length 192 does not match dims "
                    "(1099511627776, 1, 1)",
      "features.bin": "features.bin: payload length 3072 does not match dims "
                      "(1099511627776, 1, 1, 1)"}),
]


@pytest.mark.parametrize("name", ["labels.bin", "features.bin"])
@pytest.mark.parametrize("corrupt, details",
                         [case[1:] for case in LOADER_ERRORS],
                         ids=[case[0] for case in LOADER_ERRORS])
def test_loader_error_contract(tmp_path, bundle, name, corrupt, details):
    # huge-dims also shows the length check runs before the payload is
    # allocated: 2**40 elements would not fit in memory
    write_bundle(bundle, tmp_path / "b")
    f = tmp_path / "b" / name
    f.write_bytes(corrupt(f.read_bytes()))
    with pytest.raises(CorruptBinaryError) as info:
        load_bundle(tmp_path / "b")
    assert info.value.detail == details[name]


def test_short_payload_read(tmp_path, bundle, monkeypatch):
    # a file that shrinks after its size was taken reads short: the labels
    # read whole, the features in the load's streaming pass, and the sampled
    # rows of a loaded set whose file lost its last byte but kept its mtime
    fstat, grown = os.fstat, set()

    def reported(fd):
        real = fstat(fd)
        if real.st_ino not in grown:
            return real
        return types.SimpleNamespace(
            st_dev=real.st_dev, st_ino=real.st_ino,
            st_mtime_ns=real.st_mtime_ns, st_size=real.st_size + 1)

    def shrink(f):
        before = os.stat(f)
        f.write_bytes(f.read_bytes()[:-1])
        os.utime(f, ns=(before.st_atime_ns, before.st_mtime_ns))
        grown.add(before.st_ino)

    monkeypatch.setattr(os, "fstat", reported)
    for d in ("labels", "stream", "rows"):
        write_bundle(bundle, tmp_path / d)
    loaded = load_bundle(tmp_path / "rows")
    shrink(tmp_path / "labels" / "labels.bin")
    shrink(tmp_path / "stream" / "features.bin")
    shrink(tmp_path / "rows" / "features.bin")
    changed = "; the file changed since the bundle was loaded"
    # features.bin: a 39-byte header, then 192 rows of 4 float32 (16 bytes)
    for read, detail in [
            (lambda: load_bundle(tmp_path / "labels"),
             "labels.bin: read short at byte 222" + changed),
            (lambda: load_bundle(tmp_path / "stream"),
             "features.bin: read short at byte 3110" + changed),
            (lambda: loaded.features.pixel_rows(np.array([191])),
             "features.bin: read short at byte 3110" + changed)]:
        with pytest.raises(CorruptBinaryError) as info:
            read()
        assert info.value.detail == detail


def test_write_bundle_streams_payload(tmp_path):
    # an 8 MiB features payload is written from its own buffer, not a copy
    b = generate_tasks(SynthSpec(n_tasks=1, n_samples=16, height=32,
                                 width=32, channels=128,
                                 signal_strengths=(0.5,)))[0]
    tracemalloc.start()
    try:
        write_bundle(b, tmp_path / "b")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    loaded = load_bundle(tmp_path / "b")
    assert loaded.labels.masks.tobytes() == b.labels.masks.tobytes()
    assert loaded.features.features.tobytes() == b.features.features.tobytes()


def test_loaded_arrays_are_aligned_read_only_and_exact(tmp_path, bundle):
    # the 39-byte features header used to leave a misaligned float32 view
    write_bundle(bundle, tmp_path / "b")
    loaded = load_bundle(tmp_path / "b")
    for got, want in ((loaded.features.features, bundle.features.features),
                      (loaded.labels.masks, bundle.labels.masks)):
        assert got.flags.aligned
        assert not got.flags.writeable
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_whole_payload_read_by_many_threads(tmp_path):
    # threads scoring against one target ask for its whole array at once;
    # each reads it from disk and gets the bytes that were written
    bundle = make_bundle(n=3, h=8, w=8, c=64)
    write_bundle(bundle, tmp_path / "b")
    loaded = load_bundle(tmp_path / "b")
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(
            target=lambda: got.append(loaded.features.features))
            for _ in range(8)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    want = bundle.features.features.tobytes()
    assert len(got) == 8 and all(a.tobytes() == want for a in got)


def test_whole_read_keeps_no_copy(tmp_path, bundle):
    # rows read after a whole read come from the file, so a change to it
    # is still caught
    write_bundle(bundle, tmp_path / "b")
    loaded = load_bundle(tmp_path / "b")
    loaded.features.features
    payload = tmp_path / "b" / "features.bin"
    os.truncate(payload, payload.stat().st_size - 4)
    with pytest.raises(CorruptBinaryError) as info:
        flatten_pixels(loaded.features, SubsampleSpec(max_pixels=5))
    assert "changed since the bundle was loaded" in info.value.detail


class TestFlattenPixels:
    def test_row_major_no_subsampling(self):
        b = make_bundle(n=1, h=2, w=2, c=1, seed=3)
        feats, labels = flatten_pixels(b.features, SubsampleSpec(max_pixels=10))
        assert feats.shape == (4, 1)
        expected = b.features.features.reshape(4, 1)
        np.testing.assert_allclose(feats, expected)
        np.testing.assert_array_equal(
            labels, b.labels.masks.reshape(4).astype(np.int64))

    def test_deterministic(self):
        b = make_bundle(n=2, h=4, w=4, c=2, seed=5)
        spec = SubsampleSpec(max_pixels=7, seed=7)
        f1, l1 = flatten_pixels(b.features, spec)
        f2, l2 = flatten_pixels(b.features, spec)
        np.testing.assert_array_equal(f1, f2)
        np.testing.assert_array_equal(l1, l2)

    def test_matches_reference_sampler(self):
        b = make_bundle(n=1, h=2, w=2, c=1, seed=11)
        feats, _ = flatten_pixels(b.features, SubsampleSpec(max_pixels=2, seed=7))
        idx = subsample_reference(4, 2, 7)
        expected = b.features.features.reshape(4, 1)[idx]
        np.testing.assert_allclose(feats, expected)

    def test_pure_reshape_when_capacity_suffices(self):
        b = make_bundle(n=2, h=3, w=5, c=2, seed=1)
        feats, labels = flatten_pixels(b.features,
                                       SubsampleSpec(max_pixels=30))
        assert feats.shape == (30, 2)
        np.testing.assert_allclose(
            feats, b.features.features.reshape(30, 2).astype(np.float64))

    def test_empty_rejected(self):
        with pytest.raises(EmptyFeatureSetError):
            flatten_pixels(None, SubsampleSpec())

    @pytest.mark.parametrize("c, max_pixels, read_bytes", [
        (1, 5, None), (4, 7, None), (4, 192, None), (4, 50, 100),
        (600, 9, None), (600, 40, 5000), (1100, 3, None)],
        ids=["c1", "c4", "c4-every-row", "c4-short-reads", "c600",
             "c600-short-reads", "row-above-read-bytes"])
    def test_rows_read_from_disk_are_bit_identical(self, tmp_path,
                                                   monkeypatch, c,
                                                   max_pixels, read_bytes):
        # the in-memory array is the reference for the rows read from disk
        if read_bytes is not None:
            monkeypatch.setattr(bundle_module, "_READ_BYTES", read_bytes)
        b = make_bundle(n=3, h=8, w=8, c=c, seed=c)
        write_bundle(b, tmp_path / "b")
        loaded = load_bundle(tmp_path / "b")
        for seed in range(4):
            spec = SubsampleSpec(max_pixels=max_pixels, seed=seed)
            (got, got_labels), (want, want_labels) = (
                flatten_pixels(fs, spec) for fs in (loaded.features,
                                                    b.features))
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            np.testing.assert_array_equal(got_labels, want_labels)

    @pytest.mark.parametrize("c", [4, 600])
    def test_one_read_per_sampled_row(self, tmp_path, monkeypatch, c):
        # each sampled row is one pread, consecutive or not; a whole-payload
        # read is cut so that no read passes max(_READ_BYTES, row) bytes:
        # 192 rows with 300-byte reads are 11 reads of up to 18 rows at 4
        # channels, 192 reads of one 2400-byte row at 600 channels
        b = make_bundle(n=3, h=8, w=8, c=c)
        write_bundle(b, tmp_path / "b")
        loaded = load_bundle(tmp_path / "b")
        row = c * 4
        sizes = []
        preadv = os.preadv

        def counted(fd, buffers, offset):
            sizes.append(sum(memoryview(buf).nbytes for buf in buffers))
            return preadv(fd, buffers, offset)

        monkeypatch.setattr(os, "preadv", counted)
        for rows in (np.arange(10, 110), np.array([47, 48, 3, 190, 47])):
            sizes.clear()
            got = loaded.features.pixel_rows(rows)
            assert sizes == [row] * len(rows)
            assert got.tobytes() == b.features.pixel_rows(rows).tobytes()
        sizes.clear()
        flatten_pixels(loaded.features, SubsampleSpec(max_pixels=9, seed=0))
        assert sizes == [row] * 9

        sizes.clear()
        monkeypatch.setattr(bundle_module, "_READ_BYTES", 300)
        got = loaded.features.pixel_rows()
        assert len(sizes) == {4: 11, 600: 192}[c]
        assert max(sizes) <= max(300, row) and sum(sizes) == 192 * row
        assert got.tobytes() == b.features.pixel_rows().tobytes()

    @pytest.mark.parametrize("rows", [[5, 2], [3, 3, 7], [0, 31, 1]],
                             ids=["descending", "duplicates", "unsorted"])
    def test_rows_read_from_disk_in_any_order(self, tmp_path, rows):
        b = make_bundle(n=2, h=4, w=4, c=3)
        write_bundle(b, tmp_path / "b")
        loaded = load_bundle(tmp_path / "b")
        rows = np.asarray(rows, dtype=np.int64)
        got, want = (fs.pixel_rows(rows) for fs in (loaded.features,
                                                     b.features))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("row", [-1, -32, 31, 32, -33])
    def test_rows_read_from_disk_index_like_an_array(self, tmp_path, row):
        # 32 rows: a negative row counts from the end, and a row outside
        # -32..31 is numpy's IndexError, not header bytes or a short read
        b = make_bundle(n=2, h=4, w=4, c=3)
        write_bundle(b, tmp_path / "b")
        loaded = load_bundle(tmp_path / "b")
        got = []
        for fs in (loaded.features, b.features):
            try:
                got.append(fs.pixel_rows(np.array([row])).tobytes())
            except IndexError as exc:
                got.append(str(exc))
        assert got[0] == got[1]
        assert isinstance(got[0], bytes) == (-32 <= row < 32)

    @pytest.mark.parametrize("rows", [
        np.arange(32) % 3 == 0, np.zeros(32, bool), np.ones(31, bool),
        np.ones(33, bool), np.array([1.0, 2.0]), np.array(3.0), [],
        np.array([[0, 31], [-1, 5]]), np.array(7, np.uint64), np.array(True),
        np.array(False)],
        ids=["mask", "mask-none", "mask-short", "mask-long", "float-rows",
             "float-row", "empty-list", "2d-rows", "uint-row", "mask-0d-true",
             "mask-0d-false"])
    def test_rows_picked_by_numpys_rule_on_both_stores(self, tmp_path, rows):
        # either store picks the same rows, or raises numpy's own IndexError
        b = make_bundle(n=2, h=4, w=4, c=3)
        write_bundle(b, tmp_path / "b")
        loaded = load_bundle(tmp_path / "b")
        got = []
        for fs in (loaded.features, b.features):
            try:
                picked = fs.pixel_rows(rows)
                got.append((picked.shape, picked.tobytes()))
            except IndexError as exc:
                got.append(str(exc))
        assert got[0] == got[1]
        flat = b.features.features.reshape(32, 3)
        try:
            want = flat[rows]
        except IndexError as exc:
            assert got[0] == str(exc)
        else:
            assert got[0] == (want.shape, want.tobytes())
