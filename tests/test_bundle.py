import mmap
import os
import struct
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest

from xfersel import bundle as bundle_module
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
      for value in (300, -1, 0.7, np.nan)],
    (lambda: PixelFeatureSet("x", np.zeros((3, 8, 8)), _masks(3, 8, 8)),
     "ShapeMismatch", "features must be [n_samples, H, W, C], got ndim=3"),
    (lambda: PixelFeatureSet("x", np.zeros((3, 8, 8, 0)), _masks(3, 8, 8)),
     "EmptyFeatureSet", "feature sets need at least one channel"),
    (lambda: TaskBundle(TaskDescriptor.from_name("ED-1-T2"), _masks(3, 8, 8),
                        make_bundle(n=2).features),
     "ShapeMismatch", "bundle features are not aligned with bundle labels"),
], ids=["one-part-name", "seed-over-64-bits", "masks-2d", "masks-empty-axis",
        "positive-class-256", "positive-class-negative",
        "positive-class-float", "positive-class-str", "positive-class-bool",
        "masks-300", "masks-negative", "masks-fraction", "masks-nan",
        "features-3d",
        "features-no-channel", "features-misaligned"])
def test_spec_guards(call, code, detail):
    with pytest.raises(XferselError) as info:
        call()
    assert (info.value.code, info.value.detail) == (code, detail)


@pytest.mark.parametrize("label", [0, 2, 255, np.uint8(2), np.int64(255)],
                         ids=repr)
def test_integer_positive_class_accepted(label):
    masks = np.array([[[0, 2], [255, 2]]], np.uint8)
    labels = LabelMaskSet(task_id="x", masks=masks, positive_class=label)
    np.testing.assert_array_equal(labels.binarized(), masks == label)


@pytest.mark.parametrize("masks", [[[[0, 1], [255, 2]]],
                                   np.array([[[False, True], [True, False]]])],
                         ids=["python-int", "bool"])
def test_masks_that_cast_exactly_load(masks):
    labels = LabelMaskSet(task_id="x", masks=masks)
    assert labels.masks.dtype == np.uint8
    np.testing.assert_array_equal(labels.masks, masks)


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
             "labels.bin: payload length 191 does not match dims (3, 8, 8)"),
            (lambda: load_bundle(tmp_path / "stream"),
             "features.bin: read short at byte 3110" + changed),
            (lambda: loaded.features.pixel_rows(np.array([191])),
             "features.bin: read short at byte 3095" + changed)]:
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
    def test_rows_within_a_page_share_one_read(self, tmp_path, monkeypatch,
                                               c):
        # 4 channels: the 3 KiB payload is one read; 600 channels: of the
        # 9 rows of 2400 bytes drawn, rows 47 and 48 share a read and the
        # others, at least 7200 bytes apart, are one read each on 4 KiB pages
        b = make_bundle(n=3, h=8, w=8, c=c)
        write_bundle(b, tmp_path / "b")
        loaded = load_bundle(tmp_path / "b")
        offsets = []
        preadv = os.preadv

        def counted(fd, buffers, offset):
            offsets.append(offset)
            return preadv(fd, buffers, offset)

        monkeypatch.setattr(os, "preadv", counted)
        rows = np.asarray(subsample_reference(192, 9, 0), dtype=np.int64)
        flatten_pixels(loaded.features, SubsampleSpec(max_pixels=9, seed=0))
        starts = 39 + rows * c * 4
        gaps = np.diff(starts) - c * 4
        assert len(offsets) == 1 + int((gaps >= mmap.PAGESIZE).sum())
