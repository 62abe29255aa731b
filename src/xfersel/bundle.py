"""Task data model and on-disk bundle format.

A task bundle is a directory with a ``manifest.json``, a ``labels.bin`` and
optionally a ``features.bin``:

* ``labels.bin``:   magic ``XLBL`` | u16 LE version=1 | u8 ndim=3 |
  three u64 LE dims [n_samples, H, W] | row-major u8 payload.
* ``features.bin``: magic ``XFTR`` | u16 LE version=1 | u8 ndim=4 |
  four u64 LE dims [n_samples, H, W, C] | row-major f32 LE payload.

Features are stored as 32-bit floats; all metric arithmetic downstream is
done in 64-bit floats.  Bundles are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CorruptBinaryError,
    EmptyFeatureSetError,
    EmptyLabelSetError,
    InvalidSpecError,
    IoFailureError,
    MissingManifestError,
    NonFiniteFeatureError,
    ShapeMismatchError,
)
from .rng import subsample_indices

LABELS_MAGIC = b"XLBL"
FEATURES_MAGIC = b"XFTR"
FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"
LABELS_NAME = "labels.bin"
FEATURES_NAME = "features.bin"


def canonical_modality(modality: str) -> str:
    """Canonical form used for all modality comparisons: trimmed, uppercase."""
    return modality.strip().upper()


@dataclass(frozen=True)
class TaskDescriptor:
    """Identity and prior-knowledge metadata of a segmentation task."""

    task_id: str
    roi_class: str
    modality: str
    dataset: str = ""
    partition: str | None = None

    def __post_init__(self):
        if not (self.task_id and self.task_id.isprintable()):
            raise InvalidSpecError("task_id must be non-empty printable text")
        object.__setattr__(self, "modality", canonical_modality(self.modality))

    def same_modality(self, other: "TaskDescriptor") -> bool:
        return self.modality == other.modality

    @classmethod
    def from_name(cls, task_id: str, dataset: str = "") -> "TaskDescriptor":
        """Parse a "Class-Partition-Modality" name such as ``ED-14-T2``.

        Two-part names ("Class-Modality") leave the partition unset.
        """
        parts = task_id.split("-")
        if len(parts) == 3:
            roi, partition, modality = parts
        elif len(parts) == 2:
            roi, modality = parts
            partition = None
        else:
            raise InvalidSpecError(f"cannot parse task name {task_id!r}")
        return cls(task_id=task_id, roi_class=roi, modality=modality,
                   dataset=dataset, partition=partition)


@dataclass(frozen=True)
class LabelMaskSet:
    """A stack of 2-D integer segmentation masks for one task."""

    task_id: str
    masks: np.ndarray  # [n_samples, H, W], uint8
    positive_class: int = 1

    def __post_init__(self):
        masks = np.asarray(self.masks, dtype=np.uint8)
        if masks.ndim != 3:
            raise ShapeMismatchError(
                f"label masks must be [n_samples, H, W], got ndim={masks.ndim}")
        if masks.shape[0] == 0 or masks.shape[1] == 0 or masks.shape[2] == 0:
            raise EmptyLabelSetError(f"task {self.task_id!r} has empty masks")
        masks.setflags(write=False)
        object.__setattr__(self, "masks", masks)

    @property
    def n_samples(self) -> int:
        return self.masks.shape[0]

    @property
    def height(self) -> int:
        return self.masks.shape[1]

    @property
    def width(self) -> int:
        return self.masks.shape[2]

    def binarized(self) -> np.ndarray:
        """Foreground occupancy as float64 0/1 against positive_class."""
        return (self.masks == self.positive_class).astype(np.float64)


@dataclass(frozen=True)
class PixelFeatureSet:
    """Per-pixel feature vectors exported from a source model, label-aligned."""

    task_id: str
    features: np.ndarray  # [n_samples, H, W, C], float32
    aligned_labels: LabelMaskSet

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float32)
        if feats.ndim != 4:
            raise ShapeMismatchError(
                f"features must be [n_samples, H, W, C], got ndim={feats.ndim}")
        if feats.shape[:3] != self.aligned_labels.masks.shape:
            raise ShapeMismatchError(
                f"features {feats.shape[:3]} do not align with labels "
                f"{self.aligned_labels.masks.shape}")
        if feats.shape[3] == 0:
            raise EmptyFeatureSetError("feature sets need at least one channel")
        if not np.isfinite(feats).all():
            raise NonFiniteFeatureError(
                f"task {self.task_id!r} features contain NaN/Inf")
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)

    @property
    def channels(self) -> int:
        return self.features.shape[3]

    @property
    def n_pixels(self) -> int:
        n, h, w, _ = self.features.shape
        return n * h * w


@dataclass(frozen=True)
class TaskBundle:
    descriptor: TaskDescriptor
    labels: LabelMaskSet
    features: PixelFeatureSet | None = None
    extractor: str | None = None

    def __post_init__(self):
        if self.features is not None:
            if self.features.aligned_labels.masks.shape != self.labels.masks.shape:
                raise ShapeMismatchError(
                    "bundle features are not aligned with bundle labels")

    @property
    def task_id(self) -> str:
        return self.descriptor.task_id


@dataclass(frozen=True)
class SubsampleSpec:
    """Cap on pixels entering a metric, with the seed that picks them."""

    max_pixels: int = 4096
    seed: int = 42

    def __post_init__(self):
        if self.max_pixels < 1:
            raise InvalidSpecError("max_pixels must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise InvalidSpecError("seed must fit in 64 unsigned bits")


# ---------------------------------------------------------------------------
# binary codecs
# ---------------------------------------------------------------------------

def _encode_array(magic: bytes, arr: np.ndarray, dtype: np.dtype) -> bytes:
    dims = arr.shape
    header = struct.pack("<4sHB", magic, FORMAT_VERSION, len(dims))
    header += struct.pack(f"<{len(dims)}Q", *dims)
    payload = np.ascontiguousarray(arr, dtype=dtype).tobytes()
    return header + payload


def _read_array(file: Path, role: str, magic: bytes, ndim: int,
                dtype: np.dtype) -> np.ndarray:
    """Read and decode one binary file a manifest references.

    The payload is read into a new array, which numpy aligns whatever the
    header length; a view at the header's offset would not be.  The payload
    length is checked against the dims before anything is allocated.
    """
    if not file.is_file():
        raise MissingManifestError(f"referenced {role} file missing: {file}")
    name = file.name
    head_len = 4 + 2 + 1 + 8 * ndim
    try:
        with open(file, "rb") as fh:
            head = fh.read(head_len)
            if len(head) < head_len:
                raise CorruptBinaryError(f"{name}: file shorter than header")
            got_magic, version, got_ndim = struct.unpack_from("<4sHB", head, 0)
            if got_magic != magic:
                raise CorruptBinaryError(f"{name}: bad magic {got_magic!r}")
            if version != FORMAT_VERSION:
                raise CorruptBinaryError(
                    f"{name}: unsupported version {version}")
            if got_ndim != ndim:
                raise CorruptBinaryError(
                    f"{name}: expected ndim {ndim}, got {got_ndim}")
            dims = struct.unpack_from(f"<{ndim}Q", head, 7)
            expected = math.prod(dims) * np.dtype(dtype).itemsize
            length = os.fstat(fh.fileno()).st_size - head_len
            if length == expected:
                arr = np.empty(dims, dtype=dtype)
                length = fh.readinto(arr)
            if length != expected:
                raise CorruptBinaryError(
                    f"{name}: payload length {length} does not match "
                    f"dims {dims}")
    except OSError as exc:
        raise IoFailureError(str(exc)) from exc
    return arr


# ---------------------------------------------------------------------------
# bundle I/O
# ---------------------------------------------------------------------------

def read_text(path: str | Path) -> str:
    """The UTF-8 text of an input file, each failure one library error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoFailureError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise InvalidSpecError(f"{path}: {exc}") from exc


def json_is(value, kinds) -> bool:
    """isinstance for decoded JSON, where a bool must not pass as a number."""
    return isinstance(value, kinds) and not isinstance(value, bool)


# the JSON types each manifest key may take, checked where the key is present;
# "files" is checked before its entries
_MANIFEST_TYPES = {
    "task_id": str, "roi_class": str, "modality": str, "dataset": str | None,
    "partition": str | None, "n_samples": int, "height": int, "width": int,
    "channels": int | None, "positive_class": int, "extractor": str | None,
    "files": dict,
}
_FILES_TYPES = {"labels": str, "features": str}


def write_bundle(bundle: TaskBundle, path: str | Path) -> None:
    """Write a bundle directory; loading it back reproduces the bundle bit-exactly."""
    path = Path(path)
    d = bundle.descriptor
    manifest = {
        "task_id": d.task_id,
        "roi_class": d.roi_class,
        "modality": d.modality,
        "dataset": d.dataset,
        "partition": d.partition,
        "n_samples": bundle.labels.n_samples,
        "height": bundle.labels.height,
        "width": bundle.labels.width,
        "channels": bundle.features.channels if bundle.features else None,
        "positive_class": bundle.labels.positive_class,
        "extractor": bundle.extractor,
        "files": {"labels": LABELS_NAME},
    }
    if bundle.features is not None:
        manifest["files"]["features"] = FEATURES_NAME
    try:
        path.mkdir(parents=True, exist_ok=True)
        (path / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        (path / LABELS_NAME).write_bytes(
            _encode_array(LABELS_MAGIC, bundle.labels.masks, np.uint8))
        if bundle.features is not None:
            (path / FEATURES_NAME).write_bytes(
                _encode_array(FEATURES_MAGIC,
                              bundle.features.features,
                              np.dtype("<f4")))
    except OSError as exc:
        raise IoFailureError(f"cannot write bundle to {path}: {exc}") from exc


def load_bundle(path: str | Path) -> TaskBundle:
    """Load and eagerly validate a task bundle directory."""
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.is_file():
        raise MissingManifestError(f"no {MANIFEST_NAME} in {path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise MissingManifestError(f"unreadable manifest in {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise MissingManifestError(f"manifest in {path} is not a JSON object")

    for key in ("task_id", "roi_class", "modality", "n_samples",
                "height", "width", "files"):
        if key not in manifest:
            raise MissingManifestError(f"manifest misses key {key!r}")
    for doc, kinds, prefix in ((manifest, _MANIFEST_TYPES, ""),
                               (manifest["files"], _FILES_TYPES, "files.")):
        for key, kind in kinds.items():
            if key in doc and not json_is(doc[key], kind):
                raise MissingManifestError(f"manifest key {prefix}{key} has "
                                           f"the wrong type: {doc[key]!r}")

    descriptor = TaskDescriptor(
        task_id=manifest["task_id"],
        roi_class=manifest["roi_class"],
        modality=manifest["modality"],
        dataset=manifest.get("dataset") or "",
        partition=manifest.get("partition"),
    )

    files = manifest["files"]
    masks = _read_array(path / files.get("labels", LABELS_NAME), "labels",
                        LABELS_MAGIC, 3, np.uint8)

    declared = (manifest["n_samples"], manifest["height"], manifest["width"])
    if tuple(masks.shape) != tuple(declared):
        raise ShapeMismatchError(
            f"labels {masks.shape} disagree with manifest {declared}")

    labels = LabelMaskSet(task_id=descriptor.task_id, masks=masks,
                          positive_class=manifest.get("positive_class", 1))

    features = None
    if "features" in files:
        feats = _read_array(path / files["features"], "features",
                            FEATURES_MAGIC, 4, np.dtype("<f4"))
        if manifest.get("channels") is not None \
                and feats.shape[3] != manifest["channels"]:
            raise ShapeMismatchError(
                f"features carry {feats.shape[3]} channels, manifest says "
                f"{manifest['channels']}")
        features = PixelFeatureSet(task_id=descriptor.task_id,
                                   features=feats, aligned_labels=labels)

    return TaskBundle(descriptor=descriptor, labels=labels, features=features,
                      extractor=manifest.get("extractor"))


# ---------------------------------------------------------------------------
# pixel flattening
# ---------------------------------------------------------------------------

def flatten_pixels(fs: PixelFeatureSet,
                   sampler: SubsampleSpec) -> tuple[np.ndarray, np.ndarray]:
    """Flatten a feature set to (features [N, C], labels [N]) pixel lists.

    Pixels are ordered row-major by (sample, row, col).  When the total pixel
    count exceeds ``sampler.max_pixels`` a seeded uniform subsample without
    replacement is taken (see :mod:`xfersel.rng`), preserving row-major order
    of the chosen indices.  Arithmetic downstream expects the returned
    features, so they are promoted to float64 here.
    """
    if fs is None or fs.n_pixels == 0:
        raise EmptyFeatureSetError("cannot flatten an empty feature set")
    n_total = fs.n_pixels
    feats = fs.features.reshape(n_total, fs.channels)
    labels = fs.aligned_labels.masks.reshape(n_total)
    if n_total > sampler.max_pixels:
        idx = np.asarray(subsample_indices(n_total, sampler.max_pixels,
                                           sampler.seed), dtype=np.int64)
        feats, labels = feats[idx], labels[idx]
    return feats.astype(np.float64), labels.astype(np.int64)
