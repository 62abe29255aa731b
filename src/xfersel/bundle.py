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

One reader, ``_Payload``, serves both files: ``check`` validates the header
and the payload length and records the file's identity (device, inode,
size, mtime), ``read()`` returns the whole array and ``read(rows)`` the
sampled feature rows.  :func:`load_bundle` reads the labels whole and
leaves the features payload on disk, checking its finiteness in one
streaming pass.  :func:`flatten_pixels` then reads only the rows it
samples; ``PixelFeatureSet.features`` reads the whole array at each use
and keeps no copy.  Each read checks the identity again, that it did not
come up short and that the values it read are finite, so a
``features.bin`` changed after loading is ``CorruptBinary``
(``NonFiniteFeature`` for a NaN written without changing its size or mtime,
``IoFailure`` once deleted).  :func:`write_bundle` writes each header and
then the array's own buffer, so it holds no copy of a payload.
"""

from __future__ import annotations

import contextlib
import json
import math
import mmap
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CorruptBinaryError,
    DimensionMismatchError,
    EmptyFeatureSetError,
    EmptyLabelSetError,
    InvalidSpecError,
    IoFailureError,
    MissingFeaturesError,
    MissingManifestError,
    NonFiniteFeatureError,
    ShapeMismatchError,
)
from .rng import subsample_indices

LABELS_MAGIC = b"XLBL"
FEATURES_MAGIC = b"XFTR"
FORMAT_VERSION = 1

# the features payload's element type, float32 little-endian
_FEATURE_DTYPE = np.dtype("<f4")
# bytes a streaming pass or a merged row read takes from a file at a time
_READ_BYTES = 256 << 10

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
        label = self.positive_class
        if (not isinstance(label, (int, np.integer)) or isinstance(label, bool)
                or not 0 <= label <= 255):
            raise InvalidSpecError(f"positive_class must be a uint8 label "
                                   f"in 0..255, got {label!r}")
        with np.errstate(invalid="ignore"):
            masks = np.asarray(self.masks).astype(np.uint8, copy=False)
        if not np.array_equal(masks, self.masks):
            raise InvalidSpecError(f"task {self.task_id!r} has non-uint8 masks")
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


class PixelFeatureSet:
    """Per-pixel feature vectors exported from a source model, label-aligned.

    The [n_samples, H, W, C] float32 values come from one of two places: an
    array (synthetic tasks, tests, library callers) or the ``features.bin``
    payload :func:`load_bundle` checked, read again at every use.  Either
    way the set is checked whole at construction, and every read returns
    the same bits.  A set is immutable and safe to share across threads.
    """

    def __init__(self, task_id: str, features, aligned_labels: LabelMaskSet):
        self.task_id = task_id
        self.aligned_labels = aligned_labels
        if isinstance(features, _Payload):
            self._file, self._array = features, None
            shape = features.dims
        else:
            self._file = None
            self._array = np.asarray(features, dtype=np.float32)
            shape = self._array.shape
        if len(shape) != 4:
            raise ShapeMismatchError(
                f"features must be [n_samples, H, W, C], got ndim={len(shape)}")
        if shape[:3] != aligned_labels.masks.shape:
            raise ShapeMismatchError(
                f"features {shape[:3]} do not align with labels "
                f"{aligned_labels.masks.shape}")
        if shape[3] == 0:
            raise EmptyFeatureSetError("feature sets need at least one channel")
        self._shape = shape
        if self._file is None:
            self._checked(self._array)
        elif not self._file.all_finite():
            self._non_finite()

    def _non_finite(self):
        raise NonFiniteFeatureError(
            f"task {self.task_id!r} features contain NaN/Inf")

    def _checked(self, values: np.ndarray) -> np.ndarray:
        """``values``, read-only, once they are all finite."""
        if not _all_finite(values):
            self._non_finite()
        values.setflags(write=False)
        return values

    @property
    def features(self) -> np.ndarray:
        """The whole [n_samples, H, W, C] array.  A set on disk reads it at
        each call and checks it again."""
        if self._file is None:
            return self._array
        return self._checked(self._file.read())

    def pixel_rows(self, rows: np.ndarray | None = None) -> np.ndarray:
        """Rows of the [n_pixels, C] pixel view: the ascending ``rows``, or
        all; a set on disk reads just those rows and checks them again."""
        if rows is not None and self._file is not None:
            return self._checked(self._file.read(rows))
        flat = self.features.reshape(self.n_pixels, self.channels)
        return flat if rows is None else flat[rows]

    @property
    def channels(self) -> int:
        return self._shape[3]

    @property
    def n_pixels(self) -> int:
        n, h, w, _ = self._shape
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

    def require_features(self, what: str) -> PixelFeatureSet:
        """The feature export, which ``what`` (a metric or a command) needs."""
        if self.features is None:
            raise MissingFeaturesError(
                f"{what} needs features on {self.task_id}")
        return self.features


def same_channels(a: int, b: int) -> None:
    """Check that two feature exports carry ``a`` and ``b`` equal channels."""
    if a != b:
        raise DimensionMismatchError(f"channel counts differ: {a} vs {b}")


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

def _write_array(file: Path, magic: bytes, arr: np.ndarray,
                 dtype: np.dtype) -> None:
    """Write the header, then the array's own buffer; a C-ordered array of
    ``dtype`` is not copied."""
    arr = np.ascontiguousarray(arr, dtype=dtype)
    with open(file, "wb") as fh:
        fh.write(struct.pack(f"<4sHB{arr.ndim}Q", magic, FORMAT_VERSION,
                             arr.ndim, *arr.shape))
        fh.write(arr.data)


@contextlib.contextmanager
def _opened(file: Path, identity: tuple | None = None):
    """``file`` open for reading, every ``OSError`` in the block an
    ``IoFailure``.  With the ``identity`` a load recorded, a file that no
    longer has it is ``CorruptBinary``."""
    try:
        with open(file, "rb") as fh:
            if identity and _identity(os.fstat(fh.fileno())) != identity:
                raise CorruptBinaryError(
                    f"{file.name}: changed since the bundle was loaded")
            yield fh
    except OSError as exc:
        raise IoFailureError(str(exc)) from exc


def _identity(stat: os.stat_result) -> tuple[int, int, int, int]:
    return stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns


def _all_finite(values: np.ndarray) -> bool:
    """``np.isfinite(values).all()``, a block of ``_READ_BYTES`` at a time,
    so no mask of the whole array is made."""
    flat = values.reshape(-1)
    step = _READ_BYTES // flat.itemsize
    mask = np.empty(min(step, flat.size), bool)
    return all(np.isfinite(block, out=mask[:len(block)]).all()
               for block in (flat[i:i + step]
                             for i in range(0, flat.size, step)))


@dataclass(frozen=True)
class _Payload:
    """A ``labels.bin`` or ``features.bin`` whose header a load checked.

    ``identity`` is the file's (device, inode, size, mtime) at that check;
    every later read opens the file and compares it first.  A rewrite that
    keeps the size within the file system's timestamp resolution keeps the
    identity, and only the finiteness check of each features read applies
    to it.
    """

    file: Path
    offset: int
    dims: tuple[int, ...]
    dtype: np.dtype
    identity: tuple[int, int, int, int]

    @classmethod
    def check(cls, file: Path, role: str, magic: bytes, ndim: int,
              dtype: np.dtype) -> "_Payload":
        """Check the header of a binary file a manifest references, and its
        payload length against the dims, before anything is allocated."""
        if not file.is_file():
            raise MissingManifestError(
                f"referenced {role} file missing: {file}")
        name, head_len = file.name, 4 + 2 + 1 + 8 * ndim
        with _opened(file) as fh:
            head = fh.read(head_len)
            stat = os.fstat(fh.fileno())
        if len(head) < head_len:
            raise CorruptBinaryError(f"{name}: file shorter than header")
        got_magic, version, got_ndim = struct.unpack_from("<4sHB", head, 0)
        if got_magic != magic:
            raise CorruptBinaryError(f"{name}: bad magic {got_magic!r}")
        if version != FORMAT_VERSION:
            raise CorruptBinaryError(f"{name}: unsupported version {version}")
        if got_ndim != ndim:
            raise CorruptBinaryError(
                f"{name}: expected ndim {ndim}, got {got_ndim}")
        payload = cls(file, head_len, struct.unpack_from(f"<{ndim}Q", head, 7),
                      np.dtype(dtype), _identity(stat))
        payload._expect_length(stat.st_size - head_len)
        return payload

    def _expect_length(self, length: int):
        if length != math.prod(self.dims) * self.dtype.itemsize:
            raise CorruptBinaryError(f"{self.file.name}: payload length "
                                     f"{length} does not match dims "
                                     f"{self.dims}")

    def _short(self, position: int):
        raise CorruptBinaryError(
            f"{self.file.name}: read short at byte {position}; the file "
            f"changed since the bundle was loaded")

    def all_finite(self) -> bool:
        """Whether every payload value is finite, in one pass through one
        buffer of ``_READ_BYTES``."""
        buf = np.empty(_READ_BYTES // self.dtype.itemsize, self.dtype)
        with _opened(self.file, self.identity) as fh:
            fh.seek(self.offset)
            left = math.prod(self.dims)
            while left:
                block = buf[:min(left, len(buf))]
                if fh.readinto(block) != block.nbytes:
                    self._short(fh.tell())
                if not _all_finite(block):
                    return False
                left -= len(block)
        return True

    def read(self, rows: np.ndarray | None = None) -> np.ndarray:
        """The whole payload, read into a new array, which numpy aligns
        whatever the header length (a view at the header's offset would not
        be); or the ascending ``rows`` of the [n_pixels, C] view."""
        with _opened(self.file, self.identity) as fh:
            if rows is not None:
                return self._gather(fh.fileno(), rows)
            out = np.empty(self.dims, self.dtype)
            fh.seek(self.offset)
            self._expect_length(fh.readinto(out))
            return out

    def _gather(self, fd: int, rows: np.ndarray) -> np.ndarray:
        """Rows less than a page apart share one ``pread`` of at most
        ``_READ_BYTES`` (or one row); adjacent rows land in place."""
        width = self.dims[-1]
        row = width * self.dtype.itemsize
        out = np.empty((len(rows), width), self.dtype)
        buf = np.empty(max(_READ_BYTES, row), np.uint8)
        starts = (self.offset + rows * row).tolist()
        lo = 0
        for hi in range(1, len(rows) + 1):
            if (hi < len(rows)
                    and starts[hi] - starts[hi - 1] < row + mmap.PAGESIZE
                    and starts[hi] + row - starts[lo] <= len(buf)):
                continue
            span = starts[hi - 1] + row - starts[lo]
            adjacent = span == (hi - lo) * row
            into = out[lo:hi] if adjacent else buf[:span]
            if os.preadv(fd, [into], starts[lo]) != span:
                self._short(starts[lo])
            if not adjacent:
                out[lo:hi] = into.view(self.dtype).reshape(-1, width)[
                    rows[lo:hi] - rows[lo]]
            lo = hi
        return out


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
        _write_array(path / LABELS_NAME, LABELS_MAGIC, bundle.labels.masks,
                     np.uint8)
        if bundle.features is not None:
            _write_array(path / FEATURES_NAME, FEATURES_MAGIC,
                         bundle.features.features, _FEATURE_DTYPE)
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
    masks = _Payload.check(path / files.get("labels", LABELS_NAME), "labels",
                           LABELS_MAGIC, 3, np.uint8)
    declared = (manifest["n_samples"], manifest["height"], manifest["width"])
    if masks.dims != declared:
        raise ShapeMismatchError(
            f"labels {masks.dims} disagree with manifest {declared}")

    labels = LabelMaskSet(task_id=descriptor.task_id, masks=masks.read(),
                          positive_class=manifest.get("positive_class", 1))

    features = None
    if "features" in files:
        payload = _Payload.check(path / files["features"], "features",
                                 FEATURES_MAGIC, 4, _FEATURE_DTYPE)
        channels = payload.dims[3]
        if manifest.get("channels") is not None \
                and channels != manifest["channels"]:
            raise ShapeMismatchError(
                f"features carry {channels} channels, manifest says "
                f"{manifest['channels']}")
        features = PixelFeatureSet(task_id=descriptor.task_id,
                                   features=payload, aligned_labels=labels)

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
    features, so they are promoted to float64 here.  A set on disk reads
    only the chosen rows.
    """
    if fs is None or fs.n_pixels == 0:
        raise EmptyFeatureSetError("cannot flatten an empty feature set")
    n_total = fs.n_pixels
    labels = fs.aligned_labels.masks.reshape(n_total)
    rows = None
    if n_total > sampler.max_pixels:
        rows = np.asarray(subsample_indices(n_total, sampler.max_pixels,
                                            sampler.seed), dtype=np.int64)
        labels = labels[rows]
    return fs.pixel_rows(rows).astype(np.float64), labels.astype(np.int64)
