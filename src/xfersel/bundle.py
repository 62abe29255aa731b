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
size, mtime); one loop, ``_Payload.blocks``, then makes every read, one
``preadv`` per block of consecutive rows of the whole payload or per
sampled row.  :func:`load_bundle` reads the labels whole and leaves the
features payload on disk, checking its finiteness in one pass through a
reused buffer.  :func:`flatten_pixels` reads only the rows it samples,
each in a ``preadv`` of its own, and ``pixel_rows`` picks rows by numpy's
own rule for both stores; ``PixelFeatureSet.features`` reads the whole
array at each use and keeps no copy.  Each read checks the identity again,
that it did not come up short (``read short at byte <P>``, where the data
ran out) and that the features it read are finite, so a ``features.bin``
changed after loading is ``CorruptBinary`` (``NonFiniteFeature`` for a
NaN written without changing its size or mtime, ``IoFailure`` once
deleted).  :func:`write_bundle` writes each header and then the array's
own buffer, so it holds no copy of a payload.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import numbers
import os
import struct
import typing
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
    MissingLabelsError,
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
# bytes a streaming pass reads at a time
_READ_BYTES = 256 << 10

MANIFEST_NAME = "manifest.json"
LABELS_NAME = "labels.bin"
FEATURES_NAME = "features.bin"


def _real_array(values, detail: str) -> np.ndarray:
    """``values`` as an array of real numbers (bool, integer or float).
    Complex, object, string or ragged input is ``InvalidSpec: <detail>``
    before any cast: a complex cast warns, a string cast parses text and an
    object cast may raise."""
    try:
        values = np.asarray(values)
    except ValueError:                  # a ragged nested list
        values = np.asarray(None)
    if values.dtype.kind not in "biuf":
        raise InvalidSpecError(detail)
    return values


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
        check_fields(self)
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
        if not (of_kind(label, numbers.Integral) and 0 <= label <= 255):
            raise InvalidSpecError(f"positive_class must be a uint8 label "
                                   f"in 0..255, got {label!r}")
        detail = f"task {self.task_id!r} has non-uint8 masks"
        values = _real_array(self.masks, detail)
        with np.errstate(invalid="ignore"):
            masks = values.astype(np.uint8, copy=False)
        if not np.array_equal(masks, values):
            raise InvalidSpecError(detail)
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

    @property
    def foreground(self) -> np.ndarray:
        """The task's RoI, ``masks == positive_class`` as uint8 0/1, which
        every stage reads; made at each call, so the set keeps no copy."""
        return (self.masks == self.positive_class).view(np.uint8)


class PixelFeatureSet:
    """Per-pixel feature vectors exported from a source model, label-aligned.

    The [n_samples, H, W, C] float32 values come from one of two places: an
    array (synthetic tasks, tests, library callers) or the ``features.bin``
    payload :func:`load_bundle` checked, read again at every use.  Either
    way the set is checked whole at construction, rows are picked by
    numpy's own indexing rule, and every read returns the same bits.  A
    set is immutable and safe to share across threads.
    """

    def __init__(self, task_id: str, features, aligned_labels: LabelMaskSet):
        self.task_id = task_id
        self.aligned_labels = aligned_labels
        if isinstance(features, _Payload):
            self._file, self._array = features, None
            shape = features.dims
        else:
            values = _real_array(
                features, f"task {task_id!r} features must be real numbers")
            self._file = None
            # a value past the float32 range becomes inf, which the
            # finiteness check below names
            with np.errstate(over="ignore"):
                self._array = values.astype(np.float32, copy=False)
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
        elif not all([_all_finite(block) for block in self._file.blocks()]):
            # each block is checked as it lands; the list reads to the end,
            # so the file is closed before a NaN is named
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
        """Rows of the [n_pixels, C] pixel view: all, or those ``rows``
        picks by numpy's own rule (integers, a negative one counting from
        the end, or a boolean mask), in numpy's shape and with its own
        ``IndexError`` for any other index, on either store.  A set on disk
        reads just those rows and checks them again."""
        n = self.n_pixels
        if rows is None:
            return self.features.reshape(n, self.channels)
        shape = np.empty((n, 0), np.uint8)[rows].shape[:-1]  # numpy's rule
        rows = np.asarray(rows)
        rows = (np.flatnonzero(np.broadcast_to(rows, n)).reshape(shape)
                if rows.dtype == bool else rows.astype(np.intp) % n)
        if self._file is None:
            return self._array.reshape(n, self.channels)[rows]
        return self._checked(self._file.read(rows))

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
            if self.labels is None:
                raise MissingLabelsError(self.task_id)
            a, b = self.features.aligned_labels, self.labels
            if a is not b and (a.positive_class != b.positive_class
                               or not np.array_equal(a.masks, b.masks)):
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


def of_kind(value, kinds) -> bool:
    """isinstance, where a bool must not pass as a number."""
    return isinstance(value, kinds) and not isinstance(value, bool)


# each annotation with a rule of its own: what it takes, what each of its
# items takes, what it is stored as and how an error names it; any other
# annotation takes an instance of itself, kept as it is
_RULES = {int: (numbers.Integral, None, int, "an integer"),
          float: (numbers.Real, None, float, "a real number"),
          tuple[float, ...]: ((list, tuple), numbers.Real, tuple,
                              "a list or tuple of real numbers")}
# a dataclass's annotations, resolved once per class
_type_hints = functools.cache(typing.get_type_hints)


def check_fields(params) -> None:
    """Check each field of the dataclass ``params`` by its annotation.  An
    ``int`` takes Python or numpy integers and a ``float`` real numbers,
    each stored as its type; a ``tuple[float, ...]`` takes a list or tuple
    of real numbers, stored as a tuple of them; none takes a bool.  Any
    other annotation takes an instance of it: an enum a member, ``str |
    None`` text or None.  Anything else, or an integer past the float
    range, is ``InvalidSpec: <field> must be <what>, got <value>``."""
    hints = _type_hints(type(params))
    for f in dataclasses.fields(params):
        hint, value = hints[f.name], getattr(params, f.name)
        kinds, items, cast, what = _RULES.get(hint) or (hint, None, None, None)
        try:
            ok = of_kind(value, kinds) and (
                items is None or all(of_kind(v, items) for v in value))
            if ok and cast:
                object.__setattr__(params, f.name, cast(value))
        except OverflowError:           # an integer past the float range
            ok = False
        if not ok:
            what = what or f"of type {getattr(hint, '__name__', hint)}"
            raise InvalidSpecError(f"{f.name} must be {what}, got {value!r}")


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
        check_fields(self)
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
    every later read goes through :meth:`blocks`, which opens the file and
    compares it first.  A rewrite that keeps the size within the file
    system's timestamp resolution keeps the identity, and only the
    finiteness check of each features read applies to it.
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
        dims = struct.unpack_from(f"<{ndim}Q", head, 7)
        length = stat.st_size - head_len
        if length != math.prod(dims) * np.dtype(dtype).itemsize:
            raise CorruptBinaryError(f"{name}: payload length {length} does "
                                     f"not match dims {dims}")
        return cls(file, head_len, dims, np.dtype(dtype), _identity(stat))

    def read(self, rows: np.ndarray | None = None) -> np.ndarray:
        """The whole payload, read into a new array, which numpy aligns
        whatever the header length (a view at the header's offset would not
        be); or the non-negative ``rows``, in any order, of the [n, C]
        view."""
        out = np.empty(self.dims if rows is None
                       else (*rows.shape, self.dims[-1]), self.dtype)
        for _ in self.blocks(rows, out):
            pass
        return out

    def blocks(self, rows: np.ndarray | None = None,
               out: np.ndarray | None = None):
        """The one read loop: read the whole payload, or the non-negative
        ``rows`` of the [n, C] view, into ``out`` or, when None, through one
        reused buffer, and yield each block as it lands.  A block is one
        ``preadv``: of consecutive rows of the whole payload, cut so that
        none passes ``_READ_BYTES`` (or one row), or of one sampled row.  A
        read that comes up short names the byte where the data ran out."""
        *lead, width = self.dims
        n, row = math.prod(lead), width * self.dtype.itemsize
        step = max(_READ_BYTES // row, 1)
        if rows is None:
            cuts = [(i, i, min(step, n - i)) for i in range(0, n, step)]
        else:
            cuts = [(r, i, 1) for i, r in enumerate(rows.reshape(-1).tolist())]
        into = (np.empty((min(step, n), width), self.dtype) if out is None
                else out.reshape(-1, width))
        with _opened(self.file, self.identity) as fh:
            for first, place, count in cuts:
                lo = 0 if out is None else place
                block = into[lo:lo + count]
                start = self.offset + first * row
                got = os.preadv(fh.fileno(), [block], start)
                if got != block.nbytes:
                    raise CorruptBinaryError(
                        f"{self.file.name}: read short at byte "
                        f"{start + got}; the file changed since the bundle "
                        f"was loaded")
                yield block


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


@dataclass(frozen=True)
class ManifestFiles:
    """The manifest's ``files`` object: file names in the bundle directory."""

    labels: str = LABELS_NAME
    features: str | None = None

    def __post_init__(self):
        check_fields(self)
        for key, name in vars(self).items():
            if name in ("", "..") or name and name != Path(name).name:
                raise InvalidSpecError(f"{key} must be a file name in the "
                                       f"bundle directory, got {name!r}")


@dataclass(frozen=True, kw_only=True)
class Manifest:
    """The one definition of ``manifest.json``: each field is a key, in
    the order keys are checked, annotated with its JSON type; a key without
    a default is required.  The writer leaves out ``files.features`` when
    it is None."""

    task_id: str
    roi_class: str
    modality: str
    dataset: str | None = None
    partition: str | None = None
    n_samples: int
    height: int
    width: int
    channels: int | None = None
    positive_class: int = 1
    extractor: str | None = None
    files: ManifestFiles

    def __post_init__(self):
        check_fields(self)


def _from_json(cls, doc: dict, prefix: str = ""):
    """``cls`` from the JSON object ``doc``, its unknown keys ignored; a
    field annotated with a dataclass is built from its own object first.
    A missing required key or a value of the wrong JSON type is
    ``MissingManifest`` naming the dotted key."""
    args, hints = {}, _type_hints(cls)
    for f in dataclasses.fields(cls):
        key = prefix + f.name
        if f.name not in doc:
            if f.default is dataclasses.MISSING:
                raise MissingManifestError(f"manifest misses key {key!r}")
            continue
        value = args[f.name] = doc[f.name]
        if dataclasses.is_dataclass(hints[f.name]) and isinstance(value, dict):
            args[f.name] = _from_json(hints[f.name], value, key + ".")
    try:
        return cls(**args)
    except InvalidSpecError as exc:
        raise MissingManifestError(f"manifest key {prefix}{exc.detail}") \
            from exc


def write_bundle(bundle: TaskBundle, path: str | Path) -> None:
    """Write a bundle directory; loading it back reproduces the bundle bit-exactly."""
    path = Path(path)
    d, labels, features = bundle.descriptor, bundle.labels, bundle.features
    manifest = dataclasses.asdict(Manifest(
        task_id=d.task_id, roi_class=d.roi_class, modality=d.modality,
        dataset=d.dataset, partition=d.partition, n_samples=labels.n_samples,
        height=labels.height, width=labels.width,
        channels=features.channels if features else None,
        positive_class=labels.positive_class, extractor=bundle.extractor,
        files=ManifestFiles(features=FEATURES_NAME if features else None)))
    if features is None:
        del manifest["files"]["features"]
    try:
        path.mkdir(parents=True, exist_ok=True)
        (path / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        _write_array(path / LABELS_NAME, LABELS_MAGIC, labels.masks, np.uint8)
        if features is not None:
            _write_array(path / FEATURES_NAME, FEATURES_MAGIC,
                         features.features, _FEATURE_DTYPE)
    except OSError as exc:
        raise IoFailureError(f"cannot write bundle to {path}: {exc}") from exc


def load_bundle(path: str | Path) -> TaskBundle:
    """Load and eagerly validate a task bundle directory."""
    path = Path(path)
    try:
        doc = json.loads((path / MANIFEST_NAME).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise MissingManifestError(f"unreadable manifest in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise MissingManifestError(f"manifest in {path} is not a JSON object")
    m = _from_json(Manifest, doc)

    descriptor = TaskDescriptor(task_id=m.task_id, roi_class=m.roi_class,
                                modality=m.modality, dataset=m.dataset or "",
                                partition=m.partition)
    masks = _Payload.check(path / m.files.labels, "labels", LABELS_MAGIC, 3,
                           np.uint8)
    declared = (m.n_samples, m.height, m.width)
    if masks.dims != declared:
        raise ShapeMismatchError(
            f"labels {masks.dims} disagree with manifest {declared}")
    labels = LabelMaskSet(task_id=descriptor.task_id, masks=masks.read(),
                          positive_class=m.positive_class)

    features = None
    if m.files.features is not None:
        payload = _Payload.check(path / m.files.features, "features",
                                 FEATURES_MAGIC, 4, _FEATURE_DTYPE)
        channels = payload.dims[3]
        if m.channels is not None and channels != m.channels:
            raise ShapeMismatchError(f"features carry {channels} channels, "
                                     f"manifest says {m.channels}")
        features = PixelFeatureSet(task_id=descriptor.task_id,
                                   features=payload, aligned_labels=labels)

    return TaskBundle(descriptor=descriptor, labels=labels, features=features,
                      extractor=m.extractor)


# ---------------------------------------------------------------------------
# pixel flattening
# ---------------------------------------------------------------------------

def flatten_pixels(fs: PixelFeatureSet,
                   sampler: SubsampleSpec) -> tuple[np.ndarray, np.ndarray]:
    """Flatten a feature set to (features [N, C], foreground [N]) pixel lists.

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
    labels = fs.aligned_labels.foreground.reshape(n_total)
    rows = None
    if n_total > sampler.max_pixels:
        rows = np.asarray(subsample_indices(n_total, sampler.max_pixels,
                                            sampler.seed), dtype=np.int64)
        labels = labels[rows]
    return fs.pixel_rows(rows).astype(np.float64), labels.astype(np.int64)
