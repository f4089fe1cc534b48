"""Datasets, labeled subsets, pools, file loaders, and the shared input rules.

Each input rule is checked in one place: integers (``_is_integer``), row
sets (``_check_rows``), file formats (``check_format``), mixture means
(``mixture_means``) and config fields (``_Config``, every config's base).

A Dataset owns the feature matrix and the ground-truth labels. Ground truth is
stored under the name ``hidden_labels`` as a reminder that workflow code may
only look at it through an explicit oracle query (querying a human) or when
scoring a finished run; fitting code receives labels only via LabeledSet.

Supported on-disk formats:

* ``idx``     -- the classic big-endian binary image/label pair format
                 (magic 0x00000803 for images, 0x00000801 for labels).
* ``csv``     -- header row, feature columns first, final column ``label``.
* ``rawf32``  -- little-endian float32 feature block with a text sidecar
                 ``<path>.meta`` (``n=``/``d=``/``k=`` lines) and a
                 little-endian uint32 label block ``<path>.labels``.
"""

from __future__ import annotations

import csv as _csv
import functools
import math
import mmap
import numbers
import os
import struct
import sys
import typing
from dataclasses import dataclass, fields

import numpy as np


class DataFormatError(ValueError):
    """Base class for malformed dataset files."""


class MagicNumberError(DataFormatError):
    """File does not start with the expected magic constant."""


class TruncatedPayloadError(DataFormatError):
    """File ends before the payload promised by its header."""


class RowCountMismatchError(DataFormatError):
    """Feature and label files disagree about the number of rows."""


class LabelOutOfRangeError(DataFormatError):
    """A label value falls outside [0, num_classes)."""


IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def _check_rows(rows: np.ndarray, n: int, name: str) -> None:
    """The rule of every row set: ``rows``, the row indices of the set
    ``name``, are distinct (sort, compare neighbours) and lie in [0, n)."""
    if rows.size:
        s = np.sort(rows)
        if (s[1:] == s[:-1]).any():
            raise ValueError(f"duplicate indices in {name}")
        if s[0] < 0 or s[-1] >= n:
            raise IndexError(f"{name} index out of range")


def _is_integer(value) -> bool:
    """An integer that is not a bool: Python counts True as the integer 1."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@functools.cache
def _keys(cls) -> dict:
    """{key: int, float or str} for each config key of config class cls:
    its fields of those types, or of one of them or None, in field order."""
    types = typing.get_type_hints(cls)
    return {f.name: kind for f in fields(cls) for kind in (int, float, str)
            if types[f.name] in (kind, kind | None)}


def _holds(value, rule: str) -> bool:
    """Whether ``value`` meets ``rule``: "> b", ">= b", or "in" an interval
    whose brackets mark each end closed or open, as in "in [0, 1)"."""
    if rule.startswith(">"):
        bound = float(rule.split(" ")[1])
        return value > bound or rule[1] == "=" and value == bound
    lo, hi = map(float, rule[4:-1].split(", "))
    return ((lo < value or rule[3] == "[" and value == lo)
            and (value < hi or rule[-1] == "]" and value == hi))


def _check_fields(config) -> None:
    """Raise ValueError naming the first int or float field of ``config``,
    in field order, that is not an integer or not a finite number, then
    the first key of its class's ``RANGES`` table that breaks its rule:
    "<key> must be <rule>". This is the one place ranges are checked. An
    optional key, one whose default is None, is unset when None.

    A field's type is its annotation, read as the config parser reads it
    (``_keys``). Types come first: a rule's comparisons pass NaN, a float
    count would fail deep in a fit, and a float width would be truncated.
    A bool is neither type (True would pass as 1), nor is a string or None;
    an integer beyond float range is not finite.
    """
    for name, kind in _keys(type(config)).items():
        value = getattr(config, name)
        if value is None and getattr(type(config), name, 0) is None:
            continue
        if kind is int and not _is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if kind is float and (isinstance(value, (bool, np.bool_))
                              or not isinstance(value, numbers.Real)
                              or not abs(value) <= sys.float_info.max):
            raise ValueError(f"{name} must be a finite number, got {value!r}")
    for name, rule in config.RANGES.items():
        value = getattr(config, name)
        if value is not None and not _holds(value, rule):
            raise ValueError(f"{name} must be {rule}")


class _Config:
    """Base of the config classes: building one checks its fields."""

    def __post_init__(self):
        _check_fields(self)


@dataclass(frozen=True)
class Dataset:
    """Immutable feature/label store; a row's index is its point id.

    features      : (n, d) float32
    hidden_labels : (n,) int64 ground truth; oracle access only
    num_classes   : k >= 2
    """

    features: np.ndarray
    hidden_labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float32)
        labels = np.asarray(self.hidden_labels, dtype=np.int64)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {feats.shape}")
        if labels.shape != (feats.shape[0],):
            raise RowCountMismatchError(
                f"{feats.shape[0]} feature rows vs {labels.shape[0]} labels"
            )
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise LabelOutOfRangeError(
                f"labels must lie in [0, {self.num_classes})"
            )
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "hidden_labels", labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass
class LabeledSet:
    """Rows of a Dataset together with assigned labels.

    Assigned labels come from the oracle or from the auto-labeler; they need
    not match the hidden truth.
    """

    dataset: Dataset
    indices: np.ndarray  # (m,) int64 row indices into dataset, unique
    labels: np.ndarray   # (m,) int64 assigned labels

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        m = self.indices.shape[0]
        if self.labels.shape != (m,):
            raise ValueError("index and label arrays must align")
        _check_rows(self.indices, self.dataset.n, "LabeledSet")
        if m and (self.labels.min() < 0
                  or self.labels.max() >= self.dataset.num_classes):
            raise LabelOutOfRangeError("assigned label out of range")

    def __len__(self) -> int:
        return int(self.indices.shape[0])

    @property
    def features(self) -> np.ndarray:
        return self.dataset.features[self.indices]

    @classmethod
    def empty(cls, dataset: Dataset) -> "LabeledSet":
        z = np.zeros(0, dtype=np.int64)
        return cls(dataset, z, z.copy())

    @classmethod
    def from_oracle(cls, dataset: Dataset, indices) -> "LabeledSet":
        """Label ``indices`` with the dataset's ground truth (an oracle query)."""
        idx = np.asarray(indices, dtype=np.int64)
        return cls(dataset, idx, dataset.hidden_labels[idx])

    def take(self, positions) -> "LabeledSet":
        """Subset by positions within this set (not dataset indices)."""
        pos = np.asarray(positions)
        if pos.size == 0:
            pos = pos.astype(np.int64)
        return LabeledSet(self.dataset, self.indices[pos], self.labels[pos])

    def merged_with(self, other: "LabeledSet") -> "LabeledSet":
        """This set's rows followed by ``other``'s; an empty side is skipped."""
        if len(other) == 0:
            return self
        if len(self) == 0:
            return other
        if other.dataset is not self.dataset:
            raise ValueError("cannot merge LabeledSets over different datasets")
        return LabeledSet(
            self.dataset,
            np.concatenate([self.indices, other.indices]),
            np.concatenate([self.labels, other.labels]),
        )


@dataclass
class Pool:
    """Unlabeled portion of a Dataset: the currently active row indices."""

    dataset: Dataset
    active: np.ndarray  # (m,) int64, unique, ascending

    def __post_init__(self):
        self.active = np.asarray(self.active, dtype=np.int64)
        _check_rows(self.active, self.dataset.n, "pool")

    @property
    def size(self) -> int:
        return int(self.active.shape[0])

    @property
    def features(self) -> np.ndarray:
        return self.dataset.features[self.active]

    def without(self, indices) -> "Pool":
        """Pool minus ``indices`` (dataset row indices, must be active)."""
        drop = np.asarray(indices, dtype=np.int64)
        mask = np.isin(self.active, drop)
        if mask.sum() != drop.size:
            raise ValueError("attempt to remove indices not in the pool")
        return Pool(self.dataset, self.active[~mask])


# ---------------------------------------------------------------------------
# sampling / splitting


def random_query(pool: Pool, n: int, seed: int) -> tuple[LabeledSet, Pool]:
    """Query the oracle for n uniform-random pool points.

    Returns the newly labeled set (indices ascending) and the shrunken pool.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > pool.size:
        raise ValueError(f"cannot query {n} points from a pool of {pool.size}")
    rng = np.random.default_rng(seed)
    pick = rng.choice(pool.size, size=n, replace=False)
    chosen = np.sort(pool.active[pick])
    return LabeledSet.from_oracle(pool.dataset, chosen), pool.without(chosen)


def random_split(m: int, fraction: float,
                 seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Split positions 0..m-1 into (first, second) ascending parts.

    ``fraction`` is the share of points in the first part, rounded to the
    nearest integer but clamped so both parts are non-empty. Requires at least
    two points.
    """
    if not (0.0 < fraction < 1.0):
        raise ValueError("fraction must lie strictly between 0 and 1")
    if m < 2:
        raise ValueError("need at least 2 points to split")
    size = int(np.floor(fraction * m + 0.5))
    size = min(max(size, 1), m - 1)
    first, second = carve(m, [size, m - size], seed)
    return first, second


# ---------------------------------------------------------------------------
# synthesis


def mixture_means(means, num_classes: int, dim: int) -> np.ndarray:
    """``means`` as a float64 array, which must be (num_classes, dim)."""
    try:
        means = np.asarray(means, dtype=np.float64)
    except ValueError:  # ragged rows have no shape
        means = None
    if means is None or means.shape != (num_classes, dim):
        raise ValueError(f"means must have shape ({num_classes}, {dim})")
    return means


def synth_gaussian_mixture(num_classes: int, dim: int, means, sigma: float,
                           n: int, seed: int) -> Dataset:
    """Isotropic Gaussian blobs, one per class, near-equal class counts.

    ``means`` is (k, d). n is split as evenly as possible with the remainder
    going to the lowest class indices. Draws happen class by class from a
    single generator, so the result is reproducible for a given seed.
    """
    means = mixture_means(means, num_classes, dim)
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    if n < num_classes:
        raise ValueError("need at least one point per class")
    counts = np.full(num_classes, n // num_classes, dtype=np.int64)
    counts[: n % num_classes] += 1
    rng = np.random.default_rng(seed)
    blocks = []
    labels = []
    for c in range(num_classes):
        blocks.append(rng.normal(means[c], sigma, size=(counts[c], dim)))
        labels.append(np.full(counts[c], c, dtype=np.int64))
    feats = np.concatenate(blocks).astype(np.float32)
    labs = np.concatenate(labels)
    perm = rng.permutation(n)
    return Dataset(feats[perm], labs[perm], num_classes)


# ---------------------------------------------------------------------------
# loaders


def _mapped(path: str):
    """The whole file at ``path`` as a read-only buffer over a map of it;
    an empty file, which cannot be mapped, gives ``b""``.

    Nothing is read here. An array over the map keeps it open and pages the
    file in as it is read, so a gather from it copies each byte once.
    """
    with open(path, "rb") as f:
        if os.fstat(f.fileno()).st_size == 0:
            return b""
        return memoryview(mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ))


def _exact(buf, offset: int, count: int, what: str, trailing=None):
    """``buf[offset:offset + count]``; a ``buf`` that ends before it is a
    TruncatedPayloadError naming ``what``. Given ``trailing``, the slice
    must end ``buf``, and a byte after it is an error naming ``trailing``.
    """
    size = len(buf) - offset
    if count > size:
        raise TruncatedPayloadError(
            f"{what}: expected {count} bytes, file ended after {size}"
        )
    if trailing is not None and size > count:
        raise DataFormatError(f"trailing bytes after {trailing}")
    return buf[offset:offset + count]


def _load_idx_file(path: str, magic: int, what: str) -> np.ndarray:
    """An idx file's uint8 payload as (items, bytes per item).

    The magic's low byte is the number of big-endian int32 dims after it;
    the first dim counts the items. ``what`` ("image" or "label") names the
    file in every error. The header and the payload are slices of one map
    of the file.
    """
    ndim = magic & 0xFF
    buf = _mapped(path)
    got, = struct.unpack(">i", _exact(buf, 0, 4, f"idx {what} header"))
    if got != magic:
        raise MagicNumberError(
            f"bad {what} magic 0x{got & 0xFFFFFFFF:08x}, want 0x{magic:08x}"
        )
    dims = struct.unpack(f">{ndim}i",
                         _exact(buf, 4, 4 * ndim, f"idx {what} header"))
    if ndim == 1 and dims[0] < 0:
        raise DataFormatError(f"negative idx {what} count {dims[0]}")
    if dims[0] < 0 or min(dims[1:], default=1) <= 0:
        raise DataFormatError(f"bad idx dims {'x'.join(map(str, dims))}")
    payload = _exact(buf, 4 + 4 * ndim, math.prod(dims),
                     f"idx {what} payload", f"idx {what} payload")
    return np.frombuffer(payload, dtype=np.uint8).reshape(
        dims[0], math.prod(dims[1:]))


def idx_labels_path(images_path: str) -> str:
    """Conventional companion-labels filename for an idx images file."""
    base = os.path.basename(images_path)
    cand = base.replace("idx3", "idx1").replace("images", "labels")
    if cand == base:
        raise FileNotFoundError(
            f"cannot derive a labels filename from {images_path!r}; "
            "pass labels_path explicitly"
        )
    return os.path.join(os.path.dirname(images_path), cand)


def _load_idx(path: str, labels_path):
    feats = _load_idx_file(path, IDX_IMAGES_MAGIC, "image").astype(
        np.float32) / 255.0
    lp = labels_path if labels_path is not None else idx_labels_path(path)
    labels = _load_idx_file(lp, IDX_LABELS_MAGIC, "label")[:, 0].astype(
        np.int64)
    if not (len(feats) or len(labels)):
        raise DataFormatError("idx pair holds no items")
    return feats, labels, None


def _load_csv(path: str, labels_path):
    with open(path, newline="") as f:
        reader = _csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError("empty csv file") from None
        if not header or header[-1].strip() != "label":
            raise DataFormatError("last csv column must be named 'label'")
        width = len(header)
        if width < 2:
            raise DataFormatError("csv needs at least one feature column")
        feats = []
        labels = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise DataFormatError(
                    f"line {lineno}: {len(row)} fields, header has {width}"
                )
            try:
                feats.append([float(v) for v in row[:-1]])
            except ValueError:
                raise DataFormatError(
                    f"line {lineno}: non-numeric feature value"
                ) from None
            try:
                labels.append(int(row[-1]))
            except ValueError:
                raise DataFormatError(
                    f"line {lineno}: non-integer label {row[-1]!r}"
                ) from None
    if not feats:
        raise DataFormatError("csv has a header but no data rows")
    return (np.asarray(feats, dtype=np.float32),
            np.asarray(labels, dtype=np.int64), None)


# the rawf32 meta's keys, each given once, and the least value of each
_META_LEAST = {"n": 0, "d": 1, "k": 2}


def _parse_meta(path: str) -> dict:
    meta = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataFormatError(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _META_LEAST:
                raise DataFormatError(f"{path}:{lineno}: unknown key {key!r}")
            if key in meta:
                raise DataFormatError(f"{path}:{lineno}: repeated key {key!r}")
            try:
                meta[key] = int(val)
            except ValueError:
                raise DataFormatError(
                    f"{path}:{lineno}: non-integer value {val!r}"
                ) from None
    for key, least in _META_LEAST.items():
        if key not in meta:
            raise DataFormatError(f"{path}: missing {key}=")
        if meta[key] < least:
            raise DataFormatError(
                f"{path}: {key}={meta[key]}, must be >= {least}")
    return meta


def _load_rawf32(path: str, labels_path):
    meta = _parse_meta(path + ".meta")
    n, d = meta["n"], meta["d"]
    feats = np.frombuffer(_exact(_mapped(path), 0, n * d * 4,
                                 "rawf32 feature payload", "rawf32 features"),
                          dtype="<f4").reshape(n, d)
    labels = np.frombuffer(_exact(_mapped(path + ".labels"), 0, n * 4,
                                  "rawf32 label payload", "rawf32 labels"),
                           dtype="<u4").astype(np.int64)
    return feats, labels, meta["k"]


# each format's reader: (path, labels_path) -> (float32 (n, d) features,
# int64 labels, the class count the file declares or None)
_LOADERS = {"idx": _load_idx, "csv": _load_csv, "rawf32": _load_rawf32}


def check_format(format: str, labels_path: str | None) -> None:
    """Raise ValueError unless ``format`` names a reader and, for any
    format but idx, ``labels_path`` is None."""
    if format not in _LOADERS:
        raise ValueError(
            f"unknown format {format!r}; expected one of {sorted(_LOADERS)}"
        )
    if labels_path is not None and format != "idx":
        raise ValueError(f"labels_path {labels_path!r}: a {format} dataset "
                         "holds its own labels; only idx reads labels_path")


def load_dataset(path: str, format: str, num_classes: int | None = None,
                 labels_path: str | None = None) -> Dataset:
    """Load a Dataset from disk. ``format`` is one of idx | csv | rawf32;
    ``labels_path`` names an idx pair's labels file, and only idx takes one.
    The class count is the file's own (rawf32's meta ``k``), which a given
    ``num_classes`` must match, else ``num_classes``, else the largest
    label plus one.
    """
    check_format(format, labels_path)
    feats, labels, k = _LOADERS[format](path, labels_path)
    if k is None:
        # no labels give 0 classes, so Dataset names the row-count mismatch
        k = int(num_classes or labels.max(initial=-1) + 1)
    elif num_classes and int(num_classes) != k:
        raise DataFormatError(
            f"meta says k={k} but num_classes={num_classes} requested"
        )
    return Dataset(feats, labels, k)


def carve(n: int, sizes: "list[int]", seed: int) -> "list[np.ndarray]":
    """Disjoint random sets of rows 0..n-1 with the given sizes, each
    ascending; the remainder is dropped.

    Used to split one source dataset into pool / validation / held-out row
    sets, which then index that dataset rather than copy it, and by
    ``random_split`` for a round's two validation halves.
    """
    if min(sizes, default=0) < 0:
        raise ValueError(f"cannot carve a set of {min(sizes)} points")
    total = int(np.sum(sizes))
    if total > n:
        raise ValueError(f"cannot carve {total} points from {n}")
    perm = np.random.default_rng(seed).permutation(n)
    out = []
    at = 0
    for s in sizes:
        out.append(np.sort(perm[at:at + s]))
        at += s
    return out
