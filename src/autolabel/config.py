"""Experiment configuration: JSON on disk, validated dataclasses in memory.

Parsing is strict: unknown keys, missing required keys, type mismatches, and
out-of-range values are all distinct errors naming the full key path, and
a key repeated within an object is an error naming it, so a typo can never
silently fall back to a default. The grammar is documented in the README.

Each section builds its config class, its schema (the tbal section builds
``TbalConfig`` and ``ThresholdConfig``; posthoc's "method" names a class): a
section's keys are its class's int, float and str fields, optional ones
included, a key left out takes the field's default, and building the class
checks the ranges of its ``RANGES`` table (``data._check_fields``). The
parser reads JSON: it checks types, finiteness and unknown or missing keys,
resolves file names and output_dir against the config's directory, and
keeps no default or range of its own beyond the grid size and the hidden
widths. It then builds each config object once, and the class checks the
rest: the means' shape (``SyntheticSpec``), and the hpo grids' names and
values with the rules across sections (``ExperimentConfig``).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .confidence import POSTHOC_CONFIGS
from .data import (_LOADERS, _Config, _keys, check_format, load_dataset,
                   mixture_means, synth_gaussian_mixture)
from .loop import TbalConfig
from .mlp import TrainConfig
from .thresholds import ThresholdConfig, uniform_grid


class ConfigError(ValueError):
    """Base for all configuration problems."""


class MissingKeyError(ConfigError):
    pass


class UnknownKeyError(ConfigError):
    pass


class TypeMismatchError(ConfigError):
    pass


class RangeError(ConfigError):
    pass


_REQUIRED = object()
_ABSENT = object()


def _number(val, path: str, integer=False, lo=None):
    """``val``, the JSON value at ``path``, as an int for an integer key
    and a float otherwise.

    A bool is not a number. json.load reads NaN, +-Infinity and integer
    literals of any size; for a float key each of these is a RangeError.
    """
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise TypeMismatchError(f"{path}: expected a number")
    if integer and not isinstance(val, int):
        raise TypeMismatchError(f"{path}: expected an integer")
    if not integer:
        try:
            val = float(val)
        except OverflowError:
            raise RangeError(f"{path}: integer too large for a float") from None
        if not math.isfinite(val):
            # NaN fails no comparison, so the range check would pass it
            raise RangeError(f"{path}: value {val} is not finite")
    if lo is not None and val < lo:
        raise RangeError(f"{path}: value {val} below minimum {lo}")
    return val


def _rows_of_numbers(val, path: str) -> list:
    """``val``, the JSON value at ``path``, as a list of lists of floats;
    the rows' lengths are not checked."""
    if not (isinstance(val, list) and all(isinstance(row, list) for row in val)):
        raise TypeMismatchError(f"{path}: expected a list of lists of numbers")
    return [[_number(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)]
            for i, row in enumerate(val)]


class _Section:
    """One JSON object being consumed key by key."""

    def __init__(self, mapping, path: str):
        if not isinstance(mapping, dict):
            raise TypeMismatchError(f"{path}: expected an object")
        self.mapping = mapping
        self.path = path
        self.seen: set = set()

    def _fetch(self, key, default, read):
        """``read(value, path)`` of the value at ``key``, or ``default``
        when the key is absent; a required key must be present."""
        if key not in self.mapping:
            if default is _REQUIRED:
                raise MissingKeyError(f"{self.path}.{key}: required key missing")
            return default
        self.seen.add(key)
        return read(self.mapping[key], f"{self.path}.{key}")

    def number(self, key, default=_REQUIRED, lo=None, integer=False):
        return self._fetch(key, default,
                           lambda val, path: _number(val, path, integer, lo))

    def string(self, key, default=_REQUIRED, choices=None):
        def read(val, path):
            if not isinstance(val, str):
                raise TypeMismatchError(f"{path}: expected a string")
            if choices is not None and val not in choices:
                raise RangeError(
                    f"{path}: {val!r} not one of {sorted(choices)}")
            return val
        return self._fetch(key, default, read)

    def list_of_numbers(self, key, default=_REQUIRED, integer=False, lo=None):
        def read(val, path):
            if not isinstance(val, list) or not val:
                raise TypeMismatchError(f"{path}: expected a non-empty list")
            return [_number(v, f"{path}[{i}]", integer, lo)
                    for i, v in enumerate(val)]
        return self._fetch(key, default, read)

    def raw(self, key, default=_REQUIRED):
        return self._fetch(key, default, lambda val, path: val)

    def section(self, key, required=True):
        # an explicit null is not an object: _Section refuses it
        return self._fetch(key, _REQUIRED if required else None, _Section)

    def finish(self):
        unknown = sorted(set(self.mapping) - self.seen)
        if unknown:
            raise UnknownKeyError(
                f"{self.path}.{unknown[0]}: unknown key"
                + (f" (also: {', '.join(unknown[1:])})" if unknown[1:] else "")
            )


@dataclass(frozen=True)
class SyntheticSpec(_Config):
    """A Gaussian mixture; ``means`` left None are
    ``default_circle_means(classes, dim)`` when the data is generated."""

    RANGES = {"pool_size": ">= 1", "val_size": ">= 2", "hyp_size": ">= 0",
              "classes": ">= 2", "dim": ">= 1", "sigma": "> 0"}

    pool_size: int
    val_size: int
    classes: int
    dim: int
    sigma: float
    hyp_size: int = 0
    means: np.ndarray | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.means is not None:
            object.__setattr__(self, "means", mixture_means(
                self.means, self.classes, self.dim))

    def load(self, n: int, seed: int):
        means = (default_circle_means(self.classes, self.dim)
                 if self.means is None else self.means)
        return synth_gaussian_mixture(self.classes, self.dim, means,
                                      self.sigma, n, seed)


@dataclass(frozen=True)
class FileSpec(_Config):
    """A dataset file; ``labels_path`` names an idx pair's labels file."""

    RANGES = {"pool_size": ">= 1", "val_size": ">= 2", "hyp_size": ">= 0",
              "num_classes": ">= 2"}

    pool_size: int
    val_size: int
    path: str
    format: str
    hyp_size: int = 0
    num_classes: int | None = None
    labels_path: str | None = None

    def __post_init__(self):
        super().__post_init__()
        check_format(self.format, self.labels_path)

    def load(self, n: int, seed: int):
        # the file holds the points: n and seed are for a generated set
        return load_dataset(self.path, self.format, self.num_classes,
                            self.labels_path)


@dataclass(frozen=True)
class HpoSpec(_Config):
    RANGES = {"tie_break_seed": ">= 0"}

    train_grid: dict
    posthoc_grid: dict
    tie_break_seed: int = 0


@dataclass(frozen=True)
class ExperimentConfig(_Config):
    """A run's settings. Building one checks the rules that span sections:
    the seed set fits in the pool, and an hpo section has hyp rows to score
    on and grids whose every name and value its search can run."""

    RANGES = {"repeats": ">= 1", "master_seed": ">= 0"}

    dataset: "SyntheticSpec | FileSpec"
    tbal: TbalConfig
    repeats: int = 5
    output_dir: str = "out"
    master_seed: int = 0
    hpo: HpoSpec | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.hpo is not None:
            for phase in ("train", "posthoc"):
                _check_grid(getattr(self.hpo, f"{phase}_grid"),
                            getattr(self.tbal, phase), f"hpo.{phase}_grid")
            if self.dataset.hyp_size < 1:
                raise ValueError("dataset.hyp_size: must be >= 1 when hpo "
                                 "is configured")
        if self.tbal.seed_size > self.dataset.pool_size:
            raise ValueError(f"tbal.seed_size: {self.tbal.seed_size} exceeds "
                             f"dataset.pool_size {self.dataset.pool_size}")


def _check_grid(grid: dict, config, path: str) -> None:
    """Raise ValueError naming the first entry of ``grid``, at ``path``, that
    a search over ``config``'s keys cannot run: a grid over a class with
    keys names at least one, each a key, with values the class takes; a
    class with none takes only an empty grid. A grid that is not an object
    and a value list that is empty or not a list are TypeMismatchErrors."""
    keys = _keys(type(config))
    if not keys and grid != {}:
        raise ValueError(f"{path}: {config.method} has no hyperparameters")
    if not isinstance(grid, dict):
        raise TypeMismatchError(f"{path}: expected an object of lists")
    if keys and not grid:
        raise ValueError(f"{path}: grid must name at least one "
                         "hyperparameter")
    for name in sorted(grid):
        if name not in keys:
            raise UnknownKeyError(
                f"{path}.{name}: not a searchable hyperparameter")
        if not isinstance(grid[name], list) or not grid[name]:
            raise TypeMismatchError(f"{path}.{name}: expected a non-empty list")
        for val in grid[name]:
            try:
                dataclasses.replace(config, **{name: val})
            except ValueError as exc:
                raise ValueError(f"{path}.{name}: {exc}") from None


def default_circle_means(classes: int, dim: int):
    """Class means evenly spaced on a circle of radius 3 in the first two
    dims (on [-3, 3] when dim is 1)."""
    means = np.zeros((classes, dim))
    if dim == 1:
        means[:, 0] = np.linspace(-3.0, 3.0, classes)
    else:
        angles = 2.0 * np.pi * np.arange(classes) / classes
        means[:, 0] = 3.0 * np.cos(angles)
        means[:, 1] = 3.0 * np.sin(angles)
    return means


def _parse_dataset(sec: _Section, base_dir: str):
    kind = sec.string("kind", choices={"synthetic", "file"})
    if kind == "synthetic":
        # null reads as absent
        means = sec.raw("means", None)
        spec = _build(sec, SyntheticSpec, means=None if means is None
                      else _rows_of_numbers(means, f"{sec.path}.means"))
        sec.finish()
        return spec
    fmt = sec.string("format", choices=set(_LOADERS))
    # only idx reads a separate labels file: elsewhere the key is unknown;
    # os.path.join keeps an absolute name as it is
    names = {"path": sec.string("path"), "labels_path":
             sec.string("labels_path", None) if fmt == "idx" else None}
    files = {key: name if name is None else os.path.join(base_dir, name)
             for key, name in names.items()}
    for key, resolved in files.items():
        if resolved is not None and not os.path.exists(resolved):
            raise ConfigError(f"{sec.path}.{key}: no such file {resolved!r}")
    spec = _build(sec, FileSpec, format=fmt, **files)
    sec.finish()
    return spec


def _build(sec: _Section, cls, **extra):
    """cls from ``extra`` and the keys of ``sec`` that name its other config
    keys; a key left out takes the field's default.

    The section checks each value's type and finiteness, the class its
    range. A ValueError from the class becomes a RangeError naming the key
    its message starts with: a field name, or a key path below the section
    followed by a colon, as a rule across sections names its key.
    """
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = dict(extra)
    for name, kind in _keys(cls).items():
        if name in kwargs:
            continue
        f = fields[name]
        required = (f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING)
        default = _REQUIRED if required else _ABSENT
        if kind is str:
            val = sec.string(name, default)
        else:
            val = sec.number(name, default, integer=kind is int)
        if val is not _ABSENT:
            kwargs[name] = val
    try:
        return cls(**kwargs)
    except ValueError as exc:
        key = str(exc).split(" ", 1)[0]
        path = f"{sec.path}.{key}" if key in fields else sec.path
        # an unknown hpo grid name stays an UnknownKeyError
        kind = type(exc) if isinstance(exc, ConfigError) else RangeError
        raise kind(f"{sec.path}.{exc}" if key.endswith(":")
                   else f"{path}: {exc}") from None


def _parse_hpo(sec: _Section, posthoc_cls):
    """The hpo section; ExperimentConfig checks its grids' names and
    values."""
    if sec is None:
        return None
    train_grid = sec.raw("train_grid")
    keyed = bool(_keys(posthoc_cls))
    posthoc_grid = sec.raw("posthoc_grid", _REQUIRED if keyed else None)
    if posthoc_grid is None and not keyed:
        posthoc_grid = {}  # nothing to search: null reads as absent
    hpo = _build(sec, HpoSpec, train_grid=train_grid,
                 posthoc_grid=posthoc_grid)
    sec.finish()
    return hpo


def _parse_tbal(sec: _Section) -> TbalConfig:
    """The tbal section: TbalConfig's keys, ThresholdConfig's keys alongside
    them, and the train and posthoc sections."""
    extra = {}
    train = sec.section("train", required=False)
    if train is not None:
        extra["train"] = _build(train, TrainConfig)
        train.finish()
    posthoc = sec.section("posthoc", required=False)
    if posthoc is not None:
        method = posthoc.string("method", choices=set(POSTHOC_CONFIGS))
        extra["posthoc"] = _build(posthoc, POSTHOC_CONFIGS[method])
        posthoc.finish()
    # legacy key: thresholds are always estimated on predicted-class groups
    sec.string("group_by", None, choices={"predicted_label"})
    grid_size = sec.number("grid_size", None, integer=True, lo=2)
    grid = sec.list_of_numbers("grid", None)
    if grid_size is not None and grid is not None:
        raise ConfigError(f"{sec.path}.grid: give grid or grid_size, not both")
    if grid_size is not None:
        grid = uniform_grid(grid_size)
    thresholds = _build(sec, ThresholdConfig,
                        **({} if grid is None else {"grid": grid}))
    hidden = sec.list_of_numbers("hidden", None, integer=True, lo=1)
    if hidden is not None:
        extra["hidden"] = tuple(hidden)
    cfg = _build(sec, TbalConfig, thresholds=thresholds, **extra)
    sec.finish()
    return cfg


def parse_config_dict(doc: dict, base_dir: str = ".") -> ExperimentConfig:
    root = _Section(doc, "config")
    dataset = _parse_dataset(root.section("dataset"), base_dir)
    tbal = _parse_tbal(root.section("tbal"))
    hpo = _parse_hpo(root.section("hpo", required=False), type(tbal.posthoc))
    # a relative output_dir names a directory beside the config
    output_dir = os.path.join(
        base_dir, root.string("output_dir", ExperimentConfig.output_dir))
    cfg = _build(root, ExperimentConfig, dataset=dataset, tbal=tbal, hpo=hpo,
                 output_dir=output_dir)
    root.finish()
    return cfg


def parse_config(path: str) -> ExperimentConfig:
    """Read and validate a JSON experiment config."""

    def unique_keys(pairs):
        # json would let the last of a repeated key win, silently
        doc = {}
        for key, val in pairs:
            if key in doc:
                raise ConfigError(f"{path}: repeated key {key!r}")
            doc[key] = val
        return doc

    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f, object_pairs_hook=unique_keys)
    except ConfigError:
        raise
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read the config ({exc})") from None
    except ValueError as exc:  # bad JSON, or an integer past int's digit limit
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise TypeMismatchError(f"{path}: top level must be an object")
    return parse_config_dict(doc, base_dir=os.path.dirname(os.path.abspath(path)))
