import copy
import dataclasses
import json
import re
import typing
from pathlib import Path

import numpy as np
import pytest

import autolabel as al
from autolabel.confidence import POSTHOC_CONFIGS
from autolabel.config import (
    ConfigError,
    FileSpec,
    HpoSpec,
    MissingKeyError,
    RangeError,
    SyntheticSpec,
    TypeMismatchError,
    UnknownKeyError,
    default_circle_means,
    parse_config,
    parse_config_dict,
)
from autolabel.data import _keys

BASE = {
    "dataset": {"kind": "synthetic", "classes": 4, "dim": 2, "sigma": 1.0,
                "pool_size": 200, "val_size": 100},
    "tbal": {"train_budget": 60, "seed_size": 30, "query_batch": 15},
}


def doc(**overrides):
    d = copy.deepcopy(BASE)
    for key, value in overrides.items():
        top, _, rest = key.partition(".")
        if rest:
            d.setdefault(top, {})[rest] = value
        else:
            d[top] = value
    return d


def test_minimal_config_defaults():
    cfg = parse_config_dict(doc(), base_dir="/tmp/exp")
    assert cfg.master_seed == 0
    assert cfg.repeats == 5
    assert cfg.output_dir == "/tmp/exp/out"
    assert cfg.hpo is None
    assert cfg.dataset.hyp_size == 0
    assert cfg.tbal.train_budget == 60
    assert cfg.tbal.thresholds.eps_a == 0.05
    assert cfg.tbal.posthoc == al.SoftmaxConfig()
    assert cfg.tbal.hidden == (32,)
    assert cfg.dataset.means is None
    assert_circle_data(cfg.dataset)


def assert_circle_data(spec):
    # means left out are the circle of the spec's own shape when the data
    # is generated
    data = spec.load(40, seed=3)
    circle = al.synth_gaussian_mixture(
        spec.classes, spec.dim, default_circle_means(spec.classes, spec.dim),
        spec.sigma, 40, 3)
    assert np.array_equal(data.features, circle.features)
    assert np.array_equal(data.hidden_labels, circle.hidden_labels)


def test_default_circle_means():
    m = default_circle_means(4, 2)
    assert np.allclose(m, [[3, 0], [0, 3], [-3, 0], [0, -3]], atol=1e-12)
    line = default_circle_means(3, 1)
    assert np.array_equal(line, [[-3.0], [0.0], [3.0]])
    padded = default_circle_means(2, 5)
    assert padded.shape == (2, 5)
    assert np.all(padded[:, 2:] == 0)


def test_unknown_key_names_full_path():
    with pytest.raises(UnknownKeyError, match=r"config\.tbal\.epsilom_a"):
        parse_config_dict(doc(**{"tbal.epsilom_a": 0.01}))
    with pytest.raises(UnknownKeyError, match=r"config\.colour"):
        parse_config_dict(doc(colour="red"))
    with pytest.raises(UnknownKeyError, match=r"config\.dataset\.signa"):
        parse_config_dict(doc(**{"dataset.signa": 2.0}))


def test_missing_required_keys():
    d = doc()
    del d["dataset"]
    with pytest.raises(MissingKeyError, match=r"config\.dataset"):
        parse_config_dict(d)
    d = doc()
    del d["tbal"]["train_budget"]
    with pytest.raises(MissingKeyError, match=r"config\.tbal\.train_budget"):
        parse_config_dict(d)
    d = doc()
    del d["dataset"]["sigma"]
    with pytest.raises(MissingKeyError, match=r"config\.dataset\.sigma"):
        parse_config_dict(d)


def test_type_mismatches():
    with pytest.raises(TypeMismatchError, match=r"config\.tbal\.eps_a"):
        parse_config_dict(doc(**{"tbal.eps_a": "small"}))
    # booleans are not numbers
    with pytest.raises(TypeMismatchError, match=r"config\.tbal\.eps_a"):
        parse_config_dict(doc(**{"tbal.eps_a": True}))
    with pytest.raises(TypeMismatchError, match=r"config\.dataset\.pool_size"):
        parse_config_dict(doc(**{"dataset.pool_size": 200.5}))
    with pytest.raises(TypeMismatchError, match=r"config\.tbal"):
        parse_config_dict(doc(tbal=[1, 2]))
    with pytest.raises(TypeMismatchError, match=r"config\.tbal\.hidden\[1\]"):
        parse_config_dict(doc(**{"tbal.hidden": [32, "big"]}))
    # an explicit null is not an absent optional section
    with pytest.raises(TypeMismatchError, match=r"^config\.hpo: expected an "
                                                "object$"):
        parse_config_dict(doc(hpo=None))
    with pytest.raises(TypeMismatchError, match=r"^config\.tbal\.train: "):
        parse_config_dict(doc(**{"tbal.train": None}))


def test_range_errors():
    with pytest.raises(RangeError, match=r"config\.tbal\.eps_a"):
        parse_config_dict(doc(**{"tbal.eps_a": 1.5}))
    with pytest.raises(RangeError, match=r"config\.tbal\.cal_fraction"):
        parse_config_dict(doc(**{"tbal.cal_fraction": 1.5}))
    with pytest.raises(RangeError, match=r"config\.dataset\.sigma"):
        parse_config_dict(doc(**{"dataset.sigma": 0}))
    with pytest.raises(RangeError, match=r"config\.dataset\.val_size"):
        parse_config_dict(doc(**{"dataset.val_size": 1}))
    with pytest.raises(RangeError, match=r"config\.repeats"):
        parse_config_dict(doc(repeats=0))
    # dataclass-level validation keeps the section path
    with pytest.raises(RangeError, match=r"config\.tbal"):
        parse_config_dict(doc(**{"tbal.seed_size": 100}))


def test_means_validation():
    good = parse_config_dict(doc(**{"dataset.means": [[1, 0], [0, 1],
                                                      [-1, 0], [0, -1]]}))
    assert np.array_equal(good.dataset.means,
                          [[1, 0], [0, 1], [-1, 0], [0, -1]])
    # the parser reads rows of numbers; SyntheticSpec checks their shape
    for means in ([[1, 0], [0, 1]], [[1, 0], [0, 1], [-1, 0], [0]]):
        with pytest.raises(RangeError, match=r"^config\.dataset\.means: "
                                             r"means must have shape \(4, 2\)$"):
            parse_config_dict(doc(**{"dataset.means": means}))
    for means in ("origin", [1, 0, 0, 1]):
        with pytest.raises(TypeMismatchError, match=r"^config\.dataset\.means: "
                                                    "expected a list of lists"):
            parse_config_dict(doc(**{"dataset.means": means}))
    with pytest.raises(RangeError,
                       match=r"config\.dataset\.means\[1\]\[1\]: .*finite"):
        parse_config_dict(doc(**{"dataset.means": [[1, 0], [0, float("nan")],
                                                   [-1, 0], [0, -1]]}))


@pytest.mark.parametrize("fault, message", [
    ({"means": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0]]},
     "means must have shape (4, 2)"),
    ({"sigma": 0}, "sigma must be > 0"),
], ids=["ragged means", "sigma"])
def test_a_direct_mixture_call_refuses_as_the_spec_does(fault, message):
    # one rule, one message, whether the data is generated directly or
    # from a spec built in code
    given = {"sigma": 1.0, "means": default_circle_means(4, 2), **fault}
    with pytest.raises(ValueError) as direct:
        al.synth_gaussian_mixture(4, 2, given["means"], given["sigma"], 40, 0)
    with pytest.raises(ValueError) as spec:
        SyntheticSpec(pool_size=200, val_size=100, classes=4, dim=2, **given)
    assert str(direct.value) == str(spec.value) == message


@pytest.mark.parametrize("entry", [True, False, "1", "1.5", None, [1]])
@pytest.mark.parametrize("i, j", [(0, 0), (3, 1)])
def test_means_entries_are_numbers(entry, i, j):
    # as for every other numeric key, a bool or a numeric string is no number
    means = [[1, 0], [0, 1], [-1, 0], [0, -1]]
    means[i][j] = entry
    with pytest.raises(TypeMismatchError,
                       match=rf"^config\.dataset\.means\[{i}\]\[{j}\]: "
                             "expected a number"):
        parse_config_dict(doc(**{"dataset.means": means}))


def test_grid_and_grid_size_are_exclusive():
    both = doc(**{"tbal.grid": [0.5, 1.0], "tbal.grid_size": 4})
    with pytest.raises(ConfigError, match="not both"):
        parse_config_dict(both)
    sized = parse_config_dict(doc(**{"tbal.grid_size": 4}))
    assert np.allclose(sized.tbal.thresholds.grid, [0.25, 0.5, 0.75, 1.0])
    listed = parse_config_dict(doc(**{"tbal.grid": [0.3, 0.6, 0.9]}))
    assert np.array_equal(listed.tbal.thresholds.grid, [0.3, 0.6, 0.9])
    assert np.array_equal(parse_config_dict(doc()).tbal.thresholds.grid,
                          al.uniform_grid(200))


def test_posthoc_sections():
    cn = parse_config_dict(doc(**{"tbal.posthoc": {
        "method": "confidence_net", "lam": 50.0, "alpha": 2.0}}))
    assert isinstance(cn.tbal.posthoc, al.ConfidenceNetConfig)
    assert cn.tbal.posthoc.lam == 50.0
    assert cn.tbal.posthoc.alpha == 2.0
    assert cn.tbal.posthoc.max_epochs == 500
    temp = parse_config_dict(doc(**{"tbal.posthoc": {
        "method": "temperature"}}))
    assert temp.tbal.posthoc == al.TemperatureConfig()
    # the temperature is fit at the NLL minimum: the method takes no keys
    for key, value in (("epochs", 100), ("learning_rate", 0.05)):
        with pytest.raises(UnknownKeyError,
                           match=rf"config\.tbal\.posthoc\.{key}"):
            parse_config_dict(doc(**{"tbal.posthoc": {
                "method": "temperature", key: value}}))
    hb = parse_config_dict(doc(**{"tbal.posthoc": {
        "method": "top_label_hb", "points_per_bin": 10}}))
    assert hb.tbal.posthoc.points_per_bin == 10
    soft = parse_config_dict(doc(**{"tbal.posthoc": {"method": "softmax"}}))
    assert soft.tbal.posthoc == al.SoftmaxConfig()
    with pytest.raises(RangeError, match=r"config\.tbal\.posthoc\.method"):
        parse_config_dict(doc(**{"tbal.posthoc": {"method": "platt"}}))
    # a knob from the wrong method is an unknown key
    with pytest.raises(UnknownKeyError,
                       match=r"config\.tbal\.posthoc\.points_per_bin"):
        parse_config_dict(doc(**{"tbal.posthoc": {
            "method": "temperature", "points_per_bin": 10}}))


@pytest.mark.parametrize("key, value", [
    ("tbal.master_seed", 3),
    ("tbal.train", {"seed": 3}),
    ("tbal.posthoc", {"method": "confidence_net", "seed": 3}),
])
def test_seeds_are_not_section_keys(key, value):
    # every run and round seed derives from the top-level master_seed
    path = key if isinstance(value, int) else f"{key}.seed"
    with pytest.raises(UnknownKeyError,
                       match=rf"^config\.{re.escape(path)}: unknown key"):
        parse_config_dict(doc(**{key: value}))


def test_hpo_parsing():
    d = doc(**{"dataset.hyp_size": 50,
               "tbal.posthoc": {"method": "confidence_net"},
               "hpo": {"train_grid": {"learning_rate": [0.1, 0.01]},
                       "posthoc_grid": {"lam": [10, 100]},
                       "tie_break_seed": 3}})
    cfg = parse_config_dict(d)
    assert cfg.hpo.train_grid == {"learning_rate": [0.1, 0.01]}
    assert cfg.hpo.posthoc_grid == {"lam": [10, 100]}
    assert cfg.hpo.tie_break_seed == 3

    bad = copy.deepcopy(d)
    bad["hpo"]["posthoc_grid"] = {"momentum": [0.5]}
    with pytest.raises(UnknownKeyError, match="not a searchable"):
        parse_config_dict(bad)

    bad = copy.deepcopy(d)
    bad["hpo"]["train_grid"] = {}
    with pytest.raises(RangeError, match="at least one"):
        parse_config_dict(bad)

    bad = copy.deepcopy(d)
    bad["hpo"]["train_grid"]["learning_rate"] = []
    with pytest.raises(TypeMismatchError, match="non-empty list"):
        parse_config_dict(bad)

    bad = copy.deepcopy(d)
    bad["hpo"]["train_grid"] = [0.1]
    with pytest.raises(TypeMismatchError, match=r"^config\.hpo\.train_grid: "
                                                "expected an object of lists$"):
        parse_config_dict(bad)

    bad = copy.deepcopy(d)
    del bad["hpo"]["train_grid"]
    with pytest.raises(MissingKeyError, match=r"config\.hpo\.train_grid"):
        parse_config_dict(bad)

    # hpo without a hyperparameter split to evaluate on
    bad = copy.deepcopy(d)
    bad["dataset"]["hyp_size"] = 0
    with pytest.raises(RangeError, match="hyp_size"):
        parse_config_dict(bad)


def test_hpo_softmax_has_no_posthoc_grid():
    # one rule for every method with no searchable hyperparameters
    for method in ("softmax", "temperature"):
        d = doc(**{"dataset.hyp_size": 50,
                   "tbal.posthoc": {"method": method},
                   "hpo": {"train_grid": {"max_epochs": [10, 20]}}})
        cfg = parse_config_dict(d)
        assert cfg.hpo.posthoc_grid == {}
        for grid in ({"lam": [1.0]}, {"epochs": [50]}):
            bad = copy.deepcopy(d)
            bad["hpo"]["posthoc_grid"] = grid
            with pytest.raises(RangeError,
                               match=f"{method} has no hyperparameters"):
                parse_config_dict(bad)
        ok = copy.deepcopy(d)
        ok["hpo"]["posthoc_grid"] = {}
        assert parse_config_dict(ok).hpo.posthoc_grid == {}


BAD_GRID_VALUES = [
    # (method, grid, name, values): only the last value is one a run rejects
    ("softmax", "train_grid", "learning_rate", [0.05, -1.0]),
    ("softmax", "train_grid", "learning_rate", [0.05, 0.0]),
    ("softmax", "train_grid", "batch_size", [8, 2.5]),
    ("softmax", "train_grid", "loss", ["vanilla", True]),
    ("softmax", "train_grid", "momentum", [0.5, 1.0]),
    ("top_label_hb", "posthoc_grid", "points_per_bin", [10, 0]),
    ("confidence_net", "posthoc_grid", "lam", [10, 0]),
    ("confidence_net", "posthoc_grid", "max_epochs", [10, "20"]),
]


@pytest.mark.parametrize("method,grid,name,values", BAD_GRID_VALUES)
def test_hpo_grid_values_are_checked_at_parse_time(method, grid, name,
                                                   values):
    hpo = {"train_grid": {"max_epochs": [10, 20]}, grid: {name: values}}
    d = doc(**{"dataset.hyp_size": 50, "tbal.posthoc": {"method": method},
               "hpo": hpo})
    with pytest.raises(ConfigError, match=rf"config\.hpo\.{grid}\.{name}"):
        parse_config_dict(d)
    hpo[grid] = {name: values[:-1]}
    assert getattr(parse_config_dict(d).hpo, grid) == {name: values[:-1]}


@pytest.mark.parametrize("method,grid,values", [
    ("softmax", "train_grid", {"loss": ["squentropy"],
                               "learning_rate": [0.05],
                               "momentum": [0.5], "weight_decay": [0.1],
                               "batch_size": [8], "max_epochs": [3]}),
    ("top_label_hb", "posthoc_grid", {"points_per_bin": [5]}),
    ("confidence_net", "posthoc_grid", {"lam": [10.0], "alpha": [2.0],
                                        "learning_rate": [0.1],
                                        "weight_decay": [0.1],
                                        "batch_size": [8], "max_epochs": [3],
                                        "denom_epsilon": [1e-6]}),
])
def test_every_section_key_is_searchable(method, grid, values):
    # a grid may search exactly the keys its section takes, and no seed
    hpo = {"train_grid": {"max_epochs": [10, 20]}, grid: values}
    d = doc(**{"dataset.hyp_size": 50, "tbal.posthoc": {"method": method},
               "hpo": hpo})
    assert getattr(parse_config_dict(d).hpo, grid) == values
    hpo[grid] = {"seed": [1]}
    with pytest.raises(UnknownKeyError, match=rf"config\.hpo\.{grid}\.seed: "
                                              "not a searchable"):
        parse_config_dict(d)


# a valid instance of each config class, built fresh for each case
VALID_CONFIGS = {
    al.TrainConfig: al.TrainConfig,
    al.TbalConfig: lambda: al.TbalConfig(train_budget=60, seed_size=30,
                                         query_batch=15),
    al.ThresholdConfig: al.ThresholdConfig,
    al.TopLabelBinningConfig: al.TopLabelBinningConfig,
    al.ConfidenceNetConfig: al.ConfidenceNetConfig,
    al.ExperimentConfig: lambda: parse_config_dict(doc()),
    SyntheticSpec: lambda: parse_config_dict(doc()).dataset,
    FileSpec: lambda: FileSpec(pool_size=1, val_size=2, path="points.csv",
                               format="csv"),
    HpoSpec: lambda: HpoSpec({"max_epochs": [3]}, {}),
}
BAD_VALUES = {float: [float("nan"), float("inf"), 10 ** 400, True, "0.1",
                      None],
              int: [2.0, True, "3", None]}
# (class, field, bad value) for every int and float field, by annotation
NUMBER_FIELD_CASES = [
    (cls, f.name, value) for cls in VALID_CONFIGS
    for f in dataclasses.fields(cls)
    for value in BAD_VALUES.get(typing.get_type_hints(cls)[f.name], [])
]


def test_number_field_cases_cover_every_config_class():
    assert {cls for cls, _, _ in NUMBER_FIELD_CASES} == set(VALID_CONFIGS)
    assert (al.ExperimentConfig, "master_seed", 2.0) in NUMBER_FIELD_CASES


@pytest.mark.parametrize(
    "cls, field, value", NUMBER_FIELD_CASES,
    ids=[f"{cls.__name__}.{field}-{value!r}"
         for cls, field, value in NUMBER_FIELD_CASES])
def test_every_number_field_is_type_checked(cls, field, value):
    valid = VALID_CONFIGS[cls]()
    with pytest.raises(ValueError, match=rf"^{field} must be "):
        dataclasses.replace(valid, **{field: value})


# every number key whose range check a NaN or an infinity used to pass
FINITE_KEYS = [
    ("tbal", "c1"),
    ("tbal", "active_multiplier"),
    ("dataset", "sigma"),
    ("tbal", "train", "learning_rate"),
    ("tbal", "train", "weight_decay"),
    ("tbal", "posthoc", "alpha"),
    ("tbal", "posthoc", "lam"),
    ("tbal", "posthoc", "learning_rate"),
]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("path", FINITE_KEYS, ids=".".join)
def test_non_finite_numbers_are_rejected(path, value):
    d = doc(**{"tbal.posthoc": {"method": "confidence_net"}})
    parse_config_dict(d)
    section = d
    for key in path[:-1]:
        section = section.setdefault(key, {})
    section[path[-1]] = value
    name = r"\.".join(("config",) + path)
    with pytest.raises(RangeError, match=rf"^{name}: value -?(nan|inf) is "
                                         "not finite$"):
        parse_config_dict(d)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
def test_non_finite_list_and_grid_values_are_rejected(value):
    with pytest.raises(RangeError, match=r"^config\.tbal\.grid\[1\]: .*finite"):
        parse_config_dict(doc(**{"tbal.grid": [0.5, value]}))
    d = doc(**{"dataset.hyp_size": 50,
               "tbal.posthoc": {"method": "confidence_net"},
               "hpo": {"train_grid": {"learning_rate": [0.01, value]},
                       "posthoc_grid": {"alpha": [1.0]}}})
    with pytest.raises(RangeError,
                       match=r"^config\.hpo\.train_grid\.learning_rate: .*finite"):
        parse_config_dict(d)
    d["hpo"]["train_grid"] = {"learning_rate": [0.01]}
    d["hpo"]["posthoc_grid"] = {"alpha": [value]}
    with pytest.raises(RangeError,
                       match=r"^config\.hpo\.posthoc_grid\.alpha: .*finite"):
        parse_config_dict(d)


HUGE = 10 ** 400  # a JSON integer literal beyond float range


@pytest.mark.parametrize("overrides, key", [
    ({"dataset.sigma": HUGE}, r"dataset\.sigma"),
    ({"tbal.grid": [0.5, HUGE]}, r"tbal\.grid\[1\]"),
    ({"dataset.means": [[1, 0], [0, 1], [-1, HUGE], [0, -1]]},
     r"dataset\.means\[2\]\[1\]"),
    ({"tbal.train": {"learning_rate": HUGE}}, r"tbal\.train\.learning_rate"),
], ids=["sigma", "grid", "means", "train"])
def test_integers_beyond_float_range_are_rejected(overrides, key):
    with pytest.raises(RangeError,
                       match=rf"^config\.{key}: integer too large for a "
                             "float$"):
        parse_config_dict(doc(**overrides))


@pytest.mark.parametrize("hidden,index", [([0], 0), ([-3], 0), ([16, 0], 1)])
def test_hidden_widths_below_one_are_rejected(hidden, index):
    with pytest.raises(RangeError, match=rf"config\.tbal\.hidden\[{index}\]"):
        parse_config_dict(doc(**{"tbal.hidden": hidden}))
    assert parse_config_dict(doc(**{"tbal.hidden": [1, 2]})).tbal.hidden \
        == (1, 2)


def test_file_dataset_path_resolution(tmp_path):
    data = tmp_path / "points.csv"
    data.write_text("0.0,1.0,0\n1.0,0.0,1\n")
    d = doc(dataset={"kind": "file", "path": "points.csv", "format": "csv",
                     "pool_size": 1, "val_size": 2}, **{"tbal.seed_size": 1})
    cfg = parse_config_dict(d, base_dir=str(tmp_path))
    assert cfg.dataset.path == str(data)
    assert cfg.dataset.format == "csv"
    assert cfg.dataset.labels_path is None

    absolute = copy.deepcopy(d)
    absolute["dataset"]["path"] = str(data)
    assert parse_config_dict(absolute, base_dir="/nowhere").dataset.path \
        == str(data)

    with pytest.raises(ConfigError, match="no such file"):
        parse_config_dict(d, base_dir="/nowhere")
    bad_fmt = copy.deepcopy(d)
    bad_fmt["dataset"]["format"] = "parquet"
    with pytest.raises(RangeError, match=r"config\.dataset\.format"):
        parse_config_dict(bad_fmt, base_dir=str(tmp_path))
    with_labels = copy.deepcopy(d)
    with_labels["dataset"]["labels_path"] = "missing-labels.idx"
    with pytest.raises(ConfigError, match="labels_path"):
        parse_config_dict(with_labels, base_dir=str(tmp_path))


def test_file_formats_are_the_data_readers(tmp_path, monkeypatch):
    # the parser keeps no list of its own: a format is a key of _LOADERS
    from autolabel import data
    (tmp_path / "points.npy").write_bytes(b"")
    d = doc(dataset={"kind": "file", "path": "points.npy", "format": "npy",
                     "pool_size": 1, "val_size": 2}, **{"tbal.seed_size": 1})
    with pytest.raises(RangeError, match=r"config\.dataset\.format"):
        parse_config_dict(d, base_dir=str(tmp_path))
    monkeypatch.setitem(data._LOADERS, "npy", None)
    assert parse_config_dict(d, base_dir=str(tmp_path)).dataset.format \
        == "npy"


def test_absolute_names_pass_through_unchanged(tmp_path):
    points, labels = tmp_path / "points.idx", tmp_path / "labels.idx"
    points.write_bytes(b"")
    labels.write_bytes(b"")
    d = doc(dataset={"kind": "file", "path": str(points), "format": "idx",
                     "labels_path": str(labels), "pool_size": 1,
                     "val_size": 2},
            output_dir=str(tmp_path / "out"), **{"tbal.seed_size": 1})
    cfg = parse_config_dict(d, base_dir="/nowhere")
    assert (cfg.dataset.path, cfg.dataset.labels_path, cfg.output_dir) \
        == (str(points), str(labels), str(tmp_path / "out"))


def test_a_seed_set_larger_than_the_pool_is_refused():
    with pytest.raises(RangeError, match=r"^config\.tbal\.seed_size: 30 "
                                         r"exceeds dataset\.pool_size 29$"):
        parse_config_dict(doc(**{"dataset.pool_size": 29}))
    assert parse_config_dict(doc(**{"dataset.pool_size": 30})).tbal \
        .seed_size == 30


@pytest.mark.parametrize("setting", [
    {"coverage_floor": 0},
    {"grid": [0.9, 0.5]},
    {"grid": [0.5, 1.5]},
])
def test_bad_threshold_settings_fail_at_parse_time(setting):
    d = doc(**{f"tbal.{key}": value for key, value in setting.items()})
    with pytest.raises(RangeError, match=r"config\.tbal"):
        parse_config_dict(d)


def test_group_by_accepts_only_predicted_label():
    # thresholds are always estimated on predicted-class groups; the key
    # stays only so configs that name that grouping still parse
    named = parse_config_dict(doc(**{"tbal.group_by": "predicted_label"}))
    assert repr(named) == repr(parse_config_dict(doc()))
    with pytest.raises(RangeError,
                       match=r"^config\.tbal\.group_by: 'true_label' not one"):
        parse_config_dict(doc(**{"tbal.group_by": "true_label"}))


# (section within tbal or None, key, value): a bad value of a key a config
# class checks is reported under that key, not under its section
CLASS_CHECKED_KEYS = [
    (None, "coverage_floor", 0.0),
    ("train", "learning_rate", 0.0),
    ("train", "momentum", 1.0),
    ("posthoc", "lam", 0),
    ("posthoc", "alpha", 0),
    ("posthoc", "denom_epsilon", 0),
    (None, "train_budget", 0),
    (None, "group_by", "x"),
    (None, "grid", [0.9, 0.5]),
]


@pytest.mark.parametrize("section,key,value", CLASS_CHECKED_KEYS)
def test_range_errors_name_the_key(section, key, value):
    d = doc(**{"tbal.posthoc": {"method": "confidence_net"}})
    parse_config_dict(d)
    target = d["tbal"]
    if section is not None:
        target = target.setdefault(section, {})
    target[key] = value
    with pytest.raises(RangeError, match=rf"^config\.tbal(\.train|\.posthoc)?"
                                         rf"\.{key}: "):
        parse_config_dict(d)


# each config class with a RANGES table, and the sections of a config file
# that set its keys
RANGE_SECTIONS = {
    al.ExperimentConfig: (),
    SyntheticSpec: ("dataset",),
    FileSpec: ("dataset",),
    HpoSpec: ("hpo",),
    al.TbalConfig: ("tbal",),
    al.ThresholdConfig: ("tbal",),
    al.TrainConfig: ("tbal", "train"),
    al.TopLabelBinningConfig: ("tbal", "posthoc"),
    al.ConfidenceNetConfig: ("tbal", "posthoc"),
}


def range_edges(rule: str, kind):
    """(inside, outside) for each bound of ``rule``: the value on its
    inside edge and the nearest value outside, for a field of type kind."""
    if rule.startswith("in "):
        lo, hi = rule[4:-1].split(", ")
        ends = [(lo, rule[3] == "[", -1), (hi, rule[-1] == "]", 1)]
    else:
        op, bound = rule.split(" ")
        ends = [(bound, op == ">=", -1)]
    step = ((lambda v, d: v + d) if kind is int
            else lambda v, d: float(np.nextafter(v, d * np.inf)))
    for bound, closed, out in ends:
        bound = kind(bound)
        yield (bound, step(bound, out)) if closed else (step(bound, -out), bound)


RANGE_CASES = [(cls, key, rule, inside, outside)
               for cls in RANGE_SECTIONS for key, rule in cls.RANGES.items()
               for inside, outside in range_edges(rule, _keys(cls)[key])]


def test_range_sections_name_every_class_with_ranges():
    modules = (al.mlp, al.loop, al.thresholds, al.confidence, al.config)
    tabled = {obj for module in modules for obj in vars(module).values()
              if isinstance(obj, type) and hasattr(obj, "RANGES")}
    assert tabled == set(RANGE_SECTIONS)


@pytest.mark.parametrize(
    "cls, key, rule, inside, outside", RANGE_CASES,
    ids=[f"{cls.__name__}.{key}-{outside!r}"
         for cls, key, _, _, outside in RANGE_CASES])
def test_every_range_rule_holds_at_its_edge(cls, key, rule, inside, outside,
                                            tmp_path):
    # the class takes the inside edge and refuses the nearest value outside
    # with the rule as its message; a config file's value is refused under
    # its own key path
    sections = RANGE_SECTIONS[cls]
    d = doc(**{"tbal.seed_size": 1,
               "tbal.posthoc": {"method": getattr(cls, "method", "softmax")}})
    if cls is FileSpec:
        (tmp_path / "points.csv").write_text("0.0,1.0,0\n1.0,0.0,1\n")
        d["dataset"] = {"kind": "file", "path": "points.csv", "format": "csv",
                        "pool_size": 1, "val_size": 2}
    if cls is HpoSpec:
        d["dataset"]["hyp_size"] = 1
        d["hpo"] = {"train_grid": {"max_epochs": [3]}}
    cfg = parse_config_dict(d, base_dir=str(tmp_path))
    valid, = (obj for obj in (cfg, cfg.dataset, cfg.hpo, cfg.tbal,
                              cfg.tbal.thresholds, cfg.tbal.train,
                              cfg.tbal.posthoc)
              if type(obj) is cls)
    assert getattr(dataclasses.replace(valid, **{key: inside}), key) == inside
    with pytest.raises(ValueError,
                       match=f"^{re.escape(f'{key} must be {rule}')}$"):
        dataclasses.replace(valid, **{key: outside})
    target = d
    for name in sections:
        target = target.setdefault(name, {})
    target[key] = outside
    path = ".".join(("config", *sections, key))
    with pytest.raises(RangeError, match=rf"^{re.escape(path)}: "):
        parse_config_dict(d, base_dir=str(tmp_path))


def test_a_config_built_in_code_refuses_a_negative_master_seed():
    # as a parsed one does; each repeat's seed derives from it
    cfg = parse_config_dict(doc())
    with pytest.raises(ValueError, match=r"^master_seed must be >= 0$"):
        dataclasses.replace(cfg, master_seed=-1)
    with pytest.raises(ValueError, match=r"^master_seed must be >= 0$"):
        al.ExperimentConfig(dataset=cfg.dataset, tbal=cfg.tbal, repeats=1,
                            output_dir="out", master_seed=-7, hpo=None)


def test_an_optional_key_left_unset_skips_its_rule():
    # num_classes None reads the class count from the labels
    spec = FileSpec(pool_size=1, val_size=2, path="points.csv", format="csv")
    assert spec.num_classes is None
    assert dataclasses.replace(spec, num_classes=2).num_classes == 2
    for value, rule in ((2.0, "an integer"), (True, "an integer"),
                        (1, ">= 2")):
        with pytest.raises(ValueError, match=f"^num_classes must be {rule}"):
            dataclasses.replace(spec, num_classes=value)


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(language: str, after: str) -> str:
    text = README.read_text()
    start = text.index(after)
    return re.search(rf"```{language}\n(.*?)```", text[start:], re.S).group(1)


def test_readme_examples_parse():
    # the documented grammar and API forms must stay in step with the code
    cfg = parse_config_dict(json.loads(_readme_block("json", "## Config files")),
                            base_dir="/tmp/exp")
    assert isinstance(cfg.tbal.posthoc, al.ConfidenceNetConfig)
    assert cfg.tbal.posthoc.lam == 10.0 and cfg.tbal.posthoc.max_epochs == 100
    assert cfg.tbal.thresholds.eps_a == 0.05
    quick = _readme_block("python", "## Library quick start")
    namespace = {}
    exec(quick[:quick.index("report = ")], namespace)
    assert namespace["cfg"].thresholds.eps_a == 0.05



def test_readme_config_section_names_every_key_and_method():
    # a key or a method added in code is documented where configs are, so
    # a method written as one class cannot go unlisted
    text = README.read_text()
    section = text[text.index("## Config files"):text.index("## Outputs")]
    classes = (al.TbalConfig, al.ThresholdConfig, al.TrainConfig,
               al.ExperimentConfig, SyntheticSpec, FileSpec, HpoSpec,
               *POSTHOC_CONFIGS.values())
    names = {key for cls in classes for key in _keys(cls)}
    missing = sorted(name for name in names | set(POSTHOC_CONFIGS)
                     if f"`{name}`" not in section)
    assert missing == []


def test_readme_range_table_is_the_classes_range_tables():
    # each row is (class, key, rule), both ways
    text = README.read_text()
    section = text[text.index("## Config files"):text.index("## Outputs")]
    rows = set(re.findall(r"^\| `(\w+)` \| `(\w+)` \| `([^`]+)` \|$",
                          section, re.M))
    assert rows == {(cls.__name__, key, rule) for cls in RANGE_SECTIONS
                    for key, rule in cls.RANGES.items()}


@pytest.mark.parametrize("fmt", ["csv", "rawf32"])
def test_labels_path_is_rejected_outside_idx(tmp_path, fmt):
    (tmp_path / "points").write_text("0.0,1.0,0\n1.0,0.0,1\n")
    (tmp_path / "labels.bin").write_bytes(b"not a label file")
    d = doc(dataset={"kind": "file", "path": "points", "format": fmt,
                     "labels_path": "labels.bin", "pool_size": 1,
                     "val_size": 2}, **{"tbal.seed_size": 1})
    # csv and rawf32 hold their own labels: the key is not theirs
    with pytest.raises(UnknownKeyError,
                       match=r"config\.dataset\.labels_path"):
        parse_config_dict(d, base_dir=str(tmp_path))
    d["dataset"]["format"] = "idx"
    cfg = parse_config_dict(d, base_dir=str(tmp_path))
    assert cfg.dataset.labels_path == str(tmp_path / "labels.bin")
    d["dataset"]["labels_path"] = "missing-labels.idx"
    with pytest.raises(ConfigError, match=r"labels_path: no such file"):
        parse_config_dict(d, base_dir=str(tmp_path))


def test_train_section():
    cfg = parse_config_dict(doc(**{"tbal.train": {
        "loss": "squentropy", "learning_rate": 0.2, "max_epochs": 5}}))
    assert cfg.tbal.train.loss == "squentropy"
    assert cfg.tbal.train.learning_rate == 0.2
    assert cfg.tbal.train.max_epochs == 5
    assert cfg.tbal.train.batch_size == 32
    with pytest.raises(RangeError, match=r"config\.tbal\.train\.loss"):
        parse_config_dict(doc(**{"tbal.train": {"loss": "hinge"}}))


def test_parse_config_file_errors(tmp_path):
    missing = tmp_path / "none.json"
    with pytest.raises(ConfigError, match="cannot read the config"):
        parse_config(str(missing))
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config(str(broken))
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    with pytest.raises(TypeMismatchError, match="top level"):
        parse_config(str(listy))


@pytest.mark.parametrize("text,key", [
    ('{"repeats": 1, "repeats": 2}', "repeats"),
    ('{"tbal": {"eps_a": 0.01, "eps_a": 0.5}}', "eps_a"),
], ids=["top-level", "nested"])
def test_parse_config_refuses_a_repeated_key(tmp_path, text, key):
    # JSON would let the last value win, silently
    path = tmp_path / "exp.json"
    path.write_text(text)
    with pytest.raises(ConfigError,
                       match=rf"^{re.escape(str(path))}: repeated key '{key}'$"):
        parse_config(str(path))


def test_parse_config_round_trip(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc(output_dir="results")))
    cfg = parse_config(str(path))
    assert cfg.output_dir == str(tmp_path / "results")
    assert cfg.tbal.query_batch == 15


HPO_DOC = doc(**{"dataset.hyp_size": 50})
GRID = {"max_epochs": [3]}
# (key the error names, the same fault in a config file or None, the fault
# built in code from the config HPO_DOC parses to)
BUILT_IN_CODE = {
    "seed set larger than the pool": (
        "tbal.seed_size", {"dataset.pool_size": 29},
        lambda cfg: dataclasses.replace(cfg, dataset=dataclasses.replace(
            cfg.dataset, pool_size=29))),
    "hpo without hyp rows": (
        "dataset.hyp_size",
        {"dataset.hyp_size": 0, "hpo": {"train_grid": GRID}},
        lambda cfg: dataclasses.replace(cfg, hpo=HpoSpec(GRID, {}),
                                        dataset=dataclasses.replace(
                                            cfg.dataset, hyp_size=0))),
    "bad grid value": (
        "hpo.train_grid.learning_rate",
        {"hpo": {"train_grid": {"learning_rate": [0.1, -1.0]}}},
        lambda cfg: dataclasses.replace(cfg, hpo=HpoSpec(
            {"learning_rate": [0.1, -1.0]}, {}))),
    "unknown grid name": (
        "hpo.train_grid.nope", {"hpo": {"train_grid": {"nope": [1]}}},
        lambda cfg: dataclasses.replace(cfg, hpo=HpoSpec({"nope": [1]}, {}))),
    "empty value list": (
        "hpo.train_grid.learning_rate",
        {"hpo": {"train_grid": {"learning_rate": []}}},
        lambda cfg: dataclasses.replace(cfg, hpo=HpoSpec(
            {"learning_rate": []}, {}))),
    "value not a list": (
        "hpo.train_grid.learning_rate",
        {"hpo": {"train_grid": {"learning_rate": 0.1}}},
        lambda cfg: dataclasses.replace(cfg, hpo=HpoSpec(
            {"learning_rate": 0.1}, {}))),
    "empty train grid": (
        "hpo.train_grid", {"hpo": {"train_grid": {}}},
        lambda cfg: dataclasses.replace(cfg, hpo=HpoSpec({}, {}))),
    "posthoc grid under softmax": (
        "hpo.posthoc_grid",
        {"hpo": {"train_grid": GRID, "posthoc_grid": {"lam": [1.0]}}},
        lambda cfg: al.ExperimentConfig(
            dataset=cfg.dataset, tbal=cfg.tbal,
            hpo=HpoSpec(GRID, {"lam": [1.0]}))),
    "file format npy": (
        "format", None,
        lambda cfg: FileSpec(pool_size=1, val_size=2, path="points.npy",
                             format="npy")),
    "labels file for csv": (
        "labels_path", None,
        lambda cfg: FileSpec(pool_size=1, val_size=2, path="points.csv",
                             format="csv", labels_path="labels.idx")),
    "means not classes x dim": (
        "dataset.means", {"dataset.means": [[0, 0], [0, 0], [0, 0]]},
        lambda cfg: SyntheticSpec(pool_size=200, val_size=100, classes=4,
                                  dim=2, sigma=1.0, means=np.zeros((3, 2)))),
    "ragged means": (
        "dataset.means", {"dataset.means": [[0, 0], [0, 0], [0, 0], [0]]},
        lambda cfg: SyntheticSpec(pool_size=200, val_size=100, classes=4,
                                  dim=2, sigma=1.0,
                                  means=[[0, 0], [0, 0], [0, 0], [0]])),
    "grid value of the wrong type": (
        "hpo.train_grid.max_epochs",
        {"hpo": {"train_grid": {"max_epochs": ["20"]}}},
        lambda cfg: dataclasses.replace(cfg, hpo=HpoSpec(
            {"max_epochs": ["20"]}, {}))),
    "grid value beyond float range": (
        "hpo.train_grid.learning_rate",
        {"hpo": {"train_grid": {"learning_rate": [HUGE]}}},
        lambda cfg: dataclasses.replace(cfg, hpo=HpoSpec(
            {"learning_rate": [HUGE]}, {}))),
}


@pytest.mark.parametrize("key, overrides, build", BUILT_IN_CODE.values(),
                         ids=BUILT_IN_CODE)
def test_a_config_built_in_code_is_refused_when_it_is_built(key, overrides,
                                                            build):
    # so it never reaches run_experiment or hyperparameter_search; a rule
    # across sections reads as the parser reports it, less "config.", and
    # a section's rule as it does less "config.<key path>: "
    cfg = parse_config_dict(HPO_DOC)
    with pytest.raises(ValueError,
                       match=re.escape(key.rsplit(".", 1)[-1])) as built:
        build(cfg)
    if overrides is not None:
        with pytest.raises(ConfigError) as parsed:
            parse_config_dict(doc(**{"dataset.hyp_size": 50, **overrides}))
        message = str(built.value)
        if not message.startswith(f"{key}: "):
            message = f"{key}: {message}"  # a section's class names its field
        assert str(parsed.value) == f"config.{message}"


def test_default_means_follow_classes_and_dim():
    # means left out stay None, so a spec of any shape generates the circle
    # of its own; means given are checked against the shape
    spec = parse_config_dict(doc()).dataset
    for changed in (dataclasses.replace(spec, classes=3),
                    dataclasses.replace(spec, dim=1)):
        assert changed.means is None
        assert_circle_data(changed)
    given = dataclasses.replace(spec, means=np.ones((4, 2)))
    assert np.array_equal(dataclasses.replace(given, pool_size=9).means,
                          np.ones((4, 2)))
    with pytest.raises(ValueError, match=r"^means must have shape \(3, 2\)$"):
        dataclasses.replace(given, classes=3)


SEARCH_DOC = doc(**{
    "dataset.hyp_size": 50,
    "dataset.means": [[1, 0], [0, 1], [-1, 0], [0, -1]],
    "tbal.train": {"max_epochs": 5},
    "tbal.posthoc": {"method": "confidence_net"},
    "hpo": {"train_grid": {"learning_rate": [0.1, 0.2, 0.3],
                           "max_epochs": [10, 20]},
            "posthoc_grid": {"lam": [1.0, 10.0, 100.0], "alpha": [1, 2]}}})


def test_a_parse_builds_each_config_object_once(tmp_path, monkeypatch):
    # one field check per config object in the result, plus one per grid
    # value (the check of that value); a rebuild would add a check
    checked = []
    check = al.data._check_fields
    monkeypatch.setattr(al.data, "_check_fields",
                        lambda config: checked.append(config) or check(config))
    cfg = parse_config_dict(SEARCH_DOC)
    objects = (cfg, cfg.dataset, cfg.hpo, cfg.tbal, cfg.tbal.thresholds,
               cfg.tbal.train, cfg.tbal.posthoc)
    assert len(checked) == len(objects) + 10 == 17
    assert {id(obj) for obj in objects} <= {id(obj) for obj in checked}
    checked.clear()
    (tmp_path / "points.csv").write_text("0.0,1.0,0\n1.0,0.0,1\n")
    cfg = parse_config_dict(doc(
        dataset={"kind": "file", "path": "points.csv", "format": "csv",
                 "pool_size": 1, "val_size": 2}, **{"tbal.seed_size": 1}),
        base_dir=str(tmp_path))
    objects = (cfg, cfg.dataset, cfg.tbal, cfg.tbal.thresholds,
               cfg.tbal.train)
    assert len(checked) == len(objects) == 5
    assert {id(obj) for obj in checked} == {id(obj) for obj in objects}


@pytest.mark.parametrize("grid", [[], 5, "lam", {"lam": []}],
                         ids=["list", "number", "string", "empty-values"])
def test_a_method_with_no_keys_takes_only_an_empty_posthoc_grid(grid):
    # any other value names a search there is not; null reads as absent
    d = doc(**{"dataset.hyp_size": 50,
               "hpo": {"train_grid": GRID, "posthoc_grid": grid}})
    with pytest.raises(RangeError, match=r"^config\.hpo\.posthoc_grid: "
                                         r"softmax has no hyperparameters$"):
        parse_config_dict(d)
    d["hpo"]["posthoc_grid"] = None
    assert parse_config_dict(d).hpo.posthoc_grid == {}
