import json
import os
import subprocess
import sys

import pytest

from autolabel.cli import main


def write_config(tmp_path, name="exp.json", **extra):
    doc = {
        "master_seed": 11,
        "repeats": 1,
        "output_dir": "out",
        "dataset": {"kind": "synthetic", "classes": 2, "dim": 2,
                    "means": [[-8.0, 0.0], [8.0, 0.0]], "sigma": 0.6,
                    "pool_size": 120, "val_size": 40},
        "tbal": {"train_budget": 30, "seed_size": 30, "query_batch": 10,
                 "train": {"max_epochs": 25, "learning_rate": 0.05}},
    }
    doc.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_run_success(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "error: 0.0000" in out
    assert (tmp_path / "out" / "summary.json").exists()


def test_run_out_and_seed_overrides(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "alt")]) == 0
    assert (tmp_path / "alt" / "summary.json").exists()
    assert not (tmp_path / "out").exists()
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "alt2"),
                 "--seed", "99"]) == 0
    a = json.loads((tmp_path / "alt" / "run_00" / "report.json").read_text())
    b = json.loads((tmp_path / "alt2" / "run_00" / "report.json").read_text())
    assert a["output"]["ids"] != b["output"]["ids"]


def test_run_config_error_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dataset": {"kind": "synthetic"}}))
    assert main(["run", "--config", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1


def test_repeated_config_key_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path)
    text = open(cfg).read().replace('"seed_size": 30,',
                                    '"seed_size": 30, "seed_size": 20,')
    assert text.count('"seed_size"') == 2
    (tmp_path / "exp.json").write_text(text)
    assert main(["run", "--config", cfg]) == 1
    assert f"config error: {cfg}: repeated key 'seed_size'" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_config_exit_1(tmp_path, capsys, kind):
    cfg = write_config(tmp_path)
    if kind == "directory":
        cfg = str(tmp_path)
    else:
        text = open(cfg).read().replace('"out"', '"\u00e9"')
        (tmp_path / "exp.json").write_bytes(text.encode("latin-1"))
    assert main(["run", "--config", cfg]) == 1
    assert f"config error: {cfg}: cannot read the config (" \
        in capsys.readouterr().err


@pytest.mark.parametrize("tbal", [
    {"coverage_floor": 0}, {"grid": [0.9, 0.5]}, {"grid": [0.5, 1.5]}])
def test_bad_threshold_settings_exit_1(tmp_path, capsys, tbal):
    tbal = {"train_budget": 30, "seed_size": 30, "query_batch": 10, **tbal}
    cfg = write_config(tmp_path, tbal=tbal)
    assert main(["run", "--config", cfg]) == 1
    assert "config error: config.tbal" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("tbal,key", [
    ({"posthoc": {"method": "temperature", "epochs": 100}},
     "config.tbal.posthoc.epochs"),
    ({"posthoc": {"method": "temperature", "learning_rate": 0.05}},
     "config.tbal.posthoc.learning_rate"),
    ({"hidden": [0]}, "config.tbal.hidden[0]"),
    ({"hidden": [-3]}, "config.tbal.hidden[0]"),
    ({"group_by": "true_label"}, "config.tbal.group_by"),
])
def test_removed_or_out_of_range_tbal_keys_exit_1(tmp_path, capsys, tbal,
                                                  key):
    tbal = {"train_budget": 30, "seed_size": 30, "query_batch": 10, **tbal}
    cfg = write_config(tmp_path, tbal=tbal)
    assert main(["run", "--config", cfg]) == 1
    assert f"config error: {key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name,values", [
    ("learning_rate", [0.05, -1.0]),
    ("batch_size", [8, 2.5]),
    ("loss", ["vanilla", True]),
])
def test_bad_hpo_grid_values_exit_1(tmp_path, capsys, name, values):
    cfg = write_config(
        tmp_path,
        dataset={"kind": "synthetic", "classes": 2, "dim": 2,
                 "means": [[-8.0, 0.0], [8.0, 0.0]], "sigma": 0.6,
                 "pool_size": 80, "val_size": 30, "hyp_size": 30},
        hpo={"train_grid": {name: values}})
    assert main(["hpo", "--config", cfg]) == 1
    assert f"config error: config.hpo.train_grid.{name}" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_labels_path_on_csv_exit_1(tmp_path, capsys):
    (tmp_path / "points.csv").write_text("x,y,label\n0.0,1.0,0\n1.0,0.0,1\n")
    (tmp_path / "garbage.idx").write_bytes(b"\x00\x01garbage")
    cfg = write_config(tmp_path, dataset={
        "kind": "file", "path": "points.csv", "format": "csv",
        "labels_path": "garbage.idx", "pool_size": 1, "val_size": 2})
    assert main(["run", "--config", cfg]) == 1
    assert "config.dataset.labels_path" in capsys.readouterr().err


def test_seed_set_larger_than_the_pool_exit_1(tmp_path, capsys):
    # a run that could never start is refused before any output is made
    cfg = write_config(
        tmp_path,
        dataset={"kind": "synthetic", "classes": 2, "dim": 2,
                 "means": [[-8.0, 0.0], [8.0, 0.0]], "sigma": 0.6,
                 "pool_size": 10, "val_size": 40},
        tbal={"train_budget": 30, "seed_size": 20, "query_batch": 10})
    assert main(["run", "--config", cfg]) == 1
    assert "config error: config.tbal.seed_size" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "hpo"])
def test_dataset_smaller_than_the_config_exit_2_and_writes_nothing(
        tmp_path, capsys, command):
    # the data load before any output is made
    (tmp_path / "four.csv").write_text("x,label\n0,0\n1,1\n2,0\n3,1\n")
    cfg = write_config(
        tmp_path,
        dataset={"kind": "file", "path": "four.csv", "format": "csv",
                 "pool_size": 3, "val_size": 2, "hyp_size": 1},
        tbal={"train_budget": 3, "seed_size": 3, "query_batch": 1},
        hpo={"train_grid": {"max_epochs": [3]}})
    assert main([command, "--config", cfg]) == 2
    assert "ValueError: dataset has 4 points, config asks for 6" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_empty_out_is_the_current_directory(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", cfg, "--out", ""]) == 0
    assert (tmp_path / "summary.json").exists()
    assert (tmp_path / "run_00" / "report.json").exists()


def test_run_existing_output_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", cfg]) == 0
    assert main(["run", "--config", cfg]) == 2
    assert "exists" in capsys.readouterr().err
    assert main(["run", "--config", cfg, "--force"]) == 0


@pytest.mark.parametrize("command", ["run", "hpo"])
def test_output_path_that_is_a_file_exit_2_before_the_data_load(
        tmp_path, capsys, monkeypatch, command):
    cfg = write_config(
        tmp_path,
        dataset={"kind": "synthetic", "classes": 2, "dim": 2, "sigma": 0.6,
                 "pool_size": 80, "val_size": 30, "hyp_size": 30},
        hpo={"train_grid": {"max_epochs": [3]}})
    afile = tmp_path / "afile"
    afile.write_text("mine\n")
    loads = []
    monkeypatch.setattr("autolabel.runner.materialize_dataset",
                        lambda cfg: loads.append(cfg))
    for force in ([], ["--force"]):
        assert main([command, "--config", cfg, "--out", str(afile)]
                    + force) == 2
        assert capsys.readouterr().err == (
            f"error: OutputExistsError: {afile} exists and is not a "
            "directory\n")
    assert afile.read_text() == "mine\n"
    assert loads == []


def test_forced_run_removes_a_stray_run_file(tmp_path):
    cfg = write_config(tmp_path)
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "run_07").write_text("stray\n")
    assert main(["run", "--config", cfg, "--force"]) == 0
    assert sorted(os.listdir(tmp_path / "out")) == ["run_00", "summary.json"]


def test_hpo_subcommand(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        dataset={"kind": "synthetic", "classes": 2, "dim": 2,
                 "means": [[-8.0, 0.0], [8.0, 0.0]], "sigma": 0.6,
                 "pool_size": 80, "val_size": 30, "hyp_size": 30},
        tbal={"train_budget": 20, "seed_size": 20, "query_batch": 10,
              "train": {"max_epochs": 5}},
        hpo={"train_grid": {"max_epochs": [3, 6]}})
    assert main(["hpo", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "train winner" in out
    assert (tmp_path / "out" / "hpo_result.json").exists()
    # same config without an hpo section is a config error
    plain = write_config(tmp_path, name="plain.json")
    assert main(["hpo", "--config", plain]) == 1


def test_non_finite_config_number_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path)
    text = open(cfg).read().replace('"sigma": 0.6', '"sigma": NaN')
    assert "NaN" in text
    (tmp_path / "exp.json").write_text(text)
    assert main(["run", "--config", cfg]) == 1
    assert "config.dataset.sigma: value nan is not finite" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_integer_beyond_float_range_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path)
    text = open(cfg).read().replace('"sigma": 0.6', '"sigma": 1' + "0" * 400)
    (tmp_path / "exp.json").write_text(text)
    assert main(["run", "--config", cfg]) == 1
    assert "config.dataset.sigma: integer too large for a float" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_integer_past_the_digit_limit_exit_1(tmp_path, capsys):
    # json refuses to convert an integer of more than 4,300 digits
    cfg = write_config(tmp_path)
    text = open(cfg).read().replace('"repeats": 1', '"repeats": ' + "1" * 5000)
    (tmp_path / "exp.json").write_text(text)
    assert main(["run", "--config", cfg]) == 1
    assert f"config error: {cfg}: invalid JSON (" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "hpo"])
def test_negative_seed_exit_1(tmp_path, capsys, command):
    cfg = write_config(tmp_path)
    assert main([command, "--config", cfg, "--seed", "-3"]) == 1
    assert "config error: --seed must be at least 0, got -3" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["run"])  # --config is required
    capsys.readouterr()


@pytest.mark.parametrize("command", ["toy-check", "gen-synth"])
def test_removed_subcommands_are_unknown(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert f"invalid choice: '{command}'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["run", "hpo"])
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_exit_1(tmp_path, capsys, command, jobs):
    cfg = write_config(
        tmp_path,
        dataset={"kind": "synthetic", "classes": 2, "dim": 2,
                 "means": [[-8.0, 0.0], [8.0, 0.0]], "sigma": 0.6,
                 "pool_size": 80, "val_size": 30, "hyp_size": 30},
        hpo={"train_grid": {"max_epochs": [3, 6]}})
    assert main([command, "--config", cfg, "--jobs", jobs]) == 1
    assert f"config error: --jobs must be at least 1, got {jobs}" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "autolabel.cli", "run", "--config", cfg],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("runs: 1  error: ")
    assert (tmp_path / "out" / "summary.json").exists()
