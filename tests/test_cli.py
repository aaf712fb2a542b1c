import dataclasses
import json
from pathlib import Path

import pytest

from ddgcn import cli, data, graph
from ddgcn.layers import ModelConfig
from ddgcn.train import TrainConfig
from ddgcn.windows import WindowSpec


def base_config(tmp_path, **overrides):
    doc = {
        "seed": 0,
        "topology": "toy5",
        "strategy": "activity",
        "stream": "joint",
        "output_dir": str(tmp_path / "out"),
        "model": {
            "window": [4, 5], "heads": 4, "kernel": 3, "groups": 4,
            "channels": [8, 8], "strides": [1, 1], "in_channels": 3,
        },
        "train": {"epochs": 4, "batch_size": 8, "base_lr": 0.005, "seed": 0},
        "data": {"synthetic": {"num_classes": 3, "samples_per_class": 2,
                               "frames": 8, "noise_std": 0.0, "seed": 5}},
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_train_writes_history_and_checkpoint(tmp_path, capsys):
    config = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["train", "--config", config]) == 0
    out = capsys.readouterr().out
    assert "train accuracy" in out
    assert (tmp_path / "out" / "history_joint.csv").exists()
    assert (tmp_path / "out" / "model_joint.ckpt").exists()


def test_train_is_byte_deterministic(tmp_path):
    config = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["train", "--config", config]) == 0
    first = (tmp_path / "out" / "history_joint.csv").read_bytes()
    assert cli.main(["train", "--config", config]) == 0
    assert (tmp_path / "out" / "history_joint.csv").read_bytes() == first


def test_eval_single_and_fused(tmp_path, capsys):
    config = write_config(tmp_path, base_config(tmp_path, stream="fusion"))
    assert cli.main(["train", "--config", config]) == 0
    joint = str(tmp_path / "out" / "model_joint.ckpt")
    bone = str(tmp_path / "out" / "model_bone.ckpt")
    capsys.readouterr()

    assert cli.main(["eval", "--config", config, "--set", "stream=joint",
                     "--checkpoint", joint]) == 0
    assert "top1_accuracy" in capsys.readouterr().out

    assert cli.main(["eval", "--config", config, "--checkpoint", joint,
                     "--checkpoint2", bone]) == 0
    assert "(fusion)" in capsys.readouterr().out


def test_eval_fusion_without_second_checkpoint_is_config_error(tmp_path):
    config = write_config(tmp_path, base_config(tmp_path, stream="fusion"))
    assert cli.main(["train", "--config", config]) == 0
    joint = str(tmp_path / "out" / "model_joint.ckpt")
    assert cli.main(["eval", "--config", config, "--checkpoint", joint]) == cli.EXIT_CONFIG


def test_eval_truncated_checkpoint_is_data_error(tmp_path, capsys):
    config = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["train", "--config", config, "--set", "train.epochs=1"]) == 0
    ckpt = tmp_path / "out" / "model_joint.ckpt"
    ckpt.write_bytes(ckpt.read_bytes()[:-8])
    capsys.readouterr()
    assert cli.main(["eval", "--config", config, "--checkpoint", str(ckpt)]) == cli.EXIT_DATA
    assert "is truncated: header lists" in capsys.readouterr().err


def test_eval_malformed_checkpoint_header_is_data_error(tmp_path, capsys):
    config = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["train", "--config", config, "--set", "train.epochs=1"]) == 0
    ckpt = tmp_path / "out" / "model_joint.ckpt"
    raw = ckpt.read_bytes()
    ckpt.write_bytes(b"[1, 2]" + raw[raw.index(b"\n"):])
    capsys.readouterr()
    assert cli.main(["eval", "--config", config, "--checkpoint", str(ckpt)]) == cli.EXIT_DATA
    assert "unrecognized checkpoint format" in capsys.readouterr().err


def test_train_checkpoint_is_byte_deterministic(tmp_path):
    config = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["train", "--config", config, "--set", "train.epochs=1"]) == 0
    first = (tmp_path / "out" / "model_joint.ckpt").read_bytes()
    assert cli.main(["train", "--config", config, "--set", "train.epochs=1"]) == 0
    assert (tmp_path / "out" / "model_joint.ckpt").read_bytes() == first


@pytest.mark.parametrize("override, key", [
    ("strategy=spatial", "strategy"),
    ("model.strides=[1,2]", "strides"),
])
def test_eval_checkpoint_of_another_config_is_data_error(tmp_path, capsys, override, key):
    # same parameter shapes, so only the config in the header tells them apart
    config = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["train", "--config", config, "--set", "train.epochs=1"]) == 0
    ckpt = str(tmp_path / "out" / "model_joint.ckpt")
    capsys.readouterr()
    assert cli.main(["eval", "--config", config, "--set", override, "--checkpoint", ckpt]) == cli.EXIT_DATA
    assert f"model config differs in {key}" in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    assert cli.main(["train", "--config", str(tmp_path / "nope.json")]) == cli.EXIT_CONFIG
    assert cli.main(["train", "--config", str(tmp_path)]) == cli.EXIT_CONFIG  # a directory
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe")
    assert cli.main(["train", "--config", str(tmp_path / "binary.json")]) == cli.EXIT_CONFIG


def test_unknown_config_key(tmp_path):
    doc = base_config(tmp_path)
    doc["windowing"] = 4
    config = write_config(tmp_path, doc)
    assert cli.main(["train", "--config", config]) == cli.EXIT_CONFIG


def test_invalid_stream_and_strategy(tmp_path):
    config = write_config(tmp_path, base_config(tmp_path, stream="video"))
    assert cli.main(["train", "--config", config]) == cli.EXIT_CONFIG
    config = write_config(tmp_path, base_config(tmp_path, strategy="banana"), "c2.json")
    assert cli.main(["train", "--config", config]) == cli.EXIT_CONFIG


def test_missing_dataset_file(tmp_path):
    doc = base_config(tmp_path)
    doc["data"] = {"file": str(tmp_path / "absent.jsonl"), "target_frames": 8}
    doc["model"]["num_classes"] = 3
    config = write_config(tmp_path, doc)
    assert cli.main(["train", "--config", config]) == cli.EXIT_DATA


def test_malformed_dataset_file(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{broken\n")
    doc = base_config(tmp_path)
    doc["data"] = {"file": str(bad), "target_frames": 8}
    doc["model"]["num_classes"] = 3
    config = write_config(tmp_path, doc)
    assert cli.main(["train", "--config", config]) == cli.EXIT_DATA
    bad.write_bytes(b"\xff\xfe\n")  # not UTF-8
    assert cli.main(["train", "--config", config]) == cli.EXIT_DATA


def file_config(tmp_path, docs, num_classes=3):
    path = tmp_path / "ds.jsonl"
    path.write_text("".join(json.dumps(d) + "\n" for d in docs))
    doc = base_config(tmp_path)
    doc["data"] = {"file": str(path), "target_frames": 8}
    doc["model"]["num_classes"] = num_classes
    return write_config(tmp_path, doc)


def clip(sample_id, label=0, channels=3, frames=2):
    return {"id": sample_id, "label": label, "joints": 5, "channels": channels,
            "frames": [[[0.1] * channels] * 5] * frames}


def test_zero_frame_sample_is_data_error(tmp_path, capsys):
    config = file_config(tmp_path, [clip("ok"), clip("empty", frames=0)])
    assert cli.main(["train", "--config", config]) == cli.EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_label_out_of_range_is_data_error(tmp_path, capsys):
    config = file_config(tmp_path, [clip("ok"), clip("too-high", label=3)])
    assert cli.main(["train", "--config", config]) == cli.EXIT_DATA
    assert "too-high" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("label", 0.7, "0.7 is not a whole number"), ("label", True, "True is not a whole number"),
    ("joints", 5.5, "5.5 is not a whole number"), ("channels", True, "True is not a whole number"),
])
def test_fractional_or_boolean_sample_field_is_data_error(tmp_path, capsys, key, value, message):
    config = file_config(tmp_path, [clip("ok"), {**clip("odd"), key: value}])
    assert cli.main(["train", "--config", config]) == cli.EXIT_DATA
    assert f"ds.jsonl:2: malformed sample: {message}" in capsys.readouterr().err


def test_channel_mismatch_is_data_error(tmp_path, capsys):
    config = file_config(tmp_path, [clip("flat", channels=2)])
    assert cli.main(["train", "--config", config]) == cli.EXIT_DATA
    assert "flat" in capsys.readouterr().err


def test_train_from_jsonl_file(tmp_path):
    spec = data.SyntheticSpec(num_classes=2, samples_per_class=2, frames=8,
                              topology=graph.get_topology("toy5"), seed=3)
    path = tmp_path / "ds.jsonl"
    data.save_dataset(data.generate_synthetic(spec), path)
    doc = base_config(tmp_path)
    doc["data"] = {"file": str(path), "target_frames": 8}
    doc["model"]["num_classes"] = 2
    config = write_config(tmp_path, doc)
    assert cli.main(["train", "--config", config]) == 0


def test_set_overrides(tmp_path, capsys):
    config = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["train", "--config", config,
                     "--set", "train.epochs=2",
                     "--set", "output_dir=" + str(tmp_path / "other")]) == 0
    assert (tmp_path / "other" / "history_joint.csv").exists()
    history = (tmp_path / "other" / "history_joint.csv").read_text().strip().splitlines()
    assert len(history) == 3  # header + 2 epochs

    assert cli.main(["train", "--config", config, "--set", "not-an-override"]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("override", [
    "train.epochs=abc", "model.heads=abc", 'train.base_lr="x"', "model.channels=4",
    "data.synthetic.frames=abc", "train.epochs=1.5", "seed=1.7", "model.heads=true",
    "train.base_lr=true",
])
def test_malformed_value_is_config_error(tmp_path, capsys, override):
    config = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["train", "--config", config, "--set", override]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err
    assert override.split("=")[0] in err


@pytest.mark.parametrize("override, key", [
    ("model.heads=0", "heads"), ("model.groups=0", "groups"), ("model.kernel=0", "kernel"),
    ("model.kernel=-1", "kernel"), ("model.channels=[0,0]", "channels"),
    ("model.in_channels=0", "in_channels"),
    ("train.base_lr=nan", "base_lr"), ("train.base_lr=Infinity", "base_lr"),
    ("train.beta1=1.0", "beta1"), ("train.beta1=-0.5", "beta1"), ("train.beta2=1.5", "beta2"),
    ("train.eps=0", "eps"),
])
def test_unusable_value_is_config_error(tmp_path, capsys, override, key):
    config = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["train", "--config", config, "--set", override]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override, message", [
    ('topology={"file": "absent.json"}', "cannot read topology file absent.json"),
    ('topology={"num_joints": 2, "root": 0, "edges": [[0, 1]], "names": 5}',
     "malformed topology document"),
    ('topology={"num_joints": 2.7, "root": 0, "edges": [[0, 1]]}', "2.7 is not a whole number"),
    ('topology={"num_joints": 2, "root": true, "edges": [[0, 1]]}', "True is not a whole number"),
    ('topology={"num_joints": 2, "root": 0, "edges": [[0, 1.5]]}', "1.5 is not a whole number"),
    ('topology={"num_joints": 2, "root": 0, "edges": [[0, 1]], "names": "ab"}',
     "names must be a list of strings"),
    ("output_dir=config.json", "config.json is not a directory"),
])
def test_unusable_path_or_document_is_config_error(tmp_path, capsys, monkeypatch, override, message):
    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["train", "--config", config, "--set", override]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert message in err
    assert out == ""  # refused before any training


# the sections the config dataclasses own, and the fields a run sets outside them
SECTIONS = {"model": ModelConfig, "train": TrainConfig, "data.synthetic": data.SyntheticSpec}
GIVEN = {"topology", "strategy"}
# a value for each field that base_config does not give it; a new field needs one here
NEW_VALUES = {
    "model.num_classes": 6, "model.channels": (16, 16), "model.strides": (2, 1),
    "model.window": WindowSpec(8, 5), "model.heads": 8, "model.kernel": 5, "model.groups": 8,
    "model.in_channels": 2,
    "train.epochs": 7, "train.batch_size": 3, "train.base_lr": 0.25, "train.lr_decay": 0.5,
    "train.decay_every": 4, "train.beta1": 0.5, "train.beta2": 0.75, "train.eps": 1e-6,
    "train.seed": 9,
    "data.synthetic.num_classes": 4, "data.synthetic.samples_per_class": 3,
    "data.synthetic.frames": 12, "data.synthetic.noise_std": 0.25, "data.synthetic.seed": 2,
    "data.synthetic.channels": 2,
}


def built_section(config, where):
    return {"model": config.model, "train": config.train, "data.synthetic": config.synthetic}[where]


@pytest.mark.parametrize("where, name", [(where, f.name) for where, cls in SECTIONS.items()
                                         for f in dataclasses.fields(cls) if f.name not in GIVEN])
def test_every_field_is_read_from_its_section(tmp_path, where, name):
    value = NEW_VALUES[f"{where}.{name}"]
    before = built_section(cli.parse_run_config(base_config(tmp_path)), where)
    assert getattr(before, name) != value
    raw = json.dumps(value, default=dataclasses.astuple)  # a WindowSpec is a [frames, joints] pair
    doc = cli._apply_overrides(base_config(tmp_path), [f"{where}.{name}={raw}"])
    assert getattr(built_section(cli.parse_run_config(doc), where), name) == value


def test_omitted_keys_take_the_dataclass_defaults():
    config = cli.parse_run_config({"seed": 7, "data": {"synthetic": {
        "num_classes": 3, "samples_per_class": 2, "frames": 8}}})
    topology = graph.get_topology("ntu25")
    assert config.model == ModelConfig(topology, num_classes=3)
    assert config.model.window == WindowSpec(4, 25)
    # the top-level seed stands in for both section seeds
    assert config.train == TrainConfig(seed=7)
    assert config.synthetic == data.SyntheticSpec(3, 2, 8, topology, seed=7)


def test_readme_run_configuration_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("A complete run configuration:", 1)[1]
    doc = json.loads(block.split("```json", 1)[1].split("```", 1)[0])
    assert cli.parse_run_config(doc).model.channels == tuple(doc["model"]["channels"])


@pytest.mark.parametrize("value", ["nan", "-0.5"])
def test_unusable_synthetic_noise_is_data_error(tmp_path, capsys, value):
    config = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["train", "--config", config, "--set", f"data.synthetic.noise_std={value}"]) == cli.EXIT_DATA
    assert "noise_std must be finite and non-negative" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_gradcheck_passes_on_reduced_config(tmp_path, capsys):
    config = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["gradcheck", "--config", config]) == 0
    out = capsys.readouterr().out
    for tag in ("channel_correlation", "cagc_forward", "msa_window", "stse_forward", "model"):
        assert f"gradcheck {tag}: max rel err" in out
    assert "FAIL" not in out


def test_inspect_partition_activity_toy2(tmp_path, capsys):
    doc = base_config(tmp_path, topology="toy2")
    doc["model"]["window"] = [4, 2]
    doc["model"]["num_classes"] = 3
    config = write_config(tmp_path, doc)
    csv_path = tmp_path / "masks.csv"
    assert cli.main(["inspect-partition", "--config", config,
                     "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    # the hub's only neighbor is a leaf, subset 0
    assert "root  0 (hub): self->1  1(tip)->0" in out
    assert "subset 0 normalized adjacency:" in out
    assert csv_path.exists()
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "subset,row,col,value"
    assert len(lines) == 1 + 3 * 4  # three subsets of a 2x2 matrix


def test_export_metrics_passthrough_and_merge(tmp_path, capsys):
    config = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["train", "--config", config]) == 0
    history = tmp_path / "out" / "history_joint.csv"

    merged = tmp_path / "merged.csv"
    assert cli.main(["export-metrics", "--in", str(history), "--out", str(merged)]) == 0
    assert merged.read_text() == history.read_text()

    both = tmp_path / "both.csv"
    assert cli.main(["export-metrics", "--in", str(history), "--in", str(history),
                     "--out", str(both)]) == 0
    lines = both.read_text().strip().splitlines()
    assert lines[0] == "epoch,lr,loss,accuracy,source"
    assert len(lines) == 1 + 2 * 4

    assert cli.main(["export-metrics", "--in", str(tmp_path / "none.csv"),
                     "--out", str(tmp_path / "x.csv")]) == cli.EXIT_DATA


@pytest.mark.parametrize("row, count", [("0,0.1", "fewer"), ("0,0.1,1.0,0.5,9", "more")])
def test_export_metrics_names_a_row_with_missing_or_extra_cells(tmp_path, capsys, row, count):
    history = tmp_path / "history.csv"
    history.write_text(f"epoch,lr,loss,accuracy\n0,0.1,1.0,0.5\n{row}\n")
    out = tmp_path / "out.csv"
    assert cli.main(["export-metrics", "--in", str(history), "--out", str(out)]) == cli.EXIT_DATA
    assert f"{history}, line 3: expected 4 cells (epoch,lr,loss,accuracy), the row has {count}" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, code, message", [
    (["eval", "--config", "{config}", "--checkpoint", "{dir}"], cli.EXIT_DATA, "cannot read checkpoint"),
    (["export-metrics", "--in", "{dir}", "--out", "{csv}"], cli.EXIT_DATA, "cannot read metrics file"),
    (["export-metrics", "--in", "{history}", "--out", "{dir}"], cli.EXIT_CONFIG, "cannot write"),
    (["inspect-partition", "--config", "{config}", "--csv", "{dir}"], cli.EXIT_CONFIG, "cannot write"),
])
def test_a_directory_path_exits_with_its_code(tmp_path, capsys, argv, code, message):
    history = tmp_path / "history.csv"
    history.write_text("epoch,lr,loss,accuracy\n0,0.1,1.0,0.5\n")
    paths = {"config": write_config(tmp_path, base_config(tmp_path)), "dir": str(tmp_path / "folder"),
             "csv": str(tmp_path / "out.csv"), "history": str(history)}
    (tmp_path / "folder").mkdir()
    assert cli.main([arg.format(**paths) for arg in argv]) == code
    assert message in capsys.readouterr().err


def test_argparse_rejects_unknown_command():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
