import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ddgcn
from ddgcn import checks, cli, data, engine, graph, layers, train
from ddgcn.layers import DDGCNModel, ModelConfig
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


def test_a_fusion_run_scores_each_clip_once_per_model_after_training(tmp_path, monkeypatch):
    clips = {}
    predict_proba = DDGCNModel.predict_proba

    def spy(self, x):
        clips[self] = clips.get(self, 0) + len(x)
        return predict_proba(self, x)

    monkeypatch.setattr(DDGCNModel, "predict_proba", spy)
    config = write_config(tmp_path, base_config(tmp_path, stream="fusion"))
    assert cli.main(["train", "--config", config]) == 0
    assert list(clips.values()) == [6, 6]


def test_train_prints_the_accuracies_eval_prints_for_its_checkpoints(tmp_path, capsys):
    doc = base_config(tmp_path, stream="fusion")
    doc["train"]["epochs"] = 1
    doc["data"]["synthetic"].update(noise_std=1.0, samples_per_class=4)
    config = write_config(tmp_path, doc)
    assert cli.main(["train", "--config", config]) == 0
    printed = {line.split(":")[0]: line.rsplit(" ", 1)[1]
               for line in capsys.readouterr().out.splitlines() if "train accuracy" in line}
    assert sorted(printed) == ["bone", "fusion", "joint"]
    assert all(0 < float(value) < 1 for value in printed.values()), printed
    joint, bone = str(tmp_path / "out" / "model_joint.ckpt"), str(tmp_path / "out" / "model_bone.ckpt")
    for stream, extra in (("joint", ["--set", "stream=joint", "--checkpoint", joint]),
                          ("bone", ["--set", "stream=bone", "--checkpoint", bone]),
                          ("fusion", ["--checkpoint", joint, "--checkpoint2", bone])):
        assert cli.main(["eval", "--config", config, *extra]) == 0
        out = capsys.readouterr().out
        assert out.endswith(f"({stream})\n")
        assert f"{float(out.split()[1]):.4f}" == printed[stream]


def test_eval_fusion_without_second_checkpoint_is_config_error(tmp_path):
    config = write_config(tmp_path, base_config(tmp_path, stream="fusion"))
    assert cli.main(["train", "--config", config]) == 0
    joint = str(tmp_path / "out" / "model_joint.ckpt")
    assert cli.main(["eval", "--config", config, "--checkpoint", joint]) == cli.EXIT_CONFIG


def trained_fusion(tmp_path):
    """A fusion run's config path and its joint and bone checkpoints."""
    config = write_config(tmp_path, base_config(tmp_path, stream="fusion"))
    assert cli.main(["train", "--config", config]) == 0
    return config, str(tmp_path / "out" / "model_joint.ckpt"), str(tmp_path / "out" / "model_bone.ckpt")


@pytest.mark.parametrize("stream", ["joint", "bone"])
def test_eval_refuses_a_second_checkpoint_for_a_single_stream(tmp_path, capsys, stream):
    config, joint, bone = trained_fusion(tmp_path)
    capsys.readouterr()
    assert cli.main(["eval", "--config", config, "--set", f"stream={stream}", "--checkpoint", joint,
                     "--checkpoint2", bone]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"--checkpoint2 is only for stream fusion, not {stream}: use --set stream=fusion" in captured.err
    assert captured.out == ""


def test_a_fusion_eval_scores_each_clip_once_per_model(tmp_path, monkeypatch):
    config, joint, bone = trained_fusion(tmp_path)
    clips = {}
    predict_proba = DDGCNModel.predict_proba

    def spy(self, x):
        clips[self] = clips.get(self, 0) + len(x)
        return predict_proba(self, x)

    monkeypatch.setattr(DDGCNModel, "predict_proba", spy)
    assert cli.main(["eval", "--config", config, "--checkpoint", joint, "--checkpoint2", bone]) == 0
    assert list(clips.values()) == [6, 6]


def spy_on_bones(monkeypatch) -> list:
    """The shapes of the frames ``train.bone_transform`` is called on, from now on."""
    shapes = []

    def spy(frames, topology):
        shapes.append(frames.shape)
        return layers.bone_transform(frames, topology)

    monkeypatch.setattr(train, "bone_transform", spy)
    return shapes


@pytest.mark.parametrize("stream", ["bone", "fusion"])
def test_eval_derives_bones_from_stacked_slices(tmp_path, monkeypatch, stream):
    config, joint, bone = trained_fusion(tmp_path)
    shapes = spy_on_bones(monkeypatch)
    extra = ["--checkpoint", bone] if stream == "bone" else ["--checkpoint", joint, "--checkpoint2", bone]
    assert cli.main(["eval", "--config", config, "--set", f"stream={stream}", *extra]) == 0
    assert shapes and all(len(shape) == 4 for shape in shapes), shapes
    assert sum(shape[0] for shape in shapes) == 6


def test_a_bone_run_derives_bones_from_stacked_slices(tmp_path, monkeypatch):
    shapes = spy_on_bones(monkeypatch)
    config = write_config(tmp_path, base_config(tmp_path, stream="bone"))
    assert cli.main(["train", "--config", config]) == 0
    assert shapes and all(len(shape) == 4 for shape in shapes), shapes
    # 6 clips in each of 4 epochs, then once more for the train accuracy
    assert sum(shape[0] for shape in shapes) == 6 * (4 + 1)


@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_model_too_large_to_allocate_is_config_error(tmp_path, capsys, command):
    # 349 TiB: past any 64-bit host's user address space, so it fails at once
    config = write_config(tmp_path, base_config(tmp_path))
    extra = ["--checkpoint", str(tmp_path / "none.ckpt")] if command == "eval" else []
    assert cli.main([command, "--config", config, "--set", "model.channels=[4000000,4000000]",
                     *extra]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: Unable to allocate") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


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


def test_missing_config_file(tmp_path, capsys):
    assert cli.main(["train", "--config", str(tmp_path / "nope.json")]) == cli.EXIT_CONFIG
    assert cli.main(["train", "--config", str(tmp_path)]) == cli.EXIT_CONFIG  # a directory
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe")
    assert cli.main(["train", "--config", str(tmp_path / "binary.json")]) == cli.EXIT_CONFIG
    capsys.readouterr()
    assert cli.main(["train", "--config", write_config(tmp_path, [1, 2])]) == cli.EXIT_CONFIG
    assert "config document must be a JSON object" in capsys.readouterr().err


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
    ("label", "1", "'1' is not a whole number"), ("joints", "5", "'5' is not a whole number"),
])
def test_fractional_or_boolean_sample_field_is_data_error(tmp_path, capsys, key, value, message):
    config = file_config(tmp_path, [clip("ok"), {**clip("odd"), key: value}])
    assert cli.main(["train", "--config", config]) == cli.EXIT_DATA
    assert f"ds.jsonl:2: malformed sample: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("key, message", [
    ("label", "label 1000"), ("joints", "does not match joints=1000"), ("channels", "channels=1000"),
])
def test_an_oversized_integer_sample_field_is_data_error(tmp_path, capsys, key, message):
    config = file_config(tmp_path, [clip("ok"), {**clip("odd"), key: 10 ** 400}])
    assert cli.main(["train", "--config", config]) == cli.EXIT_DATA
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("value, message", [
    (True, "malformed sample: coordinate true"), (False, "malformed sample: coordinate false"),
    ("1.5", 'malformed sample: coordinate "1.5"'), (None, "malformed sample: coordinate null"),
    (float("nan"), "invalid JSON: NaN"), (float("-inf"), "invalid JSON: -Infinity"),
])
def test_a_coordinate_that_is_not_a_json_number_is_data_error(tmp_path, capsys, value, message):
    odd = clip("odd")
    odd["frames"] = [[[0.1, 0.2, 0.3]] * 4 + [[0.1, value, 0.3]]] * 2
    config = file_config(tmp_path, [clip("ok"), odd])
    assert cli.main(["train", "--config", config]) == cli.EXIT_DATA
    assert f"ds.jsonl:2: {message} is not a JSON number" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", "\n  \n"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_dataset_file_with_no_samples_is_data_error(tmp_path, capsys, command, text):
    config = file_config(tmp_path, [])
    (tmp_path / "ds.jsonl").write_text(text)
    checkpoint = ["--checkpoint", str(tmp_path / "model.ckpt")] if command == "eval" else []
    assert cli.main([command, "--config", config] + checkpoint) == cli.EXIT_DATA
    assert "ds.jsonl holds no samples" in capsys.readouterr().err


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
    "train.base_lr=true", 'train.epochs="1"', 'train.base_lr="0.1"', "train.base_lr=+-nan",
    pytest.param("train.base_lr=1" + "0" * 400, id="train.base_lr=10**400"),
    pytest.param("train.base_lr=" + "1" * 5000, id="train.base_lr-5000-digits"),
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
    ("model.num_classes=1", "need at least two classes"),
    ("model.strides=[1]", "channels and strides must have the same length"),
    ('model={"channels": [], "strides": []}', "at least one layer is required"),
    ("model.heads=3", "heads=3 must divide every layer width, got 8"),
    ("model.groups=3", "groups=3 must divide every layer width, got 8"),
    ("model.window=[4,2]", "window width 2 must divide joint count 5"),
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
    ('topology={"num_joints": "2", "root": 0, "edges": [[0, 1]]}', "'2' is not a whole number"),
    ('topology={"num_joints": 2, "root": 0, "edges": [[0, "1"]]}', "'1' is not a whole number"),
    pytest.param('topology={"num_joints": 2, "root": %d, "edges": [[0, 1]]}' % 10 ** 400,
                 "root joint 1000", id="topology-root=10**400"),
    pytest.param('topology={"num_joints": 2, "root": 0, "edges": [[0, %d]]}' % 10 ** 400,
                 "references an invalid joint id", id="topology-edge=10**400"),
    ('topology={"num_joints": 2, "root": 0, "edges": [[0, 1]], "names": "ab"}',
     "names must be a list of strings"),
    ('topology={"num_joints": 2, "root": 0, "edges": [[0, 1]], "names": []}',
     "names length must equal num_joints"),
    ("topology=5", "topology must be a name, a {'file': path} object or an inline document"),
    ("output_dir=config.json", "config.json is not a directory"),
    ("train=5", "train section must be an object"),
    ('data.synthetic={"samples_per_class": 2, "frames": 8}', "data.synthetic.num_classes is required"),
    ("seed.x=1", "override 'seed.x=1' descends into a non-object key"),
    ('data.file="ds.jsonl"', "must name either a file or a synthetic spec, not both"),
    pytest.param(("data={}", "model.num_classes=3"), "config has no data source", id="no-data-source"),
])
def test_unusable_path_or_document_is_config_error(tmp_path, capsys, monkeypatch, override, message):
    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path, base_config(tmp_path))
    overrides = [arg for item in ((override,) if isinstance(override, str) else override) for arg in ("--set", item)]
    assert cli.main(["train", "--config", config, *overrides]) == cli.EXIT_CONFIG
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


def readme_block(after: str, language: str) -> str:
    """The first ``language`` code block of README.md after the text ``after``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split(after, 1)[1].split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_run_configuration_parses():
    doc = json.loads(readme_block("A complete run configuration:", "json"))
    assert cli.parse_run_config(doc).model.channels == tuple(doc["model"]["channels"])


def test_readme_library_quickstart_runs(capsys):
    exec(compile(readme_block("## Library quickstart", "python"), "README.md", "exec"), {})
    accuracy = float(capsys.readouterr().out.splitlines()[0])
    assert 0.0 <= accuracy <= 1.0


@pytest.mark.parametrize("override, code, message", [
    ("seed=-1", cli.EXIT_CONFIG, "seed must be non-negative, got -1"),
    ("train.seed=-1", cli.EXIT_CONFIG, "seed must be non-negative, got -1"),
    ("data.synthetic.seed=-1", cli.EXIT_DATA, "synthetic seed must be non-negative, got -1"),
    ("data.synthetic.channels=-1", cli.EXIT_DATA, "synthetic spec must have positive counts"),
    ("data.synthetic.channels=0", cli.EXIT_DATA, "synthetic spec must have positive counts"),
    ("data.target_frames=0", cli.EXIT_CONFIG, "data.target_frames must be >= 1, got 0"),
])
def test_negative_seed_or_channel_count_exits_with_its_code(tmp_path, capsys, override, code, message):
    config = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["train", "--config", config, "--set", override]) == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_synthetic_set_larger_than_memory_is_refused_before_it_is_made(tmp_path, capsys):
    config = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["train", "--config", config, "--set", f"data.synthetic.frames={10**12}"]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "synthetic set of 6 clips of 1000000000000 x 5 x 3 float64 values needs 1.08e+06 GB" in err
    assert "of physical memory" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["nan", "-0.5"])
def test_unusable_synthetic_noise_is_data_error(tmp_path, capsys, value):
    config = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["train", "--config", config, "--set", f"data.synthetic.noise_std={value}"]) == cli.EXIT_DATA
    assert "noise_std must be finite and non-negative" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_an_output_dir_that_cannot_be_made_is_refused_before_training(tmp_path, capsys, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "mkdir", refuse)
    config = write_config(tmp_path, base_config(tmp_path, stream="fusion"))
    assert cli.main(["train", "--config", config]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert f"config error: output_dir {tmp_path / 'out'} cannot be made: [Errno 13] Permission denied" in err
    assert "trained" not in out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["history_{}.csv", "model_{}.ckpt"])
@pytest.mark.parametrize("stream", ["joint", "bone"])
def test_an_output_that_is_a_directory_is_refused_before_training(tmp_path, capsys, monkeypatch, name, stream):
    monkeypatch.setattr(train, "train", lambda *args: pytest.fail("training ran"))
    folder = tmp_path / "out" / name.format(stream)
    folder.mkdir(parents=True)
    config = write_config(tmp_path, base_config(tmp_path, stream="fusion"))
    assert cli.main(["train", "--config", config]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert f"config error: cannot write {folder}: it is a directory" in err
    assert out == ""
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [folder.name]


@pytest.mark.parametrize("name, module, function", [("history_joint.csv", train, "write_history_csv"),
                                                    ("model_joint.ckpt", engine, "save_checkpoint")],
                         ids=["history", "checkpoint"])
def test_an_output_that_cannot_be_written_is_config_error(tmp_path, capsys, monkeypatch, name, module, function):
    def refuse(*args):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(module, function, refuse)
    config = write_config(tmp_path, base_config(tmp_path, stream="fusion"))
    assert cli.main(["train", "--config", config]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: cannot write {tmp_path / 'out' / name}: [Errno 13] Permission denied" in err


def test_an_overflow_in_the_first_layer_exits_4_without_a_numpy_warning(tmp_path, capsys):
    huge = clip("huge")
    huge["frames"] = [[[1e307 * (-1) ** (t + j + c) for c in range(3)] for j in range(5)] for t in range(2)]
    config = file_config(tmp_path, [clip("ok"), huge])
    assert cli.main(["train", "--config", config]) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "numeric error: non-finite values produced by matmul" in err
    assert "RuntimeWarning" not in err


def test_gradcheck_passes_on_reduced_config(tmp_path, capsys):
    config = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["gradcheck", "--config", config]) == 0
    out = capsys.readouterr().out
    for tag in ("channel_correlation", "cagc_forward", "msa_window", "stse_forward", "model"):
        assert f"gradcheck {tag}: max rel err" in out
    assert "FAIL" not in out


def test_gradcheck_failure_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(checks, "run_gradient_battery",
                        lambda *args, **kwargs: {"model/head_w": 1e-2, "model/head_b": 1e-9, "msa_window/wq": 1e-9})
    config = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["gradcheck", "--config", config]) == cli.EXIT_NUMERIC
    out, err = capsys.readouterr()
    assert "gradcheck model: max rel err 1.000e-02 [FAIL]" in out
    assert "gradcheck msa_window: max rel err 1.000e-09 [ok]" in out
    assert "gradient check failed" in err


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
    (["export-metrics", "--in", "{binary}", "--out", "{csv}"], cli.EXIT_DATA, "cannot read metrics file {binary}"),
])
def test_a_directory_path_exits_with_its_code(tmp_path, capsys, argv, code, message):
    history = tmp_path / "history.csv"
    history.write_text("epoch,lr,loss,accuracy\n0,0.1,1.0,0.5\n")
    binary = tmp_path / "history.bin"
    binary.write_bytes(b"epoch,lr\n\xa8\xff\n")
    paths = {"config": write_config(tmp_path, base_config(tmp_path)), "dir": str(tmp_path / "folder"),
             "csv": str(tmp_path / "out.csv"), "history": str(history), "binary": str(binary)}
    (tmp_path / "folder").mkdir()
    assert cli.main([arg.format(**paths) for arg in argv]) == code
    assert message.format(**paths) in capsys.readouterr().err


@pytest.mark.parametrize("extra, code", [([], cli.EXIT_OK), (["--set", "windowing=4"], cli.EXIT_CONFIG)],
                         ids=["ok", "unknown-key"])
def test_python_dash_m_ddgcn_passes_the_exit_code_through(tmp_path, extra, code):
    config = write_config(tmp_path, base_config(tmp_path))
    src = str(Path(ddgcn.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-m", "ddgcn", "inspect-partition", "--config", config, *extra],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert run.returncode == code, run.stderr
    assert ("subset 0 normalized adjacency:" in run.stdout) == (code == cli.EXIT_OK)
    assert ("unknown key(s) in config: windowing" in run.stderr) == (code == cli.EXIT_CONFIG)


def test_argparse_rejects_unknown_command():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
