"""Command-line entry point.

Subcommands: train, eval, gradcheck, inspect-partition, export-metrics.
Configuration is one JSON document; any top-level or nested key can be
overridden on the command line with ``--set dotted.key=value``.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric or
gradient-check failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import checks, data as data_mod, graph, train as train_mod
from .errors import ConfigError, DataError, NumericError, ShapeError, read_number
from .layers import DDGCNModel, ModelConfig, fuse_scores
from .windows import WindowSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_TOP_KEYS = {"seed", "topology", "strategy", "stream", "output_dir", "model", "train", "data"}
_DATA_KEYS = {"file", "synthetic", "target_frames"}

# the models each `stream` setting trains and scores, in checkpoint order
STREAMS = {"joint": ("joint",), "bone": ("bone",), "fusion": ("joint", "bone")}


@dataclass
class RunConfig:
    seed: int
    stream: str
    output_dir: Path
    model: ModelConfig
    train: train_mod.TrainConfig
    data_file: Path | None
    synthetic: data_mod.SyntheticSpec | None
    target_frames: int


def _section(section, allowed: set, where: str) -> dict:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} section must be an object")
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    return section


def _ints(value) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ValueError("not a list")
    return tuple(read_number(int, v) for v in value)


# how a value is read, by the type its field declares
_READERS = {int: lambda value: read_number(int, value), float: lambda value: read_number(float, value),
            tuple[int, ...]: _ints, WindowSpec: lambda value: WindowSpec(*_ints(value))}


def _read(value, name: str, kind):
    """``value`` read as type ``kind``; one that does not convert is a
    ConfigError naming the dotted key ``name``."""
    try:
        return _READERS.get(kind, kind)(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}={value!r} is malformed: {exc}") from exc


def _build(cls, parent: dict, where: str, given: dict, **defaults):
    """``cls`` from the ``where`` section of ``parent``: its keys are the fields
    not in ``given``, each read by its declared type. An absent field takes
    ``defaults``, else the dataclass default; one with neither is an error."""
    hints = get_type_hints(cls)
    readable = [f for f in fields(cls) if f.name not in given]
    section = _section(parent.get(where.rsplit(".", 1)[-1], {}), {f.name for f in readable}, where)
    values = {**defaults, **given}
    for f in readable:
        if f.name in section:
            values[f.name] = _read(section[f.name], f"{where}.{f.name}", hints[f.name])
        elif f.name not in values and f.default is MISSING:
            raise ConfigError(f"{where}.{f.name} is required")
    return cls(**values)


_NON_FINITE = re.compile(r"[+-]?(nan|inf|infinity)", re.IGNORECASE)


def _parse_override(text: str) -> tuple[list[str], object]:
    if "=" not in text:
        raise ConfigError(f"override {text!r} must look like key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except ValueError:  # not JSON, or an integer past Python's 4300-digit limit
        # bare text is a string, but for nan and inf, which JSON spells NaN and Infinity
        value = float(raw) if _NON_FINITE.fullmatch(raw.strip()) else raw
    return key.split("."), value


def _apply_overrides(doc: dict, overrides: list[str]) -> dict:
    for item in overrides:
        path, value = _parse_override(item)
        cursor = doc
        for part in path[:-1]:
            cursor = cursor.setdefault(part, {})
            if not isinstance(cursor, dict):
                raise ConfigError(f"override {item!r} descends into a non-object key")
        cursor[path[-1]] = value
    return doc


def load_run_config(path: str | Path, overrides: list[str] | None = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # invalid JSON or text that is not UTF-8
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    doc = _apply_overrides(doc, overrides or [])
    return parse_run_config(doc)


def parse_run_config(doc: dict) -> RunConfig:
    _section(doc, _TOP_KEYS, "config")
    seed = _read(doc.get("seed", 0), "seed", int)
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    strategy = str(doc.get("strategy", "activity"))
    stream = str(doc.get("stream", "joint"))
    if stream not in STREAMS:
        raise ConfigError(f"stream must be one of {tuple(STREAMS)}, got {stream!r}")
    output_dir = _read(doc.get("output_dir", "runs"), "output_dir", Path)

    topo_spec = doc.get("topology", "ntu25")
    if isinstance(topo_spec, str):
        topology = graph.get_topology(topo_spec)
    elif isinstance(topo_spec, dict) and set(topo_spec) == {"file"}:
        topology = graph.load_topology(_read(topo_spec["file"], "topology.file", Path))
    elif isinstance(topo_spec, dict):
        topology = graph.topology_from_dict(topo_spec)
    else:
        raise ConfigError("topology must be a name, a {'file': path} object or an inline document")

    data_section = _section(doc.get("data", {}), _DATA_KEYS, "data")
    if "synthetic" in data_section and "file" in data_section:
        raise ConfigError("data section must name either a file or a synthetic spec, not both")
    synthetic = (_build(data_mod.SyntheticSpec, data_section, "data.synthetic", {"topology": topology},
                        seed=seed) if "synthetic" in data_section else None)
    data_file = _read(data_section["file"], "data.file", Path) if "file" in data_section else None

    model = _build(ModelConfig, doc, "model", {"topology": topology, "strategy": strategy},
                   **({"num_classes": synthetic.num_classes} if synthetic else {}))
    train_config = _build(train_mod.TrainConfig, doc, "train", {}, seed=seed)
    default_target = synthetic.frames if synthetic is not None else 64
    target_frames = _read(data_section.get("target_frames", default_target), "data.target_frames", int)
    if target_frames < 1:
        raise ConfigError(f"data.target_frames must be >= 1, got {target_frames}")

    return RunConfig(seed=seed, stream=stream, output_dir=output_dir, model=model, train=train_config,
                     data_file=data_file, synthetic=synthetic, target_frames=target_frames)


def _load_samples(config: RunConfig) -> list[data_mod.SkeletonSample]:
    model = config.model
    if config.synthetic is not None:
        raw = data_mod.generate_synthetic(config.synthetic)
    elif config.data_file is not None:
        try:
            raw = data_mod.load_dataset(config.data_file, expected_joints=model.topology.num_joints)
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read dataset file {config.data_file}: {exc}") from exc
        if not raw:
            raise DataError(f"dataset file {config.data_file} holds no samples")
    else:
        raise ConfigError("config has no data source (data.file or data.synthetic)")
    for s in raw:
        if not 0 <= s.label < model.num_classes:
            raise DataError(f"sample {s.sample_id!r}: label {s.label} out of range for {model.num_classes} classes")
        if s.frames.shape[2] != model.in_channels:
            raise DataError(f"sample {s.sample_id!r} has {s.frames.shape[2]} channels, "
                            f"the model expects {model.in_channels}")
    return [data_mod.preprocess(s, config.target_frames, root_joint=model.topology.root)
            for s in raw]


def _outputs(config: RunConfig, stream: str) -> tuple[Path, Path]:
    return config.output_dir / f"history_{stream}.csv", config.output_dir / f"model_{stream}.ckpt"


def _train_one(config: RunConfig, stream: str, samples, model: DDGCNModel) -> np.ndarray:
    """Train and save ``stream``'s model; print its train accuracy and return its (N, K) scores."""
    history = train_mod.train(model, samples, config.train, stream=stream)
    history_path, ckpt_path = _outputs(config, stream)
    path = history_path
    try:
        train_mod.write_history_csv(history, path)
        path = ckpt_path
        model.save(path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    scores = train_mod.scores(model, samples, stream)
    print(f"{stream}: trained {config.train.epochs} epochs, final loss {history[-1].loss:.6f}, "
          f"train accuracy {train_mod.accuracy(scores, samples):.4f}")
    print(f"{stream}: wrote {history_path} and {ckpt_path}")
    return scores


def cmd_train(args) -> int:
    config = load_run_config(args.config, args.set)
    streams = STREAMS[config.stream]
    # outputs are written after training, so a path that cannot be written fails first:
    # an ancestor that is a file or an output that is a directory before any data loads,
    # a directory that cannot be made for any other reason before training
    existing = next(p for p in (config.output_dir, *config.output_dir.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"output_dir {config.output_dir} cannot be made: {existing} is not a directory")
    folders = [path for stream in streams for path in _outputs(config, stream) if path.is_dir()]
    if folders:
        raise ConfigError(f"cannot write {folders[0]}: it is a directory")
    samples = _load_samples(config)
    # every model is built first, so one too large to allocate leaves no output_dir behind
    models = [DDGCNModel(config.model, seed=config.seed + k) for k in range(len(streams))]
    try:
        config.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output_dir {config.output_dir} cannot be made: {exc}") from exc
    scores = [_train_one(config, stream, samples, model) for stream, model in zip(streams, models)]
    if config.stream == "fusion":
        print(f"fusion: train accuracy {train_mod.accuracy(fuse_scores(*scores), samples):.4f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    config = load_run_config(args.config, args.set)
    if config.stream == "fusion" and args.checkpoint2 is None:
        raise ConfigError("fusion evaluation needs --checkpoint2 for the bone stream")
    if config.stream != "fusion" and args.checkpoint2 is not None:
        raise ConfigError(f"--checkpoint2 is only for stream fusion, not {config.stream}: use --set stream=fusion")
    samples = _load_samples(config)

    def load_model(path):
        model = DDGCNModel(config.model, seed=config.seed)
        try:
            model.load(path)
        except OSError as exc:
            raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
        except (KeyError, ValueError) as exc:
            raise DataError(f"checkpoint {path} does not match the configured model: {exc}") from exc
        return model

    checkpoints = zip(STREAMS[config.stream], (args.checkpoint, args.checkpoint2))
    models = [(stream, load_model(path)) for stream, path in checkpoints]
    scores = [train_mod.scores(model, samples, stream) for stream, model in models]
    accuracy = train_mod.accuracy(fuse_scores(*scores) if config.stream == "fusion" else scores[0], samples)
    print(f"top1_accuracy {accuracy:.6f} ({config.stream})")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    config = load_run_config(args.config, args.set)
    results = checks.run_gradient_battery(
        config.model.topology, strategy=config.model.strategy, heads=config.model.heads,
        kernel=config.model.kernel, groups=config.model.groups, seed=config.seed + 2024)
    worst: dict[str, float] = {}
    for key, err in results.items():
        tag = key.split("/", 1)[0]
        worst[tag] = max(worst.get(tag, 0.0), err)
    failed = False
    for tag in sorted(worst):
        status = "ok" if worst[tag] <= checks.DEFAULT_TOLERANCE else "FAIL"
        if status == "FAIL":
            failed = True
        print(f"gradcheck {tag}: max rel err {worst[tag]:.3e} [{status}]")
    if failed:
        print("gradient check failed", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _open_output(path):
    """``path`` opened to write a CSV; one that cannot be opened is a ConfigError."""
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def cmd_inspect_partition(args) -> int:
    config = load_run_config(args.config, args.set)
    topology = config.model.topology
    labeling = graph.make_partition(topology, config.model.strategy)
    names = topology.names or tuple(str(i) for i in range(topology.num_joints))

    print(f"strategy: {labeling.strategy}   subsets: {labeling.num_subsets}")
    und = topology.undirected_neighbors()
    for i in range(topology.num_joints):
        parts = [f"self->{labeling.label_of(i, i)}"]
        parts += [f"{j}({names[j]})->{labeling.label_of(i, j)}" for j in sorted(und[i])]
        print(f"root {i:>2} ({names[i]}): " + "  ".join(parts))

    matrices = graph.masked_normalized_adjacency(topology, labeling)
    for k, mat in enumerate(matrices):
        print(f"\nsubset {k} normalized adjacency:")
        for row in mat:
            print(" ".join(f"{x:7.4f}" for x in row))

    if args.csv:
        with _open_output(args.csv) as handle:
            writer = csv.writer(handle)
            writer.writerow(["subset", "row", "col", "value"])
            for k, mat in enumerate(matrices):
                for i in range(mat.shape[0]):
                    for j in range(mat.shape[1]):
                        writer.writerow([k, i, j, repr(mat[i, j])])
        print(f"\nwrote {args.csv}")
    return EXIT_OK


def cmd_export_metrics(args) -> int:
    merged = []
    for src in args.inputs:
        try:
            rows = train_mod.read_history_csv(src)
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read metrics file {src}: {exc}") from exc
        except ValueError as exc:
            raise DataError(str(exc)) from exc
        merged.append((Path(src).stem, rows))
    with _open_output(args.out) as handle:
        writer = csv.writer(handle)
        tagged = len(merged) > 1  # a merge says which file each row came from
        writer.writerow(train_mod.HISTORY_FIELDS + (("source",) if tagged else ()))
        for source, rows in merged:
            for r in rows:
                writer.writerow(train_mod.history_cells(r) + ([source] if tagged else []))
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ddgcn",
                                     description="Skeleton action recognition toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (dotted path, JSON value)")

    p_train = sub.add_parser("train", help="train a model and write history + checkpoint")
    add_config(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint (two for stream fusion)")
    add_config(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--checkpoint2", default=None,
                        help="bone-stream checkpoint for fusion")
    p_eval.set_defaults(func=cmd_eval)

    p_grad = sub.add_parser("gradcheck", help="finite-difference check of all layer gradients")
    add_config(p_grad)
    p_grad.set_defaults(func=cmd_gradcheck)

    p_inspect = sub.add_parser("inspect-partition",
                               help="print subset labels and normalized adjacencies")
    add_config(p_inspect)
    p_inspect.add_argument("--csv", default=None, help="also write the matrices as CSV")
    p_inspect.set_defaults(func=cmd_inspect_partition)

    p_export = sub.add_parser("export-metrics", help="validate and merge history CSVs")
    p_export.add_argument("--in", dest="inputs", action="append", required=True,
                          metavar="CSV", help="input history CSV (repeatable)")
    p_export.add_argument("--out", required=True, help="output CSV path")
    p_export.set_defaults(func=cmd_export_metrics)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an overflow is reported by the engine's finiteness check as a NumericError
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ConfigError, MemoryError) as exc:  # MemoryError: a configured shape too large to allocate
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, ShapeError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
