"""Outside-in tracing of ddgcn for the benchmark's traced run.

A :class:`Tracer` replaces public functions of the package (module globals
and class attributes) with timing wrappers, and ``uninstall`` puts the
originals back. Nothing inside ``src/ddgcn`` is changed or tagged.

Every span is a list ``[name, tag, op, start, end, parent, nbytes]``:

- ``tag`` is the layer a primitive ran under (``layers.3.stse``,
  ``layers.embed_head`` for the rest of ``DDGCNModel.logits``, or ``""``);
- ``op`` is the step or clip: it advances on every ``DDGCNModel.logits``
  call, so op 0 is set-up and each later op is one train step or one
  single-model clip scoring;
- ``parent`` is the index of the enclosing span, -1 at the top;
- ``nbytes`` is the size of a primitive's output array (views included),
  which the backward closure keeps alive until the tape is dropped.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

PRIMITIVES = ("add", "sub", "mul", "neg", "scalar_mul", "matmul", "tanh", "relu",
              "softmax", "layer_norm", "mean_pool", "temporal_conv", "gather", "take",
              "reshape", "transpose", "cross_entropy")
# The primitives that carry per-primitive metrics; the others still count in
# engine.calls, engine.tape_mb and the backward reconciliation.
REPORTED_PRIMITIVES = ("matmul", "temporal_conv", "take", "softmax", "add", "layer_norm",
                       "gather", "transpose", "reshape", "mul")
MAX_LAYERS = 10
MB = 1e6


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.tags: list[str] = []
        self.op = 0
        self.blocks: set[str] = set()   # the CAGC and STSE tags instrument() wrapped
        self._patched: list[tuple[object, str, object]] = []
        self._instance_attrs: list[tuple[object, str]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, tag: str) -> list:
        rec = [name, tag, self.op, 0.0, 0.0, self.stack[-1] if self.stack else -1, 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[3] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[4] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, layer_tag: str | None = None):
        """Time every call of ``fn`` as a span; a ``layer_tag`` also tags the
        primitives called beneath it."""
        def traced(*args, **kwargs):
            if layer_tag is not None:
                self.tags.append(layer_tag)
            rec = self._open(name, layer_tag or self.current_tag())
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
                if layer_tag is not None:
                    self.tags.pop()
        return traced

    def current_tag(self) -> str:
        return self.tags[-1] if self.tags else ""

    def _primitive(self, name: str, fn):
        fwd_name, bwd_name = f"engine.{name}.fwd", f"engine.{name}.bwd"

        def traced(*args, **kwargs):
            tag = self.current_tag()
            rec = self._open(fwd_name, tag)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            rec[6] = out.data.nbytes
            backward = out._backward
            if backward is not None:
                def timed_backward(g):
                    brec = self._open(bwd_name, tag)
                    try:
                        backward(g)
                    finally:
                        self._close(brec)
                out._backward = timed_backward
            return out
        return traced

    def _logits(self, fn):
        traced = self.wrap("model.logits", fn, layer_tag="layers.embed_head")

        def new_op(*args, **kwargs):
            self.op += 1
            return traced(*args, **kwargs)
        return new_op

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from ddgcn import data, engine, layers, train

        for name in PRIMITIVES:
            self._patch(engine, name, self._primitive(name, getattr(engine, name)))
        for name in ("load_checkpoint", "assign_checkpoint"):
            self._patch(engine, name, self.wrap("engine.checkpoint_load", getattr(engine, name)))
        # layers imported these by name, so its own globals are the ones to wrap
        self._patch(layers, "split_windows", self.wrap("windows.split_windows", layers.split_windows))
        for name in ("make_partition", "masked_normalized_adjacency"):
            self._patch(layers, name, self.wrap("graph.partition", getattr(layers, name)))
        for name in ("load_dataset", "preprocess"):
            self._patch(data, name, self.wrap(f"data.{name}", getattr(data, name)))
        self._patch(engine.Tensor, "backward", self.wrap("engine.backward", engine.Tensor.backward))
        self._patch(train.Adam, "step", self.wrap("train.optimizer", train.Adam.step))
        self._patch(layers.DDGCNModel, "logits", self._logits(layers.DDGCNModel.logits))

    def instrument(self, model) -> None:
        """Wrap one model's CAGC and STSE ``forward`` so their names tag the
        spans beneath them."""
        for i, layer in enumerate(model.layers):
            for part in ("cagc", "stse"):
                block = getattr(layer, part)
                tag = f"layers.{i}.{part}"
                block.forward = self.wrap(tag, block.forward, layer_tag=tag)
                self._instance_attrs.append((block, "forward"))
                self.blocks.add(tag)

    def untraced_blocks(self) -> list[str]:
        """The wrapped blocks that did not run in every op: their time went to
        another tag, so the per-layer figures would be wrong."""
        ops: defaultdict[str, set[int]] = defaultdict(set)
        for name, tag, op, *_ in self.spans:
            if op and name == tag:
                ops[tag].add(op)
        every = set(range(1, self.op + 1))
        return sorted(tag for tag in self.blocks if ops[tag] != every)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        for obj, attr in self._instance_attrs:
            delattr(obj, attr)
        self._patched.clear()
        self._instance_attrs.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for rec in self.spans:
                handle.write(json.dumps(rec) + "\n")


def per_layer_metrics(spans: list[list], setups: int, training: bool) -> dict[str, float]:
    """Per-layer figures: timings per op (train step or clip), set-up figures
    per set-up. A name whose spans never ran reads 0."""
    per_op: defaultdict[str, float] = defaultdict(float)
    per_setup: defaultdict[str, float] = defaultdict(float)
    tape: defaultdict[str, float] = defaultdict(float)
    calls: defaultdict[str, int] = defaultdict(int)
    tagged_fwd: defaultdict[str, float] = defaultdict(float)
    tagged_bwd: defaultdict[str, float] = defaultdict(float)
    for name, tag, op, start, end, _parent, nbytes in spans:
        ms = (end - start) * 1e3
        if op == 0:
            per_setup[name] += ms
            continue
        per_op[name] += ms
        calls[name] += 1
        if name.endswith(".fwd"):
            tape[name] += nbytes
            tape[tag] += nbytes
            tagged_fwd[tag] += ms
        elif name.endswith(".bwd"):
            tagged_bwd[tag] += ms
    n = max((span[2] for span in spans), default=0) or 1

    def op_ms(name):
        return per_op[name] / n

    m: dict[str, float] = {}
    for p in REPORTED_PRIMITIVES:
        m[f"engine.{p}.fwd_ms"] = op_ms(f"engine.{p}.fwd")
        m[f"engine.{p}.bwd_ms"] = op_ms(f"engine.{p}.bwd")
        m[f"engine.{p}.tape_mb"] = tape[f"engine.{p}.fwd"] / n / MB
    m["engine.calls"] = sum(calls[f"engine.{p}.fwd"] for p in PRIMITIVES) / n
    m["engine.backward.traverse_ms"] = op_ms("engine.backward") - sum(tagged_bwd.values()) / n
    m["engine.tape_mb"] = sum(tape[f"engine.{p}.fwd"] for p in PRIMITIVES) / n / MB
    m["engine.checkpoint_load_ms"] = per_setup["engine.checkpoint_load"] / setups
    for i in range(MAX_LAYERS):
        for part in ("cagc", "stse"):
            tag = f"layers.{i}.{part}"
            m[f"{tag}.fwd_ms"] = op_ms(tag)
            m[f"{tag}.bwd_ms"] = tagged_bwd[tag] / n
            m[f"{tag}.tape_mb"] = tape[tag] / n / MB
    # the primitives that ran in logits outside every CAGC and STSE block
    m["layers.embed_head.fwd_ms"] = tagged_fwd["layers.embed_head"] / n
    m["layers.embed_head.bwd_ms"] = tagged_bwd["layers.embed_head"] / n
    m["layers.build_ms"] = per_setup["layers.build"] / setups
    for name, source in (("forward", "model.logits"), ("backward", "engine.backward"),
                         ("optimizer", "train.optimizer")):
        m[f"train.{name}_ms"] = op_ms(source) if training else 0.0
    m["windows.split_windows.calls"] = calls["windows.split_windows"] / n
    m["windows.split_windows_ms"] = op_ms("windows.split_windows")
    m["data.load_dataset_ms"] = per_setup["data.load_dataset"] / setups
    m["data.preprocess_ms"] = per_setup["data.preprocess"] / setups
    m["graph.partition_ms"] = per_setup["graph.partition"] / setups
    return m


def reconciliation(m: dict[str, float]) -> dict[str, float]:
    """Ratios that check the trace accounts for the time it claims.

    ``layers_vs_model`` compares the per-layer forward plus backward sum
    with the traced model forward plus ``Tensor.backward``;
    ``primitives_vs_backward`` compares the sum of the reported
    ``engine.<p>.bwd_ms`` with ``Tensor.backward``. Both should lie within
    10% of 1. Only a training run has them.
    """
    model = m["train.forward_ms"] + m["train.backward_ms"]
    if model == 0:
        return {}
    layer_sum = sum(v for k, v in m.items() if k.startswith("layers.")
                    and k.endswith(("fwd_ms", "bwd_ms")))
    primitive_sum = sum(m[f"engine.{p}.bwd_ms"] for p in REPORTED_PRIMITIVES)
    return {"layers_vs_model": layer_sum / model,
            "primitives_vs_backward": primitive_sum / m["train.backward_ms"]}
