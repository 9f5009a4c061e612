"""Continual-learning orchestration: frozen backbone, latent replay, CWR* head.

Protocol, in two phases split at the deployment boundary:
- pretraining (offline) trains the full graph in float on experience 0 and
  returns a Pretrained state;
- deployment (on-device) runs on a copy of that state: it calibrates the
  activation grids at q_f, freezes the backbone, fills the replay memory with
  experience 0's latents, and then trains the later experiences only above
  the replay level, on minibatches that join B_N new latents with B_R
  replayed 1-bit latents.
Runs that agree on PRETRAIN_FIELDS and the training rows can share one
pretraining.
"""

from __future__ import annotations

import copy
import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from . import bitpack, cwr, graph as G, replay
from .bitpack import BinConvSpec
from .graph import BitwidthConfig, Graph, forward, backward, sgd_step, mac_count, softmax_ce
from .quant import calibrate_range, quant_params
from .replay import LatentSample, ReplayMemory


PRETRAIN_BATCH = 32  # experience-0 rows per float training step
STATS_ROWS = 256  # experience-0 rows that set the BN statistics and the activation grids
LATENT_BATCH = 128  # rows per forward pass of the frozen region
EVAL_BATCH = 256  # rows per forward pass when classifying


class ProtocolError(ValueError):
    pass


@dataclass(frozen=True)
class Experience:
    inputs: np.ndarray
    labels: np.ndarray
    index: int
    classes_introduced: tuple[int, ...]


@dataclass
class ContinualConfig:
    num_experiences: int = 5
    epochs: int = 5
    b_n: int = 16
    b_r: int = 64
    learning_rate: float = 0.3
    pretrain_learning_rate: float = 0.2
    pretrain_epochs: int = 8
    quota: int = 80
    seed: int = 0
    bitwidth: BitwidthConfig = field(default_factory=BitwidthConfig)
    train_graph_layers: bool = True  # False: head-only baseline
    channels: int = 32


# the ContinualConfig fields pretraining reads
PRETRAIN_FIELDS = ("seed", "channels", "num_experiences", "pretrain_epochs", "pretrain_learning_rate")


@dataclass
class Pretrained:
    """The offline phase's result: the float-trained graph, the consolidated
    head, the rng after its draws, and the NC stream whose experience 0 they
    were trained on."""
    graph: Graph
    head: cwr.CWRHead
    rng: np.random.Generator
    stream: list[Experience]
    loss: float  # experience 0's mean training loss


@dataclass
class MetricsLog:
    rows: list = field(default_factory=list)
    frozen_hash_before: str | None = None
    frozen_hash_after: str | None = None

    CSV_COLUMNS = ("experience", "test_accuracy", "mean_train_loss",
                   "fwd_macs", "bwd_macs", "replay_bits")

    def add(self, **kw):
        self.rows.append(kw)

    def to_csv(self) -> str:
        # wall-clock lives in timings_csv: metrics bytes must be
        # reproducible for identical config + seed
        lines = [",".join(self.CSV_COLUMNS)]
        for r in self.rows:
            lines.append(",".join(_csv_cell(r[c]) for c in self.CSV_COLUMNS))
        return "\n".join(lines) + "\n"

    def timings_csv(self) -> str:
        lines = ["experience,elapsed_ms"]
        for r in self.rows:
            lines.append(f"{r['experience']},{r['elapsed_ms']:.1f}")
        return "\n".join(lines) + "\n"

    @property
    def final_accuracy(self) -> float:
        return self.rows[-1]["test_accuracy"]


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


# ---------------------------------------------------------------------------
# reference model


def build_reference_model(input_shape=(12, 12, 1), channels: int = 32, seed: int = 0) -> Graph:
    """Small VGG-style binary net: one real input conv, three binary conv
    blocks with a residual add, PReLU, global average pooling.

    The replay level sits after the second block's binarize, so stored
    latents are natively 1-bit.
    """
    h, w, cin = input_shape
    rng = np.random.default_rng(seed)
    g = Graph(input_shape)

    def he(shape, fan_in):
        return G.f32_precision(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape))

    def latent_init(shape):
        return G.f32_precision(rng.uniform(-0.9, 0.9, size=shape))

    def bn_params(c):
        return {
            "gamma": np.ones(c), "beta": np.zeros(c),
            "running_mean": np.zeros(c), "running_var": np.ones(c),
        }

    c = channels
    spec_in = BinConvSpec(3, 3, 1, 1, cin, c)
    spec_bin = BinConvSpec(3, 3, 1, 1, c, c)
    g.add("conv2d", name="stem_conv", spec=spec_in,
          params={"w": he((3, 3, cin, c), 9 * cin), "b": np.zeros(c)})
    g.add("binarize", name="stem_sign")
    g.add("binary_conv2d", name="block1_conv", spec=spec_bin,
          params={"latent": latent_init((3, 3, c, c))})
    g.add("batchnorm", name="block1_bn", params=bn_params(c))
    g.add("binarize", name="block1_sign")
    g.add("binary_conv2d", name="block2_conv", spec=spec_bin,
          params={"latent": latent_init((3, 3, c, c))})
    g.add("batchnorm", name="block2_bn", params=bn_params(c))
    lvl = g.add("binarize", name="block2_sign")
    g.add("binary_conv2d", name="block3_conv", spec=spec_bin,
          params={"latent": latent_init((3, 3, c, c))})
    n9 = g.add("batchnorm", name="block3_bn", params=bn_params(c))
    g.add("add", inputs=(n9, lvl), name="residual_add")
    g.add("prelu", name="head_act", params={"alpha": np.full(c, 0.25)})
    g.add("global_avg_pool", name="features")
    g.replay_level = lvl
    return g


class _Statistics:
    """A forward collect= target that sets the running statistics of each
    batchnorm from its input, which forward hands over before the batchnorm
    runs, and holds no activation.  It reads the batchnorms' inputs only."""

    def __init__(self, g: Graph):
        self.readers: dict[int, list] = {}
        for node in g.nodes:
            if node.kind == "batchnorm":
                self.readers.setdefault(node.inputs[0], []).append(node)
        self.reads = set(self.readers)

    def __setitem__(self, idx, y):
        if idx in self.readers:
            mean, var = G.channel_moments(y)
            mean, var = G.f32_precision(mean), G.f32_precision(np.maximum(var, 1e-3))
            for node in self.readers[idx]:
                node.params["running_mean"], node.params["running_var"] = mean.copy(), var.copy()


def initialize_bn_stats(g: Graph, xs: np.ndarray) -> None:
    """Set each batchnorm's frozen running statistics from its input, in one
    float pass on the reference model, which stops at the last batchnorm's
    input.  A batchnorm that reads another per-channel node may sit deep in a
    binary GEMM's chain, whose tables are built when the GEMM runs, before
    forward reaches its input: each such batchnorm takes one more pass, which
    builds its table on the statistics that the pass before set."""
    stats = _Statistics(g)
    stats[-1] = xs
    inside = {i for i, n in enumerate(g.nodes) if G.KINDS[n.kind].per_channel and n.kind != "binarize"}
    last = max(stats.reads, default=-1)  # at -1 every batchnorm reads the input, whose statistics are set
    passes = 1 + sum(n.kind == "batchnorm" and n.inputs[0] in inside for n in g.nodes) if last >= 0 else 0
    for _ in range(passes):
        forward(g, xs, BitwidthConfig.floating(), mode="infer", stop_level=last, collect=stats)


class _Ranges(dict):
    """A forward collect= target that keeps the range of each grid node's
    output, not the output, so a calibration pass holds no extra activation.
    It reads the grid nodes only, a chain node's output per block of its
    _Tabled, as a min and a max are exact in any order."""

    def __init__(self, grid):
        super().__init__()
        self.reads = set(grid)

    def __setitem__(self, idx, y):
        super().__setitem__(idx, calibrate_range(y.values() if isinstance(y, G._Tabled) else [G.as_float(y)]))


def calibrate_activations(g: Graph, xs: np.ndarray, q_f: int | None) -> None:
    """Fix the q_f-bit grid of the input and of each node in graph.grid_nodes
    from one float pass over xs; a sign's packed output is read through as_float."""
    if q_f is None:
        return
    ranges = _Ranges(G.grid_nodes(g))
    forward(g, xs, BitwidthConfig.floating(), mode="infer", collect=ranges)
    lo, hi = calibrate_range([xs])
    g.input_qparams = quant_params(lo, hi, q_f, signed=False)
    for idx, (lo, hi) in ranges.items():
        g.nodes[idx].out_qparams = quant_params(lo, hi, q_f, signed=False)


def freeze_backbone(g: Graph, cfg: ContinualConfig) -> None:
    """Freeze layers at or below the replay level; store the parameters above
    it in their on-device form.  A binary layer whose weight bits do not
    train (frozen, or q_b_bin = 1) keeps its weight bits alone."""
    for idx, node in enumerate(g.nodes):
        trained = G.KINDS[node.kind].trained
        node.trainable = cfg.train_graph_layers and bool(trained) and idx > g.replay_level
        if node.kind in G.BINARY_KINDS and not (node.trainable and cfg.bitwidth.q_b_bin != 1):
            node.params.pop("latent", None)
        if not node.trainable:
            continue
        for pname in trained:
            if pname in node.params:  # no latent at q_b_bin = 1
                G.store_param(node, pname, node.params[pname], cfg.bitwidth)


def frozen_region_hash(g: Graph) -> str:
    """SHA-256 over every parameter byte of the frozen region."""
    h = hashlib.sha256()
    lvl = g.replay_level if g.replay_level is not None else -1
    for idx in range(lvl + 1):
        node = g.nodes[idx]
        for pname in sorted(node.params):
            h.update(pname.encode())
            h.update(np.ascontiguousarray(node.params[pname]).tobytes())
        if node.weight_bits is not None:
            h.update(np.ascontiguousarray(node.weight_bits.words).tobytes())
        if node.out_qparams is not None:
            h.update(repr(node.out_qparams).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# training phases


def _latents_for(g: Graph, xs: np.ndarray, ys: np.ndarray, bw: BitwidthConfig) -> list[LatentSample]:
    """Each row's replay-level output as a 1-bit sample: forward returns a
    sign's output as one packed BitTensor per chunk, split here by row."""
    out = []
    for i in range(0, len(xs), LATENT_BATCH):
        lat, _ = forward(g, xs[i : i + LATENT_BATCH], bw, mode="infer", stop_level=g.replay_level)
        rows = bitpack.unstack(lat)
        out += [LatentSample(activation=a, label=int(y)) for a, y in zip(rows, ys[i : i + LATENT_BATCH])]
    return out


def _minibatches(n: int, size: int, epochs: int, rng: np.random.Generator):
    """Row indices of each minibatch: one fresh permutation of n rows per
    pass, drawn when the pass starts."""
    for _ in range(epochs):
        order = rng.permutation(n)
        for i in range(0, n, size):
            yield order[i : i + size]


def _train_step(g: Graph, head: cwr.CWRHead, xs, labels, lr: float, bw: BitwidthConfig,
                from_level: int | None = None, train_graph: bool = True) -> float:
    """One SGD step of the head and, if train_graph, of the trainable layers
    above from_level; returns the batch loss."""
    feats, cache = forward(g, xs, bw, mode="train" if train_graph else "infer", from_level=from_level)
    logits = cwr.train_logits(head, feats)
    loss, g_logits = softmax_ce(logits, np.eye(head.max_classes)[labels])
    if not np.isfinite(loss):
        raise ProtocolError(f"training diverged: the batch loss holds a NaN or infinite value ({loss})")
    g_feat = cwr.apply_head_gradient(head, feats, g_logits, lr)
    if train_graph:
        sgd_step(g, backward(g, cache, g_feat, bw, from_level=from_level), lr, bw)
    return loss


def pretrain_first_experience(cfg: ContinualConfig, train_x, train_y, num_classes: int) -> Pretrained:
    """The offline phase: build the model, the head and the NC stream, set
    the BN statistics, train the full graph in float on experience 0 and
    consolidate the head.  Reads only the fields in PRETRAIN_FIELDS."""
    rng = np.random.default_rng(cfg.seed)
    g = build_reference_model(train_x.shape[1:], channels=cfg.channels, seed=cfg.seed)
    head = cwr.init(G.infer_shapes(g)[g.output_id][0], num_classes)
    stream = build_nc_experiences(train_x, train_y, cfg.num_experiences, cfg.seed)
    exp0 = stream[0]
    initialize_bn_stats(g, exp0.inputs[:STATS_ROWS])
    for node in g.nodes:
        node.trainable = bool(G.KINDS[node.kind].trained)

    cwr.begin_experience(head, exp0.classes_introduced)
    cwr.record_training(head, exp0.labels)
    fcfg = BitwidthConfig.floating()
    losses = [_train_step(g, head, exp0.inputs[idx], exp0.labels[idx], cfg.pretrain_learning_rate, fcfg)
              for idx in _minibatches(len(exp0.inputs), PRETRAIN_BATCH, cfg.pretrain_epochs, rng)]
    cwr.consolidate(head)
    return Pretrained(g, head, rng, stream, float(np.mean(losses)))


def _replay_draw_size(n_new: int, cfg: ContinualConfig) -> int:
    """Replayed latents joined to n_new new ones: B_R for a full batch, and
    the B_N:B_R ratio, rounded down, for a partial final one."""
    return n_new * cfg.b_r // cfg.b_n


def run_experience(g: Graph, head: cwr.CWRHead, mem: ReplayMemory, exp: Experience,
                   cfg: ContinualConfig, rng: np.random.Generator) -> float:
    """One on-device experience; returns the mean training loss."""
    classes_present = set(int(c) for c in exp.classes_introduced)
    if cfg.b_r > 0:
        classes_present |= set(mem.classes)
    cwr.begin_experience(head, classes_present)
    cwr.record_training(head, exp.labels)
    if cfg.b_r > 0:
        # replayed classes train too; their share of the experience is the
        # memory contents interleaved into every epoch
        cwr.record_training(head, [s.label for c in mem.classes for s in mem.per_class[c]])

    new = _latents_for(g, exp.inputs, exp.labels, cfg.bitwidth)
    losses = []
    for idx in _minibatches(len(new), cfg.b_n, cfg.epochs, rng):
        batch = [new[j] for j in idx]
        if cfg.b_r > 0 and mem.total > 0:
            k = _replay_draw_size(len(idx), cfg)
            if k > 0:
                batch += replay.sample_minibatch(mem, k, rng)
        losses.append(_train_step(g, head, bitpack.stack([s.activation for s in batch]),
                                  [s.label for s in batch], cfg.learning_rate, cfg.bitwidth,
                                  from_level=g.replay_level, train_graph=cfg.train_graph_layers))
    cwr.consolidate(head)

    replay.update_after_experience(mem, new, rng)
    return float(np.mean(losses))


def _predict(g: Graph, head: cwr.CWRHead, xs, bw: BitwidthConfig) -> np.ndarray:
    """Top-1 class per row with consolidated weights; argmax breaks ties low.
    xs holds input rows, or LatentSamples that resume at the replay level."""
    pred = np.empty(len(xs), dtype=np.int64)
    for i in range(0, len(xs), EVAL_BATCH):
        chunk = xs[i : i + EVAL_BATCH]
        if isinstance(xs, np.ndarray):
            feats, _ = forward(g, chunk, bw, mode="infer")
        else:
            feats, _ = forward(g, bitpack.stack([s.activation for s in chunk]), bw, mode="infer",
                               from_level=g.replay_level)
        pred[i : i + EVAL_BATCH] = np.argmax(cwr.predict(head, feats), axis=1)
    return pred


def evaluate(g: Graph, head: cwr.CWRHead, xs, ys: np.ndarray, bw: BitwidthConfig) -> float:
    """Top-1 accuracy with consolidated weights, on input rows or on their
    replay-level latents."""
    return int(np.sum(_predict(g, head, xs, bw) == ys)) / len(xs)


def per_class_accuracy(g: Graph, head: cwr.CWRHead, xs, ys,
                       bw: BitwidthConfig) -> tuple[float, dict[int, float]]:
    """The accuracy evaluate returns, and the accuracy on each class in ys,
    from one forward pass over xs."""
    hit = _predict(g, head, xs, bw) == ys
    per_class = {int(c): int(np.sum(hit[ys == c])) / int(np.sum(ys == c)) for c in np.unique(ys)}
    return int(np.sum(hit)) / len(xs), per_class


# ---------------------------------------------------------------------------
# full protocol


def build_nc_experiences(train_x, train_y, num_experiences: int, seed: int) -> list[Experience]:
    """New-Classes stream: classes partitioned across experiences, shuffled
    deterministically by seed."""
    classes = np.unique(train_y)
    if len(classes) < num_experiences:
        raise ProtocolError(f"{len(classes)} classes cannot fill {num_experiences} experiences")
    rng = np.random.default_rng(seed)
    shuffled = classes[rng.permutation(len(classes))]
    groups = [sorted(int(c) for c in part) for part in np.array_split(shuffled, num_experiences)]
    exps = []
    for k, group in enumerate(groups):
        mask = np.isin(train_y, group)
        exps.append(Experience(
            inputs=train_x[mask], labels=train_y[mask], index=k,
            classes_introduced=tuple(group),
        ))
    return exps


def deploy_and_run(pre: Pretrained, cfg: ContinualConfig, test_x, test_y,
                   started: float | None = None) -> tuple[MetricsLog, Graph, cwr.CWRHead, ReplayMemory]:
    """The on-device phase, on a deep copy of pre, which stays as it was:
    calibrate at q_f, freeze the backbone, fill the replay memory with
    experience 0's latents, then learn the later experiences.  One metrics
    row per experience; row 0's clock runs from started (default: now).  The
    frozen region never changes after the freeze, so the test rows cross it
    once and every evaluation resumes from their replay-level latents."""
    started = time.perf_counter() if started is None else started
    g, head, rng = copy.deepcopy((pre.graph, pre.head, pre.rng))
    exp0, *later = pre.stream
    calibrate_activations(g, exp0.inputs[:STATS_ROWS], cfg.bitwidth.q_f)
    freeze_backbone(g, cfg)
    mem = ReplayMemory(quota=cfg.quota, max_classes=head.max_classes)
    replay.update_after_experience(mem, _latents_for(g, exp0.inputs, exp0.labels, cfg.bitwidth), rng)
    log = MetricsLog(frozen_hash_before=frozen_region_hash(g))
    test_latents = _latents_for(g, test_x, test_y, cfg.bitwidth)

    def add_row(index: int, loss: float, t0: float):
        log.add(experience=index, mean_train_loss=loss,
                test_accuracy=evaluate(g, head, test_latents, test_y, cfg.bitwidth),
                fwd_macs=mac_count(g, "forward", above_level=g.replay_level),
                bwd_macs=mac_count(g, "backward", above_level=g.replay_level),
                replay_bits=replay.memory_footprint_bits(mem).payload_bits,
                elapsed_ms=(time.perf_counter() - t0) * 1000.0)

    add_row(0, pre.loss, started)
    for exp in later:
        t0 = time.perf_counter()
        add_row(exp.index, run_experience(g, head, mem, exp, cfg, rng), t0)
    log.frozen_hash_after = frozen_region_hash(g)
    return log, g, head, mem


def run_protocol(cfg: ContinualConfig, train_x, train_y, test_x, test_y,
                 num_classes: int) -> tuple[MetricsLog, Graph, cwr.CWRHead, ReplayMemory]:
    """The NC stream: pretrain_first_experience, then deploy_and_run on its
    result, with row 0's clock started before the pretraining."""
    started = time.perf_counter()
    pre = pretrain_first_experience(cfg, train_x, train_y, num_classes)
    return deploy_and_run(pre, cfg, test_x, test_y, started)
