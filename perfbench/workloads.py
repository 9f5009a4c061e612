"""The benchmark workloads and the values their outputs must have.

Why each workload exists, and which layers it loads, is in README.md next to
this file. Every `train` config pins all of its fields, so a change to the
CLI's defaults does not silently change a workload.

The workload seed (`--seed`) is the `synth` seed: it draws the class
prototypes and samples of every dataset the workload uses. The protocol seed
(model init, class order, shuffles, replay draws) is fixed per workload.
"""

from __future__ import annotations

from dataclasses import dataclass

SHAPE = (12, 12, 1)
TRAIN_FRAC = 0.8  # datasets.stratified_split default, used by `synth`
DEFAULT_SEED = 7


@dataclass(frozen=True)
class Data:
    classes: int
    samples_per_class: int

    def synth_args(self, out: str, seed: int) -> list[str]:
        return ["synth", "--out", out, "--classes", str(self.classes),
                "--samples-per-class", str(self.samples_per_class),
                "--shape", ",".join(map(str, SHAPE)), "--seed", str(seed)]

    @property
    def rows_per_class(self) -> int:
        return int(round(TRAIN_FRAC * self.samples_per_class))

    @property
    def train_rows(self) -> int:
        return self.classes * self.rows_per_class

    @property
    def test_rows(self) -> int:
        return self.classes * (self.samples_per_class - self.rows_per_class)


def train_config(*, channels=32, q_f="8", q_b_nonbin="16", q_b_bin="4", quota=80, b_n=16,
                 b_r=64, experiences=5, epochs=5, pretrain_epochs=8, seed=1) -> dict:
    """A complete `binreplay train` config; defaults are the CLI defaults of
    the criterion-8 "full" arm with protocol seed 1."""
    return {
        "model": {"preset": "reference", "channels": channels},
        "bitwidth": {"q_f": q_f, "q_b_nonbin": q_b_nonbin, "q_b_bin": q_b_bin},
        "replay": {"quota": quota, "b_n": b_n, "b_r": b_r},
        "protocol": {"num_experiences": experiences, "epochs": epochs, "lr": 0.3, "seed": seed,
                     "pretrain_epochs": pretrain_epochs, "pretrain_lr": 0.2, "head_only": False},
    }


@dataclass(frozen=True)
class Workload:
    name: str
    data: Data  # train and test splits for `train`
    train: dict  # the timed `train` config, or the checkpoint build for eval-stream
    # eval-stream only: the stream classified by the timed `eval` (its train
    # split). It shares the data's synth seed: make_synthetic draws the class
    # prototypes from the seed, so a stream with another seed scores at chance.
    stream: Data | None = None

    @property
    def is_eval(self) -> bool:
        """The timed command is `eval` of the stream, not `train`."""
        return self.stream is not None


# The criterion-8 "full" arm with 1 epoch per experience and 2 pretrain
# epochs instead of 5 and 8: each command lasts a few seconds, so that a run
# holds several repeats and their median is steady (README.md, "Noise").
NC_PROTOCOL = train_config(epochs=1, pretrain_epochs=2)
WORKLOADS = {
    w.name: w for w in (
        Workload("nc-protocol", Data(10, 100), NC_PROTOCOL),
        # classifies with the model nc-protocol trains
        Workload("eval-stream", Data(10, 100), NC_PROTOCOL, stream=Data(10, 125)),
    )
}


# ---------------------------------------------------------------------------
# values computed from the config and the shapes of the reference model


def experience_sizes(classes: int, experiences: int) -> list[int]:
    """Classes per experience: np.array_split of the shuffled class list."""
    q, r = divmod(classes, experiences)
    return [q + (1 if i < r else 0) for i in range(experiences)]


def expected_metrics_columns(w: Workload) -> dict[str, list[int]]:
    """fwd_macs, bwd_macs and replay_bits per metrics.csv row.

    Only block3_conv (3x3, C->C, same padding) sits above the replay level;
    it trains, so backward is twice forward. The replay level keeps one bit
    per element of an H x W x C latent, up to `quota` latents per class.
    """
    h, wd, _ = SHAPE
    c = w.train["model"]["channels"]
    proto, rep = w.train["protocol"], w.train["replay"]
    fwd = h * wd * 9 * c * c
    per_class_bits = min(rep["quota"], w.data.rows_per_class) * h * wd * c
    bits, seen = [], 0
    for n_classes in experience_sizes(w.data.classes, proto["num_experiences"]):
        seen += n_classes
        bits.append(seen * per_class_bits)
    n = len(bits)
    return {"fwd_macs": [fwd] * n, "bwd_macs": [2 * fwd] * n, "replay_bits": bits}


def replayed_train_rows(w: Workload) -> int:
    """New plus replayed rows trained in experiences >= 1.

    learner.run_experience draws b_r replayed latents per full batch of b_n
    new ones, and n * b_r // b_n for a partial last batch.
    """
    proto, rep = w.train["protocol"], w.train["replay"]
    b_n, b_r = rep["b_n"], rep["b_r"]
    total = 0
    for n_classes in experience_sizes(w.data.classes, proto["num_experiences"])[1:]:
        n = n_classes * w.data.rows_per_class
        per_epoch = 0
        for i in range(0, n, b_n):
            k = min(b_n, n - i)
            per_epoch += k + (b_r if k == b_n else k * b_r // b_n)
        total += proto["epochs"] * per_epoch
    return total
