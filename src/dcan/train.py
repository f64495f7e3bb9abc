"""Training pipeline: preprocessing, minibatch AdamW training, k-fold runs.

A run is deterministic in (RunConfig, dataset bytes): all randomness flows
from numpy SeedSequences derived from the configured seed.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .attention import DcaConfig
from .autograd import Tape, Tensor, backward, softmax
from .data import CLASS_NAMES, Sample, SyntheticConfig, check_floors, kfold_split
from .imaging import (ClaheConfig, bilinear_stack, clahe, clahe_stack, load_ppm,
                      resize_bilinear, to_uint8, to_unit)
from .metrics import EvalReport, FoldMetrics, confusion, metrics
from .model import BackboneConfig, DcaModel, HeadConfig, parse_config
from .optim import AdamWConfig, AdamWState, adamw_step, cross_entropy


@dataclass
class RunConfig:
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    dca: DcaConfig = field(default_factory=DcaConfig)
    head: HeadConfig = field(default_factory=HeadConfig)
    adamw: AdamWConfig = field(default_factory=AdamWConfig)
    clahe: ClaheConfig = field(default_factory=ClaheConfig)
    synthetic: SyntheticConfig = field(default_factory=SyntheticConfig)
    epochs: int = 15
    batch_size: int = 32
    k_folds: int = 5
    seed: int = 0
    data_dir: str = "data"
    output_dir: str = "out"

    def __post_init__(self):
        check_floors(self, (("epochs", 1), ("batch_size", 1), ("k_folds", 2), ("seed", 0)))

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        """Load run.json; a malformed file raises a ValueError naming the path
        and either the JSON line and column or the offending key."""
        try:
            with open(path, encoding="utf-8") as fh:
                return parse_config(cls, json.load(fh))
        except ValueError as exc:  # also JSONDecodeError and UnicodeDecodeError
            raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# preprocessing


# Images per preprocessing pool task. On 2 vCPUs at 128 px, chunks of 4 let two threads
# overlap; chunks of 8 ran eval about 10 % faster, but each thread's temporaries doubled
# and eval's peak RSS rose from about 80 MB to 87-103 MB.
STACK_IMAGES = 4


def preprocess_sample(path, clahe_cfg: ClaheConfig, input_size: int) -> np.ndarray:
    """PPM bytes -> CLAHE -> bilinear resize -> float [S,S,3] in [0,1]."""
    return to_unit(resize_bilinear(clahe(load_ppm(path), clahe_cfg), input_size).rgb())


def _preprocess_chunk(samples: list[Sample], clahe_cfg: ClaheConfig,
                      input_size: int) -> np.ndarray:
    """The 8-bit levels of preprocess_sample of each sample, as one uint8
    [n, S, S, 3] array: the images of each (height, width, channels) go through
    the stack kernels together, and a gray result fills all three channels. An
    image the CLAHE tile grid does not fit raises a ValueError naming the first
    sample of its geometry."""
    pixels = [load_ppm(s.path).pixels for s in samples]
    groups: dict[tuple, list[int]] = {}
    for i, px in enumerate(pixels):
        groups.setdefault(px.shape, []).append(i)
    x = np.empty((len(pixels), input_size, input_size, 3), dtype=np.uint8)
    for idx in groups.values():
        try:
            stack = clahe_stack(np.stack([pixels[i] for i in idx]), clahe_cfg)
        except ValueError as exc:
            raise ValueError(f"{samples[idx[0]].path}: {exc}") from None
        x[idx] = to_uint8(bilinear_stack(stack, input_size))
    return x


def load_arrays(samples: list[Sample], clahe_cfg: ClaheConfig, input_size: int,
                threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Preprocessed images as uint8 levels, and labels, in sample order for any
    thread count: `to_unit(x[i])` is `preprocess_sample` of sample i. A pool task
    is a chunk of STACK_IMAGES consecutive samples."""
    chunks = [samples[i:i + STACK_IMAGES] for i in range(0, len(samples), STACK_IMAGES)]
    x = np.concatenate(_ordered_map(lambda c: _preprocess_chunk(c, clahe_cfg, input_size),
                                    chunks, threads))
    y = np.array([s.label for s in samples], dtype=int)
    return x, y


def _ordered_map(fn, items: list, threads: int) -> list:
    """[fn(item) for item in items], on a pool of `threads` workers when > 1."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


# ---------------------------------------------------------------------------
# training / evaluation


def build_model(config: RunConfig, seed_seq: np.random.SeedSequence) -> DcaModel:
    return DcaModel(config.backbone, config.dca, config.head,
                    rng=np.random.default_rng(seed_seq))


def _require_finite(loss: Tensor, params: dict[str, Tensor], where: str) -> None:
    if not np.isfinite(loss.data):
        raise FloatingPointError(f"non-finite loss at {where}")
    for name, p in params.items():
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise FloatingPointError(f"non-finite gradient of {name} at {where}")


def _require_levels(x: np.ndarray) -> None:
    """Reject images that are not load_arrays' uint8 levels: a float array
    would be scaled by 1/255 a second time."""
    if x.dtype != np.uint8:
        raise TypeError(f"images must be uint8 levels as load_arrays returns, got {x.dtype}")


def train_model(x: np.ndarray, y: np.ndarray, config: RunConfig,
                seed_seq: np.random.SeedSequence) -> DcaModel:
    """Minibatch AdamW training with per-step unit-norm projection, on uint8
    images `x` scaled to [0, 1] once per call.

    Raises FloatingPointError, naming the epoch and the step, as soon as the
    loss or a parameter gradient is not finite.
    """
    _require_levels(x)
    # once per call: scaling each batch made every step fault its float64 batch back
    # in, as small uint8 set-up arrays leave glibc's trim threshold low (ROADMAP item 10)
    x = to_unit(x)
    init_seq, shuffle_seq, dropout_seq = seed_seq.spawn(3)
    model = build_model(config, init_seq)
    state = AdamWState(model.params)
    shuffle_rng = np.random.default_rng(shuffle_seq)
    dropout_rng = np.random.default_rng(dropout_seq)
    onehot = np.eye(len(CLASS_NAMES))[y]

    n = len(y)
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        for step, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start:start + config.batch_size]
            with Tape() as tape:
                logits, _ = model.forward(Tensor(x[idx]), training=True, rng=dropout_rng)
                loss = cross_entropy(logits, onehot[idx])
            backward(loss, tape)
            _require_finite(loss, model.params, f"epoch {epoch}, step {step}")
            adamw_step(model.params, state, config.adamw)
            model.project_unit_norm()
    return model


def predict_proba(model: DcaModel, x: np.ndarray, batch_size: int = 32,
                  threads: int = 1) -> np.ndarray:
    """Inference probabilities of uint8 images; batches, each scaled to [0, 1]
    in its own task, may run on a thread pool, with a deterministic ordered
    concatenation of results."""
    _require_levels(x)
    batches = [x[i:i + batch_size] for i in range(0, len(x), batch_size)]

    def infer(batch):
        logits, _ = model.forward(Tensor(to_unit(batch)), training=False)
        return softmax(logits.data, axis=1)

    return np.concatenate(_ordered_map(infer, batches, threads), axis=0)


def evaluate(model: DcaModel, x: np.ndarray, y: np.ndarray,
             batch_size: int = 32, threads: int = 1) -> FoldMetrics:
    probs = predict_proba(model, x, batch_size, threads)
    return metrics(confusion(y, probs.argmax(axis=1), len(CLASS_NAMES)))


def run_cross_validation(x: np.ndarray, y: np.ndarray, config: RunConfig,
                         threads: int = 1) -> tuple[EvalReport, list[DcaModel]]:
    """Train one model per stratified fold of `x, y`; metrics come from the
    held-out fold only."""
    folds = kfold_split(y, config.k_folds, config.seed)
    fold_seqs = np.random.SeedSequence(config.seed).spawn(config.k_folds)

    report = EvalReport()
    models = []
    for fold in range(config.k_folds):
        tr = np.flatnonzero(folds != fold)
        va = np.flatnonzero(folds == fold)
        model = train_model(x[tr], y[tr], config, fold_seqs[fold])
        report.folds.append(evaluate(model, x[va], y[va], config.batch_size, threads))
        models.append(model)
    return report, models
