"""Command-line entry point: gen / train / eval / ablate / explain / gradcheck."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .attention import DcaConfig
from .autograd import Tensor, grad_check
from .data import CLASS_NAMES, generate_synthetic, load_dataset
from .imaging import load_ppm, resize_bilinear, clahe
from .metrics import METRIC_NAMES, EvalReport
from .model import BackboneConfig, DcaModel, HeadConfig
from .optim import cross_entropy
from .explain import attention_heatmap, export_heatmap, gradcam_pp
from .train import (RunConfig, evaluate, load_arrays, run_cross_validation,
                    preprocess_sample)


def _atomic_write(path: Path, data: bytes | str) -> None:
    """Write via a temp file + rename so failures leave no partial output."""
    path.parent.mkdir(parents=True, exist_ok=True)
    mode = "wb" if isinstance(data, bytes) else "w"
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, mode) as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _threads() -> int:
    """DCA_THREADS: pool size for preprocessing and inference (default 1)."""
    raw = os.environ.get("DCA_THREADS", "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"DCA_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


def cmd_gen(config: RunConfig) -> None:
    samples = generate_synthetic(config.synthetic, config.data_dir)
    print(f"generated {len(samples)} samples under {config.data_dir}")


def cmd_train(config: RunConfig, threads: int) -> None:
    samples = load_dataset(config.data_dir)
    x, y = load_arrays(samples, config.clahe, config.backbone.input_size, threads)
    report, models = run_cross_validation(x, y, config, threads)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for fold, model in enumerate(models):
        model.save(out / f"fold_{fold}.dcam")
    _atomic_write(out / "report.csv", report.to_csv())
    print(f"trained {config.k_folds} folds; report at {out / 'report.csv'}")


def cmd_eval(config: RunConfig, checkpoint: str, threads: int) -> None:
    model = DcaModel.load(checkpoint)
    samples = load_dataset(config.data_dir)
    x, y = load_arrays(samples, config.clahe, model.backbone.input_size, threads)
    fold = evaluate(model, x, y, config.batch_size, threads)
    report = EvalReport(folds=[fold])
    out = Path(config.output_dir) / "eval_report.csv"
    _atomic_write(out, report.to_csv())
    print(f"accuracy={fold.accuracy:.4f} kappa={fold.kappa:.4f}; report at {out}")


ABLATION_ROWS = [  # spatial, gated, refinement toggle matrix
    (True, False, False),
    (False, True, False),
    (True, True, True),
]


def cmd_ablate(config: RunConfig, threads: int) -> None:
    samples = load_dataset(config.data_dir)
    x, y = load_arrays(samples, config.clahe, config.backbone.input_size, threads)
    lines = ["spatial,gated,refinement," + ",".join(METRIC_NAMES)]
    for spatial, gated, refine in ABLATION_ROWS:
        dca = dataclasses.replace(config.dca, enable_spatial=spatial, enable_gated=gated,
                                  enable_refine=refine)
        cfg = dataclasses.replace(config, dca=dca)
        report, _ = run_cross_validation(x, y, cfg, threads)
        lines.append(f"{int(spatial)},{int(gated)},{int(refine)},{report.summary()}")
    out = Path(config.output_dir) / "ablation.csv"
    _atomic_write(out, "\n".join(lines) + "\n")
    print(f"ablation report at {out}")


def cmd_explain(config: RunConfig, checkpoint: str, image_path: str) -> None:
    model = DcaModel.load(checkpoint)
    size = model.backbone.input_size
    image = load_ppm(image_path)
    try:
        base = resize_bilinear(clahe(image, config.clahe), size)
    except ValueError as exc:  # the CLAHE tile grid does not fit the image
        raise ValueError(f"{image_path}: {exc}") from None
    x = Tensor(preprocess_sample(image_path, config.clahe, size)[None, ...])
    probs, maps, saliency = gradcam_pp(model, x)
    target = int(probs.argmax())
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    export_heatmap(saliency, base, out / "gradcam.ppm")
    for name in maps:
        if name != "f_dca":
            export_heatmap(attention_heatmap(maps, name, size), base, out / f"{name}.ppm")
    print(f"predicted class {target} (p={probs[target]:.4f}); overlays in {out}")


def cmd_gradcheck(config: RunConfig) -> None:
    """Full-model finite-difference suite on a reduced desk-scale model."""
    backbone = BackboneConfig(input_size=16, blocks=[(4, 2), (8, 2)],
                              kernel=config.backbone.kernel)
    dca = DcaConfig(spatial_kernel=config.dca.spatial_kernel,
                    refine_kernel=config.dca.refine_kernel)
    head = HeadConfig(hidden_units=8, dropout_rate=0.0, unit_norm=config.head.unit_norm)
    # fixed evaluation point, chosen so no gradient entry sits below the
    # central-difference roundoff floor (~1e-11 at h=1e-5 on an O(1) loss)
    rng = np.random.default_rng(37)
    model = DcaModel(backbone, dca, head, rng)
    for p in model.params.values():
        p.data = rng.normal(0.0, 0.4, size=p.data.shape)
    x = rng.random((1, 16, 16, 3))
    onehot = np.zeros((1, len(CLASS_NAMES)))
    onehot[0, 0] = 1.0

    def loss_fn():
        logits, _ = model.forward(Tensor(x), training=False)
        return cross_entropy(logits, onehot)

    report = grad_check(loss_fn, model.params, h=1e-5, tol=1e-4)
    for name, err in sorted(report["per_parameter"].items()):
        print(f"{name}: max relative error {err:.3e}")
    if not report["passed"]:
        raise RuntimeError(f"gradient check failed: max relative error "
                           f"{report['max_relative_error']:.3e} >= 1e-4")
    print(f"gradient check passed: max relative error {report['max_relative_error']:.3e}")


@functools.cache  # built once per process: building costs far more than a parse
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dcan",
                                     description="attention-based image classifier pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("gen", "train", "eval", "ablate", "explain", "gradcheck"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON run config (defaults used when omitted)")
        p.add_argument("--out", help="override output directory")
        p.add_argument("--seed", type=int, help="override run seed")
        if name in ("eval", "explain"):
            p.add_argument("--checkpoint", required=True)
        if name == "explain":
            p.add_argument("--image", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig.from_json(args.config) if args.config else RunConfig()
        if args.out is not None:
            config.output_dir = args.out
        if args.seed is not None:  # replace() runs the configs' range checks
            synthetic = dataclasses.replace(config.synthetic, seed=args.seed)
            config = dataclasses.replace(config, seed=args.seed, synthetic=synthetic)
        if args.command == "gen":
            cmd_gen(config)
        elif args.command == "train":
            cmd_train(config, _threads())
        elif args.command == "eval":
            cmd_eval(config, args.checkpoint, _threads())
        elif args.command == "ablate":
            cmd_ablate(config, _threads())
        elif args.command == "explain":
            cmd_explain(config, args.checkpoint, args.image)
        elif args.command == "gradcheck":
            cmd_gradcheck(config)
    except Exception as exc:  # one-line machine-parsable failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
