"""The five workloads: set-up, one operation, and the check of its outputs.

Every workload drives dcan through the public functions of its modules and
looks each one up on its module at call time, so a traced run sees the
tracer's wrappers.  The workload seed is the only source of the inputs: it
seeds the synthetic corpus and the training runs, and the program sees only
the generated corpus and checkpoint.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dcan import autograd, cli, data, imaging, model, optim, train

MODEL_PX = 64  # the default config's model input size


@dataclass(frozen=True)
class Sizes:
    train_samples: int = 256   # 8 full batches of 32
    train_epochs: int = 2
    held_out: int = 128        # kept back from training, half of each class
    eval_images: int = 128
    eval_native_px: int = 128  # larger than the model input, as real inputs are
    infer_images: int = 256
    explain_images: int = 32
    checkpoint_images: int = 64  # corpus the set-up checkpoint is trained on
    checkpoint_epochs: int = 2


# A few images per workload; used by the smoke test.
TINY = Sizes(train_samples=32, train_epochs=1, held_out=16, eval_images=8,
             eval_native_px=64, infer_images=8, explain_images=2,
             checkpoint_images=8, checkpoint_epochs=1)


@dataclass
class Outcome:
    seconds: float  # wall time of the timed public call
    items: int
    value: object = None  # what the call returned, for the check


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    value = fn(*args, **kwargs)
    return time.perf_counter() - t0, value


def _main_quiet(argv) -> tuple[float, int, str]:
    """Run `dcan <argv>` in-process, timing only cli.main; stdout is kept
    out of the benchmark's own output."""
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        seconds, code = _timed(cli.main, argv)
    return seconds, code, buf.getvalue()


def _corpus(directory: Path, count: int, size: int, seed: int):
    cfg = data.SyntheticConfig(count=count, size=size, seed=seed)
    return data.generate_synthetic(cfg, directory)


def _preprocess(samples):
    cfg = train.RunConfig()
    return train.load_arrays(samples, cfg.clahe, cfg.backbone.input_size)


def _checkpoint(directory: Path, x, y, sizes: Sizes, seed: int) -> Path:
    """Train a short-run checkpoint on an evenly strided subset (the corpus
    lists one class after the other) and save it."""
    cfg = train.RunConfig()
    cfg.epochs = sizes.checkpoint_epochs
    stride = max(1, len(y) // sizes.checkpoint_images)
    trained = train.train_model(x[::stride], y[::stride], cfg, np.random.SeedSequence(seed))
    path = directory / "model.dcam"
    trained.save(path)
    return path


def _write_config(path: Path, **fields) -> Path:
    path.write_text(json.dumps(fields), encoding="utf-8")
    return path


class Workload:
    name = ""
    images_per_op = 1

    def __init__(self, sizes: Sizes, seed: int, dca_threads: int, src_dir: Path):
        self.sizes = sizes
        self.seed = seed
        self.dca_threads = dca_threads
        self.src_dir = src_dir

    def setup(self, directory: Path):
        raise NotImplementedError

    def op(self, state, i: int) -> Outcome:
        raise NotImplementedError

    def check(self, state, i: int, outcome: Outcome) -> list[str]:
        """Failure messages for this operation's outputs; empty when correct."""
        raise NotImplementedError


class Train(Workload):
    """train_model on a preprocessed corpus; imaging runs only in set-up.

    The held-out floor: the learnability gate asks >= 0.90 after 600 samples
    x 15 epochs (9,000 sample-steps).  Measured learning curves on this
    config stay at the constant-predictor level on some seeds for the first
    3,000+ sample-steps, so at this run length (512 sample-steps) the gate
    supports no floor above chance.  The floor is chance on the balanced
    held-out split minus three binomial standard deviations: it fails a run
    that predicts worse than a constant, not one that has not learned yet.
    """

    name = "train"

    def floor(self) -> float:
        return 0.5 - 3.0 * math.sqrt(0.25 / self.sizes.held_out)

    def setup(self, directory):
        s = self.sizes
        cfg = train.RunConfig()
        cfg.epochs = s.train_epochs
        samples = _corpus(directory / "corpus", s.train_samples + s.held_out, MODEL_PX,
                          self.seed)
        x, y = _preprocess(samples)
        order = np.random.default_rng(self.seed).permutation(len(y))
        held = np.concatenate([order[y[order] == c][:s.held_out // 2] for c in (0, 1)])
        kept = np.setdiff1d(order, held, assume_unique=True)
        return {"cfg": cfg, "dir": directory, "x": x[kept], "y": y[kept],
                "x_held": x[held], "y_held": y[held], "digest": None}

    def op(self, st, i):
        seconds, trained = _timed(train.train_model, st["x"], st["y"], st["cfg"],
                                  np.random.SeedSequence(self.seed))
        return Outcome(seconds, len(st["y"]) * st["cfg"].epochs, trained)

    def check(self, st, i, outcome):
        failures = []
        probs = train.predict_proba(outcome.value, st["x_held"], st["cfg"].batch_size)
        loss = optim.cross_entropy(autograd.Tensor(probs), np.eye(2)[st["y_held"]])
        if not np.isfinite(loss.data):
            failures.append(f"held-out loss is {float(loss.data)}")
        accuracy = float(np.mean(probs.argmax(axis=1) == st["y_held"]))
        if accuracy < self.floor():
            failures.append(f"held-out accuracy {accuracy:.4f} < floor {self.floor():.4f}")
        path = st["dir"] / "trained.dcam"
        outcome.value.save(path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if st["digest"] is None:
            st["digest"] = digest
        elif digest != st["digest"]:
            failures.append("trained parameters differ from the first repeat")
        return failures


class Eval(Workload):
    """`dcan eval` on larger-than-model PPMs, from disk to eval_report.csv."""

    name = "eval"

    @property
    def images_per_op(self):
        return self.sizes.eval_images

    def setup(self, directory):
        s = self.sizes
        samples = _corpus(directory / "corpus", s.eval_images, s.eval_native_px, self.seed)
        ckpt = _checkpoint(directory, *_preprocess(samples), s, self.seed)
        cfg = _write_config(directory / "run.json", data_dir=str(directory / "corpus"),
                            output_dir=str(directory / "out"))
        return {"argv": ["eval", "--config", str(cfg), "--checkpoint", str(ckpt)],
                "report": directory / "out" / "eval_report.csv", "first": None}

    def op(self, st, i):
        seconds, code, _ = _main_quiet(st["argv"])
        return Outcome(seconds, self.sizes.eval_images, code)

    def check(self, st, i, outcome):
        if outcome.value != 0:
            return [f"dcan eval exited with {outcome.value}"]
        text = st["report"].read_text(encoding="utf-8")
        lines = text.splitlines()
        failures = []
        if len(lines) != 3 or lines[0] != "fold,accuracy,precision,recall,f1,kappa":
            failures.append(f"eval_report.csv has an unexpected layout: {lines[:1]}")
        else:
            cells = lines[1].split(",")
            values = [float(c) for c in cells[1:]]
            if cells[0] != "0" or len(values) != 5 or not all(-1.0 <= v <= 1.0 for v in values):
                failures.append(f"eval_report.csv fold row is malformed: {lines[1]}")
            if not lines[2].startswith("mean±std,"):
                failures.append(f"eval_report.csv summary row is malformed: {lines[2]}")
        if st["first"] is None:
            st["first"] = text
        elif text != st["first"]:
            failures.append("eval_report.csv differs from the first repeat")
        return failures


class Infer(Workload):
    """predict_proba on preprocessed arrays, on the DCA_THREADS pool."""

    name = "infer"

    @property
    def images_per_op(self):
        return self.sizes.infer_images

    def setup(self, directory):
        s = self.sizes
        samples = _corpus(directory / "corpus", s.infer_images, MODEL_PX, self.seed)
        x, y = _preprocess(samples)
        ckpt = _checkpoint(directory, x, y, s, self.seed)
        return {"model": model.DcaModel.load(ckpt), "x": x, "first": None}

    def op(self, st, i):
        seconds, probs = _timed(train.predict_proba, st["model"], st["x"], 32,
                                self.dca_threads)
        return Outcome(seconds, len(st["x"]), probs)

    def check(self, st, i, outcome):
        probs = outcome.value
        failures = []
        if probs.shape != (len(st["x"]), 2) or not np.all(np.isfinite(probs)):
            failures.append("probabilities are not finite or have the wrong shape")
        elif np.max(np.abs(probs.sum(axis=1) - 1.0)) > 1e-12:
            failures.append("a probability row does not sum to 1 within 1e-12")
        if st["first"] is None:
            st["first"] = probs
        elif not np.array_equal(probs, st["first"]):
            failures.append("probabilities differ from the first repeat")
        return failures


EXPLAIN_STEMS = ["gradcam", "f_s", "f_g", "f_c", "f_a", "f_r"]


class Explain(Workload):
    """`dcan explain` for one image per request."""

    name = "explain"

    def setup(self, directory):
        s = self.sizes
        samples = _corpus(directory / "corpus", s.explain_images, MODEL_PX, self.seed)
        ckpt = _checkpoint(directory, *_preprocess(samples), s, self.seed)
        cfg = _write_config(directory / "run.json")
        return {"argv": ["explain", "--config", str(cfg), "--checkpoint", str(ckpt)],
                "images": [smp.path for smp in samples], "dir": directory / "explained"}

    def op(self, st, i):
        out = st["dir"] / str(i)
        argv = st["argv"] + ["--image", st["images"][i % len(st["images"])], "--out", str(out)]
        seconds, code, _ = _main_quiet(argv)
        return Outcome(seconds, 1, (code, out))

    def check(self, st, i, outcome):
        code, out = outcome.value
        try:
            return self.check_overlays(code, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    @staticmethod
    def check_overlays(code: int, out: Path) -> list[str]:
        """Exit code 0, every overlay present and parsing at 64x64, and a
        GradCAM++ map that is not flagged (flagged maps are written all 0)."""
        if code != 0:
            return [f"dcan explain exited with {code}"]
        failures = []
        expected = {f"{stem}.{ext}" for stem in EXPLAIN_STEMS for ext in ("pgm", "ppm")}
        written = {p.name for p in out.iterdir()} if out.is_dir() else set()
        if written != expected:
            failures.append(f"overlays written {sorted(written)}, expected {sorted(expected)}")
        for name in sorted(written & expected):
            try:
                img = imaging.read_ppm((out / name).read_bytes())
            except imaging.ImageFormatError as exc:
                failures.append(f"{name}: {exc}")
                continue
            if (img.width, img.height) != (MODEL_PX, MODEL_PX):
                failures.append(f"{name} is {img.width}x{img.height}")
            if name == "gradcam.pgm" and img.pixels.max() != 255:
                failures.append("GradCAM++ heatmap is flagged (all zero)")
        return failures


class Gradcheck(Workload):
    """`dcan gradcheck`, the full-model finite-difference audit.

    It reads no corpus or checkpoint, so its set-up is the program's start-up:
    a fresh interpreter importing dcan.cli, which every CLI call pays.
    """

    name = "gradcheck"
    PASSED = "gradient check passed: max relative error "

    def setup(self, directory):
        directory.mkdir(parents=True, exist_ok=True)
        code = f"import sys; sys.path.insert(0, {str(self.src_dir)!r}); import dcan.cli"
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
        return {"argv": ["gradcheck", "--out", str(directory)]}

    def op(self, st, i):
        seconds, code, stdout = _main_quiet(st["argv"])
        return Outcome(seconds, 1, (code, stdout))

    def check(self, st, i, outcome):
        code, stdout = outcome.value
        if code != 0:
            return [f"dcan gradcheck exited with {code}"]
        last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
        if not last.startswith(self.PASSED):
            return [f"dcan gradcheck printed no pass line: {last!r}"]
        error = float(last[len(self.PASSED):])
        return [] if error < 1e-4 else [f"max relative error {error:.3e} >= 1e-4"]


WORKLOAD_CLASSES = {cls.name: cls for cls in (Train, Eval, Infer, Explain, Gradcheck)}

