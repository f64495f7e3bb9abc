"""Digest every output of a fixed end-to-end dcan run, for bit-for-bit comparisons.

Usage: python3 tools/output_digest.py <src_dir>
       python3 tools/output_digest.py --compare <old_src_dir> <new_src_dir>

Runs gen -> train -> eval -> ablate -> explain (abnormal_00000, normal_00063)
-> gradcheck with the `dcan` package found in <src_dir>, in a fresh temporary
directory, on a 64-image corpus trained for 2 epochs over 2 folds. Between
ablate and explain it also trains a spatial-only and a gated-only model on
that corpus (1 epoch, 2 folds) into out_spatial/ and out_gated/: ablate
writes only 6-decimal metrics, so these checkpoints are what show every bit
of the single-branch models' initialisation and training. Then it generates
a 32-image corpus of 128 px images into data128/ and runs eval and explain
(abnormal_00000) on it with fold_0.dcam into out128/, so the 128 -> 64 px
downsampling of larger frames is covered too. Last, it writes P5 (gray)
copies of the first GRAY_PER_CLASS 64 px images of each class into
data_gray/, from their green channel and named `.ppm` as `load_dataset`
expects. It runs eval and explain (abnormal_00000) on them with fold_0.dcam,
and a 1-epoch train whose checkpoints hold every bit of the preprocessed gray
arrays, into out_gray/, so the gray paths of preprocessing are covered too.

For each EXPLAINED image it also runs GRADIENT_PROBE with fold_0.dcam, which
writes the raw float64 bytes of `gradcam_pp`'s saliency array and of
`maps["f_dca"].grad` into out/explain_raw/<stem>/. `dcan explain` is the only
command whose backward runs at training=False, through the inference dropout
node, `tsum` and the one-hot `mul`, yet its results otherwise reach the digest
only as 8-bit overlays, and `gradcheck` prints 4 significant digits: a
gradient that moved in its last bits would pass both.

Prints one `sha256  path` line per output file and per command's stdout (with
the temporary directory written as `<tmp>`). DCA_THREADS is passed through.
Two source trees give identical outputs when `diff` finds no difference
between their digests:

    python3 tools/output_digest.py old/src > old.txt
    python3 tools/output_digest.py src > new.txt
    diff old.txt new.txt

`--compare` digests both trees at DCA_THREADS=1 and at DCA_THREADS=2, prints
each line that differs as `DCA_THREADS=<n> <path>: <old sha> -> <new sha>`
and exits 1 on any difference, 0 when every line matches.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# config file -> (run config, data directory, output directory)
CONFIGS = {
    "run.json": ({"synthetic": {"count": 64, "size": 64, "seed": 0}, "epochs": 2, "k_folds": 2},
                 "data", "out"),
    "run128.json": ({"synthetic": {"count": 32, "size": 128, "seed": 0}}, "data128", "out128"),
    "run_gray.json": ({"epochs": 1, "k_folds": 2}, "data_gray", "out_gray"),
    "run_spatial.json": ({"epochs": 1, "k_folds": 2,
                          "dca": {"enable_gated": False, "enable_refine": False}},
                         "data", "out_spatial"),
    "run_gated.json": ({"epochs": 1, "k_folds": 2,
                        "dca": {"enable_spatial": False, "enable_refine": False}},
                       "data", "out_gated"),
}
EXPLAINED = ["abnormal/abnormal_00000.ppm", "normal/normal_00063.ppm"]
GRAY_PER_CLASS = 5  # gray copies per class: 10 images span three preprocessing chunks
# argv: config, checkpoint, image, output directory; preprocesses as `dcan explain` does
GRADIENT_PROBE = """
import sys
from pathlib import Path
from dcan.autograd import Tensor
from dcan.explain import gradcam_pp
from dcan.model import DcaModel
from dcan.train import RunConfig, preprocess_sample
config, checkpoint, image, out = sys.argv[1:]
model = DcaModel.load(checkpoint)
x = preprocess_sample(image, RunConfig.from_json(config).clahe, model.backbone.input_size)
_, maps, saliency = gradcam_pp(model, Tensor(x[None, ...]))
Path(out).mkdir(parents=True)
Path(out, "saliency.f64").write_bytes(saliency.tobytes())
Path(out, "f_dca_grad.f64").write_bytes(maps["f_dca"].grad.tobytes())
"""


def _explain(tmp: Path, label: str, config: list[str], checkpoint: list[str], data: str,
             out: str, rel: str) -> tuple[str, list[str]]:
    stem = Path(rel).stem
    return (f"{label}_{stem}", ["explain", *config, *checkpoint, "--image", str(tmp / data / rel),
                                "--out", str(tmp / out / "explain" / stem)])


def _commands(tmp: Path) -> list[tuple[str, list[str]]]:
    config = ["--config", str(tmp / "run.json")]
    config128 = ["--config", str(tmp / "run128.json")]
    checkpoint = ["--checkpoint", str(tmp / "out" / "fold_0.dcam")]
    steps = [("gen", ["gen", *config]), ("train", ["train", *config]),
             ("eval", ["eval", *config, *checkpoint]), ("ablate", ["ablate", *config])]
    steps += [(f"train_{branch}", ["train", "--config", str(tmp / f"run_{branch}.json")])
              for branch in ("spatial", "gated")]
    steps += [_explain(tmp, "explain", config, checkpoint, "data", "out", rel) for rel in EXPLAINED]
    steps.append(("gradcheck", ["gradcheck", *config]))
    steps += [("gen128", ["gen", *config128]), ("eval128", ["eval", *config128, *checkpoint])]
    steps.append(_explain(tmp, "explain128", config128, checkpoint, "data128", "out128",
                          EXPLAINED[0]))
    return steps


def _gray_commands(tmp: Path) -> list[tuple[str, list[str]]]:
    config = ["--config", str(tmp / "run_gray.json")]
    checkpoint = ["--checkpoint", str(tmp / "out" / "fold_0.dcam")]
    return [("train_gray", ["train", *config]), ("eval_gray", ["eval", *config, *checkpoint]),
            _explain(tmp, "explain_gray", config, checkpoint, "data_gray", "out_gray",
                     EXPLAINED[0])]


def _write_gray_copies(data: Path, gray: Path) -> None:
    """P5 copies of the first GRAY_PER_CLASS P6 images of each class of `data`,
    made of their green channel, at the same relative paths under `gray`."""
    for class_dir in sorted(p for p in data.iterdir() if p.is_dir()):
        (gray / class_dir.name).mkdir(parents=True)
        for path in sorted(class_dir.glob("*.ppm"))[:GRAY_PER_CLASS]:
            magic, size, maxval, payload = path.read_bytes().split(b"\n", 3)
            if magic != b"P6" or maxval != b"255":
                raise SystemExit(f"{path}: not a P6 header as `dcan gen` writes it")
            (gray / class_dir.name / path.name).write_bytes(
                b"P5\n%s\n255\n%s" % (size, payload[1::3]))


COMPARED_THREADS = (1, 2)  # DCA_THREADS values of --compare


def digest(src_dir: Path, threads: int | None = None) -> list[str]:
    """`sha256  path` lines for every output of the fixed run, sorted by path;
    DCA_THREADS is `threads` when given, else passed through."""
    env = dict(os.environ, PYTHONPATH=str(src_dir.resolve()))
    if threads is not None:
        env["DCA_THREADS"] = str(threads)
    lines = {}
    with tempfile.TemporaryDirectory(prefix="dcan_digest_") as name:
        tmp = Path(name)
        for config_name, (config, data, out) in CONFIGS.items():
            (tmp / config_name).write_text(json.dumps(dict(
                config, data_dir=str(tmp / data), output_dir=str(tmp / out))))

        def python(label: str, argv: list[str]) -> str:
            proc = subprocess.run([sys.executable, *argv], env=env,
                                  cwd=tmp, capture_output=True, text=True)
            if proc.returncode != 0:
                raise SystemExit(f"dcan {label} exited with {proc.returncode}:\n{proc.stderr}")
            return proc.stdout

        def run(label: str, argv: list[str]) -> None:
            stdout = python(label, ["-m", "dcan.cli", *argv]).replace(str(tmp), "<tmp>")
            lines[f"stdout/{label}"] = hashlib.sha256(stdout.encode("utf-8")).hexdigest()

        for step in _commands(tmp):
            run(*step)
        for rel in EXPLAINED:
            stem = Path(rel).stem
            python(f"gradient_probe_{stem}", [
                "-c", GRADIENT_PROBE, str(tmp / "run.json"), str(tmp / "out" / "fold_0.dcam"),
                str(tmp / "data" / rel), str(tmp / "out" / "explain_raw" / stem)])
        _write_gray_copies(tmp / "data", tmp / "data_gray")
        for step in _gray_commands(tmp):
            run(*step)
        for path in sorted(tmp.rglob("*")):
            rel = path.relative_to(tmp).as_posix()
            if path.is_file() and rel not in CONFIGS:
                lines[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return [f"{sha}  {rel}" for rel, sha in sorted(lines.items())]


def compare(old_src: Path, new_src: Path) -> int:
    """Print the digest lines of the two trees that differ; 1 if any does."""
    differ = 0
    for threads in COMPARED_THREADS:
        old, new = (dict(line.split("  ", 1)[::-1] for line in digest(src, threads))
                    for src in (old_src, new_src))
        for path in sorted(old.keys() | new.keys()):
            if old.get(path) != new.get(path):
                differ += 1
                print(f"DCA_THREADS={threads} {path}: {old.get(path, '-')} -> {new.get(path, '-')}")
        print(f"DCA_THREADS={threads}: {len(old.keys() | new.keys())} lines compared")
    print(f"{differ} lines differ" if differ else "every line matches")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    comparing = argv[:1] == ["--compare"]
    trees = argv[1:] if comparing else argv
    if (len(trees) != (2 if comparing else 1)
            or not all((Path(t) / "dcan" / "__init__.py").is_file() for t in trees)):
        print("\n".join(__doc__.strip().splitlines()[2:4]), file=sys.stderr)
        print("each source directory must hold the dcan package", file=sys.stderr)
        return 2
    if comparing:
        return compare(Path(trees[0]), Path(trees[1]))
    print("\n".join(digest(Path(trees[0]))))
    return 0

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
