"""Digest every output of a fixed end-to-end dcan run, for bit-for-bit comparisons.

Usage: python3 tools/output_digest.py <src_dir>

Runs gen -> train -> eval -> ablate -> explain (abnormal_00000, normal_00063)
-> gradcheck with the `dcan` package found in <src_dir>, in a fresh temporary
directory, on a 64-image corpus trained for 2 epochs over 2 folds. Then it
generates a 32-image corpus of 128 px images into data128/ and runs eval and
explain (abnormal_00000) on it with fold_0.dcam into out128/, so the 128 -> 64
px downsampling of larger frames is covered too. Prints one `sha256  path`
line per output file and per command's stdout (with the temporary directory
written as `<tmp>`). DCA_THREADS is passed through. Two
source trees give identical outputs when `diff` finds no difference between
their digests:

    python3 tools/output_digest.py old/src > old.txt
    python3 tools/output_digest.py src > new.txt
    diff old.txt new.txt
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
}
EXPLAINED = ["abnormal/abnormal_00000.ppm", "normal/normal_00063.ppm"]


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
    steps += [_explain(tmp, "explain", config, checkpoint, "data", "out", rel) for rel in EXPLAINED]
    steps.append(("gradcheck", ["gradcheck", *config]))
    steps += [("gen128", ["gen", *config128]), ("eval128", ["eval", *config128, *checkpoint])]
    steps.append(_explain(tmp, "explain128", config128, checkpoint, "data128", "out128",
                          EXPLAINED[0]))
    return steps


def digest(src_dir: Path) -> list[str]:
    """`sha256  path` lines for every output of the fixed run, sorted by path."""
    env = dict(os.environ, PYTHONPATH=str(src_dir.resolve()))
    lines = {}
    with tempfile.TemporaryDirectory(prefix="dcan_digest_") as name:
        tmp = Path(name)
        for config_name, (config, data, out) in CONFIGS.items():
            (tmp / config_name).write_text(json.dumps(dict(
                config, data_dir=str(tmp / data), output_dir=str(tmp / out))))
        for label, argv in _commands(tmp):
            proc = subprocess.run([sys.executable, "-m", "dcan.cli", *argv], env=env,
                                  cwd=tmp, capture_output=True, text=True)
            if proc.returncode != 0:
                raise SystemExit(f"dcan {label} exited with {proc.returncode}:\n{proc.stderr}")
            stdout = proc.stdout.replace(str(tmp), "<tmp>").encode("utf-8")
            lines[f"stdout/{label}"] = hashlib.sha256(stdout).hexdigest()
        for path in sorted(tmp.rglob("*")):
            rel = path.relative_to(tmp).as_posix()
            if path.is_file() and rel not in CONFIGS:
                lines[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return [f"{sha}  {rel}" for rel, sha in sorted(lines.items())]


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "dcan" / "__init__.py").is_file():
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        print("<src_dir> must hold the dcan package", file=sys.stderr)
        return 2
    print("\n".join(digest(Path(argv[0]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
