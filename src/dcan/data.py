"""Synthetic endoscopy-like corpus, directory loader, stratified k-fold.

Abnormal images carry one elliptical blob with a hue distinct from the
mucosa-pink background; BOTH classes receive bright specular highlight
spots so illumination cannot serve as a label shortcut. Generation is a
pure function of the config (seeded PCG64).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .imaging import Image, to_uint8, write_ppm

CLASS_NAMES = ("normal", "abnormal")  # label 0, label 1
ABNORMAL_FRACTION = 0.5
BLOB_RADIUS_RANGE = (0.08, 0.25)  # blob semi-axes, as fractions of the image side
HIGHLIGHT_COUNT_RANGE = (0, 4)  # specular highlights per image, inclusive
NOISE_STD = 0.02  # per-pixel Gaussian noise, as a fraction of 255
BBOX_COLUMNS = ("x0", "y0", "x1", "y1")  # manifest.csv columns of an abnormal image's bbox


def check_floors(config, floors) -> None:
    """Raise a ValueError naming the first field of `config` below its floor."""
    for key, low in floors:
        if getattr(config, key) < low:
            raise ValueError(f"'{key}' must be >= {low}, got {getattr(config, key)}")


@dataclass
class SyntheticConfig:
    count: int = 100
    size: int = 64
    seed: int = 0

    def __post_init__(self):
        check_floors(self, (("count", 1), ("size", 4), ("seed", 0)))  # 3 px fails to render


@dataclass
class Sample:
    path: str
    label: int
    bbox: tuple[int, int, int, int] | None = None  # x0,y0,x1,y1; abnormal only


BACKGROUND_RGB = np.array([185.0, 105.0, 110.0])  # mucosa pink
BLOB_RGB = np.array([150.0, 170.0, 70.0])  # olive blob, distinct hue


def _render_image(rng: np.random.Generator, config: SyntheticConfig,
                  abnormal: bool) -> tuple[Image, tuple[int, int, int, int] | None]:
    s = config.size
    yy, xx = np.mgrid[0:s, 0:s].astype(np.float64)

    # smooth illumination gradient in a random direction
    theta = rng.uniform(0, 2 * np.pi)
    ramp = (np.cos(theta) * xx + np.sin(theta) * yy) / s - 0.5
    img = BACKGROUND_RGB[None, None, :] + (rng.uniform(10, 35) * ramp)[..., None]
    img = img + rng.normal(0.0, 6.0, size=(s, s, 1))  # background texture

    bbox = None
    if abnormal:
        rx = rng.uniform(*BLOB_RADIUS_RANGE) * s
        ry = rng.uniform(*BLOB_RADIUS_RANGE) * s
        cx = rng.uniform(rx + 1, s - rx - 1)
        cy = rng.uniform(ry + 1, s - ry - 1)
        angle = rng.uniform(0, np.pi)
        ca, sa = np.cos(angle), np.sin(angle)
        u = (xx - cx) * ca + (yy - cy) * sa
        v = -(xx - cx) * sa + (yy - cy) * ca
        dist = np.sqrt((u / rx) ** 2 + (v / ry) ** 2)
        soft = np.clip(1.2 - dist, 0.0, 1.0)[..., None]  # soft edge
        img = img * (1 - soft) + BLOB_RGB[None, None, :] * soft
        ext = np.abs(ca) * rx + np.abs(sa) * ry, np.abs(sa) * rx + np.abs(ca) * ry
        x0 = max(int(np.floor(cx - ext[0])), 0)
        x1 = min(int(np.ceil(cx + ext[0])), s - 1)
        y0 = max(int(np.floor(cy - ext[1])), 0)
        y1 = min(int(np.ceil(cy + ext[1])), s - 1)
        bbox = (x0, y0, x1, y1)

    # specular highlights in both classes (illumination confounder)
    n_high = int(rng.integers(HIGHLIGHT_COUNT_RANGE[0], HIGHLIGHT_COUNT_RANGE[1] + 1))
    for _ in range(n_high):
        hx = rng.uniform(2, s - 2)
        hy = rng.uniform(2, s - 2)
        hr = rng.uniform(1.5, 3.5)
        glow = np.exp(-((xx - hx) ** 2 + (yy - hy) ** 2) / (2 * hr ** 2))
        img = img + 230.0 * glow[..., None]

    img = img + rng.normal(0.0, NOISE_STD * 255.0, size=(s, s, 3))
    return Image(to_uint8(img)), bbox


def generate_synthetic(config: SyntheticConfig, out_dir) -> list[Sample]:
    """Write the corpus as PPM files plus a manifest.csv; returns the samples."""
    out = Path(out_dir)
    rng = np.random.default_rng(config.seed)
    n_abnormal = round(config.count * ABNORMAL_FRACTION)
    labels = [1] * n_abnormal + [0] * (config.count - n_abnormal)
    for name in CLASS_NAMES:
        (out / name).mkdir(parents=True, exist_ok=True)

    samples = []
    for i, label in enumerate(labels):
        img, bbox = _render_image(rng, config, abnormal=bool(label))
        rel = f"{CLASS_NAMES[label]}/{CLASS_NAMES[label]}_{i:05d}.ppm"
        (out / rel).write_bytes(write_ppm(img))
        samples.append(Sample(path=str(out / rel), label=label, bbox=bbox))

    with open(out / "manifest.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "label", *BBOX_COLUMNS])
        for smp in samples:
            box = smp.bbox if smp.bbox else ("", "", "", "")
            writer.writerow([Path(smp.path).relative_to(out).as_posix(), smp.label, *box])
    return samples


def _manifest_boxes(manifest: Path) -> dict[str, tuple[int, int, int, int]]:
    """Bounding box per relative image path; a malformed manifest raises one
    ValueError naming the manifest and the line."""
    raw = manifest.read_bytes()
    try:
        reader = csv.DictReader(io.StringIO(raw.decode("utf-8"), newline=""))
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{manifest}, line {line}: not UTF-8 text") from None
    missing = [k for k in ("path", *BBOX_COLUMNS) if k not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"{manifest}, line 1: header lacks column(s) {', '.join(missing)}")
    boxes = {}
    for row in reader:
        cells = [row[k] for k in BBOX_COLUMNS]
        if cells[0]:
            try:
                boxes[row["path"]] = tuple(int(c) for c in cells)
            except (TypeError, ValueError):  # a short row fills its missing cells with None
                raise ValueError(f"{manifest}, line {reader.line_num}: bbox cells "
                                 f"{cells} are not all integers") from None
    return boxes


def load_dataset(root_dir) -> list[Sample]:
    """Scan <root>/<class>/*.ppm, merge manifest bounding boxes when present."""
    root = Path(root_dir)
    if not root.is_dir():
        raise FileNotFoundError(f"dataset root {root} does not exist")
    manifest = root / "manifest.csv"
    boxes = _manifest_boxes(manifest) if manifest.exists() else {}
    samples = []
    for sub in sorted(p for p in root.iterdir() if p.is_dir()):
        if sub.name not in CLASS_NAMES:
            raise ValueError(f"unknown class directory {sub}")
        label = CLASS_NAMES.index(sub.name)
        files = sorted(sub.glob("*.ppm"))
        for f in files:
            rel = f.relative_to(root).as_posix()
            samples.append(Sample(path=str(f), label=label, bbox=boxes.get(rel)))
    if not samples:
        raise ValueError(f"dataset root {root} holds no .ppm images")
    samples.sort(key=lambda s: s.path)
    return samples


def kfold_split(labels, k: int, seed: int) -> np.ndarray:
    """Stratified fold id per sample: per-class shuffle, then round-robin deal."""
    if k < 2:
        raise ValueError("k must be >= 2")
    labels = np.asarray(labels)
    classes, counts = np.unique(labels, return_counts=True)
    if k > counts.min():
        raise ValueError(f"k={k} exceeds the smallest class count {counts.min()}")
    rng = np.random.default_rng(seed)
    folds = np.empty(len(labels), dtype=int)
    for label in classes:
        idx = np.flatnonzero(labels == label)
        rng.shuffle(idx)
        folds[idx] = np.arange(len(idx)) % k
    return folds
