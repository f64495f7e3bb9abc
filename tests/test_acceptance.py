"""End-to-end acceptance gates for the whole package.

Each test covers one release criterion and prints a single PASS/FAIL line
with the measured value next to its frozen threshold. The statistical gates
(learnability, ablation direction, explanation overlap) share one seeded
synthetic corpus and one set of trained models via module-scoped fixtures.
"""

import json
import time
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dcan.attention import DcaConfig, dca_forward, init_dca_params
from dcan.autograd import Tensor, conv2d, grad_check
from dcan.cli import main as cli_main
from dcan.data import SyntheticConfig, generate_synthetic
from dcan.explain import gradcam_pp
from dcan.imaging import (LUMA_BINS, ClaheConfig, Image, _equalize, clahe, read_ppm,
                          rgb_to_ycbcr, to_unit)
from dcan.metrics import metrics
from dcan.model import BackboneConfig, DcaModel, HeadConfig
from dcan.optim import AdamWConfig, AdamWState, adamw_step, cross_entropy
from dcan.train import RunConfig, evaluate, load_arrays, train_model


def report_line(name, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"[{verdict}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared corpus and trained models (learnability / ablation / explanation)

CORPUS_SEED = 123
TRAIN_COUNT, TEST_COUNT = 600, 200
SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_corpus")
    cfg = RunConfig()
    cfg.synthetic = SyntheticConfig(count=TRAIN_COUNT + TEST_COUNT, size=64, seed=CORPUS_SEED)
    samples = generate_synthetic(cfg.synthetic, root)
    x, y = load_arrays(samples, cfg.clahe, cfg.backbone.input_size)
    perm = np.random.default_rng(CORPUS_SEED).permutation(len(samples))
    return SimpleNamespace(
        root=root, config=cfg, samples=samples, x=x, y=y,
        train_idx=perm[:TRAIN_COUNT], test_idx=perm[TRAIN_COUNT:])


@pytest.fixture(scope="module")
def trained(corpus):
    """Held-out accuracy for full / spatial-only / gated-only across 3 seeds."""
    variants = {
        "full": DcaConfig(),
        "spatial": DcaConfig(enable_gated=False, enable_refine=False),
        "gated": DcaConfig(enable_spatial=False, enable_refine=False),
    }
    tr, te = corpus.train_idx, corpus.test_idx
    accuracies = {}
    keep_model = None
    full_runtime = 0.0
    for name, dca in variants.items():
        cfg = replace(corpus.config, dca=dca)
        accs = []
        for seed in SEEDS:
            start = time.monotonic()
            model = train_model(corpus.x[tr], corpus.y[tr], cfg,
                                np.random.SeedSequence(seed))
            fold = evaluate(model, corpus.x[te], corpus.y[te],
                            cfg.batch_size, threads=1)
            if name == "full":
                full_runtime += time.monotonic() - start
                if seed == SEEDS[0]:
                    keep_model = model
            accs.append(fold.accuracy)
        accuracies[name] = np.array(accs)
    return SimpleNamespace(accuracies=accuracies, model=keep_model,
                           full_runtime=full_runtime)


# ---------------------------------------------------------------------------
# 1. gradient suite


def test_gradient_suite_full_model():
    rng = np.random.default_rng(37)
    model = DcaModel(BackboneConfig(input_size=16, blocks=[(4, 2), (8, 2)]),
                     DcaConfig(),
                     HeadConfig(hidden_units=8, dropout_rate=0.0), rng)
    # conditioned evaluation point: keeps every gradient entry above the
    # central-difference roundoff floor (~1e-11 at h=1e-5 on an O(1) loss)
    for p in model.params.values():
        p.data = rng.normal(0.0, 0.4, size=p.data.shape)
    x = rng.random((1, 16, 16, 3))
    onehot = np.array([[1.0, 0.0]])

    def loss_fn():
        logits, _ = model.forward(Tensor(x), training=False)
        return cross_entropy(logits, onehot)

    start = time.monotonic()
    result = grad_check(loss_fn, model.params, h=1e-5, tol=1e-4)
    elapsed = time.monotonic() - start
    report_line("gradient suite",
                result["passed"] and elapsed < 60.0,
                f"max relative error {result['max_relative_error']:.3e} "
                f"(< 1e-4), runtime {elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# 2. attention invariants over 10^4 random inputs


def test_attention_invariants_bulk():
    full = DcaConfig()
    spatial = DcaConfig(enable_gated=False, enable_refine=False)
    gated = DcaConfig(enable_spatial=False, enable_refine=False)
    no_refine = DcaConfig(enable_refine=False)
    rng = np.random.default_rng(0)
    params = init_dca_params(full, 8, rng)

    worst_sum = 0.0
    ok_range = True
    ok_toggle = True
    for _ in range(100):  # 100 batches x 100 samples = 10^4 inputs
        f = Tensor(rng.standard_normal((100, 6, 5, 8)))
        _, maps = dca_forward(f, full, params)
        worst_sum = max(worst_sum, float(np.max(np.abs(
            maps["f_s"].data.sum(axis=(1, 2)) - 1.0))))
        ok_range &= bool(np.all((maps["f_g"].data > 0) & (maps["f_g"].data < 1)))
        ok_range &= bool(np.all((maps["f_a"].data > 0) & (maps["f_a"].data < 1)))
        ok_range &= bool(np.all((maps["f_r"].data > 0) & (maps["f_r"].data < 2)))
        _, m_s = dca_forward(f, spatial, params)
        _, m_g = dca_forward(f, gated, params)
        _, m_nr = dca_forward(f, no_refine, params)
        ok_toggle &= np.array_equal(m_s["f_s"].data, maps["f_s"].data)
        ok_toggle &= np.array_equal(m_g["f_g"].data, maps["f_g"].data)
        ok_toggle &= np.array_equal(m_nr["f_c"].data, maps["f_c"].data)
    report_line("attention invariants",
                worst_sum < 1e-12 and ok_range and ok_toggle,
                f"spatial sums off by {worst_sum:.2e} (< 1e-12), "
                f"ranges ok={ok_range}, toggle independence bitwise={ok_toggle}")


# ---------------------------------------------------------------------------
# 3. oracle equivalence (conv2d / metrics / AdamW)


def conv2d_oracle(x, k, b, stride):
    n, h, w, cin = x.shape
    kh, kw, _, cout = k.shape
    ho, wo = -(-h // stride), -(-w // stride)
    th = max((ho - 1) * stride + kh - h, 0)
    tw = max((wo - 1) * stride + kw - w, 0)
    xp = np.pad(x, ((0, 0), (th // 2, th - th // 2), (tw // 2, tw - tw // 2), (0, 0)))
    out = np.zeros((n, ho, wo, cout))
    for ni in range(n):
        for i in range(ho):
            for j in range(wo):
                patch = xp[ni, i * stride:i * stride + kh, j * stride:j * stride + kw]
                out[ni, i, j] = np.tensordot(patch, k, axes=3) + b
    return out


def metrics_oracle(counts):
    counts = np.asarray(counts, dtype=float)
    c, total = counts.shape[0], counts.sum()
    acc = np.trace(counts) / total
    ps, rs, f1s = [], [], []
    for k in range(c):
        col, row = counts[:, k].sum(), counts[k, :].sum()
        p = counts[k, k] / col if col > 0 else 0.0
        r = counts[k, k] / row if row > 0 else 0.0
        ps.append(p)
        rs.append(r)
        f1s.append(2 * p * r / (p + r) if p + r > 0 else 0.0)
    p_e = sum(counts[k, :].sum() * counts[:, k].sum() for k in range(c)) / total ** 2
    kappa = 0.0 if p_e == 1.0 else (acc - p_e) / (1 - p_e)
    return acc, np.mean(ps), np.mean(rs), np.mean(f1s), kappa


def test_oracle_equivalence():
    rng = np.random.default_rng(1)

    conv_err = 0.0
    for stride in (1, 2):
        x = rng.standard_normal((2, 7, 6, 3))
        k = rng.standard_normal((3, 3, 3, 4))
        b = rng.standard_normal(4)
        got = conv2d(Tensor(x), Tensor(k), Tensor(b), stride=stride)
        conv_err = max(conv_err, float(np.max(np.abs(
            got.data - conv2d_oracle(x, k, b, stride)))))

    metric_err = 0.0
    for _ in range(1000):
        c = int(rng.integers(2, 5))
        counts = rng.integers(0, 30, (c, c))
        if counts.sum() == 0:
            counts[0, 0] = 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = metrics(counts).as_row()
        metric_err = max(metric_err, max(abs(g - w) for g, w in
                                         zip(got, metrics_oracle(counts))))

    cfg = AdamWConfig()
    theta0 = rng.standard_normal(6)
    grads = [rng.standard_normal(6) for _ in range(5)]
    p = Tensor(theta0.copy(), requires_grad=True)
    state = AdamWState({"p": p})
    theta, m, v = theta0.copy(), np.zeros(6), np.zeros(6)
    for t, g in enumerate(grads, start=1):
        p.grad = g.copy()
        adamw_step({"p": p}, state, cfg)
        m = cfg.beta1 * m + (1 - cfg.beta1) * g
        v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
        mh, vh = m / (1 - cfg.beta1 ** t), v / (1 - cfg.beta2 ** t)
        theta = theta - cfg.eta * (mh / (np.sqrt(vh) + cfg.epsilon)
                                   + cfg.weight_decay * theta)
    adamw_err = float(np.max(np.abs(p.data - theta)))

    report_line("oracle equivalence",
                conv_err <= 1e-12 and metric_err <= 1e-12 and adamw_err <= 1e-15,
                f"conv2d {conv_err:.2e} (<= 1e-12), metrics {metric_err:.2e} "
                f"(<= 1e-12), adamw {adamw_err:.2e} (<= 1e-15)")


# ---------------------------------------------------------------------------
# 4. learnability on the synthetic corpus


def test_learnability(trained):
    accs = trained.accuracies["full"]
    hits = int(np.sum(accs >= 0.90))
    report_line("learnability",
                hits >= 2 and trained.full_runtime < 600.0,
                f"held-out accuracy {np.round(accs, 4).tolist()} -> {hits}/3 seeds "
                f">= 0.90 (need >= 2), runtime {trained.full_runtime:.0f}s (< 600s)")


# ---------------------------------------------------------------------------
# 5. ablation direction (statistical, 1-std slack)


def test_ablation_direction(trained):
    full = trained.accuracies["full"]
    details = []
    ok = True
    for other in ("spatial", "gated"):
        accs = trained.accuracies[other]
        slack = max(full.std(ddof=1), accs.std(ddof=1))
        within = full.mean() >= accs.mean() - slack
        ok &= within
        details.append(f"full {full.mean():.4f} vs {other}-only {accs.mean():.4f} "
                       f"(1-std slack {slack:.4f})")
    report_line("ablation direction", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 6. explanation overlap and highlight rejection


def luma_of(path):
    img = read_ppm(Path(path).read_bytes())
    y, _, _ = rgb_to_ycbcr(img.pixels)
    return y


def test_explanation_overlap(corpus, trained):
    model = trained.model
    hits = total = 0
    blob_mass, highlight_mass = [], []
    for i in corpus.test_idx:
        sample = corpus.samples[i]
        probs, _, hm = gradcam_pp(model, Tensor(to_unit(corpus.x[i][None])))
        if probs.argmax() != corpus.y[i]:
            continue
        total_mass = hm.sum()
        if total_mass <= 0:
            continue
        if sample.label == 1:
            total += 1
            x0, y0, x1, y1 = sample.bbox
            row, col = np.unravel_index(np.argmax(hm), hm.shape)
            if x0 <= col <= x1 and y0 <= row <= y1:
                hits += 1
            blob_mass.append(hm[y0:y1 + 1, x0:x1 + 1].sum() / total_mass)
        else:
            mask = luma_of(sample.path) >= 235  # specular highlight cores
            if mask.any():
                highlight_mass.append(hm[mask].sum() / total_mass)

    rate = hits / total if total else 0.0
    blob = float(np.mean(blob_mass))
    highlight = float(np.mean(highlight_mass))
    report_line("explanation overlap",
                total > 0 and rate >= 0.70 and highlight < blob,
                f"argmax in box {hits}/{total} = {rate:.2f} (>= 0.70); mean mass "
                f"fraction on highlights {highlight:.3f} < on blobs {blob:.3f}")


# ---------------------------------------------------------------------------
# 7. training determinism through the CLI


def test_training_determinism(tmp_path):
    cfg = {
        "backbone": {"input_size": 16, "blocks": [[4, 2], [8, 2]]},
        "head": {"hidden_units": 8},
        "clahe": {"tiles": 2},
        "synthetic": {"count": 20, "size": 16, "seed": 5},
        "epochs": 1, "batch_size": 8, "k_folds": 2, "seed": 5,
        "data_dir": str(tmp_path / "data"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["gen", "--config", str(path)]) == 0
    assert cli_main(["train", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["train", "--config", str(path), "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "report.csv").read_bytes()
    b = (tmp_path / "b" / "report.csv").read_bytes()
    report_line("training determinism", a == b,
                f"two identical runs -> report CSVs byte-identical={a == b}")


# ---------------------------------------------------------------------------
# 8. adaptive-equalization properties


def test_equalization_properties():
    constant_ok = True
    for value in (0, 64, 128, 200, 255):
        img = Image(np.full((64, 64, 3), value, dtype=np.uint8))
        out = clahe(img, ClaheConfig())
        constant_ok &= int(np.max(np.abs(out.pixels.astype(int) - value))) <= 1

    rng = np.random.default_rng(2)
    gray = Image(rng.integers(0, 256, (32, 32, 1), dtype=np.uint8))
    out = clahe(gray, ClaheConfig(tiles=1, clip_limit=1e12))
    hist = np.bincount(gray.pixels.ravel(), minlength=256).astype(float)
    cdf = np.cumsum(hist)
    lut = np.clip(np.rint(255.0 * (cdf - hist / 2.0) / gray.pixels.size), 0, 255)
    he_err = int(np.max(np.abs(out.pixels[..., 0].astype(int)
                               - lut[gray.pixels[..., 0]].astype(int))))

    monotone = True
    for _ in range(100):
        values = rng.integers(0, 256, size=(16, 16))
        tile = _equalize(np.bincount(values.ravel(), minlength=LUMA_BINS), values.size,
                         ClaheConfig(clip_limit=float(rng.uniform(1, 6))))
        monotone &= bool(np.all(np.diff(tile.astype(int)) >= 0))

    report_line("adaptive equalization properties",
                constant_ok and he_err <= 1 and monotone,
                f"constant invariance +/-1={constant_ok}, global-equalization "
                f"limit err {he_err} (<= 1), 100 tile mappings monotone={monotone}")
