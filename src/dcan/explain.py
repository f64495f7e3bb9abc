"""GradCAM++ saliency on the attended feature map, plus heatmap export.

The saliency target layer is the attention-weighted feature map (the block's
output); channel weights use the exponential-score closed form of Grad-CAM++
(Chattopadhay et al., 2018), which needs only first-order gradients of the
class logit.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .autograd import Tape, Tensor, backward, elementwise, softmax, tsum
from .imaging import Image, bilinear_stack, to_uint8, write_ppm
from .model import DcaModel


def _heatmap(raw: np.ndarray, size: int) -> np.ndarray:
    """A raw [h, w] map upscaled to [size, size], divided by its peak if that is > 0."""
    up = bilinear_stack(raw[None], size)[0]
    peak = up.max()
    return up / peak if peak > 0 else up


def gradcam_weights(activations: np.ndarray, gradients: np.ndarray) -> np.ndarray:
    """Per-pixel alpha map from [h,w,D] activations and logit gradients."""
    g2 = gradients ** 2
    g3 = g2 * gradients
    channel_sum = (activations * g3).sum(axis=(0, 1), keepdims=True)
    denom = 2.0 * g2 + channel_sum
    ok = np.abs(denom) > 1e-30
    return np.where(ok, g2 / np.where(ok, denom, 1.0), 0.0)


def gradcam_map(activations: np.ndarray, gradients: np.ndarray) -> np.ndarray:
    """relu-weighted channel combination; unnormalized [h, w] map."""
    alpha = gradcam_weights(activations, gradients)
    weights = (alpha * np.maximum(gradients, 0.0)).sum(axis=(0, 1))
    return np.maximum((activations * weights).sum(axis=2), 0.0)


def gradcam_pp(model: DcaModel, image: Tensor) -> tuple[np.ndarray, dict[str, Tensor], np.ndarray]:
    """Explain the predicted class of one image (batch of 1) from one taped forward.

    Returns the class probabilities, the attention maps and the saliency
    heatmap: [S, S] floats in [0, 1] at the image size S, all zero when the
    GradCAM++ map has no positive entry.
    """
    if image.data.ndim != 4 or image.shape[0] != 1:
        raise ValueError("gradcam_pp expects a single-image batch [1,S,S,3]")
    with Tape() as tape:
        logits, maps = model.forward(image, training=False)
        probs = softmax(logits.data, axis=1)[0]
        onehot = np.zeros_like(logits.data)
        onehot[0, probs.argmax()] = 1.0
        score = tsum(elementwise("mul", logits, Tensor(onehot)))
    backward(score, tape)
    for p in model.params.values():
        p.zero_grad()

    f_dca = maps["f_dca"]
    raw = gradcam_map(f_dca.data[0], f_dca.grad[0])
    return probs, maps, _heatmap(raw, model.backbone.input_size)


def attention_heatmap(maps: dict[str, Tensor], name: str, size: int) -> np.ndarray:
    """Channel-mean of one retained attention map, upscaled and normalized."""
    if name not in maps:
        raise ValueError(f"attention map {name} absent (branch disabled)")
    raw = np.maximum(maps[name].data[0].mean(axis=2), 0.0)
    return _heatmap(raw, size)


def export_heatmap(heatmap: np.ndarray, base_image: Image, out_path) -> None:
    """Write <stem>.pgm (the [H, W] map in [0, 1]) and <stem>.ppm (red overlay
    at 50% blend)."""
    height, width = heatmap.shape
    if (width, height) != (base_image.width, base_image.height):
        raise ValueError(f"heatmap {width}x{height} does not match "
                         f"base image {base_image.width}x{base_image.height}")
    base = Path(out_path)
    stem = base.with_suffix("")
    Path(f"{stem}.pgm").write_bytes(write_ppm(Image(to_uint8(heatmap * 255.0)[..., None])))

    alpha = 0.5 * heatmap
    out = base_image.rgb().copy()
    out[..., 0] = to_uint8(np.floor((1.0 - alpha) * out[..., 0] + alpha * 255.0))
    Path(f"{stem}.ppm").write_bytes(write_ppm(Image(out)))
