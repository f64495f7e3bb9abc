"""Dynamic contextual attention block.

Three branches over a feature map F [N,H,W,D]:
  spatial  - conv(k) -> relu -> softmax over spatial positions
  gating   - 1x1 conv -> sigmoid
  refine   - conv(k) -> sigmoid, added to the combined map
Combined as F_c = F_s * F_g, F_r = F_c + F_a, F_dca = F_r * F. Each branch
can be toggled for ablation; a disabled branch contributes nothing and its
parameters are never touched. The block keeps the width D of its input, so D
is not configured: the model sizes the parameters by its backbone's output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Tensor, conv2d, elementwise, relu, sigmoid, spatial_softmax


@dataclass
class DcaConfig:
    spatial_kernel: int = 3
    refine_kernel: int = 3
    enable_spatial: bool = True
    enable_gated: bool = True
    enable_refine: bool = True

    def __post_init__(self):
        for k in (self.spatial_kernel, self.refine_kernel):
            if k < 1 or k % 2 == 0:
                raise ValueError(f"attention kernels must be odd and >= 1, got {k}")
        if not (self.enable_spatial or self.enable_gated):
            if self.enable_refine:
                raise ValueError("refinement requires at least one of spatial/gated enabled")
            raise ValueError("at least one attention branch must be enabled")


def layer_params(rng: np.random.Generator, shape: tuple[int, ...]) -> tuple[Tensor, Tensor]:
    """A layer's trainable kernel of `shape` and bias of `shape[-1]` zeros. The
    kernel is zero-mean uniform within 1/sqrt(fan_in), where the fan-in is what
    one output channel reads: the product of every axis but the last."""
    bound = 1.0 / np.sqrt(np.prod(shape[:-1]))
    return (Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True),
            Tensor(np.zeros(shape[-1]), requires_grad=True))


def dca_layers(config: DcaConfig, d: int) -> list[tuple[str, str, tuple[int, ...]]]:
    """(kernel name, bias name, kernel shape) of each enabled branch for a
    `d`-channel feature map, in the order spatial, gate, refine."""
    return [(f"dca_{name}_w", f"dca_{name}_b", (k, k, d, d))
            for enabled, name, k in ((config.enable_spatial, "spatial", config.spatial_kernel),
                                     (config.enable_gated, "gate", 1),
                                     (config.enable_refine, "refine", config.refine_kernel))
            if enabled]


def init_dca_params(config: DcaConfig, d: int, rng: np.random.Generator) -> dict[str, Tensor]:
    """The `dca_layers` parameters, made by `layer_params` in that order: a lone
    block's parameters. The model draws these layers in its own one pass over
    every layer; perfbench's tracer patches this function by name."""
    params = {}
    for w, b, shape in dca_layers(config, d):
        params[w], params[b] = layer_params(rng, shape)
    return params


def spatial_branch(f: Tensor, params: dict[str, Tensor]) -> Tensor:
    return spatial_softmax(relu(conv2d(f, params["dca_spatial_w"], params["dca_spatial_b"])))


def gating_branch(f: Tensor, params: dict[str, Tensor]) -> Tensor:
    return sigmoid(conv2d(f, params["dca_gate_w"], params["dca_gate_b"]))


def refine_branch(f: Tensor, params: dict[str, Tensor]) -> Tensor:
    return sigmoid(conv2d(f, params["dca_refine_w"], params["dca_refine_b"]))


def dca_forward(f: Tensor, config: DcaConfig,
                params: dict[str, Tensor]) -> tuple[Tensor, dict[str, Tensor]]:
    """Apply the attention block with the `dca_*` entries of `params`; returns the
    attended map and a dict of the maps the enabled branches computed."""
    maps = {}
    if config.enable_spatial:
        maps["f_s"] = spatial_branch(f, params)
    if config.enable_gated:
        maps["f_g"] = gating_branch(f, params)

    if config.enable_spatial and config.enable_gated:
        maps["f_c"] = elementwise("mul", maps["f_s"], maps["f_g"])
    else:  # single-branch ablation: combined map is the branch map
        maps["f_c"] = maps["f_s"] if config.enable_spatial else maps["f_g"]

    if config.enable_refine:
        maps["f_a"] = refine_branch(f, params)
        maps["f_r"] = elementwise("add", maps["f_c"], maps["f_a"])
    else:
        maps["f_r"] = maps["f_c"]

    maps["f_dca"] = elementwise("mul", maps["f_r"], f)
    return maps["f_dca"], maps
