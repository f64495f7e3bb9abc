"""Dynamic contextual attention classifier with a from-scratch autograd core."""

from .attention import DcaConfig, dca_forward
from .autograd import Tape, Tensor, backward, grad_check
from .model import BackboneConfig, DcaModel, HeadConfig
from .optim import AdamWConfig, AdamWState, adamw_step, cross_entropy, unit_norm_project
from .train import RunConfig

__all__ = [
    "DcaConfig", "dca_forward",
    "Tape", "Tensor", "backward", "grad_check",
    "BackboneConfig", "DcaModel", "HeadConfig",
    "AdamWConfig", "AdamWState", "adamw_step", "cross_entropy", "unit_norm_project",
    "RunConfig",
]
