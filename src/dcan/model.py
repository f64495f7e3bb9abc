"""Backbone stand-in, attention block, and regularized classification head.

The backbone is a small strided-conv stack emitting a channels-last feature
map; the head is GAP -> dense+relu -> dropout -> dense -> class logits with an
optional unit-norm constraint on the dense weight columns.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .attention import DcaConfig, dca_forward, init_dca_params, uniform_init
from .autograd import (ShapeError, Tensor, conv2d, dense, dropout, global_average_pool, relu,
                       softmax_rows)
from .optim import unit_norm_project

CHECKPOINT_MAGIC = b"DCAM"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """Malformed checkpoint; the message names the file and the byte offset."""

    def __init__(self, path, offset: int, reason: str):
        super().__init__(f"{path}: byte {offset}: {reason}")


@dataclass
class BackboneConfig:
    input_size: int = 64
    blocks: list[tuple[int, int]] = field(default_factory=lambda: [(8, 2), (16, 2), (32, 2)])
    kernel: int = 3

    def __post_init__(self):
        self.blocks = [tuple(b) for b in self.blocks]
        if not self.blocks:
            raise ValueError("blocks must not be empty")
        if self.kernel < 1 or self.input_size < 1:
            raise ValueError(f"kernel {self.kernel} and input_size {self.input_size} must be >= 1")
        side = self.input_size
        for channels, stride in self.blocks:
            if channels < 1 or stride < 1:
                raise ValueError(f"block {(channels, stride)} needs channels >= 1 and stride >= 1")
            if side % stride != 0:
                raise ValueError(f"input_size {self.input_size} not divisible by strides {self.blocks}")
            side //= stride

    @property
    def feature_channels(self) -> int:
        return self.blocks[-1][0]


@dataclass
class HeadConfig:
    hidden_units: int = 64
    dropout_rate: float = 0.3
    num_classes: int = 2
    unit_norm: bool = True

    def __post_init__(self):
        if self.hidden_units < 1:
            raise ValueError(f"hidden_units must be >= 1, got {self.hidden_units}")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")


class DcaModel:
    """Backbone -> attention block -> head, with a flat named parameter dict."""

    def __init__(self, backbone: BackboneConfig, dca: DcaConfig, head: HeadConfig,
                 rng: np.random.Generator):
        if dca.channels != backbone.feature_channels:
            raise ValueError(f"attention channels {dca.channels} must match backbone "
                             f"output channels {backbone.feature_channels}")
        self.backbone = backbone
        self.dca = dca
        self.head = head
        self.params: dict[str, Tensor] = {}

        k = backbone.kernel
        cin = 3
        for i, (cout, _) in enumerate(backbone.blocks):
            self.params[f"backbone{i}_w"] = Tensor(uniform_init(rng, (k, k, cin, cout), k * k * cin),
                                                   requires_grad=True)
            self.params[f"backbone{i}_b"] = Tensor(np.zeros(cout), requires_grad=True)
            cin = cout
        self.params.update(init_dca_params(dca, rng))
        d, units = backbone.feature_channels, head.hidden_units
        for name, a in (("head_w1", uniform_init(rng, (d, units), d)),
                        ("head_b1", np.zeros(units)),
                        ("head_w2", uniform_init(rng, (units, head.num_classes), units)),
                        ("head_b2", np.zeros(head.num_classes))):
            self.params[name] = Tensor(a, requires_grad=True)
        self.project_unit_norm()

    def project_unit_norm(self):
        if self.head.unit_norm:
            unit_norm_project(self.params["head_w1"])
            unit_norm_project(self.params["head_w2"])

    # ------------------------------------------------------------------
    # forward stages

    def backbone_forward(self, image: Tensor) -> Tensor:
        if image.data.ndim != 4:
            raise ShapeError(f"backbone input must be rank 4, got rank {image.data.ndim}")
        n, h, w, c = image.shape
        if h != w or h != self.backbone.input_size:
            raise ShapeError(f"backbone expects square {self.backbone.input_size}px input, got {h}x{w}")
        if c != 3:
            raise ShapeError(f"backbone expects 3 input channels, got {c}")
        x = image
        for i, (_, stride) in enumerate(self.backbone.blocks):
            x = relu(conv2d(x, self.params[f"backbone{i}_w"], self.params[f"backbone{i}_b"],
                            stride=stride, padding="same"))
        return x

    def head_logits(self, f_dca: Tensor, training: bool = False,
                    rng: np.random.Generator | None = None) -> Tensor:
        pooled = global_average_pool(f_dca)
        hidden = relu(dense(pooled, self.params["head_w1"], self.params["head_b1"]))
        dropped = dropout(hidden, self.head.dropout_rate, training, rng)
        return dense(dropped, self.params["head_w2"], self.params["head_b2"])

    # unused by dcan; perfbench's tracer patches it by name until ROADMAP item 2 lands
    def head_forward(self, f_dca: Tensor, training: bool = False,
                     rng: np.random.Generator | None = None) -> Tensor:
        return softmax_rows(self.head_logits(f_dca, training, rng))

    def forward(self, image: Tensor, training: bool = False,
                rng: np.random.Generator | None = None) -> tuple[Tensor, dict[str, Tensor]]:
        """Class logits [N, num_classes] and the attention block's maps."""
        features = self.backbone_forward(image)
        f_dca, maps = dca_forward(features, self.dca, self.params)
        return self.head_logits(f_dca, training, rng), maps

    # ------------------------------------------------------------------
    # checkpoint io: magic, version, length-prefixed JSON config, then
    # parameter blobs in declaration order (u64 count + little-endian f64s)

    def config_dict(self) -> dict:
        return {"backbone": asdict(self.backbone), "dca": asdict(self.dca),
                "head": asdict(self.head)}

    def save(self, path) -> None:
        blob = bytearray()
        blob += CHECKPOINT_MAGIC
        blob += struct.pack("<I", CHECKPOINT_VERSION)
        cfg = json.dumps(self.config_dict(), sort_keys=True).encode("utf-8")
        blob += struct.pack("<I", len(cfg)) + cfg
        for p in self.params.values():
            flat = np.ascontiguousarray(p.data, dtype="<f8").ravel()
            blob += struct.pack("<Q", flat.size) + flat.tobytes()
        with open(path, "wb") as fh:
            fh.write(blob)

    @classmethod
    def load(cls, path) -> "DcaModel":
        with open(path, "rb") as fh:
            raw = memoryview(fh.read())

        def read(off: int, size: int, what: str) -> memoryview:
            chunk = raw[off:off + size]
            if len(chunk) < size:
                raise CheckpointError(path, off, f"truncated {what}: need {size} bytes, "
                                                 f"have {len(chunk)}")
            return chunk

        if read(0, 4, "magic") != CHECKPOINT_MAGIC:
            raise CheckpointError(path, 0, "not a model checkpoint: "
                                           f"bad magic {raw[:4].tobytes()!r}")
        (version,) = struct.unpack("<I", read(4, 4, "version"))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(path, 4, f"unsupported checkpoint version {version}")
        (cfg_len,) = struct.unpack("<I", read(8, 4, "config length"))
        cfg_bytes = read(12, cfg_len, "config").tobytes()
        try:
            cfg = json.loads(cfg_bytes.decode("utf-8"))
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise CheckpointError(path, 12, f"config is not UTF-8 JSON: {exc}") from None
        if not isinstance(cfg, dict) or set(cfg) != {"backbone", "dca", "head"}:
            raise CheckpointError(path, 12, "config must hold exactly the sections "
                                            "backbone, dca and head")
        try:
            model = cls(BackboneConfig(**cfg["backbone"]), DcaConfig(**cfg["dca"]),
                        HeadConfig(**cfg["head"]), rng=np.random.default_rng(0))
        except (TypeError, ValueError) as exc:
            raise CheckpointError(path, 12, f"bad config: {exc}") from None
        off = 12 + cfg_len
        for name, p in model.params.items():
            (count,) = struct.unpack("<Q", read(off, 8, f"length of {name}"))
            if count != p.size:
                raise CheckpointError(path, off, f"blob for {name} has {count} values, "
                                                 f"expected {p.size}")
            off += 8
            p.data = np.frombuffer(read(off, count * 8, name), dtype="<f8").reshape(p.shape).copy()
            off += count * 8
        if off != len(raw):
            raise CheckpointError(path, off, f"{len(raw) - off} trailing bytes")
        return model
