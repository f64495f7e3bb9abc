"""Backbone stand-in, attention block, and regularized classification head.

The backbone is a small strided-conv stack emitting a channels-last feature
map; the head is GAP -> dense+relu -> dropout -> dense -> class logits with an
optional unit-norm constraint on the dense weight columns.
"""

from __future__ import annotations

import functools
import json
import math
import struct
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .attention import DcaConfig, dca_forward, dca_layers, layer_params
from .autograd import (ShapeError, Tensor, conv2d, dense, dropout, global_average_pool, relu,
                       softmax_rows)
from .data import CLASS_NAMES, check_floors
from .optim import unit_norm_project

CHECKPOINT_MAGIC = b"DCAM"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """Malformed checkpoint; the message names the file and the byte offset."""

    def __init__(self, path, offset: int, reason: str):
        super().__init__(f"{path}: byte {offset}: {reason}")


@functools.cache
def _hints(cls) -> dict:
    """The resolved field annotations of dataclass `cls`, resolved once."""
    return get_type_hints(cls)


def _conforms(value, hint) -> bool:
    """Whether a parsed JSON value has the annotated type. A float, or an int
    where a float is expected, must be a finite float64; a bool passes only for
    a bool, and a list for a list or a tuple."""
    if hint is float and type(value) in (int, float):
        return abs(value) <= sys.float_info.max  # False for NaN, infinities and huge ints
    if type(value) is hint:
        return True
    origin, args = get_origin(hint), get_args(hint)
    if origin is list:
        return isinstance(value, (list, tuple)) and all(_conforms(v, args[0]) for v in value)
    return (origin is tuple and isinstance(value, (list, tuple)) and len(value) == len(args)
            and all(map(_conforms, value, args)))


def parse_config(cls, raw):
    """Build dataclass `cls` from a parsed JSON object. Every entry must name a
    field of `cls` and have its annotated type, and every field without a
    default must be present; an entry annotated with a dataclass must be an
    object and is built the same way, its errors prefixed with "bad entry in
    '<key>': ". Raises ValueError naming the first bad entry."""
    if not isinstance(raw, dict):
        raise ValueError(f"config must be a JSON object, got {type(raw).__name__}")
    hints = _hints(cls)
    unknown = sorted(set(raw) - set(hints))
    if unknown:
        raise ValueError(f"unknown config key(s): {unknown}")
    missing = [f.name for f in fields(cls) if f.name not in raw
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"missing config key(s): {missing}")
    kwargs = dict(raw)
    for key, value in raw.items():
        section = is_dataclass(hints[key])
        hint = dict if section else hints[key]
        if not _conforms(value, hint):
            if hint is float and type(value) in (int, float):
                raise ValueError(f"'{key}' must be a finite number, got {value}")
            plain = get_origin(hint) is None
            raise ValueError(f"'{key}' must be {hint.__name__ if plain else hint}, "
                             f"got {type(value).__name__ if plain else repr(value)}")
        if section:
            try:
                kwargs[key] = parse_config(hints[key], value)
            except ValueError as exc:
                raise ValueError(f"bad entry in '{key}': {exc}") from None
    return cls(**kwargs)


@dataclass
class BackboneConfig:
    input_size: int = 64
    blocks: list[tuple[int, int]] = field(default_factory=lambda: [(8, 2), (16, 2), (32, 2)])
    kernel: int = 3

    def __post_init__(self):
        self.blocks = [tuple(b) for b in self.blocks]
        if not self.blocks:
            raise ValueError("blocks must not be empty")
        check_floors(self, (("kernel", 1), ("input_size", 1)))
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
    unit_norm: bool = True

    def __post_init__(self):
        check_floors(self, (("hidden_units", 1),))
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")


@dataclass
class _Header:
    """A checkpoint's config; `save` writes every field of every section."""
    backbone: BackboneConfig
    dca: DcaConfig
    head: HeadConfig


# header entries older saves wrote, each read off the rest of the config; one
# loads only when it is the int the config derives
_LEGACY_ENTRIES = {("dca", "channels"): lambda header: header.backbone.feature_channels,
                   ("head", "num_classes"): lambda header: len(CLASS_NAMES)}


def _layers(backbone: BackboneConfig, dca: DcaConfig,
            head: HeadConfig) -> list[tuple[str, str, tuple[int, ...]]]:
    """(kernel name, bias name, kernel shape) of every layer, in draw and
    checkpoint order: backbone, attention branches, head; a bias is as long as
    its kernel's last axis."""
    k, cin, layers = backbone.kernel, 3, []
    for i, (cout, _) in enumerate(backbone.blocks):
        layers.append((f"backbone{i}_w", f"backbone{i}_b", (k, k, cin, cout)))
        cin = cout
    d, units = backbone.feature_channels, head.hidden_units
    return layers + dca_layers(dca, d) + [("head_w1", "head_b1", (d, units)),
                                          ("head_w2", "head_b2", (units, len(CLASS_NAMES)))]


class DcaModel:
    """Backbone -> attention block -> head, with a flat named parameter dict."""

    def __init__(self, backbone: BackboneConfig, dca: DcaConfig, head: HeadConfig,
                 rng: np.random.Generator):
        self.backbone = backbone
        self.dca = dca
        self.head = head
        self.params: dict[str, Tensor] = {}
        for w, b, shape in _layers(backbone, dca, head):
            self.params[w], self.params[b] = layer_params(rng, shape)
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
                            stride=stride))
        return x

    def head_logits(self, f_dca: Tensor, training: bool = False,
                    rng: np.random.Generator | None = None) -> Tensor:
        pooled = global_average_pool(f_dca)
        hidden = relu(dense(pooled, self.params["head_w1"], self.params["head_b1"]))
        dropped = dropout(hidden, self.head.dropout_rate, training, rng)
        return dense(dropped, self.params["head_w2"], self.params["head_b2"])

    # unused by dcan; perfbench's tracer patches it by name until ROADMAP item 4 removes it
    def head_forward(self, f_dca: Tensor, training: bool = False,
                     rng: np.random.Generator | None = None) -> Tensor:
        return softmax_rows(self.head_logits(f_dca, training, rng))

    def forward(self, image: Tensor, training: bool = False,
                rng: np.random.Generator | None = None) -> tuple[Tensor, dict[str, Tensor]]:
        """Class logits [N, len(CLASS_NAMES)] and the attention block's maps."""
        features = self.backbone_forward(image)
        f_dca, maps = dca_forward(features, self.dca, self.params)
        return self.head_logits(f_dca, training, rng), maps

    # ------------------------------------------------------------------
    # checkpoint io: magic, version, length-prefixed JSON config, then
    # parameter blobs in declaration order (u64 count + little-endian f64s)

    def config_dict(self) -> dict:
        return asdict(_Header(self.backbone, self.dca, self.head))

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
        legacy = {(section, key): cfg[section].pop(key) for section, key in _LEGACY_ENTRIES
                  if isinstance(cfg, dict) and isinstance(cfg.get(section), dict)
                  and key in cfg[section]}
        try:
            header = parse_config(_Header, cfg)
            missing = [f"{name}.{f.name}" for name, section_cls in _hints(_Header).items()
                       for f in fields(section_cls) if f.name not in cfg[name]]
            if missing:
                raise ValueError(f"header lacks {missing}")
            for (section, key), value in legacy.items():
                derived = _LEGACY_ENTRIES[section, key](header)
                if type(value) is not int or value != derived:
                    raise ValueError(f"'{section}.{key}' is {value!r}, not the derived {derived}")
        except ValueError as exc:
            raise CheckpointError(path, 12, f"bad config: {exc}") from None
        # built from the header's shapes, not by __init__: every value comes from the file
        model = cls.__new__(cls)
        model.backbone, model.dca, model.head = header.backbone, header.dca, header.head
        model.params = {}
        off = 12 + cfg_len
        layers = _layers(header.backbone, header.dca, header.head)
        shapes = ((name, shape) for w, b, kernel in layers
                  for name, shape in ((w, kernel), (b, kernel[-1:])))
        for name, shape in shapes:
            (count,) = struct.unpack("<Q", read(off, 8, f"length of {name}"))
            if count != math.prod(shape):
                raise CheckpointError(path, off, f"blob for {name} has {count} values, "
                                                 f"expected {math.prod(shape)}")
            off += 8
            values = np.frombuffer(read(off, count * 8, name), dtype="<f8")
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise CheckpointError(path, off + 8 * int(bad[0]),
                                      f"{name} holds a non-finite value")
            model.params[name] = Tensor(values.reshape(shape).copy(), requires_grad=True)
            off += count * 8
        if off != len(raw):
            raise CheckpointError(path, off, f"{len(raw) - off} trailing bytes")
        return model
