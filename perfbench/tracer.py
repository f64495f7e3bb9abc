"""Span tracer that wraps dcan's public functions from outside the package.

`Tracer.install` replaces each wrapped function under every name a dcan
module binds it to (modules do `from .autograd import conv2d`, so patching
the defining module alone would miss most callers) and patches methods on
their classes.  Each call records a span in memory (name, layer, start,
end, parent span, thread, request id); `Tracer.write` writes them out.

Spans of one request share the request id: the step for `train`, the image
for `explain`, the operation for the other workloads.  The backward time of
an autograd op is taken by wrapping the `backward_fn` of the tape node the
op has just appended.  `Tracer.uninstall` restores every original binding.

Self time is a span's wall time minus the time covered by its children.
When pool threads run children concurrently, each instant is shared equally
among the spans then running, and a span waiting on pool work is not
running, so the self times of one phase add up to the phase's wall time.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import importlib
import itertools
import os
import statistics
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

from spec import CONV_SITES, LAYERS, OPS

# a span record; ROOT is the name of its outermost span, CHILD the time its
# same-thread children took, SEQ its number in the output
NAME, LAYER, T0, T1, PARENT, TID, REQUEST_ID, INFO, ROOT, CHILD, SEQ = range(11)

CURRENT = contextvars.ContextVar("perfbench_span", default=None)
REQUEST = contextvars.ContextVar("perfbench_request", default=None)

_BRANCH_SITE = {"attention.spatial_branch": "dca_spatial",
                "attention.gating_branch": "dca_gate",
                "attention.refine_branch": "dca_refine"}

# the public functions the workloads reach, per module; "Class.method" is
# patched on the class
_FUNCTIONS = {
    "autograd": ["backward", "grad_check"],
    "attention": ["dca_forward", "spatial_branch", "gating_branch", "refine_branch",
                  "init_dca_params"],
    "optim": ["adamw_step", "unit_norm_project"],
    "model": ["DcaModel.__init__", "DcaModel.backbone_forward", "DcaModel.head_logits",
              "DcaModel.head_forward", "DcaModel.forward", "DcaModel.project_unit_norm",
              "DcaModel.save", "DcaModel.load"],
    "imaging": ["read_ppm", "write_ppm", "resize_bilinear", "clahe"],
    "data": ["generate_synthetic", "load_dataset"],
    "metrics": ["confusion", "metrics", "EvalReport.to_csv"],
    "explain": ["gradcam_pp", "attention_heatmap", "export_heatmap"],
    "train": ["preprocess_sample", "load_arrays", "build_model", "train_model",
              "predict_proba", "evaluate"],
    "cli": ["main", "cmd_eval", "cmd_explain", "cmd_gradcheck"],
}
# ops that append a tape node; their backward_fn is timed as "<name>.bwd"
_TAPE_OPS = {"autograd": ["conv2d", "tsum"] + OPS, "optim": ["cross_entropy"]}


class _ContextPool(ThreadPoolExecutor):
    """Runs each task in a copy of the submitter's context, so spans opened on
    pool threads name the submitting span as their parent."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _conv_info(parent, args, out):
    x, kernel = args[0], args[1]
    n, ho, wo, cout = out.shape
    kh, kw, cin, _ = kernel.shape
    fwd = 2 * n * ho * wo * kh * kw * cin * cout
    site = None
    if parent is not None:
        site = _BRANCH_SITE.get(parent[NAME])
        if parent[NAME] == "model.backbone_forward":
            k = parent[INFO] or 0  # running count of convs in this backbone pass
            parent[INFO] = k + 1
            site = f"backbone{k}"
    grads = int(kernel.requires_grad) + int(x.requires_grad)
    return {"site": site, "flops": fwd, "bwd_flops": fwd * grads}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._seq = itertools.count()
        self._threads = threading.local()
        self._thread_ids = itertools.count()

    # -- recording -------------------------------------------------------

    def _open(self, name, layer, info=None):
        parent = CURRENT.get()
        local = self._threads
        if not hasattr(local, "tid"):
            local.tid = next(self._thread_ids)
        rec = [name, layer, 0.0, 0.0, parent, local.tid, REQUEST.get(), info,
               name if parent is None else parent[ROOT], 0.0, next(self._seq)]
        self.spans.append(rec)
        return rec, CURRENT.set(rec)

    @staticmethod
    def _close(rec, token):
        rec[T1] = time.perf_counter()
        CURRENT.reset(token)
        parent = rec[PARENT]
        if parent is not None and parent[TID] == rec[TID]:
            parent[CHILD] += rec[T1] - rec[T0]

    @contextmanager
    def span(self, name, layer="bench"):
        rec, token = self._open(name, layer)
        rec[T0] = time.perf_counter()
        try:
            yield rec
        finally:
            self._close(rec, token)

    def _wrap(self, fn, name, layer, enter=None, leave=None):
        """Wrap fn in a span; enter(rec, args) runs before the clock starts and
        its result is handed to leave(rec, state) after the span closes."""
        open_, close = self._open, self._close
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec, token = open_(name, layer)
            state = enter(rec, args) if enter is not None else None
            rec[T0] = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                close(rec, token)
                if leave is not None:
                    leave(rec, state)
        return traced

    def _wrap_op(self, fn, name, layer, tape_stack):
        open_, close = self._open, self._close
        perf = time.perf_counter
        timed_backward = self._timed_backward

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tape = tape_stack[-1] if tape_stack else None
            before = len(tape.nodes) if tape is not None else 0
            rec, token = open_(name, layer)
            rec[T0] = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                close(rec, token)
            if name == "autograd.conv2d":
                rec[INFO] = _conv_info(rec[PARENT], args, out)
            if tape is not None and len(tape.nodes) > before:
                node = tape.nodes[-1]
                node.backward_fn = timed_backward(node.backward_fn, name + ".bwd", layer,
                                                  rec[INFO])
            return out
        return traced

    def _timed_backward(self, fn, name, layer, info):
        open_, close = self._open, self._close
        perf = time.perf_counter

        def traced(g):
            rec, token = open_(name, layer, info)
            rec[T0] = perf()
            try:
                fn(g)
            finally:
                close(rec, token)
        return traced

    # -- installation ----------------------------------------------------

    def _hooks(self) -> dict:
        """Per-span extras: counts read off the arguments, and the train step
        boundary that moves the request id to the next step."""

        def steps_enter(rec, args):
            rec[INFO] = 0
            return REQUEST.set(f"{rec[REQUEST_ID]}:0")

        def steps_leave(rec, token):
            REQUEST.reset(token)

        def step_done(rec, _):
            parent = rec[PARENT]
            if parent is not None and parent[NAME] == "train.train_model":
                parent[INFO] += 1
                REQUEST.set(f"{parent[REQUEST_ID]}:{parent[INFO]}")

        def batches(rec, args):
            size = args[2] if len(args) > 2 else 32
            rec[INFO] = -(-len(args[1]) // size)

        def set_info(get):
            def enter(rec, args):
                rec[INFO] = get(args)
            return enter

        def saved_bytes(rec, _):
            rec[INFO] = os.path.getsize(rec[INFO])

        return {
            "autograd.backward": (set_info(lambda a: len(a[1].nodes)), None),
            "train.train_model": (steps_enter, steps_leave),
            "model.project_unit_norm": (None, step_done),
            "train.predict_proba": (batches, None),
            "train.load_arrays": (set_info(lambda a: len(a[0])), None),
            "data.generate_synthetic": (set_info(lambda a: a[0].count), None),
            "model.load": (set_info(lambda a: os.path.getsize(a[1])), None),
            "model.save": (set_info(lambda a: a[1]), saved_bytes),
        }

    def install(self) -> None:
        """Wrap every listed function under each dcan name bound to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        autograd = importlib.import_module("dcan.autograd")
        hooks = self._hooks()
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, names in _FUNCTIONS.items():
            mod = importlib.import_module(f"dcan.{layer}")
            for qual in names:
                owner_name, _, attr = qual.rpartition(".")
                name = f"{layer}.{attr}"
                enter, leave = hooks.get(name, (None, None))
                if owner_name:  # a method: patch it on its class
                    cls = getattr(mod, owner_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(raw.__func__, name, layer, enter, leave))
                    else:
                        wrapped = self._wrap(raw, name, layer, enter, leave)
                    self._patches.append((cls, attr, raw))
                    setattr(cls, attr, wrapped)
                else:
                    func = getattr(mod, attr)
                    wrappers[id(func)] = (func, self._wrap(func, name, layer, enter, leave))
        for layer, names in _TAPE_OPS.items():
            mod = importlib.import_module(f"dcan.{layer}")
            for attr in names:
                func = getattr(mod, attr)
                wrappers[id(func)] = (func, self._wrap_op(func, f"{layer}.{attr}", layer,
                                                          autograd._TAPE_STACK))
        for mod_name in ["dcan"] + [f"dcan.{m}" for m in LAYERS]:
            mod = importlib.import_module(mod_name)
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        train = importlib.import_module("dcan.train")
        self._patches.append((train, "ThreadPoolExecutor", train.ThreadPoolExecutor))
        train.ThreadPoolExecutor = _ContextPool

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one CSV line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,layer,start_s,end_s,parent,thread,request\n")
            for rec in self.spans:
                parent = "" if rec[PARENT] is None else rec[PARENT][SEQ]
                fh.write(f"{rec[SEQ]},{rec[NAME]},{rec[LAYER]},{rec[T0]:.9f},{rec[T1]:.9f},"
                         f"{parent},{rec[TID]},{rec[REQUEST_ID]}\n")


# ---------------------------------------------------------------------------
# analysis


def _exclusive_segments(recs):
    """Intervals of one thread's spans during which each is the innermost."""
    segments = []
    stack = []  # [rec, time from which it is innermost]
    for rec in sorted(recs, key=lambda r: (r[T0], -r[T1])):
        while stack and stack[-1][0][T1] <= rec[T0]:
            top, since = stack.pop()
            segments.append((since, top[T1], top))
            if stack:
                stack[-1][1] = top[T1]
        if stack:
            segments.append((stack[-1][1], rec[T0], stack[-1][0]))
        stack.append([rec, rec[T0]])
    while stack:
        top, since = stack.pop()
        segments.append((since, top[T1], top))
        if stack:
            stack[-1][1] = top[T1]
    return [s for s in segments if s[1] > s[0]]


def self_times(recs):
    """(span, self seconds) pairs, adding up to the wall time the spans cover;
    concurrent running spans share each instant equally."""
    by_thread = defaultdict(list)
    for rec in recs:
        by_thread[rec[TID]].append(rec)
    if len(by_thread) == 1:
        return ((rec, rec[T1] - rec[T0] - rec[CHILD]) for rec in recs)
    segments = [s for thread in by_thread.values() for s in _exclusive_segments(thread)]
    out = defaultdict(float)

    ancestors = {}

    def lineage(rec):
        key = id(rec)
        if key not in ancestors:
            chain, p = set(), rec[PARENT]
            while p is not None:
                chain.add(id(p))
                p = p[PARENT]
            ancestors[key] = chain
        return ancestors[key]

    events = sorted([(s[0], 1, i) for i, s in enumerate(segments)]
                    + [(s[1], -1, i) for i, s in enumerate(segments)])
    active: set[int] = set()
    last = None
    for t, kind, i in events:
        if active and t > last:
            recs_now = [segments[j][2] for j in active]
            waiting = set()
            for r in recs_now:
                waiting |= lineage(r)
            running = [r for r in recs_now if id(r) not in waiting]
            share = (t - last) / len(running)
            for r in running:
                out[id(r)] += share
        last = t
        if kind == 1:
            active.add(i)
        else:
            active.discard(i)
    return ((rec, out[id(rec)]) for rec in recs)


def _median_ms(recs):
    return statistics.median(r[T1] - r[T0] for r in recs) * 1000.0 if recs else 0.0


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated between samples; 0 when empty."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer_metrics(spans, ops: int, images_per_op: int) -> dict[str, float]:
    """Per-layer numbers from one traced run.

    Spans under "bench.measure" roots are the measured phase; per-call times
    come from it, or from the "bench.setup" roots when the measured phase
    never calls that function (so train's imaging numbers come from set-up).
    """
    phase = defaultdict(list)
    for rec in spans:
        phase[rec[ROOT]].append(rec)
    meas, setup = phase["bench.measure"], phase["bench.setup"]
    by_meas, by_setup = defaultdict(list), defaultdict(list)
    for rec in meas:
        by_meas[rec[NAME]].append(rec)
    for rec in setup:
        by_setup[rec[NAME]].append(rec)

    def calls(name):
        return by_meas[name] or by_setup[name]

    def per_unit(name):
        recs = calls(name)
        units = sum(r[INFO] for r in recs)
        return sum(r[T1] - r[T0] for r in recs) * 1000.0 / units if units else 0.0

    m = {}
    # conv numbers come from one phase, so fwd, bwd and FLOPs describe the same work
    conv = by_meas if by_meas["autograd.conv2d"] else by_setup
    steps = [r for r in by_meas["model.project_unit_norm"]
             if r[PARENT] is not None and r[PARENT][NAME] == "train.train_model"]
    for site in CONV_SITES:
        fwd = [r for r in conv["autograd.conv2d"] if r[INFO]["site"] == site]
        bwd = [r for r in conv["autograd.conv2d.bwd"] if r[INFO]["site"] == site]
        flops = sum(r[INFO]["flops"] for r in fwd) + sum(r[INFO]["bwd_flops"] for r in bwd)
        seconds = sum(r[T1] - r[T0] for r in fwd + bwd)
        base = f"autograd.conv2d.{site}"
        m[f"{base}.fwd_ms"] = _median_ms(fwd)
        m[f"{base}.bwd_ms"] = _median_ms(bwd)
        m[f"{base}.gflops"] = flops / seconds / 1e9 if seconds else 0.0
        # per training step on train, per operation where no step is measured
        m[f"{base}.computed_flops_per_step"] = (flops // (len(steps) or ops)
                                                if conv is by_meas else 0)
    for op in OPS:
        m[f"autograd.{op}.fwd_ms"] = _median_ms(calls(f"autograd.{op}"))
        m[f"autograd.{op}.bwd_ms"] = _median_ms(calls(f"autograd.{op}.bwd"))
    backward = by_meas["autograd.backward"]
    m["autograd.tape_nodes_per_step"] = (statistics.median(r[INFO] for r in backward)
                                         if backward else 0)
    op_spans = [r for op in ["conv2d", "tsum"] + OPS for r in by_meas[f"autograd.{op}"]]
    m["autograd.op_calls"] = len(op_spans) // ops
    m["autograd.op_us_mean"] = (statistics.fmean(r[T1] - r[T0] for r in op_spans) * 1e6
                                if op_spans else 0.0)
    for name in ["dca_forward", "spatial_branch", "gating_branch", "refine_branch"]:
        m[f"attention.{name}_ms"] = _median_ms(calls(f"attention.{name}"))
    for name in ["cross_entropy", "adamw_step", "unit_norm_project"]:
        m[f"optim.{name}_ms"] = _median_ms(calls(f"optim.{name}"))
    for name in ["backbone_forward", "head_forward", "load"]:
        m[f"model.{name}_ms"] = _median_ms(calls(f"model.{name}"))
    sized = calls("model.load") or calls("model.save")
    m["model.checkpoint_bytes"] = max((r[INFO] for r in sized), default=0)
    for name in ["read_ppm", "clahe", "resize_bilinear", "write_ppm"]:
        m[f"imaging.{name}_ms"] = _median_ms(calls(f"imaging.{name}"))
    if by_meas["imaging.clahe"]:
        clahe_calls, images = len(by_meas["imaging.clahe"]), ops * images_per_op
    else:  # train preprocesses only in set-up
        clahe_calls = len(by_setup["imaging.clahe"])
        images = sum(r[INFO] for r in by_setup["train.load_arrays"])
    m["imaging.clahe_calls_per_image"] = clahe_calls / images if images else 0.0
    m["data.generate_ms_per_image"] = per_unit("data.generate_synthetic")
    m["data.load_dataset_ms"] = _median_ms(calls("data.load_dataset"))
    m["metrics.confusion_ms"] = _median_ms(calls("metrics.confusion"))
    m["metrics.metrics_ms"] = _median_ms(calls("metrics.metrics"))
    for name in ["gradcam_pp", "attention_heatmap", "export_heatmap"]:
        m[f"explain.{name}_ms"] = _median_ms(calls(f"explain.{name}"))

    # a step runs from the previous step's unit-norm projection (or from the
    # end of build_model) to the end of its own projection
    marks = defaultdict(list)
    for rec in spans:
        parent = rec[PARENT]
        if (parent is not None and parent[NAME] == "train.train_model"
                and rec[NAME] in ("train.build_model", "model.project_unit_norm")):
            marks[id(parent)].append(rec[T1])
    step_ms = []
    for run in calls("train.train_model"):
        ends = sorted(marks[id(run)])
        step_ms += [(b - a) * 1000.0 for a, b in zip(ends, ends[1:])]
    m["train.step_ms_p50"] = percentile(step_ms, 50)
    m["train.step_ms_p90"] = percentile(step_ms, 90)
    m["train.load_arrays_ms_per_image"] = per_unit("train.load_arrays")
    m["train.predict_proba_ms_per_batch"] = per_unit("train.predict_proba")
    m["cli.main_ms"] = _median_ms(calls("cli.main"))

    layer_ms = defaultdict(float)
    for rec, seconds in self_times(meas):
        layer_ms[rec[LAYER]] += seconds
    for layer in LAYERS + ["bench"]:
        m[f"{layer}.self_ms"] = layer_ms[layer] * 1000.0 / ops
    wall = sum(r[T1] - r[T0] for r in meas if r[PARENT] is None)
    m["trace.wall_ms"] = wall * 1000.0 / ops
    return m

